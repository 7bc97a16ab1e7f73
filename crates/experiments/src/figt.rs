//! Figure T — achievable II across interconnect topologies (a beyond-the-
//! paper experiment enabled by the `Topology` machine-description API).
//!
//! The paper fixes the interconnect to a bi-directional ring and shows that
//! partitioning costs almost nothing up to 8 clusters. This experiment asks
//! the follow-up question its §5 discussion invites: **how much of that
//! result is the ring's doing?** The same suite is scheduled at 2, 4 and 8
//! clusters on four interconnects — the ring, a chordal ring (stride-2
//! chords), a shared bus (full connectivity, one shared output queue per
//! cluster) and a crossbar (full connectivity, a queue per directed pair) —
//! and every schedule is verified end-to-end: register-allocated, lowered
//! to VLIW code, executed on the machine interpreter and bit-compared
//! against a scalar reference of its source loop.

use crate::figc::TopologySweep;
use crate::runner::{mean, per_cluster, percent, LoopMeasurement};
use dms_machine::TopologyKind;
use serde::{Deserialize, Serialize};

/// One (topology, cluster count) aggregate of figure T.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigTRow {
    /// The interconnect.
    pub topology: TopologyKind,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Percentage of loops whose II matches the unclustered ideal.
    pub percent_no_overhead: f64,
    /// Mean relative II overhead over the unclustered ideal.
    pub mean_overhead: f64,
    /// Mean `move` operations per loop (chains; zero on bus/crossbar where
    /// every pair is directly connected).
    pub mean_moves: f64,
    /// DMS schedules rejected for overflowing a queue file, retried at a
    /// higher II (the bus pays here: all traffic leaving a cluster shares
    /// one queue file's registers).
    pub pressure_retries: u64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// Aggregates one topology's sweep into per-cluster-count rows.
fn aggregate(topology: TopologyKind, rows: &[LoopMeasurement], clusters: &[u32]) -> Vec<FigTRow> {
    per_cluster(rows, clusters, |c, of_c| FigTRow {
        topology,
        clusters: c,
        loops: of_c.len(),
        percent_no_overhead: percent(of_c, |m| !m.ii_increased()),
        mean_overhead: mean(of_c, |m| m.clustered_ii as f64 / m.unclustered_ii as f64 - 1.0),
        mean_moves: mean(of_c, |m| m.moves as f64),
        pressure_retries: of_c.iter().map(|m| m.pressure_retries as u64).sum(),
        verified_stores: of_c.iter().map(|m| m.verified_stores).sum(),
    })
}

/// Figure T: one row per (topology, cluster count) of a topology sweep
/// (see [`crate::figc::sweep_topologies`]), topologies in sweep order.
pub fn figure_t(sweeps: &[TopologySweep], clusters: &[u32]) -> Vec<FigTRow> {
    sweeps.iter().flat_map(|s| aggregate(s.topology, &s.measurements, clusters)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figc::{sweep_topologies, FIGC_CLUSTERS, FIGC_TOPOLOGIES};
    use crate::runner::ExperimentConfig;

    #[test]
    fn figure_t_covers_every_topology_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
        let sweeps = sweep_topologies(&cfg, &FIGC_TOPOLOGIES, false, &Default::default());
        let rows = figure_t(&sweeps, &cfg.cluster_counts);
        assert_eq!(rows.len(), FIGC_TOPOLOGIES.len() * FIGC_CLUSTERS.len());
        for s in &sweeps {
            assert_eq!(s.stats.failed, 0, "{}: figure T must verify every schedule", s.topology);
            assert!(s.stats.stores_verified > 0, "{}: verification is forced on", s.topology);
        }
        for row in &rows {
            assert_eq!(row.loops, 6);
            assert!(row.verified_stores > 0, "{}: nothing verified", row.topology);
        }
        // bus and crossbar are fully connected: chains can never arise
        let fully_connected = [TopologyKind::Bus, TopologyKind::Crossbar];
        for row in rows.iter().filter(|r| fully_connected.contains(&r.topology)) {
            assert_eq!(row.mean_moves, 0.0, "{}: moves on a fully connected fabric", row.topology);
        }
        // the ring rows match a plain ring sweep of the same configuration
        let ring_cfg = ExperimentConfig { verify: true, ..cfg };
        let (ring_rows, _) = crate::runner::measure_suite_with_stats(&ring_cfg);
        let direct = aggregate(TopologyKind::Ring, &ring_rows, &ring_cfg.cluster_counts);
        assert_eq!(&rows[..FIGC_CLUSTERS.len()], &direct[..]);
    }

    #[test]
    fn richer_interconnects_never_do_worse_than_the_ring() {
        // The crossbar relaxes every communication constraint of the ring,
        // so its per-cluster-count no-overhead fraction can only be equal or
        // higher on this deterministic suite.
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![8];
        let rows =
            figure_t(&sweep_topologies(&cfg, &FIGC_TOPOLOGIES, false, &Default::default()), &[8]);
        let pct = |kind: TopologyKind| {
            rows.iter().find(|r| r.topology == kind).map(|r| r.percent_no_overhead).unwrap()
        };
        let ring = pct(TopologyKind::Ring);
        assert!(pct(TopologyKind::Crossbar) >= ring, "a crossbar can never lose to the ring");
        assert!(
            pct(TopologyKind::ChordalRing { chord: 2 }) >= ring,
            "chords only add connectivity"
        );
    }
}
