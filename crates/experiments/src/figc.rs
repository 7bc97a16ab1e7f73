//! Figure C — *achieved* II under contention-accurate interconnect timing
//! (a beyond-the-paper experiment enabled by `dms-sim`'s contention
//! timing).
//!
//! Figure T compares topologies by the II the *scheduler* reaches, which
//! implicitly assumes every cross-cluster transfer lands in the cycle the
//! schedule planned it — true for a crossbar, optimistic for a shared bus.
//! Figure C times the transfers of every emitted VLIW program, inside the
//! verify's execution ([`dms_sim::contention`]), on the links each topology
//! names ([`dms_machine::Link`]; bus: one transaction per cycle across the
//! whole fabric; ring/chordal: one per directed link; crossbar:
//! unconstrained) and reports the II the machine actually sustains next to
//! the II the scheduler promised. The interesting verdict is at 8 clusters:
//! figure T scores the bus and the crossbar identically (the scheduler sees
//! the same full connectivity), and figure C answers whether the shared
//! medium keeps that promise once transfers serialise.
//!
//! Both figures sweep the same grid — [`FIGC_TOPOLOGIES`] at
//! [`FIGC_CLUSTERS`] — through one driver, [`sweep_topologies`]; figure C
//! is figure T's sweep with contention timing switched on.

use crate::runner::{
    mean, measure_loops_with_stats_on, per_cluster, percent, ExperimentConfig, LoopMeasurement,
    SweepStats,
};
use dms_machine::TopologyKind;
use dms_service::ScheduleService;
use dms_telemetry::Registry;
use dms_workloads::generate;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The interconnects figures T and C compare.
pub const FIGC_TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Ring,
    TopologyKind::ChordalRing { chord: 2 },
    TopologyKind::Bus,
    TopologyKind::Crossbar,
];

/// The cluster counts figures T, C and P evaluate.
pub const FIGC_CLUSTERS: [u32; 3] = [2, 4, 8];

/// One interconnect's share of a topology sweep.
#[derive(Debug)]
pub struct TopologySweep {
    /// The interconnect swept.
    pub topology: TopologyKind,
    /// The raw per-(loop, cluster-count) measurements, in sweep order.
    pub measurements: Vec<LoopMeasurement>,
    /// The sweep's statistics (its `failed` count gates the CLI exit code).
    pub stats: SweepStats,
}

/// Sweeps the configured suite on each of `topologies` at the configured
/// cluster counts, with end-to-end verification forced on — the sweep
/// behind both figure T (`contention == false`) and figure C
/// (`contention == true`, which also reports every verified program's
/// achieved II under contention-accurate link timing). Each topology runs
/// on its own cold service, which publishes into `registry`.
pub fn sweep_topologies(
    config: &ExperimentConfig,
    topologies: &[TopologyKind],
    contention: bool,
    registry: &Arc<Registry>,
) -> Vec<TopologySweep> {
    let suite = generate(&config.suite);
    topologies
        .iter()
        .map(|&topology| {
            let cfg = ExperimentConfig { topology, verify: true, contention, ..config.clone() };
            let service = ScheduleService::with_registry(Arc::clone(registry));
            let (measurements, stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
            TopologySweep { topology, measurements, stats }
        })
        .collect()
}

/// One (topology, cluster count) aggregate of figure C.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigCRow {
    /// The interconnect.
    pub topology: TopologyKind,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Percentage of loops whose *scheduled* II matches the unclustered
    /// ideal (figure T's metric, repeated here for side-by-side reading).
    pub percent_no_overhead_scheduled: f64,
    /// Percentage of loops whose *achieved* II still matches the
    /// unclustered ideal after contention replay. Can only be equal to or
    /// lower than the scheduled column.
    pub percent_no_overhead_achieved: f64,
    /// Percentage of loops whose replay stalled at all (achieved II above
    /// the scheduled II).
    pub percent_contended: f64,
    /// Mean relative achieved-over-scheduled II slowdown.
    pub mean_slowdown: f64,
    /// Worst relative achieved-over-scheduled II slowdown.
    pub max_slowdown: f64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// Aggregates one topology's sweep into per-cluster-count rows.
fn aggregate(topology: TopologyKind, rows: &[LoopMeasurement], clusters: &[u32]) -> Vec<FigCRow> {
    let slowdown = |m: &LoopMeasurement| m.achieved_ii as f64 / m.clustered_ii as f64 - 1.0;
    per_cluster(rows, clusters, |c, of_c| FigCRow {
        topology,
        clusters: c,
        loops: of_c.len(),
        percent_no_overhead_scheduled: percent(of_c, |m| !m.ii_increased()),
        percent_no_overhead_achieved: percent(of_c, |m| m.achieved_ii <= m.unclustered_ii),
        percent_contended: percent(of_c, |m| m.achieved_ii > m.clustered_ii),
        mean_slowdown: mean(of_c, slowdown),
        max_slowdown: of_c.iter().map(|m| slowdown(m)).fold(0.0, f64::max),
        verified_stores: of_c.iter().map(|m| m.verified_stores).sum(),
    })
}

/// Figure C: one row per (topology, cluster count) of a contention
/// sweep, topologies in sweep order.
pub fn figure_c(sweeps: &[TopologySweep], clusters: &[u32]) -> Vec<FigCRow> {
    sweeps.iter().flat_map(|s| aggregate(s.topology, &s.measurements, clusters)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_c_covers_every_topology_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
        let sweeps = sweep_topologies(&cfg, &FIGC_TOPOLOGIES, true, &Default::default());
        let rows = figure_c(&sweeps, &cfg.cluster_counts);
        assert_eq!(rows.len(), FIGC_TOPOLOGIES.len() * FIGC_CLUSTERS.len());
        for s in &sweeps {
            assert_eq!(s.measurements.len(), FIGC_CLUSTERS.len() * 6);
            assert_eq!(s.stats.failed, 0, "{}: figure C must verify every schedule", s.topology);
            assert!(s.stats.stores_verified > 0, "{}: verification is forced on", s.topology);
        }
        for row in &rows {
            assert_eq!(row.loops, 6);
            assert!(row.verified_stores > 0, "{}: nothing verified", row.topology);
            assert!(
                row.percent_no_overhead_achieved <= row.percent_no_overhead_scheduled,
                "{} @ {}: replay can only lose ground on the scheduled II",
                row.topology,
                row.clusters
            );
        }
    }

    #[test]
    fn replay_never_beats_the_schedule_and_crossbars_never_stall() {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.cluster_counts = vec![8];
        let sweeps = sweep_topologies(&cfg, &FIGC_TOPOLOGIES, true, &Default::default());
        let rows = figure_c(&sweeps, &cfg.cluster_counts);
        let raw: Vec<&LoopMeasurement> = sweeps.iter().flat_map(|s| &s.measurements).collect();
        for m in &raw {
            assert!(
                m.achieved_ii >= m.clustered_ii,
                "loop {} on {}: achieved {} below scheduled {}",
                m.loop_id,
                m.topology,
                m.achieved_ii,
                m.clustered_ii
            );
        }
        for m in raw.iter().filter(|m| m.topology == TopologyKind::Crossbar) {
            assert_eq!(
                m.achieved_ii, m.clustered_ii,
                "loop {}: an unconstrained fabric cannot stall",
                m.loop_id
            );
        }
        let crossbar = rows.iter().find(|r| r.topology == TopologyKind::Crossbar).unwrap();
        assert_eq!(crossbar.percent_contended, 0.0);
        assert_eq!(crossbar.mean_slowdown, 0.0);
    }

    #[test]
    fn a_topology_filter_restricts_the_sweep() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.cluster_counts = vec![2];
        let sweeps = sweep_topologies(&cfg, &[TopologyKind::Bus], true, &Default::default());
        assert_eq!(figure_c(&sweeps, &cfg.cluster_counts).len(), 1);
        assert_eq!(sweeps.len(), 1);
        assert!(sweeps[0].measurements.iter().all(|m| m.topology == TopologyKind::Bus));
    }
}
