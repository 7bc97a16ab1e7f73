//! Figure 4 — "II Increase Due to Partitioning".
//!
//! For every cluster count, the fraction of loops whose II under DMS on the
//! clustered machine is larger than under IMS on the equivalent unclustered
//! machine. The paper reports ~0 % at 1 cluster, a small copy-induced
//! overhead at 2–3 clusters, over 80 % of loops with *no* overhead up to 8
//! clusters, and a growing overhead at 9–10 clusters caused mainly by Copy
//! unit saturation.

use crate::runner::{cluster_counts, mean, per_cluster, percent, LoopMeasurement};
use serde::{Deserialize, Serialize};

/// One bar of figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Number of clusters.
    pub clusters: u32,
    /// Number of loops measured for this cluster count.
    pub loops: usize,
    /// Percentage of loops whose II increased due to partitioning.
    pub percent_increased: f64,
    /// Percentage of loops with no overhead (complement of the above).
    pub percent_no_overhead: f64,
    /// Mean relative II overhead (`clustered / unclustered - 1`), over all
    /// loops (not only the ones with overhead).
    pub mean_overhead: f64,
    /// Mean number of move operations per loop.
    pub mean_moves: f64,
    /// Mean number of copy operations per loop.
    pub mean_copies: f64,
    /// Among the loops with an II increase, the percentage whose clustered II
    /// equals the clustered MII — i.e. the overhead is inherent (copy-op
    /// resource pressure raised the lower bound) rather than a scheduling
    /// loss.
    pub percent_overhead_inherent: f64,
}

/// Aggregates the per-loop measurements into the figure-4 series.
pub fn figure4(measurements: &[LoopMeasurement]) -> Vec<Fig4Row> {
    per_cluster(measurements, &cluster_counts(measurements), |c, rows| {
        let percent_increased = percent(rows, LoopMeasurement::ii_increased);
        let overhead_rows: Vec<&LoopMeasurement> =
            rows.iter().copied().filter(|m| m.ii_increased()).collect();
        Fig4Row {
            clusters: c,
            loops: rows.len(),
            percent_increased,
            percent_no_overhead: 100.0 - percent_increased,
            mean_overhead: mean(rows, |m| m.clustered_ii as f64 / m.unclustered_ii as f64 - 1.0),
            mean_moves: mean(rows, |m| m.moves as f64),
            mean_copies: mean(rows, |m| m.copies as f64),
            percent_overhead_inherent: percent(&overhead_rows, |m| {
                m.clustered_ii == m.clustered_mii
            }),
        }
    })
}

/// The paper's headline claim for figure 4: "Over 80% of the loops do not
/// present any overhead for machine models up to 8 clusters." Returns the
/// smallest no-overhead percentage over the checked range.
pub fn claim_no_overhead_up_to_8_clusters(rows: &[Fig4Row]) -> f64 {
    rows.iter()
        .filter(|r| r.clusters <= 8)
        .map(|r| r.percent_no_overhead)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{measure_suite_with_stats, ExperimentConfig};
    use dms_core::SchedulerStrategy;
    use dms_machine::TopologyKind;

    fn fake(clusters: u32, unclustered_ii: u32, clustered_ii: u32) -> LoopMeasurement {
        LoopMeasurement {
            loop_id: 0,
            set2: false,
            clusters,
            useful_ops: 10,
            trip_count: 100,
            unclustered_ii,
            clustered_ii,
            unclustered_mii: unclustered_ii,
            clustered_mii: unclustered_ii,
            unclustered_cycles: 100,
            clustered_cycles: 120,
            copies: 1,
            moves: 0,
            strategy2: 0,
            strategy3: 0,
            verified_stores: 0,
            pressure_retries: 0,
            first_ii: clustered_ii,
            max_queue_depth: 0,
            topology: TopologyKind::Ring,
            strategy: SchedulerStrategy::Dms,
            candidates: 0,
            baseline_ii: clustered_ii,
            cache_hit: false,
            achieved_ii: 0,
        }
    }

    #[test]
    fn aggregation_counts_overheads() {
        let data = vec![fake(2, 3, 3), fake(2, 3, 4), fake(4, 2, 2), fake(4, 2, 2)];
        let rows = figure4(&data);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].clusters, 2);
        assert!((rows[0].percent_increased - 50.0).abs() < 1e-9);
        assert!((rows[1].percent_no_overhead - 100.0).abs() < 1e-9);
        assert!(rows[0].mean_overhead > 0.0);
    }

    #[test]
    fn claim_extraction_takes_the_worst_case() {
        let data = vec![fake(2, 3, 3), fake(8, 3, 4), fake(10, 3, 5)];
        let rows = figure4(&data);
        let worst = claim_no_overhead_up_to_8_clusters(&rows);
        assert!((worst - 0.0).abs() < 1e-9); // the 8-cluster loop has overhead
    }

    #[test]
    fn end_to_end_small_suite_has_low_overhead_on_one_and_two_clusters() {
        let mut cfg = ExperimentConfig::quick(20);
        cfg.cluster_counts = vec![1, 2];
        let rows = figure4(&measure_suite_with_stats(&cfg).0);
        let one = rows.iter().find(|r| r.clusters == 1).unwrap();
        assert_eq!(one.percent_increased, 0.0);
        let two = rows.iter().find(|r| r.clusters == 2).unwrap();
        assert!(two.percent_increased <= 50.0);
        assert_eq!(two.mean_moves, 0.0);
    }
}
