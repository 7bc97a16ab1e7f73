//! Figure P — portfolio-search II versus the single deterministic heuristic
//! (a beyond-the-paper experiment enabled by the `SchedulerStrategy` API).
//!
//! Figure T showed that a fraction of the paper-grid loops lose II on
//! *every* interconnect — overhead that looked inherent to partitioning.
//! This experiment asks how much of that residue is really *heuristic
//! slack*: the same suite is scheduled at 2, 4 and 8 clusters with a
//! portfolio of randomized-priority DMS candidates
//! (`SchedulerStrategy::Portfolio`), and each cell reports both the
//! portfolio winner's II (`clustered_ii`) and the plain heuristic's II
//! (`baseline_ii`) — one sweep measures both schedulers. Every winning
//! schedule is verified end-to-end: register-allocated, lowered to VLIW
//! code, executed on the machine interpreter and bit-compared against a
//! scalar reference of its source loop.

use crate::runner::{mean, per_cluster, percent, ExperimentConfig, LoopMeasurement};
use dms_core::SchedulerStrategy;
use serde::{Deserialize, Serialize};

/// One per-cluster-count aggregate of figure P.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigPRow {
    /// The strategy that produced the winning schedules.
    pub strategy: SchedulerStrategy,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Loops where the portfolio found a strictly lower II than the plain
    /// deterministic heuristic.
    pub recovered: usize,
    /// `recovered` as a percentage of `loops`.
    pub percent_recovered: f64,
    /// Mean relative II reduction over the plain heuristic, across all
    /// loops (zero for loops the portfolio did not improve).
    pub mean_ii_reduction: f64,
    /// Percentage of loops whose *plain-DMS* II matches the unclustered
    /// ideal (the figure-4 metric, under the baseline scheduler).
    pub percent_no_overhead_dms: f64,
    /// Percentage of loops whose *portfolio* II matches the unclustered
    /// ideal.
    pub percent_no_overhead: f64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// Figure P: one row per configured cluster count of a sweep of `config`,
/// labelled with its strategy. Every row of the sweep carries both the
/// winner's II and the plain heuristic's II, so no second baseline sweep is
/// needed.
pub fn figure_p(measurements: &[LoopMeasurement], config: &ExperimentConfig) -> Vec<FigPRow> {
    per_cluster(measurements, &config.cluster_counts, |c, of_c| FigPRow {
        strategy: config.dms.strategy,
        clusters: c,
        loops: of_c.len(),
        recovered: of_c.iter().filter(|m| m.clustered_ii < m.baseline_ii).count(),
        percent_recovered: percent(of_c, |m| m.clustered_ii < m.baseline_ii),
        mean_ii_reduction: mean(of_c, |m| 1.0 - m.clustered_ii as f64 / m.baseline_ii as f64),
        percent_no_overhead_dms: percent(of_c, |m| m.baseline_ii <= m.unclustered_ii),
        percent_no_overhead: percent(of_c, |m| !m.ii_increased()),
        verified_stores: of_c.iter().map(|m| m.verified_stores).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figc::FIGC_CLUSTERS;
    use crate::runner::measure_suite_with_stats;

    #[test]
    fn figure_p_verifies_every_portfolio_winner() {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
        cfg.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 };
        cfg.verify = true;
        let (measurements, stats) = measure_suite_with_stats(&cfg);
        let rows = figure_p(&measurements, &cfg);
        assert_eq!(rows.len(), FIGC_CLUSTERS.len());
        assert_eq!(measurements.len(), 8 * FIGC_CLUSTERS.len());
        assert!(measurements.iter().all(|m| m.verified_stores > 0));
        assert_eq!(stats.failed, 0, "figure P must verify every winning schedule");
        assert!(stats.stores_verified > 0);
        for row in &rows {
            assert_eq!(row.strategy, cfg.dms.strategy);
            assert_eq!(row.strategy.to_string(), "portfolio:8:50");
            assert_eq!(row.loops, 8);
            assert!(row.verified_stores > 0, "{} clusters: nothing verified", row.clusters);
            // The portfolio embeds the plain heuristic, so its no-overhead
            // fraction can only match or beat the baseline's.
            assert!(
                row.percent_no_overhead >= row.percent_no_overhead_dms,
                "{} clusters: portfolio lost to its own baseline",
                row.clusters
            );
            assert!(row.mean_ii_reduction >= 0.0);
        }
    }

    #[test]
    fn portfolio_winners_never_exceed_the_dms_baseline_ii() {
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![4, 8];
        cfg.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 6, exploit_percent: 50 };
        cfg.verify = true;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.failed, 0);
        for m in &rows {
            assert!(
                m.clustered_ii <= m.baseline_ii,
                "loop {} at {} clusters: portfolio II {} above DMS II {}",
                m.loop_id,
                m.clusters,
                m.clustered_ii,
                m.baseline_ii
            );
            assert_eq!(m.candidates, 5);
            assert_eq!(m.strategy, cfg.dms.strategy);
            assert_eq!(m.strategy.to_string(), "portfolio:6:50");
        }
    }
}
