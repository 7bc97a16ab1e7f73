//! Ablations motivated by the paper's §5 discussion.
//!
//! * **Copy units** — "When the II increases it is mainly because the Copy
//!   FUs became the most heavily used resources ... That could be improved
//!   with additional hardware support." The copy-unit ablation re-runs the
//!   wide configurations with 2 Copy units per cluster and reports how much
//!   of the partitioning overhead disappears.
//! * **Chain policy** — the paper selects between the two ring directions of
//!   a chain by maximising the free slots left for move operations; the
//!   ablation compares this against a naive shortest-path-only policy.

use crate::fig4::{figure4, Fig4Row};
use crate::runner::{measure_loops_with_stats_on, ExperimentConfig, SweepStats};
use dms_core::DmsConfig;
use dms_sched::ChainPolicy;
use dms_service::ScheduleService;
use dms_workloads::{generate, SuiteLoop};
use serde::{Deserialize, Serialize};

/// Figure-4-style rows for two variants of the same configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Human-readable name of the varied parameter.
    pub name: String,
    /// Rows of the baseline configuration.
    pub baseline: Vec<Fig4Row>,
    /// Rows of the variant configuration.
    pub variant: Vec<Fig4Row>,
}

impl AblationResult {
    /// Mean reduction (in percentage points) of the fraction of loops with
    /// II overhead, variant vs baseline, across the shared cluster counts.
    pub fn mean_overhead_reduction(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0;
        for b in &self.baseline {
            if let Some(v) = self.variant.iter().find(|v| v.clusters == b.clusters) {
                total += b.percent_increased - v.percent_increased;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// The sweep both ablations compare against: the suite, generated once,
/// swept once under the unvaried configuration on the service that then
/// answers the variants too. A variant changes only its DMS requests (copy
/// units and chain policy never reach IMS), so its IMS requests are cache
/// hits.
#[derive(Debug)]
pub struct Baseline {
    config: ExperimentConfig,
    suite: Vec<SuiteLoop>,
    service: ScheduleService,
    rows: Vec<Fig4Row>,
    /// Throughput and failures of the baseline sweep.
    pub stats: SweepStats,
}

/// Generates the suite of `config` and sweeps it once on `service`, which
/// then answers the variants too.
pub fn sweep_baseline(config: &ExperimentConfig, service: ScheduleService) -> Baseline {
    let suite = generate(&config.suite);
    let (measurements, stats) = measure_loops_with_stats_on(&suite, config, &service);
    Baseline { config: config.clone(), suite, service, rows: figure4(&measurements), stats }
}

/// Sweeps `variant` over the baseline's suite and pairs its rows with the
/// baseline's.
fn ablate(
    baseline: &Baseline,
    name: String,
    variant: &ExperimentConfig,
) -> (AblationResult, SweepStats) {
    let (measurements, stats) =
        measure_loops_with_stats_on(&baseline.suite, variant, &baseline.service);
    let result =
        AblationResult { name, baseline: baseline.rows.clone(), variant: figure4(&measurements) };
    (result, stats)
}

/// Copy-unit ablation: 1 vs `copy_units` Copy units per cluster on the
/// baseline's configurations. Also returns the variant sweep's stats.
pub fn copy_unit_ablation(baseline: &Baseline, copy_units: u32) -> (AblationResult, SweepStats) {
    let variant = ExperimentConfig { copy_units, ..baseline.config.clone() };
    ablate(baseline, format!("copy units per cluster: 1 vs {copy_units}"), &variant)
}

/// Chain-policy ablation: the paper's max-free-slots selection vs the naive
/// shortest-path selection. Also returns the variant sweep's stats.
pub fn chain_policy_ablation(baseline: &Baseline) -> (AblationResult, SweepStats) {
    let variant = ExperimentConfig {
        dms: DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..baseline.config.dms },
        ..baseline.config.clone()
    };
    ablate(
        baseline,
        "chain direction policy: max-free-slots vs shortest-path".to_string(),
        &variant,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![6, 8];
        cfg
    }

    #[test]
    fn copy_unit_ablation_never_increases_overhead_much() {
        let (result, stats) =
            copy_unit_ablation(&sweep_baseline(&tiny_config(), ScheduleService::default()), 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(result.baseline.len(), 2);
        assert_eq!(result.variant.len(), 2);
        // Extra copy units relax a constraint; the overhead fraction should
        // not grow by more than noise.
        for (b, v) in result.baseline.iter().zip(&result.variant) {
            assert!(v.percent_increased <= b.percent_increased + 10.0 + 1e-9);
        }
        // the summary metric is finite
        assert!(result.mean_overhead_reduction().is_finite());
    }

    #[test]
    fn chain_policy_ablation_produces_comparable_rows() {
        let (result, _) =
            chain_policy_ablation(&sweep_baseline(&tiny_config(), ScheduleService::default()));
        assert_eq!(result.baseline.len(), result.variant.len());
        assert!(result.name.contains("chain"));
    }

    /// Both variants compare against one baseline sweep, whose service
    /// answers their IMS requests from its cache.
    #[test]
    fn both_ablations_share_one_baseline_sweep() {
        let baseline = sweep_baseline(&tiny_config(), ScheduleService::default());
        assert_eq!(baseline.stats.failed, 0);
        assert_eq!(baseline.stats.cache_hits, 0, "the baseline runs on a cold service");
        let (copy, copy_stats) = copy_unit_ablation(&baseline, 2);
        let (chain, chain_stats) = chain_policy_ablation(&baseline);
        assert_eq!(copy.baseline, chain.baseline);
        for stats in [copy_stats, chain_stats] {
            assert_eq!(stats.failed, 0);
            assert!(stats.cache_hits >= stats.tasks as u64, "every IMS request hits");
        }
    }
}
