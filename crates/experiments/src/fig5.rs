//! Figure 5 — "Cycle Count, Dynamic Measurement".
//!
//! Total number of cycles (relative values) required to execute the modulo
//! scheduled loops on each machine configuration, for four series: Set 1
//! (all loops) and Set 2 (loops without recurrences), each on the clustered
//! (DMS) and the equivalent unclustered (IMS) machine. The x-axis is the
//! number of useful functional units (3 per cluster). Values are normalised
//! so that the Set 1 unclustered machine with 3 FUs is 100, as in the paper's
//! relative plot.

use crate::runner::{cluster_counts, LoopMeasurement};
use serde::{Deserialize, Serialize};

/// One x-position (functional-unit count) of figure 5 or figure 6: the
/// four series' values (relative cycles in figure 5, IPC in figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesRow {
    /// Number of clusters of the clustered machine.
    pub clusters: u32,
    /// Number of useful functional units (`3 * clusters`).
    pub functional_units: u32,
    /// Set 1, unclustered machine (IMS).
    pub set1_unclustered: f64,
    /// Set 1, clustered machine (DMS).
    pub set1_clustered: f64,
    /// Set 2, unclustered machine (IMS).
    pub set2_unclustered: f64,
    /// Set 2, clustered machine (DMS).
    pub set2_clustered: f64,
}

impl SeriesRow {
    /// Relative slowdown of the clustered machine on Set 1
    /// (`clustered / unclustered`).
    pub fn set1_slowdown(&self) -> f64 {
        slowdown(self.set1_clustered, self.set1_unclustered)
    }

    /// Relative slowdown of the clustered machine on Set 2.
    pub fn set2_slowdown(&self) -> f64 {
        slowdown(self.set2_clustered, self.set2_unclustered)
    }
}

fn slowdown(clustered: f64, unclustered: f64) -> f64 {
    if unclustered == 0.0 {
        1.0
    } else {
        clustered / unclustered
    }
}

/// One row per cluster count present in `measurements`, ascending, with
/// each series evaluated as `value(clusters, set2_only, clustered)`.
pub(crate) fn series_rows(
    measurements: &[LoopMeasurement],
    value: impl Fn(u32, bool, bool) -> f64,
) -> Vec<SeriesRow> {
    cluster_counts(measurements)
        .into_iter()
        .map(|c| SeriesRow {
            clusters: c,
            functional_units: 3 * c,
            set1_unclustered: value(c, false, false),
            set1_clustered: value(c, false, true),
            set2_unclustered: value(c, true, false),
            set2_clustered: value(c, true, true),
        })
        .collect()
}

/// Aggregates per-loop measurements into the figure-5 series.
pub fn figure5(measurements: &[LoopMeasurement]) -> Vec<SeriesRow> {
    let totals = |c: u32, set2_only: bool, clustered: bool| -> f64 {
        measurements
            .iter()
            .filter(|m| m.clusters == c && (!set2_only || m.set2))
            .map(|m| if clustered { m.clustered_cycles } else { m.unclustered_cycles } as f64)
            .sum()
    };

    // Normalisation: Set 1 on the narrowest unclustered machine = 100.
    let base_cluster = measurements.iter().map(|m| m.clusters).min().unwrap_or(1);
    let base = totals(base_cluster, false, false).max(1.0);
    let base2 = totals(base_cluster, true, false).max(1.0);
    series_rows(measurements, |c, set2_only, clustered| {
        100.0 * totals(c, set2_only, clustered) / if set2_only { base2 } else { base }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{measure_suite_with_stats, ExperimentConfig};

    #[test]
    fn normalisation_and_monotonicity() {
        let mut cfg = ExperimentConfig::quick(24);
        cfg.cluster_counts = vec![1, 2, 4, 8];
        let rows = figure5(&measure_suite_with_stats(&cfg).0);
        assert_eq!(rows.len(), 4);
        // the narrowest unclustered configuration is the 100 reference
        assert!((rows[0].set1_unclustered - 100.0).abs() < 1e-9);
        assert!((rows[0].set2_unclustered - 100.0).abs() < 1e-9);
        // more functional units essentially never increase the unclustered
        // cycle count (small tolerance for unroll-factor truncation effects)
        for w in rows.windows(2) {
            assert!(w[1].set1_unclustered <= w[0].set1_unclustered * 1.02);
            assert!(w[1].set2_unclustered <= w[0].set2_unclustered * 1.02);
        }
        // the clustered machine is never meaningfully faster than the
        // unclustered ideal
        for r in &rows {
            assert!(
                r.set1_slowdown() >= 0.98,
                "slowdown {} at {} FUs",
                r.set1_slowdown(),
                r.functional_units
            );
            assert!(r.set2_slowdown() >= 0.98);
        }
        // functional-unit labelling
        assert_eq!(rows[3].functional_units, 24);
    }
}
