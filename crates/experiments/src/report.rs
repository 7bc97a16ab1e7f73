//! Text-table and CSV rendering of the experiment results.

use crate::ablation::AblationResult;
use crate::fig4::{claim_no_overhead_up_to_8_clusters, Fig4Row};
use crate::fig5::SeriesRow;
use crate::fig6::claim_ipc_trends;
use crate::figc::FigCRow;
use crate::figp::FigPRow;
use crate::figt::FigTRow;
use crate::runner::LoopMeasurement;
use std::fmt::Write as _;

/// Raw per-(loop, cluster-count) measurements as CSV, in sweep order.
///
/// Every field is integral, so the rendering is exact: two sweeps of the same
/// configuration produce byte-identical output regardless of the worker
/// count (the determinism regression test relies on this).
pub fn measurements_csv(rows: &[LoopMeasurement]) -> String {
    let mut out = String::from(
        "loop_id,set2,clusters,useful_ops,trip_count,unclustered_ii,clustered_ii,\
         unclustered_mii,clustered_mii,unclustered_cycles,clustered_cycles,\
         copies,moves,strategy2,strategy3,verified_stores,pressure_retries,\
         first_ii,max_queue_depth,topology,strategy,candidates,baseline_ii,cache_hit,\
         achieved_ii\n",
    );
    for m in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            m.loop_id,
            m.set2,
            m.clusters,
            m.useful_ops,
            m.trip_count,
            m.unclustered_ii,
            m.clustered_ii,
            m.unclustered_mii,
            m.clustered_mii,
            m.unclustered_cycles,
            m.clustered_cycles,
            m.copies,
            m.moves,
            m.strategy2,
            m.strategy3,
            m.verified_stores,
            m.pressure_retries,
            m.first_ii,
            m.max_queue_depth,
            m.topology,
            m.strategy,
            m.candidates,
            m.baseline_ii,
            m.cache_hit,
            m.achieved_ii
        );
    }
    out
}

/// Renders figure 4 as an aligned text table plus the paper's headline claim.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4 — II increase due to partitioning");
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>12} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "clusters",
        "loops",
        "II up (%)",
        "no overhead(%)",
        "mean ovhd(%)",
        "moves/loop",
        "copies/loop",
        "inherent(%)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>12.1} {:>14.1} {:>14.1} {:>12.2} {:>12.2} {:>12.1}",
            r.clusters,
            r.loops,
            r.percent_increased,
            r.percent_no_overhead,
            100.0 * r.mean_overhead,
            r.mean_moves,
            r.mean_copies,
            r.percent_overhead_inherent
        );
    }
    let worst = claim_no_overhead_up_to_8_clusters(rows);
    if worst.is_finite() {
        let _ = writeln!(
            out,
            "claim check [paper: \"over 80% of the loops do not present any overhead up to 8 clusters\"]: worst no-overhead fraction for <=8 clusters = {worst:.1}% -> {}",
            if worst >= 80.0 { "HOLDS" } else { "DOES NOT HOLD" }
        );
    } else {
        let _ = writeln!(out, "claim check skipped: no rows for <=8 clusters");
    }
    out
}

/// Renders figure 5 as an aligned text table.
pub fn render_fig5(rows: &[SeriesRow]) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "Figure 5 — relative dynamic cycle count (Set1 unclustered @ 3 FUs = 100)");
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "FUs", "clstrs", "S1-unclu", "S1-clust", "S2-unclu", "S2-clust", "S1 slow", "S2 slow"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.3} {:>9.3}",
            r.functional_units,
            r.clusters,
            r.set1_unclustered,
            r.set1_clustered,
            r.set2_unclustered,
            r.set2_clustered,
            r.set1_slowdown(),
            r.set2_slowdown()
        );
    }
    out
}

/// Renders figure 6 as an aligned text table plus the paper's qualitative
/// claims.
pub fn render_fig6(rows: &[SeriesRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 — IPC (useful operations only, kernel + prologue + epilogue)");
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "FUs", "clstrs", "S1-unclu", "S1-clust", "S2-unclu", "S2-clust"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.functional_units,
            r.clusters,
            r.set1_unclustered,
            r.set1_clustered,
            r.set2_unclustered,
            r.set2_clustered
        );
    }
    let (saturates, improves) = claim_ipc_trends(rows);
    if rows.last().map(|r| r.clusters > 7).unwrap_or(false) {
        let _ = writeln!(
            out,
            "claim check [paper: Set 1 IPC levels off beyond ~21 FUs]: {}",
            if saturates { "HOLDS" } else { "DOES NOT HOLD" }
        );
        let _ = writeln!(
            out,
            "claim check [paper: Set 2 keeps improving across the whole range]: {}",
            if improves { "HOLDS" } else { "DOES NOT HOLD" }
        );
    }
    out
}

/// Renders figure T as an aligned text table.
pub fn render_figt(rows: &[FigTRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure T — achievable II across interconnect topologies (verified)");
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>6} {:>14} {:>13} {:>11} {:>13} {:>15}",
        "topology",
        "clusters",
        "loops",
        "no overhead(%)",
        "mean ovhd(%)",
        "moves/loop",
        "II retries",
        "verified stores"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>6} {:>14.1} {:>13.1} {:>11.2} {:>13} {:>15}",
            r.topology,
            r.clusters,
            r.loops,
            r.percent_no_overhead,
            100.0 * r.mean_overhead,
            r.mean_moves,
            r.pressure_retries,
            r.verified_stores
        );
    }
    out
}

/// Figure T as CSV.
pub fn figt_csv(rows: &[FigTRow]) -> String {
    let mut out = String::from(
        "topology,clusters,loops,percent_no_overhead,mean_overhead,mean_moves,\
         pressure_retries,verified_stores\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.6},{:.4},{},{}",
            r.topology,
            r.clusters,
            r.loops,
            r.percent_no_overhead,
            r.mean_overhead,
            r.mean_moves,
            r.pressure_retries,
            r.verified_stores
        );
    }
    out
}

/// Renders figure C as an aligned text table.
pub fn render_figc(rows: &[FigCRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure C — achieved II under contention replay (verified)");
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>6} {:>13} {:>13} {:>12} {:>13} {:>12} {:>15}",
        "topology",
        "clusters",
        "loops",
        "sched noOv(%)",
        "achvd noOv(%)",
        "contended(%)",
        "mean slow(%)",
        "max slow(%)",
        "verified stores"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>6} {:>13.1} {:>13.1} {:>12.1} {:>13.2} {:>12.1} {:>15}",
            r.topology,
            r.clusters,
            r.loops,
            r.percent_no_overhead_scheduled,
            r.percent_no_overhead_achieved,
            r.percent_contended,
            100.0 * r.mean_slowdown,
            100.0 * r.max_slowdown,
            r.verified_stores
        );
    }
    out
}

/// Figure C as CSV.
pub fn figc_csv(rows: &[FigCRow]) -> String {
    let mut out = String::from(
        "topology,clusters,loops,percent_no_overhead_scheduled,\
         percent_no_overhead_achieved,percent_contended,mean_slowdown,\
         max_slowdown,verified_stores\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.4},{:.4},{:.6},{:.6},{}",
            r.topology,
            r.clusters,
            r.loops,
            r.percent_no_overhead_scheduled,
            r.percent_no_overhead_achieved,
            r.percent_contended,
            r.mean_slowdown,
            r.max_slowdown,
            r.verified_stores
        );
    }
    out
}

/// Renders figure P as an aligned text table.
pub fn render_figp(rows: &[FigPRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure P — portfolio search vs the single DMS heuristic (verified)");
    let _ = writeln!(
        out,
        "{:>16} {:>8} {:>6} {:>12} {:>13} {:>16} {:>16} {:>15}",
        "strategy",
        "clusters",
        "loops",
        "II recov(%)",
        "mean II red(%)",
        "no ovhd dms(%)",
        "no ovhd port(%)",
        "verified stores"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>16} {:>8} {:>6} {:>12.1} {:>13.2} {:>16.1} {:>16.1} {:>15}",
            r.strategy,
            r.clusters,
            r.loops,
            r.percent_recovered,
            100.0 * r.mean_ii_reduction,
            r.percent_no_overhead_dms,
            r.percent_no_overhead,
            r.verified_stores
        );
    }
    out
}

/// Figure P as CSV.
pub fn figp_csv(rows: &[FigPRow]) -> String {
    let mut out = String::from(
        "strategy,clusters,loops,recovered,percent_recovered,mean_ii_reduction,\
         percent_no_overhead_dms,percent_no_overhead,verified_stores\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4},{:.6},{:.4},{:.4},{}",
            r.strategy,
            r.clusters,
            r.loops,
            r.recovered,
            r.percent_recovered,
            r.mean_ii_reduction,
            r.percent_no_overhead_dms,
            r.percent_no_overhead,
            r.verified_stores
        );
    }
    out
}

/// Renders an ablation comparison.
pub fn render_ablation(result: &AblationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablation — {}", result.name);
    let _ =
        writeln!(out, "{:>8} {:>18} {:>18}", "clusters", "baseline II up(%)", "variant II up(%)");
    for b in &result.baseline {
        let v = result
            .variant
            .iter()
            .find(|v| v.clusters == b.clusters)
            .map(|v| v.percent_increased)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "{:>8} {:>18.1} {:>18.1}", b.clusters, b.percent_increased, v);
    }
    let _ = writeln!(
        out,
        "mean reduction of loops-with-overhead: {:.1} percentage points",
        result.mean_overhead_reduction()
    );
    out
}

/// Figure 4 as CSV.
pub fn fig4_csv(rows: &[Fig4Row]) -> String {
    let mut out = String::from("clusters,loops,percent_increased,percent_no_overhead,mean_overhead,mean_moves,mean_copies\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4},{:.6},{:.4},{:.4}",
            r.clusters,
            r.loops,
            r.percent_increased,
            r.percent_no_overhead,
            r.mean_overhead,
            r.mean_moves,
            r.mean_copies
        );
    }
    out
}

/// Figure 5 or figure 6 as CSV.
pub fn series_csv(rows: &[SeriesRow]) -> String {
    let mut out = String::from(
        "functional_units,clusters,set1_unclustered,set1_clustered,set2_unclustered,set2_clustered\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4},{:.4},{:.4}",
            r.functional_units,
            r.clusters,
            r.set1_unclustered,
            r.set1_clustered,
            r.set2_unclustered,
            r.set2_clustered
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_rows() -> Vec<Fig4Row> {
        vec![
            Fig4Row {
                clusters: 2,
                loops: 100,
                percent_increased: 10.0,
                percent_no_overhead: 90.0,
                mean_overhead: 0.02,
                mean_moves: 0.0,
                mean_copies: 1.5,
                percent_overhead_inherent: 50.0,
            },
            Fig4Row {
                clusters: 8,
                loops: 100,
                percent_increased: 15.0,
                percent_no_overhead: 85.0,
                mean_overhead: 0.05,
                mean_moves: 0.7,
                mean_copies: 1.5,
                percent_overhead_inherent: 50.0,
            },
        ]
    }

    #[test]
    fn fig4_rendering_contains_claim() {
        let text = render_fig4(&fig4_rows());
        assert!(text.contains("Figure 4"));
        assert!(text.contains("HOLDS"));
        assert!(text.contains("85.0"));
    }

    #[test]
    fn measurements_csv_is_exact_and_ordered() {
        let m = LoopMeasurement {
            loop_id: 3,
            set2: true,
            clusters: 4,
            useful_ops: 12,
            trip_count: 100,
            unclustered_ii: 2,
            clustered_ii: 3,
            unclustered_mii: 2,
            clustered_mii: 3,
            unclustered_cycles: 230,
            clustered_cycles: 330,
            copies: 5,
            moves: 1,
            strategy2: 2,
            strategy3: 0,
            verified_stores: 128,
            pressure_retries: 1,
            first_ii: 2,
            max_queue_depth: 4,
            topology: "ring".to_string(),
            strategy: "portfolio:8:50".to_string(),
            candidates: 7,
            baseline_ii: 4,
            cache_hit: false,
            achieved_ii: 5,
        };
        let csv = measurements_csv(&[m]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("loop_id,set2,clusters"));
        assert!(header.ends_with(
            "pressure_retries,first_ii,max_queue_depth,topology,strategy,candidates,baseline_ii,\
             cache_hit,achieved_ii"
        ));
        assert_eq!(
            lines.next().unwrap(),
            "3,true,4,12,100,2,3,2,3,230,330,5,1,2,0,128,1,2,4,ring,portfolio:8:50,7,4,false,5"
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn figc_rendering_and_csv_are_exact() {
        let rows = vec![FigCRow {
            topology: "bus".to_string(),
            clusters: 8,
            loops: 1258,
            percent_no_overhead_scheduled: 88.6,
            percent_no_overhead_achieved: 71.2,
            percent_contended: 22.5,
            mean_slowdown: 0.031,
            max_slowdown: 0.5,
            verified_stores: 654321,
        }];
        let text = render_figc(&rows);
        assert!(text.contains("Figure C"));
        assert!(text.contains("bus"));
        let csv = figc_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "topology,clusters,loops,percent_no_overhead_scheduled,\
             percent_no_overhead_achieved,percent_contended,mean_slowdown,\
             max_slowdown,verified_stores"
        );
        assert_eq!(
            lines.next().unwrap(),
            "bus,8,1258,88.6000,71.2000,22.5000,0.031000,0.500000,654321"
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = fig4_csv(&fig4_rows());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("clusters,"));
    }

    #[test]
    fn figp_rendering_and_csv_are_exact() {
        let rows = vec![FigPRow {
            strategy: "portfolio:8:50".to_string(),
            clusters: 8,
            loops: 1258,
            recovered: 63,
            percent_recovered: 5.0079,
            mean_ii_reduction: 0.0123,
            percent_no_overhead_dms: 73.5,
            percent_no_overhead: 78.3,
            verified_stores: 123456,
        }];
        let text = render_figp(&rows);
        assert!(text.contains("Figure P"));
        assert!(text.contains("portfolio:8:50"));
        let csv = figp_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "strategy,clusters,loops,recovered,percent_recovered,mean_ii_reduction,\
             percent_no_overhead_dms,percent_no_overhead,verified_stores"
        );
        assert_eq!(
            lines.next().unwrap(),
            "portfolio:8:50,8,1258,63,5.0079,0.012300,73.5000,78.3000,123456"
        );
    }

    #[test]
    fn fig5_and_fig6_render() {
        let f5 = vec![SeriesRow {
            clusters: 1,
            functional_units: 3,
            set1_unclustered: 100.0,
            set1_clustered: 100.0,
            set2_unclustered: 100.0,
            set2_clustered: 100.0,
        }];
        let f6 = vec![SeriesRow {
            clusters: 1,
            functional_units: 3,
            set1_unclustered: 1.5,
            set1_clustered: 1.5,
            set2_unclustered: 1.8,
            set2_clustered: 1.8,
        }];
        assert!(render_fig5(&f5).contains("Figure 5"));
        assert!(render_fig6(&f6).contains("Figure 6"));
        assert!(series_csv(&f5).contains("100.0000"));
        assert!(series_csv(&f6).contains("1.8000"));
    }
}
