//! Text-table and CSV rendering of the experiment results.
//!
//! Each figure is one [`Figure`]: a title, one column list and the claim
//! lines printed below its table. [`Figure::table`] and [`Figure::csv`]
//! both render from that list, so a figure's two outputs cannot drift
//! apart.

use crate::ablation::AblationResult;
use crate::fig4::{claim_no_overhead_up_to_8_clusters, Fig4Row};
use crate::fig5::SeriesRow;
use crate::fig6::claim_ipc_trends;
use crate::figc::FigCRow;
use crate::figp::FigPRow;
use crate::figt::FigTRow;
use crate::runner::LoopMeasurement;
use std::fmt::Write as _;
use Value::{Count, Label, Real};

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

/// One cell of a figure row.
enum Value {
    /// A label (topology or strategy), printed as is.
    Label(String),
    /// A count, printed as an integer.
    Count(u64),
    /// A real, printed at the column's precision.
    Real(f64),
}

/// A column's text-table half: header, width, precision and scale (the
/// factor a real is multiplied by before printing; 100 shows a ratio as a
/// percentage).
type Text = (&'static str, usize, usize, f64);

/// A column's CSV half: header and precision.
type Csv = (&'static str, usize);

/// One column of a figure: its text-table half, its CSV half (either may
/// be absent) and the row value.
#[derive(Debug)]
struct Column<R>(Option<Text>, Option<Csv>, fn(&R) -> Value);

const fn both<R>(text: Text, csv: Csv, value: fn(&R) -> Value) -> Column<R> {
    Column(Some(text), Some(csv), value)
}

const fn text_only<R>(text: Text, value: fn(&R) -> Value) -> Column<R> {
    Column(Some(text), None, value)
}

/// The layout of one figure's text table and CSV.
#[derive(Debug)]
pub struct Figure<R: 'static> {
    title: &'static str,
    columns: &'static [Column<R>],
    /// The lines printed below the table (the paper's claim checks).
    claims: fn(&[R]) -> String,
}

impl<R> Figure<R> {
    /// The aligned text table: title, header, one line per row, claims.
    pub fn table(&self, rows: &[R]) -> String {
        let text = || self.columns.iter().filter_map(|c| Some((c.0?, c.2)));
        let mut out = format!("{}\n", self.title);
        out += &line(text().map(|((header, w, _, _), _)| format!("{header:>w$}")), " ");
        for row in rows {
            out += &line(
                text().map(|((_, w, p, scale), value)| match value(row) {
                    Label(s) => format!("{s:>w$}"),
                    Count(n) => format!("{n:>w$}"),
                    Real(v) => format!("{:>w$.p$}", scale * v),
                }),
                " ",
            );
        }
        out + &(self.claims)(rows)
    }

    /// The CSV: one header line, one line per row.
    pub fn csv(&self, rows: &[R]) -> String {
        let csv = || self.columns.iter().filter_map(|c| Some((c.1?, c.2)));
        let mut out = line(csv().map(|((header, _), _)| header.to_string()), ",");
        for row in rows {
            out += &line(
                csv().map(|((_, p), value)| match value(row) {
                    Label(s) => s,
                    Count(n) => n.to_string(),
                    Real(v) => format!("{v:.p$}"),
                }),
                ",",
            );
        }
        out
    }
}

/// `cells` joined by `separator`, newline-terminated.
fn line(cells: impl Iterator<Item = String>, separator: &str) -> String {
    cells.collect::<Vec<_>>().join(separator) + "\n"
}

fn no_claims<R>(_: &[R]) -> String {
    String::new()
}

/// Figure 4, with the paper's headline claim below the table.
pub const FIG4: Figure<Fig4Row> = Figure {
    title: "Figure 4 — II increase due to partitioning",
    columns: &[
        both(("clusters", 8, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("loops", 6, 0, 1.0), ("loops", 0), |r| Count(r.loops as u64)),
        both(("II up (%)", 12, 1, 1.0), ("percent_increased", 4), |r| Real(r.percent_increased)),
        both(("no overhead(%)", 14, 1, 1.0), ("percent_no_overhead", 4), |r| {
            Real(r.percent_no_overhead)
        }),
        both(("mean ovhd(%)", 14, 1, 100.0), ("mean_overhead", 6), |r| Real(r.mean_overhead)),
        both(("moves/loop", 12, 2, 1.0), ("mean_moves", 4), |r| Real(r.mean_moves)),
        both(("copies/loop", 12, 2, 1.0), ("mean_copies", 4), |r| Real(r.mean_copies)),
        text_only(("inherent(%)", 12, 1, 1.0), |r| Real(r.percent_overhead_inherent)),
    ],
    claims: |rows| {
        let worst = claim_no_overhead_up_to_8_clusters(rows);
        if worst.is_finite() {
            format!(
                "claim check [paper: \"over 80% of the loops do not present any overhead up to 8 clusters\"]: worst no-overhead fraction for <=8 clusters = {worst:.1}% -> {}\n",
                if worst >= 80.0 { "HOLDS" } else { "DOES NOT HOLD" }
            )
        } else {
            "claim check skipped: no rows for <=8 clusters\n".to_string()
        }
    },
};

/// Figure 5: relative cycle counts and the clustered machine's slowdowns.
pub const FIG5: Figure<SeriesRow> = Figure {
    title: "Figure 5 — relative dynamic cycle count (Set1 unclustered @ 3 FUs = 100)",
    columns: &[
        both(("FUs", 4, 0, 1.0), ("functional_units", 0), |r| Count(r.functional_units.into())),
        both(("clstrs", 6, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("S1-unclu", 10, 1, 1.0), ("set1_unclustered", 4), |r| Real(r.set1_unclustered)),
        both(("S1-clust", 10, 1, 1.0), ("set1_clustered", 4), |r| Real(r.set1_clustered)),
        both(("S2-unclu", 10, 1, 1.0), ("set2_unclustered", 4), |r| Real(r.set2_unclustered)),
        both(("S2-clust", 10, 1, 1.0), ("set2_clustered", 4), |r| Real(r.set2_clustered)),
        text_only(("S1 slow", 9, 3, 1.0), |r| Real(r.set1_slowdown())),
        text_only(("S2 slow", 9, 3, 1.0), |r| Real(r.set2_slowdown())),
    ],
    claims: no_claims,
};

/// Figure 6: IPC, with the paper's two qualitative claims below the table
/// when the sweep reaches past 7 clusters.
pub const FIG6: Figure<SeriesRow> = Figure {
    title: "Figure 6 — IPC (useful operations only, kernel + prologue + epilogue)",
    columns: &[
        both(("FUs", 4, 0, 1.0), ("functional_units", 0), |r| Count(r.functional_units.into())),
        both(("clstrs", 6, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("S1-unclu", 10, 2, 1.0), ("set1_unclustered", 4), |r| Real(r.set1_unclustered)),
        both(("S1-clust", 10, 2, 1.0), ("set1_clustered", 4), |r| Real(r.set1_clustered)),
        both(("S2-unclu", 10, 2, 1.0), ("set2_unclustered", 4), |r| Real(r.set2_unclustered)),
        both(("S2-clust", 10, 2, 1.0), ("set2_clustered", 4), |r| Real(r.set2_clustered)),
    ],
    claims: |rows| {
        if rows.last().is_none_or(|r| r.clusters <= 7) {
            return String::new();
        }
        let (saturates, improves) = claim_ipc_trends(rows);
        let verdict = |holds: bool| if holds { "HOLDS" } else { "DOES NOT HOLD" };
        format!(
            "claim check [paper: Set 1 IPC levels off beyond ~21 FUs]: {}\n\
             claim check [paper: Set 2 keeps improving across the whole range]: {}\n",
            verdict(saturates),
            verdict(improves)
        )
    },
};

/// Figure T: achievable II across interconnect topologies.
pub const FIGT: Figure<FigTRow> = Figure {
    title: "Figure T — achievable II across interconnect topologies (verified)",
    columns: &[
        both(("topology", 10, 0, 1.0), ("topology", 0), |r| Label(r.topology.to_string())),
        both(("clusters", 8, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("loops", 6, 0, 1.0), ("loops", 0), |r| Count(r.loops as u64)),
        both(("no overhead(%)", 14, 1, 1.0), ("percent_no_overhead", 4), |r| {
            Real(r.percent_no_overhead)
        }),
        both(("mean ovhd(%)", 13, 1, 100.0), ("mean_overhead", 6), |r| Real(r.mean_overhead)),
        both(("moves/loop", 11, 2, 1.0), ("mean_moves", 4), |r| Real(r.mean_moves)),
        both(("II retries", 13, 0, 1.0), ("pressure_retries", 0), |r| Count(r.pressure_retries)),
        both(("verified stores", 15, 0, 1.0), ("verified_stores", 0), |r| Count(r.verified_stores)),
    ],
    claims: no_claims,
};

/// Figure C: achieved II under contention timing.
pub const FIGC: Figure<FigCRow> = Figure {
    title: "Figure C — achieved II under contention replay (verified)",
    columns: &[
        both(("topology", 10, 0, 1.0), ("topology", 0), |r| Label(r.topology.to_string())),
        both(("clusters", 8, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("loops", 6, 0, 1.0), ("loops", 0), |r| Count(r.loops as u64)),
        both(("sched noOv(%)", 13, 1, 1.0), ("percent_no_overhead_scheduled", 4), |r| {
            Real(r.percent_no_overhead_scheduled)
        }),
        both(("achvd noOv(%)", 13, 1, 1.0), ("percent_no_overhead_achieved", 4), |r| {
            Real(r.percent_no_overhead_achieved)
        }),
        both(("contended(%)", 12, 1, 1.0), ("percent_contended", 4), |r| Real(r.percent_contended)),
        both(("mean slow(%)", 13, 2, 100.0), ("mean_slowdown", 6), |r| Real(r.mean_slowdown)),
        both(("max slow(%)", 12, 1, 100.0), ("max_slowdown", 6), |r| Real(r.max_slowdown)),
        both(("verified stores", 15, 0, 1.0), ("verified_stores", 0), |r| Count(r.verified_stores)),
    ],
    claims: no_claims,
};

/// Figure P: portfolio search against the single DMS heuristic.
pub const FIGP: Figure<FigPRow> = Figure {
    title: "Figure P — portfolio search vs the single DMS heuristic (verified)",
    columns: &[
        both(("strategy", 16, 0, 1.0), ("strategy", 0), |r| Label(r.strategy.to_string())),
        both(("clusters", 8, 0, 1.0), ("clusters", 0), |r| Count(r.clusters.into())),
        both(("loops", 6, 0, 1.0), ("loops", 0), |r| Count(r.loops as u64)),
        Column(None, Some(("recovered", 0)), |r| Count(r.recovered as u64)),
        both(("II recov(%)", 12, 1, 1.0), ("percent_recovered", 4), |r| Real(r.percent_recovered)),
        both(("mean II red(%)", 13, 2, 100.0), ("mean_ii_reduction", 6), |r| {
            Real(r.mean_ii_reduction)
        }),
        both(("no ovhd dms(%)", 16, 1, 1.0), ("percent_no_overhead_dms", 4), |r| {
            Real(r.percent_no_overhead_dms)
        }),
        both(("no ovhd port(%)", 16, 1, 1.0), ("percent_no_overhead", 4), |r| {
            Real(r.percent_no_overhead)
        }),
        both(("verified stores", 15, 0, 1.0), ("verified_stores", 0), |r| Count(r.verified_stores)),
    ],
    claims: no_claims,
};

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

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::SchedulerStrategy;
    use dms_machine::TopologyKind;

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
        let text = FIG4.table(&fig4_rows());
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
            topology: TopologyKind::Ring,
            strategy: SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
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
            topology: TopologyKind::Bus,
            clusters: 8,
            loops: 1258,
            percent_no_overhead_scheduled: 88.6,
            percent_no_overhead_achieved: 71.2,
            percent_contended: 22.5,
            mean_slowdown: 0.031,
            max_slowdown: 0.5,
            verified_stores: 654321,
        }];
        let text = FIGC.table(&rows);
        assert!(text.contains("Figure C"));
        assert!(text.contains("bus"));
        let csv = FIGC.csv(&rows);
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
        let csv = FIG4.csv(&fig4_rows());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("clusters,"));
    }

    #[test]
    fn figp_rendering_and_csv_are_exact() {
        let rows = vec![FigPRow {
            strategy: SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
            clusters: 8,
            loops: 1258,
            recovered: 63,
            percent_recovered: 5.0079,
            mean_ii_reduction: 0.0123,
            percent_no_overhead_dms: 73.5,
            percent_no_overhead: 78.3,
            verified_stores: 123456,
        }];
        let text = FIGP.table(&rows);
        assert!(text.contains("Figure P"));
        assert!(text.contains("portfolio:8:50"));
        let csv = FIGP.csv(&rows);
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
        assert!(FIG5.table(&f5).contains("Figure 5"));
        assert!(FIG6.table(&f6).contains("Figure 6"));
        assert!(FIG5.csv(&f5).contains("100.0000"));
        assert!(FIG6.csv(&f6).contains("1.8000"));
    }
}
