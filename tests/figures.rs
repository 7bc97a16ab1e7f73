//! Integration tests of the experiment harness: reduced-scale versions of
//! the paper's figures and the text claims attached to them.
//!
//! These run on a deterministic 60-loop subsample of the suite so that the
//! whole test stays within a few seconds; the full 1258-loop reproduction is
//! produced by `cargo run --release -p dms-experiments` and recorded in
//! `EXPERIMENTS.md`.

use dms_experiments::{figure4, figure5, figure6, measure_suite_with_stats, ExperimentConfig};

fn measurements() -> Vec<dms_experiments::LoopMeasurement> {
    let mut cfg = ExperimentConfig::quick(60);
    cfg.cluster_counts = vec![1, 2, 3, 4, 8];
    measure_suite_with_stats(&cfg).0
}

#[test]
fn figure4_shape_matches_the_paper() {
    let rows = figure4(&measurements());
    let at = |c: u32| rows.iter().find(|r| r.clusters == c).unwrap();

    // 1 cluster is the unclustered machine: zero overhead by construction.
    assert_eq!(at(1).percent_increased, 0.0);
    // 2 and 3 clusters: every pair of clusters is adjacent, so the only
    // possible overhead comes from copy operations and no moves exist.
    assert_eq!(at(2).mean_moves, 0.0);
    assert_eq!(at(3).mean_moves, 0.0);
    assert!(at(2).percent_increased <= 25.0);
    assert!(at(3).percent_increased <= 25.0);
    // the overhead grows with the cluster count but stays bounded at 8
    // clusters (the paper reports > 80 % of loops with no overhead; we allow
    // a loose 60 % on this small subsample).
    assert!(at(8).percent_no_overhead >= 60.0, "got {}", at(8).percent_no_overhead);
    assert!(at(8).percent_increased >= at(2).percent_increased);
    // wide machines are the ones that need move chains
    assert!(at(8).mean_moves >= at(4).mean_moves);
}

#[test]
fn figure5_shape_matches_the_paper() {
    let rows = figure5(&measurements());
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    // normalised to 100 at the narrowest machine
    assert!((first.set1_unclustered - 100.0).abs() < 1e-9);
    // wider machines execute the suite in fewer cycles
    assert!(last.set1_unclustered < 50.0);
    assert!(last.set2_unclustered < 50.0);
    // the clustered machine tracks the unclustered one closely on Set 2
    // ("very small differences are observed if only loops without
    // recurrences are considered") and within a modest factor on Set 1
    for r in &rows {
        assert!(
            r.set2_slowdown() <= r.set1_slowdown() + 0.10,
            "Set 2 should be at least as close to the ideal as Set 1 at {} FUs",
            r.functional_units
        );
        assert!(r.set1_slowdown() <= 1.5);
    }
}

#[test]
fn figure6_shape_matches_the_paper() {
    let rows = figure6(&measurements());
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    // IPC grows substantially from 3 FUs to 24 FUs on the unclustered machine
    assert!(last.set1_unclustered > first.set1_unclustered * 2.0);
    // Set 2 exploits the machine at least as well as Set 1
    assert!(last.set2_unclustered >= last.set1_unclustered * 0.9);
    // the clustered machine never exceeds the unclustered ideal (modulo
    // rounding effects of the cycle model)
    for r in &rows {
        assert!(r.set1_clustered <= r.set1_unclustered * 1.02);
        assert!(r.set2_clustered <= r.set2_unclustered * 1.02);
        assert!(r.set1_unclustered <= r.functional_units as f64);
    }
}

#[test]
fn figure_data_is_deterministic() {
    let a = figure4(&measurements());
    let b = figure4(&measurements());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.percent_increased, y.percent_increased);
        assert_eq!(x.mean_moves, y.mean_moves);
    }
}
