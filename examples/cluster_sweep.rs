//! A reduced-scale version of the paper's whole evaluation, runnable in a
//! few seconds: sweep a deterministic 120-loop subsample of the suite over
//! 1–10 clusters and print the three figures.
//!
//! The full 1258-loop reproduction is produced by the `dms-experiments`
//! binary (`cargo run --release -p dms-experiments`); this example exists so
//! that a library user can see how to drive the experiment harness from
//! their own code.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cluster_sweep
//! ```

use dms_experiments::report;
use dms_experiments::{figure4, figure5, figure6, measure_suite_with_stats, ExperimentConfig};

fn main() {
    let mut config = ExperimentConfig::quick(120);
    config.cluster_counts = (1..=10).collect();

    let started = std::time::Instant::now();
    let (measurements, _) = measure_suite_with_stats(&config);
    println!(
        "measured {} loops on {} machine pairs in {:.1} s\n",
        config.suite.num_loops,
        config.cluster_counts.len(),
        started.elapsed().as_secs_f64()
    );

    println!("{}", report::FIG4.table(&figure4(&measurements)));
    println!("{}", report::FIG5.table(&figure5(&measurements)));
    println!("{}", report::FIG6.table(&figure6(&measurements)));

    // A couple of derived observations a user might care about:
    let at8: Vec<_> = measurements.iter().filter(|m| m.clusters == 8).collect();
    let with_moves = at8.iter().filter(|m| m.moves > 0).count();
    println!(
        "at 8 clusters, {} of {} loops needed at least one move chain; the rest were \
         partitioned without any inter-cluster traffic beyond adjacent-cluster queues",
        with_moves,
        at8.len()
    );
}
