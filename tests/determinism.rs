//! Determinism regression tests for the parallel sweep engine.
//!
//! The figures and their CSV exports must be pure functions of the
//! experiment configuration: the worker count is an execution detail and may
//! never leak into results, ordering, or rendered output. These tests pin
//! that contract at the CSV-byte level, per the acceptance criteria of the
//! workspace bring-up issue.

use dms_experiments::report;
use dms_experiments::{
    figure4, figure5, figure6, measure_loops_with_stats_on, measure_suite_with_stats,
    ExperimentConfig, ScheduleService,
};
use dms_workloads::generate;

fn suite_config(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(32);
    cfg.cluster_counts = vec![1, 2, 4, 8];
    cfg.threads = threads;
    cfg
}

#[test]
fn csv_output_is_byte_identical_for_1_and_4_threads() {
    let (serial, serial_stats) = measure_suite_with_stats(&suite_config(1));
    let (parallel, parallel_stats) = measure_suite_with_stats(&suite_config(4));

    assert_eq!(serial_stats.threads, 1);
    assert_eq!(parallel_stats.threads, 4);
    assert_eq!(serial_stats.tasks, 32 * 4);
    assert_eq!(serial_stats.failed, 0);
    assert_eq!(parallel_stats.failed, 0);

    assert_eq!(
        report::measurements_csv(&serial),
        report::measurements_csv(&parallel),
        "raw measurement CSV must not depend on the worker count"
    );
    assert_eq!(
        report::FIG4.csv(&figure4(&serial)),
        report::FIG4.csv(&figure4(&parallel)),
        "figure 4 CSV must not depend on the worker count"
    );
    assert_eq!(
        report::FIG5.csv(&figure5(&serial)),
        report::FIG5.csv(&figure5(&parallel)),
        "figure 5 CSV must not depend on the worker count"
    );
    assert_eq!(
        report::FIG6.csv(&figure6(&serial)),
        report::FIG6.csv(&figure6(&parallel)),
        "figure 6 CSV must not depend on the worker count"
    );
}

#[test]
fn per_core_thread_default_matches_serial_results() {
    let (serial, _) = measure_suite_with_stats(&suite_config(1));
    // threads = 0 resolves to one worker per available core.
    let (per_core, stats) = measure_suite_with_stats(&suite_config(0));
    assert!(stats.threads >= 1);
    assert_eq!(serial, per_core);
}

/// Non-ring topologies run through the same deterministic executor: a
/// verified chordal-ring and bus sweep produce byte-identical measurement
/// CSV — `topology` column included — for 1 and 4 worker threads.
#[test]
fn topology_sweep_is_byte_identical_for_1_and_4_threads() {
    use dms_core::SchedulerStrategy;
    use dms_machine::TopologyKind;
    for kind in [TopologyKind::ChordalRing { chord: 2 }, TopologyKind::Bus] {
        let mut serial = ExperimentConfig::quick(12);
        serial.cluster_counts = vec![2, 4, 8];
        serial.topology = kind;
        serial.verify = true;
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = 4;

        let (a, sa) = measure_suite_with_stats(&serial);
        let (b, sb) = measure_suite_with_stats(&parallel);
        assert_eq!(sa.failed, 0, "{kind}: every schedule must verify");
        assert_eq!(sb.failed, 0);
        assert!(sa.stores_verified > 0);
        let csv = report::measurements_csv(&a);
        assert_eq!(
            csv,
            report::measurements_csv(&b),
            "{kind}: sweep output must not depend on the worker count"
        );
        assert!(
            a.iter().all(|m| m.topology == kind && m.strategy == SchedulerStrategy::Dms),
            "{kind}: every row must carry the sweep's topology and strategy"
        );
        let cell = format!(",{kind},dms,0,");
        assert!(
            csv.lines().skip(1).all(|l| l.contains(&cell)),
            "{kind}: every row must carry the topology and strategy columns"
        );
    }
}

/// The DMS pressure-relaxation (II-retry) path is as deterministic as the
/// rest of the sweep: with the CQRFs shrunk far enough that several
/// schedules overflow and retry at a higher II, the measurement CSV —
/// including the `pressure_retries`, `first_ii` and `max_queue_depth`
/// columns it now carries — is byte-identical for 1 and 4 worker threads.
#[test]
fn pressure_retry_csv_is_byte_identical_for_1_and_4_threads() {
    let mut serial = ExperimentConfig::quick(24);
    serial.cluster_counts = vec![4, 8];
    serial.cqrf_capacity = Some(8);
    serial.verify = true;
    serial.threads = 1;
    let mut parallel = serial.clone();
    parallel.threads = 4;

    let (a, sa) = measure_suite_with_stats(&serial);
    let (b, sb) = measure_suite_with_stats(&parallel);
    assert!(sa.pressure_retries > 0, "the tight capacity must exercise the retry path");
    assert_eq!(sa.pressure_retries, sb.pressure_retries);
    assert_eq!(sa.peak_queue_depth, sb.peak_queue_depth);
    assert_eq!(sa.failed, 0, "every overflow must be absorbed by an II retry");
    assert_eq!(sb.failed, 0);

    let csv = report::measurements_csv(&a);
    assert_eq!(
        csv,
        report::measurements_csv(&b),
        "retry-path sweep output must not depend on the worker count"
    );
    let header = csv.lines().next().unwrap();
    assert!(header.ends_with(
        "pressure_retries,first_ii,max_queue_depth,topology,strategy,candidates,baseline_ii,\
         cache_hit,achieved_ii"
    ));
    assert!(a.iter().any(|m| m.pressure_retries > 0));
}

/// The portfolio search is seeded from (loop name, candidate index), never
/// from thread identity or scheduling order: a verified
/// `--strategy portfolio:8` sweep produces byte-identical measurement CSV —
/// `strategy`, `candidates` and `baseline_ii` columns included — for 1 and
/// 4 worker threads.
#[test]
fn portfolio_sweep_is_byte_identical_for_1_and_4_threads() {
    use dms_core::SchedulerStrategy;
    let mut serial = ExperimentConfig::quick(16);
    serial.cluster_counts = vec![2, 4, 8];
    serial.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 };
    serial.verify = true;
    serial.threads = 1;
    let mut parallel = serial.clone();
    parallel.threads = 4;

    let (a, sa) = measure_suite_with_stats(&serial);
    let (b, sb) = measure_suite_with_stats(&parallel);
    assert_eq!(sa.failed, 0, "every portfolio winner must pass end-to-end verification");
    assert_eq!(sb.failed, 0);
    let csv = report::measurements_csv(&a);
    assert_eq!(
        csv,
        report::measurements_csv(&b),
        "portfolio sweep output must not depend on the worker count"
    );
    assert!(
        csv.lines().skip(1).all(|l| l.contains(",portfolio:8:50,7,")),
        "every row must carry the strategy label and challenger count"
    );
}

/// An idealised sweep (no `--contention`) is byte-identical to the output
/// of the pre-contention binary, pinned against a committed fixture
/// captured just before the discrete-event replay layer landed
/// (`fig4 --loops 24 --clusters 1,2,4,8 --threads 1 --csv …`). Only the
/// appended `achieved_ii` column may differ — and it must be 0 on every
/// idealised row — so it is stripped before comparing. The fixture's first
/// 20 columns are also byte-identical to the pre-strategy scheduler's
/// output, so this one pin covers the default `--strategy dms` too.
#[test]
fn idealised_sweep_csv_matches_the_pre_contention_fixture() {
    let fixture = include_str!("fixtures/measurements_pre_contention.csv");
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = vec![1, 2, 4, 8];
    cfg.threads = 1;
    let (rows, stats) = measure_suite_with_stats(&cfg);
    assert_eq!(stats.failed, 0);
    assert!(
        rows.iter().all(|m| m.achieved_ii == 0),
        "without --contention no row may carry an achieved II"
    );
    let stripped: String = report::measurements_csv(&rows)
        .lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.split(',').collect();
            fields.truncate(fields.len() - 1);
            fields.join(",") + "\n"
        })
        .collect();
    assert_eq!(
        stripped, fixture,
        "idealised-mode output must stay byte-identical to the pre-contention binary"
    );
}

/// Drops the `cache_hit` column (second to last) so cold and warm sweeps
/// can be compared byte for byte on everything the figures consume.
fn strip_cache_hit(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.split(',').collect();
            fields.remove(fields.len() - 2);
            fields.join(",") + "\n"
        })
        .collect()
}

/// Re-running a sweep against a resident [`ScheduleService`] answers every
/// scheduler request from the content-addressed cache: same CSV bytes
/// (`cache_hit` column aside), every row flagged as cached, zero misses.
#[test]
fn warm_sweep_is_answered_entirely_from_the_schedule_cache() {
    let mut cfg = ExperimentConfig::quick(16);
    cfg.cluster_counts = vec![1, 2, 4, 8];
    cfg.verify = true;
    cfg.threads = 4;

    let suite = generate(&cfg.suite);
    let service = ScheduleService::default();
    let (cold, cold_stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
    assert_eq!(cold_stats.failed, 0);
    assert_eq!(cold_stats.cache_hits, 0, "a fresh service has nothing to hit");
    // Each task issues two scheduler requests: IMS and DMS.
    assert_eq!(cold_stats.cache_misses, 2 * cold_stats.tasks as u64);
    assert!(cold.iter().all(|m| !m.cache_hit), "cold rows must not claim a cache hit");

    let (warm, warm_stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
    assert_eq!(warm_stats.failed, 0);
    assert_eq!(
        warm_stats.cache_hits,
        2 * warm_stats.tasks as u64,
        "every IMS and DMS request of the warm sweep must be a cache hit"
    );
    assert_eq!(warm_stats.cache_misses, 0);
    assert!(warm.iter().all(|m| m.cache_hit), "warm rows must all come from the cache");
    assert_eq!(
        strip_cache_hit(&report::measurements_csv(&cold)),
        strip_cache_hit(&report::measurements_csv(&warm)),
        "a cached response must be bit-identical to the cold computation"
    );
    assert_eq!(
        warm_stats.stores_verified, cold_stats.stores_verified,
        "cached responses carry the cold run's verification digests"
    );
}

/// The cache keys by the exact body fingerprint and the request context:
/// a warm re-sweep of the paper grid at `--loops 24` (clusters 1–10) hits
/// on every request and reproduces the cold CSV, `cache_hit` column aside.
#[test]
fn warm_resweep_of_the_24_loop_paper_grid_hits_every_request() {
    let mut cfg = ExperimentConfig::paper();
    cfg.suite.num_loops = 24;
    cfg.threads = 2;

    let suite = generate(&cfg.suite);
    let service = ScheduleService::default();
    let (cold, cold_stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
    assert_eq!(cold_stats.failed, 0);
    let (warm, warm_stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
    assert_eq!(warm_stats.failed, 0);
    assert_eq!(warm_stats.tasks, 240);
    assert_eq!(warm_stats.cache_hits, 2 * warm_stats.tasks as u64);
    assert_eq!(warm_stats.cache_misses, 0);
    assert_eq!(
        strip_cache_hit(&report::measurements_csv(&cold)),
        strip_cache_hit(&report::measurements_csv(&warm)),
    );
}

/// The discrete-event replay core is as deterministic as the scheduler it
/// replays: a figure-C sweep (contention + verification forced on across
/// topologies) produces byte-identical aggregate *and* per-row CSV for 1
/// and 4 worker threads.
#[test]
fn contention_replay_csv_is_byte_identical_for_1_and_4_threads() {
    use dms_experiments::{figure_c, sweep_topologies};
    use dms_machine::TopologyKind;
    let kinds = [TopologyKind::Bus, TopologyKind::Crossbar];
    let mut serial = ExperimentConfig::quick(12);
    serial.cluster_counts = vec![2, 4, 8];
    serial.threads = 1;
    let mut parallel = serial.clone();
    parallel.threads = 4;

    let sweeps_a = sweep_topologies(&serial, &kinds, true, &Default::default());
    let sweeps_b = sweep_topologies(&parallel, &kinds, true, &Default::default());
    for s in sweeps_a.iter().chain(&sweeps_b) {
        assert_eq!(s.stats.failed, 0, "{}: every replayed schedule must verify", s.topology);
    }
    assert_eq!(
        report::FIGC.csv(&figure_c(&sweeps_a, &serial.cluster_counts)),
        report::FIGC.csv(&figure_c(&sweeps_b, &parallel.cluster_counts)),
        "figure C aggregate CSV must not depend on the worker count"
    );
    for (a, b) in sweeps_a.iter().zip(&sweeps_b) {
        assert_eq!(
            report::measurements_csv(&a.measurements),
            report::measurements_csv(&b.measurements),
            "figure C per-row CSV must not depend on the worker count"
        );
    }
}

/// The figure-C grid (`figC --loops 24`: clusters 2, 4, 8 on the ring,
/// chordal:2, bus and crossbar, contention timing on) is pinned byte for
/// byte, per row and aggregated. The fixtures were captured when the
/// timing ran as a separate second walk of each program; they are never
/// regenerated to fit a change to the timing model.
#[test]
fn figc_grid_matches_the_committed_fixture() {
    use dms_experiments::{figure_c, sweep_topologies, FIGC_CLUSTERS, FIGC_TOPOLOGIES};
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
    cfg.threads = 1;
    let sweeps = sweep_topologies(&cfg, &FIGC_TOPOLOGIES, true, &Default::default());
    assert!(sweeps.iter().all(|s| s.stats.failed == 0), "every replayed schedule must verify");
    let rows: Vec<_> = sweeps.iter().flat_map(|s| s.measurements.iter().cloned()).collect();
    assert_eq!(rows.len(), 288);
    assert_eq!(
        report::measurements_csv(&rows),
        include_str!("fixtures/measurements_figc_loops24.csv"),
        "figure-C per-row CSV must match the fixture"
    );
    assert_eq!(
        report::FIGC.csv(&figure_c(&sweeps, &cfg.cluster_counts)),
        include_str!("fixtures/figurec_loops24.csv"),
        "figure-C aggregate CSV must match the fixture"
    );
}

/// `figP --loops 24 --strategy portfolio:4` (clusters 2, 4, 8, every
/// winner verified) is pinned byte for byte, per row and aggregated. The
/// portfolio seeds each candidate from an FNV-1a digest of the loop name,
/// so this is the test that catches a change to that hash.
#[test]
fn figp_grid_matches_the_committed_fixture() {
    use dms_experiments::{figure_p, FIGC_CLUSTERS};
    use dms_sched::SchedulerStrategy;
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
    cfg.threads = 1;
    cfg.verify = true;
    cfg.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 };
    let (measurements, stats) = measure_suite_with_stats(&cfg);
    let rows = figure_p(&measurements, &cfg);
    assert_eq!(stats.failed, 0, "figure P verifies every winning schedule");
    assert_eq!(
        report::FIGP.csv(&rows),
        include_str!("fixtures/figurep_loops24.csv"),
        "figure-P aggregate CSV must match the fixture"
    );
    assert_eq!(measurements.len(), 72);
    assert_eq!(
        report::measurements_csv(&measurements),
        include_str!("fixtures/measurements_figp_loops24.csv"),
        "figure-P per-row CSV must match the fixture"
    );
}

/// `fig4 --loops 24 --clusters 2,4,8 --strategy beam:3 --cqrf-capacity 12`
/// is pinned byte for byte. The shrunken CQRFs force pressure retries, so
/// chain steering runs inside the beam as well as in the heuristic.
#[test]
fn beam_grid_matches_the_committed_fixture() {
    use dms_sched::SchedulerStrategy;
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = vec![2, 4, 8];
    cfg.cqrf_capacity = Some(12);
    cfg.threads = 1;
    cfg.dms.strategy = SchedulerStrategy::Beam { width: 3 };
    let (measurements, stats) = measure_suite_with_stats(&cfg);
    assert_eq!(stats.failed, 0);
    assert!(stats.pressure_retries > 0, "the fixture must hold a pressure retry");
    assert_eq!(
        report::measurements_csv(&measurements),
        include_str!("fixtures/measurements_beam3_loops24.csv"),
        "beam:3 per-row CSV must match the fixture"
    );
}

/// `fig5`/`fig6 --loops 24` (clusters 1–10) are pinned byte for byte.
#[test]
fn fig5_and_fig6_match_the_committed_fixtures() {
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = (1..=10).collect();
    cfg.threads = 1;
    let (measurements, stats) = measure_suite_with_stats(&cfg);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        report::FIG5.csv(&figure5(&measurements)),
        include_str!("fixtures/figure5_loops24.csv"),
        "figure-5 CSV must match the fixture"
    );
    assert_eq!(
        report::FIG6.csv(&figure6(&measurements)),
        include_str!("fixtures/figure6_loops24.csv"),
        "figure-6 CSV must match the fixture"
    );
}

/// Contention replay can only ever *add* stalls: every replayed row
/// sustains at least the scheduled II, and an unconstrained crossbar
/// fabric sustains it exactly.
#[test]
fn achieved_ii_never_undercut_the_scheduled_ii() {
    use dms_machine::TopologyKind;
    for kind in [TopologyKind::Ring, TopologyKind::Bus, TopologyKind::Crossbar] {
        let mut cfg = ExperimentConfig::quick(12);
        cfg.cluster_counts = vec![2, 4, 8];
        cfg.topology = kind;
        cfg.contention = true;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.failed, 0, "{kind}: contention implies verification");
        assert!(stats.stores_verified > 0, "{kind}: contention implies verification");
        for m in rows.iter().filter(|m| m.clusters > 1) {
            assert!(
                m.achieved_ii >= m.clustered_ii,
                "{kind} loop {} at {} clusters: achieved {} below scheduled {}",
                m.loop_id,
                m.clusters,
                m.achieved_ii,
                m.clustered_ii
            );
            if kind == TopologyKind::Crossbar {
                assert_eq!(
                    m.achieved_ii, m.clustered_ii,
                    "{kind} loop {}: an unconstrained fabric cannot stall",
                    m.loop_id
                );
            }
        }
    }
}

/// Every rendered table, and the figure-4 and figure-T CSVs, are pinned
/// byte for byte: figures 4, 5 and 6 (with their claim lines) from the
/// `--loops 24` 1–10-cluster sweep, figures T, C and P (`portfolio:4`)
/// from their `--loops 24` 2/4/8-cluster sweeps, and both ablation tables
/// of `ablation --loops 24` (clusters 6–10). Each table is followed by a
/// blank line, as the CLI prints it.
#[test]
fn every_table_and_the_fig4_and_figt_csvs_match_the_committed_fixtures() {
    use dms_experiments::ablation::{chain_policy_ablation, copy_unit_ablation, sweep_baseline};
    use dms_experiments::{
        figure_c, figure_p, figure_t, sweep_topologies, FIGC_CLUSTERS, FIGC_TOPOLOGIES,
    };
    use dms_sched::SchedulerStrategy;
    let mut cfg = ExperimentConfig::quick(24);
    cfg.cluster_counts = (1..=10).collect();
    cfg.threads = 1;
    let (measurements, stats) = measure_suite_with_stats(&cfg);
    assert_eq!(stats.failed, 0);
    let fig4 = figure4(&measurements);
    assert_eq!(
        report::FIG4.csv(&fig4),
        include_str!("fixtures/figure4_loops24.csv"),
        "figure-4 CSV must match the fixture"
    );
    let mut tables = vec![
        report::FIG4.table(&fig4),
        report::FIG5.table(&figure5(&measurements)),
        report::FIG6.table(&figure6(&measurements)),
    ];

    let mut grid = ExperimentConfig::quick(24);
    grid.cluster_counts = FIGC_CLUSTERS.to_vec();
    grid.threads = 1;
    let figt = figure_t(
        &sweep_topologies(&grid, &FIGC_TOPOLOGIES, false, &Default::default()),
        &grid.cluster_counts,
    );
    assert_eq!(
        report::FIGT.csv(&figt),
        include_str!("fixtures/figuret_loops24.csv"),
        "figure-T CSV must match the fixture"
    );
    tables.push(report::FIGT.table(&figt));
    let figc = figure_c(
        &sweep_topologies(&grid, &FIGC_TOPOLOGIES, true, &Default::default()),
        &grid.cluster_counts,
    );
    tables.push(report::FIGC.table(&figc));
    let mut portfolio = ExperimentConfig { verify: true, ..grid.clone() };
    portfolio.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 };
    let measurements = measure_suite_with_stats(&portfolio).0;
    tables.push(report::FIGP.table(&figure_p(&measurements, &portfolio)));

    let mut wide = ExperimentConfig::quick(24);
    wide.cluster_counts = (6..=10).collect();
    wide.threads = 1;
    let baseline = sweep_baseline(&wide, ScheduleService::default());
    tables.push(report::render_ablation(&copy_unit_ablation(&baseline, 2).0));
    tables.push(report::render_ablation(&chain_policy_ablation(&baseline).0));

    let text: String = tables.iter().map(|t| format!("{t}\n")).collect();
    assert_eq!(
        text,
        include_str!("fixtures/tables_loops24.txt"),
        "the rendered tables must match the fixture"
    );
}
