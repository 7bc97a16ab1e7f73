//! The two paper-grid workloads: the `dms-experiments` sweep of the paper
//! suite (1258 loops × clusters 1–10, ring, one thread, cold service),
//! schedule only or with `--verify --contention`.
//!
//! The sweep goes through the runner's public entry point one suite loop at
//! a time on one service, which does the work of a single whole-suite call
//! (the runner measures loop by loop anyway, and the service's cache spans
//! the calls) and yields one compile-time sample per loop. The seed orders
//! the loops; it never changes which loops are measured, so the output is
//! the same for every seed and the digest of the measurement CSV is checked
//! on every run.

use crate::pipeline::{Pipeline, LAYER_SPANS};
use crate::trace::{median, micros, peak_rss_mb, quantile, Ledger, Tracer};
use crate::{layer_metrics, Options, Outcome, SETUP_REPS};
use dms_core::DmsConfig;
use dms_experiments::fig4::claim_no_overhead_up_to_8_clusters;
use dms_experiments::report::measurements_csv;
use dms_experiments::runner::{measure_loops_with_stats_on, VERIFY_TRIP_CAP};
use dms_experiments::{figure4, ExperimentConfig, LoopMeasurement, ScheduleService};
use dms_ir::Loop;
use dms_machine::MachineConfig;
use dms_service::hash::Fnv;
use dms_service::{ScheduleRequest, SchedulerKind};
use dms_telemetry::Registry;
use dms_workloads::{generate, unroll_for_machine, SuiteLoop};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a digests of the paper grid's measurement CSV (12,580 rows), as
/// produced by the repository at the commit that added this benchmark. Any
/// change to a scheduled II, a cycle count, a verified-store count or an
/// achieved II changes them.
const PAPER_DIGEST_SCHEDULE: u64 = 0x7f02_0d04_60ab_f974;
const PAPER_DIGEST_VERIFY_CONTENTION: u64 = 0x04af_e1d7_d317_5e98;

/// Slowest DMS calls listed by a traced run.
const SLOWEST: usize = 10;

fn config(opts: &Options, verify_contention: bool) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper();
    config.suite.num_loops = opts.loops;
    config.threads = 1;
    config.verify = verify_contention;
    config.contention = verify_contention;
    config
}

/// The suite in the seed's order. Loops that differ at most in trip count
/// can unroll to identical bodies and share cache entries, so they share a
/// sort key and keep their suite order: the same one of them always reaches
/// the cache first, and even the `cache_hit` column is the same for every
/// seed.
fn suite(config: &ExperimentConfig, seed: u64) -> Vec<SuiteLoop> {
    let mut suite = generate(&config.suite);
    suite.sort_by_cached_key(|l| {
        let mut h = Fnv::new();
        h.word(seed);
        h.bytes(l.body.name.as_bytes());
        h.debug(&l.body.ddg);
        (h.finish(), l.id)
    });
    suite
}

/// Set-up of one sweep: suite generation and a cold service, timed.
fn set_up(config: &ExperimentConfig, seed: u64) -> (Vec<SuiteLoop>, ScheduleService, f64) {
    let t = Instant::now();
    let suite = suite(config, seed);
    let service = ScheduleService::default();
    (suite, service, t.elapsed().as_secs_f64())
}

struct Sweep {
    /// Rows in suite-id order, as a single whole-suite sweep returns them.
    rows: Vec<LoopMeasurement>,
    loop_us: Vec<f64>,
    wall_s: f64,
    failed_cells: usize,
}

fn sweep(suite: &[SuiteLoop], config: &ExperimentConfig, service: &ScheduleService) -> Sweep {
    let mut rows = Vec::with_capacity(suite.len() * config.cluster_counts.len());
    let mut loop_us = Vec::with_capacity(suite.len());
    let mut failed_cells = 0;
    let started = Instant::now();
    for one in suite.chunks(1) {
        let t = Instant::now();
        let (measured, stats) = measure_loops_with_stats_on(one, config, service);
        loop_us.push(micros(t.elapsed()));
        failed_cells += stats.failed;
        rows.extend(measured);
    }
    let wall_s = started.elapsed().as_secs_f64();
    rows.sort_by_key(|m| m.loop_id);
    Sweep { rows, loop_us, wall_s, failed_cells }
}

fn csv_digest(rows: &[LoopMeasurement]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(measurements_csv(rows).as_bytes());
    h.finish()
}

pub fn run(opts: &Options, verify_contention: bool) -> Result<Outcome, String> {
    let config = config(opts, verify_contention);
    let pinned =
        if verify_contention { PAPER_DIGEST_VERIFY_CONTENTION } else { PAPER_DIGEST_SCHEDULE };
    let expected = opts.expect_digest.or((opts.loops == crate::PAPER_LOOPS).then_some(pinned));

    // The extra set-ups run first, so that every run times them in the same
    // fresh heap.
    let mut setup_s: Vec<f64> = (1..SETUP_REPS).map(|_| set_up(&config, opts.seed).2).collect();
    let started = Instant::now();
    let mut sweeps = Vec::new();
    while sweeps.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let (suite, service, secs) = set_up(&config, opts.seed);
        setup_s.push(secs);
        sweeps.push(sweep(&suite, &config, &service));
    }

    let mut out = Outcome::default();
    let cells = (config.suite.num_loops * config.cluster_counts.len()) as u64;
    for s in &sweeps {
        out.attempted += cells;
        let digest = csv_digest(&s.rows);
        println!("measurement CSV digest: {digest:016x} ({} rows)", s.rows.len());
        if let Some(want) = expected.filter(|&want| want != digest) {
            eprintln!("perfbench: the measurement CSV digest should be {want:016x}");
            out.failed += cells;
        } else {
            out.failed += s.failed_cells as u64;
        }
    }

    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    let loop_us: Vec<f64> = sweeps.iter().flat_map(|s| s.loop_us.iter().copied()).collect();
    let wall_s = median(&walls);
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.e2e.insert(
        "req_per_s",
        median(&walls.iter().map(|w| 2.0 * cells as f64 / w).collect::<Vec<_>>()),
    );
    out.e2e.insert("op_p50_us", quantile(&loop_us, 0.5));
    out.e2e.insert("op_p99_us", quantile(&loop_us, 0.99));

    let rows = &sweeps[0].rows;
    let fig4 = figure4(rows);
    let clustered: u64 = rows.iter().map(|m| m.clustered_cycles).sum();
    let unclustered: u64 = rows.iter().map(|m| m.unclustered_cycles).sum();
    println!(
        "paper figures: no_overhead_pct {:.2} (worst <=8 clusters), cycles_ratio {:.5}",
        claim_no_overhead_up_to_8_clusters(&fig4),
        clustered as f64 / unclustered.max(1) as f64
    );
    if verify_contention {
        let slowdown: f64 = rows
            .iter()
            .map(|m| f64::from(m.achieved_ii) / f64::from(m.clustered_ii) - 1.0)
            .sum::<f64>()
            / rows.len().max(1) as f64;
        println!("achieved_ii_slowdown_pct {:.3}", 100.0 * slowdown);
    }

    if opts.trace {
        traced(opts, &config, rows, wall_s, &mut out)?;
    }
    Ok(out)
}

fn cell_id(loop_id: usize, clusters: u32) -> u64 {
    loop_id as u64 * 100 + u64::from(clusters)
}

/// Replays the sweep's exact work — same loop order, unrolling, `ii_seed`
/// threading and verify trip cap — through the layered pipeline, and checks
/// every cell against the untraced sweep's row.
fn traced(
    opts: &Options,
    config: &ExperimentConfig,
    rows: &[LoopMeasurement],
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let suite = suite(config, opts.seed);
    let by_cell: HashMap<(usize, u32), &LoopMeasurement> =
        rows.iter().map(|m| ((m.loop_id, m.clusters), m)).collect();
    let registry = Arc::new(Registry::new());
    dms_telemetry::install(Arc::clone(&registry));
    let mut pipeline = Pipeline::new(registry);
    let mut tr = Tracer::new();

    let started = Instant::now();
    for sl in &suite {
        out.attempted += config.cluster_counts.len() as u64;
        out.failed += replay_loop(sl, config, &mut pipeline, &mut tr, &by_cell);
    }
    tr.span("experiments.report", 0, || {
        std::hint::black_box((measurements_csv(rows), figure4(rows)));
    });
    let wall = started.elapsed();
    dms_telemetry::uninstall();

    let ledger = Ledger::close(&tr, wall, &["cell"], &LAYER_SPANS, &pipeline.probed_us)?;
    layer_metrics(&mut out.layers, &ledger, &pipeline, wall, untraced_wall_s, ledger.probe_us);
    println!("slowest DMS calls (of {}):", pipeline.dms_calls.len());
    let mut calls = pipeline.dms_calls.clone();
    calls.sort_by(|a, b| b.us.total_cmp(&a.us));
    for call in calls.iter().take(SLOWEST) {
        println!(
            "  loop {:>4} clusters {:>2}: {:>9.0} us, {} II attempts ({} failed), {} chain dismantles",
            call.id / 100,
            call.id % 100,
            call.us,
            call.ii_attempts,
            call.failed_ii_attempts,
            call.chain_dismantles
        );
    }
    crate::write_spans(&tr, opts)
}

/// Replays one loop at every cluster count; returns the cells whose replay
/// disagrees with the sweep.
fn replay_loop(
    sl: &SuiteLoop,
    config: &ExperimentConfig,
    pipeline: &mut Pipeline,
    tr: &mut Tracer,
    by_cell: &HashMap<(usize, u32), &LoopMeasurement>,
) -> u64 {
    let mut bodies: Vec<(u32, Loop)> = Vec::new();
    let mut seed = None;
    let mut mismatches = 0;
    for &clusters in &config.cluster_counts {
        let id = cell_id(sl.id, clusters);
        tr.open("cell", id);
        let machine = MachineConfig::paper_clustered(clusters).with_topology(config.topology);
        let useful_fus = machine.total_useful_fus();
        let factor = config.unroll.factor(sl.body.useful_ops(), useful_fus);
        if !bodies.iter().any(|(f, _)| *f == factor) {
            let body = tr.span("workloads.unroll", id, || {
                unroll_for_machine(&sl.body, useful_fus, &config.unroll)
            });
            bodies.push((factor, body));
        }
        let body = &bodies.iter().find(|(f, _)| *f == factor).expect("unrolled above").1;
        let unclustered = MachineConfig::unclustered(clusters);
        let verify_trips =
            (config.verify || config.contention).then(|| body.trip_count.min(VERIFY_TRIP_CAP));
        let ims = pipeline.answer(
            &ScheduleRequest {
                body,
                machine: &unclustered,
                dms: DmsConfig::default(),
                scheduler: SchedulerKind::Ims,
                verify_trips,
                contention: false,
            },
            tr,
            id,
        );
        let dms = pipeline.answer(
            &ScheduleRequest {
                body,
                machine: &machine,
                dms: DmsConfig { ii_seed: seed, ..config.dms },
                scheduler: SchedulerKind::Dms,
                verify_trips,
                contention: config.contention,
            },
            tr,
            id,
        );
        tr.close();
        let row = by_cell.get(&(sl.id, clusters));
        let agrees = match (ims, dms, row) {
            (Ok(ims), Ok(dms), Some(row)) => {
                seed = Some(dms.output.result().ii());
                let (stores, depth) = match (ims.verify, dms.verify) {
                    (Some(i), Some(d)) => (
                        i.stores_checked + d.stores_checked,
                        i.max_queue_depth.max(d.max_queue_depth),
                    ),
                    _ => (0, 0),
                };
                row.unclustered_ii == ims.output.result().ii()
                    && row.clustered_ii == dms.output.result().ii()
                    && row.verified_stores == stores
                    && row.max_queue_depth == depth
                    && row.achieved_ii == dms.verify.map_or(0, |d| d.achieved_ii)
                    && row.cache_hit == (ims.cache_hit && dms.cache_hit)
            }
            (Ok(_), Ok(_), None) | (Err(_), _, Some(_)) | (_, Err(_), Some(_)) => false,
            (_, _, None) => true,
        };
        if !agrees {
            eprintln!(
                "traced replay disagrees with the sweep on loop {} at {clusters} clusters",
                sl.id
            );
            mismatches += 1;
        }
    }
    mismatches
}
