//! End-to-end and per-layer benchmark of the DMS pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid-schedule|grid-verify-contention|service-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run measures its workload for about `--seconds` seconds (at least
//! one full sweep or stream pass), checks every output, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. A traced run first measures untraced as usual, then replays
//! the same work with a span around every layer call and writes the spans
//! to `$CARGO_TARGET_DIR/perfbench/` (default `.bench_build`). See
//! `perfbench/README.md` for the workloads and metrics.

mod grid;
mod pipeline;
mod service_mixed;
mod trace;

use pipeline::Pipeline;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::{quantile, Ledger, Tracer};

/// Loops of the paper suite.
pub const PAPER_LOOPS: usize = 1258;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload never
/// calls reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("core.dms_us", "us"),
    ("core.dms_p99_us", "us"),
    ("core.dms_top1pct_share", "ratio"),
    ("core.ii_attempts", "count"),
    ("core.failed_ii_attempts", "count"),
    ("core.useful_attempt_ratio", "ratio"),
    ("core.us_per_ii_attempt", "us"),
    ("core.budget_used", "count"),
    ("core.evictions", "count"),
    ("core.chain_dismantles", "count"),
    ("core.moves_inserted", "count"),
    ("core.pressure_retries", "count"),
    ("sched.ims_us", "us"),
    ("sched.mii_us", "us"),
    ("sched.validate_us", "us"),
    ("ir.single_use_us", "us"),
    ("ir.canonical_hash_us", "us"),
    ("workloads.unroll_us", "us"),
    ("regalloc.allocate_us", "us"),
    ("regalloc.emit_us", "us"),
    ("regalloc.program_words", "count"),
    ("sim.execute_us", "us"),
    ("sim.instances_executed", "count"),
    ("sim.execute_ns_per_instance", "ns"),
    ("sim.reference_us", "us"),
    ("sim.compare_us", "us"),
    ("sim.stores_checked", "count"),
    ("sim.replay_us", "us"),
    ("sim.transfers", "count"),
    ("sim.serialized_transfers", "count"),
    ("sim.stalled_cells", "count"),
    ("service.key_us", "us"),
    ("service.guard_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.decode_us", "us"),
    ("service.encode_resp_us", "us"),
    ("service.roundtrip_us", "us"),
    ("service.transport_us", "us"),
    ("service.request_bytes", "bytes"),
    ("service.response_bytes", "bytes"),
    ("service.hit_rtt_p50_us", "us"),
    ("service.miss_rtt_p50_us", "us"),
    ("experiments.report_us", "us"),
    ("experiments.probe_us", "us"),
    ("experiments.remainder_us", "us"),
    ("experiments.traced_wall_s", "s"),
    ("experiments.tracing_overhead_s", "s"),
];

/// Command-line options.
#[derive(Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Loops of the suite (the paper's 1258 by default; smaller for smoke
    /// tests).
    pub loops: usize,
    /// Expected measurement CSV digest of a grid workload, in hex; the
    /// pinned paper-grid digest by default.
    pub expect_digest: Option<u64>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        loops: PAPER_LOOPS,
        expect_digest: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--loops" => opts.loops = value.parse().map_err(|e| bad(&e))?,
            "--expect-digest" => {
                opts.expect_digest = Some(u64::from_str_radix(&value, 16).map_err(|e| bad(&e))?)
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if opts.loops == 0 {
        return Err("--loops must be at least 1".to_string());
    }
    Ok(opts)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set_layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// The per-layer metrics every traced run derives from its ledger and the
/// pipeline's counters. `repeated_us` is the traced run's work that the
/// untraced run does elsewhere or not at all (the probes, and for a served
/// stream the in-process answer of every request); the tracing overhead is
/// the traced wall time less that work and less the untraced wall time.
pub fn layer_metrics(
    layers: &mut BTreeMap<String, f64>,
    ledger: &Ledger,
    pipeline: &Pipeline,
    traced_wall: Duration,
    untraced_wall_s: f64,
    repeated_us: f64,
) {
    for (span, us) in &ledger.layers {
        layers.insert(format!("{span}_us"), *us);
    }
    let c = &pipeline.counters;
    let dms_us: Vec<f64> = pipeline.dms_calls.iter().map(|call| call.us).collect();
    let total: f64 = dms_us.iter().sum();
    let mut slowest = dms_us.clone();
    slowest.sort_by(|a, b| b.total_cmp(a));
    let top: f64 = slowest.iter().take(slowest.len().div_ceil(100)).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let accepted = c.ii_attempts.saturating_sub(c.failed_ii_attempts + c.pressure_retries);
    let counts = [
        ("core.dms_p99_us", quantile(&dms_us, 0.99)),
        ("core.dms_top1pct_share", ratio(top, total)),
        ("core.ii_attempts", c.ii_attempts as f64),
        ("core.failed_ii_attempts", c.failed_ii_attempts as f64),
        ("core.useful_attempt_ratio", ratio(accepted as f64, c.ii_attempts as f64)),
        ("core.us_per_ii_attempt", ratio(ledger.us("core.dms"), c.ii_attempts as f64)),
        ("core.budget_used", c.budget_used as f64),
        ("core.evictions", c.evictions as f64),
        ("core.chain_dismantles", c.chain_dismantles as f64),
        ("core.moves_inserted", c.moves_inserted as f64),
        ("core.pressure_retries", c.pressure_retries as f64),
        ("regalloc.program_words", c.program_words as f64),
        ("sim.instances_executed", c.instances_executed as f64),
        (
            "sim.execute_ns_per_instance",
            ratio(1000.0 * ledger.us("sim.execute"), c.instances_executed as f64),
        ),
        ("sim.stores_checked", c.stores_checked as f64),
        ("sim.transfers", c.transfers as f64),
        ("sim.serialized_transfers", c.serialized_transfers as f64),
        ("sim.stalled_cells", c.stalled_cells as f64),
        ("service.hit_ratio", ratio(c.hits as f64, c.lookups as f64)),
        ("experiments.probe_us", ledger.probe_us),
        ("experiments.remainder_us", ledger.remainder_us),
        ("experiments.traced_wall_s", traced_wall.as_secs_f64()),
        (
            "experiments.tracing_overhead_s",
            traced_wall.as_secs_f64() - repeated_us / 1e6 - untraced_wall_s,
        ),
    ];
    for (name, value) in counts {
        layers.insert(name.to_string(), value);
    }
}

/// Writes a traced run's spans beside the build output.
pub fn write_spans(tracer: &Tracer, opts: &Options) -> Result<(), String> {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let path = dir.join("perfbench").join(format!("spans-{}-seed{}.csv", opts.workload, opts.seed));
    tracer.write_csv(&path).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of the
/// run's mode, each with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = String::new();
    let names: Vec<(&str, &str)> = if trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    for (name, unit) in names {
        let value = if trace {
            outcome.layers.get(name).copied().unwrap_or(0.0)
        } else {
            *outcome.e2e.get(name).ok_or_else(|| format!("metric {name} was not measured"))?
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "grid-schedule" => grid::run(&opts, false),
        "grid-verify-contention" => grid::run(&opts, true),
        "service-mixed" => service_mixed::run(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    let line = outcome.and_then(|outcome| {
        println!("failed_share {}", outcome.failed as f64 / outcome.attempted.max(1) as f64);
        Ok((result_line(&outcome, opts.trace)?, outcome.failed == 0))
    });
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
