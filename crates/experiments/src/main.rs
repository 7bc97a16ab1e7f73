//! Command-line entry point regenerating the paper's figures, plus the
//! resident scheduling service.
//!
//! ```text
//! dms-experiments [fig4|fig5|fig6|figT|figP|figC|ablation|all] [--loops N] [--clusters A,B,C] [--seed S] [--csv DIR] [--threads T] [--verify] [--contention] [--cqrf-capacity N] [--topology ring|chordal[:K]|bus|crossbar] [--strategy dms|beam:W|portfolio:N[:E]] [--metrics-json PATH]
//! dms-experiments serve [--addr HOST:PORT]
//! dms-experiments client [--addr HOST:PORT] [--loops N] [--clusters A,B,C] [--seed S] [--shutdown]
//! ```
//!
//! `serve` keeps a [`dms_service::ScheduleService`] resident behind a
//! newline-delimited JSON TCP endpoint (see `dms_service::wire` for the
//! protocol); repeated requests are answered from its content-addressed
//! schedule cache. `client` drives a freshly started instance end to end:
//! it sends every (loop, cluster-count) cell of a reduced sweep as a wire
//! request, checks each served line byte for byte against the line a local
//! service answers, and then repeats the last request to prove it hits the
//! cache.
//!
//! With no arguments it runs `all` at paper scale (1258 loops, 1–10
//! clusters), prints every figure as a text table and checks the paper's
//! headline claims. With `--verify` every schedule is additionally lowered
//! through register allocation and code generation, executed on the
//! clustered-VLIW interpreter and cross-checked against a scalar reference
//! interpretation of the loop; any failed task (capacity overflow or store
//! mismatch) then makes the run exit non-zero, which is what the scheduled
//! nightly full-grid CI job gates on. `--cqrf-capacity` shrinks the queue
//! files below the paper's 32 registers to stress the scheduler's
//! pressure-relaxation (II-retry) path. `--topology` swaps the clustered
//! machine's interconnect (the paper's ring by default) for a chordal ring,
//! a shared bus or a crossbar; `figT` sweeps all four at 2/4/8 clusters
//! with verification forced on and compares the achievable II. `--strategy`
//! swaps the deterministic DMS heuristic for a beam search (`beam:W`) or an
//! explore/exploit portfolio of randomized-priority candidates
//! (`portfolio:N[:E]`, seeded deterministically per (loop, candidate), so
//! sweeps stay byte-reproducible for any `--threads`); `figP` runs the
//! portfolio against the plain heuristic at 2/4/8 clusters with
//! verification forced on and reports how many loops recover II.
//! `--contention` additionally records the *achieved* II that every
//! verified program reaches under the interconnect timing model
//! (`dms_sim::contention`, timed in the verify's own execution) — the rate the machine sustains once
//! cross-cluster transfers serialise on real links — in the measurement
//! CSV's `achieved_ii` column; `figC` sweeps that replay across all four
//! interconnects at 2/4/8 clusters (a `--topology` comma list narrows the
//! set, e.g. `--topology bus,crossbar`) and asks whether figure T's
//! "bus ≈ crossbar" verdict survives contention-accurate timing.
//! `--metrics-json PATH` dumps the run's `dms-telemetry` registry —
//! cache counters, per-request latency histogram, phase timers and the
//! scheduler core's event counts — as JSON; collection is
//! observation-only, so the flag never changes a measurement (a workspace
//! test pins the CSVs byte-identical with it on and off).

use dms_experiments::ablation::{chain_policy_ablation, copy_unit_ablation, sweep_baseline};
use dms_experiments::report::{self, Figure, FIG4, FIG5, FIG6, FIGC, FIGP, FIGT};
use dms_experiments::{
    figure4, figure5, figure6, figure_c, figure_p, figure_t, measure_loops_with_stats_on,
    sweep_topologies, ExperimentConfig, LoopMeasurement, ScheduleService, SweepStats,
    TopologySweep, FIGC_CLUSTERS, FIGC_TOPOLOGIES,
};
use dms_machine::TopologyKind;
use dms_sched::SchedulerStrategy;
use dms_telemetry::Registry;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Fig4,
    Fig5,
    Fig6,
    FigT,
    FigP,
    FigC,
    Ablation,
    All,
    Serve,
    Client,
}

#[derive(Debug)]
struct Cli {
    command: Command,
    config: ExperimentConfig,
    csv_dir: Option<String>,
    /// Dump the run's metrics registry (counters, timers, histograms,
    /// scheduler event counts) as JSON to this path, and install the
    /// registry as the process-wide telemetry sink so the scheduler core's
    /// events are captured too.
    metrics_json: Option<String>,
    /// Interconnects the figT/figC sweep covers (ignored by every other
    /// command, which uses `config.topology`).
    grid_topologies: Vec<TopologyKind>,
    /// The address `serve` binds and `client` connects to.
    addr: String,
    /// Whether `client` asks the server to shut down when it is done.
    shutdown: bool,
}

const USAGE: &str = "usage: dms-experiments [fig4|fig5|fig6|figT|figP|figC|ablation|all] [--loops N] [--clusters A,B,C] [--seed S] [--csv DIR] [--threads T] [--verify] [--contention] [--cqrf-capacity N] [--topology ring|chordal[:K]|bus|crossbar] [--strategy dms|beam:W|portfolio:N[:E]] [--metrics-json PATH]\n       dms-experiments serve [--addr HOST:PORT]\n       dms-experiments client [--addr HOST:PORT] [--loops N] [--clusters A,B,C] [--seed S] [--shutdown]";

/// Whether `flag` applies to `command`: `serve` takes only `--addr`,
/// `client` the flags of its reduced sweep, and the figure commands every
/// flag but `--addr` and `--shutdown`. `ablation` prints two tables and
/// neither writes a CSV nor reports contention timing, so it also refuses
/// `--csv` and `--contention`.
fn applies(command: Command, flag: &str) -> bool {
    match command {
        Command::Serve => flag == "--addr",
        Command::Client => {
            matches!(flag, "--addr" | "--loops" | "--clusters" | "--seed" | "--shutdown")
        }
        Command::Ablation => !matches!(flag, "--addr" | "--shutdown" | "--csv" | "--contention"),
        _ => !matches!(flag, "--addr" | "--shutdown"),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut command = Command::All;
    let mut keyword = "all".to_string();
    let mut config = ExperimentConfig::paper();
    let mut csv_dir = None;
    let mut metrics_json = None;
    let mut addr = "127.0.0.1:47117".to_string();
    let mut shutdown = false;
    let mut flags: Vec<String> = Vec::new();
    let mut topology_arg: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            flags.push(arg.clone());
        }
        let keyword_command = match arg.as_str() {
            "fig4" => Some(Command::Fig4),
            "fig5" => Some(Command::Fig5),
            "fig6" => Some(Command::Fig6),
            "figT" | "figt" => Some(Command::FigT),
            "figP" | "figp" => Some(Command::FigP),
            "figC" | "figc" => Some(Command::FigC),
            "ablation" => Some(Command::Ablation),
            "all" => Some(Command::All),
            "serve" => Some(Command::Serve),
            "client" => Some(Command::Client),
            _ => None,
        };
        if let Some(c) = keyword_command {
            (command, keyword) = (c, arg);
            continue;
        }
        match arg.as_str() {
            "--loops" => config.suite.num_loops = flag_value("--loops", args.next())?,
            "--seed" => config.suite.seed = flag_value("--seed", args.next())?,
            "--threads" => config.threads = flag_value("--threads", args.next())?,
            "--clusters" => {
                config.cluster_counts =
                    parse_clusters(&args.next().ok_or("--clusters needs a value")?)?;
            }
            // Resolved below: figC accepts a comma list, every other
            // command a single interconnect, and figT none at all — and the
            // command keyword may come later in the argv.
            "--topology" => topology_arg = Some(args.next().ok_or("--topology needs a value")?),
            "--strategy" => {
                let v = args.next().ok_or("--strategy needs a value")?;
                config.dms.strategy = SchedulerStrategy::parse(&v)?;
            }
            "--verify" => config.verify = true,
            "--contention" => config.contention = true,
            "--cqrf-capacity" => {
                config.cqrf_capacity = Some(flag_value("--cqrf-capacity", args.next())?);
            }
            "--csv" => csv_dir = Some(args.next().ok_or("--csv needs a directory")?),
            "--metrics-json" => {
                metrics_json = Some(args.next().ok_or("--metrics-json needs a path")?);
            }
            "--addr" => addr = args.next().ok_or("--addr needs a value")?,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(flag) = flags.iter().find(|f| !applies(command, f)) {
        return Err(format!("{flag} does not apply to {keyword}"));
    }
    let given = |flag: &str| flags.iter().any(|f| f == flag);
    // Figures T, C and P compare at the paper's 2/4/8-cluster points, and
    // the client smoke drives 4 loops at 2 and 4 clusters, unless the user
    // picked an explicit grid.
    if !given("--clusters") {
        match command {
            Command::FigT | Command::FigC | Command::FigP => {
                config.cluster_counts = FIGC_CLUSTERS.to_vec();
            }
            Command::Client => config.cluster_counts = vec![2, 4],
            _ => {}
        }
    }
    if command == Command::Client && !given("--loops") {
        config.suite.num_loops = 4;
    }
    // Figure T always sweeps all four topologies without contention
    // timing, so either flag would be silently ignored; a --topology comma
    // list narrows figure C's sweep. Other commands take one topology.
    if command == Command::FigT && topology_arg.is_some() {
        return Err("figT sweeps every topology; --topology does not apply".to_string());
    }
    if command == Command::FigT && config.contention {
        return Err("figT reports the scheduled II; figC times contention".to_string());
    }
    let mut grid_topologies = FIGC_TOPOLOGIES.to_vec();
    if let Some(v) = &topology_arg {
        if command == Command::FigC {
            grid_topologies = parse_topologies(v)?;
        } else if v.contains(',') {
            return Err("a comma-separated --topology list only applies to figC".to_string());
        } else {
            config.topology = TopologyKind::parse(v)?;
        }
    }
    // Figure P verifies every winner and, unless told otherwise, runs the
    // default portfolio against its embedded plain-DMS baseline.
    if command == Command::FigP {
        config.verify = true;
        if config.dms.strategy == SchedulerStrategy::Dms {
            config.dms.strategy = SchedulerStrategy::Portfolio {
                n_candidates: dms_sched::DEFAULT_PORTFOLIO_CANDIDATES,
                exploit_percent: dms_sched::DEFAULT_EXPLOIT_PERCENT,
            };
        }
    }
    Ok(Cli { command, config, csv_dir, metrics_json, grid_topologies, addr, shutdown })
}

/// Parses the value that follows `flag` on the command line.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v}"))
}

/// Parses a `--clusters` comma list. Every entry must be a cluster count
/// of at least 1 (a machine has at least one cluster), so an empty list or
/// a 0 is rejected here instead of reaching the machine builder. A count
/// may appear once: the figures aggregate every row of a count, so a
/// repeat would measure each loop twice.
fn parse_clusters(v: &str) -> Result<Vec<u32>, String> {
    let mut counts = Vec::new();
    for x in v.split(',') {
        let c = x.trim().parse::<u32>().ok().filter(|&c| c > 0).ok_or_else(|| {
            format!("bad --clusters value {x:?}: cluster counts are integers of at least 1")
        })?;
        if counts.contains(&c) {
            return Err(format!("--clusters value {c} appears twice"));
        }
        counts.push(c);
    }
    Ok(counts)
}

/// Parses figure C's `--topology` comma list. An interconnect may appear
/// once, like a `--clusters` count: a repeat would sweep it twice and print
/// its rows twice. Two labels of one kind (`chordal,chordal:2`) repeat it.
fn parse_topologies(v: &str) -> Result<Vec<TopologyKind>, String> {
    let mut kinds = Vec::new();
    for t in v.split(',') {
        let kind = TopologyKind::parse(t.trim())?;
        if kinds.contains(&kind) {
            return Err(format!("--topology value {kind} appears twice"));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

/// The one-line summary of a verified sweep (figP, figT, figC).
fn verified_sweep_summary(s: &SweepStats) -> String {
    format!(
        "swept {} tasks on {} thread(s) in {:.2} s — {} store values verified, \
         {} pressure retries, {} failed",
        s.tasks, s.threads, s.wall_seconds, s.stores_verified, s.pressure_retries, s.failed
    )
}

fn write_csv(dir: &str, name: &str, contents: &str) {
    let path = std::path::Path::new(dir).join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, contents)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Prints `figure`'s table of `rows` and, with `--csv DIR`, writes its CSV
/// to `DIR/figure{id}.csv` and the `measurements` it aggregates, if given,
/// to `DIR/measurements{id}.csv`.
fn publish<R>(
    cli: &Cli,
    figure: &Figure<R>,
    rows: &[R],
    id: &str,
    measurements: Option<&[LoopMeasurement]>,
) {
    println!("{}", figure.table(rows));
    if let Some(dir) = &cli.csv_dir {
        write_csv(dir, &format!("figure{id}.csv"), &figure.csv(rows));
        if let Some(m) = measurements {
            write_csv(dir, &format!("measurements{id}.csv"), &report::measurements_csv(m));
        }
    }
}

/// Fails the run if any task of a verified sweep failed: a failed task is
/// a compiler bug.
fn gate_verified(failed: usize) -> ExitCode {
    if failed > 0 {
        eprintln!("error: {failed} task(s) failed end-to-end verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The client smoke loop: replays a reduced sweep against a freshly started
/// server, one DMS request per (loop, cluster-count) cell, and checks that
/// every served line equals, byte for byte, the line a local service
/// answers the same request with.
fn drive_service(cli: &Cli) -> Result<(), String> {
    use dms_service::net::{answer_schedule, Client};
    use dms_service::wire::{self, WireMachine, WireRequest, WireSchedule};

    let (addr, config) = (&cli.addr, &cli.config);
    let local = ScheduleService::default();
    let mut client = Client::connect_with_retry(addr)
        .map_err(|e| format!("could not connect to {addr}: {e}"))?;
    let io = |e: std::io::Error| format!("connection to {addr} failed: {e}");

    let mut matched = 0usize;
    let mut total = 0usize;
    let mut last_request = None;
    for suite_loop in &dms_workloads::generate(&config.suite) {
        for &c in &config.cluster_counts {
            // Unroll exactly as the sweep executor does.
            let useful_fus = dms_machine::MachineConfig::paper_clustered(c).total_useful_fus();
            let body =
                dms_workloads::unroll_for_machine(&suite_loop.body, useful_fus, &config.unroll);
            let request = wire::encode_schedule_request(&WireSchedule {
                body,
                machine: WireMachine {
                    unclustered: false,
                    clusters: c,
                    copy_units: 1,
                    cqrf_capacity: None,
                    topology: TopologyKind::Ring,
                },
                scheduler: dms_service::SchedulerKind::Dms,
                dms: dms_core::DmsConfig::default(),
                verify_trips: None,
                contention: false,
            });
            let line = client.roundtrip(&request).map_err(io)?;
            if !wire::decode_reply(&line)?.ok {
                return Err(format!("server rejected the request: {line}"));
            }
            let Ok(WireRequest::Schedule(ws)) = wire::decode_request(&request) else {
                return Err("the client's own request does not decode".to_string());
            };
            let expected = answer_schedule(&local, &ws);
            total += 1;
            if line == expected {
                matched += 1;
            } else {
                eprintln!(
                    "mismatch on loop {} at {c} clusters: served {line} vs local {expected}",
                    suite_loop.id
                );
            }
            last_request = Some(request);
        }
    }
    println!("{matched}/{total} responses match the local service byte for byte");
    if matched != total {
        return Err(format!("{} response(s) diverged from the local service", total - matched));
    }

    if let Some(request) = last_request {
        let resp = wire::decode_reply(&client.roundtrip(&request).map_err(io)?)?;
        if resp.cache_hit != Some(true) {
            return Err("repeat request missed the schedule cache".to_string());
        }
        println!("repeat request answered from cache");
    }

    // Scrape the server's metrics registry and print the exposition: the
    // CI smoke job greps this for a nonzero cache-hit counter and a
    // populated request-latency histogram.
    let scrape =
        wire::decode_reply(&client.roundtrip(&wire::encode_metrics_request()).map_err(io)?)?;
    let exposition = scrape.metrics.ok_or("metrics response carries no exposition text")?;
    println!("server metrics after the sweep:");
    print!("{exposition}");

    if cli.shutdown {
        client.roundtrip(&wire::encode_shutdown_request()).map_err(io)?;
        println!("server asked to shut down");
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // One registry for the whole run: the sweep's services publish their
    // cache counters and request latencies into it, the phase timers land
    // in it, and — when `--metrics-json` asks for the dump, or when serving
    // `{"op":"metrics"}` scrapes — it is also installed process-wide so the
    // scheduler core's events are counted. Collection is observation-only,
    // so installing it cannot change a single scheduled cycle (a workspace
    // test pins the CSVs byte-identical either way).
    let registry = Arc::new(Registry::new());
    if cli.metrics_json.is_some() || cli.command == Command::Serve {
        dms_telemetry::install(Arc::clone(&registry));
    }
    let code = match cli.command {
        Command::Serve => {
            let service = Arc::new(ScheduleService::with_registry(Arc::clone(&registry)));
            match dms_service::net::serve(cli.addr.as_str(), service) {
                Ok(()) => {
                    println!("dms-service shut down cleanly");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: could not serve on {}: {e}", cli.addr);
                    ExitCode::FAILURE
                }
            }
        }
        Command::Client => match drive_service(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        _ => run(&cli, &registry),
    };
    if let Some(path) = &cli.metrics_json {
        match std::fs::write(path, registry.render_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Runs a figure command. Every sweep publishes into `registry`.
fn run(cli: &Cli, registry: &Arc<Registry>) -> ExitCode {
    let run_timer = registry.timer("dms_run_wall_nanoseconds_total");
    println!(
        "DMS reproduction — {} loops, clusters {:?}, seed {}, topology {}, strategy {}",
        cli.config.suite.num_loops,
        cli.config.cluster_counts,
        cli.config.suite.seed,
        cli.config.topology,
        cli.config.dms.strategy
    );

    if matches!(cli.command, Command::FigT | Command::FigC) {
        let contention = cli.command == Command::FigC;
        let sweeps = sweep_topologies(&cli.config, &cli.grid_topologies, contention, registry);
        for TopologySweep { topology, stats: s, .. } in &sweeps {
            println!("{topology}: {}", verified_sweep_summary(s));
        }
        println!();
        let raw: Vec<LoopMeasurement> =
            sweeps.iter().flat_map(|s| s.measurements.iter().copied()).collect();
        if contention {
            publish(cli, &FIGC, &figure_c(&sweeps, &cli.config.cluster_counts), "C", Some(&raw));
        } else {
            publish(cli, &FIGT, &figure_t(&sweeps, &cli.config.cluster_counts), "T", None);
        }
        // The replay only adds stalls, so an achieved II below the
        // scheduled II is a timing-model bug: gate on it here so the
        // nightly paper-scale run fails loudly.
        let failed = sweeps.iter().map(|s| s.stats.failed).sum();
        let impossible = raw.iter().filter(|m| m.achieved_ii < m.clustered_ii).count();
        if failed == 0 && contention && impossible > 0 {
            eprintln!("error: {impossible} replay(s) undercut the scheduled II");
            return ExitCode::FAILURE;
        }
        return gate_verified(failed);
    }

    if cli.command == Command::Ablation {
        let mut cfg = cli.config.clone();
        // the ablations only matter on the wide configurations
        cfg.cluster_counts = cfg.cluster_counts.iter().copied().filter(|&c| c >= 6).collect();
        if cfg.cluster_counts.is_empty() {
            cfg.cluster_counts = vec![6, 8, 10];
        }
        let service = ScheduleService::with_registry(Arc::clone(registry));
        let baseline = sweep_baseline(&cfg, service);
        let (copy, copy_stats) = copy_unit_ablation(&baseline, 2);
        println!("\n{}", report::render_ablation(&copy));
        let (chain, chain_stats) = chain_policy_ablation(&baseline);
        println!("\n{}", report::render_ablation(&chain));
        let failed = baseline.stats.failed + copy_stats.failed + chain_stats.failed;
        if failed > 0 {
            eprintln!("error: {failed} task(s) of the ablation sweeps failed");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let scheduling_timer = registry.timer("dms_phase_scheduling_nanoseconds_total");
    let service = ScheduleService::with_registry(Arc::clone(registry));
    let suite = dms_workloads::generate(&cli.config.suite);
    let (measurements, stats) = measure_loops_with_stats_on(&suite, &cli.config, &service);
    let scheduling = scheduling_timer.stop();

    if cli.command == Command::FigP {
        let rows = figure_p(&measurements, &cli.config);
        println!("{}", verified_sweep_summary(&stats));
        let recovered: usize = rows.iter().map(|r| r.recovered).sum();
        let loops: usize = rows.iter().map(|r| r.loops).sum();
        println!("portfolio recovered II on {recovered} of {loops} (loop, cluster-count) tasks");
        println!();
        publish(cli, &FIGP, &rows, "P", Some(&measurements));
        return gate_verified(stats.failed);
    }

    let reporting_timer = registry.timer("dms_phase_reporting_nanoseconds_total");
    println!(
        "swept {} (loop, machine) tasks twice (IMS + DMS) on {} thread{} in {:.2} s \
         — {:.0} schedules/s, {:.1}M useful op instances covered",
        stats.tasks,
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
        stats.wall_seconds,
        stats.schedules_per_second(),
        stats.useful_instances as f64 / 1e6,
    );
    println!(
        "cache: {} of {} scheduler requests answered from the schedule cache",
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    if stats.pressure_retries > 0 {
        println!(
            "pressure: {} schedule(s) exceeded a queue-file capacity and were retried at a \
             higher II",
            stats.pressure_retries,
        );
    }
    if cli.config.verify {
        println!(
            "verify: executed every schedule through regalloc + codegen on the simulator, \
             {} store values cross-checked against the scalar reference \
             (peak CQRF occupancy {})",
            stats.stores_verified, stats.peak_queue_depth,
        );
    }
    if stats.failed > 0 {
        eprintln!(
            "warning: {} tasks skipped because a scheduler{} failed",
            stats.failed,
            if cli.config.verify { " or its end-to-end verification" } else { "" },
        );
    }
    println!();
    if let Some(dir) = &cli.csv_dir {
        write_csv(dir, "measurements.csv", &report::measurements_csv(&measurements));
    }
    let all = cli.command == Command::All;
    if all || cli.command == Command::Fig4 {
        publish(cli, &FIG4, &figure4(&measurements), "4", None);
    }
    if all || cli.command == Command::Fig5 {
        publish(cli, &FIG5, &figure5(&measurements), "5", None);
    }
    if all || cli.command == Command::Fig6 {
        publish(cli, &FIG6, &figure6(&measurements), "6", None);
    }
    // The three phases are scoped telemetry timers off one clock: the run
    // timer spans both, so scheduling + reporting + overhead == total by
    // construction (overhead is argument parsing, suite setup and teardown
    // outside the two phase scopes).
    let reporting = reporting_timer.stop();
    let total = run_timer.stop();
    let overhead = total.saturating_sub(scheduling).saturating_sub(reporting);
    println!(
        "wall time: {:.2} s scheduling, {:.2} s reporting, {:.2} s overhead (total {:.2} s)",
        scheduling.as_secs_f64(),
        reporting.as_secs_f64(),
        overhead.as_secs_f64(),
        total.as_secs_f64(),
    );
    // In verify mode a failed task is a compiler bug (a schedule that could
    // not be allocated, executed, or whose stores diverged from the scalar
    // reference): fail the run so scheduled CI sweeps gate on it.
    if cli.config.verify {
        return gate_verified(stats.failed);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn cluster_lists_reject_zero_and_empty_entries() {
        assert_eq!(parse_clusters("1,2, 8"), Ok(vec![1, 2, 8]));
        for bad in ["0", "2,0,4", "", "2,", "two"] {
            let err = parse_clusters(bad).unwrap_err();
            assert!(err.contains("--clusters"), "{bad:?}: {err}");
        }
        // A repeated count would measure every loop twice.
        for bad in ["4,4", "2,4, 4", "1,2,1"] {
            let repeated = bad.rsplit(',').next().unwrap().trim();
            let err = parse_clusters(bad).unwrap_err();
            assert_eq!(err, format!("--clusters value {repeated} appears twice"), "{bad:?}");
        }
        for line in ["fig4 --loops 3 --clusters 4,4", "client --clusters 2,4,2"] {
            assert!(parse(line).unwrap_err().contains("appears twice"), "{line}");
        }
    }

    #[test]
    fn a_flag_outside_its_command_is_an_error() {
        for line in [
            "serve --loops 3",
            "client --verify",
            "fig4 --addr x",
            "fig4 --shutdown",
            "figT --topology bus",
            "figT --contention",
        ] {
            assert!(parse(line).is_err(), "{line} must be rejected");
        }
        assert!(parse("figT --contention").unwrap_err().contains("figC"));
        assert!(parse("fig4 --bogus").unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn ablation_refuses_the_flags_it_would_ignore() {
        for line in ["ablation --loops 2 --csv out", "ablation --loops 2 --contention"] {
            let flag = line.split_whitespace().nth(3).unwrap();
            assert_eq!(parse(line).err(), Some(format!("{flag} does not apply to ablation")));
        }
        let cli = parse("ablation --loops 2 --verify --metrics-json m.json").unwrap();
        assert_eq!(cli.command, Command::Ablation);
        assert!(cli.config.verify);
        // The other figure commands keep both flags.
        assert!(parse("fig4 --loops 2 --csv out --contention").is_ok());
        assert!(parse("all --loops 2 --csv out --contention").is_ok());
    }

    #[test]
    fn client_defaults_to_4_loops_at_2_and_4_clusters() {
        let cli = parse("client --shutdown").unwrap();
        assert_eq!(cli.command, Command::Client);
        assert_eq!(cli.config.suite.num_loops, 4);
        assert_eq!(cli.config.cluster_counts, [2, 4]);
        assert_eq!(cli.addr, "127.0.0.1:47117");
        assert!(cli.shutdown);
        let cli = parse("client --loops 48 --clusters 1,3 --addr 127.0.0.1:9").unwrap();
        assert_eq!(cli.config.suite.num_loops, 48);
        assert_eq!(cli.config.cluster_counts, [1, 3]);
        assert_eq!(cli.addr, "127.0.0.1:9");
    }

    #[test]
    fn fig_p_defaults_to_a_verified_portfolio_at_2_4_and_8_clusters() {
        let cli = parse("figP --loops 3").unwrap();
        assert_eq!(cli.config.dms.strategy.to_string(), "portfolio:8:50");
        assert_eq!(cli.config.cluster_counts, FIGC_CLUSTERS);
        assert!(cli.config.verify);
    }

    #[test]
    fn fig_p_keeps_an_explicit_beam_strategy() {
        let cli = parse("figP --strategy beam:2").unwrap();
        assert_eq!(cli.config.dms.strategy, SchedulerStrategy::Beam { width: 2 });
        assert!(cli.config.verify);
    }

    #[test]
    fn a_fig_c_topology_list_narrows_the_sweep() {
        let cli = parse("figC --topology bus,crossbar").unwrap();
        assert_eq!(cli.grid_topologies, [TopologyKind::Bus, TopologyKind::Crossbar]);
        assert_eq!(cli.config.cluster_counts, FIGC_CLUSTERS);
        assert_eq!(parse("figT").unwrap().grid_topologies, FIGC_TOPOLOGIES);
        assert!(parse("fig4 --topology bus,crossbar").is_err());
        // A repeated interconnect would be swept twice; two labels of one
        // kind repeat it too.
        for (line, repeated) in [
            ("figC --loops 2 --clusters 2 --topology bus,bus", "bus"),
            ("figC --topology chordal,chordal:2", "chordal:2"),
            ("figC --topology ring,crossbar,ring", "ring"),
        ] {
            assert_eq!(
                parse(line).err(),
                Some(format!("--topology value {repeated} appears twice")),
                "{line}"
            );
        }
    }
}
