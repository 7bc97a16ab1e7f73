//! The served workload: one client connection in a closed loop over
//! loopback TCP to an in-process `dms_service::net::serve`.
//!
//! Each pass plays one request stream against a fresh (cold) server. The
//! stream covers a fixed universe of paper-suite cells, each requested at
//! least once (its first sight is a miss that fills the cache), topped up
//! with draws of Zipf-like frequency, so most requests are cache hits. The
//! seed ranks the cells for the draws and orders the stream; it never
//! changes the set of cells, so every seed does the same scheduling work.
//! Every reply is checked byte for byte against the answer of an in-process
//! service fed the same request.

use crate::pipeline::{Pipeline, LAYER_SPANS};
use crate::trace::{median, micros, peak_rss_mb, quantile, Ledger, Tracer};
use crate::{layer_metrics, Options, Outcome, SETUP_REPS};
use dms_core::{DmsConfig, SchedulerStrategy};
use dms_machine::{MachineConfig, TopologyKind};
use dms_sched::DEFAULT_EXPLOIT_PERCENT;
use dms_service::net::serve;
use dms_service::wire::{self, WireMachine, WireRequest, WireSchedule};
use dms_service::{ScheduleRequest, ScheduleService, SchedulerKind};
use dms_telemetry::Registry;
use dms_workloads::{generate, unroll_for_machine, SuiteConfig, SuiteLoop, UnrollPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct cells of the paper grid the stream covers.
const UNIVERSE: usize = 400;
/// Requests per pass, as a multiple of the universe: one miss per cell,
/// the rest hits.
const REQUESTS_PER_CELL: usize = 6;
/// Exponent of the Zipf-like draw frequencies.
const ZIPF_EXPONENT: f64 = 0.6;
/// Request-size strata of the cell ranking.
const STRATA: usize = 20;

/// The request mix: mostly plain DMS on the ring, plus IMS on the
/// unclustered machine, verified DMS, verified DMS replayed under contention
/// on a chordal ring and on a bus, and a 4-candidate portfolio search.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Dms,
    Ims,
    Verified,
    ChordalContention,
    BusContention,
    Portfolio,
}

/// Kind of cell `i` is `MIX[i % 20]`: 11 DMS, 2 IMS, 2 verified,
/// 1 chordal:2 + 1 bus verify+contention, 3 portfolio:4.
const MIX: [Kind; 20] = {
    use Kind::*;
    [
        Dms,
        Dms,
        Verified,
        Dms,
        Portfolio,
        Dms,
        Ims,
        Dms,
        ChordalContention,
        Dms,
        Portfolio,
        Dms,
        Verified,
        Dms,
        Ims,
        Dms,
        BusContention,
        Dms,
        Portfolio,
        Dms,
    ]
};

#[derive(Debug, Clone, Copy)]
struct Cell {
    loop_id: usize,
    clusters: u32,
    kind: Kind,
}

/// The fixed cell universe: loops spread evenly over the suite, cluster
/// counts cycling through 1–10, kinds following [`MIX`].
fn universe(num_loops: usize) -> Vec<Cell> {
    let cells = UNIVERSE.min(10 * num_loops);
    (0..cells)
        .map(|i| Cell {
            loop_id: i * num_loops / cells,
            clusters: 1 + (i * 3 % 10) as u32,
            kind: MIX[i % MIX.len()],
        })
        .collect()
}

/// The seeded stream of cell indices: every cell once, plus Zipf-like
/// draws over a seeded ranking of the cells, shuffled.
///
/// The ranking is stratified by request size: each block of [`STRATA`]
/// consecutive ranks holds one cell of every size stratum. A hit costs
/// about its request's decode, so the hot cells of every seed then cost
/// about the same.
fn stream(line_lens: &[usize], seed: u64) -> Vec<usize> {
    let cells = line_lens.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_size: Vec<usize> = (0..cells).collect();
    by_size.sort_by_key(|&c| (line_lens[c], c));
    let mut strata: Vec<Vec<usize>> =
        by_size.chunks(cells.div_ceil(STRATA)).map(<[usize]>::to_vec).collect();
    for stratum in &mut strata {
        shuffle(stratum, &mut rng);
    }
    let mut ranked = Vec::with_capacity(cells);
    for depth in 0..strata.iter().map(Vec::len).max().unwrap_or(0) {
        let mut block: Vec<usize> = strata.iter().filter_map(|s| s.get(depth).copied()).collect();
        shuffle(&mut block, &mut rng);
        ranked.extend(block);
    }

    let mut cumulative = Vec::with_capacity(cells);
    let mut total = 0.0;
    for rank in 0..cells {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        cumulative.push(total);
    }
    let mut out: Vec<usize> = (0..cells).collect();
    for _ in cells..cells * REQUESTS_PER_CELL {
        let u = rng.gen_range(0.0..total);
        let rank = cumulative.partition_point(|&c| c <= u).min(cells - 1);
        out.push(ranked[rank]);
    }
    shuffle(&mut out, &mut rng);
    out
}

fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn wire_schedule(cell: &Cell, suite: &[SuiteLoop]) -> WireSchedule {
    let body = &suite[cell.loop_id].body;
    let useful_fus = MachineConfig::paper_clustered(cell.clusters).total_useful_fus();
    let topology = match cell.kind {
        Kind::ChordalContention => TopologyKind::ChordalRing { chord: 2 },
        Kind::BusContention => TopologyKind::Bus,
        _ => TopologyKind::Ring,
    };
    let strategy = match cell.kind {
        Kind::Portfolio => SchedulerStrategy::Portfolio {
            n_candidates: 4,
            exploit_percent: DEFAULT_EXPLOIT_PERCENT,
        },
        _ => SchedulerStrategy::Dms,
    };
    let verified =
        matches!(cell.kind, Kind::Verified | Kind::ChordalContention | Kind::BusContention);
    WireSchedule {
        body: unroll_for_machine(body, useful_fus, &UnrollPolicy::default()),
        machine: WireMachine {
            unclustered: cell.kind == Kind::Ims,
            clusters: cell.clusters,
            copy_units: 1,
            cqrf_capacity: None,
            topology,
        },
        scheduler: if cell.kind == Kind::Ims { SchedulerKind::Ims } else { SchedulerKind::Dms },
        dms: DmsConfig { strategy, ..DmsConfig::default() },
        verify_trips: verified
            .then(|| body.trip_count.min(dms_experiments::runner::VERIFY_TRIP_CAP)),
        contention: matches!(cell.kind, Kind::ChordalContention | Kind::BusContention),
    }
}

fn request_lines(cells: &[Cell], num_loops: usize) -> Vec<String> {
    let suite = generate(&SuiteConfig::small(num_loops));
    cells.iter().map(|c| wire::encode_schedule_request(&wire_schedule(c, &suite))).collect()
}

/// The benchmark's connection: one request line per write, `TCP_NODELAY`,
/// and an immediate ACK of every reply segment.
///
/// `net::Client::roundtrip` and the server's handler both write a line and
/// its newline in two writes. On Linux loopback that meets Nagle's
/// algorithm and delayed ACKs at both ends and every round trip takes about
/// 84 ms of timer waits; a single-write `TCP_NODELAY` client still waits
/// about 42 ms for the server's trailing newline. Acknowledging promptly
/// leaves the service's own work, plus the extra segment, as the round
/// trip.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream, line: Vec::new() })
    }

    /// Sends one request line and reads one reply line.
    fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        quick_ack(&self.writer);
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// Asks the kernel to acknowledge the next received segments at once
/// instead of delaying the ACK.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `value` points to a live `i32` and `len` is its size. A failure only
    // leaves delayed ACKs on, so the return value is not needed.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) {}

/// A running in-process server and the benchmark's one connection to it.
struct Server {
    conn: Conn,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Binds, serves and connects. `serve` binds its own listener after the
    /// port is chosen here, so the connection is retried every 200 µs until
    /// the listener is up (and for at most 10 s).
    fn start() -> Result<Server, String> {
        let io = |e: std::io::Error| format!("server bring-up failed: {e}");
        let addr: SocketAddr =
            TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).map_err(io)?;
        let service = Arc::new(ScheduleService::default());
        let handle = std::thread::spawn(move || serve(addr, service));
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) if handle.is_finished() || Instant::now() > deadline => return Err(io(e)),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        Ok(Server { conn: Conn::new(stream).map_err(io)?, handle })
    }

    fn stop(mut self) -> Result<(), String> {
        self.conn
            .roundtrip(&wire::encode_shutdown_request())
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        match self.handle.join() {
            Ok(result) => result.map_err(|e| format!("serve failed: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

/// Set-up of one pass: suite generation, request encoding, and the server
/// with its own cold service, timed.
fn set_up(cells: &[Cell], num_loops: usize) -> Result<(Vec<String>, Server, f64), String> {
    let t = Instant::now();
    let lines = request_lines(cells, num_loops);
    let server = Server::start()?;
    Ok((lines, server, t.elapsed().as_secs_f64()))
}

/// The replies an in-process service gives each cell's request, on a miss
/// and on a hit.
fn expected_replies(cells: &[Cell], num_loops: usize) -> Vec<[String; 2]> {
    let suite = generate(&SuiteConfig::small(num_loops));
    let service = ScheduleService::default();
    cells
        .iter()
        .map(|cell| {
            let ws = wire_schedule(cell, &suite);
            let machine = ws.machine.build();
            let answer = service.schedule(&ScheduleRequest {
                body: &ws.body,
                machine: &machine,
                dms: ws.dms,
                scheduler: ws.scheduler,
                verify_trips: ws.verify_trips,
                contention: ws.contention,
            });
            let as_hit = answer.clone().map(|mut r| {
                r.cache_hit = true;
                r
            });
            let as_miss = answer.map(|mut r| {
                r.cache_hit = false;
                r
            });
            [wire::encode_response(&as_miss), wire::encode_response(&as_hit)]
        })
        .collect()
}

struct Pass {
    wall_s: f64,
    /// Every round trip in µs, and whether the cell had been requested
    /// before in this pass (a cache hit).
    rtts: Vec<(f64, bool)>,
    failed: u64,
}

fn play(
    server: &mut Server,
    lines: &[String],
    stream: &[usize],
    expected: &[[String; 2]],
) -> Result<Pass, String> {
    let mut seen = vec![false; lines.len()];
    let mut rtts = Vec::with_capacity(stream.len());
    let mut failed = 0;
    let started = Instant::now();
    for &cell in stream {
        let t = Instant::now();
        let reply = server.conn.roundtrip(&lines[cell]).map_err(|e| format!("round trip: {e}"))?;
        let rtt = micros(t.elapsed());
        let hit = std::mem::replace(&mut seen[cell], true);
        if reply != expected[cell][usize::from(hit)] {
            eprintln!("reply to cell {cell} (hit: {hit}) differs from the in-process answer");
            failed += 1;
        }
        rtts.push((rtt, hit));
    }
    Ok(Pass { wall_s: started.elapsed().as_secs_f64(), rtts, failed })
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cells = universe(opts.loops);
    let lens: Vec<usize> = request_lines(&cells, opts.loops).iter().map(String::len).collect();
    let stream = stream(&lens, opts.seed);
    let expected = expected_replies(&cells, opts.loops);

    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let (lines, mut server, secs) = set_up(&cells, opts.loops)?;
        setup_s.push(secs);
        let pass = play(&mut server, &lines, &stream, &expected);
        server.stop()?;
        passes.push(pass?);
    }
    while setup_s.len() < SETUP_REPS {
        let (_, server, secs) = set_up(&cells, opts.loops)?;
        setup_s.push(secs);
        server.stop()?;
    }

    let mut out = Outcome::default();
    for pass in &passes {
        out.attempted += pass.rtts.len() as u64;
        out.failed += pass.failed;
    }
    let rtts = |hit: Option<bool>| -> Vec<f64> {
        let all = passes.iter().flat_map(|p| &p.rtts);
        all.filter(|r| hit.is_none_or(|h| r.1 == h)).map(|r| r.0).collect()
    };
    let (all, hits, misses) = (rtts(None), rtts(Some(true)), rtts(Some(false)));
    let wall_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.e2e.insert(
        "req_per_s",
        median(&passes.iter().map(|p| p.rtts.len() as f64 / p.wall_s).collect::<Vec<_>>()),
    );
    out.e2e.insert("op_p50_us", quantile(&all, 0.5));
    out.e2e.insert("op_p99_us", quantile(&all, 0.99));
    println!(
        "{} passes of {} requests over {} cells: hit_p50_us {:.1}, miss_p50_us {:.1}, hit share {:.3}",
        passes.len(),
        stream.len(),
        cells.len(),
        median(&hits),
        median(&misses),
        hits.len() as f64 / all.len().max(1) as f64
    );

    if opts.trace {
        out.set_layer("service.hit_rtt_p50_us", median(&hits));
        out.set_layer("service.miss_rtt_p50_us", median(&misses));
        traced(opts, &cells, &stream, wall_s, &mut out)?;
    }
    Ok(out)
}

/// One more pass in which every request, after its round trip, is decoded,
/// answered and encoded again in process through the layered pipeline; the
/// round trip minus that in-process work is the transport cost.
fn traced(
    opts: &Options,
    cells: &[Cell],
    stream: &[usize],
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (lines, mut server, _) = set_up(cells, opts.loops)?;
    let registry = Arc::new(Registry::new());
    dms_telemetry::install(Arc::clone(&registry));
    let mut pipeline = Pipeline::new(registry);
    let mut tr = Tracer::new();
    let (mut request_bytes, mut response_bytes) = (0u64, 0u64);
    let (mut transport_us, mut in_process_us) = (0.0, 0.0);

    let started = Instant::now();
    for (id, &cell) in stream.iter().enumerate() {
        let id = id as u64;
        let line = &lines[cell];
        tr.open("request", id);
        let t = Instant::now();
        let reply = server.conn.roundtrip(line).map_err(|e| format!("round trip: {e}"))?;
        let sent = Instant::now();
        tr.record("service.roundtrip", id, t, sent);
        let probes_before = pipeline.probe_us();
        let decoded = tr.span("service.decode", id, || wire::decode_request(line));
        let answer = match decoded {
            Ok(WireRequest::Schedule(ws)) => {
                let machine = ws.machine.build();
                let req = ScheduleRequest {
                    body: &ws.body,
                    machine: &machine,
                    dms: ws.dms,
                    scheduler: ws.scheduler,
                    verify_trips: ws.verify_trips,
                    contention: ws.contention,
                };
                let answer = pipeline.answer(&req, &mut tr, id);
                tr.span("service.encode_resp", id, || wire::encode_response(&answer))
            }
            _ => String::new(),
        };
        let answered = Instant::now();
        tr.close();
        in_process_us += micros(answered - sent);
        let served = micros(answered - sent) - (pipeline.probe_us() - probes_before);
        transport_us += micros(sent - t) - served;
        request_bytes += line.len() as u64;
        response_bytes += reply.len() as u64;
        out.attempted += 1;
        if answer != reply {
            eprintln!("traced request {id}: the layered answer differs from the server's reply");
            out.failed += 1;
        }
    }
    let wall = started.elapsed();
    dms_telemetry::uninstall();
    server.stop()?;

    let spans = [&LAYER_SPANS[..], &WIRE_SPANS[..]].concat();
    let ledger = Ledger::close(&tr, wall, &["request"], &spans, &pipeline.probed_us)?;
    layer_metrics(&mut out.layers, &ledger, &pipeline, wall, untraced_wall_s, in_process_us);
    out.set_layer("service.transport_us", transport_us);
    out.set_layer("service.request_bytes", request_bytes as f64);
    out.set_layer("service.response_bytes", response_bytes as f64);
    crate::write_spans(&tr, opts)
}

/// Layer spans only the served path records.
const WIRE_SPANS: [&str; 3] = ["service.roundtrip", "service.decode", "service.encode_resp"];
