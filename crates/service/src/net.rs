//! TCP transport for the schedule service.
//!
//! [`serve`] binds a `std::net::TcpListener` and [`serve_on`] answers
//! newline-delimited JSON requests (see [`crate::wire`]) on an already bound
//! one, with one thread per connection — no async runtime, only the
//! standard library. A `{"op":"shutdown"}` request stops the accept loop;
//! the acceptor is unblocked by a self-connect so a plain blocking
//! `accept()` suffices.
//!
//! Every line, newline included, goes out in one write, on both sides: a
//! line split over two writes meets Nagle's algorithm and the peer's
//! delayed ACK, which stalls each round trip by tens of milliseconds.
//!
//! Handler threads poll their stream with a read timeout
//! (`READ_POLL_INTERVAL`, 50 ms) instead of blocking indefinitely:
//! `serve_on` joins every handler before returning, so a handler
//! parked forever in a blocking read on an *idle* connection would turn one
//! quiet client into a shutdown that never completes. On every timeout the
//! handler re-checks the shutdown flag and hangs up once it is set.
//!
//! Each handler times every line's decode into the service registry's
//! `dms_wire_decode_micros` histogram and every schedule reply's encode
//! into `dms_wire_encode_micros`, so a `{"op":"metrics"}` scrape splits a
//! request's time into wire and service (`dms_request_latency_micros`).
//! A schedule reply is encoded from the record the service answers with
//! ([`ScheduleService::answer`]) and the request's loop name.
//!
//! A panic while answering a schedule request is caught per request: the
//! line gets one `{"ok":false,"error":"internal error: ..."}` reply, the
//! registry's `dms_request_panics_total` counts it, and the connection
//! goes on serving.
//!
//! [`Client`] is the matching blocking connector used by the
//! `dms-experiments client` smoke driver and the CI service-smoke job.

use crate::service::{timed, Answer, ScheduleRequest, ScheduleService, ServiceError};
use crate::wire;
use dms_telemetry::Counter;
use std::any::Any;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// Binds `addr` and runs the service on it until a shutdown request
/// arrives (see [`serve_on`]).
///
/// # Errors
///
/// Returns the bind error if `addr` cannot be bound.
pub fn serve(addr: impl ToSocketAddrs, service: Arc<ScheduleService>) -> std::io::Result<()> {
    serve_on(TcpListener::bind(addr)?, service)
}

/// Runs the service on an already bound `listener` until a shutdown
/// request arrives. A caller that binds first (port 0 included) knows the
/// address before any client connects, so no client has to retry.
///
/// Prints one `dms-service listening on <addr>` line (the CI smoke job and
/// interactive users key off it), then accepts connections forever, one
/// handler thread each. Returns once a client sends `{"op":"shutdown"}` and
/// all handler threads have finished.
///
/// # Errors
///
/// Returns the error if the listener's local address cannot be read.
pub fn serve_on(listener: TcpListener, service: Arc<ScheduleService>) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    println!("dms-service listening on {local}");
    let shutdown = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut handlers = Vec::new();
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let (ended, open): (Vec<_>, Vec<_>) =
                handlers.into_iter().partition(ScopedJoinHandle::is_finished);
            join_all(ended);
            handlers = open;
            handlers
                .push(scope.spawn(move || handle_connection(stream, &service, &shutdown, local)));
        }
        join_all(handlers);
    });
    Ok(())
}

/// Joins handler threads, re-raising a handler's panic.
///
/// The scope alone only waits until each handler's closure has returned;
/// the thread may still be exiting and releasing its allocator arena when
/// `serve_on` returns, so which arena the next server's threads pick up,
/// and how much memory they touch, would depend on that race. Joining
/// waits for the exit itself. Joining ended handlers while serving keeps
/// the list, and the unjoined threads' stacks, bounded by the open
/// connections.
fn join_all(handlers: Vec<ScopedJoinHandle<'_, ()>>) {
    for handler in handlers {
        if let Err(panic) = handler.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// How often an idle handler thread wakes up to re-check the shutdown
/// flag. Shutdown latency is bounded by this; it only ever costs a flag
/// load per idle connection per interval.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Longest request line a handler buffers, newline included. The largest
/// paper-grid request (1258 loops × 1–10 clusters, unrolled, with every
/// optional field set) encodes to about 5.3 KB, so this admits requests
/// about 200 times larger; a longer line gets one error reply and the
/// connection closes.
const MAX_LINE_BYTES: usize = 1 << 20;

fn handle_connection(
    stream: TcpStream,
    service: &ScheduleService,
    shutdown: &AtomicBool,
    local: std::net::SocketAddr,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(READ_POLL_INTERVAL)).is_err() {
        return;
    }
    let decode_us = service.registry().histogram("dms_wire_decode_micros");
    let encode_us = service.registry().histogram("dms_wire_encode_micros");
    let panics = service.registry().counter("dms_request_panics_total");
    let mut reader = BufReader::new(stream);
    // Not `reader.lines()` nor `read_line`: with a read timeout a line may
    // arrive in pieces, split anywhere, even inside a character. Keep the
    // raw bytes across timeouts (`read_until` appends whatever preceded
    // the timeout), check UTF-8 once per complete line, and only clear the
    // accumulator after that line is answered.
    let mut line = Vec::new();
    loop {
        // Never buffer past the cap: a line that reaches it without a
        // newline is answered below instead of growing without bound.
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) if line.len() >= MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let mut reply = wire::encode_error(&format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                ));
                reply.push('\n');
                let _ = writer.write_all(reply.as_bytes());
                break;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle (or a partly received line): hang up if a shutdown
                // arrived on another connection, otherwise keep waiting.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let request = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => {
                line.clear();
                continue;
            }
            Ok(text) => timed(&decode_us, || wire::decode_request(text)),
            Err(e) => Err(format!(
                "request line is not valid UTF-8 (byte {} of the line)",
                e.valid_up_to()
            )),
        };
        let mut reply = match request {
            Err(e) => wire::encode_error(&e),
            Ok(wire::WireRequest::Stats) => {
                wire::encode_stats_response(service.cache_stats(), service.cache_len())
            }
            Ok(wire::WireRequest::Metrics) => {
                wire::encode_metrics_response(&service.metrics_text())
            }
            Ok(wire::WireRequest::Shutdown) => {
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop: it re-checks the flag per
                // connection, so poke it with a throwaway connect.
                let _ = TcpStream::connect(local);
                wire::encode_shutdown_response()
            }
            Ok(wire::WireRequest::Schedule(ws)) => guarded(&panics, || {
                let answer = answer_request(service, &ws);
                timed(&encode_us, || wire::encode_answer(&ws.body.name, &answer))
            }),
        };
        line.clear();
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Runs `reply`, which answers one request line. A panic in it is caught:
/// `panics` counts it, and the line is answered with an `internal error`
/// reply instead.
fn guarded(panics: &Counter, reply: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(reply)).unwrap_or_else(|payload| {
        panics.inc();
        wire::encode_error(&format!("internal error: {}", panic_message(payload.as_ref())))
    })
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(message) => message,
        None => payload.downcast_ref::<String>().map_or("a panic", String::as_str),
    }
}

/// Schedules a decoded `schedule` request on `service` and encodes the
/// response line (no trailing newline), as the server answers it.
pub fn answer_schedule(service: &ScheduleService, ws: &wire::WireSchedule) -> String {
    wire::encode_answer(&ws.body.name, &answer_request(service, ws))
}

fn answer_request(
    service: &ScheduleService,
    ws: &wire::WireSchedule,
) -> Result<Answer, ServiceError> {
    let machine = ws.machine.build();
    service.answer(&ScheduleRequest {
        body: &ws.body,
        machine: &machine,
        dms: ws.dms,
        scheduler: ws.scheduler,
        verify_trips: ws.verify_trips,
        contention: ws.contention,
    })
}

/// A blocking line-oriented client for the service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` once.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Connects to `addr`, retrying for roughly ten seconds so a client
    /// launched alongside the server (as the CI smoke job does) wins the
    /// startup race.
    ///
    /// # Errors
    ///
    /// Returns the final connect error if the server never comes up.
    pub fn connect_with_retry(addr: &str) -> std::io::Result<Client> {
        let mut last_err = None;
        for _ in 0..100 {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        Err(last_err.expect("retry loop ran at least once"))
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection surfaces as
    /// `UnexpectedEof`.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        let mut out = String::with_capacity(request.len() + 1);
        out.push_str(request);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounters;
    use crate::service::SchedulerKind;
    use crate::wire::{decode_reply, WireMachine, WireRequest, WireSchedule};
    use dms_core::DmsConfig;
    use dms_ir::kernels;
    use dms_machine::TopologyKind;

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        // Bind on port 0 first so the test knows the address before serving;
        // the port stays bound, so connecting right away cannot be refused.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_on(listener, Arc::new(ScheduleService::default())).unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn serve_answers_schedules_caches_repeats_and_shuts_down() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();

        let request = wire::encode_schedule_request(&WireSchedule {
            body: kernels::fir(4, 32),
            machine: WireMachine {
                unclustered: false,
                clusters: 2,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: Some(32),
            contention: false,
        });

        // The served line is the one a fresh local service answers.
        let Ok(WireRequest::Schedule(ws)) = wire::decode_request(&request) else {
            panic!("the request must decode");
        };
        let local = ScheduleService::default();
        let expected = answer_request(&local, &ws).unwrap();
        assert!(expected.record.ii >= 1);
        assert!(expected.record.verify.is_some());

        let cold = client.roundtrip(&request).unwrap();
        assert_eq!(cold, wire::encode_answer(&ws.body.name, &Ok(expected)));
        let reply = decode_reply(&cold).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.cache_hit, Some(false));

        let warm = client.roundtrip(&request).unwrap();
        assert_eq!(decode_reply(&warm).unwrap().cache_hit, Some(true));
        assert_eq!(
            warm,
            cold.replacen(r#""cache_hit":false"#, r#""cache_hit":true"#, 1),
            "warm must equal cold"
        );

        let stats = client.roundtrip(&wire::encode_stats_request()).unwrap();
        let counters = CacheCounters { hits: 1, misses: 1, inserts: 1 };
        assert_eq!(stats, wire::encode_stats_response(counters, 1));

        let scrape =
            decode_reply(&client.roundtrip(&wire::encode_metrics_request()).unwrap()).unwrap();
        assert!(scrape.ok);
        let exposition = scrape.metrics.unwrap();
        assert!(exposition.contains("dms_cache_hits_total 1"), "scrape:\n{exposition}");
        assert!(exposition.contains("dms_request_latency_micros_count 2"), "scrape:\n{exposition}");
        // Two schedules, the stats line and this scrape were decoded; the
        // two schedule replies were encoded.
        assert!(exposition.contains("dms_wire_decode_micros_count 4"), "scrape:\n{exposition}");
        assert!(exposition.contains("dms_wire_encode_micros_count 2"), "scrape:\n{exposition}");

        let bye = client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        assert_eq!(bye, wire::encode_shutdown_response());
        handle.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_error_replies_not_disconnects() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();

        let bad = decode_reply(&client.roundtrip("{\"op\":\"nope\"}").unwrap()).unwrap();
        assert!(!bad.ok);
        let garbled = decode_reply(&client.roundtrip("{not json").unwrap()).unwrap();
        assert!(!garbled.ok);

        // The connection survived both errors.
        let stats =
            decode_reply(&client.roundtrip(&wire::encode_stats_request()).unwrap()).unwrap();
        assert!(stats.ok);

        client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        handle.join().unwrap();
    }

    /// Regression test for the shutdown hang: a second connection that
    /// never sends anything must not keep `serve` from returning after a
    /// shutdown request on the first. Before handler threads polled with a
    /// read timeout, the idle handler blocked forever in its read and the
    /// serve scope joined it forever.
    #[test]
    fn shutdown_returns_even_with_an_idle_second_connection() {
        let (addr, handle) = spawn_server();
        let mut active = Client::connect(addr).unwrap();
        // An idle connection: opened, never written to, kept alive until
        // after serve has returned.
        let idle = TcpStream::connect(addr).unwrap();

        let started = std::time::Instant::now();
        let bye = active.roundtrip(&wire::encode_shutdown_request()).unwrap();
        assert_eq!(bye, wire::encode_shutdown_response());
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "serve took {:?} to return after shutdown with an idle connection",
            started.elapsed()
        );
        drop(idle);
    }

    /// Each side writes a whole line at once, so a round trip never waits
    /// for a delayed ACK (about 40 ms per line split over two writes).
    #[test]
    fn round_trips_do_not_wait_for_delayed_acks() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let started = std::time::Instant::now();
        for _ in 0..20 {
            let stats = client.roundtrip(&wire::encode_stats_request()).unwrap();
            assert!(decode_reply(&stats).unwrap().ok);
        }
        let elapsed = started.elapsed();
        client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        handle.join().unwrap();
        assert!(elapsed < Duration::from_secs(1), "20 round trips took {elapsed:?}");
    }

    /// A line longer than the cap gets one error reply and a hang-up, and
    /// the server goes on answering other connections.
    #[test]
    fn oversized_lines_get_one_error_reply_and_a_hang_up() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Exactly the cap, no newline: the handler reads every byte, so
        // closing leaves nothing unread that could reset the connection.
        stream.write_all(&vec![b' '; MAX_LINE_BYTES]).unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let parsed = decode_reply(reply.trim()).unwrap();
        assert!(!parsed.ok);
        assert!(parsed.error.unwrap().contains("exceeds"));
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "the connection must close");

        let mut client = Client::connect(addr).unwrap();
        let stats =
            decode_reply(&client.roundtrip(&wire::encode_stats_request()).unwrap()).unwrap();
        assert!(stats.ok);
        client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        handle.join().unwrap();
    }

    /// Requests that once aborted the whole process get an error reply
    /// within a second, and the same server then schedules the valid
    /// variant of the same loop. The loop is a 3-op recurrence. With an
    /// edge latency of 2^31 its II is near 2^31, where a reservation table
    /// would take 137 GB, under either scheduler. A machine with 2^30 copy
    /// units would have taken 34 GB.
    #[test]
    fn hostile_requests_get_error_replies_and_the_server_keeps_serving() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let request = |scheduler: &str, latency: u64, copy_units: u64| {
            format!(
                concat!(
                    r#"{{"op":"schedule","loop":{{"name":"ring3","trip_count":8,"ops":["#,
                    r#"["add",[["def",2,1]]],["add",[["def",0,0]]],["add",[["def",1,0]]]],"#,
                    r#""edges":[[0,1,"flow",{},0],[1,2,"flow",1,0],[2,0,"flow",1,1]]}},"#,
                    r#""machine":{{"unclustered":{},"clusters":4,"copy_units":{}}},"#,
                    r#""scheduler":"{}"}}"#,
                ),
                // IMS schedules only the unclustered machine.
                latency,
                scheduler == "ims",
                copy_units,
                scheduler
            )
        };
        let hostile = [
            (request("dms", 1 << 31, 1), "reservation table"),
            (request("ims", 1 << 31, 1), "reservation table"),
            (request("dms", 1, 1 << 30), "copy_units"),
        ];
        for (line, error) in hostile {
            let started = std::time::Instant::now();
            let reply = decode_reply(&client.roundtrip(&line).unwrap()).unwrap();
            assert!(started.elapsed() < Duration::from_secs(1), "{line}: {:?}", started.elapsed());
            assert!(!reply.ok, "{line}");
            assert!(reply.error.as_deref().unwrap().contains(error), "{reply:?}");
        }
        let valid = client.roundtrip(&request("dms", 1, 1)).unwrap();
        assert!(decode_reply(&valid).unwrap().ok);
        assert!(valid.contains(r#","summary":{"loop":"ring3","ii":3,"mii":"#), "{valid}");
        client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        handle.join().unwrap();
    }

    /// A panic while answering a line becomes one internal-error reply and
    /// one count, and the caller goes on to the next line; a reply that
    /// does not panic passes through.
    #[test]
    fn a_panicking_answer_gets_an_internal_error_reply_and_is_counted() {
        let panics = Counter::standalone();
        assert_eq!(guarded(&panics, || "fine".to_string()), "fine");
        assert_eq!(panics.get(), 0);
        let reply = guarded(&panics, || panic!("no schedule at II {}", 3));
        assert_eq!(reply, wire::encode_error("internal error: no schedule at II 3"));
        let reply = guarded(&panics, || panic!("a static message"));
        assert_eq!(reply, wire::encode_error("internal error: a static message"));
        let reply = guarded(&panics, || std::panic::panic_any(7u32));
        assert_eq!(reply, wire::encode_error("internal error: a panic"));
        assert_eq!(panics.get(), 3);
        assert_eq!(guarded(&panics, || "next".to_string()), "next");
    }

    /// A request line delivered byte-by-byte across many poll timeouts
    /// must still be parsed as one line (the handler keeps its partial
    /// read across `WouldBlock`/`TimedOut`).
    #[test]
    fn slowly_trickled_requests_survive_read_timeouts() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = wire::encode_stats_request();
        let (head, tail) = request.split_at(request.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        // Longer than the poll interval: the handler times out mid-line.
        std::thread::sleep(READ_POLL_INTERVAL * 3);
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(decode_reply(reply.trim()).unwrap().ok);

        stream.write_all(wire::encode_shutdown_request().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        handle.join().unwrap();
    }

    /// A line that is not UTF-8 gets an error reply like any other
    /// malformed line, and the connection goes on serving.
    #[test]
    fn non_utf8_lines_get_error_replies_not_disconnects() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        for line in [&b"{\"op\":\"st\xffats\"}\n"[..], b"\xff\xfe\n"] {
            stream.write_all(line).unwrap();
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            let parsed = decode_reply(reply.trim()).unwrap();
            assert!(!parsed.ok, "{reply}");
            assert!(parsed.error.unwrap().contains("not valid UTF-8"), "{reply}");
        }
        stream.write_all(format!("{}\n", wire::encode_stats_request()).as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(decode_reply(reply.trim()).unwrap().ok, "{reply}");

        stream.write_all(format!("{}\n", wire::encode_shutdown_request()).as_bytes()).unwrap();
        handle.join().unwrap();
    }

    /// A line whose bytes stop inside a multi-byte character when a poll
    /// timeout falls keeps every byte read before the timeout.
    #[test]
    fn a_character_split_by_a_read_timeout_survives() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = "{\"op\":\"stats\",\"note\":\"é\"}\n".as_bytes();
        let split = request.iter().position(|&b| b >= 0x80).unwrap() + 1;
        stream.write_all(&request[..split]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(READ_POLL_INTERVAL * 3);
        stream.write_all(&request[split..]).unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(decode_reply(reply.trim()).unwrap().ok, "{reply}");

        stream.write_all(format!("{}\n", wire::encode_shutdown_request()).as_bytes()).unwrap();
        handle.join().unwrap();
    }
}
