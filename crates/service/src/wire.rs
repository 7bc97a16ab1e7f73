//! The newline-delimited JSON wire protocol of the schedule service.
//!
//! One request per line, one response per line. The vendored serde shim is
//! marker-traits only (this build environment is offline), so the codec is
//! hand-rolled on one small recursive-descent lexer. All numbers on the wire
//! are integers.
//!
//! * [`decode_request`] reads a request line in one pass straight into a
//!   [`WireRequest`], building no value tree. Object keys are matched as
//!   they come, in any order; the first of a duplicated key wins and
//!   unknown keys are skipped without building anything. Ops, reads, edges
//!   and tombstone slots go straight into the loop's [`Ddg`], and edges may
//!   arrive before ops. The bounds, error messages and the nesting cap are
//!   those of a tree decoder, which `tests/fast_paths.rs` keeps as the
//!   reference.
//! * Requests and responses are rendered straight into the line. A schedule
//!   reply is rendered from one [`ScheduleRecord`] and the request's loop
//!   name: the server encodes the service's answer ([`encode_answer`]), and
//!   [`encode_response`] reads the record off a full output first.
//! * [`decode_reply`] reads the members of a reply a client acts on (`ok`,
//!   `cache_hit`, `metrics`, `error`) on the same lexer, with the same
//!   first-key-wins rule.
//!
//! ## Requests
//!
//! ```json
//! {"op":"schedule","loop":{...},"machine":{...},"scheduler":"dms",
//!  "strategy":"dms","ii_seed":null,"verify_trips":64,"contention":false}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! The loop object carries the full DDG: `ops` is a slot-indexed array
//! (`null` marks a tombstone) of `[kind, [operand, ...]]` pairs, and each
//! operand is `["def", producer_slot, distance]`, `["inv", index]`,
//! `["imm", value]` or `["ind"]`; `edges` is an array of
//! `[src, dst, kind, latency, distance]`. The machine object names one of
//! the paper's parameterized configurations rather than serializing FU
//! tables: `{"unclustered":false,"clusters":4,"copy_units":1,
//! "cqrf_capacity":null,"topology":"ring"}`.
//!
//! ## Responses
//!
//! A schedule response reports the [`ScheduleRecord`] numbers under the
//! request's loop name, plus the DMS search telemetry and the verification
//! digest when present (`achieved_ii` is 0 unless the request asked for
//! `contention`):
//!
//! ```json
//! {"ok":true,"cache_hit":false,"scheduler":"dms",
//!  "summary":{"loop":"l","ii":3,"mii":3,"stages":2,"ops":17,
//!             "useful_ops":12,"copies":5,"moves":1,"ii_attempts":1},
//!  "dms":{"first_ii":3,"pressure_retries":0,"baseline_ii":3,
//!         "candidates":0,"winner":0},
//!  "verify":{"stores_checked":128,"max_queue_depth":3,"achieved_ii":0}}
//! ```
//!
//! A `metrics` response carries the registry's Prometheus text exposition
//! as an escaped JSON string: `{"ok":true,"metrics":"# TYPE ...\n..."}`.
//! Errors are `{"ok":false,"error":"..."}`.

use crate::cache::CacheCounters;
use crate::service::{Answer, ScheduleRecord, ScheduleResponse, SchedulerKind, ServiceError};
use dms_core::DmsConfig;
use dms_ir::{Ddg, DepEdge, DepKind, Loop, OpId, OpKind, Operand, Operation};
use dms_machine::{MachineConfig, TopologyKind};
use dms_sched::SchedulerStrategy;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// The deepest array/object nesting a document may have. A real request
/// nests only a few levels; the cap keeps a hostile line of `[` from
/// overflowing a handler's stack through the recursive descent.
const MAX_DEPTH: usize = 64;

/// A member value as the one-pass decoders keep it: a scalar, or only the
/// fact that it was an array or object, whose bytes were checked and
/// skipped. Each accessor answers `None` for a value of another type.
#[derive(Debug)]
enum Field<'a> {
    Null,
    Bool(bool),
    Num(i64),
    /// Borrowed from the line unless it holds an escape.
    Str(Cow<'a, str>),
    Nested,
}

impl Field<'_> {
    fn as_i64(&self) -> Option<i64> {
        match self {
            Field::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Field::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A recursive-descent walk over one document. Arrays and objects are
/// visited element by element through a callback, so the same walk skips a
/// value, decodes a request in place or reads a reply, and every reader
/// meets the same syntax errors at the same bytes.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Reads `text` as one value with `read`, allowing whitespace around it
    /// and nothing else.
    fn document<T>(
        text: &'a str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let value = read(&mut p)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Field<'a>) -> Result<Field<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Checks the value at the cursor and moves past it, building nothing.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => self.array(Self::skip),
            Some(b'{') => self.object(|p, _| p.skip()),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads a scalar, or skips an array or object and reports it as
    /// [`Field::Nested`].
    fn field(&mut self) -> Result<Field<'a>, String> {
        if matches!(self.peek(), Some(b'[' | b'{')) {
            self.skip()?;
            return Ok(Field::Nested);
        }
        self.scalar()
    }

    fn scalar(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Field::Null),
            Some(b't') => self.literal("true", Field::Bool(true)),
            Some(b'f') => self.literal("false", Field::Bool(false)),
            Some(b'"') => Ok(Field::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => Ok(Field::Num(self.number()?)),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Reads an integer, accumulating its digits as it scans them.
    fn number(&mut self) -> Result<i64, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let digits = self.pos;
        // Accumulated towards its sign, so that `i64::MIN` fits; `None`
        // once it overflows.
        let mut value = Some(0i64);
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            let digit = i64::from(digit - b'0');
            value = value.and_then(|v| v.checked_mul(10)).and_then(|v| {
                if negative {
                    v.checked_sub(digit)
                } else {
                    v.checked_add(digit)
                }
            });
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floating-point numbers are not part of this protocol (byte {start})"
            ));
        }
        value.filter(|_| self.pos > digits).ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Moves past a run of bytes up to the next quote, backslash or the end.
    /// Both stop bytes are ASCII, so a run ends on a character boundary.
    fn skip_run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
    }

    fn slice(&self, start: usize) -> Result<&'a str, String> {
        self.text.get(start..self.pos).ok_or_else(|| "invalid utf-8".to_string())
    }

    /// Reads a string, borrowed from the line unless it holds an escape, in
    /// time linear in its length.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_run();
        let run = self.slice(start)?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_run();
                    out.push_str(self.slice(start)?);
                }
            }
        }
    }

    /// Opens an array or object at the cursor, within the nesting cap.
    fn enter(&mut self, opener: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.expect(opener)?;
        self.depth += 1;
        Ok(())
    }

    /// Reads an array, calling `element` with the cursor on each element;
    /// `element` must read exactly that one value.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads an object, calling `member` with each key and the cursor on
    /// its value; `member` must read exactly that one value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Reads the members of the object at the cursor like [`Self::object`].
    /// Any other value has no members: it is skipped.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some(b'{') {
            self.object(|p, key| member(p, &key))
        } else {
            self.skip()
        }
    }
}

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

/// The machine half of a wire request: one of the paper's parameterized
/// configurations (the wire never ships raw FU tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMachine {
    /// `true` builds the unclustered reference machine
    /// ([`MachineConfig::unclustered`], where `clusters` means *equivalent*
    /// clusters); `false` the paper's clustered machine.
    pub unclustered: bool,
    /// Cluster count (or equivalent cluster count when `unclustered`).
    pub clusters: u32,
    /// Copy units per cluster (clustered machines only).
    pub copy_units: u32,
    /// CQRF capacity override (`None` keeps the paper's 32 registers).
    pub cqrf_capacity: Option<u32>,
    /// Interconnect topology (clustered machines only).
    pub topology: TopologyKind,
}

impl WireMachine {
    /// Builds the actual machine description.
    pub fn build(&self) -> MachineConfig {
        if self.unclustered {
            return MachineConfig::unclustered(self.clusters);
        }
        MachineConfig::paper_clustered_with(
            self.clusters,
            self.copy_units,
            self.cqrf_capacity,
            self.topology,
        )
    }
}

/// A decoded `schedule` request.
#[derive(Debug, Clone)]
pub struct WireSchedule {
    /// The loop body to schedule.
    pub body: Loop,
    /// The machine to schedule for.
    pub machine: WireMachine,
    /// Which scheduler to run.
    pub scheduler: SchedulerKind,
    /// DMS configuration (defaults plus the wire's `strategy`/`ii_seed`).
    pub dms: DmsConfig,
    /// Verification trip count, if the request asks to verify.
    pub verify_trips: Option<u64>,
    /// Whether to report the achieved II the verified program reaches under
    /// the topology's transfer-bandwidth model (requires `verify_trips`).
    pub contention: bool,
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Schedule one loop.
    Schedule(Box<WireSchedule>),
    /// Report the cache counters.
    Stats,
    /// Report the service's metrics registry in Prometheus text
    /// exposition format.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Encoding (client side emits requests, server side emits responses)
// ---------------------------------------------------------------------------

/// The wire names of the op and dependence kinds.
const OP_KINDS: [(OpKind, &str); 8] = [
    (OpKind::Load, "load"),
    (OpKind::Store, "store"),
    (OpKind::Add, "add"),
    (OpKind::Sub, "sub"),
    (OpKind::Mul, "mul"),
    (OpKind::Div, "div"),
    (OpKind::Copy, "copy"),
    (OpKind::Move, "move"),
];
const DEP_KINDS: [(DepKind, &str); 4] = [
    (DepKind::Flow, "flow"),
    (DepKind::Anti, "anti"),
    (DepKind::Output, "output"),
    (DepKind::Memory, "memory"),
];

/// The wire name of `kind` in `names`.
fn name_of<K: PartialEq>(names: &[(K, &'static str)], kind: K) -> &'static str {
    names.iter().find(|(k, _)| *k == kind).expect("every kind has a wire name").1
}

/// The kind named `name` in `names`; `what` names the table in the error.
fn kind_named<K: Copy>(names: &[(K, &str)], name: &str, what: &str) -> Result<K, String> {
    names
        .iter()
        .find(|(_, n)| *n == name)
        .map(|&(k, _)| k)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

/// Displays a string as a JSON string literal.
struct Quoted<'s>(&'s str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Displays `Some(n)` as `n` and `None` as `null`.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// Writes `items` as a JSON array, each element by `item`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Writes a loop (name, trip count and the full DDG) as a JSON object.
fn write_loop(body: &Loop, out: &mut String) {
    let (name, trips) = (Quoted(&body.name), body.trip_count as i64);
    let _ = write!(out, r#"{{"name":{name},"trip_count":{trips},"ops":"#);
    write_array(out, 0..body.ddg.num_slots(), |out, slot| {
        let id = OpId(slot as u32);
        if !body.ddg.is_live(id) {
            return out.push_str("null");
        }
        let op = body.ddg.op(id);
        let _ = write!(out, r#"["{}","#, name_of(&OP_KINDS, op.kind));
        write_array(out, &op.reads, |out, read| {
            let _ = match *read {
                Operand::Def { op, distance } => write!(out, r#"["def",{},{distance}]"#, op.0),
                Operand::Invariant(i) => write!(out, r#"["inv",{i}]"#),
                Operand::Immediate(v) => write!(out, r#"["imm",{v}]"#),
                Operand::Induction => write!(out, r#"["ind"]"#),
            };
        });
        out.push(']');
    });
    out.push_str(r#","edges":"#);
    write_array(out, body.ddg.live_edges(), |out, (_, e)| {
        let (src, dst, kind) = (e.src.0, e.dst.0, name_of(&DEP_KINDS, e.kind));
        let _ = write!(out, r#"[{src},{dst},"{kind}",{},{}]"#, e.latency, e.distance);
    });
    out.push('}');
}

/// Encodes a `schedule` request as one wire line (no trailing newline).
pub fn encode_schedule_request(ws: &WireSchedule) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(r#"{"op":"schedule","loop":"#);
    write_loop(&ws.body, &mut out);
    let m = &ws.machine;
    let scheduler = match ws.scheduler {
        SchedulerKind::Ims => "ims",
        SchedulerKind::Dms => "dms",
    };
    let _ = write!(
        out,
        concat!(
            r#","machine":{{"unclustered":{},"clusters":{},"copy_units":{},"cqrf_capacity":{},"#,
            r#""topology":"{}"}},"scheduler":"{}","strategy":"{}","ii_seed":{},"verify_trips":{},"#,
            r#""contention":{}}}"#,
        ),
        m.unclustered,
        m.clusters,
        m.copy_units,
        OrNull(m.cqrf_capacity),
        m.topology,
        scheduler,
        ws.dms.strategy,
        OrNull(ws.dms.ii_seed),
        OrNull(ws.verify_trips.map(|t| t as i64)),
        ws.contention,
    );
    out
}

/// Encodes a `stats` request.
pub fn encode_stats_request() -> String {
    r#"{"op":"stats"}"#.to_string()
}

/// Encodes a `metrics` request.
pub fn encode_metrics_request() -> String {
    r#"{"op":"metrics"}"#.to_string()
}

/// Encodes a `shutdown` request.
pub fn encode_shutdown_request() -> String {
    r#"{"op":"shutdown"}"#.to_string()
}

/// Encodes a schedule response (or failure) as one wire line: the record
/// read off its full output, named by the output's loop.
pub fn encode_response(result: &Result<ScheduleResponse, ServiceError>) -> String {
    match result {
        Err(e) => encode_error(&e.to_string()),
        Ok(resp) => encode_record(
            &resp.output.result().loop_name,
            &ScheduleRecord::new(&resp.output, resp.verify),
            resp.cache_hit,
        ),
    }
}

/// Encodes the service's answer (or failure) to a request for the loop
/// named `loop_name` as one wire line.
pub fn encode_answer(loop_name: &str, result: &Result<Answer, ServiceError>) -> String {
    match result {
        Err(e) => encode_error(&e.to_string()),
        Ok(answer) => encode_record(loop_name, &answer.record, answer.cache_hit),
    }
}

/// Renders a schedule reply straight into the line.
fn encode_record(loop_name: &str, record: &ScheduleRecord, cache_hit: bool) -> String {
    let scheduler = if record.dms.is_some() { "dms" } else { "ims" };
    let mut out = String::with_capacity(320);
    let _ = write!(
        out,
        concat!(
            r#"{{"ok":true,"cache_hit":{},"scheduler":"{}","summary":{{"loop":{},"ii":{},"#,
            r#""mii":{},"stages":{},"ops":{},"useful_ops":{},"copies":{},"moves":{},"#,
            r#""ii_attempts":{}}},"dms":"#,
        ),
        cache_hit,
        scheduler,
        Quoted(loop_name),
        record.ii,
        record.mii,
        record.stages,
        record.ops as i64,
        record.useful_ops as i64,
        record.copies as i64,
        record.moves as i64,
        record.ii_attempts,
    );
    match record.dms {
        None => out.push_str("null"),
        Some(o) => {
            let _ = write!(
                out,
                r#"{{"first_ii":{},"pressure_retries":{},"baseline_ii":{},"candidates":{},"winner":{}}}"#,
                o.first_ii, o.pressure_retries, o.baseline_ii, o.candidates_run, o.winner_candidate,
            );
        }
    }
    out.push_str(r#","verify":"#);
    match record.verify {
        None => out.push_str("null"),
        Some(d) => {
            let _ = write!(
                out,
                r#"{{"stores_checked":{},"max_queue_depth":{},"achieved_ii":{}}}"#,
                d.stores_checked as i64, d.max_queue_depth as i64, d.achieved_ii,
            );
        }
    }
    out.push('}');
    out
}

/// Encodes a `stats` response.
pub fn encode_stats_response(counters: CacheCounters, entries: usize) -> String {
    format!(
        r#"{{"ok":true,"hits":{},"misses":{},"inserts":{},"entries":{}}}"#,
        counters.hits as i64, counters.misses as i64, counters.inserts as i64, entries as i64,
    )
}

/// Encodes a `metrics` response. The multi-line Prometheus exposition
/// text rides inside the single-line wire protocol as an escaped JSON
/// string — a scraper unescapes `"metrics"` and has the standard format.
pub fn encode_metrics_response(text: &str) -> String {
    format!(r#"{{"ok":true,"metrics":{}}}"#, Quoted(text))
}

/// Encodes the `shutdown` acknowledgement.
pub fn encode_shutdown_response() -> String {
    r#"{"ok":true,"shutdown":true}"#.to_string()
}

/// Encodes a protocol-level failure.
pub fn encode_error(message: &str) -> String {
    format!(r#"{{"ok":false,"error":{}}}"#, Quoted(message))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Narrows a parsed `u64` into the `u32` the model stores, rejecting (with
/// the field's name in the error) instead of silently truncating a huge
/// value into a valid-looking small one.
fn narrow_u32(value: u64, field: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("{field} {value} does not fit in 32 bits"))
}

// Admission bounds of a schedule request. Sweeps and the benchmark send at
// most 10 clusters, 2 copy units, 64 verified trips and 8 portfolio
// candidates; the bounds sit far above that and keep one request from
// asking for an unbounded machine, execution or search.
const MAX_CLUSTERS: u32 = 64;
const MAX_COPY_UNITS: u32 = 64;
const MAX_VERIFY_TRIPS: u64 = 1 << 16;
const MAX_CANDIDATES: u32 = 64;

/// Rejects `value` above `max`, naming the field.
fn at_most<T: PartialOrd + std::fmt::Display>(value: T, max: T, field: &str) -> Result<T, String> {
    if value > max {
        return Err(format!("{field} {value} exceeds the admission bound {max}"));
    }
    Ok(value)
}

/// Reads a member's value into `slot` unless an earlier member of the same
/// name filled it: the first of a duplicated key wins.
fn first<'a>(slot: &mut Option<Field<'a>>, p: &mut Parser<'a>) -> Result<(), String> {
    match slot {
        None => *slot = Some(p.field()?),
        Some(_) => p.skip()?,
    }
    Ok(())
}

/// The first `N` elements of an array, each read as a [`Field`], and the
/// array's length.
struct Shallow<'a, const N: usize> {
    items: [Option<Field<'a>>; N],
    len: usize,
}

impl<'a, const N: usize> Shallow<'a, N> {
    /// Reads the array at the cursor, or skips any other value and returns
    /// `None`.
    fn read(p: &mut Parser<'a>) -> Result<Option<Self>, String> {
        if p.peek() != Some(b'[') {
            p.skip()?;
            return Ok(None);
        }
        let mut array = Shallow { items: std::array::from_fn(|_| None), len: 0 };
        p.array(|p| {
            match array.items.get_mut(array.len) {
                Some(item) => *item = Some(p.field()?),
                None => p.skip()?,
            }
            array.len += 1;
            Ok(())
        })?;
        Ok(Some(array))
    }

    fn get(&self, i: usize) -> Option<&Field<'a>> {
        self.items.get(i)?.as_ref()
    }
}

fn decode_operand_fields(arr: Option<Shallow<'_, 3>>) -> Result<Operand, String> {
    let arr = arr.ok_or("operand must be an array")?;
    let tag = arr.get(0).and_then(Field::as_str).ok_or("operand needs a tag")?;
    match tag {
        "def" => {
            let op = arr.get(1).and_then(Field::as_u64).ok_or("def needs a producer slot")?;
            let distance = arr.get(2).and_then(Field::as_u64).ok_or("def needs a distance")?;
            Ok(Operand::Def {
                op: OpId(narrow_u32(op, "operand producer slot")?),
                distance: narrow_u32(distance, "operand distance")?,
            })
        }
        "inv" => {
            let i = arr.get(1).and_then(Field::as_u64).ok_or("inv needs an index")?;
            Ok(Operand::Invariant(narrow_u32(i, "invariant index")?))
        }
        "imm" => {
            let v = arr.get(1).and_then(Field::as_i64).ok_or("imm needs a value")?;
            Ok(Operand::Immediate(v))
        }
        "ind" => Ok(Operand::Induction),
        other => Err(format!("unknown operand tag {other:?}")),
    }
}

/// The `[kind, [operand, ...]]` op entry at the cursor: `Ok(None)` for a
/// `null` tombstone. The outer `Result` is the line's syntax, the inner one
/// the entry's meaning, checked in the order of the fields.
fn decode_op(p: &mut Parser<'_>) -> Result<Result<Option<Operation>, String>, String> {
    if p.peek() != Some(b'[') {
        return Ok(match p.field()? {
            Field::Null => Ok(None),
            _ => Err("op must be [kind, [reads]]".to_string()),
        });
    }
    let (mut kind, mut reads, mut index) = (None, None, 0);
    p.array(|p| {
        match index {
            0 => kind = Some(p.field()?),
            1 => reads = decode_reads(p)?,
            _ => p.skip()?,
        }
        index += 1;
        Ok(())
    })?;
    let kind = match kind.as_ref().and_then(Field::as_str) {
        None => return Ok(Err("op needs a kind".to_string())),
        Some(kind) => kind_named(&OP_KINDS, kind, "op kind"),
    };
    Ok(kind.and_then(|kind| {
        let reads = reads.ok_or("op needs a reads array")??;
        Ok(Some(Operation::new(kind, reads)))
    }))
}

/// The reads array at the cursor, as [`decode_op`] answers: `None` when the
/// value is not an array, else the operands or the first malformed one's
/// error.
fn decode_reads(p: &mut Parser<'_>) -> Result<Option<Result<Vec<Operand>, String>>, String> {
    if p.peek() != Some(b'[') {
        p.skip()?;
        return Ok(None);
    }
    let mut reads = Ok(Vec::new());
    p.array(|p| {
        let operand = Shallow::read(p)?;
        if let Ok(list) = &mut reads {
            match decode_operand_fields(operand) {
                Ok(operand) => list.push(operand),
                Err(e) => reads = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(Some(reads))
}

/// Line bytes per op, as the decoder guesses them to reserve room for the
/// graph: the benchmark's paper-suite requests carry about 60 per op
/// (its entry, its edges and a share of the rest). The guess is capped, so
/// a long line of `null` tombstones reserves little.
const BYTES_PER_OP: usize = 32;
const MAX_RESERVED_OPS: usize = 4096;

/// A loop object read member by member. Ops go into the DDG as they come;
/// edges read before the ops wait in `pending`. Every malformation is
/// kept, not returned, until [`LoopFields::finish`] reports the first in
/// the order a loop is checked: name, trip count, the two arrays, each op,
/// each edge, then the whole graph.
#[derive(Default)]
struct LoopFields<'a> {
    name: Option<Field<'a>>,
    trip_count: Option<Field<'a>>,
    /// Whether the first `ops` (`edges`) member was an array.
    ops: Option<bool>,
    edges: Option<bool>,
    ddg: Ddg,
    /// `dead[slot]`: the wire slot is `null`.
    dead: Vec<bool>,
    /// The first malformed op, or else the first malformed edge: edges are
    /// only checked once every op is well formed.
    error: Option<String>,
    pending: Vec<Option<Shallow<'a, 5>>>,
}

impl<'a> LoopFields<'a> {
    fn read(p: &mut Parser<'a>) -> Result<Self, String> {
        let mut fields = LoopFields::default();
        p.members(|p, key| match key {
            "name" => first(&mut fields.name, p),
            "trip_count" => first(&mut fields.trip_count, p),
            "ops" if fields.ops.is_none() => fields.read_ops(p),
            "edges" if fields.edges.is_none() => fields.read_edges(p),
            _ => p.skip(),
        })?;
        Ok(fields)
    }

    fn read_ops(&mut self, p: &mut Parser<'a>) -> Result<(), String> {
        self.ops = Some(p.peek() == Some(b'['));
        if self.ops == Some(false) {
            return p.skip();
        }
        // Room for one op and one edge per `BYTES_PER_OP` bytes left in the
        // line, so the graph seldom regrows.
        let room = ((p.text.len() - p.pos) / BYTES_PER_OP).min(MAX_RESERVED_OPS);
        self.ddg = Ddg::with_capacity(room, room);
        self.dead.reserve(room);
        p.array(|p| {
            if self.error.is_some() {
                return p.skip();
            }
            match decode_op(p)? {
                Ok(op) => {
                    self.dead.push(op.is_none());
                    // A tombstone gets a placeholder, so later slots keep
                    // their index; `finish` removes it again.
                    self.ddg.add_op(op.unwrap_or_else(|| Operation::new(OpKind::Add, Vec::new())));
                }
                Err(e) => self.error = Some(e),
            }
            Ok(())
        })?;
        for edge in std::mem::take(&mut self.pending) {
            self.add_edge(edge);
        }
        Ok(())
    }

    fn read_edges(&mut self, p: &mut Parser<'a>) -> Result<(), String> {
        self.edges = Some(p.peek() == Some(b'['));
        if self.edges == Some(false) {
            return p.skip();
        }
        p.array(|p| {
            let edge = Shallow::read(p)?;
            match self.ops {
                None => self.pending.push(edge),
                Some(_) => self.add_edge(edge),
            }
            Ok(())
        })
    }

    /// Adds one `[src, dst, kind, latency, distance]` edge to the ops read,
    /// unless an op or an earlier edge is malformed.
    fn add_edge(&mut self, edge: Option<Shallow<'a, 5>>) {
        if self.ops != Some(true) || self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_add_edge(edge) {
            self.error = Some(e);
        }
    }

    fn try_add_edge(&mut self, edge: Option<Shallow<'a, 5>>) -> Result<(), String> {
        let e = edge.ok_or("edge must be [src, dst, kind, latency, distance]")?;
        if e.len != 5 {
            return Err("edge must have 5 fields".to_string());
        }
        let number = |i: usize| e.get(i).and_then(Field::as_u64);
        let live = |id: u64| -> Result<OpId, String> {
            let id = OpId(u32::try_from(id).map_err(|_| "op id out of range")?);
            if self.dead.get(id.index()) == Some(&false) {
                Ok(id)
            } else {
                Err(format!("edge references dead op slot {}", id.0))
            }
        };
        let src = live(number(0).ok_or("edge src must be a slot")?)?;
        let dst = live(number(1).ok_or("edge dst must be a slot")?)?;
        let kind = e.get(2).and_then(Field::as_str).ok_or("edge kind must be a string")?;
        let kind = kind_named(&DEP_KINDS, kind, "dependence kind")?;
        let latency =
            narrow_u32(number(3).ok_or("edge latency must be a number")?, "edge latency")?;
        let distance =
            narrow_u32(number(4).ok_or("edge distance must be a number")?, "edge distance")?;
        self.ddg.add_edge(DepEdge { src, dst, kind, latency, distance });
        Ok(())
    }

    /// The decoded [`Loop`], with its tombstone slots restored, or the first
    /// malformation. A body with a dependence cycle of zero total distance
    /// is rejected: no II can schedule it, so the II search would walk its
    /// whole range to fail.
    fn finish(mut self) -> Result<Loop, String> {
        let name = self.name.as_ref().and_then(Field::as_str).ok_or("loop needs a name")?;
        let name = name.to_string();
        let trip_count =
            self.trip_count.as_ref().and_then(Field::as_u64).ok_or("loop needs a trip_count")?;
        if self.ops != Some(true) {
            return Err("loop needs an ops array".to_string());
        }
        if self.edges != Some(true) {
            return Err("loop needs an edges array".to_string());
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        for (slot, _) in self.dead.iter().enumerate().filter(|(_, &dead)| dead) {
            self.ddg.remove_op(OpId(slot as u32));
        }
        let ddg = self.ddg;
        ddg.validate().map_err(|e| format!("decoded DDG is malformed: {e}"))?;
        if !dms_ir::analysis::cycles_have_positive_distance(&ddg) {
            return Err("decoded DDG has a dependence cycle of zero total distance".to_string());
        }
        Ok(Loop { name, ddg, trip_count })
    }
}

/// A machine object's members.
#[derive(Default)]
struct MachineFields<'a> {
    unclustered: Option<Field<'a>>,
    clusters: Option<Field<'a>>,
    copy_units: Option<Field<'a>>,
    cqrf_capacity: Option<Field<'a>>,
    topology: Option<Field<'a>>,
}

impl<'a> MachineFields<'a> {
    fn read(p: &mut Parser<'a>) -> Result<Self, String> {
        let mut m = MachineFields::default();
        p.members(|p, key| match key {
            "unclustered" => first(&mut m.unclustered, p),
            "clusters" => first(&mut m.clusters, p),
            "copy_units" => first(&mut m.copy_units, p),
            "cqrf_capacity" => first(&mut m.cqrf_capacity, p),
            "topology" => first(&mut m.topology, p),
            _ => p.skip(),
        })?;
        Ok(m)
    }

    fn decode(&self) -> Result<WireMachine, String> {
        let clusters = narrow_u32(
            self.clusters
                .as_ref()
                .and_then(Field::as_u64)
                .ok_or("machine needs a clusters count")?,
            "machine clusters",
        )?;
        if clusters == 0 {
            return Err("machine clusters must be at least 1".to_string());
        }
        Ok(WireMachine {
            unclustered: self.unclustered.as_ref().and_then(Field::as_bool).unwrap_or(false),
            clusters: at_most(clusters, MAX_CLUSTERS, "machine clusters")?,
            copy_units: at_most(
                narrow_u32(
                    self.copy_units.as_ref().and_then(Field::as_u64).unwrap_or(1),
                    "machine copy_units",
                )?,
                MAX_COPY_UNITS,
                "machine copy_units",
            )?,
            cqrf_capacity: match &self.cqrf_capacity {
                None | Some(Field::Null) => None,
                Some(v) => Some(narrow_u32(
                    v.as_u64().ok_or("cqrf_capacity must be a number or null")?,
                    "machine cqrf_capacity",
                )?),
            },
            topology: match &self.topology {
                None | Some(Field::Null) => TopologyKind::Ring,
                Some(v) => TopologyKind::parse(v.as_str().ok_or("topology must be a string")?)?,
            },
        })
    }
}

/// A request object's members.
#[derive(Default)]
struct RequestFields<'a> {
    op: Option<Field<'a>>,
    body: Option<LoopFields<'a>>,
    machine: Option<MachineFields<'a>>,
    scheduler: Option<Field<'a>>,
    strategy: Option<Field<'a>>,
    ii_seed: Option<Field<'a>>,
    verify_trips: Option<Field<'a>>,
    contention: Option<Field<'a>>,
}

impl<'a> RequestFields<'a> {
    fn read(p: &mut Parser<'a>) -> Result<Self, String> {
        let mut r = RequestFields::default();
        p.members(|p, key| {
            match key {
                "op" => first(&mut r.op, p)?,
                "loop" if r.body.is_none() => r.body = Some(LoopFields::read(p)?),
                "machine" if r.machine.is_none() => r.machine = Some(MachineFields::read(p)?),
                "scheduler" => first(&mut r.scheduler, p)?,
                "strategy" => first(&mut r.strategy, p)?,
                "ii_seed" => first(&mut r.ii_seed, p)?,
                "verify_trips" => first(&mut r.verify_trips, p)?,
                "contention" => first(&mut r.contention, p)?,
                _ => p.skip()?,
            }
            Ok(())
        })?;
        Ok(r)
    }

    fn decode(self) -> Result<WireRequest, String> {
        match self.op.as_ref().and_then(Field::as_str) {
            Some("stats") => Ok(WireRequest::Stats),
            Some("metrics") => Ok(WireRequest::Metrics),
            Some("shutdown") => Ok(WireRequest::Shutdown),
            Some("schedule") => {
                let body = self.body.ok_or("schedule needs a loop")?.finish()?;
                let machine = self.machine.as_ref().ok_or("schedule needs a machine")?.decode()?;
                let scheduler = match self.scheduler.as_ref().and_then(Field::as_str) {
                    Some("ims") => SchedulerKind::Ims,
                    Some("dms") | None => SchedulerKind::Dms,
                    Some(other) => return Err(format!("unknown scheduler {other:?}")),
                };
                let mut dms = DmsConfig::default();
                if let Some(s) = self.strategy.as_ref().and_then(Field::as_str) {
                    dms.strategy = SchedulerStrategy::parse(s)?;
                    match dms.strategy {
                        SchedulerStrategy::Dms => {}
                        SchedulerStrategy::Beam { width } => {
                            at_most(width, MAX_CANDIDATES, "strategy beam width")?;
                        }
                        SchedulerStrategy::Portfolio { n_candidates, .. } => {
                            at_most(n_candidates, MAX_CANDIDATES, "strategy portfolio candidates")?;
                        }
                    }
                }
                if let Some(seed) = self.ii_seed.as_ref().filter(|v| !matches!(v, Field::Null)) {
                    dms.ii_seed = Some(narrow_u32(
                        seed.as_u64().ok_or("ii_seed must be a number or null")?,
                        "ii_seed",
                    )?);
                }
                let verify_trips = match &self.verify_trips {
                    None | Some(Field::Null) => None,
                    Some(v) => Some(at_most(
                        v.as_u64().ok_or("verify_trips must be a number or null")?,
                        MAX_VERIFY_TRIPS,
                        "verify_trips",
                    )?),
                };
                let contention = match &self.contention {
                    None | Some(Field::Null) => false,
                    Some(v) => v.as_bool().ok_or("contention must be a boolean or null")?,
                };
                Ok(WireRequest::Schedule(Box::new(WireSchedule {
                    body,
                    machine,
                    scheduler,
                    dms,
                    verify_trips,
                    contention,
                })))
            }
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("request needs an \"op\" field".to_string()),
        }
    }
}

/// Decodes one request line in one pass over its bytes, building no value
/// tree.
///
/// Object keys are matched as they come, in any order; the first of a
/// duplicated key wins and unknown keys are skipped. A malformed member is
/// noted, not reported, while the rest of the line is read: a syntax error
/// anywhere wins, and otherwise the members are judged in a fixed order
/// (op, loop, machine, scheduler, strategy, ii_seed, verify_trips,
/// contention), so a line's error does not depend on its key order.
///
/// # Errors
///
/// Returns a message suitable for an [`encode_error`] reply.
pub fn decode_request(line: &str) -> Result<WireRequest, String> {
    Parser::document(line, RequestFields::read)?.decode()
}

/// The members of a reply line that a client acts on. A member that is
/// missing or of another type reads as `false` or `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// Whether `ok` is `true`.
    pub ok: bool,
    /// `cache_hit`, in a schedule reply.
    pub cache_hit: Option<bool>,
    /// `metrics`, the exposition text of a metrics reply.
    pub metrics: Option<String>,
    /// `error`, the message of a failure.
    pub error: Option<String>,
}

/// Reads one reply line. As in [`decode_request`], the first of a
/// duplicated key wins and other members are checked and skipped.
///
/// # Errors
///
/// Returns the position-annotated message of a malformed line.
pub fn decode_reply(line: &str) -> Result<Reply, String> {
    let (mut ok, mut cache_hit, mut metrics, mut error) = (None, None, None, None);
    Parser::document(line, |p| {
        p.members(|p, key| match key {
            "ok" => first(&mut ok, p),
            "cache_hit" => first(&mut cache_hit, p),
            "metrics" => first(&mut metrics, p),
            "error" => first(&mut error, p),
            _ => p.skip(),
        })
    })?;
    let text = |field: Option<Field<'_>>| field.as_ref().and_then(Field::as_str).map(String::from);
    Ok(Reply {
        ok: ok.as_ref().and_then(Field::as_bool) == Some(true),
        cache_hit: cache_hit.as_ref().and_then(Field::as_bool),
        metrics: text(metrics),
        error: text(error),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{canonical_hash, kernels};

    /// A plain DMS request for `body` on the 4-cluster paper machine.
    fn request_for(body: Loop) -> String {
        encode_schedule_request(&WireSchedule {
            body,
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: None,
            contention: false,
        })
    }

    /// The loop a schedule request line decodes to, or the decoder's error.
    fn decode_body(line: &str) -> Result<Loop, String> {
        match decode_request(line)? {
            WireRequest::Schedule(ws) => Ok(ws.body),
            other => panic!("expected a schedule request, got {other:?}"),
        }
    }

    /// Every value type is read around a reply's members, a string renders
    /// and reads back unchanged, and an array's elements are visited once
    /// each.
    #[test]
    fn json_roundtrips() {
        let line = r#"{"a":[1,-2,null,true,"x\n\"y\""],"b":{"c":[]},"error":"x\n\"y\""}"#;
        let reply = decode_reply(line).unwrap();
        assert_eq!(reply.error.as_deref(), Some("x\n\"y\""));
        assert_eq!(decode_reply(&encode_error("x\n\"y\"")).unwrap(), reply);
        let mut elements = 0;
        Parser::document(line, |p| {
            p.members(|p, key| match key {
                "a" => p.array(|p| {
                    elements += 1;
                    p.skip()
                }),
                _ => p.skip(),
            })
        })
        .unwrap();
        assert_eq!(elements, 5);
    }

    #[test]
    fn multibyte_strings_with_escapes_roundtrip() {
        let mut l = kernels::fir(4, 32);
        l.name = "fïr \"α\"\\β\n→😀\t\u{1}end".to_string();
        assert_eq!(decode_body(&request_for(l.clone())).unwrap().name, l.name);
        let escaped = decode_reply(r#"{"error":"caf\u00e9 ☕ \"q\" \/"}"#).unwrap();
        assert_eq!(escaped.error.as_deref(), Some("café ☕ \"q\" /"));
    }

    #[test]
    fn json_rejects_garbage_and_floats() {
        assert!(decode_reply("{").is_err());
        assert!(decode_reply("[1,]").is_err());
        assert!(decode_reply("1.5").is_err());
        assert!(decode_reply("{} trailing").is_err());
    }

    /// A reply is read as a request is: the first of a duplicated key wins,
    /// a member of another type reads as absent, and a line that is no
    /// object has no members.
    #[test]
    fn a_reply_keeps_the_first_of_a_duplicated_key() {
        let line =
            r#"{"ok":true,"ok":false,"cache_hit":true,"x":{"ok":false},"metrics":"m","error":7}"#;
        let expected =
            Reply { ok: true, cache_hit: Some(true), metrics: Some("m".to_string()), error: None };
        assert_eq!(decode_reply(line).unwrap(), expected);
        assert_eq!(decode_reply(r#"{"ok":1,"cache_hit":null}"#).unwrap(), Reply::default());
        assert_eq!(decode_reply("[true]").unwrap(), Reply::default());
    }

    /// A line of nothing but openers must come back as an error, not
    /// recurse once per byte until the handler's stack overflows.
    #[test]
    fn deeply_nested_lines_are_rejected_not_overflowed() {
        let brackets = "[".repeat(1 << 20);
        assert!(decode_request(&brackets).unwrap_err().contains("nesting deeper than 64"));
        let objects = "{\"a\":".repeat(100_000);
        assert!(decode_request(&objects).unwrap_err().contains("nesting deeper than 64"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(decode_reply(&at_cap).is_ok(), "{MAX_DEPTH} levels are still accepted");
    }

    #[test]
    fn loop_roundtrips_through_the_wire_encoding() {
        let fir = kernels::fir(8, 64);
        let decoded = decode_body(&request_for(fir.clone())).unwrap();
        assert_eq!(decoded.name, fir.name);
        assert_eq!(decoded.trip_count, fir.trip_count);
        assert_eq!(decoded.ddg.num_slots(), fir.ddg.num_slots());
        assert_eq!(canonical_hash(&decoded.ddg), canonical_hash(&fir.ddg));
        assert_eq!(
            format!("{:?}", decoded.ddg),
            format!("{:?}", fir.ddg),
            "wire decode must reproduce the DDG exactly"
        );
    }

    #[test]
    fn loop_with_tombstones_roundtrips() {
        let mut l = kernels::dot_product(32);
        let extra = l.ddg.add_op(Operation::new(OpKind::Add, vec![Operand::Immediate(1)]));
        l.ddg.remove_op(extra);
        let decoded = decode_body(&request_for(l.clone())).unwrap();
        assert_eq!(decoded.ddg.num_slots(), l.ddg.num_slots());
        assert_eq!(decoded.ddg.num_live_ops(), l.ddg.num_live_ops());
        assert_eq!(canonical_hash(&decoded.ddg), canonical_hash(&l.ddg));
    }

    /// Tombstones decode in linear time: a 1 MiB line holds about 200,000
    /// `null` slots, and one live op after them keeps its slot index.
    #[test]
    fn many_tombstones_decode_in_linear_time() {
        const NULLS: usize = 200_000;
        let mut ddg = Ddg::new();
        for _ in 0..NULLS {
            let dead = ddg.add_op(Operation::new(OpKind::Add, Vec::new()));
            ddg.remove_op(dead);
        }
        let load = ddg.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let line = request_for(Loop { name: "sparse".to_string(), ddg, trip_count: 4 });
        let started = std::time::Instant::now();
        let decoded = decode_body(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(decoded.ddg.num_slots(), NULLS + 1);
        assert_eq!(decoded.ddg.live_ops().map(|(id, _)| id).collect::<Vec<_>>(), [load]);
        assert_eq!(decoded.ddg.op(load).kind, OpKind::Load);
        assert!(elapsed.as_secs_f64() < 2.0, "decoding took {elapsed:?}");
    }

    #[test]
    fn schedule_request_roundtrips() {
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: Some(16),
                topology: TopologyKind::ChordalRing { chord: 2 },
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig { ii_seed: Some(3), ..DmsConfig::default() },
            verify_trips: Some(32),
            contention: true,
        };
        let line = encode_schedule_request(&ws);
        let WireRequest::Schedule(decoded) = decode_request(&line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert_eq!(decoded.machine, ws.machine);
        assert_eq!(decoded.scheduler, SchedulerKind::Dms);
        assert_eq!(decoded.dms.ii_seed, Some(3));
        assert_eq!(decoded.dms.strategy, ws.dms.strategy);
        assert_eq!(decoded.verify_trips, Some(32));
        assert!(decoded.contention);
        assert_eq!(decoded.body.name, ws.body.name);
    }

    #[test]
    fn contention_defaults_to_false_and_rejects_non_booleans() {
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 2,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: None,
            contention: false,
        };
        // strip the "contention" member entirely: older clients omit it
        let line = encode_schedule_request(&ws).replace(",\"contention\":false", "");
        assert!(!line.contains("contention"));
        let WireRequest::Schedule(decoded) = decode_request(&line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert!(!decoded.contention, "a missing contention member must default to false");

        let bad =
            encode_schedule_request(&decoded).replace("\"contention\":false", "\"contention\":7");
        let err = decode_request(&bad).unwrap_err();
        assert!(err.contains("contention"), "{err}");
    }

    /// Every `u64 -> u32` narrowing site must reject an oversized value
    /// with an error naming the field, instead of silently truncating it
    /// into a valid-looking request.
    #[test]
    fn oversized_u32_fields_are_rejected_with_positioned_errors() {
        let huge = (u64::from(u32::MAX) + 1).to_string();
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: Some(16),
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig { ii_seed: Some(3), ..DmsConfig::default() },
            verify_trips: Some(8),
            contention: false,
        };
        let line = encode_schedule_request(&ws);
        assert!(decode_request(&line).is_ok(), "the baseline request must decode");

        // (pattern in the encoded line, expected field name in the error)
        let cases = [
            ("\"clusters\":4", "\"clusters\":", "machine clusters"),
            ("\"copy_units\":1", "\"copy_units\":", "machine copy_units"),
            ("\"cqrf_capacity\":16", "\"cqrf_capacity\":", "machine cqrf_capacity"),
            ("\"ii_seed\":3", "\"ii_seed\":", "ii_seed"),
        ];
        for (needle, prefix, field) in cases {
            let bad = line.replace(needle, &format!("{prefix}{huge}"));
            assert_ne!(bad, line, "pattern {needle} not found in the encoded request");
            let err = decode_request(&bad).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
            assert!(err.contains("does not fit in 32 bits"), "{field}: got {err}");
        }
        // Below range too: a zero-cluster machine cannot be built.
        let err = decode_request(&line.replace("\"clusters\":4", "\"clusters\":0")).unwrap_err();
        assert!(err.contains("machine clusters must be at least 1"), "got {err}");

        // Within 32 bits but above the admission bounds; the bounds
        // themselves are still admitted.
        let cases = [
            ("\"clusters\":4", "machine clusters", u64::from(MAX_CLUSTERS), "\"clusters\":", ""),
            (
                "\"copy_units\":1",
                "machine copy_units",
                u64::from(MAX_COPY_UNITS),
                "\"copy_units\":",
                "",
            ),
            ("\"verify_trips\":8", "verify_trips", MAX_VERIFY_TRIPS, "\"verify_trips\":", ""),
            (
                "\"strategy\":\"dms\"",
                "beam width",
                u64::from(MAX_CANDIDATES),
                "\"strategy\":\"beam:",
                "\"",
            ),
            (
                "\"strategy\":\"dms\"",
                "portfolio candidates",
                u64::from(MAX_CANDIDATES),
                "\"strategy\":\"portfolio:",
                "\"",
            ),
        ];
        for (needle, field, max, prefix, suffix) in cases {
            let at = line.replace(needle, &format!("{prefix}{max}{suffix}"));
            assert_ne!(at, line, "pattern {needle} not found in the encoded request");
            assert!(decode_request(&at).is_ok(), "{field} {max} must be admitted");
            let above = line.replace(needle, &format!("{prefix}{}{suffix}", max + 1));
            let err = decode_request(&above).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
            assert!(err.contains("exceeds the admission bound"), "{field}: got {err}");
        }
    }

    /// Edge latency/distance and operand fields narrow too: patch the
    /// first edge, and the operands of a loop whose reads are unique in its
    /// line.
    #[test]
    fn oversized_loop_fields_are_rejected_with_positioned_errors() {
        let huge = i64::from(u32::MAX) + 1;
        let fir = kernels::fir(4, 32);
        let line = request_for(fir.clone());

        // edge latency (index 3) and distance (index 4)
        let (_, e) = fir.ddg.live_edges().next().unwrap();
        let mut fields = [e.src.0, e.dst.0, 0, e.latency, e.distance].map(i64::from);
        let edge = |f: &[i64; 5]| {
            format!(
                r#""edges":[[{},{},"{}",{},{}]"#,
                f[0],
                f[1],
                name_of(&DEP_KINDS, e.kind),
                f[3],
                f[4]
            )
        };
        let first = edge(&fields);
        assert!(line.contains(&first), "{first} not found in {line}");
        for (index, field) in [(3usize, "edge latency"), (4usize, "edge distance")] {
            let kept = std::mem::replace(&mut fields[index], huge);
            let err = decode_body(&line.replacen(&first, &edge(&fields), 1)).unwrap_err();
            fields[index] = kept;
            assert!(err.contains(field), "{field}: got {err}");
        }

        // operand producer slot and distance of a "def" read, and an
        // invariant index
        let mut ddg = Ddg::new();
        let load = ddg.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let reads = vec![Operand::def(load), Operand::Invariant(0)];
        let add = ddg.add_op(Operation::new(OpKind::Add, reads));
        ddg.add_edge(DepEdge::flow(load, add, 2, 0));
        let line = request_for(Loop { name: "reads".to_string(), ddg, trip_count: 4 });
        assert!(decode_body(&line).is_ok(), "the baseline loop must decode");
        let cases = [
            (r#"["def",0,0]"#, format!(r#"["def",{huge},0]"#), "operand producer slot"),
            (r#"["def",0,0]"#, format!(r#"["def",0,{huge}]"#), "operand distance"),
            (r#"["inv",0]"#, format!(r#"["inv",{huge}]"#), "invariant index"),
        ];
        for (needle, bad, field) in cases {
            assert!(line.contains(needle), "{needle} not found in {line}");
            let err = decode_body(&line.replace(needle, &bad)).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
        }
    }

    #[test]
    fn malformed_edges_are_rejected_not_panicked_on() {
        let line = request_for(kernels::fir(4, 32));
        let start = line.find(r#""edges":["#).unwrap();
        let end = start + line[start..].find('}').unwrap();
        let bad = format!(r#"{}"edges":[[999,0,"flow",1,0]]{}"#, &line[..start], &line[end..]);
        assert!(decode_body(&bad).is_err());
    }

    /// A `def` read needs a flow edge from its producer at its distance:
    /// the scheduler orders ops by edges alone, so it would ignore the read
    /// and verification would fail as if the compiler were wrong.
    #[test]
    fn a_def_read_without_its_flow_edge_is_rejected_naming_the_op() {
        let mut ddg = Ddg::new();
        let load = ddg.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        ddg.add_op(Operation::new(OpKind::Store, vec![Operand::def(load)]));
        let line = request_for(Loop { name: "unlinked".to_string(), ddg, trip_count: 8 });
        assert!(line.contains(r#""edges":[]"#), "{line}");
        for edges in ["[]", r#"[[0,1,"flow",2,1]]"#, r#"[[0,1,"anti",2,0]]"#] {
            let err = decode_body(&line.replace(r#""edges":[]"#, &format!(r#""edges":{edges}"#)))
                .unwrap_err();
            assert!(err.contains("op1 reads op0 at distance 0"), "{edges}: got {err}");
        }
        let linked = line.replace(r#""edges":[]"#, r#""edges":[[0,1,"flow",2,0]]"#);
        assert!(decode_body(&linked).is_ok());
    }

    /// A flow edge of latency 0 would let DMS put a producer and its
    /// consumer in one word on two clusters: on `load -> add -> store` with
    /// a latency-0 `add -> store` edge it placed the add on C0 and the store
    /// on C1 in the same cycle, and the executor popped the CQRF value in
    /// the cycle it was pushed. The decoder now refuses the loop, naming
    /// the edge.
    #[test]
    fn a_latency_0_flow_edge_is_rejected_naming_the_edge() {
        let loop_with = |store_latency| {
            let mut ddg = Ddg::new();
            let load = ddg.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
            let add =
                ddg.add_op(Operation::new(OpKind::Add, vec![load.into(), Operand::Immediate(1)]));
            let store = ddg.add_op(Operation::new(OpKind::Store, vec![add.into()]));
            ddg.add_edge(DepEdge::flow(load, add, 2, 0));
            ddg.add_edge(DepEdge::flow(add, store, store_latency, 0));
            request_for(Loop { name: "scratch".to_string(), ddg, trip_count: 8 })
        };
        assert!(decode_body(&loop_with(1)).is_ok());
        let err = decode_request(&loop_with(0)).unwrap_err();
        assert_eq!(
            err,
            "decoded DDG is malformed: flow edge EdgeId(1) (op1 -> op2 (Flow, lat 0, dist 0)) \
             has latency 0"
        );
        assert!(!decode_reply(&encode_error(&err)).unwrap().ok);
    }

    #[test]
    fn zero_distance_cycles_are_rejected() {
        let mut iir = kernels::iir(16);
        assert!(decode_body(&request_for(iir.clone())).is_ok(), "a carried recurrence schedules");
        let (_, back) = iir.ddg.live_edges().find(|(_, e)| e.distance > 0).unwrap();
        let back = DepEdge { distance: 0, ..*back };
        iir.ddg.add_edge(back);
        let err = decode_body(&request_for(iir)).unwrap_err();
        assert!(err.contains("zero total distance"), "got {err}");
    }

    #[test]
    fn stats_metrics_and_shutdown_requests_decode() {
        assert!(matches!(decode_request(&encode_stats_request()), Ok(WireRequest::Stats)));
        assert!(matches!(decode_request(&encode_metrics_request()), Ok(WireRequest::Metrics)));
        assert!(matches!(decode_request(&encode_shutdown_request()), Ok(WireRequest::Shutdown)));
        assert!(decode_request("{}").is_err());
    }

    #[test]
    fn a_metrics_response_escapes_the_multiline_exposition_into_one_line() {
        let text = "# TYPE dms_cache_hits_total counter\ndms_cache_hits_total 3\n";
        let line = encode_metrics_response(text);
        assert!(!line.contains('\n'), "wire responses are single lines: {line}");
        let reply = decode_reply(&line).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.metrics.as_deref(), Some(text));
    }
}
