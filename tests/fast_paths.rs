//! Exactness of the linear per-request passes against the algorithms they
//! replaced.
//!
//! The wire codec, the guard fingerprint, the single-use conversion, the
//! strongly connected components, RecMII, the height priority and the IMS
//! step each run once per request or per II attempt, so each has a one-pass
//! (or linear, heap-ordered, iterative or sparse) implementation. The
//! algorithms they replaced are kept here, in [`reference`], and every test
//! checks the fast path against its reference on the paper suite unrolled
//! for the 1–10-cluster paper machines (12,580 bodies) and on
//! [`dms_ir::kernels`]; RecMII and the heights also on seeded random
//! recurrences, the request decoder on the benchmark's and the CLI client's
//! requests and seeded mutations of them. The DDG's linked succ and pred
//! lists are checked against the per-op `Vec<EdgeId>` lists they replaced
//! after every step of seeded random graph edits, and against a scan of the
//! edge table on every corpus body and on its DMS output.

use dms_ir::transform::convert_to_single_use;
use dms_ir::{analysis, kernels, Ddg, DepEdge, DepKind, EdgeId, Fnv, LatencySpec, Loop};
use dms_ir::{OpId, OpKind, Operand, Operation};
use dms_machine::{ClusterId, FuKind, MachineConfig, Mrt};
use dms_sched::ims::{default_max_ii, ims_schedule, ImsConfig};
use dms_sched::mii::{mii, rec_mii};
use dms_sched::priority::heights;
use dms_sched::schedule::{dependence_bound, earliest_start, Schedule};
use dms_service::hash::guard_fingerprint;
use dms_workloads::{generate, unroll_for_machine, SuiteConfig, UnrollPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::wire::Json;
use std::collections::{BTreeSet, HashMap};

/// The algorithms the fast paths replaced.
mod reference {
    use super::*;

    /// FNV over the name, the trip count and the DDG's `Debug` rendering.
    pub fn debug_guard(body: &Loop) -> u64 {
        let mut h = Fnv::new();
        h.bytes(body.name.as_bytes());
        h.word(body.trip_count);
        h.debug(&body.ddg);
        h.finish()
    }

    #[derive(Clone, Copy)]
    struct Read {
        consumer: OpId,
        operand_idx: usize,
        distance: u32,
    }

    /// The single-use conversion that scans every op once per producer.
    pub fn convert_to_single_use(ddg: &mut Ddg, latency: &LatencySpec) -> usize {
        let producers: Vec<OpId> =
            ddg.live_ops().filter(|(_, o)| o.kind.has_result()).map(|(id, _)| id).collect();
        let mut inserted = 0;
        for p in producers {
            let mut reads: Vec<Read> = Vec::new();
            let consumers: Vec<OpId> = ddg.live_op_ids().collect();
            for c in consumers {
                for (i, r) in ddg.op(c).reads.iter().enumerate() {
                    if let Operand::Def { op, distance } = *r {
                        if op == p {
                            reads.push(Read { consumer: c, operand_idx: i, distance });
                        }
                    }
                }
            }
            if reads.len() <= 2 {
                continue;
            }
            reads.sort_by_key(|r| (r.consumer != p, r.distance, r.consumer, r.operand_idx));
            let mut prev = p;
            let mut prev_lat = latency.of(ddg.op(p).kind);
            for (i, read) in reads.iter().enumerate().skip(1) {
                if i != reads.len() - 1 {
                    let copy = ddg.add_op(Operation::new(OpKind::Copy, vec![Operand::def(prev)]));
                    ddg.add_edge(DepEdge::flow(prev, copy, prev_lat, 0));
                    inserted += 1;
                    prev = copy;
                    prev_lat = latency.copy;
                }
                let old_edge = ddg
                    .preds(read.consumer)
                    .find(|(_, e)| {
                        e.kind == DepKind::Flow && e.src == p && e.distance == read.distance
                    })
                    .map(|(id, _)| id);
                if let Some(eid) = old_edge {
                    ddg.remove_edge(eid);
                }
                ddg.op_mut(read.consumer).reads[read.operand_idx] =
                    Operand::def_at(prev, read.distance);
                ddg.add_edge(DepEdge::flow(prev, read.consumer, prev_lat, read.distance));
            }
        }
        inserted
    }

    /// Tarjan's algorithm, recursing once per op along the depth-first path.
    pub fn sccs(ddg: &Ddg) -> Vec<Vec<OpId>> {
        struct State<'a> {
            ddg: &'a Ddg,
            index: Vec<Option<u32>>,
            lowlink: Vec<u32>,
            on_stack: Vec<bool>,
            stack: Vec<OpId>,
            next_index: u32,
            out: Vec<Vec<OpId>>,
        }

        fn strongconnect(s: &mut State<'_>, v: OpId) {
            s.index[v.index()] = Some(s.next_index);
            s.lowlink[v.index()] = s.next_index;
            s.next_index += 1;
            s.stack.push(v);
            s.on_stack[v.index()] = true;

            let succs: Vec<OpId> = s.ddg.succs(v).map(|(_, e)| e.dst).collect();
            for w in succs {
                if s.index[w.index()].is_none() {
                    strongconnect(s, w);
                    s.lowlink[v.index()] = s.lowlink[v.index()].min(s.lowlink[w.index()]);
                } else if s.on_stack[w.index()] {
                    s.lowlink[v.index()] = s.lowlink[v.index()].min(s.index[w.index()].unwrap());
                }
            }

            if s.lowlink[v.index()] == s.index[v.index()].unwrap() {
                let mut comp = Vec::new();
                loop {
                    let w = s.stack.pop().expect("tarjan stack underflow");
                    s.on_stack[w.index()] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                s.out.push(comp);
            }
        }

        let n = ddg.num_slots();
        let mut st = State {
            ddg,
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            out: Vec::new(),
        };
        for v in ddg.live_op_ids() {
            if st.index[v.index()].is_none() {
                strongconnect(&mut st, v);
            }
        }
        st.out
    }

    /// RecMII bisected in `u32` over a dense max-plus Floyd–Warshall per
    /// component, with linear `contains`/`position` lookups into it.
    pub fn rec_mii(ddg: &Ddg) -> u32 {
        let mut best = 1u32;
        for comp in analysis::sccs(ddg) {
            let cyclic = comp.len() > 1 || ddg.succs(comp[0]).any(|(_, e)| e.dst == comp[0]);
            if !cyclic {
                continue;
            }
            let hi: u32 = comp
                .iter()
                .flat_map(|&v| ddg.succs(v))
                .filter(|(_, e)| comp.contains(&e.src) && comp.contains(&e.dst))
                .map(|(_, e)| e.latency)
                .sum::<u32>()
                .max(1);
            let (mut lo, mut hi) = (1u32, hi);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if has_positive_cycle(ddg, &comp, mid) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            best = best.max(lo);
        }
        best
    }

    fn has_positive_cycle(ddg: &Ddg, comp: &[OpId], ii: u32) -> bool {
        const NEG_INF: i64 = i64::MIN / 4;
        let n = comp.len();
        let pos = |id: OpId| comp.iter().position(|&x| x == id);
        let mut dist = vec![NEG_INF; n * n];
        for (i, &v) in comp.iter().enumerate() {
            for (_, e) in ddg.succs(v) {
                if let Some(j) = pos(e.dst) {
                    let w = e.latency as i64 - ii as i64 * e.distance as i64;
                    dist[i * n + j] = dist[i * n + j].max(w);
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if dik == NEG_INF {
                    continue;
                }
                for j in 0..n {
                    let dkj = dist[k * n + j];
                    if dkj != NEG_INF && dik + dkj > dist[i * n + j] {
                        dist[i * n + j] = dik + dkj;
                    }
                }
            }
        }
        (0..n).any(|i| dist[i * n + i] > 0)
    }

    /// Heights relaxed in ascending id order until nothing changes.
    pub fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
        let mut h = vec![0i64; ddg.num_slots()];
        let live: Vec<OpId> = ddg.live_op_ids().collect();
        for _ in 0..live.len().max(1) {
            let mut changed = false;
            for &v in &live {
                let best = ddg
                    .succs(v)
                    .map(|(_, e)| {
                        h[e.dst.index()] + e.latency as i64 - ii as i64 * e.distance as i64
                    })
                    .fold(0, i64::max);
                if best > h[v.index()] {
                    h[v.index()] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        h
    }

    /// What an IMS search returns: the II, the schedule, the evictions and
    /// the budget used.
    pub type ImsRun = (u32, Schedule, u64, u64);

    /// IMS with its own step: a scan of the unscheduled list for the
    /// highest-priority op per pop, and a `never_scheduled` flag beside the
    /// previous time.
    pub fn ims_schedule(l: &Loop, machine: &MachineConfig) -> ImsRun {
        let ddg = &l.ddg;
        let start_ii = mii(ddg, machine).unwrap().mii();
        let budget = 8 * ddg.num_live_ops().max(1) as u64;
        (start_ii..=default_max_ii(ddg, machine, start_ii))
            .find_map(|ii| try_ims(ddg, machine, ii, budget))
            .expect("IMS schedules every paper-grid body")
    }

    fn try_ims(ddg: &Ddg, machine: &MachineConfig, ii: u32, budget: u64) -> Option<ImsRun> {
        let height = heights(ddg, ii);
        let cluster = ClusterId(0);
        let mut mrt = Mrt::new(machine, ii);
        let mut schedule = Schedule::new(ii, ddg.num_slots());
        let mut never_scheduled = vec![true; ddg.num_slots()];
        let mut prev_time = vec![0u32; ddg.num_slots()];
        let mut unscheduled: Vec<OpId> = ddg.live_op_ids().collect();
        let mut remaining = budget;
        let mut evictions = 0u64;
        let mut budget_used = 0u64;

        while !unscheduled.is_empty() {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            budget_used += 1;

            let (idx, &op) = unscheduled
                .iter()
                .enumerate()
                .max_by_key(|(_, &o)| (height[o.index()], std::cmp::Reverse(o)))
                .unwrap();
            unscheduled.swap_remove(idx);

            let estart = earliest_start(ddg, &schedule, op, ii);
            let min_time = if never_scheduled[op.index()] {
                estart
            } else {
                estart.max(prev_time[op.index()] + 1)
            };
            let max_time = min_time + ii - 1;
            let fu = FuKind::for_op(ddg.op(op).kind);
            let time =
                (min_time..=max_time).find(|&t| mrt.has_free(t, cluster, fu)).unwrap_or(min_time);
            while !mrt.has_free(time, cluster, fu) {
                let victim = *mrt
                    .occupants(time, cluster, fu)
                    .iter()
                    .min_by_key(|&&o| (height[o.index()], std::cmp::Reverse(o)))
                    .unwrap();
                mrt.release(victim);
                schedule.remove(victim);
                unscheduled.push(victim);
                evictions += 1;
            }
            mrt.reserve(op, time, cluster, fu).unwrap();
            schedule.place(op, time, cluster);
            never_scheduled[op.index()] = false;
            prev_time[op.index()] = time;

            let victims: Vec<OpId> = ddg
                .succs(op)
                .filter(|(_, e)| e.dst != op)
                .filter_map(|(_, e)| {
                    schedule.get(e.dst).and_then(|d| {
                        let bound = dependence_bound(time, e.latency, ii, e.distance);
                        ((d.time as i64) < bound).then_some(e.dst)
                    })
                })
                .collect();
            for v in victims {
                if schedule.get(v).is_some() {
                    mrt.release(v);
                    schedule.remove(v);
                    unscheduled.push(v);
                    evictions += 1;
                }
            }
        }
        Some((ii, schedule, evictions, budget_used))
    }

    /// The DDG adjacency the linked lists in the edge table replaced: a
    /// `Vec<EdgeId>` of succs and one of preds per op slot, each kept in
    /// ascending id by appending and `retain`. `Debug` renders it as the
    /// `Ddg` that held these fields rendered by its derived impl.
    #[derive(Default)]
    pub struct Adjacency {
        ops: Vec<Option<Operation>>,
        edges: Vec<Option<DepEdge>>,
        succs: Vec<Vec<EdgeId>>,
        preds: Vec<Vec<EdgeId>>,
    }

    impl Adjacency {
        pub fn add_op(&mut self, op: Operation) -> OpId {
            self.ops.push(Some(op));
            self.succs.push(Vec::new());
            self.preds.push(Vec::new());
            OpId(self.ops.len() as u32 - 1)
        }

        pub fn remove_op(&mut self, id: OpId) {
            let incident: Vec<EdgeId> =
                self.preds[id.index()].iter().chain(&self.succs[id.index()]).copied().collect();
            for e in incident {
                if self.edges[e.index()].is_some() {
                    self.remove_edge(e);
                }
            }
            self.ops[id.index()] = None;
        }

        pub fn add_edge(&mut self, edge: DepEdge) -> EdgeId {
            let id = EdgeId(self.edges.len() as u32);
            self.succs[edge.src.index()].push(id);
            self.preds[edge.dst.index()].push(id);
            self.edges.push(Some(edge));
            id
        }

        pub fn remove_edge(&mut self, id: EdgeId) {
            let edge = self.edges[id.index()].take().expect("edge was already removed");
            self.succs[edge.src.index()].retain(|&e| e != id);
            self.preds[edge.dst.index()].retain(|&e| e != id);
        }

        fn listed(&self, list: &[EdgeId]) -> Vec<(EdgeId, DepEdge)> {
            list.iter().filter_map(|&e| self.edges[e.index()].map(|edge| (e, edge))).collect()
        }

        pub fn succs(&self, id: OpId) -> Vec<(EdgeId, DepEdge)> {
            self.listed(&self.succs[id.index()])
        }

        pub fn preds(&self, id: OpId) -> Vec<(EdgeId, DepEdge)> {
            self.listed(&self.preds[id.index()])
        }

        pub fn live_edges(&self) -> Vec<(EdgeId, DepEdge)> {
            let all: Vec<EdgeId> = (0..self.edges.len() as u32).map(EdgeId).collect();
            self.listed(&all)
        }

        fn is_live(&self, id: OpId) -> bool {
            self.ops.get(id.index()).is_some_and(Option::is_some)
        }

        pub fn validate(&self) -> Result<(), String> {
            for (id, edge) in self.live_edges() {
                if !self.is_live(edge.src) {
                    return Err(format!("edge {id:?} has a removed source {}", edge.src));
                }
                if !self.is_live(edge.dst) {
                    return Err(format!("edge {id:?} has a removed destination {}", edge.dst));
                }
                if edge.kind == DepKind::Flow && edge.latency == 0 {
                    return Err(format!("flow edge {id:?} ({edge}) has latency 0"));
                }
                if !self.succs[edge.src.index()].contains(&id) {
                    return Err(format!("edge {id:?} missing from succ list of {}", edge.src));
                }
                if !self.preds[edge.dst.index()].contains(&id) {
                    return Err(format!("edge {id:?} missing from pred list of {}", edge.dst));
                }
            }
            for (id, op) in self.ops.iter().enumerate() {
                let id = OpId(id as u32);
                for (producer, distance) in op.iter().flat_map(Operation::defs_read) {
                    match self.ops.get(producer.index()) {
                        Some(Some(p)) if p.kind.has_result() => {}
                        Some(Some(_)) => {
                            return Err(format!("{id} reads {producer}, which produces no result"))
                        }
                        _ => return Err(format!("{id} reads removed operation {producer}")),
                    }
                    let flow = |(_, e): &(EdgeId, DepEdge)| {
                        e.kind == DepKind::Flow && e.src == producer && e.distance == distance
                    };
                    if !self.preds(id).iter().any(flow) {
                        return Err(format!(
                            "{id} reads {producer} at distance {distance} with no flow edge from it"
                        ));
                    }
                }
            }
            Ok(())
        }
    }

    impl std::fmt::Debug for Adjacency {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Ddg")
                .field("ops", &self.ops)
                .field("edges", &self.edges)
                .field("succs", &self.succs)
                .field("preds", &self.preds)
                .finish()
        }
    }

    /// The tree decoder and encoder the one-pass wire codec replaced:
    /// `Json::parse` builds the whole tree, `decode_request` then reads it.
    pub mod wire {
        use dms_core::DmsConfig;
        use dms_ir::{Ddg, DepEdge, DepKind, Loop, OpId, OpKind, Operand, Operation};
        use dms_machine::TopologyKind;
        use dms_sched::SchedulerStrategy;
        use dms_service::wire::{WireMachine, WireRequest, WireSchedule};
        use dms_service::{ScheduleResponse, SchedulerKind, ServiceError};
        use std::fmt::Write as _;

        /// A parsed JSON value. Numbers are `i64` — every field of this
        /// protocol is integral.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Json {
            Null,
            Bool(bool),
            Num(i64),
            Str(String),
            Arr(Vec<Json>),
            /// An object (insertion-ordered).
            Obj(Vec<(String, Json)>),
        }

        impl Json {
            /// Parses one JSON document (trailing whitespace allowed,
            /// nothing else).
            pub fn parse(s: &str) -> Result<Json, String> {
                parse(s)
            }

            /// Member lookup on an object: the first of a duplicated key.
            pub fn get(&self, key: &str) -> Option<&Json> {
                match self {
                    Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }

            pub fn as_i64(&self) -> Option<i64> {
                match self {
                    Json::Num(n) => Some(*n),
                    _ => None,
                }
            }

            pub fn as_u64(&self) -> Option<u64> {
                self.as_i64().and_then(|n| u64::try_from(n).ok())
            }

            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Json::Str(s) => Some(s),
                    _ => None,
                }
            }

            pub fn as_bool(&self) -> Option<bool> {
                match self {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                }
            }

            pub fn as_arr(&self) -> Option<&[Json]> {
                match self {
                    Json::Arr(items) => Some(items),
                    _ => None,
                }
            }

            pub fn is_null(&self) -> bool {
                matches!(self, Json::Null)
            }

            /// Renders the value as compact JSON.
            pub fn render(&self) -> String {
                let mut out = String::new();
                self.render_into(&mut out);
                out
            }

            fn render_into(&self, out: &mut String) {
                match self {
                    Json::Null => out.push_str("null"),
                    Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Json::Num(n) => {
                        let _ = write!(out, "{n}");
                    }
                    Json::Str(s) => render_string(s, out),
                    Json::Arr(items) => {
                        out.push('[');
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            item.render_into(out);
                        }
                        out.push(']');
                    }
                    Json::Obj(members) => {
                        out.push('{');
                        for (i, (k, v)) in members.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            render_string(k, out);
                            out.push(':');
                            v.render_into(out);
                        }
                        out.push('}');
                    }
                }
            }
        }

        fn render_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn encode_error(message: &str) -> String {
            Json::Obj(vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(message.to_string())),
            ])
            .render()
        }

        /// `Json::parse`.
        fn parse(s: &str) -> Result<Json, String> {
            let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(format!("trailing garbage at byte {}", p.pos));
            }
            Ok(v)
        }

        /// The deepest array/object nesting a document may have. A real request
        /// nests only a few levels; the cap keeps a hostile line of `[` from
        /// overflowing a handler's stack through the recursive descent.
        const MAX_DEPTH: usize = 64;

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
            /// Arrays and objects currently open.
            depth: usize,
        }

        impl Parser<'_> {
            fn skip_ws(&mut self) {
                while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn expect(&mut self, b: u8) -> Result<(), String> {
                if self.peek() == Some(b) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(format!("expected '{}' at byte {}", b as char, self.pos))
                }
            }

            fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }

            fn value(&mut self) -> Result<Json, String> {
                match self.peek() {
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'"') => Ok(Json::Str(self.string()?)),
                    Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                        Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
                    }
                    Some(b'[') => self.nested(Self::array),
                    Some(b'{') => self.nested(Self::object),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    _ => Err(format!("unexpected input at byte {}", self.pos)),
                }
            }

            fn number(&mut self) -> Result<Json, String> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err(format!(
                        "floating-point numbers are not part of this protocol (byte {start})"
                    ));
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<i64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }

            fn string(&mut self) -> Result<String, String> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    match self.peek() {
                        None => return Err("unterminated string".to_string()),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
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
                                        .bytes
                                        .get(self.pos + 1..self.pos + 5)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or_else(|| {
                                            format!("bad \\u escape at byte {}", self.pos)
                                        })?;
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
                            // Consume the whole run up to the next quote or escape
                            // in one slice, so a string costs time linear in its
                            // length. Both stop bytes are ASCII, so the run ends on
                            // a character boundary of the (valid UTF-8) input.
                            let start = self.pos;
                            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                                self.pos += 1;
                            }
                            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| "invalid utf-8".to_string())?;
                            out.push_str(run);
                        }
                    }
                }
            }

            fn nested(
                &mut self,
                parse: fn(&mut Self) -> Result<Json, String>,
            ) -> Result<Json, String> {
                self.depth += 1;
                let value = parse(self);
                self.depth -= 1;
                value
            }

            fn array(&mut self) -> Result<Json, String> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }

            fn object(&mut self) -> Result<Json, String> {
                self.expect(b'{')?;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
        }

        fn op_kind_parse(s: &str) -> Result<OpKind, String> {
            Ok(match s {
                "load" => OpKind::Load,
                "store" => OpKind::Store,
                "add" => OpKind::Add,
                "sub" => OpKind::Sub,
                "mul" => OpKind::Mul,
                "div" => OpKind::Div,
                "copy" => OpKind::Copy,
                "move" => OpKind::Move,
                other => return Err(format!("unknown op kind {other:?}")),
            })
        }

        fn dep_kind_parse(s: &str) -> Result<DepKind, String> {
            Ok(match s {
                "flow" => DepKind::Flow,
                "anti" => DepKind::Anti,
                "output" => DepKind::Output,
                "memory" => DepKind::Memory,
                other => return Err(format!("unknown dependence kind {other:?}")),
            })
        }

        /// Encodes a schedule response (or failure) as one wire line.
        pub fn encode_response(result: &Result<ScheduleResponse, ServiceError>) -> String {
            match result {
                Err(e) => encode_error(&e.to_string()),
                Ok(resp) => {
                    let result = resp.output.result();
                    let (stats, mii) = (&result.stats, result.stats.mii.map_or(1, |m| m.mii()));
                    let summary_json = Json::Obj(vec![
                        ("loop".to_string(), Json::Str(result.loop_name.clone())),
                        ("ii".to_string(), Json::Num(i64::from(result.ii()))),
                        ("mii".to_string(), Json::Num(i64::from(mii))),
                        ("stages".to_string(), Json::Num(i64::from(result.schedule.stage_count()))),
                        ("ops".to_string(), Json::Num(result.ddg.num_live_ops() as i64)),
                        ("useful_ops".to_string(), Json::Num(result.useful_ops() as i64)),
                        ("copies".to_string(), Json::Num(stats.copies_inserted as i64)),
                        ("moves".to_string(), Json::Num(stats.moves_inserted as i64)),
                        ("ii_attempts".to_string(), Json::Num(i64::from(stats.ii_attempts))),
                    ]);
                    let dms = match resp.output.dms() {
                        None => Json::Null,
                        Some(o) => Json::Obj(vec![
                            ("first_ii".to_string(), Json::Num(i64::from(o.first_ii))),
                            (
                                "pressure_retries".to_string(),
                                Json::Num(i64::from(o.pressure_retries)),
                            ),
                            ("baseline_ii".to_string(), Json::Num(i64::from(o.baseline_ii))),
                            ("candidates".to_string(), Json::Num(i64::from(o.candidates_run))),
                            ("winner".to_string(), Json::Num(i64::from(o.winner_candidate))),
                        ]),
                    };
                    let verify = match resp.verify {
                        None => Json::Null,
                        Some(d) => Json::Obj(vec![
                            ("stores_checked".to_string(), Json::Num(d.stores_checked as i64)),
                            ("max_queue_depth".to_string(), Json::Num(d.max_queue_depth as i64)),
                            ("achieved_ii".to_string(), Json::Num(i64::from(d.achieved_ii))),
                        ]),
                    };
                    Json::Obj(vec![
                        ("ok".to_string(), Json::Bool(true)),
                        ("cache_hit".to_string(), Json::Bool(resp.cache_hit)),
                        (
                            "scheduler".to_string(),
                            Json::Str(
                                if resp.output.dms().is_some() { "dms" } else { "ims" }.to_string(),
                            ),
                        ),
                        ("summary".to_string(), summary_json),
                        ("dms".to_string(), dms),
                        ("verify".to_string(), verify),
                    ])
                    .render()
                }
            }
        }

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
        fn at_most<T: PartialOrd + std::fmt::Display>(
            value: T,
            max: T,
            field: &str,
        ) -> Result<T, String> {
            if value > max {
                return Err(format!("{field} {value} exceeds the admission bound {max}"));
            }
            Ok(value)
        }

        fn decode_operand(json: &Json) -> Result<Operand, String> {
            let arr = json.as_arr().ok_or("operand must be an array")?;
            let tag = arr.first().and_then(Json::as_str).ok_or("operand needs a tag")?;
            match tag {
                "def" => {
                    let op =
                        arr.get(1).and_then(Json::as_u64).ok_or("def needs a producer slot")?;
                    let distance =
                        arr.get(2).and_then(Json::as_u64).ok_or("def needs a distance")?;
                    Ok(Operand::Def {
                        op: OpId(narrow_u32(op, "operand producer slot")?),
                        distance: narrow_u32(distance, "operand distance")?,
                    })
                }
                "inv" => {
                    let i = arr.get(1).and_then(Json::as_u64).ok_or("inv needs an index")?;
                    Ok(Operand::Invariant(narrow_u32(i, "invariant index")?))
                }
                "imm" => {
                    let v = arr.get(1).and_then(Json::as_i64).ok_or("imm needs a value")?;
                    Ok(Operand::Immediate(v))
                }
                "ind" => Ok(Operand::Induction),
                other => Err(format!("unknown operand tag {other:?}")),
            }
        }

        /// Decodes the loop object back into a [`Loop`], reconstructing tombstone
        /// slots so every producer slot index of the wire form stays valid. A body
        /// with a dependence cycle of zero total distance is rejected: no II can
        /// schedule it, so the II search would walk its whole range to fail.
        pub fn decode_loop(json: &Json) -> Result<Loop, String> {
            let name =
                json.get("name").and_then(Json::as_str).ok_or("loop needs a name")?.to_string();
            let trip_count =
                json.get("trip_count").and_then(Json::as_u64).ok_or("loop needs a trip_count")?;
            let ops = json.get("ops").and_then(Json::as_arr).ok_or("loop needs an ops array")?;
            let edges =
                json.get("edges").and_then(Json::as_arr).ok_or("loop needs an edges array")?;

            let mut ddg = Ddg::new();
            // `tombstone[slot]`: the wire slot is `null`.
            let tombstone: Vec<bool> = ops.iter().map(Json::is_null).collect();
            for entry in ops {
                if entry.is_null() {
                    // Placeholder re-creating the tombstone: added now so later
                    // slots keep their index, removed again below.
                    ddg.add_op(Operation::new(OpKind::Add, Vec::new()));
                    continue;
                }
                let pair = entry.as_arr().ok_or("op must be [kind, [reads]]")?;
                let kind =
                    op_kind_parse(pair.first().and_then(Json::as_str).ok_or("op needs a kind")?)?;
                let reads = pair
                    .get(1)
                    .and_then(Json::as_arr)
                    .ok_or("op needs a reads array")?
                    .iter()
                    .map(decode_operand)
                    .collect::<Result<Vec<_>, _>>()?;
                ddg.add_op(Operation::new(kind, reads));
            }
            let live = |id: u64| -> Result<OpId, String> {
                let id = OpId(u32::try_from(id).map_err(|_| "op id out of range")?);
                if tombstone.get(id.index()) == Some(&false) {
                    Ok(id)
                } else {
                    Err(format!("edge references dead op slot {}", id.0))
                }
            };
            for entry in edges {
                let e = entry.as_arr().ok_or("edge must be [src, dst, kind, latency, distance]")?;
                if e.len() != 5 {
                    return Err("edge must have 5 fields".to_string());
                }
                let src = live(e[0].as_u64().ok_or("edge src must be a slot")?)?;
                let dst = live(e[1].as_u64().ok_or("edge dst must be a slot")?)?;
                let kind = dep_kind_parse(e[2].as_str().ok_or("edge kind must be a string")?)?;
                let latency = narrow_u32(
                    e[3].as_u64().ok_or("edge latency must be a number")?,
                    "edge latency",
                )?;
                let distance = narrow_u32(
                    e[4].as_u64().ok_or("edge distance must be a number")?,
                    "edge distance",
                )?;
                ddg.add_edge(DepEdge { src, dst, kind, latency, distance });
            }
            for (slot, _) in tombstone.iter().enumerate().filter(|(_, &dead)| dead) {
                ddg.remove_op(OpId(slot as u32));
            }
            ddg.validate().map_err(|e| format!("decoded DDG is malformed: {e}"))?;
            if !dms_ir::analysis::cycles_have_positive_distance(&ddg) {
                return Err("decoded DDG has a dependence cycle of zero total distance".to_string());
            }
            Ok(Loop { name, ddg, trip_count })
        }

        fn decode_machine(json: &Json) -> Result<WireMachine, String> {
            let clusters = narrow_u32(
                json.get("clusters")
                    .and_then(Json::as_u64)
                    .ok_or("machine needs a clusters count")?,
                "machine clusters",
            )?;
            if clusters == 0 {
                return Err("machine clusters must be at least 1".to_string());
            }
            Ok(WireMachine {
                unclustered: json.get("unclustered").and_then(Json::as_bool).unwrap_or(false),
                clusters: at_most(clusters, MAX_CLUSTERS, "machine clusters")?,
                copy_units: at_most(
                    narrow_u32(
                        json.get("copy_units").and_then(Json::as_u64).unwrap_or(1),
                        "machine copy_units",
                    )?,
                    MAX_COPY_UNITS,
                    "machine copy_units",
                )?,
                cqrf_capacity: match json.get("cqrf_capacity") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(narrow_u32(
                        v.as_u64().ok_or("cqrf_capacity must be a number or null")?,
                        "machine cqrf_capacity",
                    )?),
                },
                topology: match json.get("topology") {
                    None | Some(Json::Null) => TopologyKind::Ring,
                    Some(v) => TopologyKind::parse(v.as_str().ok_or("topology must be a string")?)?,
                },
            })
        }

        /// Decodes one request line.
        ///
        /// # Errors
        ///
        /// Returns a message suitable for an [`encode_error`] reply.
        pub fn decode_request(line: &str) -> Result<WireRequest, String> {
            let json = parse(line)?;
            match json.get("op").and_then(Json::as_str) {
                Some("stats") => Ok(WireRequest::Stats),
                Some("metrics") => Ok(WireRequest::Metrics),
                Some("shutdown") => Ok(WireRequest::Shutdown),
                Some("schedule") => {
                    let body = decode_loop(json.get("loop").ok_or("schedule needs a loop")?)?;
                    let machine =
                        decode_machine(json.get("machine").ok_or("schedule needs a machine")?)?;
                    let scheduler = match json.get("scheduler").and_then(Json::as_str) {
                        Some("ims") => SchedulerKind::Ims,
                        Some("dms") | None => SchedulerKind::Dms,
                        Some(other) => return Err(format!("unknown scheduler {other:?}")),
                    };
                    let mut dms = DmsConfig::default();
                    if let Some(s) = json.get("strategy").and_then(Json::as_str) {
                        dms.strategy = SchedulerStrategy::parse(s)?;
                        match dms.strategy {
                            SchedulerStrategy::Dms => {}
                            SchedulerStrategy::Beam { width } => {
                                at_most(width, MAX_CANDIDATES, "strategy beam width")?;
                            }
                            SchedulerStrategy::Portfolio { n_candidates, .. } => {
                                at_most(
                                    n_candidates,
                                    MAX_CANDIDATES,
                                    "strategy portfolio candidates",
                                )?;
                            }
                        }
                    }
                    if let Some(seed) = json.get("ii_seed").filter(|v| !v.is_null()) {
                        dms.ii_seed = Some(narrow_u32(
                            seed.as_u64().ok_or("ii_seed must be a number or null")?,
                            "ii_seed",
                        )?);
                    }
                    let verify_trips = match json.get("verify_trips") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(at_most(
                            v.as_u64().ok_or("verify_trips must be a number or null")?,
                            MAX_VERIFY_TRIPS,
                            "verify_trips",
                        )?),
                    };
                    let contention = match json.get("contention") {
                        None | Some(Json::Null) => false,
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
}

/// One distinct body of the test corpus and the cluster counts whose paper
/// machine unrolls to it.
struct Body {
    body: Loop,
    clusters: Vec<u32>,
}

/// The paper suite unrolled for clusters 1–10, one entry per distinct
/// (loop, unroll factor) — neighbouring cluster counts often share a
/// factor — followed by the kernels, each on the 4-cluster machine.
fn corpus() -> Vec<Body> {
    let policy = UnrollPolicy::default();
    let mut bodies = Vec::new();
    for l in generate(&SuiteConfig::paper()) {
        let mut factors: Vec<(u32, Body)> = Vec::new();
        for clusters in 1..=10 {
            let fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
            let factor = policy.factor(l.body.useful_ops(), fus);
            match factors.iter_mut().find(|(f, _)| *f == factor) {
                Some((_, b)) => b.clusters.push(clusters),
                None => factors.push((
                    factor,
                    Body {
                        body: unroll_for_machine(&l.body, fus, &policy),
                        clusters: vec![clusters],
                    },
                )),
            }
        }
        bodies.extend(factors.into_iter().map(|(_, b)| b));
    }
    bodies.extend(kernels::all(64).into_iter().map(|body| Body { body, clusters: vec![4] }));
    bodies
}

/// The body's DDG after the single-use conversion.
fn single_use(body: &Loop) -> Ddg {
    let mut ddg = body.ddg.clone();
    convert_to_single_use(&mut ddg, &LatencySpec::default());
    ddg
}

#[test]
fn the_corpus_covers_every_paper_grid_cell() {
    let cells: usize = corpus().iter().map(|b| b.clusters.len()).sum();
    assert_eq!(cells, 1258 * 10 + kernels::all(64).len());
}

/// The field guard partitions bodies exactly as the `Debug`-rendered guard
/// does: each maps one-to-one onto the other. Every body enters as unrolled
/// and after single-use conversion (whose removed edges leave tombstones),
/// each once with its own name and trip count and once stripped of both, so
/// the bodies of different loops with identical DDGs must collide.
#[test]
fn the_field_guard_is_equal_exactly_when_the_debug_guard_is() {
    let mut fast_of: HashMap<u64, u64> = HashMap::new();
    let mut debug_of: HashMap<u64, u64> = HashMap::new();
    let mut check = |l: &Loop| {
        let (fast, debug) = (guard_fingerprint(l), reference::debug_guard(l));
        assert_eq!(*fast_of.entry(debug).or_insert(fast), fast, "{}", l.name);
        assert_eq!(*debug_of.entry(fast).or_insert(debug), debug, "{}", l.name);
    };
    let mut checked = 0;
    for b in corpus() {
        let converted = Loop { ddg: single_use(&b.body), ..b.body.clone() };
        for l in [b.body, converted] {
            check(&l);
            check(&Loop::new("", l.ddg, 0));
            checked += 2;
        }
    }
    assert_eq!(fast_of.len(), debug_of.len());
    assert!(fast_of.len() < checked, "identical DDGs of different loops share a guard");
}

#[test]
fn single_use_conversion_matches_the_per_producer_scan() {
    let latency = LatencySpec::default();
    let mut copies = 0;
    for b in corpus() {
        let (mut fast, mut reference) = (b.body.ddg.clone(), b.body.ddg.clone());
        let fast_copies = convert_to_single_use(&mut fast, &latency);
        let reference_copies = reference::convert_to_single_use(&mut reference, &latency);
        assert_eq!(fast_copies, reference_copies, "{}", b.body.name);
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{}", b.body.name);
        copies += fast_copies;
    }
    assert!(copies > 0, "the corpus exercises copy chains");
}

#[test]
fn rec_mii_matches_the_reference_before_and_after_conversion() {
    for b in corpus() {
        let converted = single_use(&b.body);
        for ddg in [&b.body.ddg, &converted] {
            assert_eq!(rec_mii(ddg).unwrap(), reference::rec_mii(ddg), "{}", b.body.name);
        }
    }
}

/// Tarjan emits this graph's components as `[x6], [x5, x4], [x3], [x2, x1],
/// [x0]`: acyclic singletons interleaved with two cyclic components, with
/// edges from each cyclic component into components emitted before it. A
/// position map that kept an earlier component's entries — an acyclic
/// singleton's (`x5 -> x6`, `x2 -> x3`) or a cyclic one's (`x1 -> x4`) —
/// would read those edges as self-loops and raise the bound.
#[test]
fn rec_mii_ignores_edges_into_earlier_components() {
    let latency = LatencySpec::default();
    let mut ddg = Ddg::new();
    let kinds = [
        OpKind::Load,
        OpKind::Add,
        OpKind::Mul,
        OpKind::Add,
        OpKind::Add,
        OpKind::Add,
        OpKind::Store,
    ];
    let x: Vec<OpId> = kinds.iter().map(|&k| ddg.add_op(Operation::new(k, Vec::new()))).collect();
    let reads: [(usize, &[(usize, u32)]); 6] = [
        (1, &[(0, 0), (2, 1)]),
        (2, &[(1, 0)]),
        (3, &[(2, 0)]),
        (4, &[(3, 0), (5, 1), (1, 0)]),
        (5, &[(4, 0)]),
        (6, &[(5, 0)]),
    ];
    for (consumer, defs) in reads {
        for &(producer, distance) in defs {
            ddg.op_mut(x[consumer]).reads.push(Operand::def_at(x[producer], distance));
            let lat = latency.of(kinds[producer]);
            ddg.add_edge(DepEdge::flow(x[producer], x[consumer], lat, distance));
        }
    }
    assert!(ddg.validate().is_ok());
    let comps = analysis::sccs(&ddg);
    let order = [vec![6], vec![5, 4], vec![3], vec![2, 1], vec![0]];
    assert_eq!(comps, order.map(|c| c.into_iter().map(|i| x[i]).collect::<Vec<_>>()));

    // {x1, x2}: add (1) + mul (2) over distance 1; {x4, x5}: 1 + 1 over 1.
    assert_eq!(rec_mii(&ddg).unwrap(), 3);
    assert_eq!(reference::rec_mii(&ddg), 3);
}

/// At every II from the MII to MII+3 — on the clustered machine for the
/// converted body DMS schedules, on the unclustered one for the body IMS
/// schedules — the one-sweep heights equal the id-order fixpoint.
#[test]
fn heights_match_the_id_order_fixpoint_from_mii_to_mii_plus_3() {
    for b in corpus() {
        let converted = single_use(&b.body);
        // (DMS body?, II) for every II some cell's search starts within 3 of.
        let mut targets = BTreeSet::new();
        for &clusters in &b.clusters {
            let dms_mii = mii(&converted, &MachineConfig::paper_clustered(clusters)).unwrap();
            let ims_mii = mii(&b.body.ddg, &MachineConfig::unclustered(clusters)).unwrap();
            targets.extend((0..=3).map(|k| (true, dms_mii.mii() + k)));
            targets.extend((0..=3).map(|k| (false, ims_mii.mii() + k)));
        }
        for (dms, ii) in targets {
            let ddg = if dms { &converted } else { &b.body.ddg };
            assert_eq!(heights(ddg, ii), reference::heights(ddg, ii), "{} II {ii}", b.body.name);
        }
    }
}

#[test]
fn sccs_match_the_recursive_reference_before_and_after_conversion() {
    for b in corpus() {
        let converted = single_use(&b.body);
        for ddg in [&b.body.ddg, &converted] {
            assert_eq!(analysis::sccs(ddg), reference::sccs(ddg), "{}", b.body.name);
        }
    }
}

/// Requires `ddg` to answer every adjacency query as `reference` does, and
/// to render as it does.
fn assert_same_adjacency(ddg: &Ddg, reference: &reference::Adjacency, pretty: bool, at: &str) {
    let pairs = |it: &mut dyn Iterator<Item = (EdgeId, &DepEdge)>| -> Vec<(EdgeId, DepEdge)> {
        it.map(|(id, e)| (id, *e)).collect()
    };
    let flow = |list: Vec<(EdgeId, DepEdge)>| -> Vec<(EdgeId, DepEdge)> {
        list.into_iter().filter(|(_, e)| e.kind.carries_value()).collect()
    };
    for op in (0..ddg.num_slots() as u32).map(OpId) {
        assert_eq!(pairs(&mut ddg.succs(op)), reference.succs(op), "{at}: succs of {op}");
        assert_eq!(pairs(&mut ddg.preds(op)), reference.preds(op), "{at}: preds of {op}");
        assert_eq!(pairs(&mut ddg.flow_succs(op)), flow(reference.succs(op)), "{at}: {op}");
        assert_eq!(pairs(&mut ddg.flow_preds(op)), flow(reference.preds(op)), "{at}: {op}");
    }
    assert_eq!(pairs(&mut ddg.live_edges()), reference.live_edges(), "{at}: live edges");
    assert_eq!(ddg.validate(), reference.validate(), "{at}: validate");
    assert_eq!(format!("{ddg:?}"), format!("{reference:?}"), "{at}: Debug");
    if pretty {
        assert_eq!(format!("{ddg:#?}"), format!("{reference:#?}"), "{at}: pretty Debug");
    }
}

/// A random operation reading up to two random live ops (any of which may
/// be a store, so `validate` fails on some graphs as it should).
fn random_operation(rng: &mut StdRng, live: &[OpId]) -> Operation {
    const KINDS: [OpKind; 5] =
        [OpKind::Load, OpKind::Store, OpKind::Add, OpKind::Copy, OpKind::Move];
    let reads = (0..rng.gen_range(0..=2usize))
        .map(|_| {
            if live.is_empty() {
                Operand::Induction
            } else {
                Operand::def_at(live[rng.gen_range(0..live.len())], rng.gen_range(0..=1u32))
            }
        })
        .collect();
    Operation::new(KINDS[rng.gen_range(0..KINDS.len())], reads)
}

/// The linked succ and pred lists answer every query and render exactly as
/// the `Vec<EdgeId>` lists did, after every step of seeded random graph
/// edits: self-edges and parallel edges among a few ops, removal of the
/// first, a middle and the last edge of a list, and removal of ops with
/// edges in both directions.
#[test]
fn linked_adjacency_matches_the_vec_reference_under_random_edits() {
    let mut rng = StdRng::seed_from_u64(25);
    let (mut self_edges, mut removed_at) = (0, [0; 3]);
    for case in 0..3_000 {
        let mut ddg = Ddg::new();
        let mut reference = reference::Adjacency::default();
        for step in 0..rng.gen_range(1..=40) {
            let live: Vec<OpId> = ddg.live_op_ids().collect();
            let action = if live.is_empty() { 0 } else { rng.gen_range(0..10) };
            match action {
                0..=2 => {
                    let op = random_operation(&mut rng, &live);
                    assert_eq!(ddg.add_op(op.clone()), reference.add_op(op));
                }
                3..=6 => {
                    let src = live[rng.gen_range(0..live.len())];
                    let dst =
                        if rng.gen_bool(0.2) { src } else { live[rng.gen_range(0..live.len())] };
                    self_edges += usize::from(src == dst);
                    let kinds = [DepKind::Flow, DepKind::Anti, DepKind::Output, DepKind::Memory];
                    let edge = DepEdge {
                        src,
                        dst,
                        kind: kinds[rng.gen_range(0..kinds.len())],
                        latency: rng.gen_range(0..=3u32),
                        distance: rng.gen_range(0..=1u32),
                    };
                    assert_eq!(ddg.add_edge(edge), reference.add_edge(edge));
                }
                7..=8 => {
                    let op = live[rng.gen_range(0..live.len())];
                    let list: Vec<EdgeId> = if rng.gen_bool(0.5) {
                        ddg.succs(op).map(|(id, _)| id).collect()
                    } else {
                        ddg.preds(op).map(|(id, _)| id).collect()
                    };
                    if !list.is_empty() {
                        let at = rng.gen_range(0..3usize);
                        removed_at[at] += usize::from(list.len() > 2);
                        let e = list[[0, list.len() / 2, list.len() - 1][at]];
                        ddg.remove_edge(e);
                        reference.remove_edge(e);
                    }
                }
                _ => {
                    let op = live[rng.gen_range(0..live.len())];
                    ddg.remove_op(op);
                    reference.remove_op(op);
                }
            }
            assert_same_adjacency(
                &ddg,
                &reference,
                step % 8 == 0,
                &format!("case {case} step {step}"),
            );
        }
    }
    assert!(self_edges > 1_000, "only {self_edges} self-edges");
    assert!(removed_at.iter().all(|&n| n > 200), "removals by position {removed_at:?}");
}

/// The succ and pred lists of `ddg` as the `Vec<EdgeId>` layout held them:
/// each op's live edges in ascending id, from a scan of the edge table.
fn scanned_lists(ddg: &Ddg) -> (Vec<Vec<EdgeId>>, Vec<Vec<EdgeId>>) {
    let mut lists = (vec![Vec::new(); ddg.num_slots()], vec![Vec::new(); ddg.num_slots()]);
    for (id, e) in ddg.live_edges() {
        lists.0[e.src.index()].push(id);
        lists.1[e.dst.index()].push(id);
    }
    lists
}

/// Every corpus body before and after the single-use conversion, and the
/// DDG DMS returns for it on the widest paper machine it is unrolled for
/// (copies, moves and the tombstones of dismantled chains included), lists
/// exactly the edges a scan of its edge table finds, and renders them as
/// the `Vec<EdgeId>` layout did.
#[test]
fn linked_adjacency_matches_the_edge_table_on_the_corpus_and_its_dms_output() {
    let mut checked = 0;
    for b in corpus() {
        let machine = MachineConfig::paper_clustered(*b.clusters.last().unwrap());
        let outcome = dms_core::dms_schedule(&b.body, &machine, &dms_core::DmsConfig::default());
        let ddgs = [b.body.ddg.clone(), single_use(&b.body), outcome.unwrap().result.ddg];
        for ddg in &ddgs {
            let (succs, preds) = scanned_lists(ddg);
            for op in (0..ddg.num_slots() as u32).map(OpId) {
                let ids = |it: &mut dyn Iterator<Item = (EdgeId, &DepEdge)>| -> Vec<EdgeId> {
                    it.map(|(id, _)| id).collect()
                };
                assert_eq!(ids(&mut ddg.succs(op)), succs[op.index()], "{} {op}", b.body.name);
                assert_eq!(ids(&mut ddg.preds(op)), preds[op.index()], "{} {op}", b.body.name);
            }
            assert_eq!(ddg.validate(), Ok(()), "{}", b.body.name);
            let rendered = format!("{ddg:?}");
            let lists = format!(", succs: {succs:?}, preds: {preds:?} }}");
            assert!(rendered.ends_with(&lists), "{}: {rendered}", b.body.name);
            checked += 1;
        }
    }
    assert!(checked > 3 * 5_000, "{checked} DDGs");
}

/// The requests the `service-mixed` benchmark sends, one per cell of its
/// universe: 400 cells over the 1,258-loop suite, cluster counts cycling
/// through 1–10, and a mix of plain, verified and contention-timed DMS on
/// three topologies, IMS, and a 4-candidate portfolio (the universe of
/// `perfbench/src/service_mixed.rs`). Then the requests of
/// `dms-experiments client` at its defaults (4 loops on 2 and 4 clusters).
fn served_request_lines() -> Vec<String> {
    use dms_sched::{SchedulerStrategy, DEFAULT_EXPLOIT_PERCENT};
    use dms_service::wire::{encode_schedule_request, WireMachine, WireSchedule};
    use dms_service::SchedulerKind;

    let loops = 1_258;
    let suite = generate(&SuiteConfig::small(loops));
    // D: DMS, V: verified, P: portfolio:4, I: IMS, C/B: verified and
    // contention-timed on chordal:2 / on a bus.
    let mix = b"DDVDPDIDCDPDVDIDBDPD";
    let mut lines: Vec<String> = (0..400)
        .map(|i| {
            let kind = mix[i % mix.len()];
            let clusters = 1 + (i * 3 % 10) as u32;
            let body = &suite[i * loops / 400].body;
            let useful_fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
            let strategy = match kind {
                b'P' => SchedulerStrategy::Portfolio {
                    n_candidates: 4,
                    exploit_percent: DEFAULT_EXPLOIT_PERCENT,
                },
                _ => SchedulerStrategy::Dms,
            };
            encode_schedule_request(&WireSchedule {
                body: unroll_for_machine(body, useful_fus, &UnrollPolicy::default()),
                machine: WireMachine {
                    unclustered: kind == b'I',
                    clusters,
                    copy_units: 1,
                    cqrf_capacity: None,
                    topology: match kind {
                        b'C' => dms_machine::TopologyKind::ChordalRing { chord: 2 },
                        b'B' => dms_machine::TopologyKind::Bus,
                        _ => dms_machine::TopologyKind::Ring,
                    },
                },
                scheduler: if kind == b'I' { SchedulerKind::Ims } else { SchedulerKind::Dms },
                dms: dms_core::DmsConfig { strategy, ..dms_core::DmsConfig::default() },
                verify_trips: matches!(kind, b'V' | b'C' | b'B')
                    .then(|| body.trip_count.min(dms_experiments::runner::VERIFY_TRIP_CAP)),
                contention: matches!(kind, b'C' | b'B'),
            })
        })
        .collect();
    let config = dms_experiments::ExperimentConfig::quick(4);
    for suite_loop in &generate(&config.suite) {
        for clusters in [2, 4] {
            let useful_fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
            lines.push(encode_schedule_request(&WireSchedule {
                body: unroll_for_machine(&suite_loop.body, useful_fus, &config.unroll),
                machine: WireMachine {
                    unclustered: false,
                    clusters,
                    copy_units: 1,
                    cqrf_capacity: None,
                    topology: dms_machine::TopologyKind::Ring,
                },
                scheduler: SchedulerKind::Dms,
                dms: dms_core::DmsConfig::default(),
                verify_trips: None,
                contention: false,
            }));
        }
    }
    lines
}

/// Decodes `line` with the one-pass decoder and the tree reference and
/// requires the same request (by `Debug`, so tombstones, edge ids and the
/// `succs`/`preds` lists too) or the same error message.
fn assert_decodes_as_the_reference(line: &str) -> bool {
    let fast = dms_service::wire::decode_request(line);
    let tree = reference::wire::decode_request(line);
    match (&fast, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "line {line}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "line {line}"),
        _ => panic!("line {line}: one-pass {fast:?} vs tree {tree:?}"),
    }
    fast.is_ok()
}

/// The paths to every node of a JSON tree (member or element indices).
fn json_paths(json: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(path.clone());
    let children: Vec<&Json> = match json {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        json_paths(child, path, out);
        path.pop();
    }
}

fn json_at<'j>(json: &'j mut Json, path: &[usize]) -> &'j mut Json {
    path.iter().fold(json, |node, &i| match node {
        Json::Arr(items) => &mut items[i],
        Json::Obj(members) => &mut members[i].1,
        _ => unreachable!("paths only lead through arrays and objects"),
    })
}

fn shuffle_members(json: &mut Json, rng: &mut StdRng) {
    match json {
        Json::Arr(items) => items.iter_mut().for_each(|item| shuffle_members(item, rng)),
        Json::Obj(members) => {
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            members.iter_mut().for_each(|(_, v)| shuffle_members(v, rng));
        }
        _ => {}
    }
}

/// Renders `json` with random whitespace around every token.
fn render_spaced(json: &Json, rng: &mut StdRng, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        for _ in 0..rng.gen_range(0..3) {
            out.push([' ', '\t', '\n', '\r'][rng.gen_range(0..4)]);
        }
    };
    ws(rng, out);
    match json {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_spaced(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&Json::Str(k.clone()).render());
                ws(rng, out);
                out.push(':');
                render_spaced(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
    ws(rng, out);
}

/// One seeded mutation of a request line.
fn mutate(line: &str, rng: &mut StdRng) -> String {
    // A string no request holds, replaced by raw text after rendering.
    const RAW: &str = "\u{1}raw";
    let mut json = Json::parse(line).unwrap();
    let mut paths = Vec::new();
    json_paths(&json, &mut Vec::new(), &mut paths);
    let pick = |rng: &mut StdRng, want: &dyn Fn(&Json) -> bool, json: &mut Json| {
        let fits: Vec<&Vec<usize>> =
            paths.iter().filter(|p| want(json_at(json, p))).collect::<Vec<_>>();
        fits[rng.gen_range(0..fits.len())].clone()
    };
    let mut raw = String::new();
    match rng.gen_range(0..10) {
        // Permute the members of every object: edges may come before ops.
        0 => shuffle_members(&mut json, rng),
        // Duplicate a member, with another value, before or after it.
        1 => {
            let path = pick(rng, &|j| matches!(j, Json::Obj(m) if !m.is_empty()), &mut json);
            let Json::Obj(members) = json_at(&mut json, &path) else { unreachable!() };
            let (key, value) = members[rng.gen_range(0..members.len())].clone();
            let value = if rng.gen_bool(0.5) { Json::Null } else { Json::Arr(vec![value]) };
            members.insert(rng.gen_range(0..=members.len()), (key, value));
        }
        // An unknown member holding any value.
        2 => {
            let path = pick(rng, &|j| matches!(j, Json::Obj(_)), &mut json);
            let value = json_at(&mut json, &paths[rng.gen_range(0..paths.len())]).clone();
            let Json::Obj(members) = json_at(&mut json, &path) else { unreachable!() };
            members.insert(rng.gen_range(0..=members.len()), ("unknown".to_string(), value));
        }
        // Extra whitespace between every two tokens.
        3 => {
            let mut out = String::new();
            render_spaced(&json, rng, &mut out);
            return out;
        }
        // A number from the edges of the integer ranges.
        4 | 5 => {
            let path = pick(rng, &|j| matches!(j, Json::Num(_)), &mut json);
            let k = rng.gen_range(0..=64u32);
            raw = match rng.gen_range(0..7) {
                0 => "0".to_string(),
                1 => "1".to_string(),
                2 => ((1u128 << k) - 1).to_string(),
                3 => (1u128 << k).to_string(),
                4 => u32::MAX.to_string(),
                5 => i64::MIN.to_string(),
                _ => i64::MAX.to_string(),
            };
            *json_at(&mut json, &path) = Json::Str(RAW.to_string());
        }
        // A float where an integer was.
        6 => {
            let path = pick(rng, &|j| matches!(j, Json::Num(_)), &mut json);
            raw = ["1.5", "2e3", "-0.5E-1", "7."][rng.gen_range(0..4)].to_string();
            *json_at(&mut json, &path) = Json::Str(RAW.to_string());
        }
        // Nesting around the 64-level cap.
        7 => {
            let path = paths[rng.gen_range(0..paths.len())].clone();
            let levels = 64 - path.len().min(64) + rng.gen_range(0..=2);
            raw = format!("{}0{}", "[".repeat(levels), "]".repeat(levels));
            *json_at(&mut json, &path) = Json::Str(RAW.to_string());
        }
        // Any node replaced by a value of another type or a telling string.
        8 => {
            let path = paths[rng.gen_range(0..paths.len())].clone();
            let strings = ["add", "flow", "def", "ims", "beam:65", "chordal:3", "", "é\"\\"];
            *json_at(&mut json, &path) = match rng.gen_range(0..6) {
                0 => Json::Null,
                1 => Json::Bool(rng.gen_bool(0.5)),
                2 => Json::Arr(Vec::new()),
                3 => Json::Obj(Vec::new()),
                4 => Json::Num(rng.gen_range(0..8)),
                _ => Json::Str(strings[rng.gen_range(0..strings.len())].to_string()),
            };
        }
        // A member or element removed.
        _ => {
            let path = pick(
                rng,
                &|j| {
                    matches!(j, Json::Obj(m) if !m.is_empty())
                        || matches!(j, Json::Arr(a) if !a.is_empty())
                },
                &mut json,
            );
            match json_at(&mut json, &path) {
                Json::Obj(members) => drop(members.remove(rng.gen_range(0..members.len()))),
                Json::Arr(items) => drop(items.remove(rng.gen_range(0..items.len()))),
                _ => unreachable!(),
            }
        }
    }
    json.render().replace(&Json::Str(RAW.to_string()).render(), &raw)
}

/// The one-pass request decoder against the tree decoder it replaced, on
/// every request the benchmark's universe and the CLI client send, then on
/// seeded mutations of them: each line decodes to the same request or
/// fails with the same message. Mutations cover every truncation of three
/// lines, permuted and duplicated keys, unknown keys, extra whitespace,
/// integers at the edges of `u32`, `i64` and beyond, floats, nesting
/// around the 64-level cap, retyped values, removed members and elements.
#[test]
fn decoder_matches_the_tree_reference() {
    let lines = served_request_lines();
    assert_eq!(lines.len(), 408);
    for line in &lines {
        assert!(assert_decodes_as_the_reference(line), "a served request must decode");
    }
    // The shortest plain DMS, IMS and contention-timed requests.
    let shortest =
        |marker: &str| lines.iter().filter(|l| l.contains(marker)).min_by_key(|l| l.len()).unwrap();
    for line in [
        shortest(r#""scheduler":"dms","strategy":"dms","ii_seed":null,"verify_trips":null"#),
        shortest(r#""scheduler":"ims""#),
        shortest(r#""contention":true"#),
    ] {
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            assert_decodes_as_the_reference(&line[..end]);
        }
    }
    let mut rng = StdRng::seed_from_u64(23);
    let (mut decoded, mutations) = (0, 3_000);
    for _ in 0..mutations {
        let line = mutate(&lines[rng.gen_range(0..lines.len())], &mut rng);
        decoded += usize::from(assert_decodes_as_the_reference(&line));
    }
    assert!(
        (mutations / 5..mutations * 4 / 5).contains(&decoded),
        "{decoded} of {mutations} mutated lines decode: both outcomes must be exercised"
    );
}

/// The response renderer against the tree it replaced, on full responses
/// and on the service's answers, missed and hit: plain, verified and
/// contention-timed DMS, a portfolio search, IMS, a loop name that needs
/// escapes, and an error.
#[test]
fn encoder_matches_the_tree_reference() {
    use dms_service::{wire, ScheduleRequest, ScheduleResponse, ScheduleService, SchedulerKind};
    let service = ScheduleService::default();
    let clustered = MachineConfig::paper_clustered(4);
    let bus = MachineConfig::paper_clustered(4).with_topology(dms_machine::TopologyKind::Bus);
    let unclustered = MachineConfig::unclustered(4);
    let portfolio = dms_core::DmsConfig {
        strategy: dms_sched::SchedulerStrategy::Portfolio { n_candidates: 2, exploit_percent: 50 },
        ..dms_core::DmsConfig::default()
    };
    let no_load_store = MachineConfig::homogeneous(
        4,
        dms_machine::ClusterFus { load_store: 0, ..dms_machine::ClusterFus::PAPER },
        LatencySpec::default(),
    );
    let mut bodies = kernels::all(64);
    bodies[0].name = "fïr \"α\"\\β\n→😀\t\u{1}end".to_string();
    for body in &bodies {
        let dms = ScheduleRequest {
            body,
            machine: &clustered,
            dms: dms_core::DmsConfig::default(),
            scheduler: SchedulerKind::Dms,
            verify_trips: None,
            contention: false,
        };
        for req in [
            dms,
            ScheduleRequest { verify_trips: Some(16), ..dms },
            ScheduleRequest { machine: &bus, verify_trips: Some(16), contention: true, ..dms },
            ScheduleRequest { dms: portfolio, ..dms },
            ScheduleRequest { machine: &unclustered, scheduler: SchedulerKind::Ims, ..dms },
            ScheduleRequest { machine: &no_load_store, ..dms },
        ] {
            for _ in ["miss", "hit"] {
                let answer = service.answer(&req);
                let cache_hit = answer.as_ref().is_ok_and(|a| a.cache_hit);
                let full = service.schedule(&req).map(|r| ScheduleResponse { cache_hit, ..r });
                let expected = reference::wire::encode_response(&full);
                assert_eq!(wire::encode_response(&full), expected);
                assert_eq!(wire::encode_answer(&body.name, &answer), expected);
            }
        }
    }
}

/// The record the service answers with, cold and warm, is the one read
/// off the full output of the same request, on every cell of the 48-loop
/// served set (`dms-experiments client --loops 48 --clusters 1,...,10`):
/// DMS on the clustered machine and IMS on the unclustered one.
#[test]
fn answer_records_match_the_full_output_cold_and_warm() {
    use dms_service::{ScheduleRecord, ScheduleRequest, ScheduleService, SchedulerKind};
    let config = dms_experiments::ExperimentConfig::quick(48);
    let service = ScheduleService::default();
    for suite_loop in &generate(&config.suite) {
        for clusters in 1..=10 {
            let clustered = MachineConfig::paper_clustered(clusters);
            let unclustered = MachineConfig::unclustered(clusters);
            let body =
                unroll_for_machine(&suite_loop.body, clustered.total_useful_fus(), &config.unroll);
            let dms = ScheduleRequest {
                body: &body,
                machine: &clustered,
                dms: dms_core::DmsConfig::default(),
                scheduler: SchedulerKind::Dms,
                verify_trips: None,
                contention: false,
            };
            let ims =
                ScheduleRequest { machine: &unclustered, scheduler: SchedulerKind::Ims, ..dms };
            for req in [dms, ims] {
                let full = service.schedule(&req).unwrap();
                assert!(!full.cache_hit);
                let expected = ScheduleRecord::new(&full.output, full.verify);
                let cold = service.answer(&req).unwrap();
                assert!(!cold.cache_hit);
                assert_eq!(cold.record, expected, "{} at {clusters} clusters", body.name);
                let warm = service.answer(&req).unwrap();
                assert!(warm.cache_hit);
                assert_eq!(warm.record, expected, "{} at {clusters} clusters, warm", body.name);
            }
        }
    }
    assert_eq!(service.cache_len(), 960, "every cell's two requests are distinct");
}

/// Every byte the wire encoders write, pinned: an FNV-1a digest over the
/// 408 served requests, a request whose loop name needs escapes and one
/// with tombstone slots, then each small request and reply line as a
/// literal. A parent server and a new client (or the reverse) exchange
/// exactly these lines.
#[test]
fn wire_bytes_match_the_pinned_lines() {
    use dms_service::cache::CacheCounters;
    use dms_service::wire::{self, WireMachine, WireSchedule};
    let request = |body: Loop| {
        wire::encode_schedule_request(&WireSchedule {
            body,
            machine: WireMachine {
                unclustered: false,
                clusters: 3,
                copy_units: 2,
                cqrf_capacity: Some(12),
                topology: dms_machine::TopologyKind::ChordalRing { chord: 2 },
            },
            scheduler: dms_service::SchedulerKind::Dms,
            dms: dms_core::DmsConfig { ii_seed: Some(5), ..dms_core::DmsConfig::default() },
            verify_trips: Some(16),
            contention: true,
        })
    };
    let mut escaped = kernels::fir(4, 32);
    escaped.name = "fïr \"α\"\\β\n→😀\t\u{1}end".to_string();
    let mut tombstones = kernels::dot_product(32);
    let dead = tombstones.ddg.add_op(Operation::new(OpKind::Add, vec![Operand::Immediate(-1)]));
    tombstones.ddg.add_op(Operation::new(OpKind::Add, vec![Operand::Invariant(2)]));
    tombstones.ddg.remove_op(dead);
    let mut lines = served_request_lines();
    lines.extend([request(escaped), request(tombstones)]);
    assert!(lines[408].contains(r#""name":"fïr \"α\"\\β\n→😀\t\u0001end""#), "{}", lines[408]);
    assert!(lines[409].contains(r#",null,["add",[["inv",2]]]],"edges":"#), "{}", lines[409]);
    let mut h = Fnv::new();
    for line in &lines {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    assert_eq!(format!("{:016x}", h.finish()), "253655b00d29e874");

    assert_eq!(wire::encode_stats_request(), r#"{"op":"stats"}"#);
    assert_eq!(wire::encode_metrics_request(), r#"{"op":"metrics"}"#);
    assert_eq!(wire::encode_shutdown_request(), r#"{"op":"shutdown"}"#);
    assert_eq!(
        wire::encode_stats_response(CacheCounters { hits: 7, misses: 3, inserts: 2 }, 11),
        r#"{"ok":true,"hits":7,"misses":3,"inserts":2,"entries":11}"#
    );
    assert_eq!(
        wire::encode_metrics_response("# TYPE a counter\na 1\nb{le=\"+Inf\"} 2\n"),
        r##"{"ok":true,"metrics":"# TYPE a counter\na 1\nb{le=\"+Inf\"} 2\n"}"##
    );
    assert_eq!(wire::encode_shutdown_response(), r#"{"ok":true,"shutdown":true}"#);
    assert_eq!(
        wire::encode_error("bad \"op\"\\ at\tbyte 3\r\n\u{7}→"),
        r#"{"ok":false,"error":"bad \"op\"\\ at\tbyte 3\r\n\u0007→"}"#
    );
}

/// A chain of `n` adds, op `i` reading op `i - 1`, closed into one cycle by
/// a distance-1 edge from the last op back to the first when `cyclic`.
fn add_chain(n: u32, cyclic: bool) -> Ddg {
    let mut ddg = Ddg::new();
    let mut prev = ddg.add_op(Operation::new(OpKind::Add, vec![Operand::Invariant(0)]));
    let first = prev;
    for _ in 1..n {
        let next = ddg.add_op(Operation::new(OpKind::Add, vec![Operand::def(prev)]));
        ddg.add_edge(DepEdge::flow(prev, next, 1, 0));
        prev = next;
    }
    if cyclic {
        ddg.op_mut(first).reads.push(Operand::def_at(prev, 1));
        ddg.add_edge(DepEdge::flow(prev, first, 1, 1));
    }
    ddg
}

/// A request body may be one long dependence chain, and RecMII computes its
/// components before any scheduling budget applies, so the components must
/// come back within the 2 MiB stack a spawned thread gets by default,
/// however deep the chain. The recursive reference agrees on shorter chains
/// of both shapes.
#[test]
fn sccs_of_a_100000_op_chain_fit_a_2_mib_stack() {
    for cyclic in [false, true] {
        let short = add_chain(1_000, cyclic);
        assert_eq!(analysis::sccs(&short), reference::sccs(&short));
    }
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let n = 100_000;
            let reversed: Vec<OpId> = (0..n).rev().map(OpId).collect();
            let chain = add_chain(n, false);
            let singletons: Vec<Vec<OpId>> = reversed.iter().map(|&v| vec![v]).collect();
            assert_eq!(analysis::sccs(&chain), singletons);
            assert_eq!(rec_mii(&chain), Ok(1));
            let cycle = add_chain(n, true);
            assert_eq!(analysis::sccs(&cycle), vec![reversed]);
        })
        .unwrap()
        .join()
        .expect("the deep chain's analysis overflowed the stack");
}

/// Runs `f` on a thread with the 2 MiB stack a spawned thread gets by
/// default and returns how long it took.
fn timed_on_a_2_mib_stack(f: impl FnOnce() + Send + 'static) -> std::time::Duration {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let started = std::time::Instant::now();
            f();
            started.elapsed()
        })
        .unwrap()
        .join()
        .expect("the deep body's analysis overflowed the stack")
}

/// The bound on one deep-body analysis: 1 s in an optimised build, which
/// CI runs; an unoptimised one gets ten times that. The replaced dense
/// RecMII needs 80 GB for the ring, and the id-order heights take minutes
/// on the reversed chain.
fn deep_body_bound() -> std::time::Duration {
    std::time::Duration::from_secs(if cfg!(debug_assertions) { 10 } else { 1 })
}

/// A 100,000-op ring closed by one distance-1 edge bounds its II by the
/// ring's whole latency. Each bisection step settles in three sweeps.
#[test]
fn rec_mii_of_a_100000_op_ring_is_fast_on_a_2_mib_stack() {
    let elapsed =
        timed_on_a_2_mib_stack(|| assert_eq!(rec_mii(&add_chain(100_000, true)), Ok(100_000)));
    assert!(elapsed < deep_body_bound(), "took {elapsed:?}");
}

/// A 100,000-op ring whose every edge is carried (latency 2, distance 1)
/// bounds its II by 2. Below that bound each bisection step gives up after
/// three sweeps: in the recurrence's depth-first order only the edge that
/// closes the ring points later.
#[test]
fn rec_mii_of_a_100000_op_all_carried_ring_is_fast_on_a_2_mib_stack() {
    let elapsed = timed_on_a_2_mib_stack(|| {
        let n = 100_000;
        let mut ddg = Ddg::new();
        let x: Vec<OpId> =
            (0..n).map(|_| ddg.add_op(Operation::new(OpKind::Add, Vec::new()))).collect();
        for i in 0..n {
            let src = x[(i + n - 1) % n];
            ddg.op_mut(x[i]).reads.push(Operand::def_at(src, 1));
            ddg.add_edge(DepEdge::flow(src, x[i], 2, 1));
        }
        assert_eq!(rec_mii(&ddg), Ok(2));
    });
    assert!(elapsed < deep_body_bound(), "took {elapsed:?}");
}

/// A 100,000-op ladder: each adjacent pair of ops forms a 2-cycle, a
/// distance-0 edge one way and a carried edge back, so every op is the
/// target of an edge that points later in the sweep order and the cap is
/// 100,002 sweeps. Below the bound of 2, each bisection step stops once the
/// relaxation's parent pointers close a cycle, a few sweeps in.
#[test]
fn rec_mii_of_a_100000_op_ladder_is_fast_on_a_2_mib_stack() {
    let elapsed = timed_on_a_2_mib_stack(|| {
        let n = 100_000;
        let mut ddg = Ddg::new();
        let x: Vec<OpId> =
            (0..n).map(|_| ddg.add_op(Operation::new(OpKind::Add, Vec::new()))).collect();
        for i in 0..n - 1 {
            ddg.op_mut(x[i + 1]).reads.push(Operand::def(x[i]));
            ddg.add_edge(DepEdge::flow(x[i], x[i + 1], 1, 0));
            ddg.op_mut(x[i]).reads.push(Operand::def_at(x[i + 1], 1));
            ddg.add_edge(DepEdge::flow(x[i + 1], x[i], 1, 1));
        }
        assert_eq!(rec_mii(&ddg), Ok(2));
    });
    assert!(elapsed < deep_body_bound(), "took {elapsed:?}");
}

/// A 100,000-op chain whose ids run against its edges: op `i` reads op
/// `i + 1`, so sweeping in descending id order settles one op per sweep,
/// where the sink-first order settles the whole chain in one.
#[test]
fn heights_of_a_100000_op_reversed_chain_are_fast_on_a_2_mib_stack() {
    let elapsed = timed_on_a_2_mib_stack(|| {
        let n = 100_000;
        let mut ddg = Ddg::new();
        let x: Vec<OpId> =
            (0..n).map(|_| ddg.add_op(Operation::new(OpKind::Add, Vec::new()))).collect();
        for i in 0..n - 1 {
            ddg.op_mut(x[i]).reads.push(Operand::def(x[i + 1]));
            ddg.add_edge(DepEdge::flow(x[i + 1], x[i], 1, 0));
        }
        let h = heights(&ddg, 1);
        assert!(x.iter().enumerate().all(|(i, v)| h[v.index()] == i as i64));
    });
    assert!(elapsed < deep_body_bound(), "took {elapsed:?}");
}

/// A seeded random DDG of at most 40 ops. A quarter are disjoint 2-op
/// recurrences; the rest close random distance-0 edges into recurrences
/// with several carried edges, self-loops among them. Distance-0 edges follow
/// a random permutation of the ids, so the intra-iteration subgraph stays
/// acyclic while its order runs against the ids as often as with them.
fn random_recurrences(rng: &mut StdRng) -> Ddg {
    let n = rng.gen_range(2..=40usize);
    let mut ddg = Ddg::new();
    let x: Vec<OpId> =
        (0..n).map(|_| ddg.add_op(Operation::new(OpKind::Add, Vec::new()))).collect();
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let latency = |rng: &mut StdRng| {
        if rng.gen_bool(0.1) {
            1 << 20
        } else {
            rng.gen_range(0..=6u32)
        }
    };
    let edge = |ddg: &mut Ddg, src: usize, dst: usize, latency: u32, distance: u32| {
        ddg.op_mut(x[dst]).reads.push(Operand::def_at(x[src], distance));
        ddg.add_edge(DepEdge::flow(x[src], x[dst], latency, distance));
    };
    if rng.gen_bool(0.25) {
        for pair in 0..n / 2 {
            let (a, b) = (2 * pair, 2 * pair + 1);
            let (forward, back) = (latency(rng), latency(rng));
            edge(&mut ddg, a, b, forward, 0);
            edge(&mut ddg, b, a, back, rng.gen_range(1..=3u32));
        }
        return ddg;
    }
    for _ in 0..rng.gen_range(0..=2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rank[a] < rank[b] {
            let lat = latency(rng);
            edge(&mut ddg, a, b, lat, 0);
        }
    }
    for _ in 0..rng.gen_range(1..=n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let lat = latency(rng);
        edge(&mut ddg, a, b, lat, rng.gen_range(1..=3u32));
    }
    ddg
}

/// RecMII equals the dense reference on seeded random recurrences, and
/// the heights equal the id-order fixpoint from RecMII to RecMII+3.
#[test]
fn rec_mii_and_heights_match_the_references_on_random_recurrences() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut cyclic = 0;
    for case in 0..2_000 {
        let ddg = random_recurrences(&mut rng);
        let bound = rec_mii(&ddg).unwrap();
        assert_eq!(bound, reference::rec_mii(&ddg), "case {case}: {ddg:?}");
        cyclic += usize::from(bound > 1);
        for ii in bound..=bound + 3 {
            assert_eq!(heights(&ddg, ii), reference::heights(&ddg, ii), "case {case} II {ii}");
        }
    }
    assert!(cyclic > 1_000, "only {cyclic} of the cases bind the II by a recurrence");
}

/// IMS with the shared worklist heap, window, eviction victim and violated
/// successors schedules every paper-grid body on its unclustered machine,
/// and every kernel, exactly as the max-scan reference does.
#[test]
fn ims_schedule_matches_the_max_scan_reference() {
    for b in corpus() {
        for &clusters in &b.clusters {
            let machine = MachineConfig::unclustered(clusters);
            let r = ims_schedule(&b.body, &machine, &ImsConfig::default()).unwrap();
            let (ii, schedule, evictions, budget_used) = reference::ims_schedule(&b.body, &machine);
            let name = format!("{} on {clusters} clusters", b.body.name);
            assert_eq!(r.ii(), ii, "{name}");
            assert_eq!(r.schedule, schedule, "{name}");
            assert_eq!(r.stats.evictions, evictions, "{name}");
            assert_eq!(r.stats.budget_used, budget_used, "{name}");
        }
    }
}
