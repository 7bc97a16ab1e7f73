//! Exactness of the linear per-request passes against the algorithms they
//! replaced.
//!
//! The guard fingerprint, the single-use conversion, the strongly connected
//! components, RecMII, the height priority and the IMS step each run once
//! per request or per II attempt, so each has a linear (or heap-ordered, or
//! iterative, or sparse) implementation. The algorithms they replaced are
//! kept here, in [`reference`], and every test checks the fast path against
//! its reference on the paper suite unrolled for the 1–10-cluster paper
//! machines (12,580 bodies) and on [`dms_ir::kernels`]; RecMII and the
//! heights also on seeded random recurrences.

use dms_ir::transform::convert_to_single_use;
use dms_ir::{analysis, kernels, Ddg, DepEdge, DepKind, Fnv, LatencySpec, Loop};
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
