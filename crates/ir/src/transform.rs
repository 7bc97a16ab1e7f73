//! DDG transformations used by the DMS compilation flow.
//!
//! * [`convert_to_single_use`] — the pre-pass required by the queue register
//!   files: every multiple-use lifetime is converted to a chain of single-use
//!   lifetimes with `Copy` operations, limiting the number of immediate flow
//!   successors of any operation to two (paper, §3).
//! * [`unroll`] — loop unrolling, used to "provide additional operations to
//!   the scheduler whenever necessary" so that wide machines can be saturated
//!   (paper, §4).

use crate::ddg::{Ddg, DepEdge, DepKind};
use crate::latency::LatencySpec;
use crate::op::{OpId, OpKind, Operand, Operation};
use crate::Loop;

/// One read of a producer's result, used internally by the single-use pass.
#[derive(Debug, Clone, Copy)]
struct Read {
    consumer: OpId,
    operand_idx: usize,
    distance: u32,
}

/// Converts every multiple-use lifetime into a chain of lifetimes with at
/// most two readers each by inserting `Copy` operations, as required by the
/// queue register files of the target architecture (paper §3: the conversion
/// "limit\[s\] the number of immediate data dependent successors of an
/// operation to 2").
///
/// A value with `k > 2` reads is rewritten as a chain of `k - 2` copies:
/// the producer keeps one original reader plus the first copy, every copy
/// forwards the value to one more reader (the last copy to two), so no
/// operation ends up with more than two immediate flow successors.
/// Self-reads of recurrence operations keep reading the original value
/// directly so that recurrence circuits are not lengthened.
///
/// Returns the number of `Copy` operations inserted.
pub fn convert_to_single_use(ddg: &mut Ddg, latency: &LatencySpec) -> usize {
    let producers: Vec<OpId> =
        ddg.live_ops().filter(|(_, o)| o.kind.has_result()).map(|(id, _)| id).collect();
    // Every read of every producer, bucketed by producer in one walk. A
    // producer's rewrite below only redirects its own reads and its copies
    // only read it or each other, so each bucket stays exactly what a scan
    // of the graph at that producer's turn would find.
    let mut reads_of: Vec<Vec<Read>> = vec![Vec::new(); ddg.num_slots()];
    for (c, op) in ddg.live_ops() {
        for (i, r) in op.reads.iter().enumerate() {
            if let Operand::Def { op: p, distance } = *r {
                // An id past the last slot (a malformed graph) names no
                // producer.
                if let Some(bucket) = reads_of.get_mut(p.index()) {
                    bucket.push(Read { consumer: c, operand_idx: i, distance });
                }
            }
        }
    }

    let mut inserted = 0;
    for p in producers {
        let reads = &mut reads_of[p.index()];
        if reads.len() <= 2 {
            continue;
        }
        // Self-reads (recurrences) first so they keep the direct value,
        // then by distance, then by consumer id for determinism.
        reads.sort_by_key(|r| (r.consumer != p, r.distance, r.consumer, r.operand_idx));

        // reads[0] keeps reading `p`; every further read goes through a copy,
        // with the last read sharing the last copy (so every node keeps at
        // most two immediate successors while using only `k - 2` copies).
        let mut prev = p;
        let mut prev_lat = latency.of(ddg.op(p).kind);
        for (i, read) in reads.iter().enumerate().skip(1) {
            let is_last = i == reads.len() - 1;
            if !is_last {
                let copy = ddg.add_op(Operation::new(OpKind::Copy, vec![Operand::def(prev)]));
                ddg.add_edge(DepEdge::flow(prev, copy, prev_lat, 0));
                inserted += 1;
                prev = copy;
                prev_lat = latency.copy;
            }

            // Redirect the read to the current end of the copy chain.
            let old_edge = ddg
                .preds(read.consumer)
                .find(|(_, e)| e.kind == DepKind::Flow && e.src == p && e.distance == read.distance)
                .map(|(id, _)| id);
            if let Some(eid) = old_edge {
                ddg.remove_edge(eid);
            }
            {
                let op = ddg.op_mut(read.consumer);
                op.reads[read.operand_idx] = Operand::def_at(prev, read.distance);
            }
            ddg.add_edge(DepEdge::flow(prev, read.consumer, prev_lat, read.distance));
        }
    }
    inserted
}

/// Applies [`convert_to_single_use`] to a loop, returning the transformed
/// loop and the number of copies inserted.
pub fn single_use_loop(l: &Loop, latency: &LatencySpec) -> (Loop, usize) {
    let mut out = l.clone();
    let copies = convert_to_single_use(&mut out.ddg, latency);
    (out, copies)
}

/// Unrolls the loop body `factor` times.
///
/// Copy `j` of the unrolled body corresponds to original iteration
/// `factor * i + j`. Dependences are remapped accordingly: a read of distance
/// `d` in copy `j` becomes a read of copy `(j - d).rem_euclid(factor)` with
/// unrolled distance `ceil((d - j) / factor)` (0 when `j >= d`). The trip
/// count is divided by the unroll factor (iterations that do not fill a whole
/// unrolled body are dropped, which is irrelevant for the steady-state
/// figures the paper reports).
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn unroll(l: &Loop, factor: u32) -> Loop {
    assert!(factor > 0, "unroll factor must be at least 1");
    if factor == 1 {
        return l.clone();
    }
    let orig: Vec<OpId> = l.ddg.live_op_ids().collect();
    let pos_of = |id: OpId| orig.iter().position(|&x| x == id).expect("live op");

    let mut ddg = Ddg::new();
    // new_ids[j][p] = id of copy j of the p-th original live op
    let mut new_ids: Vec<Vec<OpId>> = Vec::with_capacity(factor as usize);

    // Maps (copy j, original distance d) to (copy index, new distance).
    let remap = |j: u32, d: u32| -> (u32, u32) {
        let t = j as i64 - d as i64;
        if t >= 0 {
            (t as u32, 0)
        } else {
            let new_d = (d - j).div_ceil(factor);
            let copy = t.rem_euclid(factor as i64) as u32;
            (copy, new_d)
        }
    };

    // First create all operations (operands patched afterwards so that
    // forward references within a copy are resolvable).
    for j in 0..factor {
        let mut ids = Vec::with_capacity(orig.len());
        for &o in &orig {
            let id = ddg.add_op(l.ddg.op(o).clone());
            ids.push(id);
        }
        let _ = j;
        new_ids.push(ids);
    }

    // Patch operands.
    for j in 0..factor {
        for (p, &o) in orig.iter().enumerate() {
            let new_id = new_ids[j as usize][p];
            let reads = l.ddg.op(o).reads.clone();
            let patched: Vec<Operand> = reads
                .into_iter()
                .map(|r| match r {
                    Operand::Def { op, distance } => {
                        let (copy, nd) = remap(j, distance);
                        Operand::Def { op: new_ids[copy as usize][pos_of(op)], distance: nd }
                    }
                    other => other,
                })
                .collect();
            ddg.op_mut(new_id).reads = patched;
        }
    }

    // Replicate edges with the same remapping.
    for (_, e) in l.ddg.live_edges() {
        for j in 0..factor {
            let (copy, nd) = remap(j, e.distance);
            ddg.add_edge(DepEdge {
                src: new_ids[copy as usize][pos_of(e.src)],
                dst: new_ids[j as usize][pos_of(e.dst)],
                kind: e.kind,
                latency: e.latency,
                distance: nd,
            });
        }
    }

    Loop::new(format!("{}#u{}", l.name, factor), ddg, (l.trip_count / factor as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::builder::LoopBuilder;
    use crate::op::Operand;

    fn wide_fanout_loop() -> Loop {
        // one load feeding four consumers
        let mut b = LoopBuilder::new("fan");
        let a = b.load(Operand::Induction);
        let u1 = b.add(a.into(), Operand::Immediate(1));
        let u2 = b.mul(a.into(), Operand::Invariant(0));
        let u3 = b.sub(a.into(), Operand::Immediate(2));
        let u4 = b.add(a.into(), u1.into());
        b.store(u2.into());
        b.store(u3.into());
        b.store(u4.into());
        b.finish(16)
    }

    #[test]
    fn single_use_limits_fanout_to_two() {
        let l = wide_fanout_loop();
        assert!(analysis::max_flow_fanout(&l.ddg) > 2);
        let (t, copies) = single_use_loop(&l, &LatencySpec::default());
        // `a` has four reads -> two copies; every other value has <= 2 reads.
        assert_eq!(copies, 2);
        assert!(analysis::max_flow_fanout(&t.ddg) <= 2);
        assert!(t.ddg.validate().is_ok());
        // useful op count is unchanged
        assert_eq!(t.useful_ops(), l.useful_ops());
    }

    #[test]
    fn single_use_noop_when_already_single_use() {
        let mut b = LoopBuilder::new("chain");
        let a = b.load(Operand::Induction);
        let c = b.add(a.into(), Operand::Immediate(1));
        b.store(c.into());
        let l = b.finish(4);
        let (t, copies) = single_use_loop(&l, &LatencySpec::default());
        assert_eq!(copies, 0);
        assert_eq!(t.ddg.num_live_ops(), l.ddg.num_live_ops());
    }

    #[test]
    fn single_use_preserves_recurrence_self_read() {
        // accumulator whose value is also stored: 2 reads -> no copy needed;
        // add a third read to force a copy and check the self-read stays direct.
        let mut b = LoopBuilder::new("acc3");
        let x = b.load(Operand::Induction);
        let s = b.add_feedback(x.into(), 1);
        b.store(s.into());
        let extra = b.mul(s.into(), Operand::Invariant(0));
        b.store(extra.into());
        let l = b.finish(8);
        let (t, copies) = single_use_loop(&l, &LatencySpec::default());
        assert!(copies >= 1);
        // the self-read of `s` still reads `s` directly
        let self_read = t
            .ddg
            .op(s)
            .reads
            .iter()
            .any(|r| matches!(r, Operand::Def { op, distance } if *op == s && *distance == 1));
        assert!(self_read, "recurrence self-read must keep reading the accumulator directly");
        assert!(analysis::max_flow_fanout(&t.ddg) <= 2);
    }

    #[test]
    fn unroll_by_two_doubles_ops() {
        let l = wide_fanout_loop();
        let u = unroll(&l, 2);
        assert_eq!(u.ddg.num_live_ops(), 2 * l.ddg.num_live_ops());
        assert_eq!(u.trip_count, l.trip_count / 2);
        assert!(u.ddg.validate().is_ok());
        assert!(analysis::cycles_have_positive_distance(&u.ddg));
    }

    #[test]
    fn unroll_remaps_loop_carried_distance() {
        // s_i = s_{i-1} + a_i : unrolled by 2, copy 1 reads copy 0 at distance 0,
        // copy 0 reads copy 1 at distance 1.
        let mut b = LoopBuilder::new("acc");
        let a = b.load(Operand::Induction);
        let s = b.add_feedback(a.into(), 1);
        b.store(s.into());
        let l = b.finish(10);
        let u = unroll(&l, 2);
        assert!(analysis::has_recurrence(&u.ddg));
        // the recurrence circuit now spans both copies
        let rec = analysis::recurrence_ops(&u.ddg);
        assert_eq!(rec.len(), 2);
        // total distance around the recurrence is still 1 (per unrolled iteration)
        let carried: Vec<u32> = u
            .ddg
            .live_edges()
            .filter(|(_, e)| rec.contains(&e.src) && rec.contains(&e.dst))
            .map(|(_, e)| e.distance)
            .collect();
        assert_eq!(carried.iter().sum::<u32>(), 1);
    }

    #[test]
    fn unroll_factor_one_is_identity() {
        let l = wide_fanout_loop();
        let u = unroll(&l, 1);
        assert_eq!(u.ddg.num_live_ops(), l.ddg.num_live_ops());
        assert_eq!(u.name, l.name);
    }

    #[test]
    #[should_panic(expected = "unroll factor")]
    fn unroll_factor_zero_panics() {
        let l = wide_fanout_loop();
        let _ = unroll(&l, 0);
    }

    #[test]
    fn unroll_distance_larger_than_factor() {
        // distance-3 recurrence unrolled by 2: distances must stay consistent.
        let mut b = LoopBuilder::new("d3");
        let a = b.load(Operand::Induction);
        let s = b.add_feedback(a.into(), 3);
        b.store(s.into());
        let l = b.finish(30);
        let u = unroll(&l, 2);
        assert!(u.ddg.validate().is_ok());
        // every copy of the accumulator still has exactly one loop-carried input
        let rec = analysis::recurrence_ops(&u.ddg);
        assert_eq!(rec.len(), 2);
        // sum of distances around the circuit equals ceil/floor mix totalling 3
        // per two original iterations -> per unrolled iteration total distance is 3.
        let total: u32 = u
            .ddg
            .live_edges()
            .filter(|(_, e)| e.src == e.dst || (rec.contains(&e.src) && rec.contains(&e.dst)))
            .map(|(_, e)| e.distance)
            .sum();
        assert!(total >= 3, "loop-carried distance must be preserved, got {total}");
    }
}
