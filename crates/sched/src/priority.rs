//! Scheduling priority.
//!
//! Both IMS and DMS schedule operations in order of decreasing *height*: the
//! length of the longest dependence path from the operation to any leaf of
//! the DDG, where each edge contributes `latency - II * distance` (Rau's
//! height-based priority). Operations on critical recurrence circuits and on
//! long dependence chains are scheduled first.

use dms_ir::{Ddg, OpId};

/// Computes the height of every operation for the given II.
///
/// The returned vector is indexed by [`OpId::index`]; slots of removed
/// operations hold 0. Heights are computed by fixpoint iteration, relaxing
/// live operations in descending id order: a producer almost always has a
/// lower id than its consumers (loop-carried edges and appended `Copy`
/// operations are the exceptions), so one sweep settles most of a body
/// and only the exceptions take further rounds. At any `II >= RecMII`
/// every circuit has non-positive weight, so the iteration reaches the
/// least fixpoint — the same for every relaxation order — within `|ops|`
/// rounds. If it has not converged by then (the II is below RecMII), the
/// partially relaxed heights are returned — they are still a usable
/// priority order.
pub fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
    let n = ddg.num_slots();
    let mut h = vec![0i64; n];
    let live: Vec<OpId> = ddg.live_op_ids().collect();
    for _ in 0..live.len().max(1) {
        let mut changed = false;
        for &v in live.iter().rev() {
            let mut best = 0i64;
            for (_, e) in ddg.succs(v) {
                let cand = h[e.dst.index()] + e.latency as i64 - ii as i64 * e.distance as i64;
                if cand > best {
                    best = cand;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{kernels, LoopBuilder, Operand};

    #[test]
    fn heights_decrease_along_chains() {
        // load -> mul -> add -> store
        let mut b = LoopBuilder::new("chain");
        let a = b.load(Operand::Induction);
        let m = b.mul(a.into(), Operand::Invariant(0));
        let s = b.add(m.into(), Operand::Immediate(1));
        let st = b.store(s.into());
        let l = b.finish(8);
        let h = heights(&l.ddg, 1);
        assert!(h[a.index()] > h[m.index()]);
        assert!(h[m.index()] > h[s.index()]);
        assert!(h[s.index()] > h[st.index()]);
        assert_eq!(h[st.index()], 0);
        // absolute values: store 0, add 1 (add lat), mul 3, load 5
        assert_eq!(h[a.index()], 5);
    }

    #[test]
    fn priority_order_puts_sources_first() {
        let l = kernels::daxpy(8);
        let h = heights(&l.ddg, 1);
        // the store (no successors) is the only op of height 0, so it is
        // scheduled last
        for (id, op) in l.ddg.live_ops() {
            assert_eq!(h[id.index()] == 0, op.kind == dms_ir::OpKind::Store, "{id}");
        }
    }

    #[test]
    fn heights_converge_on_recurrences() {
        let l = kernels::iir(8);
        // at II = RecMII = 3 the circuit weight is zero and heights converge
        let h = heights(&l.ddg, 3);
        assert!(h.iter().all(|&x| x >= 0));
        // loads feed the circuit, so they sit at or above circuit heights
        let max_h = *h.iter().max().unwrap();
        let load = l
            .ddg
            .live_ops()
            .find(|(_, o)| o.kind == dms_ir::OpKind::Load)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(h[load.index()], max_h);
    }

    #[test]
    fn larger_ii_reduces_loop_carried_height() {
        let l = kernels::dot_product(8);
        let h_small = heights(&l.ddg, 1);
        let h_large = heights(&l.ddg, 8);
        let total_small: i64 = h_small.iter().sum();
        let total_large: i64 = h_large.iter().sum();
        assert!(total_large <= total_small);
    }

    #[test]
    fn deterministic_order() {
        let l = kernels::complex_multiply(8);
        assert_eq!(heights(&l.ddg, 2), heights(&l.ddg, 2));
    }
}
