//! Scheduling priority, and the longest-path relaxation behind it and
//! behind RecMII.
//!
//! Both IMS and DMS schedule operations in order of decreasing *height*: the
//! length of the longest dependence path from the operation to any leaf of
//! the DDG, where each edge weighs `latency - II * distance` (Rau's
//! height-based priority). [`heights`] and RecMII ([`crate::mii::rec_mii`])
//! both call `relax`, which sweeps the ops sinks first (the reverse of the
//! topological order of the distance-0 subgraph) and stops after `K + 2`
//! sweeps, `K` being the number of distinct targets of carried non-self
//! edges. The cap is exact: one sweep settles every distance-0 path, and
//! each further sweep one more carried edge; a longest path without a
//! positive-weight circuit is simple, so it enters each op at most once and
//! crosses at most `K` carried non-self edges. A sweep that still changes a
//! height at the cap therefore proves a positive-weight circuit at that II.

use dms_ir::analysis::topological_order;
use dms_ir::{Ddg, OpId};

/// Computes the height of every operation for the given II.
///
/// The returned vector is indexed by [`OpId::index`]; slots of removed
/// operations hold 0. Below RecMII the relaxation stops at its cap, and the
/// partial heights are still a usable priority order. A body with a
/// zero-distance cycle, which no II can schedule, is swept in descending id
/// order.
pub fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
    let mut order = topological_order(ddg).unwrap_or_else(|| ddg.live_op_ids().collect());
    order.reverse();
    let mut h = vec![0i64; ddg.num_slots()];
    relax(ddg, &order, |_| true, u64::from(ii), &mut h);
    h
}

/// Sets `h[v]` for each op `v` of the sink-first `order` to the longest path
/// from `v` over edges between ops `in_scope` (at least 0, the empty path).
/// Returns `false` if a positive-weight circuit keeps raising the heights.
/// Weights and heights saturate instead of wrapping, so any II and distance
/// is safe: without such a circuit no height exceeds the total latency in
/// scope, far below `i64::MAX`, so a saturated height proves one too.
pub(crate) fn relax(
    ddg: &Ddg,
    order: &[OpId],
    in_scope: impl Fn(OpId) -> bool,
    ii: u64,
    h: &mut [i64],
) -> bool {
    let ii = i64::try_from(ii).unwrap_or(i64::MAX);
    let mut carried_targets = 0usize;
    for &v in order {
        h[v.index()] = 0;
        if ddg.preds(v).any(|(_, e)| e.distance > 0 && e.src != v && in_scope(e.src)) {
            carried_targets += 1;
        }
    }
    for _ in 0..carried_targets + 2 {
        let mut changed = false;
        for &v in order {
            let mut best = h[v.index()];
            for (_, e) in ddg.succs(v).filter(|(_, e)| in_scope(e.dst)) {
                let weight = i64::from(e.latency) - ii.saturating_mul(i64::from(e.distance));
                best = best.max(h[e.dst.index()].saturating_add(weight));
            }
            if best == i64::MAX {
                return false;
            }
            changed |= best > h[v.index()];
            h[v.index()] = best;
        }
        if !changed {
            return true;
        }
    }
    false
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
