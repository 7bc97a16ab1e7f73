//! Scheduling priority, and the longest-path relaxation behind it and
//! behind RecMII.
//!
//! Both IMS and DMS schedule operations in order of decreasing *height*: the
//! length of the longest dependence path from the operation to any leaf of
//! the DDG, where each edge weighs `latency - II * distance` (Rau's
//! height-based priority). [`heights`] and RecMII ([`crate::mii::rec_mii`])
//! both relax a [`SweepOrder`]: they sweep its ops in order and stop after
//! `K + 2` sweeps, `K` being the number of distinct targets of in-scope
//! non-self edges that point later in the sweep order. The cap is exact:
//! one sweep settles every path whose edges all point earlier, and each
//! further sweep one more later-pointing edge; a longest path without a
//! positive-weight circuit is simple, so it enters each op at most once and
//! crosses at most `K` later-pointing edges. A sweep that still changes a
//! height at the cap therefore proves a positive-weight circuit at that II.
//!
//! The heights sweep a body sinks first (the reverse of the topological
//! order of the distance-0 subgraph), where no distance-0 edge points
//! later. RecMII sweeps each recurrence in the depth-first, sinks-first
//! member order of [`dms_ir::analysis::sccs`], where a ring points later
//! only at the edge that closes it, whichever way its ids run.
//!
//! RecMII also records, for each op, the successor its height last rose
//! through, and gives up after any sweep that leaves those parent pointers
//! with a cycle. Such a cycle is a positive-weight circuit (the standard
//! Bellman–Ford parent-graph argument: each pointer was set by a strict
//! rise, so the weights around the cycle sum to more than zero). A
//! "ladder", whose adjacent ops form 2-cycles, has `K` = ops, yet below
//! RecMII its parent pointers close a 2-cycle within a few sweeps. The
//! heights keep sweeping to the cap, since they use the partial heights.

use dms_ir::analysis::topological_order;
use dms_ir::{Ddg, OpId};

/// Computes the height of every operation for the given II.
///
/// The returned vector is indexed by [`OpId::index`]; slots of removed
/// operations hold 0. Below RecMII the relaxation stops at its cap, and the
/// partial heights are still a usable priority order. A body with a
/// zero-distance cycle, which no II can schedule, is swept in descending id
/// order. An II search computes the [`SweepOrder::of_body`] once and calls
/// [`SweepOrder::heights`] per attempt instead.
pub fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
    SweepOrder::of_body(ddg).heights(ddg, ii)
}

/// An order to sweep some ops of a body in, with the sweep cap that keeps
/// the relaxation exact on it. It depends only on the body, not on the II.
#[derive(Debug, Clone)]
pub struct SweepOrder {
    ops: Vec<OpId>,
    sweeps: usize,
}

impl SweepOrder {
    /// The sink-first order of a whole body that [`heights`] sweeps.
    pub fn of_body(ddg: &Ddg) -> Self {
        let mut ops = topological_order(ddg).unwrap_or_else(|| ddg.live_op_ids().collect());
        ops.reverse();
        let mut position = vec![0; ddg.num_slots()];
        for (i, v) in ops.iter().enumerate() {
            position[v.index()] = i;
        }
        Self::new(ddg, ops, |_| true, &position)
    }

    /// Sweeps `ops` in the given order. `in_scope` must hold for each of
    /// `ops`, and `position[v]` be the index of each in `ops`.
    pub(crate) fn new(
        ddg: &Ddg,
        ops: Vec<OpId>,
        in_scope: impl Fn(OpId) -> bool,
        position: &[usize],
    ) -> Self {
        let later = |e: &dms_ir::DepEdge| position[e.src.index()] < position[e.dst.index()];
        let later_targets = ops
            .iter()
            .filter(|&&v| ddg.preds(v).any(|(_, e)| e.src != v && in_scope(e.src) && later(e)))
            .count();
        SweepOrder { ops, sweeps: later_targets + 2 }
    }

    /// The height of every operation of the body at `ii` (see [`heights`]).
    pub fn heights(&self, ddg: &Ddg, ii: u32) -> Vec<i64> {
        let mut h = vec![0i64; ddg.num_slots()];
        self.relax(ddg, |_| true, u64::from(ii), &mut h, None);
        h
    }

    /// Sets `h[v]` for each op `v` of the order to the longest path from `v`
    /// over edges between ops `in_scope` (at least 0, the empty path).
    /// Returns `false` if a positive-weight circuit keeps raising the
    /// heights. Weights and heights saturate instead of wrapping, so any II
    /// and distance is safe: without such a circuit no height exceeds the
    /// total latency in scope, far below `i64::MAX`, so a saturated height
    /// proves one too. Given `parents`, it also returns `false` as soon as
    /// a sweep leaves the parent pointers with a cycle (see the module
    /// docs), with the heights partial.
    pub(crate) fn relax(
        &self,
        ddg: &Ddg,
        in_scope: impl Fn(OpId) -> bool,
        ii: u64,
        h: &mut [i64],
        mut parents: Option<&mut Parents>,
    ) -> bool {
        let ii = i64::try_from(ii).unwrap_or(i64::MAX);
        for &v in &self.ops {
            h[v.index()] = 0;
        }
        if let Some(p) = parents.as_deref_mut() {
            p.reset(ddg.num_slots(), &self.ops);
        }
        for _ in 0..self.sweeps {
            let mut changed = false;
            for &v in &self.ops {
                let (mut best, mut through) = (h[v.index()], None);
                for (_, e) in ddg.succs(v).filter(|(_, e)| in_scope(e.dst)) {
                    let weight = i64::from(e.latency) - ii.saturating_mul(i64::from(e.distance));
                    let height = h[e.dst.index()].saturating_add(weight);
                    if height > best {
                        (best, through) = (height, Some(e.dst));
                    }
                }
                if best == i64::MAX {
                    return false;
                }
                if let Some(succ) = through {
                    changed = true;
                    h[v.index()] = best;
                    if let Some(p) = parents.as_deref_mut() {
                        p.succ[v.index()] = succ;
                    }
                }
            }
            if !changed {
                return true;
            }
            if parents.as_deref_mut().is_some_and(|p| p.have_a_cycle(&self.ops)) {
                return false;
            }
        }
        false
    }
}

/// The parent pointers of one relaxation, and the marks of the walks that
/// look for a cycle among them. RecMII reuses one across its bisection.
#[derive(Debug, Default)]
pub(crate) struct Parents {
    /// `succ[v]`: the successor `v`'s height last rose through, or
    /// [`Parents::NONE`] while it has not risen.
    succ: Vec<OpId>,
    /// The walk that last visited each op; walks are numbered from 1.
    seen: Vec<usize>,
    walks: usize,
}

impl Parents {
    const NONE: OpId = OpId(u32::MAX);

    fn reset(&mut self, slots: usize, ops: &[OpId]) {
        self.succ.resize(slots, Self::NONE);
        self.seen.resize(slots, 0);
        for &v in ops {
            self.succ[v.index()] = Self::NONE;
        }
    }

    /// Whether the pointers of `ops` hold a cycle. Each op has at most one
    /// pointer, so walks that stop at the first op any walk of this check
    /// reached visit each op once.
    fn have_a_cycle(&mut self, ops: &[OpId]) -> bool {
        let first = self.walks + 1;
        for &start in ops {
            self.walks += 1;
            let mut v = start;
            while v != Self::NONE {
                if self.seen[v.index()] >= first {
                    if self.seen[v.index()] == self.walks {
                        return true;
                    }
                    break;
                }
                self.seen[v.index()] = self.walks;
                v = self.succ[v.index()];
            }
        }
        false
    }
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
