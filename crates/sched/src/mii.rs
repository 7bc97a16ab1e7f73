//! Lower bounds on the initiation interval (II).
//!
//! * `ResMII` — the resource-constrained bound: for each functional-unit
//!   class, the number of operations needing that class divided by the number
//!   of units of that class in the whole machine, rounded up.
//! * `RecMII` — the recurrence-constrained bound: the smallest II such that
//!   no dependence circuit has `sum(latency) > II * sum(distance)`, found
//!   per recurrence by bisection, each step one sparse longest-path
//!   relaxation (see [`crate::priority`]): O(ops) memory, a ring settles
//!   in 3 sweeps however many of its edges are carried, and a step below
//!   the bound stops once the relaxation's parent pointers close a cycle.
//!
//! `MII = max(ResMII, RecMII)` is the starting point of the iterative search
//! performed by both IMS and DMS.

use crate::priority::{Parents, SweepOrder};
use crate::schedule::ScheduleError;
use dms_ir::analysis::{sccs, topological_order};
use dms_ir::{Ddg, OpId};
use dms_machine::{FuKind, MachineConfig};
use serde::{Deserialize, Serialize};

/// The two components of the MII, kept separate so experiments can report
/// which bound dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiiBreakdown {
    /// Resource-constrained lower bound.
    pub res_mii: u32,
    /// Recurrence-constrained lower bound.
    pub rec_mii: u32,
}

impl MiiBreakdown {
    /// The combined lower bound `max(ResMII, RecMII, 1)`.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }
}

/// Computes the resource-constrained lower bound on the II.
///
/// The bound uses the *total* number of units of each class in the machine,
/// i.e. it ignores the partitioning constraints of a clustered machine; this
/// matches the paper, which reports the clustered overhead relative to this
/// ideal.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop demands a
/// functional-unit class of which the machine has zero units: no II, however
/// large, can execute such a loop.
pub fn res_mii(ddg: &Ddg, machine: &MachineConfig) -> Result<u32, ScheduleError> {
    let mut demand = [0u32; 4];
    for (_, op) in ddg.live_ops() {
        demand[FuKind::for_op(op.kind).index()] += 1;
    }
    let mut bound = 1;
    for kind in FuKind::ALL {
        let d = demand[kind.index()];
        if d == 0 {
            continue;
        }
        let units = machine.total_fu(kind);
        if units == 0 {
            return Err(ScheduleError::UnexecutableLoop { fu: kind, demand: d });
        }
        bound = bound.max(d.div_ceil(units));
    }
    Ok(bound)
}

/// Computes the recurrence-constrained lower bound on the II.
///
/// For every cyclic strongly connected component, the smallest II at which
/// none of its circuits has positive weight is bisected in `u64` between 1
/// and its total latency, each step one relaxation over its ops in the
/// depth-first, sinks-first member order of [`sccs`]. Acyclic graphs have
/// `RecMII = 1`.
///
/// # Errors
///
/// Returns [`ScheduleError::RecurrenceUnschedulable`] if a circuit needs an
/// II above `u32::MAX`, or if the intra-iteration (distance-0) subgraph is
/// cyclic, so that no II at all satisfies it.
pub fn rec_mii(ddg: &Ddg) -> Result<u32, ScheduleError> {
    // Per op, the index of its recurrence (cyclic component), if it has
    // one, and its position in that recurrence's sweep order.
    let mut recurrence_of = vec![usize::MAX; ddg.num_slots()];
    let mut position = vec![0; ddg.num_slots()];
    let mut recurrences: Vec<Vec<OpId>> = Vec::new();
    for comp in sccs(ddg) {
        if comp.len() > 1 || ddg.succs(comp[0]).any(|(_, e)| e.dst == comp[0]) {
            for (i, v) in comp.iter().enumerate() {
                recurrence_of[v.index()] = recurrences.len();
                position[v.index()] = i;
            }
            recurrences.push(comp);
        }
    }
    if recurrences.is_empty() {
        return Ok(1);
    }
    if topological_order(ddg).is_none() {
        return Err(ScheduleError::RecurrenceUnschedulable { rec_mii: None });
    }
    let mut h = vec![0i64; ddg.num_slots()];
    let mut parents = Parents::default();
    let mut best = 1u64;
    for (r, ops) in recurrences.into_iter().enumerate() {
        let in_recurrence = |v: OpId| recurrence_of[v.index()] == r;
        // Every circuit has a total distance of at least 1, so at an II of
        // the recurrence's total latency none has positive weight.
        let total = ops
            .iter()
            .flat_map(|&v| ddg.succs(v))
            .filter(|(_, e)| in_recurrence(e.dst))
            .fold(0, |sum: u64, (_, e)| sum.saturating_add(e.latency.into()));
        let order = SweepOrder::new(ddg, ops, in_recurrence, &position);
        let (mut lo, mut hi) = (1u64, total.max(1));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if order.relax(ddg, in_recurrence, mid, &mut h, Some(&mut parents)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        best = best.max(lo);
    }
    u32::try_from(best).map_err(|_| ScheduleError::RecurrenceUnschedulable { rec_mii: Some(best) })
}

/// Computes both lower bounds.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop demands a
/// functional-unit class the machine does not have (see [`res_mii`]), and
/// [`ScheduleError::RecurrenceUnschedulable`] if no 32-bit II satisfies its
/// recurrences (see [`rec_mii`]).
pub fn mii(ddg: &Ddg, machine: &MachineConfig) -> Result<MiiBreakdown, ScheduleError> {
    Ok(MiiBreakdown { res_mii: res_mii(ddg, machine)?, rec_mii: rec_mii(ddg)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::kernels;
    use dms_ir::{LoopBuilder, Operand};
    use dms_machine::MachineConfig;

    #[test]
    fn res_mii_counts_fu_pressure() {
        // 4 loads on a machine with 1 L/S unit -> ResMII = 4; with 2 units -> 2.
        let mut b = LoopBuilder::new("loads");
        for _ in 0..4 {
            let x = b.load(Operand::Induction);
            b.store(x.into());
        }
        let l = b.finish(8);
        // 4 loads + 4 stores share the L/S unit(s): demand 8
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(1)), Ok(8));
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(2)), Ok(4));
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(8)), Ok(1));
    }

    #[test]
    fn rec_mii_of_acyclic_graph_is_one() {
        assert_eq!(rec_mii(&kernels::daxpy(8).ddg), Ok(1));
        assert_eq!(rec_mii(&kernels::stencil3(8).ddg), Ok(1));
    }

    #[test]
    fn rec_mii_of_accumulator_equals_add_latency() {
        // s = s@(i-1) + x : circuit latency = add latency (1), distance 1.
        let l = kernels::prefix_sum(8);
        assert_eq!(rec_mii(&l.ddg), Ok(1));
    }

    #[test]
    fn rec_mii_of_iir_is_mul_plus_add() {
        // circuit: add -> mul (dist 1) -> add, latency = add(1) + mul(2) = 3.
        let l = kernels::iir(8);
        assert_eq!(rec_mii(&l.ddg), Ok(3));
    }

    #[test]
    fn rec_mii_scales_with_distance() {
        // s = s@(i-2) + x : same latency spread over distance 2.
        let mut b = LoopBuilder::new("d2");
        let x = b.load(Operand::Induction);
        let s = b.feedback(dms_ir::OpKind::Mul, x.into(), 2); // mul latency 2 over distance 2
        b.store(s.into());
        let l = b.finish(8);
        assert_eq!(rec_mii(&l.ddg), Ok(1));
        // distance 1 would give 2
        let mut b = LoopBuilder::new("d1");
        let x = b.load(Operand::Induction);
        let s = b.feedback(dms_ir::OpKind::Mul, x.into(), 1);
        b.store(s.into());
        assert_eq!(rec_mii(&b.finish(8).ddg), Ok(2));
    }

    /// A two-op cycle `a -> b` (distance 0), `b -> a` (distance 1).
    fn two_op_cycle(forward: u32, back: u32, back_distance: u32) -> Ddg {
        use dms_ir::{DepEdge, OpKind, Operation};
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Add, Vec::new()));
        let b = g.add_op(Operation::new(OpKind::Add, vec![Operand::def(a)]));
        g.op_mut(a).reads.push(Operand::def_at(b, back_distance));
        g.add_edge(DepEdge::flow(a, b, forward, 0));
        g.add_edge(DepEdge::flow(b, a, back, back_distance));
        g
    }

    #[test]
    fn rec_mii_does_not_wrap_above_32_bits() {
        // The latencies sum to 2^32 - 1: the largest II that fits.
        assert_eq!(rec_mii(&two_op_cycle(1 << 31, (1 << 31) - 1, 1)), Ok(u32::MAX));
        // They sum to 2^32, which a 32-bit bound wrapped to 0 (and reported
        // as 1).
        assert_eq!(
            rec_mii(&two_op_cycle(1 << 31, 1 << 31, 1)),
            Err(ScheduleError::RecurrenceUnschedulable { rec_mii: Some(1 << 32) })
        );
        // Spread over two iterations, the same circuit fits again.
        assert_eq!(rec_mii(&two_op_cycle(1 << 31, 1 << 31, 2)), Ok(1 << 31));
    }

    #[test]
    fn a_zero_distance_cycle_has_no_rec_mii() {
        let err = ScheduleError::RecurrenceUnschedulable { rec_mii: None };
        assert_eq!(rec_mii(&two_op_cycle(1, 1, 0)), Err(err.clone()));
        assert_eq!(mii(&two_op_cycle(1, 1, 0), &MachineConfig::unclustered(1)), Err(err));
    }

    #[test]
    fn mii_takes_the_max_of_both_bounds() {
        let l = kernels::iir(8); // RecMII 3, small body
        let m = MachineConfig::unclustered(4);
        let b = mii(&l.ddg, &m).unwrap();
        assert_eq!(b.rec_mii, 3);
        assert!(b.res_mii <= 3);
        assert_eq!(b.mii(), 3);
    }

    #[test]
    fn res_mii_dominates_on_narrow_machines() {
        let l = kernels::fir(8, 64); // 8 loads, 8 muls, 7 adds, 1 store
        let m = MachineConfig::unclustered(1);
        let b = mii(&l.ddg, &m).unwrap();
        assert_eq!(b.res_mii, 9); // 8 loads + 1 store on one L/S unit
        assert_eq!(b.rec_mii, 1);
        assert_eq!(b.mii(), 9);
    }

    #[test]
    fn missing_fu_class_reports_unexecutable_loop() {
        let l = kernels::daxpy(8); // 2 loads + 1 store demand the L/S class
        let m = MachineConfig::homogeneous(
            1,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        let err = res_mii(&l.ddg, &m).unwrap_err();
        assert_eq!(err, ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, demand: 3 });
        assert!(matches!(mii(&l.ddg, &m), Err(ScheduleError::UnexecutableLoop { .. })));
    }
}
