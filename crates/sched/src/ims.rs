//! Iterative Modulo Scheduling (IMS), after Rau.
//!
//! IMS is the baseline scheduler of the paper: it targets the *unclustered*
//! machine, where any functional unit can read any value, so only resource
//! and dependence constraints exist. The algorithm iterates over candidate
//! IIs starting at MII; for each II it schedules operations in priority
//! order, evicting (backtracking over) previously scheduled operations when
//! resource or dependence conflicts force it to, within a fixed budget of
//! placement attempts.
//!
//! The rules of one IMS step — the [`Worklist`] order, the scheduling
//! [`window`], the [`eviction_victim`] and the [`violated_successors`] —
//! are defined here once. DMS (the `dms-core` crate) runs the same step and
//! adds its three placement strategies on top.
//!
//! On a clustered [`MachineConfig`] this implementation places every
//! operation in cluster 0 (it knows nothing about partitioning); use the
//! `dms-core` crate for clustered targets.

use crate::mii::mii;
use crate::priority::SweepOrder;
use crate::schedule::{
    admit_mrt, dependence_bound, earliest_start, SchedStats, Schedule, ScheduleError,
    ScheduleResult,
};
use dms_ir::{Ddg, Loop, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig, Mrt};
use dms_telemetry::{EventKind, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options of the IMS search. It has none: the budget is a fixed multiple of
/// the operation count and the II ceiling is [`default_max_ii`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImsConfig {}

/// Scheduling budget per candidate II, as a multiple of the number of
/// operations (Rau uses small single-digit ratios).
const BUDGET_RATIO: u64 = 8;

/// Schedules a loop with IMS on the given machine.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop needs a
/// functional-unit class the machine does not have, the errors of
/// [`mii`] and [`crate::schedule::admit_mrt`], and
/// [`ScheduleError::IiLimitReached`] if no schedule is found up to the II
/// limit.
pub fn ims_schedule(
    l: &Loop,
    machine: &MachineConfig,
    _config: &ImsConfig,
) -> Result<ScheduleResult, ScheduleError> {
    let ddg = l.ddg.clone();
    let bounds = mii(&ddg, machine)?;
    let start_ii = bounds.mii();
    let max_ii = default_max_ii(&ddg, machine, start_ii);
    let budget = BUDGET_RATIO * ddg.num_live_ops().max(1) as u64;
    let order = SweepOrder::of_body(&ddg);

    let mut stats = SchedStats { mii: Some(bounds), ..SchedStats::default() };

    let telemetry = Telemetry::current();
    for ii in start_ii..=max_ii {
        admit_mrt(machine, ii)?;
        stats.ii_attempts += 1;
        telemetry.event(EventKind::IiAttemptStarted);
        if let Some(outcome) = try_ims(&ddg, &order, machine, ii, budget) {
            stats.evictions += outcome.evictions;
            stats.budget_used += outcome.budget_used;
            return Ok(ScheduleResult {
                loop_name: l.name.clone(),
                ddg,
                schedule: outcome.schedule,
                stats,
            });
        }
        telemetry.event(EventKind::IiAttemptFailed);
    }
    Err(ScheduleError::IiLimitReached { limit: max_ii })
}

/// A safe upper bound for the II search: wide enough that every operation can
/// occupy its own row even on a single-unit machine. Shared by IMS and DMS.
///
/// All arithmetic saturates: a heavily unrolled loop (large `ops`) times the
/// worst-case latency must cap at `u32::MAX` instead of wrapping to a tiny
/// limit that would abort the II search spuriously.
pub fn default_max_ii(ddg: &Ddg, machine: &MachineConfig, start_ii: u32) -> u32 {
    let ops = ddg.num_live_ops().min(u32::MAX as usize) as u32;
    let lat = machine.latency().max_latency();
    saturating_max_ii(ops, lat, start_ii)
}

/// The saturating computation behind [`default_max_ii`], separated so the
/// overflow behaviour is unit-testable without building a 2^28-operation DDG.
fn saturating_max_ii(ops: u32, lat: u32, start_ii: u32) -> u32 {
    ops.saturating_mul(lat).max(start_ii).saturating_add(ops).saturating_add(8)
}

/// The operations waiting to be scheduled, popped highest priority first
/// (largest priority, then smallest id).
///
/// A waiting op's priority never changes while it waits (DMS rebuilds the
/// worklist when it sets new priorities), so a binary heap pops exactly the
/// op a scan for the maximum would. Removing an op other than by popping
/// only clears its flag; its heap entry is dropped when it reaches the top.
#[derive(Debug, Clone, Default)]
pub struct Worklist {
    heap: BinaryHeap<(i64, Reverse<OpId>)>,
    /// Per op id: whether the op is waiting.
    waiting: Vec<bool>,
    len: usize,
}

impl Worklist {
    /// Whether `op` is waiting.
    pub fn contains(&self, op: OpId) -> bool {
        self.waiting.get(op.index()).copied().unwrap_or(false)
    }

    /// The number of waiting operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no operation is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `op` with the given priority unless it is already waiting.
    pub fn push(&mut self, op: OpId, priority: i64) {
        if self.contains(op) {
            return;
        }
        if self.waiting.len() <= op.index() {
            self.waiting.resize(op.index() + 1, false);
        }
        self.waiting[op.index()] = true;
        self.len += 1;
        self.heap.push((priority, Reverse(op)));
    }

    /// Stops `op` waiting, if it was.
    pub fn remove(&mut self, op: OpId) {
        if self.contains(op) {
            self.waiting[op.index()] = false;
            self.len -= 1;
        }
    }

    /// Removes and returns the highest-priority waiting operation.
    pub fn pop(&mut self) -> Option<OpId> {
        while let Some((_, Reverse(op))) = self.heap.pop() {
            if self.contains(op) {
                self.remove(op);
                return Some(op);
            }
        }
        None
    }
}

/// The scheduling window `(min_time, max_time)` of an operation whose
/// predecessors allow it to start at `estart`: II consecutive times, so
/// every MRT row once. An operation scheduled before, last at `prev_time`,
/// must start later than that time (Rau's forced-progress rule), so
/// re-scheduling cannot cycle.
pub fn window(estart: u32, prev_time: Option<u32>, ii: u32) -> (u32, u32) {
    let min_time = prev_time.map_or(estart, |prev| estart.max(prev + 1));
    (min_time, min_time + ii - 1)
}

/// The occupant evicted to free a unit of a full slot: the lowest
/// priority, then the larger id.
///
/// # Panics
///
/// Panics if `occupants` is empty.
pub fn eviction_victim(occupants: &[OpId], priority: &[i64]) -> OpId {
    *occupants
        .iter()
        .min_by_key(|&&o| (priority[o.index()], Reverse(o)))
        .expect("a full slot has occupants")
}

/// The scheduled successors of `op` (self edges excluded, in edge order)
/// whose dependence is violated once `op` issues at `time`. A successor
/// reached by several violated edges appears once per edge.
pub fn violated_successors<'a>(
    ddg: &'a Ddg,
    schedule: &'a Schedule,
    op: OpId,
    time: u32,
) -> impl Iterator<Item = OpId> + 'a {
    let ii = schedule.ii();
    ddg.succs(op).filter(move |(_, e)| e.dst != op).filter_map(move |(_, e)| {
        let d = schedule.get(e.dst)?;
        ((d.time as i64) < dependence_bound(time, e.latency, ii, e.distance)).then_some(e.dst)
    })
}

struct ImsOutcome {
    schedule: Schedule,
    evictions: u64,
    budget_used: u64,
}

/// One II attempt, with priorities from the body's sweep `order`. Returns
/// `None` if the budget is exhausted before every operation is placed.
fn try_ims(
    ddg: &Ddg,
    order: &SweepOrder,
    machine: &MachineConfig,
    ii: u32,
    budget: u64,
) -> Option<ImsOutcome> {
    let height = order.heights(ddg, ii);
    let cluster = ClusterId(0);
    let mut mrt = Mrt::new(machine, ii);
    let mut schedule = Schedule::new(ii, ddg.num_slots());
    let mut prev_time = vec![None; ddg.num_slots()];
    let mut worklist = Worklist::default();
    for op in ddg.live_op_ids() {
        worklist.push(op, height[op.index()]);
    }
    let mut evictions = 0u64;
    let mut budget_used = 0u64;
    let mut unschedule = |v: OpId, mrt: &mut Mrt, schedule: &mut Schedule, wl: &mut Worklist| {
        mrt.release(v);
        schedule.remove(v);
        wl.push(v, height[v.index()]);
        evictions += 1;
    };

    while let Some(op) = worklist.pop() {
        if budget_used == budget {
            return None;
        }
        budget_used += 1;

        let estart = earliest_start(ddg, &schedule, op, ii);
        let (min_time, max_time) = window(estart, prev_time[op.index()], ii);
        let fu = FuKind::for_op(ddg.op(op).kind);
        let time = mrt.first_free((min_time, max_time), cluster, fu).unwrap_or(min_time);
        while !mrt.has_free(time, cluster, fu) {
            let victim = eviction_victim(mrt.occupants(time, cluster, fu), &height);
            unschedule(victim, &mut mrt, &mut schedule, &mut worklist);
        }
        mrt.reserve(op, time, cluster, fu).expect("a unit was freed for this op");
        schedule.place(op, time, cluster);
        prev_time[op.index()] = Some(time);

        let violated: Vec<OpId> = violated_successors(ddg, &schedule, op, time).collect();
        for v in violated {
            if schedule.get(v).is_some() {
                unschedule(v, &mut mrt, &mut schedule, &mut worklist);
            }
        }
    }

    Some(ImsOutcome { schedule, evictions, budget_used })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;
    use dms_ir::kernels;

    fn check(l: &dms_ir::Loop, machine: &MachineConfig) -> ScheduleResult {
        let r = ims_schedule(l, machine, &ImsConfig::default())
            .unwrap_or_else(|e| panic!("{} failed to schedule: {e}", l.name));
        let violations = validate_schedule(&r.ddg, machine, &r.schedule);
        assert!(violations.is_empty(), "{}: schedule has violations: {:?}", l.name, violations);
        r
    }

    #[test]
    fn schedules_every_kernel_on_narrow_and_wide_machines() {
        for l in kernels::all(64) {
            for width in [1, 2, 4, 8] {
                let m = MachineConfig::unclustered(width);
                let r = check(&l, &m);
                let mii = r.stats.mii.unwrap().mii();
                assert!(r.ii() >= mii, "{}: II {} below MII {}", l.name, r.ii(), mii);
            }
        }
    }

    #[test]
    fn achieves_mii_on_simple_kernels() {
        // daxpy has no recurrence; on a wide machine IMS should reach MII.
        let l = kernels::daxpy(64);
        let m = MachineConfig::unclustered(4);
        let r = check(&l, &m);
        assert_eq!(r.ii(), r.stats.mii.unwrap().mii());
    }

    #[test]
    fn recurrence_bound_is_respected_not_exceeded_much() {
        let l = kernels::iir(64);
        let m = MachineConfig::unclustered(8);
        let r = check(&l, &m);
        assert_eq!(r.stats.mii.unwrap().rec_mii, 3);
        assert!(r.ii() <= 4, "IIR II should stay near RecMII, got {}", r.ii());
    }

    #[test]
    fn wider_machines_do_not_increase_ii() {
        let l = kernels::fir(8, 64);
        let narrow = check(&l, &MachineConfig::unclustered(1)).ii();
        let wide = check(&l, &MachineConfig::unclustered(8)).ii();
        assert!(wide <= narrow);
        assert!(wide < narrow, "an 8x wider machine must help an 8-tap FIR");
    }

    #[test]
    fn single_use_conversion_adds_copies() {
        // horner's `x` is read once per polynomial term, so the conversion
        // must insert copies for the reads beyond the second; IMS schedules
        // the converted loop like any other.
        let l = kernels::horner(4, 64);
        let m = MachineConfig::unclustered(2);
        let (converted, copies) = dms_ir::transform::single_use_loop(&l, m.latency());
        assert!(copies > 0);
        let r = check(&converted, &m);
        assert_eq!(r.ddg.live_ops().filter(|(_, o)| !o.kind.is_useful()).count(), copies);
        // useful op count unchanged by the conversion
        assert_eq!(r.useful_ops(), l.useful_ops());
    }

    #[test]
    fn unschedulable_machine_is_reported() {
        let l = kernels::daxpy(8);
        let m = MachineConfig::homogeneous(
            1,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        assert!(matches!(
            ims_schedule(&l, &m, &ImsConfig::default()),
            Err(ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, .. })
        ));
    }

    #[test]
    fn eviction_victim_is_the_lowest_priority_then_the_larger_id() {
        let priority = [5, 3, 3, 7];
        let all = [OpId(0), OpId(1), OpId(2), OpId(3)];
        assert_eq!(eviction_victim(&all, &priority), OpId(2));
        assert_eq!(eviction_victim(&[OpId(3), OpId(0)], &priority), OpId(0));
    }

    #[test]
    fn window_starts_after_the_previous_time() {
        assert_eq!(window(4, None, 3), (4, 6));
        assert_eq!(window(4, Some(2), 3), (4, 6));
        assert_eq!(window(4, Some(4), 3), (5, 7));
        assert_eq!(window(0, Some(0), 1), (1, 1));
    }

    #[test]
    fn default_max_ii_saturates_instead_of_wrapping() {
        // ops * lat would overflow u32 for a 2^28-op unrolled loop with
        // latency 100; the limit must cap at u32::MAX, not wrap to a tiny
        // value that aborts the II search.
        let huge = saturating_max_ii(1 << 28, 100, 5);
        assert_eq!(huge, u32::MAX);
        assert!(huge >= 5, "the limit must never drop below the start II");
        // the + ops + 8 tail must saturate too
        assert_eq!(saturating_max_ii(u32::MAX, 1, 1), u32::MAX);
        // small inputs are unchanged by the saturating form
        assert_eq!(saturating_max_ii(10, 4, 3), 10 * 4 + 10 + 8);
        assert_eq!(saturating_max_ii(2, 1, 50), 50 + 2 + 8);
    }

    #[test]
    fn cycle_count_decreases_with_width() {
        let l = kernels::fir(8, 1000);
        let narrow = check(&l, &MachineConfig::unclustered(1));
        let wide = check(&l, &MachineConfig::unclustered(4));
        assert!(wide.cycles(l.trip_count) < narrow.cycles(l.trip_count));
        assert!(wide.ipc(l.trip_count) > narrow.ipc(l.trip_count));
    }

    #[test]
    fn clustered_machine_uses_only_cluster_zero() {
        let l = kernels::daxpy(64);
        let m = MachineConfig::paper_clustered(4);
        let r = check(&l, &m);
        assert!(r.schedule.iter().all(|(_, s)| s.cluster == ClusterId(0)));
    }
}
