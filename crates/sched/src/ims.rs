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
//! On a clustered [`MachineConfig`] this implementation places every
//! operation in cluster 0 (it knows nothing about partitioning); use the
//! `dms-core` crate for clustered targets.

use crate::mii::mii;
use crate::priority::heights;
use crate::schedule::{
    dependence_bound, earliest_start, SchedStats, Schedule, ScheduleError, ScheduleResult,
};
use dms_ir::{Ddg, Loop, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig, Mrt};
use dms_telemetry::{EventKind, Telemetry};

/// Tuning parameters of the IMS search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImsConfig {
    /// Scheduling budget per candidate II, expressed as a multiple of the
    /// number of operations (Rau uses small single-digit ratios; 6–8 is a
    /// common choice).
    pub budget_ratio: u32,
    /// Upper limit on the II search; `None` derives a safe limit from the
    /// loop size and latencies.
    pub max_ii: Option<u32>,
}

impl Default for ImsConfig {
    fn default() -> Self {
        ImsConfig { budget_ratio: 8, max_ii: None }
    }
}

/// Schedules a loop with IMS on the given machine.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop needs a
/// functional-unit class the machine does not have, and
/// [`ScheduleError::IiLimitReached`] if no schedule is found up to the II
/// limit (which indicates an unreasonably small budget or limit).
pub fn ims_schedule(
    l: &Loop,
    machine: &MachineConfig,
    config: &ImsConfig,
) -> Result<ScheduleResult, ScheduleError> {
    let ddg = l.ddg.clone();
    let bounds = mii(&ddg, machine)?;
    let start_ii = bounds.mii();
    let max_ii = config.max_ii.unwrap_or_else(|| default_max_ii(&ddg, machine, start_ii));
    let budget = config.budget_ratio as u64 * ddg.num_live_ops().max(1) as u64;

    let mut stats = SchedStats { mii: Some(bounds), ..SchedStats::default() };

    let telemetry = Telemetry::current();
    for ii in start_ii..=max_ii {
        stats.ii_attempts += 1;
        telemetry.event(EventKind::IiAttemptStarted);
        if let Some(outcome) = try_ims(&ddg, machine, ii, budget) {
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

struct ImsOutcome {
    schedule: Schedule,
    evictions: u64,
    budget_used: u64,
}

/// One II attempt. Returns `None` if the budget is exhausted before every
/// operation is placed.
fn try_ims(ddg: &Ddg, machine: &MachineConfig, ii: u32, budget: u64) -> Option<ImsOutcome> {
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

        // Highest priority first; ties broken by the smaller id.
        let (idx, &op) = unscheduled
            .iter()
            .enumerate()
            .max_by_key(|(_, &o)| (height[o.index()], std::cmp::Reverse(o)))
            .expect("unscheduled list is non-empty");
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

        // Evict as many occupants as needed to make room (lowest priority first).
        while !mrt.has_free(time, cluster, fu) {
            let victim = *mrt
                .occupants(time, cluster, fu)
                .iter()
                .min_by_key(|&&o| (height[o.index()], std::cmp::Reverse(o)))
                .expect("a full slot has occupants");
            mrt.release(victim);
            schedule.remove(victim);
            unscheduled.push(victim);
            evictions += 1;
        }
        mrt.reserve(op, time, cluster, fu).expect("a unit was freed for this op");
        schedule.place(op, time, cluster);
        never_scheduled[op.index()] = false;
        prev_time[op.index()] = time;

        // Displace already-scheduled successors whose dependence is now violated.
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
