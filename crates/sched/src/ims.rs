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
//! DMS is IMS plus cluster-aware placement, and on one cluster its three
//! strategies reduce to IMS's step. So IMS is the one [`crate::search`] on a
//! one-cluster machine, with a beam of width 1 and no jitter. It keeps two
//! constants of its own: a budget of 8 placements per
//! operation, and no retry when a queue file overflows (an overflowing
//! schedule is returned, and fails register allocation). A machine with
//! more than one cluster is an error: partitioning is DMS's job.

use crate::schedule::{ScheduleError, ScheduleResult};
use crate::search::{prepare, run_search, DmsConfig};
use dms_ir::{Ddg, Loop};
use dms_machine::MachineConfig;

/// Options of the IMS search. It has none: the budget is a fixed multiple of
/// the operation count and the II ceiling is [`default_max_ii`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImsConfig {}

/// Scheduling budget per candidate II, as a multiple of the number of
/// operations (Rau uses small single-digit ratios).
const BUDGET_RATIO: u64 = 8;

/// Schedules a loop with IMS on the given unclustered machine.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop needs a
/// functional-unit class the machine does not have, the other errors of
/// [`crate::mii()`], then [`ScheduleError::ClusteredMachine`] if the
/// machine has more than one cluster, and the errors of
/// [`crate::search::run_search`]: [`ScheduleError::MrtTooLarge`] and
/// [`ScheduleError::IiLimitReached`] if no schedule is found up to the II
/// limit.
pub fn ims_schedule(
    l: &Loop,
    machine: &MachineConfig,
    _config: &ImsConfig,
) -> Result<ScheduleResult, ScheduleError> {
    let prep = prepare(l, machine, &DmsConfig::default(), BUDGET_RATIO)?;
    if machine.is_clustered() {
        return Err(ScheduleError::ClusteredMachine { clusters: machine.num_clusters() });
    }
    Ok(run_search(&prep, None, 1, None, false)?.result)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;
    use dms_ir::kernels;
    use dms_machine::FuKind;

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
    fn clustered_machine_is_a_clean_error() {
        let l = kernels::daxpy(64);
        let m = MachineConfig::paper_clustered(4);
        let e = ims_schedule(&l, &m, &ImsConfig::default()).unwrap_err();
        assert_eq!(e, ScheduleError::ClusteredMachine { clusters: 4 });
        assert!(e.to_string().contains("4 clusters"), "{e}");
        // one cluster of the clustered machine's kind is still IMS's target
        check(&l, &MachineConfig::paper_clustered(1));
    }
}
