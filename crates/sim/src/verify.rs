//! End-to-end verification of a schedule: the functional-correctness oracle.
//!
//! [`verify_schedule`] drives the *whole* back half of the compilation
//! pipeline for one scheduled loop and cross-checks the result against the
//! semantics of the source loop:
//!
//! 1. **structural validation** — every dependence, resource and
//!    communication constraint re-checked by `dms_sched::validate`,
//! 2. **register allocation** — every lifetime must fit the LRF/CQRF
//!    capacities (`dms_regalloc::allocate`),
//! 3. **code generation** — the schedule is lowered to the software-pipelined
//!    VLIW program (`dms_regalloc::emit`),
//! 4. **execution** — the emitted prologue, kernel and epilogue run on the
//!    clustered machine interpreter ([`crate::vliw::execute_program`]),
//!    which also times every transfer under the topology's link bandwidth,
//! 5. **cross-check** — the executed store trace must be bit-equal to a
//!    scalar reference interpretation of the *original* (untransformed) loop
//!    DDG ([`crate::interp::reference_trace`]).
//!
//! Any scheduling, allocation, codegen or simulator bug that changes a value
//! reaching memory surfaces as a [`VerifyError`]. The function is re-exported
//! at the workspace root as `dms::verify_schedule`.

use crate::interp::{reference_trace, StoreRecord};
use crate::vliw::{execute_program, SimError};
use dms_ir::Loop;
use dms_machine::MachineConfig;
use dms_regalloc::queues::AllocError;
use dms_regalloc::{allocate, emit};
use dms_sched::schedule::ScheduleResult;
use dms_sched::validate::{validate_schedule, Violation};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a schedule failed end-to-end verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The structural validator found constraint violations.
    InvalidSchedule(Vec<Violation>),
    /// Register allocation failed (capacity or communication conflict).
    /// Since DMS became pressure-aware, a `CapacityExceeded` here means the
    /// scheduler's incremental pressure estimate diverged from the
    /// allocator — the estimator-equality property test should be failing
    /// too.
    Allocation(AllocError),
    /// The emitted program could not be executed.
    Execution(SimError),
    /// The executed store trace differs from the scalar reference. `expected`
    /// or `actual` is `None` when one trace ends before the other.
    TraceMismatch {
        /// First diverging record of the reference trace.
        expected: Option<StoreRecord>,
        /// Corresponding record of the executed trace.
        actual: Option<StoreRecord>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InvalidSchedule(v) => {
                write!(f, "schedule fails structural validation with {} violation(s)", v.len())?;
                if let Some(first) = v.first() {
                    write!(f, ", first: {first}")?;
                }
                Ok(())
            }
            VerifyError::Allocation(e) => write!(f, "register allocation failed: {e}"),
            VerifyError::Execution(e) => write!(f, "program execution failed: {e}"),
            VerifyError::TraceMismatch { expected, actual } => write!(
                f,
                "executed stores diverge from the reference: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The measurements gathered by one successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Initiation interval of the verified schedule.
    pub ii: u32,
    /// Kernel stages of the emitted program.
    pub stages: u32,
    /// Cycles the execution took: `(trip_count + stages - 1) * II`.
    pub cycles: u64,
    /// Stored values cross-checked against the scalar reference.
    pub stores_checked: u64,
    /// Operation instances executed (prologue + kernel + epilogue).
    pub instances_executed: u64,
    /// Useful (non copy/move) instances among them.
    pub useful_instances: u64,
    /// Values that crossed a cluster boundary through a CQRF.
    pub cross_cluster_values: u64,
    /// Largest occupancy reached by any CQRF stream.
    pub max_queue_depth: u64,
    /// Total queue registers the allocator assigned (LRFs + CQRFs).
    pub total_registers: u32,
    /// The allocator's MaxLive register-pressure metric.
    pub max_live: u32,
    /// Steady-state II the execution sustained under the topology's link
    /// bandwidth (`>= ii`; see [`crate::contention`]).
    pub achieved_ii: u32,
    /// Cycles the execution lost waiting on busy links.
    pub stall_cycles: u64,
}

fn sort_trace(mut trace: Vec<StoreRecord>) -> Vec<StoreRecord> {
    trace.sort_unstable_by_key(|r| (r.iteration, r.op));
    trace
}

/// Verifies a schedule end-to-end: validate → allocate → emit → execute →
/// cross-check against the scalar reference interpretation of `original`.
///
/// `original` is the source loop the schedule was produced from — *not* the
/// transformed DDG inside `result`. The single-use copies and DMS move
/// chains of the scheduled DDG are identities, so the stores of both graphs
/// (which share [`dms_ir::OpId`]s) must write bit-equal values; comparing against
/// the original body means the whole transformation stack is under test.
///
/// # Examples
///
/// Schedule one loop and run it through the whole oracle:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig};
/// use dms_ir::kernels;
/// use dms_machine::MachineConfig;
/// use dms_sim::verify_schedule;
///
/// let fir = kernels::fir(8, 64);
/// let machine = MachineConfig::paper_clustered(4);
/// let out = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
/// let report = verify_schedule(&fir, &out, &machine, fir.trip_count).unwrap();
/// assert_eq!(report.ii, out.ii());
/// assert!(report.stores_checked > 0);
/// ```
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, in pipeline order.
pub fn verify_schedule(
    original: &Loop,
    result: &ScheduleResult,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<VerifyReport, VerifyError> {
    let violations = validate_schedule(&result.ddg, machine, &result.schedule);
    if !violations.is_empty() {
        return Err(VerifyError::InvalidSchedule(violations));
    }

    let alloc = allocate(result, machine).map_err(VerifyError::Allocation)?;
    let program = emit(result, machine);
    let exec = execute_program(&program, &result.ddg, machine, trip_count)
        .map_err(VerifyError::Execution)?;

    let actual = sort_trace(exec.stores);
    let expected = sort_trace(reference_trace(&original.ddg, trip_count));
    if actual != expected {
        let diverge = expected
            .iter()
            .zip(&actual)
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        return Err(VerifyError::TraceMismatch {
            expected: expected.get(diverge).copied(),
            actual: actual.get(diverge).copied(),
        });
    }

    Ok(VerifyReport {
        ii: result.ii(),
        stages: program.stages,
        cycles: exec.cycles,
        stores_checked: expected.len() as u64,
        instances_executed: exec.instances_executed,
        useful_instances: exec.useful_instances,
        cross_cluster_values: exec.cross_cluster_values,
        max_queue_depth: exec.max_queue_depth,
        total_registers: alloc.pressure.total(),
        max_live: alloc.max_live,
        achieved_ii: exec.contention.achieved_ii,
        stall_cycles: exec.contention.stall_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::{kernels, OpId};
    use dms_machine::ClusterId;
    use dms_sched::ims::{ims_schedule, ImsConfig};

    #[test]
    fn every_kernel_verifies_on_clustered_and_unclustered_machines() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 6, 8] {
                let cm = MachineConfig::paper_clustered(clusters);
                let d = dms_schedule(&l, &cm, &DmsConfig::default()).unwrap();
                let rep = verify_schedule(&l, &d, &cm, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} (DMS, {clusters} clusters) failed verification: {e}", l.name)
                });
                assert!(rep.stores_checked > 0);
                assert!(rep.total_registers > 0);
                assert_eq!(
                    rep.useful_instances,
                    l.useful_ops() as u64 * l.trip_count,
                    "{}",
                    l.name
                );
                assert_eq!(rep.cycles, d.cycles(l.trip_count), "{}", l.name);

                let um = MachineConfig::unclustered(clusters);
                let i = ims_schedule(&l, &um, &ImsConfig::default()).unwrap();
                let rep = verify_schedule(&l, &i, &um, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} (IMS, width {clusters}) failed verification: {e}", l.name)
                });
                assert_eq!(rep.cross_cluster_values, 0);
            }
        }
    }

    #[test]
    fn single_use_transform_is_transparent_to_the_oracle() {
        // DMS on a clustered machine inserts copies; the reference is still
        // the untransformed loop, so the oracle checks the transform too.
        let l = kernels::horner(5, 48);
        let m = MachineConfig::paper_clustered(4);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        assert!(r.stats.copies_inserted > 0);
        let rep = verify_schedule(&l, &r, &m, l.trip_count).unwrap();
        assert_eq!(rep.stores_checked, l.trip_count);
    }

    /// The store of a scheduled daxpy and the operation it reads.
    fn store_and_producer(r: &ScheduleResult) -> (OpId, OpId) {
        let store = r
            .ddg
            .live_ops()
            .find(|(_, o)| o.kind == dms_ir::OpKind::Store)
            .map(|(id, _)| id)
            .unwrap();
        (store, r.ddg.op(store).defs_read().next().unwrap().0)
    }

    #[test]
    fn structurally_invalid_schedules_are_rejected_before_execution() {
        let l = kernels::daxpy(32);
        for clusters in [2, 4] {
            let m = MachineConfig::paper_clustered(clusters);
            let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
            let (store, producer) = store_and_producer(&r);
            // break a dependence: issue the store at time 0, or its
            // producer 10 * II late
            let mut early = r.clone();
            let cluster = early.schedule.get(store).unwrap().cluster;
            early.schedule.place(store, 0, cluster);
            let mut late = r.clone();
            let place = late.schedule.get(producer).unwrap();
            late.schedule.place(producer, place.time + 10 * r.ii(), place.cluster);
            for broken in [early, late] {
                match verify_schedule(&l, &broken, &m, 8) {
                    Err(VerifyError::InvalidSchedule(v)) => assert!(!v.is_empty()),
                    other => panic!("expected InvalidSchedule, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn wrong_cluster_is_caught() {
        // Move the store to a cluster the ring does not connect to its
        // producer's: a communication conflict.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(6);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let (store, producer) = store_and_producer(&r);
        let p_cluster = r.schedule.get(producer).unwrap().cluster;
        let t = r.schedule.get(store).unwrap().time;
        r.schedule.place(store, t, ClusterId((p_cluster.0 + 3) % 6));
        assert!(matches!(verify_schedule(&l, &r, &m, 8), Err(VerifyError::InvalidSchedule(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::TraceMismatch {
            expected: Some(StoreRecord { op: OpId(4), iteration: 2, value: 7 }),
            actual: None,
        };
        assert!(e.to_string().contains("diverge"));
        let e = VerifyError::InvalidSchedule(vec![Violation::Unscheduled(OpId(1))]);
        assert!(e.to_string().contains("1 violation(s)"));
        assert!(e.to_string().contains("op1"));
        let e =
            VerifyError::Execution(SimError::EmptyQueueRead { consumer: OpId(2), iteration: 5 });
        assert!(e.to_string().contains("op2 read an empty queue in iteration 5"));
    }
}
