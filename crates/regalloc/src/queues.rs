//! Allocation of lifetimes to queue register files.

use dms_machine::MachineConfig;
use dms_sched::pressure::{lifetimes, max_live};
use dms_sched::schedule::ScheduleResult;
use dms_sched::{CapacityExcess, Lifetime, LifetimeClass, QueuePressure};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by [`allocate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A flow dependence connects indirectly connected clusters, so there is
    /// no queue file that could hold it (the schedule violates the
    /// communication constraint).
    CommunicationConflict {
        /// The offending lifetime.
        lifetime: Lifetime,
    },
    /// The register requirement of a queue file exceeds its capacity.
    CapacityExceeded(CapacityExcess),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::CommunicationConflict { lifetime } => write!(
                f,
                "lifetime {} -> {} crosses indirectly connected clusters",
                lifetime.producer, lifetime.consumer
            ),
            AllocError::CapacityExceeded(CapacityExcess { queue, required, capacity }) => {
                write!(f, "{queue} needs {required} registers but only {capacity} exist")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The outcome of allocating every lifetime of a scheduled loop to queue
/// register files.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegAllocResult {
    /// Registers required in each LRF and CQRF.
    pub pressure: QueuePressure,
    /// The classic MaxLive register-pressure metric over the whole loop.
    pub max_live: u32,
}

/// Allocates every lifetime of a scheduled loop to the LRF of its cluster or
/// to the CQRF between the producing and consuming clusters, and aggregates
/// the per-queue-file register requirements.
///
/// The accumulation and the capacity check both go through
/// [`dms_sched::QueuePressure`] — the same code the DMS scheduler uses for
/// its incremental pressure estimate, so the scheduler's capacity-driven
/// II retries reject exactly the schedules this function would reject.
///
/// # Errors
///
/// Returns [`AllocError::CommunicationConflict`] if a lifetime crosses
/// indirectly connected clusters, and [`AllocError::CapacityExceeded`] if a
/// queue file's requirement exceeds the capacity configured in the machine.
pub fn allocate(
    result: &ScheduleResult,
    machine: &MachineConfig,
) -> Result<RegAllocResult, AllocError> {
    let lts = lifetimes(&result.ddg, &result.schedule, &machine.topology());
    if let Some(conflict) = lts.iter().find(|lt| matches!(lt.class, LifetimeClass::Conflict { .. }))
    {
        return Err(AllocError::CommunicationConflict { lifetime: *conflict });
    }

    let pressure = QueuePressure::from_lifetimes(&lts, machine.num_clusters());
    if let Some(x) = pressure.capacity_excess(machine) {
        return Err(AllocError::CapacityExceeded(x));
    }
    Ok(RegAllocResult { pressure, max_live: max_live(&lts, result.ii()) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::{kernels, transform};
    use dms_machine::MachineConfig;
    use dms_sched::ims::{ims_schedule, ImsConfig};

    #[test]
    fn allocation_succeeds_for_every_kernel() {
        for l in kernels::all(128) {
            for clusters in [1, 2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let alloc = allocate(&r, &m).unwrap_or_else(|e| {
                    panic!("{} on {} clusters: allocation failed: {e}", l.name, clusters)
                });
                assert!(alloc.pressure.total() >= 1);
                assert_eq!(alloc.pressure.lrf_registers().len(), clusters as usize);
            }
        }
    }

    #[test]
    fn single_cluster_machines_use_no_cqrf() {
        let l = kernels::fir(8, 256);
        let m = MachineConfig::paper_clustered(1);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let alloc = allocate(&r, &m).unwrap();
        assert!(alloc.pressure.cqrf_registers().is_empty());
        assert!(alloc.pressure.lrf_registers()[0] > 0);
    }

    #[test]
    fn cross_cluster_values_show_up_in_cqrfs() {
        // A large unrolled loop on many clusters must send values across
        // cluster boundaries.
        let l = transform::unroll(&kernels::daxpy(1024), 8);
        let m = MachineConfig::paper_clustered(8);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let alloc = allocate(&r, &m).unwrap();
        let used_clusters: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        if used_clusters.len() > 1 {
            assert!(alloc.pressure.total() > 0, "values must live somewhere");
        }
    }

    #[test]
    fn capacity_violations_are_reported() {
        let l = kernels::fir(16, 256);
        let m = MachineConfig::paper_clustered(2).with_cqrf_capacity(32);
        let tight = {
            let mut m2 = MachineConfig::paper_clustered(2);
            m2.lrf_capacity = 1;
            m2
        };
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        // The allocator rejects exactly the excess the scheduler's pressure
        // model reports for the same schedule, so DMS's pressure retries
        // reject exactly what allocation would.
        let expected = QueuePressure::of_schedule(&r.ddg, &r.schedule, &tight.topology())
            .capacity_excess(&tight)
            .expect("one LRF register cannot hold fir16");
        match allocate(&r, &tight) {
            Err(AllocError::CapacityExceeded(x)) => assert_eq!(x, expected),
            other => panic!("expected a capacity error, got {other:?}"),
        }
    }

    #[test]
    fn ims_unclustered_allocation_is_all_local() {
        let l = kernels::complex_multiply(256);
        let m = MachineConfig::unclustered(4);
        let r = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
        let alloc = allocate(&r, &m).unwrap();
        assert!(alloc.pressure.cqrf_registers().is_empty());
        assert_eq!(alloc.pressure.lrf_registers().len(), 1);
        assert_eq!(alloc.pressure.total(), alloc.pressure.lrf_registers()[0]);
        assert!(alloc.max_live > 0);
    }

    #[test]
    fn error_display() {
        let e = AllocError::CapacityExceeded(CapacityExcess {
            queue: "LRF of cluster 0".into(),
            required: 9,
            capacity: 4,
        });
        assert_eq!(e.to_string(), "LRF of cluster 0 needs 9 registers but only 4 exist");
    }
}
