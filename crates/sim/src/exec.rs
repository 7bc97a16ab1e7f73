//! Execution tests: schedules of both schedulers run through the emitted
//! program on the VLIW executor ([`crate::vliw`]), with every stored value
//! checked against the sequential reference interpreter.

#[cfg(test)]
mod tests {
    use crate::interp::reference_trace;
    use crate::verify::{verify_schedule, VerifyError};
    use crate::vliw::{execute_program, SimError};
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::{kernels, OpId, OpKind};
    use dms_machine::{ClusterId, MachineConfig};
    use dms_regalloc::{allocate, emit};
    use dms_sched::ims::{ims_schedule, ImsConfig};
    use dms_sched::schedule::ScheduleResult;

    /// The store of `r` and the operation producing its value.
    fn store_and_producer(r: &ScheduleResult) -> (OpId, OpId) {
        let store = r.ddg.live_ops().find(|(_, o)| o.kind == OpKind::Store).map(|(id, _)| id);
        let store = store.unwrap();
        (store, r.ddg.op(store).defs_read().next().unwrap().0)
    }

    #[test]
    fn every_kernel_executes_correctly_on_clustered_machines() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 6, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let report = verify_schedule(&l, &r, &m, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} on {clusters} clusters: execution failed: {e}", l.name)
                });
                assert!(report.stores_checked > 0);
                assert_eq!(
                    report.useful_instances,
                    l.useful_ops() as u64 * l.trip_count,
                    "{}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn ims_schedules_execute_correctly_on_unclustered_machines() {
        for l in kernels::all(40) {
            let m = MachineConfig::unclustered(4);
            let r = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
            let report = verify_schedule(&l, &r, &m, l.trip_count).unwrap();
            assert_eq!(report.cross_cluster_values, 0);
            assert!(report.useful_instances > 0 && report.cycles > 0);
        }
    }

    #[test]
    fn cross_cluster_values_flow_through_queues() {
        // 16 loads + 16 muls + a reduction tree: the Load/Store pressure
        // forces the loads to spread over many clusters, so the reduction has
        // to pull values across cluster boundaries.
        let l = kernels::fir(16, 512);
        let m = MachineConfig::paper_clustered(8);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let used: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        assert!(used.len() > 1, "17 memory operations cannot fit in one cluster at this II");
        let report = verify_schedule(&l, &r, &m, 64).unwrap();
        assert!(report.cross_cluster_values > 0);
        assert!(report.max_queue_depth >= 1);
    }

    #[test]
    fn corrupted_schedule_is_detected() {
        // Move the store of a chain to an unrelated cluster far from its
        // producer: the value can no longer reach it.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(6);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let (store, producer) = store_and_producer(&r);
        let p_cluster = r.schedule.get(producer).unwrap().cluster;
        let far = ClusterId((p_cluster.0 + 3) % 6);
        let t = r.schedule.get(store).unwrap().time;
        r.schedule.place(store, t, far);
        assert!(matches!(verify_schedule(&l, &r, &m, 8), Err(VerifyError::InvalidSchedule(_))));
    }

    #[test]
    fn dependence_violation_changes_stored_values() {
        // Issue a producer too late (after its consumer): the validator
        // rejects it, and executing the program anyway must not reproduce
        // the reference stores.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(2);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let (_, producer) = store_and_producer(&r);
        let place = r.schedule.get(producer).unwrap();
        // push the producer 10 * II later, violating the dependence
        let late = place.time + 10 * r.ii();
        r.schedule.place(producer, late, place.cluster);
        assert!(matches!(verify_schedule(&l, &r, &m, 8), Err(VerifyError::InvalidSchedule(_))));

        let allocation = allocate(&r, &m);
        let executed = allocation
            .ok()
            .and_then(|_| execute_program(&emit(&r, &m), &r.ddg, &m, 8).ok())
            .map(|report| {
                let mut stores = report.stores;
                stores.sort_unstable_by_key(|s| (s.iteration, s.op));
                stores
            });
        let mut expected = reference_trace(&l.ddg, 8);
        expected.sort_unstable_by_key(|s| (s.iteration, s.op));
        assert_ne!(executed, Some(expected), "a violated dependence must be detected");
    }

    #[test]
    fn a_consumer_issued_before_its_same_cluster_producer_reads_an_empty_lrf() {
        // The late producer above, on a schedule where the store and its
        // producer share a cluster: the store's first read finds the LRF
        // stream empty instead of reading a value nobody produced.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(2);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let (store, producer) = store_and_producer(&r);
        let place = r.schedule.get(producer).unwrap();
        assert_eq!(r.schedule.get(store).unwrap().cluster, place.cluster, "an LRF value");
        let late = place.time + 10 * r.ii();
        r.schedule.place(producer, late, place.cluster);
        assert_eq!(
            execute_program(&emit(&r, &m), &r.ddg, &m, 8),
            Err(SimError::EmptyQueueRead { consumer: store, iteration: 0 })
        );
    }

    #[test]
    fn report_ipc_matches_schedule_model() {
        let l = kernels::fir(8, 200);
        let m = MachineConfig::paper_clustered(4);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let report = verify_schedule(&l, &r, &m, l.trip_count).unwrap();
        assert_eq!(report.cycles, r.cycles(l.trip_count));
        let ipc = report.useful_instances as f64 / report.cycles as f64;
        assert!((ipc - r.ipc(l.trip_count)).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = SimError::EmptyQueueRead { consumer: OpId(2), iteration: 5 };
        assert!(e.to_string().contains("op2"));
    }
}
