//! Tests of the lifetime math in `dms_sched::pressure` on DMS schedules.
//!
//! They live here rather than beside the math because only this crate can
//! build a clustered schedule: `dms-sched` cannot depend on the DMS
//! scheduler that depends on it.

mod tests {
    use crate::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_machine::MachineConfig;
    use dms_sched::pressure::{lifetimes_of, max_live};
    use dms_sched::LifetimeClass;

    #[test]
    fn lifetime_lengths_and_depths() {
        let l = kernels::daxpy(128);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let lts = lifetimes_of(&r, &m.topology());
        assert!(!lts.is_empty());
        for lt in &lts {
            assert!(lt.depth >= 1);
            assert_eq!(lt.length, lt.use_time - lt.def_time);
            assert!(!matches!(lt.class, LifetimeClass::Conflict { .. }));
        }
    }

    #[test]
    fn loop_carried_lifetimes_span_iterations() {
        let l = kernels::dot_product(128);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let lts = lifetimes_of(&r, &m.topology());
        // the accumulator self-dependence has distance 1, so its use time is
        // at least II beyond its def time
        let self_lt = lts.iter().find(|lt| lt.producer == lt.consumer).unwrap();
        assert!(self_lt.length >= 1);
        assert!(self_lt.depth >= 1);
    }

    #[test]
    fn cross_cluster_lifetimes_only_between_adjacent_clusters() {
        let l = dms_ir::transform::unroll(&kernels::fir(8, 256), 2);
        let m = MachineConfig::paper_clustered(6);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        for lt in lifetimes_of(&r, &m.topology()) {
            match lt.class {
                LifetimeClass::CrossCluster { queue } => {
                    assert_eq!(m.topology().distance(queue.writer, queue.reader), 1);
                }
                LifetimeClass::Conflict { .. } => panic!("schedule has a communication conflict"),
                LifetimeClass::Local(_) => {}
            }
        }
    }

    #[test]
    fn max_live_is_positive_for_nontrivial_loops() {
        let l = kernels::complex_multiply(128);
        let m = MachineConfig::paper_clustered(4);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let lts = lifetimes_of(&r, &m.topology());
        let ml = max_live(&lts, r.ii());
        assert!(ml >= 1);
        // MaxLive can never exceed the total number of lifetime instances
        let total: u32 = lts.iter().map(|lt| lt.depth).sum();
        assert!(ml <= total * r.ii());
    }

    #[test]
    fn max_live_of_empty_is_zero() {
        assert_eq!(max_live(&[], 4), 0);
    }
}
