//! Simulator-backed end-to-end schedule verification over the workload
//! suite.
//!
//! These tests close the loop the structural validator cannot: every
//! schedule the sweep produces is lowered through register allocation and
//! code generation, the emitted VLIW program (prologue, steady-state kernel
//! and epilogue) is *executed* on the clustered machine interpreter, and the
//! live-out (stored) values are required to be bit-equal to a scalar
//! reference interpretation of the original loop DDG. Any dependence
//! mis-scheduling, wrong cluster assignment, broken queue discipline or
//! codegen operand mix-up changes a stored value and fails here.

use dms::verify_schedule;
use dms_core::{dms_schedule, DmsConfig};
use dms_machine::MachineConfig;
use dms_sched::ims::{ims_schedule, ImsConfig};
use dms_sched::validate_schedule;
use dms_workloads::{generate, unroll_for_machine, SuiteConfig, UnrollPolicy};

/// Iterations to execute per verification: enough to fill and drain the
/// software pipeline several times while keeping the suite sweep fast.
const TRIPS: u64 = 48;

/// Every suite loop, scheduled by IMS (on the equivalent unclustered
/// machine) and by DMS (on the clustered machine) at 1, 2, 4 and 8 clusters,
/// executes with live-out values bit-equal to the scalar reference. The
/// 8-cluster column is where register pressure first broke the pipeline
/// (see `pinned_capacity_findings_*` below), so the gate covers it
/// explicitly.
#[test]
fn suite_schedules_execute_bit_equal_to_the_reference() {
    let suite = generate(&SuiteConfig::small(32));
    let unroll = UnrollPolicy::default();
    for sl in &suite {
        for clusters in [1u32, 2, 4, 8] {
            let clustered = MachineConfig::paper_clustered(clusters);
            let unclustered = MachineConfig::unclustered(clusters);
            let body = unroll_for_machine(&sl.body, clustered.total_useful_fus(), &unroll);
            let trips = body.trip_count.min(TRIPS);

            let ims = ims_schedule(&body, &unclustered, &ImsConfig::default())
                .unwrap_or_else(|e| panic!("{} (IMS, {clusters} clusters): {e}", body.name));
            let rep = verify_schedule(&body, &ims, &unclustered, trips).unwrap_or_else(|e| {
                panic!("{} (IMS, {clusters} clusters) failed verification: {e}", body.name)
            });
            assert!(rep.stores_checked > 0, "{}: nothing verified", body.name);
            assert_eq!(rep.cross_cluster_values, 0, "{}: unclustered CQRF traffic", body.name);

            let dms = dms_schedule(&body, &clustered, &DmsConfig::default())
                .unwrap_or_else(|e| panic!("{} (DMS, {clusters} clusters): {e}", body.name));
            let rep = verify_schedule(&body, &dms, &clustered, trips).unwrap_or_else(|e| {
                panic!("{} (DMS, {clusters} clusters) failed verification: {e}", body.name)
            });
            assert!(rep.stores_checked > 0, "{}: nothing verified", body.name);
            assert!(rep.total_registers > 0);
            assert_eq!(rep.cycles, dms.cycles(trips));
        }
    }
}

/// Validator completeness: every schedule the sweep produces — both
/// schedulers, every cluster count of the paper's range — passes the
/// structural validator, so the simulator oracle above and the structural
/// checks are exercised on the same population.
#[test]
fn every_sweep_schedule_passes_the_structural_validator() {
    let suite = generate(&SuiteConfig::small(16));
    let unroll = UnrollPolicy::default();
    for sl in &suite {
        for clusters in 1u32..=10 {
            let clustered = MachineConfig::paper_clustered(clusters);
            let unclustered = MachineConfig::unclustered(clusters);
            let body = unroll_for_machine(&sl.body, clustered.total_useful_fus(), &unroll);

            let ims = ims_schedule(&body, &unclustered, &ImsConfig::default()).unwrap();
            let v = validate_schedule(&ims.ddg, &unclustered, &ims.schedule);
            assert!(v.is_empty(), "{} (IMS, {clusters} clusters): {v:?}", body.name);

            let dms = dms_schedule(&body, &clustered, &DmsConfig::default()).unwrap();
            let v = validate_schedule(&dms.ddg, &clustered, &dms.schedule);
            assert!(v.is_empty(), "{} (DMS, {clusters} clusters): {v:?}", body.name);
        }
    }
}

/// The verify sweep composes with the work-stealing executor: verify mode on
/// 1 vs 4 workers produces byte-identical measurement CSV, with zero failed
/// tasks and a non-zero verified-store count folded into the stats.
#[test]
fn verify_sweep_is_deterministic_across_worker_counts() {
    use dms_experiments::{measure_suite_with_stats, report, ExperimentConfig};
    let mut serial = ExperimentConfig::quick(12);
    serial.cluster_counts = vec![1, 2, 4];
    serial.verify = true;
    serial.threads = 1;
    let mut parallel = serial.clone();
    parallel.threads = 4;

    let (a, sa) = measure_suite_with_stats(&serial);
    let (b, sb) = measure_suite_with_stats(&parallel);
    assert_eq!(sa.failed, 0, "a verification failure is a compiler bug");
    assert_eq!(sb.failed, 0);
    assert!(sa.stores_verified > 0);
    assert_eq!(sa.stores_verified, sb.stores_verified);
    assert_eq!(
        report::measurements_csv(&a),
        report::measurements_csv(&b),
        "verify-mode sweep output must not depend on the worker count"
    );
}

/// PR 2's 300-loop × 1..10-cluster verify stress found exactly two tasks
/// whose DMS schedules satisfied every structural constraint but could not
/// be register-allocated on the paper's 32-register CQRFs: suite loops 59
/// (CQRF\[C0→C7\] needed 47 registers) and 263 (CQRF\[C4→C5\] needed 55),
/// both on the 8-cluster machine, scheduled by the pressure-blind DMS of
/// that time. They are pinned here as deterministic regression fixtures:
/// the pressure-aware scheduler must schedule, allocate and bit-verify them
/// against the scalar reference.
#[test]
fn pinned_capacity_findings_schedule_allocate_and_verify_at_8_clusters() {
    let suite = generate(&SuiteConfig::small(300));
    let machine = MachineConfig::paper_clustered(8);
    for &id in &[59usize, 263] {
        let sl = &suite[id];
        assert_eq!(sl.id, id);
        let body =
            unroll_for_machine(&sl.body, machine.total_useful_fus(), &UnrollPolicy::default());
        let trips = body.trip_count.min(TRIPS);

        // The pressure-aware scheduler fits the queue files and bit-verifies.
        let r = dms_schedule(&body, &machine, &DmsConfig::default())
            .unwrap_or_else(|e| panic!("loop {id} (aware): {e}"));
        let alloc = dms_regalloc::allocate(&r, &machine)
            .unwrap_or_else(|e| panic!("loop {id}: aware schedule must allocate: {e}"));
        assert!(alloc.pressure.max_cqrf() <= machine.cqrf_capacity);
        let rep = verify_schedule(&body, &r, &machine, trips)
            .unwrap_or_else(|e| panic!("loop {id}: aware schedule must verify: {e}"));
        assert!(rep.stores_checked > 0);
    }
}

/// Every non-ring interconnect goes through the identical pipeline: suite
/// loops scheduled by DMS on chordal-ring, bus and crossbar machines pass
/// structural validation, register allocation, code generation and
/// execution with live-out values bit-equal to the scalar reference — and
/// their lifetimes land only in queue files the topology actually provides.
#[test]
fn non_ring_topologies_schedule_allocate_and_verify() {
    use dms_machine::TopologyKind;
    let suite = generate(&SuiteConfig::small(12));
    let unroll = UnrollPolicy::default();
    let kinds = [TopologyKind::ChordalRing { chord: 2 }, TopologyKind::Bus, TopologyKind::Crossbar];
    for kind in kinds {
        for clusters in [2u32, 4, 8] {
            let machine = MachineConfig::paper_clustered(clusters).with_topology(kind);
            let legal: std::collections::BTreeSet<_> =
                machine.topology().queue_files().into_iter().collect();
            for sl in &suite {
                let body = unroll_for_machine(&sl.body, machine.total_useful_fus(), &unroll);
                let trips = body.trip_count.min(TRIPS);
                let r = dms_schedule(&body, &machine, &DmsConfig::default())
                    .unwrap_or_else(|e| panic!("{} ({kind}, {clusters} clusters): {e}", body.name));
                let v = validate_schedule(&r.ddg, &machine, &r.schedule);
                assert!(v.is_empty(), "{} ({kind}, {clusters} clusters): {v:?}", body.name);
                let alloc = dms_regalloc::allocate(&r, &machine).unwrap_or_else(|e| {
                    panic!("{} ({kind}, {clusters} clusters): allocation failed: {e}", body.name)
                });
                for q in alloc.pressure.cqrf_registers().keys() {
                    assert!(
                        legal.contains(q),
                        "{} ({kind}): lifetime in nonexistent queue {q}",
                        body.name
                    );
                }
                let rep = verify_schedule(&body, &r, &machine, trips).unwrap_or_else(|e| {
                    panic!("{} ({kind}, {clusters} clusters) failed verification: {e}", body.name)
                });
                assert!(rep.stores_checked > 0, "{} ({kind}): nothing verified", body.name);
            }
        }
    }
}

/// A machine lacking a demanded functional-unit class yields a clean
/// `ScheduleError::UnexecutableLoop` from both schedulers — not a
/// `u32::MAX`-driven overflow of the II search.
#[test]
fn missing_fu_class_is_a_clean_error_for_both_schedulers() {
    use dms_machine::{ClusterFus, FuKind};
    use dms_sched::ScheduleError;
    let no_muls = ClusterFus { load_store: 1, add: 1, mul: 0, copy: 1 };
    let l = dms_ir::kernels::fir(4, 64); // FIR needs multipliers
    for clusters in [1u32, 4] {
        let m = MachineConfig::homogeneous(clusters, no_muls, dms_ir::LatencySpec::default());
        let i = ims_schedule(&l, &m, &ImsConfig::default());
        assert!(
            matches!(i, Err(ScheduleError::UnexecutableLoop { fu: FuKind::Mul, .. })),
            "IMS on {clusters} cluster(s): {i:?}"
        );
        let d = dms_schedule(&l, &m, &DmsConfig::default());
        assert!(
            matches!(d, Err(ScheduleError::UnexecutableLoop { fu: FuKind::Mul, .. })),
            "DMS on {clusters} cluster(s): {d:?}"
        );
    }
}
