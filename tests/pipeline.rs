//! End-to-end integration tests: loop construction → single-use conversion →
//! scheduling (IMS and DMS) → validation → register allocation → execution
//! of the emitted program, cross-checked against the scalar reference.

use dms_core::{dms_schedule, DmsConfig};
use dms_ir::{kernels, transform, LoopBuilder, Operand};
use dms_machine::MachineConfig;
use dms_regalloc::allocate;
use dms_sched::ims::{ims_schedule, ImsConfig};
use dms_sched::validate_schedule;
use dms_sim::verify_schedule;

/// The complete compilation pipeline for every kernel on every machine of the
/// paper's range: schedule, validate, allocate registers and execute.
#[test]
fn full_pipeline_for_every_kernel_and_cluster_count() {
    for l in kernels::all(48) {
        for clusters in [1, 2, 4, 8, 10] {
            let machine = MachineConfig::paper_clustered(clusters);
            let result = dms_schedule(&l, &machine, &DmsConfig::default())
                .unwrap_or_else(|e| panic!("{} on {clusters} clusters: {e}", l.name));

            let violations = validate_schedule(&result.ddg, &machine, &result.schedule);
            assert!(violations.is_empty(), "{}: {:?}", l.name, violations);

            let alloc = allocate(&result, &machine)
                .unwrap_or_else(|e| panic!("{}: register allocation failed: {e}", l.name));
            assert!(alloc.pressure.total() > 0);

            let report = verify_schedule(&l, &result, &machine, l.trip_count)
                .unwrap_or_else(|e| panic!("{}: verification failed: {e}", l.name));
            assert_eq!(report.useful_instances, l.useful_ops() as u64 * l.trip_count);
            assert_eq!(report.cycles, result.cycles(l.trip_count));
        }
    }
}

/// The unclustered baseline goes through the same pipeline with IMS.
#[test]
fn ims_pipeline_on_unclustered_machines() {
    for l in kernels::all(48) {
        for width in [1, 4, 10] {
            let machine = MachineConfig::unclustered(width);
            let result = ims_schedule(&l, &machine, &ImsConfig::default()).unwrap();
            assert!(validate_schedule(&result.ddg, &machine, &result.schedule).is_empty());
            let report = verify_schedule(&l, &result, &machine, l.trip_count).unwrap();
            assert_eq!(
                report.cross_cluster_values, 0,
                "{}: unclustered machines have no CQRFs",
                l.name
            );
        }
    }
}

/// DMS respects the unclustered ideal: its II is never smaller, and the gap
/// closes when the loop fits comfortably.
#[test]
fn dms_vs_ims_ii_relationship() {
    for l in kernels::all(64) {
        for clusters in [2, 4, 8] {
            let d =
                dms_schedule(&l, &MachineConfig::paper_clustered(clusters), &DmsConfig::default())
                    .unwrap();
            let i = ims_schedule(&l, &MachineConfig::unclustered(clusters), &ImsConfig::default())
                .unwrap();
            assert!(d.ii() >= i.ii(), "{} on {clusters} clusters", l.name);
            // the clustered overhead stays within a small factor for the kernels
            assert!(
                d.ii() <= i.ii() * 2 + 2,
                "{} on {clusters} clusters: DMS II {} vs IMS II {}",
                l.name,
                d.ii(),
                i.ii()
            );
        }
    }
}

/// Unrolled wide loops still go through the whole pipeline and spread across
/// clusters, moving values through the CQRFs.
#[test]
fn unrolled_wide_loop_uses_the_ring() {
    let l = transform::unroll(&kernels::fir(8, 512), 2);
    let machine = MachineConfig::paper_clustered(8);
    let result = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
    assert!(validate_schedule(&result.ddg, &machine, &result.schedule).is_empty());

    let used: std::collections::HashSet<_> =
        result.schedule.iter().map(|(_, s)| s.cluster).collect();
    assert!(used.len() >= 4, "a 50-op loop should use at least half of the 8 clusters");

    let alloc = allocate(&result, &machine).unwrap();
    assert!(!alloc.pressure.cqrf_registers().is_empty(), "cross-cluster values must use CQRFs");

    let report = verify_schedule(&l, &result, &machine, 64).unwrap();
    assert!(report.cross_cluster_values > 0);
    assert!(report.max_queue_depth >= 1);
}

/// A hand-written loop with a wide fan-out exercises the single-use
/// conversion inside DMS and still executes correctly.
#[test]
fn wide_fanout_loop_roundtrip() {
    let mut b = LoopBuilder::new("fanout");
    let a = b.load(Operand::Induction);
    let mut vals = Vec::new();
    for k in 0..6 {
        vals.push(b.mul(a.into(), Operand::Invariant(k)));
    }
    let mut acc: Operand = vals[0].into();
    for v in &vals[1..] {
        acc = b.add(acc, (*v).into()).into();
    }
    b.store(acc);
    let l = b.finish(40);

    let machine = MachineConfig::paper_clustered(6);
    let result = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
    assert!(result.stats.copies_inserted > 0, "`a` has six readers, copies are mandatory");
    assert!(validate_schedule(&result.ddg, &machine, &result.schedule).is_empty());
    verify_schedule(&l, &result, &machine, l.trip_count)
        .expect("the transformed loop must still be correct");
}

/// Scheduling is deterministic: the same input yields the same schedule.
#[test]
fn scheduling_is_deterministic() {
    let l = kernels::fir(12, 256);
    let machine = MachineConfig::paper_clustered(6);
    let a = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
    let b = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
    assert_eq!(a.ii(), b.ii());
    let pa: Vec<_> = a.schedule.iter().collect();
    let pb: Vec<_> = b.schedule.iter().collect();
    assert_eq!(pa, pb);
}
