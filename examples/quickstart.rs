//! Quickstart: build a loop, modulo-schedule it for a clustered VLIW machine
//! with DMS, and inspect the result.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dms_core::{dms_schedule, DmsConfig};
use dms_ir::{LoopBuilder, Operand};
use dms_machine::MachineConfig;
use dms_regalloc::allocate;
use dms_sched::validate_schedule;
use dms_sim::verify_schedule;

fn main() {
    // 1. Describe the innermost loop:  y[i] = a * x[i] + y[i]  (an axpy).
    let mut b = LoopBuilder::new("axpy");
    let x = b.load(Operand::Induction);
    let y = b.load(Operand::Induction);
    let ax = b.mul(x.into(), Operand::Invariant(0));
    let sum = b.add(ax.into(), y.into());
    b.store(sum.into());
    let axpy = b.finish(1_000);

    // 2. Describe the machine: 4 clusters, each with 1 L/S + 1 ADD + 1 MUL
    //    unit plus a Copy unit, connected in a bi-directional ring.
    let machine = MachineConfig::paper_clustered(4);

    // 3. Schedule with DMS (integrated modulo scheduling + partitioning).
    let result = dms_schedule(&axpy, &machine, &DmsConfig::default()).expect("axpy is schedulable");
    let mii = result.stats.mii.expect("bounds are always computed");
    println!("loop          : {}", result.loop_name);
    println!("MII           : {} (ResMII {}, RecMII {})", mii.mii(), mii.res_mii, mii.rec_mii);
    println!("achieved II   : {}", result.ii());
    println!("stage count   : {}", result.schedule.stage_count());
    println!("copies / moves: {} / {}", result.stats.copies_inserted, result.stats.moves_inserted);

    // 4. The schedule, operation by operation.
    println!("\n op   kind   time  row  stage  cluster");
    for (op, placed) in result.schedule.iter() {
        println!(
            "{:>4}  {:>5}  {:>4}  {:>3}  {:>5}  {:>7}",
            op.to_string(),
            result.ddg.op(op).kind.to_string(),
            placed.time,
            placed.row(result.ii()),
            placed.stage(result.ii()),
            placed.cluster.to_string()
        );
    }

    // 5. Independently validate, allocate queue registers and execute the
    //    emitted program against the scalar reference.
    let violations = validate_schedule(&result.ddg, &machine, &result.schedule);
    assert!(violations.is_empty(), "the schedule must be valid: {violations:?}");

    let registers = allocate(&result, &machine).expect("allocation fits the default capacities");
    println!("\nLRF registers per cluster : {:?}", registers.pressure.lrf_registers());
    for (queue, regs) in registers.pressure.cqrf_registers() {
        println!("{queue} registers       : {regs}");
    }
    println!("MaxLive                   : {}", registers.max_live);

    let report = verify_schedule(&axpy, &result, &machine, axpy.trip_count)
        .expect("execution matches the reference");
    println!("\ncycles for {} iterations : {}", axpy.trip_count, report.cycles);
    println!("IPC (useful ops only)      : {:.2}", result.ipc(axpy.trip_count));
    println!("values crossing clusters   : {}", report.cross_cluster_values);

    // 6. Emit the software-pipelined VLIW code (prologue / kernel / epilogue)
    //    with every operand annotated with the queue file it travels through.
    let program = dms_regalloc::emit(&result, &machine);
    println!("\n{program}");
}
