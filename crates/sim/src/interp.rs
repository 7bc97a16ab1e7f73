//! Sequential reference interpreter.
//!
//! Executes the loop body iteration by iteration in (intra-iteration)
//! topological order, with no notion of scheduling, clusters or queues. The
//! sequence of stored values it produces is the ground truth the pipelined
//! executor must reproduce.

use crate::values::{apply, initial_value, invariant_value, live_in_value};
use dms_ir::analysis::topological_order;
use dms_ir::{Ddg, OpId, OpKind, Operand};
use serde::{Deserialize, Serialize};

/// One value written by a store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreRecord {
    /// The store operation.
    pub op: OpId,
    /// The iteration that executed it.
    pub iteration: u64,
    /// The value stored.
    pub value: i64,
}

/// Executes `trip_count` iterations of the loop body sequentially and
/// returns the trace of stored values, in (iteration, operation) order.
///
/// # Panics
///
/// Panics if the intra-iteration dependence graph is cyclic (an invalid DDG).
pub fn reference_trace(ddg: &Ddg, trip_count: u64) -> Vec<StoreRecord> {
    let order = topological_order(ddg).expect("reference interpreter needs an acyclic body");
    // history[op.index()] holds the op's values for every executed iteration.
    let mut history = vec![Vec::new(); ddg.num_slots()];
    let mut trace = Vec::new();

    for i in 0..trip_count {
        for &op in &order {
            let operation = ddg.op(op);
            let operands: Vec<i64> =
                operation.reads.iter().map(|r| operand_value(ddg, r, i, &history)).collect();
            let value = apply(operation.kind, &operands, i);
            history[op.index()].push(value);
            if operation.kind == OpKind::Store {
                trace.push(StoreRecord { op, iteration: i, value });
            }
        }
    }
    trace
}

fn operand_value(ddg: &Ddg, operand: &Operand, iteration: u64, history: &[Vec<i64>]) -> i64 {
    match *operand {
        Operand::Immediate(v) => v,
        Operand::Invariant(k) => invariant_value(k),
        Operand::Induction => iteration as i64,
        Operand::Def { op, distance } => {
            let wanted = iteration as i64 - distance as i64;
            if wanted < 0 {
                live_in_value(ddg, op, wanted)
            } else {
                history[op.index()]
                    .get(wanted as usize)
                    .copied()
                    .unwrap_or_else(|| initial_value(op, wanted))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{kernels, LoopBuilder};

    #[test]
    fn trace_length_matches_stores_times_iterations() {
        let l = kernels::complex_multiply(10); // 2 stores per iteration
        let t = reference_trace(&l.ddg, 10);
        assert_eq!(t.len(), 20);
        assert!(t.iter().all(|r| r.iteration < 10));
    }

    #[test]
    fn accumulator_actually_accumulates() {
        // prefix sum over loads: each stored value differs from the previous
        let l = kernels::prefix_sum(5);
        let t = reference_trace(&l.ddg, 5);
        assert_eq!(t.len(), 5);
        let values: Vec<i64> = t.iter().map(|r| r.value).collect();
        let mut sorted = values.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), values.len(), "running sums must keep changing");
    }

    #[test]
    fn deterministic() {
        let l = kernels::fir(4, 16);
        assert_eq!(reference_trace(&l.ddg, 16), reference_trace(&l.ddg, 16));
    }

    #[test]
    fn single_use_transform_preserves_semantics() {
        let l = kernels::horner(5, 12);
        let (t, copies) = dms_ir::transform::single_use_loop(&l, &dms_ir::LatencySpec::default());
        assert!(copies > 0);
        assert_eq!(reference_trace(&l.ddg, 12), reference_trace(&t.ddg, 12));
    }

    #[test]
    fn zero_iterations_gives_empty_trace() {
        let mut b = LoopBuilder::new("t");
        let x = b.load(dms_ir::Operand::Induction);
        b.store(x.into());
        let l = b.finish(0);
        assert!(reference_trace(&l.ddg, 0).is_empty());
    }
}
