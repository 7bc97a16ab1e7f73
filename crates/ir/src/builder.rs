//! A small builder API for writing loop bodies by hand.
//!
//! The builder creates flow-dependence edges automatically from the operands
//! of each operation, using a [`LatencySpec`] to annotate edge latencies.

use crate::ddg::{Ddg, DepEdge, DepKind};
use crate::latency::LatencySpec;
use crate::op::{OpId, OpKind, Operand, Operation};
use crate::Loop;

/// Incremental builder for a [`Loop`].
///
/// # Example
///
/// ```
/// use dms_ir::{LoopBuilder, Operand};
///
/// // b[i] = a[i] * k + c[i]
/// let mut b = LoopBuilder::new("axpy");
/// let a = b.load(Operand::Induction);
/// let c = b.load(Operand::Induction);
/// let m = b.mul(a.into(), Operand::Invariant(0));
/// let s = b.add(m.into(), c.into());
/// b.store(s.into());
/// let l = b.finish(100);
/// assert_eq!(l.ddg.num_live_ops(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct LoopBuilder {
    name: String,
    ddg: Ddg,
    latency: LatencySpec,
}

impl LoopBuilder {
    /// Creates a builder using the default latency model.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_latency(name, LatencySpec::default())
    }

    /// Creates a builder using a custom latency model.
    pub fn with_latency(name: impl Into<String>, latency: LatencySpec) -> Self {
        Self { name: name.into(), ddg: Ddg::new(), latency }
    }

    /// The latency model used to annotate flow edges.
    pub fn latency_spec(&self) -> LatencySpec {
        self.latency
    }

    /// Read-only access to the graph built so far.
    pub fn ddg(&self) -> &Ddg {
        &self.ddg
    }

    /// Appends an extra read operand to an existing operation *without*
    /// creating the corresponding flow edge. This is only needed to close a
    /// recurrence circuit through an operation created before its producer;
    /// the caller must add the matching edge with [`LoopBuilder::dep`]
    /// ([`Ddg::validate`] rejects a `Def` read without it).
    pub fn push_read(&mut self, op: OpId, operand: Operand) {
        self.ddg.op_mut(op).reads.push(operand);
    }

    /// Adds an arbitrary operation, creating flow edges from every `Def`
    /// operand it reads.
    pub fn op(&mut self, kind: OpKind, reads: Vec<Operand>) -> OpId {
        let defs: Vec<(OpId, u32)> = reads.iter().filter_map(Operand::producer).collect();
        let id = self.ddg.add_op(Operation::new(kind, reads));
        for (producer, distance) in defs {
            let lat = self.latency.of(self.ddg.op(producer).kind);
            self.ddg.add_edge(DepEdge::flow(producer, id, lat, distance));
        }
        id
    }

    /// Adds a memory load.
    pub fn load(&mut self, address: Operand) -> OpId {
        self.op(OpKind::Load, vec![address])
    }

    /// Adds a memory store of `value`; stores produce no result.
    pub fn store(&mut self, value: Operand) -> OpId {
        self.op(OpKind::Store, vec![value])
    }

    /// Adds an addition.
    pub fn add(&mut self, a: Operand, b: Operand) -> OpId {
        self.op(OpKind::Add, vec![a, b])
    }

    /// Adds a subtraction.
    pub fn sub(&mut self, a: Operand, b: Operand) -> OpId {
        self.op(OpKind::Sub, vec![a, b])
    }

    /// Adds a multiplication.
    pub fn mul(&mut self, a: Operand, b: Operand) -> OpId {
        self.op(OpKind::Mul, vec![a, b])
    }

    /// Adds a division.
    pub fn div(&mut self, a: Operand, b: Operand) -> OpId {
        self.op(OpKind::Div, vec![a, b])
    }

    /// Adds a copy operation (single-use lifetime conversion).
    pub fn copy(&mut self, value: Operand) -> OpId {
        self.op(OpKind::Copy, vec![value])
    }

    /// Adds an accumulator-style operation `r = r@(i - distance) <op> value`,
    /// i.e. an operation that reads its own result from `distance` iterations
    /// earlier, creating a recurrence circuit of length one.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` (that would be a combinational self-loop).
    pub fn feedback(&mut self, kind: OpKind, value: Operand, distance: u32) -> OpId {
        assert!(distance > 0, "feedback distance must be at least 1");
        let defs: Vec<(OpId, u32)> = value.producer().into_iter().collect();
        let id = self.ddg.add_op(Operation::new(kind, vec![value])); // self operand patched below
        let lat = self.latency.of(kind);
        // Patch in the self-reference operand and the loop-carried edge.
        self.ddg.op_mut(id).reads.push(Operand::def_at(id, distance));
        self.ddg.add_edge(DepEdge::flow(id, id, lat, distance));
        for (producer, d) in defs {
            let plat = self.latency.of(self.ddg.op(producer).kind);
            self.ddg.add_edge(DepEdge::flow(producer, id, plat, d));
        }
        id
    }

    /// Shorthand for [`LoopBuilder::feedback`] with [`OpKind::Add`]: a running
    /// sum `s = s@(i - distance) + value`.
    pub fn add_feedback(&mut self, value: Operand, distance: u32) -> OpId {
        self.feedback(OpKind::Add, value, distance)
    }

    /// Adds an explicit dependence edge of the given kind (used for memory
    /// ordering or anti/output dependences that are not visible as operands).
    pub fn dep(&mut self, kind: DepKind, src: OpId, dst: OpId, latency: u32, distance: u32) {
        self.ddg.add_edge(DepEdge { src, dst, kind, latency, distance });
    }

    /// Current number of operations added so far.
    pub fn len(&self) -> usize {
        self.ddg.num_live_ops()
    }

    /// Whether no operation has been added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the loop with the given trip count.
    ///
    /// # Panics
    ///
    /// Panics if the constructed DDG violates a structural invariant (see
    /// [`Ddg::validate`]); this indicates a bug in the calling code.
    pub fn finish(self, trip_count: u64) -> Loop {
        self.ddg.validate().expect("LoopBuilder produced an invalid DDG");
        Loop::new(self.name, self.ddg, trip_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn builder_creates_flow_edges() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let c = b.add(a.into(), Operand::Immediate(3));
        b.store(c.into());
        let l = b.finish(10);
        assert_eq!(l.ddg.live_edges().count(), 2);
        let lats: Vec<u32> = l.ddg.live_edges().map(|(_, e)| e.latency).collect();
        assert_eq!(lats, vec![2, 1]); // load latency then add latency
    }

    #[test]
    fn feedback_creates_recurrence() {
        let mut b = LoopBuilder::new("acc");
        let x = b.load(Operand::Induction);
        let s = b.add_feedback(x.into(), 1);
        b.store(s.into());
        let l = b.finish(10);
        assert!(analysis::has_recurrence(&l.ddg));
        // self edge has distance 1
        let self_edge = l.ddg.live_edges().find(|(_, e)| e.src == s && e.dst == s).unwrap().1;
        assert_eq!(self_edge.distance, 1);
        assert_eq!(l.ddg.op(s).reads.len(), 2);
    }

    #[test]
    #[should_panic(expected = "feedback distance")]
    fn feedback_zero_distance_panics() {
        let mut b = LoopBuilder::new("bad");
        b.add_feedback(Operand::Immediate(1), 0);
    }

    #[test]
    fn mem_dep_adds_memory_edge() {
        let mut b = LoopBuilder::new("mem");
        let s = b.store(Operand::Immediate(1));
        let ld = b.load(Operand::Induction);
        b.dep(DepKind::Memory, s, ld, 1, 0);
        let l = b.finish(4);
        let e = l.ddg.live_edges().find(|(_, e)| e.kind == DepKind::Memory).unwrap().1;
        assert_eq!((e.src, e.dst), (s, ld));
        assert!(!e.kind.carries_value());
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = LoopBuilder::new("e");
        assert!(b.is_empty());
        b.load(Operand::Induction);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
