//! The data-dependence graph (DDG) of an innermost-loop body.
//!
//! Nodes are [`Operation`]s, edges are [`DepEdge`]s annotated with a latency
//! and an iteration *distance* (often called omega). An edge `(p, c)` with
//! latency `L` and distance `d` constrains a modulo schedule with initiation
//! interval `II` by `time(c) >= time(p) + L - II * d`.
//!
//! Operations and edges can be removed again (the DMS scheduler inserts and
//! removes `Move` chains while scheduling); removal leaves a tombstone so
//! that [`OpId`]s and [`EdgeId`]s remain stable.

use crate::op::{OpId, Operand, Operation};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of a data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// True (read-after-write) dependence: the consumer reads the value the
    /// producer computes. Only flow dependences transfer values through the
    /// register files and therefore only they can cause *communication
    /// conflicts* on a clustered machine.
    Flow,
    /// Anti (write-after-read) dependence.
    Anti,
    /// Output (write-after-write) dependence.
    Output,
    /// Memory ordering dependence between memory operations (no value is
    /// transferred through a register file).
    Memory,
}

impl DepKind {
    /// Whether this dependence carries a value through a register file/queue.
    #[inline]
    pub fn carries_value(self) -> bool {
        matches!(self, DepKind::Flow)
    }
}

/// Identifier of a dependence edge inside a [`Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the identifier as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dependence edge of the DDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DepEdge {
    /// Source (producer) operation.
    pub src: OpId,
    /// Destination (consumer) operation.
    pub dst: OpId,
    /// Kind of dependence.
    pub kind: DepKind,
    /// Latency in cycles contributed by this dependence.
    pub latency: u32,
    /// Iteration distance (omega): 0 for intra-iteration dependences.
    pub distance: u32,
}

impl DepEdge {
    /// Creates a flow dependence edge.
    pub fn flow(src: OpId, dst: OpId, latency: u32, distance: u32) -> Self {
        DepEdge { src, dst, kind: DepKind::Flow, latency, distance }
    }
}

impl fmt::Display for DepEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({:?}, lat {}, dist {})",
            self.src, self.dst, self.kind, self.latency, self.distance
        )
    }
}

/// The data-dependence graph of one loop-body iteration.
#[derive(Debug, Clone, Default, Hash, Serialize, Deserialize)]
pub struct Ddg {
    ops: Vec<Option<Operation>>,
    edges: Vec<Option<DepEdge>>,
    /// Outgoing edge ids per operation slot.
    succs: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per operation slot.
    preds: Vec<Vec<EdgeId>>,
}

impl Ddg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `ops` operation slots and
    /// `edges` edges.
    pub fn with_capacity(ops: usize, edges: usize) -> Self {
        Ddg {
            ops: Vec::with_capacity(ops),
            edges: Vec::with_capacity(edges),
            succs: Vec::with_capacity(ops),
            preds: Vec::with_capacity(ops),
        }
    }

    /// Adds an operation and returns its identifier.
    pub fn add_op(&mut self, op: Operation) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Some(op));
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Removes an operation, along with all edges incident to it.
    ///
    /// The slot becomes a tombstone; the identifier is never reused.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not exist or was already removed.
    pub fn remove_op(&mut self, id: OpId) {
        assert!(self.is_live(id), "remove_op: {id} is not a live operation");
        let incident: Vec<EdgeId> =
            self.preds[id.index()].iter().chain(self.succs[id.index()].iter()).copied().collect();
        for e in incident {
            if self.edges[e.index()].is_some() {
                self.remove_edge(e);
            }
        }
        self.ops[id.index()] = None;
    }

    /// Whether the operation exists and has not been removed.
    #[inline]
    pub fn is_live(&self, id: OpId) -> bool {
        self.ops.get(id.index()).is_some_and(Option::is_some)
    }

    /// Returns the operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not exist or was removed.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        self.ops[id.index()].as_ref().expect("operation was removed")
    }

    /// Returns a mutable reference to the operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not exist or was removed.
    #[inline]
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        self.ops[id.index()].as_mut().expect("operation was removed")
    }

    /// Total number of operation slots ever allocated (including tombstones).
    /// Useful for sizing side tables indexed by [`OpId`].
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.ops.len()
    }

    /// Number of live (non-removed) operations.
    pub fn num_live_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_some()).count()
    }

    /// Iterates over live operations as `(id, &op)` pairs.
    pub fn live_ops(&self) -> impl Iterator<Item = (OpId, &Operation)> + '_ {
        self.ops.iter().enumerate().filter_map(|(i, o)| o.as_ref().map(|op| (OpId(i as u32), op)))
    }

    /// Iterates over the ids of live operations.
    pub fn live_op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.live_ops().map(|(id, _)| id)
    }

    /// Adds a dependence edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a live operation.
    pub fn add_edge(&mut self, edge: DepEdge) -> EdgeId {
        assert!(self.is_live(edge.src), "add_edge: source {} is not live", edge.src);
        assert!(self.is_live(edge.dst), "add_edge: destination {} is not live", edge.dst);
        let id = EdgeId(self.edges.len() as u32);
        self.succs[edge.src.index()].push(id);
        self.preds[edge.dst.index()].push(id);
        self.edges.push(Some(edge));
        id
    }

    /// Removes an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist or was already removed.
    pub fn remove_edge(&mut self, id: EdgeId) {
        let edge = self.edges[id.index()].take().expect("edge was already removed");
        self.succs[edge.src.index()].retain(|&e| e != id);
        self.preds[edge.dst.index()].retain(|&e| e != id);
    }

    /// Returns the edge with the given id, if it is still present.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Option<&DepEdge> {
        self.edges.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over live edges as `(id, &edge)` pairs.
    pub fn live_edges(&self) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|edge| (EdgeId(i as u32), edge)))
    }

    /// Incoming edges of an operation (dependences it must wait for).
    pub fn preds(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.preds[id.index()].iter().filter_map(move |&e| self.edge(e).map(|edge| (e, edge)))
    }

    /// Outgoing edges of an operation (dependences waiting for it).
    pub fn succs(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.succs[id.index()].iter().filter_map(move |&e| self.edge(e).map(|edge| (e, edge)))
    }

    /// Incoming *flow* (value-carrying) edges of an operation.
    pub fn flow_preds(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.preds(id).filter(|(_, e)| e.kind.carries_value())
    }

    /// Outgoing *flow* (value-carrying) edges of an operation.
    pub fn flow_succs(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.succs(id).filter(|(_, e)| e.kind.carries_value())
    }

    /// Rewrites every read of `old_producer` *at exactly* `old_distance` in
    /// `consumer` to read `new_producer` at `new_distance`, and returns how
    /// many operands were rewritten.
    ///
    /// This is the redirection the DMS move chains need: a chain realising a
    /// distance-`d` dependence absorbs the distance at its first move, so the
    /// consumer must read the last move at distance 0 — re-pointing the
    /// operand while *preserving* its distance would apply the distance
    /// twice. Matching on the distance also
    /// keeps a second read of the same producer at a different distance
    /// untouched.
    pub fn redirect_reads_at(
        &mut self,
        consumer: OpId,
        old_producer: OpId,
        old_distance: u32,
        new_producer: OpId,
        new_distance: u32,
    ) -> usize {
        let op = self.op_mut(consumer);
        let mut n = 0;
        for r in &mut op.reads {
            if *r == (Operand::Def { op: old_producer, distance: old_distance }) {
                *r = Operand::Def { op: new_producer, distance: new_distance };
                n += 1;
            }
        }
        n
    }

    /// Checks basic structural invariants; returns a description of the
    /// first violation found, if any.
    ///
    /// Checked invariants:
    /// * every edge endpoint is a live operation,
    /// * every `Def` operand references a live operation,
    /// * store operations are never read,
    /// * adjacency lists are consistent with the edge table.
    pub fn validate(&self) -> Result<(), String> {
        for (id, edge) in self.live_edges() {
            if !self.is_live(edge.src) {
                return Err(format!("edge {id:?} has a removed source {}", edge.src));
            }
            if !self.is_live(edge.dst) {
                return Err(format!("edge {id:?} has a removed destination {}", edge.dst));
            }
            if !self.succs[edge.src.index()].contains(&id) {
                return Err(format!("edge {id:?} missing from succ list of {}", edge.src));
            }
            if !self.preds[edge.dst.index()].contains(&id) {
                return Err(format!("edge {id:?} missing from pred list of {}", edge.dst));
            }
        }
        for (id, op) in self.live_ops() {
            for (producer, _) in op.defs_read() {
                if !self.is_live(producer) {
                    return Err(format!("{id} reads removed operation {producer}"));
                }
                if !self.op(producer).kind.has_result() {
                    return Err(format!("{id} reads {producer}, which produces no result"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn simple_graph() -> (Ddg, OpId, OpId, OpId) {
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let b = g.add_op(Operation::new(OpKind::Add, vec![a.into(), Operand::Immediate(1)]));
        let c = g.add_op(Operation::new(OpKind::Store, vec![b.into()]));
        g.add_edge(DepEdge::flow(a, b, 2, 0));
        g.add_edge(DepEdge::flow(b, c, 1, 0));
        (g, a, b, c)
    }

    #[test]
    fn add_and_query() {
        let (g, a, b, c) = simple_graph();
        assert_eq!(g.num_live_ops(), 3);
        assert_eq!(g.num_slots(), 3);
        assert_eq!(g.succs(a).count(), 1);
        assert_eq!(g.preds(c).count(), 1);
        assert_eq!(g.flow_preds(b).count(), 1);
        assert!(g.validate().is_ok());
        assert!(g.live_ops().all(|(_, o)| o.kind.is_useful()));
    }

    #[test]
    fn remove_op_removes_incident_edges() {
        let (mut g, a, b, c) = simple_graph();
        g.remove_op(b);
        assert!(!g.is_live(b));
        assert_eq!(g.num_live_ops(), 2);
        assert_eq!(g.succs(a).count(), 0);
        assert_eq!(g.preds(c).count(), 0);
        assert_eq!(g.live_edges().count(), 0);
        // ids remain stable
        assert!(g.is_live(a));
        assert!(g.is_live(c));
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, a, b, _c) = simple_graph();
        let (eid, _) = g.live_edges().next().map(|(i, e)| (i, *e)).unwrap();
        g.remove_edge(eid);
        assert_eq!(g.succs(a).count(), 0);
        assert_eq!(g.preds(b).count(), 0);
        assert_eq!(g.live_edges().count(), 1);
    }

    #[test]
    fn redirect_reads_rewrites_operands() {
        let (mut g, a, b, _c) = simple_graph();
        let copy = g.add_op(Operation::new(OpKind::Copy, vec![a.into()]));
        let n = g.redirect_reads_at(b, a, 0, copy, 0);
        assert_eq!(n, 1);
        assert_eq!(g.op(b).defs_read().next(), Some((copy, 0)));
    }

    #[test]
    fn redirect_reads_at_matches_distance_and_rewrites_it() {
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        // b reads a twice: same iteration and one iteration back
        let b = g.add_op(Operation::new(OpKind::Add, vec![a.into(), Operand::def_at(a, 1)]));
        let mv = g.add_op(Operation::new(OpKind::Move, vec![Operand::def_at(a, 1)]));
        // only the distance-1 read moves to the chain, at distance 0
        let n = g.redirect_reads_at(b, a, 1, mv, 0);
        assert_eq!(n, 1);
        let defs: Vec<_> = g.op(b).defs_read().collect();
        assert_eq!(defs, vec![(a, 0), (mv, 0)]);
        // no operand matches (a, 1) any more
        assert_eq!(g.redirect_reads_at(b, a, 1, mv, 0), 0);
    }

    #[test]
    fn validate_detects_read_of_store() {
        let mut g = Ddg::new();
        let s = g.add_op(Operation::new(OpKind::Store, vec![Operand::Immediate(0)]));
        let _bad = g.add_op(Operation::new(OpKind::Add, vec![s.into(), Operand::Immediate(1)]));
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "not a live operation")]
    fn remove_op_twice_panics() {
        let (mut g, a, _, _) = simple_graph();
        g.remove_op(a);
        g.remove_op(a);
    }

    #[test]
    fn display_edge() {
        let e = DepEdge::flow(OpId(0), OpId(1), 2, 1);
        assert_eq!(e.to_string(), "op0 -> op1 (Flow, lat 2, dist 1)");
    }
}
