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
//!
//! The graph is four flat vectors, so building or cloning one allocates a
//! fixed number of blocks (plus each operation's operand list): the op
//! table, the edge table, per op slot the first and last edge of its succ
//! and pred lists, and per edge slot the next edge of the succ list and of
//! the pred list it is on. An op's succs (preds) are its live outgoing
//! (incoming) edges in ascending edge id: [`Ddg::add_edge`] appends the
//! largest id at both tails, and [`Ddg::remove_edge`] unlinks the edge from
//! both lists in place.

use crate::op::{OpId, Operand, Operation};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

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

/// The end of a list: no next edge, and the ends of an empty list.
const NIL: u32 = u32::MAX;

/// Index of the succ list in [`Ddg::ends`] and of the next succ in
/// [`Ddg::next`].
const SUCC: usize = 0;

/// Index of the pred list in [`Ddg::ends`] and of the next pred in
/// [`Ddg::next`].
const PRED: usize = 1;

/// The first and the last edge id of one op's succ or pred list.
#[derive(Clone, Copy)]
struct Ends {
    first: u32,
    last: u32,
}

impl Ends {
    const EMPTY: Ends = Ends { first: NIL, last: NIL };
}

/// The data-dependence graph of one loop-body iteration.
///
/// `Hash` covers the op and edge tables, which decide the adjacency lists.
/// `Debug` prints the lists as `succs` and `preds`, exactly as the derived
/// impl of a layout with `Vec<Vec<EdgeId>>` fields would.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Ddg {
    ops: Vec<Option<Operation>>,
    edges: Vec<Option<DepEdge>>,
    /// Per op slot: the ends of its succ list and of its pred list.
    ends: Vec<[Ends; 2]>,
    /// Per edge slot: the next edge of its source's succ list and of its
    /// destination's pred list ([`NIL`] at the end and once removed).
    next: Vec<[u32; 2]>,
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
            ends: Vec::with_capacity(ops),
            next: Vec::with_capacity(edges),
        }
    }

    /// Adds an operation and returns its identifier.
    pub fn add_op(&mut self, op: Operation) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Some(op));
        self.ends.push([Ends::EMPTY; 2]);
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
        for dir in [PRED, SUCC] {
            loop {
                let first = self.ends[id.index()][dir].first;
                if first == NIL {
                    break;
                }
                self.remove_edge(EdgeId(first));
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
        let id = self.edges.len() as u32;
        self.edges.push(Some(edge));
        self.next.push([NIL; 2]);
        self.append(SUCC, edge.src, id);
        self.append(PRED, edge.dst, id);
        EdgeId(id)
    }

    /// Links edge `id`, the largest so far, at the end of `op`'s `dir` list.
    fn append(&mut self, dir: usize, op: OpId, id: u32) {
        let ends = &mut self.ends[op.index()][dir];
        match ends.last {
            NIL => ends.first = id,
            last => self.next[last as usize][dir] = id,
        }
        ends.last = id;
    }

    /// Removes an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist or was already removed.
    pub fn remove_edge(&mut self, id: EdgeId) {
        let edge = self.edges[id.index()].take().expect("edge was already removed");
        self.unlink(SUCC, edge.src, id.0);
        self.unlink(PRED, edge.dst, id.0);
    }

    /// Unlinks edge `id` from `op`'s `dir` list, keeping the others' order.
    fn unlink(&mut self, dir: usize, op: OpId, id: u32) {
        let after = std::mem::replace(&mut self.next[id as usize][dir], NIL);
        let ends = &mut self.ends[op.index()][dir];
        let mut before = NIL;
        let mut at = ends.first;
        while at != id {
            before = at;
            at = self.next[at as usize][dir];
        }
        match before {
            NIL => ends.first = after,
            before => self.next[before as usize][dir] = after,
        }
        if ends.last == id {
            ends.last = before;
        }
    }

    /// The live edges of `op`'s `dir` list, in ascending id.
    fn list(&self, dir: usize, op: OpId) -> List<'_> {
        List { ddg: self, dir, at: self.ends[op.index()][dir].first }
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

    /// Incoming edges of an operation (dependences it must wait for), in
    /// ascending id.
    pub fn preds(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.list(PRED, id)
    }

    /// Outgoing edges of an operation (dependences waiting for it), in
    /// ascending id.
    pub fn succs(&self, id: OpId) -> impl Iterator<Item = (EdgeId, &DepEdge)> + '_ {
        self.list(SUCC, id)
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
    /// * every flow edge has a latency of at least 1: a value is readable
    ///   no earlier than the cycle after its producer issues, so a consumer
    ///   never shares its producer's instruction word,
    /// * every `Def` operand references a live operation, and a flow edge
    ///   from it at the operand's distance enters the reader,
    /// * store operations are never read,
    /// * each succ (pred) list holds exactly the live edges out of (into) its
    ///   op, in ascending id.
    pub fn validate(&self) -> Result<(), String> {
        for (id, edge) in self.live_edges() {
            if !self.is_live(edge.src) {
                return Err(format!("edge {id:?} has a removed source {}", edge.src));
            }
            if !self.is_live(edge.dst) {
                return Err(format!("edge {id:?} has a removed destination {}", edge.dst));
            }
            if edge.kind == DepKind::Flow && edge.latency == 0 {
                return Err(format!("flow edge {id:?} ({edge}) has latency 0"));
            }
        }
        let mut listed = 0;
        for (op, ends) in self.ends.iter().enumerate() {
            let op = OpId(op as u32);
            for (dir, name) in [(SUCC, "succ"), (PRED, "pred")] {
                let mut last = NIL;
                let mut at = ends[dir].first;
                while at != NIL {
                    let end = self.edge(EdgeId(at)).map(|e| [e.src, e.dst][dir]);
                    if end != Some(op) || (last != NIL && last >= at) {
                        return Err(format!(
                            "{:?} is out of place in the {name} list of {op}",
                            EdgeId(at)
                        ));
                    }
                    listed += 1;
                    last = at;
                    at = self.next[at as usize][dir];
                }
                if last != ends[dir].last {
                    return Err(format!("the {name} list of {op} does not end at its last edge"));
                }
            }
        }
        let live = self.live_edges().count();
        if listed != 2 * live {
            return Err(format!("the lists hold {listed} entries for {live} live edges"));
        }
        // Each op's flow preds as sorted (source, distance) pairs, so a body
        // of many reads and many edges is still checked in n log n.
        let mut flows = Vec::new();
        for (id, op) in self.live_ops() {
            flows.clear();
            flows.extend(self.flow_preds(id).map(|(_, e)| (e.src, e.distance)));
            flows.sort_unstable();
            for (producer, distance) in op.defs_read() {
                if !self.is_live(producer) {
                    return Err(format!("{id} reads removed operation {producer}"));
                }
                if !self.op(producer).kind.has_result() {
                    return Err(format!("{id} reads {producer}, which produces no result"));
                }
                if flows.binary_search(&(producer, distance)).is_err() {
                    return Err(format!(
                        "{id} reads {producer} at distance {distance} with no flow edge from it"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One op's succ or pred list, walked through [`Ddg::next`].
struct List<'a> {
    ddg: &'a Ddg,
    dir: usize,
    at: u32,
}

impl<'a> Iterator for List<'a> {
    type Item = (EdgeId, &'a DepEdge);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let at = self.at;
        if at == NIL {
            return None;
        }
        self.at = self.ddg.next[at as usize][self.dir];
        Some((EdgeId(at), self.ddg.edges[at as usize].as_ref().expect("listed edges are live")))
    }
}

/// Every op slot's succ or pred list, rendered as `Vec<Vec<EdgeId>>` is.
struct Lists<'a>(&'a Ddg, usize);

impl fmt::Debug for Lists<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Lists(ddg, dir) = *self;
        f.debug_list()
            .entries((0..ddg.ops.len()).map(|op| ListIds(ddg, dir, OpId(op as u32))))
            .finish()
    }
}

/// The edge ids of one list, rendered as `Vec<EdgeId>` is.
struct ListIds<'a>(&'a Ddg, usize, OpId);

impl fmt::Debug for ListIds<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ListIds(ddg, dir, op) = *self;
        f.debug_list().entries(ddg.list(dir, op).map(|(e, _)| e)).finish()
    }
}

/// The rendering is part of the output: the benchmark orders its suite by
/// a digest of it, so the lists print as `Vec<Vec<EdgeId>>` fields would.
impl fmt::Debug for Ddg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ddg")
            .field("ops", &self.ops)
            .field("edges", &self.edges)
            .field("succs", &Lists(self, SUCC))
            .field("preds", &Lists(self, PRED))
            .finish()
    }
}

/// The op and edge tables decide the lists, so the hash leaves them out.
impl Hash for Ddg {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ops.hash(state);
        self.edges.hash(state);
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

    /// A flow edge of latency 0 would let a consumer issue in its
    /// producer's word; other kinds of edge may order two ops in one cycle.
    #[test]
    fn validate_rejects_a_latency_0_flow_edge_naming_it() {
        let (mut g, _, b, c) = simple_graph();
        g.add_edge(DepEdge { src: b, dst: c, kind: DepKind::Memory, latency: 0, distance: 0 });
        assert!(g.validate().is_ok());
        let zero = g.add_edge(DepEdge::flow(b, c, 0, 1));
        assert_eq!(
            g.validate().unwrap_err(),
            format!("flow edge {zero:?} (op1 -> op2 (Flow, lat 0, dist 1)) has latency 0")
        );
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

    /// A load, an add with a self-edge, and a copy that is removed with
    /// its two edges; the add's first incoming edge is removed too, so
    /// both lists of the add and the tombstones show.
    fn pinned_graph() -> Ddg {
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let b = g.add_op(Operation::new(OpKind::Add, Vec::new()));
        let c = g.add_op(Operation::new(OpKind::Copy, Vec::new()));
        let first = g.add_edge(DepEdge::flow(a, b, 2, 0));
        g.add_edge(DepEdge::flow(b, b, 1, 1));
        g.add_edge(DepEdge::flow(a, c, 2, 0));
        g.add_edge(DepEdge { src: c, dst: b, kind: DepKind::Memory, latency: 0, distance: 0 });
        g.add_edge(DepEdge::flow(a, b, 2, 0));
        g.remove_edge(first);
        g.remove_op(c);
        g
    }

    /// The rendering of the layout that kept `succs` and `preds` as
    /// `Vec<Vec<EdgeId>>` fields and derived `Debug`.
    const PINNED_DEBUG: &str = "Ddg { ops: [Some(Operation { kind: Load, reads: [Induction] }), Some(Operation { kind: Add, reads: [] }), None], edges: [None, Some(DepEdge { src: OpId(1), dst: OpId(1), kind: Flow, latency: 1, distance: 1 }), None, None, Some(DepEdge { src: OpId(0), dst: OpId(1), kind: Flow, latency: 2, distance: 0 })], succs: [[EdgeId(4)], [EdgeId(1)], []], preds: [[], [EdgeId(1), EdgeId(4)], []] }";

    const PINNED_PRETTY_DEBUG: &str = "\
Ddg {
    ops: [
        Some(
            Operation {
                kind: Load,
                reads: [
                    Induction,
                ],
            },
        ),
        Some(
            Operation {
                kind: Add,
                reads: [],
            },
        ),
        None,
    ],
    edges: [
        None,
        Some(
            DepEdge {
                src: OpId(
                    1,
                ),
                dst: OpId(
                    1,
                ),
                kind: Flow,
                latency: 1,
                distance: 1,
            },
        ),
        None,
        None,
        Some(
            DepEdge {
                src: OpId(
                    0,
                ),
                dst: OpId(
                    1,
                ),
                kind: Flow,
                latency: 2,
                distance: 0,
            },
        ),
    ],
    succs: [
        [
            EdgeId(
                4,
            ),
        ],
        [
            EdgeId(
                1,
            ),
        ],
        [],
    ],
    preds: [
        [],
        [
            EdgeId(
                1,
            ),
            EdgeId(
                4,
            ),
        ],
        [],
    ],
}";

    #[test]
    fn debug_renders_the_lists_as_the_derived_impl_did() {
        let g = pinned_graph();
        assert!(g.validate().is_ok());
        assert_eq!(format!("{g:?}"), PINNED_DEBUG);
        assert_eq!(format!("{g:#?}"), PINNED_PRETTY_DEBUG);
    }

    #[test]
    fn lists_stay_in_ascending_id_through_removals() {
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Add, Vec::new()));
        let b = g.add_op(Operation::new(OpKind::Add, Vec::new()));
        let e: Vec<EdgeId> = (0..5).map(|_| g.add_edge(DepEdge::flow(a, b, 1, 0))).collect();
        let ids = |g: &Ddg| g.succs(a).map(|(id, _)| id).collect::<Vec<_>>();
        // the last, the first and a middle edge of the list
        for (removed, left) in [(4, vec![0, 1, 2, 3]), (0, vec![1, 2, 3]), (2, vec![1, 3])] {
            g.remove_edge(e[removed]);
            let left: Vec<EdgeId> = left.into_iter().map(|i| e[i]).collect();
            assert_eq!(ids(&g), left);
            assert_eq!(g.preds(b).map(|(id, _)| id).collect::<Vec<_>>(), left);
            assert!(g.validate().is_ok());
        }
        // appending after removing the tail links behind the new tail
        let tail = g.add_edge(DepEdge::flow(a, b, 1, 0));
        assert_eq!(ids(&g), [e[1], e[3], tail]);
        g.remove_op(b);
        assert_eq!(ids(&g), []);
        assert_eq!(g.live_edges().count(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_detects_a_broken_list() {
        let (mut g, a, _, _) = simple_graph();
        g.ends[a.index()][SUCC].first = NIL;
        assert!(g.validate().unwrap_err().contains("succ list of op0"));
        let (mut g, _, b, _) = simple_graph();
        g.next[0][PRED] = 1;
        g.ends[b.index()][PRED].last = 1;
        assert!(g.validate().unwrap_err().contains("pred list of op1"));
    }

    #[test]
    fn display_edge() {
        let e = DepEdge::flow(OpId(0), OpId(1), 2, 1);
        assert_eq!(e.to_string(), "op0 -> op1 (Flow, lat 2, dist 1)");
    }
}
