//! Canonical (isomorphism-invariant) content hashing of a [`Ddg`].
//!
//! [`canonical_hash`] assigns a [`Ddg`] a 64-bit fingerprint that depends
//! only on the graph's *structure* — operation kinds, positional operand
//! shapes, and the kind/latency/distance-annotated dependence edges — and
//! not on the numeric [`OpId`]/[`crate::EdgeId`] values, the order in which
//! operations or edges were inserted, or tombstones left behind by removed
//! operations. Two loop bodies that are renamings or reorderings of one
//! another (the same operations inserted in a different order, so every id
//! is permuted) hash identically; changing any op kind, operand, edge
//! endpoint, latency or iteration distance changes the hash.
//!
//! That invariance makes the hash a *content address* for every isomorphic
//! body: the scheduler's constraints (dependences, latencies, distances,
//! resource classes) are exactly the hashed structure. The `dms-service`
//! cache no longer keys by it — some tie-breaks depend on ids and names the
//! hash erases, so the service keys by an exact fingerprint instead — but
//! a caller that wants isomorphic bodies under one key can still use it.
//!
//! The construction is Weisfeiler–Leman-style label refinement:
//!
//! 1. every live operation starts with a label derived from its kind and an
//!    id-free signature of its positional reads,
//! 2. a fixed number of rounds re-labels each operation with an FNV-1a
//!    digest of its old label, the *sorted* multisets of its incoming and
//!    outgoing edge signatures (neighbour label + kind + latency +
//!    distance), and its positional read-producer labels,
//! 3. the final hash folds the live op/edge counts, the sorted multiset of
//!    final labels and the sorted multiset of edge signatures.
//!
//! Sorting at every aggregation point is what buys permutation invariance;
//! keeping the *reads* positional (unsorted) is what keeps `a - b` distinct
//! from `b - a`.

use crate::ddg::{Ddg, DepEdge, DepKind};
use crate::fnv::Fnv;
use crate::op::{OpId, Operand, Operation};

/// Stable small discriminant for an operation kind (independent of the enum
/// declaration order, so reordering the `OpKind` variants can never silently
/// re-key every cache).
fn kind_tag(kind: crate::OpKind) -> u64 {
    use crate::OpKind::*;
    match kind {
        Load => 1,
        Store => 2,
        Add => 3,
        Sub => 4,
        Mul => 5,
        Div => 6,
        Copy => 7,
        Move => 8,
    }
}

/// Stable small discriminant for a dependence kind.
fn dep_tag(kind: DepKind) -> u64 {
    match kind {
        DepKind::Flow => 1,
        DepKind::Anti => 2,
        DepKind::Output => 3,
        DepKind::Memory => 4,
    }
}

/// Id-free signature of one positional operand given the current labels of
/// producing operations (`labels[slot]`; ignored on the initial round where
/// `labels` is empty and producers contribute only a fixed tag).
fn operand_word(operand: &Operand, labels: Option<&[u64]>) -> u64 {
    let mut h = Fnv::new();
    match *operand {
        Operand::Def { op, distance } => {
            h.word(1);
            h.word(match labels {
                Some(l) => l[op.index()],
                None => 0,
            });
            h.word(u64::from(distance));
        }
        Operand::Invariant(i) => {
            h.word(2);
            h.word(u64::from(i));
        }
        Operand::Immediate(v) => {
            h.word(3);
            h.word(v as u64);
        }
        Operand::Induction => h.word(4),
    }
    h.finish()
}

/// The initial (round-0) label of one operation: kind plus the id-free shape
/// of its reads.
fn initial_label(op: &Operation) -> u64 {
    let mut h = Fnv::new();
    h.word(kind_tag(op.kind));
    h.word(op.reads.len() as u64);
    for r in &op.reads {
        h.word(operand_word(r, None));
    }
    h.finish()
}

/// Signature of one edge as seen from one endpoint, using the *other*
/// endpoint's current label.
fn edge_word(edge: &DepEdge, neighbour_label: u64) -> u64 {
    let mut h = Fnv::new();
    h.word(dep_tag(edge.kind));
    h.word(u64::from(edge.latency));
    h.word(u64::from(edge.distance));
    h.word(neighbour_label);
    h.finish()
}

/// Refinement rounds. Three rounds propagate labels across a radius-3
/// neighbourhood, which separates every non-isomorphic pair the suite and
/// the kernels can produce; being a *fixed* count keeps the hash a pure
/// function of the graph (no iteration-to-convergence order dependence).
const ROUNDS: usize = 3;

/// Computes the canonical content hash of a DDG.
///
/// The hash is invariant under operation/edge insertion order and id
/// renaming (including tombstones from removed operations) and sensitive to
/// every structural property a modulo scheduler consumes: operation kinds,
/// positional operand shapes (producers, distances, invariant/immediate
/// values), and dependence edges with their kind, latency and distance.
///
/// # Examples
///
/// ```
/// use dms_ir::canon::canonical_hash;
/// use dms_ir::{Ddg, DepEdge, OpKind, Operand, Operation};
///
/// // a -> b, built in two different insertion orders
/// let mut g1 = Ddg::new();
/// let a1 = g1.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
/// let b1 = g1.add_op(Operation::new(OpKind::Store, vec![a1.into()]));
/// g1.add_edge(DepEdge::flow(a1, b1, 2, 0));
///
/// let mut g2 = Ddg::new();
/// let b2 = g2.add_op(Operation::new(OpKind::Store, vec![Operand::Induction]));
/// let a2 = g2.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
/// g2.op_mut(b2).reads = vec![a2.into()];
/// g2.add_edge(DepEdge::flow(a2, b2, 2, 0));
///
/// assert_eq!(canonical_hash(&g1), canonical_hash(&g2));
/// ```
pub fn canonical_hash(ddg: &Ddg) -> u64 {
    // Labels are indexed by op slot; tombstone slots keep a dummy 0 that is
    // never read (no live edge or operand references a removed op).
    let mut labels = vec![0u64; ddg.num_slots()];
    for (id, op) in ddg.live_ops() {
        labels[id.index()] = initial_label(op);
    }

    let mut scratch: Vec<u64> = Vec::new();
    for _ in 0..ROUNDS {
        let mut next = labels.clone();
        for (id, op) in ddg.live_ops() {
            let mut h = Fnv::new();
            h.word(labels[id.index()]);

            scratch.clear();
            scratch.extend(ddg.preds(id).map(|(_, e)| edge_word(e, labels[e.src.index()])));
            scratch.sort_unstable();
            h.word(scratch.len() as u64);
            for w in &scratch {
                h.word(*w);
            }

            scratch.clear();
            scratch.extend(ddg.succs(id).map(|(_, e)| edge_word(e, labels[e.dst.index()])));
            scratch.sort_unstable();
            h.word(scratch.len() as u64);
            for w in &scratch {
                h.word(*w);
            }

            // Positional (unsorted): operand order is semantic.
            for r in &op.reads {
                h.word(operand_word(r, Some(&labels)));
            }
            next[id.index()] = h.finish();
        }
        labels = next;
    }

    let mut final_labels: Vec<u64> =
        ddg.live_ops().map(|(id, _)| labels[id.index()]).collect::<Vec<_>>();
    final_labels.sort_unstable();

    let mut edge_sigs: Vec<u64> = ddg
        .live_edges()
        .map(|(_, e)| {
            let mut h = Fnv::new();
            h.word(labels[e.src.index()]);
            h.word(labels[e.dst.index()]);
            h.word(dep_tag(e.kind));
            h.word(u64::from(e.latency));
            h.word(u64::from(e.distance));
            h.finish()
        })
        .collect();
    edge_sigs.sort_unstable();

    let mut h = Fnv::new();
    h.word(final_labels.len() as u64);
    h.word(edge_sigs.len() as u64);
    for w in final_labels {
        h.word(w);
    }
    for w in edge_sigs {
        h.word(w);
    }
    h.finish()
}

/// Rebuilds `ddg` with its operation slots permuted by `perm` (`perm[old]`
/// is the new insertion position of the op in slot `old`), remapping every
/// operand and edge endpoint. Edges are inserted in reverse order for good
/// measure. Intended for tests: the result is isomorphic to the input, so
/// [`canonical_hash`] must not change.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..ddg.num_slots()` or if the
/// graph contains tombstones (removed ops have no new position to go to).
pub fn permute(ddg: &Ddg, perm: &[usize]) -> Ddg {
    assert_eq!(perm.len(), ddg.num_slots(), "permutation must cover every slot");
    assert_eq!(ddg.num_live_ops(), ddg.num_slots(), "permute requires a tombstone-free graph");
    let mut inverse = vec![usize::MAX; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        assert!(inverse[new] == usize::MAX, "perm is not a bijection");
        inverse[new] = old;
    }

    let remap = |id: OpId| OpId(perm[id.index()] as u32);
    let mut out = Ddg::new();
    for &old in &inverse {
        let mut op = ddg.op(OpId(old as u32)).clone();
        for r in &mut op.reads {
            if let Operand::Def { op: p, .. } = r {
                *p = remap(*p);
            }
        }
        out.add_op(op);
    }
    let mut edges: Vec<DepEdge> = ddg.live_edges().map(|(_, e)| *e).collect();
    edges.reverse();
    for mut e in edges {
        e.src = remap(e.src);
        e.dst = remap(e.dst);
        out.add_edge(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, LoopBuilder, OpKind};

    #[test]
    fn fir_hash_is_pinned() {
        // Every cache key of a FIR request derives from this value, so a
        // change to the digest or the refinement shows here first.
        assert_eq!(canonical_hash(&kernels::fir(8, 64).ddg), 0x861f_86aa_68d0_4025);
    }

    fn sample() -> Ddg {
        // load -> mul -> add(feedback) -> store, plus an independent load
        let mut b = LoopBuilder::new("canon_sample");
        let a = b.load(Operand::Induction);
        let x = b.load(Operand::Induction);
        let m = b.mul(a.into(), x.into());
        let s = b.add_feedback(m.into(), 1);
        b.store(s.into());
        b.finish(16).ddg
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let g = sample();
        assert_eq!(canonical_hash(&g), canonical_hash(&g));
    }

    #[test]
    fn permuted_graphs_hash_equal() {
        let g = sample();
        let n = g.num_slots();
        let reversal: Vec<usize> = (0..n).rev().collect();
        let rotation: Vec<usize> = (0..n).map(|i| (i + 2) % n).collect();
        assert_eq!(canonical_hash(&g), canonical_hash(&permute(&g, &reversal)));
        assert_eq!(canonical_hash(&g), canonical_hash(&permute(&g, &rotation)));
    }

    #[test]
    fn tombstones_do_not_change_the_hash() {
        let mut with_tombstone = sample();
        let extra = with_tombstone.add_op(Operation::new(OpKind::Add, vec![Operand::Immediate(1)]));
        with_tombstone.remove_op(extra);
        assert_eq!(canonical_hash(&sample()), canonical_hash(&with_tombstone));
    }

    #[test]
    fn latency_distance_kind_and_edge_mutations_all_change_the_hash() {
        let base = sample();
        let h = canonical_hash(&base);

        let mut latency = base.clone();
        let (eid, e) = latency.live_edges().next().map(|(i, e)| (i, *e)).unwrap();
        latency.remove_edge(eid);
        latency.add_edge(DepEdge { latency: e.latency + 1, ..e });
        assert_ne!(h, canonical_hash(&latency));

        let mut distance = base.clone();
        let (eid, e) = distance.live_edges().next().map(|(i, e)| (i, *e)).unwrap();
        distance.remove_edge(eid);
        distance.add_edge(DepEdge { distance: e.distance + 1, ..e });
        assert_ne!(h, canonical_hash(&distance));

        let mut dropped = base.clone();
        let (eid, _) = dropped.live_edges().next().unwrap();
        dropped.remove_edge(eid);
        assert_ne!(h, canonical_hash(&dropped));

        let mut kind = base.clone();
        let mul = kind.live_ops().find(|(_, o)| o.kind == OpKind::Mul).map(|(i, _)| i).unwrap();
        kind.op_mut(mul).kind = OpKind::Div;
        assert_ne!(h, canonical_hash(&kind));
    }

    #[test]
    fn operand_order_is_significant() {
        let mut ab = LoopBuilder::new("sub_ab");
        let a = ab.load(Operand::Induction);
        let b = ab.load(Operand::Invariant(0));
        let d = ab.op(OpKind::Sub, vec![a.into(), b.into()]);
        ab.store(d.into());
        let ab = ab.finish(8).ddg;

        let mut ba = LoopBuilder::new("sub_ba");
        let a = ba.load(Operand::Induction);
        let b = ba.load(Operand::Invariant(0));
        let d = ba.op(OpKind::Sub, vec![b.into(), a.into()]);
        ba.store(d.into());
        let ba = ba.finish(8).ddg;

        assert_ne!(canonical_hash(&ab), canonical_hash(&ba));
    }

    #[test]
    fn distinct_kernels_hash_distinct() {
        let fir = kernels::fir(8, 64);
        let dot = kernels::dot_product(64);
        assert_ne!(canonical_hash(&fir.ddg), canonical_hash(&dot.ddg));
    }
}
