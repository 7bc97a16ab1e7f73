//! Cache-key derivation: the exact body fingerprint and the request
//! context.
//!
//! A schedule is a pure function of (loop body, machine, scheduler
//! configuration, verification trip count). The cache key splits that into:
//!
//! * `canon` — the body digest the caller keys by. The service keys by
//!   [`guard_fingerprint`]: FNV over the loop name, the trip count and the
//!   `Hash` of the DDG, field by field. The DDG's hash covers its op and
//!   edge tables, tombstones and edge ids included. Those decide the
//!   `succs`/`preds` lists its `Debug` rendering also shows, so two bodies
//!   get equal fingerprints exactly when their renderings are equal (up to
//!   a 64-bit collision).
//! * `context` — an FNV-1a digest of everything else: scheduler kind, the
//!   `DmsConfig` (DMS requests only — IMS ignores it, so it must not
//!   fragment IMS entries), the machine description and the verify trip
//!   count, each hashed by derived `Hash`.
//!
//! The fingerprint is exact rather than isomorphism-invariant on purpose:
//! some scheduler tie-breaks depend on detail a canonical hash erases (the
//! portfolio jitter is seeded from the *loop name*; DMS priority ties break
//! on raw `OpId` numbering), so two isomorphic twins must never share an
//! entry. Every entry also stores the fingerprint as its guard, and a
//! lookup only hits when the guard matches.
//!
//! Fingerprints follow `Hash`'s native-endian integer encoding, so they are
//! process-local: the cache lives in memory and nothing persists or pins
//! them.

use std::hash::Hash;

pub use dms_ir::Fnv;
use dms_ir::Loop;

/// The two-part content address of a schedule request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The body digest the caller keys by ([`guard_fingerprint`] for the
    /// service).
    pub canon: u64,
    /// Digest of the request context: scheduler kind and configuration,
    /// machine description, verification trip count.
    pub context: u64,
}

impl CacheKey {
    /// Mixes both halves into the value used to pick a shard and a hash
    /// bucket.
    pub fn mixed(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.canon);
        h.word(self.context);
        h.finish()
    }
}

/// The exact-identity fingerprint of a request body: loop name, trip count
/// and the (id-sensitive) `Hash` of the DDG, which covers its op and edge
/// tables and so the adjacency lists they decide.
pub fn guard_fingerprint(body: &Loop) -> u64 {
    let mut h = Fnv::new();
    body.name.hash(&mut h);
    body.trip_count.hash(&mut h);
    body.ddg.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{Ddg, DepEdge, LoopBuilder, OpKind, Operand, Operation};

    fn sample(name: &str, trips: u64) -> Loop {
        let mut b = LoopBuilder::new(name);
        let x = b.load(Operand::Induction);
        let y = b.add(x.into(), Operand::Immediate(1));
        b.store(y.into());
        b.finish(trips)
    }

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        let mut a = Fnv::new();
        a.bytes(b"hello");
        let mut b = Fnv::new();
        b.bytes(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.bytes(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn guard_separates_name_trip_count_and_body() {
        let base = guard_fingerprint(&sample("a", 8));
        assert_eq!(base, guard_fingerprint(&sample("a", 8)));
        assert_ne!(base, guard_fingerprint(&sample("b", 8)));
        assert_ne!(base, guard_fingerprint(&sample("a", 9)));
    }

    /// Tombstones and the order of the adjacency lists show in the `Debug`
    /// rendering, so they must separate guards too.
    #[test]
    fn guard_separates_tombstones_and_adjacency_order() {
        let graph = |dead_op: bool, edges_reversed: bool| {
            let mut g = Ddg::new();
            let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
            if dead_op {
                let dead = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
                g.remove_op(dead);
            }
            let b = g.add_op(Operation::new(OpKind::Add, vec![a.into(), a.into()]));
            let mut edges = [DepEdge::flow(a, b, 2, 0), DepEdge::flow(a, b, 2, 1)];
            if edges_reversed {
                edges.reverse();
            }
            for e in edges {
                g.add_edge(e);
            }
            Loop::new("g", g, 8)
        };
        let base = guard_fingerprint(&graph(false, false));
        assert_eq!(base, guard_fingerprint(&graph(false, false)));
        assert_ne!(base, guard_fingerprint(&graph(true, false)), "a tombstone");
        assert_ne!(base, guard_fingerprint(&graph(false, true)), "edge order");
    }
}
