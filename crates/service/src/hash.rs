//! Cache-key derivation: the two-part content address and its exact guard.
//!
//! A schedule is a pure function of (loop body, machine, scheduler
//! configuration, verification trip count). The cache key splits that into:
//!
//! * `canon` — [`dms_ir::canonical_hash`] of the body's DDG: invariant
//!   under op/edge reordering and id renaming, so isomorphic bodies key
//!   identically;
//! * `context` — an FNV-1a digest of everything else: scheduler kind, the
//!   `DmsConfig` (DMS requests only — IMS ignores it, so it must not
//!   fragment IMS entries), the machine description and the verify trip
//!   count.
//!
//! Because some scheduler tie-breaks legitimately depend on non-canonical
//! detail (the portfolio jitter is seeded from the *loop name*; DMS
//! priority ties break on raw `OpId` numbering), a canonical key alone
//! could serve one twin the other twin's schedule and break bit-exact
//! determinism. Every cache entry therefore also carries an **exact
//! fingerprint guard** — [`guard_fingerprint`]: FNV over the name, trip
//! count and the raw `Debug` rendering of the DDG — and a lookup only hits
//! when the guard matches. Isomorphic twins coexist under one key; a guard
//! mismatch is a miss, never a wrong answer.

pub use dms_ir::Fnv;
use dms_ir::Loop;

/// The two-part content address of a schedule request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical (isomorphism-invariant) hash of the loop body's DDG.
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

/// The exact-identity fingerprint guarding a cache entry: loop name, trip
/// count and the raw (id-sensitive) DDG rendering.
pub fn guard_fingerprint(body: &Loop) -> u64 {
    let mut h = Fnv::new();
    h.bytes(body.name.as_bytes());
    h.word(body.trip_count);
    h.debug(&body.ddg);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{LoopBuilder, Operand};

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
}
