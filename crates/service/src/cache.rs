//! The sharded, content-addressed schedule cache.
//!
//! A fixed number of `Mutex`-guarded shards, picked by hashing the
//! [`CacheKey`]; concurrent sweep workers only contend when they touch the
//! same shard. Every entry is guarded by the requester's exact fingerprint
//! (see [`crate::hash`]), and a lookup hits only on an exact guard match —
//! so a cached value is always *the* value the cold path would have
//! produced for that precise request, bit for bit. A shard maps (key,
//! guard) to the value, so a key can hold several entries side by side
//! when its body half does not already decide the guard (a caller keying
//! by an isomorphism-invariant digest), and an entry is the value itself:
//! a value that owns no heap block makes the map's table the only block
//! the shard holds.
//!
//! The shard count is a pure performance knob: results never depend on it
//! (a regression test in the workspace pins 1-shard vs 8-shard sweeps to
//! byte-identical CSV).
//!
//! **Poisoned shards are recovered, not propagated.** A panicking scheduler
//! thread poisons whatever shard mutex it held; unwrapping the poison would
//! turn one bad request into a permanently dead resident service. Entries
//! are insert-once keep-first — a lookup never observes a half-written
//! entry because the map insert is the last thing an insert does and
//! clones are taken under the lock — so the map behind a poisoned mutex is
//! still consistent and every accessor simply takes the guard back with
//! [`PoisonError::into_inner`].

use crate::hash::CacheKey;
use dms_telemetry::Counter;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Snapshot of the cache's activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no matching entry (key absent or guard mismatch).
    pub misses: u64,
    /// Entries inserted (re-inserting an existing entry does not count).
    pub inserts: u64,
}

/// One shard: (key, guard) mapped to its entry.
type Shard<V> = Mutex<HashMap<(CacheKey, u64), V>>;

/// A sharded map from (key, guard) to a cloneable value.
///
/// The hit/miss/insert counters are `dms-telemetry` [`Counter`] handles,
/// so a cache built with [`ShardedCache::with_counters`] publishes its
/// activity straight into a metrics registry; [`ShardedCache::new`] wires
/// standalone (unregistered) counters for callers that only ever read
/// [`ShardedCache::stats`].
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates a cache with `shards` shards (clamped to at least 1) and
    /// standalone counters.
    pub fn new(shards: usize) -> Self {
        Self::with_counters(
            shards,
            Counter::standalone(),
            Counter::standalone(),
            Counter::standalone(),
        )
    }

    /// Creates a cache whose hit/miss/insert counts feed the given
    /// counters (typically registered in the owning service's registry).
    pub fn with_counters(shards: usize, hits: Counter, misses: Counter, inserts: Counter) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits,
            misses,
            inserts,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &CacheKey) -> &Shard<V> {
        &self.shards[(key.mixed() % self.shards.len() as u64) as usize]
    }

    /// Looks up the entry for `key` whose guard matches exactly, counting a
    /// hit or a miss.
    pub fn lookup(&self, key: &CacheKey, guard: u64) -> Option<V> {
        let shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let found = shard.get(&(*key, guard)).cloned();
        drop(shard);
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        found
    }

    /// Inserts a value for (key, guard). Keep-first: if another worker
    /// raced us to the same (key, guard) the existing entry wins — both
    /// workers computed it from identical inputs through a deterministic
    /// pipeline, so the values are identical and the first stays.
    pub fn insert(&self, key: CacheKey, guard: u64, value: V) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(PoisonError::into_inner);
        let Entry::Vacant(entry) = shard.entry((key, guard)) else { return };
        entry.insert(value);
        drop(shard);
        self.inserts.inc();
    }

    /// Total entries across all shards (guard-level granularity).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/insert counters.
    pub fn stats(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(canon: u64, context: u64) -> CacheKey {
        CacheKey { canon, context }
    }

    #[test]
    fn lookup_miss_insert_hit() {
        let cache: ShardedCache<String> = ShardedCache::new(4);
        let k = key(1, 2);
        assert_eq!(cache.lookup(&k, 7), None);
        cache.insert(k, 7, "v".to_string());
        assert_eq!(cache.lookup(&k, 7), Some("v".to_string()));
        assert_eq!(cache.stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn guard_mismatch_is_a_miss_and_twins_coexist() {
        let cache: ShardedCache<u32> = ShardedCache::new(2);
        let k = key(42, 42);
        cache.insert(k, 1, 100);
        assert_eq!(cache.lookup(&k, 2), None, "same key, different guard: miss");
        cache.insert(k, 2, 200);
        assert_eq!(cache.lookup(&k, 1), Some(100));
        assert_eq!(cache.lookup(&k, 2), Some(200));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_keeps_the_first_value_and_does_not_count() {
        let cache: ShardedCache<u32> = ShardedCache::new(1);
        let k = key(5, 5);
        cache.insert(k, 9, 1);
        cache.insert(k, 9, 2);
        assert_eq!(cache.lookup(&k, 9), Some(1));
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn zero_shards_is_clamped() {
        let cache: ShardedCache<u32> = ShardedCache::new(0);
        assert_eq!(cache.num_shards(), 1);
    }

    #[test]
    fn a_poisoned_shard_keeps_serving_lookups_inserts_and_len() {
        let cache: ShardedCache<u32> = ShardedCache::new(1);
        let k = key(3, 4);
        cache.insert(k, 1, 11);

        // Poison the single shard: a thread panics while holding its lock
        // (exactly what a panicking scheduler worker would do mid-insert).
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = cache.shards[0].lock().unwrap();
                panic!("poison the shard");
            });
            assert!(handle.join().is_err(), "the poisoning thread must have panicked");
        });
        assert!(cache.shards[0].is_poisoned());

        // Every accessor recovers the guard instead of propagating the
        // panic: the pre-poison entry survives and new inserts land.
        assert_eq!(cache.lookup(&k, 1), Some(11));
        let k2 = key(5, 6);
        cache.insert(k2, 2, 22);
        assert_eq!(cache.lookup(&k2, 2), Some(22));
        assert_eq!(cache.len(), 2);
    }
}
