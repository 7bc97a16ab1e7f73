//! FNV-1a, the one digest behind every content hash in the workspace: the
//! canonical DDG hash, the schedule cache's keys and guard, and the
//! portfolio's per-candidate seeds.
//!
//! [`Fnv`] is also a [`Hasher`], so any `#[derive(Hash)]` type can be
//! digested field by field (the service's guard fingerprint and cache
//! context do this). Such digests follow `Hash`'s native-endian integer
//! encoding, so they are process-local: nothing may persist or pin them.
//!
//! The byte-feeding methods are `#[inline]` so the service and scheduler
//! crates inline the digest loop across the crate boundary: the guard
//! fingerprint runs it on every request.

use std::fmt::{self, Write as _};
use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher, also usable as a [`fmt::Write`] sink so
/// `Debug` renderings can be hashed without materialising the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// Starts a new digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `u64` (little-endian).
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a value's `Debug` rendering. The derived `Debug` of a plain
    /// data structure is a deterministic function of its fields, so this is
    /// a cheap way to fingerprint configuration structs without a
    /// serialization framework.
    pub fn debug<T: fmt::Debug>(&mut self, value: &T) {
        let _ = write!(self, "{value:?}");
    }

    /// Returns the digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Hasher for Fnv {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}
