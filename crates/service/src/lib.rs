//! # dms-service — Scheduling as a resident service
//!
//! The whole scheduling pipeline of this reproduction is deterministic: the
//! same loop body, machine description and scheduler configuration always
//! produce the same [`dms_sched::ScheduleOutcome`], bit for bit. That makes
//! schedules *cacheable by content* — and this crate is the resident core
//! that exploits it, sitting between the raw schedulers
//! ([`dms_sched::ims_schedule`], [`dms_core::dms_schedule`]) and every
//! driver (the `dms-experiments` sweep engine, its `serve`/`client` wire
//! frontend, the benches).
//!
//! Three pieces:
//!
//! * [`ScheduleService`] ([`service`]) — answers
//!   [`ScheduleRequest`]s, either from the sharded content-addressed
//!   [`cache`] or by running the scheduler (and, when asked, the end-to-end
//!   verify oracle) cold and caching what the answer is made of. Cached
//!   answers are bit-identical to cold ones: an entry is a fixed-size
//!   [`ScheduleRecord`] (the schedule's numbers, the DMS search's scalars and
//!   the verified-stores digest) that owns no heap block, and the key is
//!   exact — isomorphic-but-distinct loops (whose schedules can differ in
//!   name-seeded tie-breaks) never share an entry.
//! * [`cache`] — N `Mutex`-guarded shards keyed by
//!   (exact body fingerprint, context hash), with hit/miss/insert counters
//!   published as `dms-telemetry` handles into the owning service's
//!   metrics registry. The fingerprint ([`hash::guard_fingerprint`]) is one
//!   linear pass over the loop name, trip count and the derived `Hash` of
//!   the DDG, and also guards each entry; the context half folds the
//!   machine description, the scheduler kind and configuration, and the
//!   verification trip count.
//! * [`pool`] — the deterministic work-stealing worker pool (shared atomic
//!   cursor, small claimed batches, one pre-allocated result slot per item)
//!   lifted out of the experiments sweep engine so every driver can fan
//!   work out the same way.
//!
//! [`wire`] and [`net`] add a newline-delimited-JSON wire protocol over
//! `std::net::TcpListener` (thread-per-connection, no async runtime —
//! the build is offline and the vendored serde shim is marker-traits only,
//! so the JSON codec is hand-rolled here) used by the
//! `dms-experiments serve` / `client` subcommands.
//!
//! Every service owns a [`dms_telemetry::Registry`]: cache counters, a
//! per-request latency histogram and an in-flight gauge land there, and
//! the wire protocol's `{"op":"metrics"}` operation serves the registry in
//! Prometheus text exposition format ([`ScheduleService::metrics_text`]).
//! Collection is observation-only, so responses stay bit-identical with or
//! without anyone scraping.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hash;
pub mod net;
pub mod pool;
pub mod service;
pub mod wire;

pub use cache::{CacheCounters, ShardedCache};
pub use hash::CacheKey;
pub use pool::{resolve_threads, run_indexed};
pub use service::{
    Answer, DmsScalars, ScheduleRecord, ScheduleRequest, ScheduleResponse, ScheduleService,
    SchedulerKind, SchedulerOutput, ServiceError, VerifyDigest,
};
