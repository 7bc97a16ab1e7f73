//! # dms-telemetry — metrics, scoped timers and scheduler event counts
//!
//! The observability layer of the DMS stack: a lock-cheap [`Registry`] of
//! named monotonic [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s,
//! [`ScopedTimer`]s that accumulate phase wall-time into counters, and
//! per-kind counts of scheduler events ([`EventKind`]) — II attempts,
//! pressure retries, chain dismantles, portfolio candidate wins and
//! contention link-stalls. Cache hits and misses are the schedule cache's
//! own counters (`dms_cache_hits_total` / `dms_cache_misses_total`), not
//! events.
//!
//! ## The determinism argument
//!
//! Telemetry in this workspace must be **provably non-perturbing**: a sweep
//! produces byte-identical measurement CSVs whether collection is enabled
//! or disabled, for any worker count (pinned by a tier-1 test). Three
//! design rules make that hold by construction:
//!
//! 1. **Observation only.** Every instrumentation hook *records* — nothing
//!    in the scheduler, cache or sweep engine ever *reads* a metric to make
//!    a decision. The only readers are reporting surfaces (the Prometheus
//!    exposition, the JSON dump, the sweep banner), all of which run after
//!    the measured work.
//! 2. **Relaxed atomics, no waiting.** Counters, gauges and histogram
//!    buckets are plain `AtomicU64`/`AtomicI64` cells updated with
//!    `Ordering::Relaxed`, and so are the per-kind event counts: recording
//!    an event is one relaxed increment. The registry's one mutex guards
//!    registration by name and rendering, never an update, so no hook can
//!    block a worker behind another worker's result.
//! 3. **A zero-cost disabled handle.** Code in the scheduler core reaches
//!    telemetry through [`Telemetry::current`], which hands back a no-op
//!    handle unless a registry was explicitly [`install`]ed; the
//!    instrumented paths execute the same instruction stream either way,
//!    minus the recording stores.
//!
//! Metric *values* with a time dimension (latency histograms, phase
//! timers) naturally vary run to run; metric *layout* does not: names
//! render in sorted order and histogram buckets use a fixed
//! power-of-two layout (see [`BUCKET_BOUNDS`]), so two dumps of the same
//! workload diff cleanly.
//!
//! ## Who owns a registry
//!
//! `dms-service` always owns one (its cache counters and request-latency
//! histogram live there; `{"op":"metrics"}` renders it). The experiments
//! CLI builds one per run for its phase timers and dumps it with
//! `--metrics-json`. The global [`install`] hook exists solely so the
//! scheduler core (`dms-core`/`dms-sched`/`dms-sim`), whose public
//! signatures predate telemetry and hash their configs into cache keys,
//! can emit events without threading a handle through every call.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod handle;
mod registry;
mod trace;

pub use handle::{install, uninstall, Telemetry};
pub use registry::{
    Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot, Registry, ScopedTimer, BUCKET_BOUNDS,
    NUM_BUCKETS,
};
pub use trace::EventKind;
