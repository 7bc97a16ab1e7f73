//! The resident schedule service: requests in, cached-or-cold responses
//! out.
//!
//! Every driver goes through one lookup path: the sweep engine and the
//! benches call [`ScheduleService::schedule`] for an owned response, the
//! wire frontend calls [`ScheduleService::lend`], which lends the cache
//! entry instead of copying it. A request names a loop body, a machine, a
//! scheduler and optionally a verification trip count; the response
//! carries the full scheduler output (not a summary — drivers need cycles,
//! stats and the transformed DDG), the verified-stores digest when
//! verification ran, and whether the answer came from the cache.
//!
//! **Cached responses are bit-identical to cold ones.** The cache stores
//! the complete [`ScheduleOutcome`]/[`ScheduleResult`] plus the verify
//! digest behind an `Arc`, which a hit lends out ([`LentResponse`]). It is
//! keyed by (exact body fingerprint, context hash) and guarded by the same
//! fingerprint (see [`crate::hash`] for why it is exact rather than
//! isomorphism-invariant).
//! Failures — scheduler errors and verification failures — are never
//! cached: they are rare (a healthy sweep has none) and a negative cache
//! would complicate the bit-exactness story for no measurable win.

use crate::cache::{CacheCounters, ShardedCache};
use crate::hash::{guard_fingerprint, CacheKey, Fnv};
use dms_core::{dms_schedule, DmsConfig, ScheduleOutcome};
use dms_ir::Loop;
use dms_machine::MachineConfig;
use dms_sched::{ims_schedule, ImsConfig, ScheduleError, ScheduleResult};
use dms_sim::verify_schedule;
use dms_telemetry::{EventKind, Gauge, Histogram, Registry};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// Which scheduler a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// IMS on the (unclustered) machine — the paper's baseline.
    Ims,
    /// DMS (or the beam/portfolio searches layered on it, per
    /// [`DmsConfig::strategy`]) on the clustered machine.
    Dms,
}

/// One scheduling request.
///
/// Borrows the body and machine — the sweep engine submits thousands of
/// requests against pre-built bodies and a handful of machines, and the
/// service only clones what it actually caches.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleRequest<'a> {
    /// The (already unrolled) loop body to schedule.
    pub body: &'a Loop,
    /// The machine to schedule for.
    pub machine: &'a MachineConfig,
    /// DMS configuration ([`SchedulerKind::Ims`] requests ignore it, and it
    /// is excluded from their cache key so it cannot fragment IMS entries).
    pub dms: DmsConfig,
    /// Which scheduler to run.
    pub scheduler: SchedulerKind,
    /// `Some(trips)` additionally runs the end-to-end verify oracle
    /// (regalloc → codegen → execution → bit-compare against the scalar
    /// reference) for `trips` iterations; its digest is cached with the
    /// schedule, so warm requests skip re-verification. A verification
    /// failure fails the request.
    pub verify_trips: Option<u64>,
    /// Additionally report the achieved II the verify's execution measured
    /// under the topology's transfer-bandwidth model
    /// ([`dms_sim::contention`]) in the verify digest. Requires
    /// `verify_trips` (the timing comes from that execution); ignored
    /// without it.
    pub contention: bool,
}

/// Digest of a successful end-to-end verification, small enough to cache
/// alongside the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyDigest {
    /// Store values bit-compared against the scalar reference.
    pub stores_checked: u64,
    /// Largest CQRF stream occupancy reached while executing the schedule.
    pub max_queue_depth: u64,
    /// Steady-state II the verified execution sustained under contention
    /// (`>=` the scheduled II), or 0 when the request did not ask for
    /// contention timing.
    pub achieved_ii: u32,
}

/// The scheduler output carried by a response: IMS produces a plain
/// [`ScheduleResult`], DMS a [`ScheduleOutcome`] (result + search
/// telemetry).
#[derive(Debug, Clone)]
pub enum SchedulerOutput {
    /// Output of [`ims_schedule`].
    Ims(Box<ScheduleResult>),
    /// Output of [`dms_schedule`].
    Dms(Box<ScheduleOutcome>),
}

impl SchedulerOutput {
    /// The schedule result, whichever scheduler produced it.
    pub fn result(&self) -> &ScheduleResult {
        match self {
            SchedulerOutput::Ims(r) => r,
            SchedulerOutput::Dms(o) => &o.result,
        }
    }

    /// The DMS outcome, if this was a DMS request.
    pub fn dms(&self) -> Option<&ScheduleOutcome> {
        match self {
            SchedulerOutput::Ims(_) => None,
            SchedulerOutput::Dms(o) => Some(o),
        }
    }
}

/// A successful response.
#[derive(Debug, Clone)]
pub struct ScheduleResponse {
    /// The full scheduler output (bit-identical whether cached or cold).
    pub output: SchedulerOutput,
    /// The verification digest, present iff the request asked to verify.
    pub verify: Option<VerifyDigest>,
    /// Whether this response was answered from the cache.
    pub cache_hit: bool,
}

/// Why a request failed. Failures are not cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The scheduler found no schedule.
    Schedule(ScheduleError),
    /// The schedule failed end-to-end verification (a compiler bug; the
    /// offending stage is described in the message).
    Verify(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            ServiceError::Verify(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What one cache entry stores: everything needed to replay the cold
/// response bit for bit.
#[derive(Debug, Clone)]
struct CachedSchedule {
    output: SchedulerOutput,
    verify: Option<VerifyDigest>,
}

/// A successful response that lends the service's cache entry instead of
/// copying it: a hit costs a reference count, not a deep clone of the
/// transformed DDG and the schedule. The wire server encodes its reply
/// straight from one.
#[derive(Debug, Clone)]
pub struct LentResponse {
    entry: Arc<CachedSchedule>,
    /// Whether this response was answered from the cache.
    pub cache_hit: bool,
}

impl LentResponse {
    /// The full scheduler output (bit-identical whether cached or cold).
    pub fn output(&self) -> &SchedulerOutput {
        &self.entry.output
    }

    /// The verification digest, present iff the request asked to verify.
    pub fn verify(&self) -> Option<VerifyDigest> {
        self.entry.verify
    }

    /// An owned copy of the response (one deep clone of the entry).
    pub fn to_response(&self) -> ScheduleResponse {
        ScheduleResponse {
            output: self.entry.output.clone(),
            verify: self.entry.verify,
            cache_hit: self.cache_hit,
        }
    }
}

/// The cache's shard count: comfortably above the worker counts the sweep
/// engine runs with, so shard contention stays negligible.
pub const DEFAULT_SHARDS: usize = 16;

/// The resident scheduling service: a sharded content-addressed schedule
/// cache in front of the deterministic scheduling (+ verification)
/// pipeline.
///
/// Every service owns a [`Registry`]: the cache's hit/miss/insert counters
/// live in it (as `dms_cache_hits_total` / `dms_cache_misses_total` /
/// `dms_cache_inserts_total`), every [`ScheduleService::schedule`] call
/// lands in the `dms_request_latency_micros` histogram, and
/// `dms_requests_inflight` tracks concurrent requests. [`ScheduleService::new`]
/// builds a private registry (unit tests stay isolated from each other);
/// [`ScheduleService::with_registry`] shares a caller-owned one so a driver
/// can merge service metrics with its own timers and the scheduler-core
/// event counts.
#[derive(Debug)]
pub struct ScheduleService {
    cache: ShardedCache<Arc<CachedSchedule>>,
    registry: Arc<Registry>,
    latency: Histogram,
    inflight: Gauge,
}

impl Default for ScheduleService {
    fn default() -> Self {
        Self::new()
    }
}

impl ScheduleService {
    /// Creates a service with a private metrics registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Creates a service that publishes its metrics into the given
    /// registry instead of a private one.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let cache = ShardedCache::with_counters(
            DEFAULT_SHARDS,
            registry.counter("dms_cache_hits_total"),
            registry.counter("dms_cache_misses_total"),
            registry.counter("dms_cache_inserts_total"),
        );
        let latency = registry.histogram("dms_request_latency_micros");
        let inflight = registry.gauge("dms_requests_inflight");
        ScheduleService { cache, registry, latency, inflight }
    }

    /// The metrics registry this service publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders the registry in Prometheus text exposition format — the
    /// payload of the wire `{"op":"metrics"}` response.
    pub fn metrics_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Snapshot of the cache hit/miss/insert counters.
    pub fn cache_stats(&self) -> CacheCounters {
        self.cache.stats()
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Answers one request, from the cache when possible, with an owned
    /// response: [`ScheduleService::lend`] plus one deep clone of the
    /// entry, as drivers that keep or take apart the output need.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Schedule`] when the scheduler fails and
    /// [`ServiceError::Verify`] when the requested end-to-end verification
    /// fails. Neither is cached.
    pub fn schedule(&self, req: &ScheduleRequest<'_>) -> Result<ScheduleResponse, ServiceError> {
        Ok(match self.timed_answer(req)? {
            Answer::Hit(entry) => LentResponse { entry, cache_hit: true }.to_response(),
            Answer::Miss(cold) => {
                ScheduleResponse { output: cold.output, verify: cold.verify, cache_hit: false }
            }
        })
    }

    /// Answers one request, from the cache when possible, lending the cache
    /// entry instead of copying it. A miss lends its own cold output, and
    /// the cache keeps a copy, as it does for [`ScheduleService::schedule`].
    ///
    /// # Errors
    ///
    /// As [`ScheduleService::schedule`].
    pub fn lend(&self, req: &ScheduleRequest<'_>) -> Result<LentResponse, ServiceError> {
        Ok(match self.timed_answer(req)? {
            Answer::Hit(entry) => LentResponse { entry, cache_hit: true },
            Answer::Miss(cold) => LentResponse { entry: Arc::new(cold), cache_hit: false },
        })
    }

    /// [`ScheduleService::answer`], seen by the latency histogram and the
    /// in-flight gauge.
    fn timed_answer(&self, req: &ScheduleRequest<'_>) -> Result<Answer, ServiceError> {
        let _inflight = self.inflight.track();
        timed(&self.latency, || self.answer(req))
    }

    /// The one lookup path: the cached entry, or the cold output after a
    /// copy of it went into the cache. The copy, not the output the
    /// scheduler grew, is what stays resident, so entries hold no spare
    /// capacity.
    fn answer(&self, req: &ScheduleRequest<'_>) -> Result<Answer, ServiceError> {
        let guard = guard_fingerprint(req.body);
        let key = cache_key(req, guard);
        if let Some(entry) = self.cache.lookup(&key, guard) {
            return Ok(Answer::Hit(entry));
        }

        let output = match req.scheduler {
            SchedulerKind::Ims => SchedulerOutput::Ims(Box::new(
                ims_schedule(req.body, req.machine, &ImsConfig::default())
                    .map_err(ServiceError::Schedule)?,
            )),
            SchedulerKind::Dms => SchedulerOutput::Dms(Box::new(
                dms_schedule(req.body, req.machine, &req.dms).map_err(ServiceError::Schedule)?,
            )),
        };

        let verify = match req.verify_trips {
            None => None,
            Some(trips) => {
                let report = verify_schedule(req.body, output.result(), req.machine, trips)
                    .map_err(|e| ServiceError::Verify(format!("{e:?}")))?;
                // The verify's execution timed the links too; the digest
                // only carries that timing when the request asked for it.
                if req.contention && report.stall_cycles > 0 {
                    self.registry.record_event(EventKind::LinkStall);
                }
                Some(VerifyDigest {
                    stores_checked: report.stores_checked,
                    max_queue_depth: report.max_queue_depth,
                    achieved_ii: if req.contention { report.achieved_ii } else { 0 },
                })
            }
        };

        let cold = CachedSchedule { output, verify };
        self.cache.insert(key, guard, Arc::new(cold.clone()));
        Ok(Answer::Miss(cold))
    }
}

/// What [`ScheduleService::answer`] found.
enum Answer {
    Hit(Arc<CachedSchedule>),
    Miss(CachedSchedule),
}

/// Runs `f`, recording how long it took, in µs, into `histogram`.
pub(crate) fn timed<T>(histogram: &Histogram, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    histogram.observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    value
}

/// Derives the content address of a request from its body fingerprint
/// `guard` ([`guard_fingerprint`]). The context half folds everything else
/// the schedule depends on. `DmsConfig` only enters DMS keys — IMS ignores
/// it, so including it would make identical IMS requests miss whenever an
/// unrelated DMS knob (e.g. the sweep's `ii_seed` threading) changes.
fn cache_key(req: &ScheduleRequest<'_>, guard: u64) -> CacheKey {
    let mut ctx = Fnv::new();
    match req.scheduler {
        SchedulerKind::Ims => ctx.word(1),
        SchedulerKind::Dms => {
            ctx.word(2);
            req.dms.hash(&mut ctx);
        }
    }
    req.machine.hash(&mut ctx);
    req.verify_trips.hash(&mut ctx);
    // A contention request carries an extra digest field, so it must not
    // hit a plain verified entry (and vice versa).
    req.contention.hash(&mut ctx);
    CacheKey { canon: guard, context: ctx.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::kernels;
    use dms_machine::TopologyKind;

    fn dms_request<'a>(body: &'a Loop, machine: &'a MachineConfig) -> ScheduleRequest<'a> {
        ScheduleRequest {
            body,
            machine,
            dms: DmsConfig::default(),
            scheduler: SchedulerKind::Dms,
            verify_trips: None,
            contention: false,
        }
    }

    #[test]
    fn contention_requests_measure_achieved_ii_and_do_not_hit_plain_entries() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let plain = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };
        let contended = ScheduleRequest { contention: true, ..plain };

        let cold = service.schedule(&plain).unwrap();
        assert_eq!(cold.verify.unwrap().achieved_ii, 0, "no replay without contention");

        let timed = service.schedule(&contended).unwrap();
        assert!(!timed.cache_hit, "a contention request must not hit a plain verified entry");
        let digest = timed.verify.unwrap();
        assert!(digest.achieved_ii >= cold.output.result().ii());

        let warm = service.schedule(&contended).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.verify, Some(digest), "the achieved II is cached with the digest");
    }

    /// `link_stall` counts contention misses whose program stalled on a
    /// link, and nothing else: a plain verify of the same loop times the
    /// links too but records no stall, and a warm hit executes nothing.
    #[test]
    fn link_stalls_are_recorded_only_for_contention_misses() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4).with_topology(TopologyKind::Bus);
        let plain = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };
        let contended = ScheduleRequest { contention: true, ..plain };
        let stalls = || service.registry().event_count(EventKind::LinkStall);

        service.schedule(&plain).unwrap();
        assert_eq!(stalls(), 0, "a plain verify records no link stall");
        let timed = service.schedule(&contended).unwrap();
        assert!(stalls() >= 1, "the bus serialises this loop's transfers");
        let walk = verify_schedule(&fir, timed.output.result(), &machine, 64).unwrap();
        assert!(walk.stall_cycles > 0);
        assert_eq!(timed.verify.unwrap().achieved_ii, walk.achieved_ii);
        service.schedule(&contended).unwrap();
        assert_eq!(stalls(), 1, "a cache hit executes nothing");
    }

    #[test]
    fn warm_response_is_identical_to_cold_and_flagged_as_hit() {
        let service = ScheduleService::new();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        let cold = service.schedule(&req).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.output.result().ii(), warm.output.result().ii());
        assert_eq!(
            format!("{:?}", cold.output.result().schedule),
            format!("{:?}", warm.output.result().schedule),
            "a cached schedule must be bit-identical to the cold one"
        );
        assert_eq!(service.cache_stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
    }

    #[test]
    fn verified_requests_cache_the_digest_and_skip_reverification() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };

        let cold = service.schedule(&req).unwrap();
        let digest = cold.verify.expect("verification ran");
        assert!(digest.stores_checked > 0);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.verify, Some(digest));
    }

    #[test]
    fn different_machine_scheduler_and_verify_contexts_do_not_collide() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let clustered = MachineConfig::paper_clustered(4);
        let unclustered = MachineConfig::unclustered(4);

        let dms = service.schedule(&dms_request(&fir, &clustered)).unwrap();
        let ims = service
            .schedule(&ScheduleRequest {
                scheduler: SchedulerKind::Ims,
                ..dms_request(&fir, &unclustered)
            })
            .unwrap();
        assert!(!ims.cache_hit, "IMS on another machine must not hit the DMS entry");
        assert!(ims.output.dms().is_none());
        assert!(dms.output.dms().is_some());

        let verified = service
            .schedule(&ScheduleRequest { verify_trips: Some(16), ..dms_request(&fir, &clustered) })
            .unwrap();
        assert!(!verified.cache_hit, "a verified request must not hit an unverified entry");
        assert!(verified.verify.is_some());
    }

    #[test]
    fn isomorphic_twin_with_a_different_name_misses_on_the_guard() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let mut twin = fir.clone();
        twin.name = "fir_renamed".to_string();
        let machine = MachineConfig::paper_clustered(4);

        service.schedule(&dms_request(&fir, &machine)).unwrap();
        let twin_resp = service.schedule(&dms_request(&twin, &machine)).unwrap();
        assert!(
            !twin_resp.cache_hit,
            "the exact fingerprint must keep name-seeded tie-breaks from leaking across \
             isomorphic twins"
        );
        assert_eq!(twin_resp.output.result().loop_name, "fir_renamed", "its own schedule");
        assert_eq!(service.cache_len(), 2, "each twin has its own entry");
        assert!(service.schedule(&dms_request(&twin, &machine)).unwrap().cache_hit);
    }

    /// A body whose ops are renumbered is isomorphic to the original (same
    /// canonical hash) but schedules on its own: priority ties break on raw
    /// op ids.
    #[test]
    fn isomorphic_twin_with_renumbered_ops_misses_and_gets_its_own_schedule() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let reversal: Vec<usize> = (0..fir.ddg.num_slots()).rev().collect();
        let twin = Loop::new(&fir.name, dms_ir::canon::permute(&fir.ddg, &reversal), 64);
        assert_eq!(dms_ir::canonical_hash(&twin.ddg), dms_ir::canonical_hash(&fir.ddg));
        let machine = MachineConfig::paper_clustered(4);

        service.schedule(&dms_request(&fir, &machine)).unwrap();
        let twin_resp = service.schedule(&dms_request(&twin, &machine)).unwrap();
        assert!(!twin_resp.cache_hit, "a renumbered twin must not hit the original's entry");
        assert_eq!(service.cache_len(), 2);
        let cold = dms_schedule(&twin, &machine, &DmsConfig::default()).unwrap();
        assert_eq!(
            format!("{:?}", twin_resp.output.result()),
            format!("{:?}", cold.result),
            "the twin's response is its own cold schedule"
        );
    }

    #[test]
    fn ims_cache_key_ignores_the_dms_config() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::unclustered(4);
        let mut req =
            ScheduleRequest { scheduler: SchedulerKind::Ims, ..dms_request(&fir, &machine) };
        service.schedule(&req).unwrap();
        req.dms.ii_seed = Some(7);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit, "an IMS request must hit regardless of DMS knobs");
    }

    #[test]
    fn the_registry_mirrors_cache_stats_and_counts_request_latencies() {
        let service = ScheduleService::new();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        service.schedule(&req).unwrap();
        service.schedule(&req).unwrap();

        let registry = service.registry();
        assert_eq!(registry.counter("dms_cache_hits_total").get(), 1);
        assert_eq!(registry.counter("dms_cache_misses_total").get(), 1);
        assert_eq!(registry.counter("dms_cache_inserts_total").get(), 1);
        assert_eq!(service.cache_stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
        assert_eq!(registry.histogram("dms_request_latency_micros").count(), 2);
        assert_eq!(registry.gauge("dms_requests_inflight").get(), 0, "track() guard restored");

        let text = service.metrics_text();
        assert!(text.contains("dms_cache_hits_total 1"), "exposition holds the hit count:\n{text}");
        assert!(text.contains("dms_request_latency_micros_count 2"), "latency count:\n{text}");
    }

    #[test]
    fn a_shared_registry_merges_metrics_from_the_owning_driver() {
        let registry = Arc::new(Registry::new());
        registry.counter("driver_sweeps_total").inc();
        let service = ScheduleService::with_registry(Arc::clone(&registry));
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        service.schedule(&dms_request(&fir, &machine)).unwrap();
        let text = service.metrics_text();
        assert!(text.contains("driver_sweeps_total 1"));
        assert!(text.contains("dms_cache_misses_total 1"));
    }

    #[test]
    fn scheduler_failures_are_reported_and_not_cached() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        // No Load/Store unit: the loads and stores can never be placed.
        let machine = MachineConfig::homogeneous(
            4,
            dms_machine::ClusterFus { load_store: 0, ..dms_machine::ClusterFus::PAPER },
            dms_ir::LatencySpec::default(),
        );
        let err = service.schedule(&dms_request(&fir, &machine)).unwrap_err();
        assert!(matches!(err, ServiceError::Schedule(_)));
        assert_eq!(service.cache_len(), 0, "failures are never cached");
    }
}
