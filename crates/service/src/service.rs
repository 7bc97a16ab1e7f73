//! The resident schedule service: requests in, cached-or-cold answers
//! out.
//!
//! Every driver goes through one lookup path, [`ScheduleService::answer`]:
//! the sweep engine, the wire frontend and the benches ask it, and it
//! answers with a [`ScheduleRecord`], the numbers the figures and the wire
//! reply are made of (II, MII, stages, op counts, strategy counts, the DMS
//! search's scalars and the verified-stores digest when verification
//! ran), plus whether the answer came from the cache. A request names a
//! loop body, a machine, a scheduler and optionally a verification trip
//! count; the loop's name is the request's own.
//!
//! **Cached answers are bit-identical to cold ones.** The cache keeps one
//! fixed-size record per request, which owns no heap block: the transformed
//! DDG, the schedule and the queue pressure a cold run produces are
//! dropped once the record is read off them. It is keyed by (exact body
//! fingerprint, context hash) and guarded by the same fingerprint (see
//! [`crate::hash`] for why it is exact rather than isomorphism-invariant).
//! A caller that needs the full output (the schedule itself, the
//! transformed DDG) calls [`ScheduleService::schedule`], which runs the
//! same cold function the miss path runs and neither reads nor fills the
//! cache.
//! Failures — scheduler errors and verification failures — are never
//! cached: they are rare (a healthy sweep has none) and a negative cache
//! would complicate the bit-exactness story for no measurable win.

use crate::cache::{CacheCounters, ShardedCache};
use crate::hash::{guard_fingerprint, CacheKey, Fnv};
use dms_core::{dms_schedule, DmsConfig};
use dms_ir::Loop;
use dms_machine::MachineConfig;
use dms_sched::{ims_schedule, ImsConfig, ScheduleError, ScheduleOutcome, ScheduleResult};
use dms_sim::verify_schedule;
use dms_telemetry::{EventKind, Gauge, Histogram, Registry};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A response carrying the full scheduler output, as
/// [`ScheduleService::schedule`] returns it.
#[derive(Debug, Clone)]
pub struct ScheduleResponse {
    /// The full scheduler output.
    pub output: SchedulerOutput,
    /// The verification digest, present iff the request asked to verify.
    pub verify: Option<VerifyDigest>,
    /// Whether this response was answered from the cache
    /// ([`ScheduleService::schedule`] never is).
    pub cache_hit: bool,
}

/// The DMS search's scalars of a [`ScheduleRecord`] (see
/// [`ScheduleOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmsScalars {
    /// II of the first structurally-valid schedule the search found.
    pub first_ii: u32,
    /// Schedules rejected for exceeding a queue-file capacity.
    pub pressure_retries: u32,
    /// II the plain deterministic heuristic achieves on this loop.
    pub baseline_ii: u32,
    /// Challenger searches attempted beyond the deterministic baseline.
    pub candidates_run: u32,
    /// Index of the candidate whose schedule was kept.
    pub winner_candidate: u32,
}

/// What one answer carries, and what one cache entry holds: the schedule's
/// numbers, the strategy counts, the DMS scalars and the verify digest. It is `Copy` and owns no heap block; the
/// loop name is the request's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRecord {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Lower bound (MII) on this machine (1 when no bound was computed).
    pub mii: u32,
    /// Kernel stage count of the modulo schedule.
    pub stages: u32,
    /// Candidate IIs tried before the schedule was accepted.
    pub ii_attempts: u32,
    /// Live operations in the scheduled (transformed) DDG.
    pub ops: usize,
    /// Useful operations (excludes the inserted copies and moves).
    pub useful_ops: usize,
    /// Copy operations inserted by the single-use conversion.
    pub copies: u64,
    /// Move operations inserted by DMS chains.
    pub moves: u64,
    /// Operations placed by strategy 2.
    pub strategy2: u64,
    /// Operations placed by strategy 3.
    pub strategy3: u64,
    /// The DMS search's scalars, or `None` for an IMS answer.
    pub dms: Option<DmsScalars>,
    /// The verification digest, present iff the request asked to verify.
    pub verify: Option<VerifyDigest>,
}

impl ScheduleRecord {
    /// Reads the record off a full scheduler output.
    pub fn new(output: &SchedulerOutput, verify: Option<VerifyDigest>) -> Self {
        let result = output.result();
        ScheduleRecord {
            ii: result.ii(),
            mii: result.stats.mii.map_or(1, |m| m.mii()),
            stages: result.schedule.stage_count(),
            ii_attempts: result.stats.ii_attempts,
            ops: result.ddg.num_live_ops(),
            useful_ops: result.useful_ops(),
            copies: result.stats.copies_inserted,
            moves: result.stats.moves_inserted,
            strategy2: result.stats.strategy2_placements,
            strategy3: result.stats.strategy3_placements,
            dms: output.dms().map(|o| DmsScalars {
                first_ii: o.first_ii,
                pressure_retries: o.pressure_retries,
                baseline_ii: o.baseline_ii,
                candidates_run: o.candidates_run,
                winner_candidate: o.winner_candidate,
            }),
            verify,
        }
    }

    /// Dynamic cycle count for the given trip count, as
    /// [`dms_sched::Schedule::cycles`] computes it.
    pub fn cycles(&self, trip_count: u64) -> u64 {
        (trip_count + u64::from(self.stages) - 1) * u64::from(self.ii)
    }
}

/// A successful answer from [`ScheduleService::answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The answer's numbers (bit-identical whether cached or cold).
    pub record: ScheduleRecord,
    /// Whether the record came from the cache.
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

/// The cache's shard count: comfortably above the worker counts the sweep
/// engine runs with, so shard contention stays negligible.
pub const DEFAULT_SHARDS: usize = 16;

/// The resident scheduling service: a sharded content-addressed cache of
/// [`ScheduleRecord`]s in front of the deterministic scheduling (+ verification)
/// pipeline.
///
/// Every service owns a [`Registry`]: the cache's hit/miss/insert counters
/// live in it (as `dms_cache_hits_total` / `dms_cache_misses_total` /
/// `dms_cache_inserts_total`), every [`ScheduleService::answer`] call
/// lands in the `dms_request_latency_micros` histogram, and
/// `dms_requests_inflight` tracks concurrent requests. [`ScheduleService::new`]
/// builds a private registry (unit tests stay isolated from each other);
/// [`ScheduleService::with_registry`] shares a caller-owned one so a driver
/// can merge service metrics with its own timers and the scheduler-core
/// event counts.
#[derive(Debug)]
pub struct ScheduleService {
    cache: ShardedCache<ScheduleRecord>,
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

    /// Answers one request, from the cache when possible. This is the one
    /// lookup path: a miss runs the scheduler (and the verify oracle when
    /// asked) cold, keeps the record it reads off the output, and drops the
    /// output. Each call lands in the latency histogram and the in-flight
    /// gauge.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Schedule`] when the scheduler fails and
    /// [`ServiceError::Verify`] when the requested end-to-end verification
    /// fails. Neither is cached.
    pub fn answer(&self, req: &ScheduleRequest<'_>) -> Result<Answer, ServiceError> {
        let _inflight = self.inflight.track();
        timed(&self.latency, || {
            let guard = guard_fingerprint(req.body);
            let key = cache_key(req, guard);
            if let Some(record) = self.cache.lookup(&key, guard) {
                return Ok(Answer { record, cache_hit: true });
            }
            let (output, verify) = self.cold(req)?;
            let record = ScheduleRecord::new(&output, verify);
            self.cache.insert(key, guard, record);
            Ok(Answer { record, cache_hit: false })
        })
    }

    /// The full scheduler output for one request, computed by the cold
    /// function [`ScheduleService::answer`]'s miss path runs. It neither
    /// reads nor fills the cache, so `cache_hit` is `false`.
    ///
    /// # Errors
    ///
    /// As [`ScheduleService::answer`].
    pub fn schedule(&self, req: &ScheduleRequest<'_>) -> Result<ScheduleResponse, ServiceError> {
        let (output, verify) = self.cold(req)?;
        Ok(ScheduleResponse { output, verify, cache_hit: false })
    }

    /// Runs the request's scheduler, then the verify oracle when asked.
    fn cold(
        &self,
        req: &ScheduleRequest<'_>,
    ) -> Result<(SchedulerOutput, Option<VerifyDigest>), ServiceError> {
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
                    .map_err(|e| ServiceError::Verify(e.to_string()))?;
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
        Ok((output, verify))
    }
}

/// Runs `f`, recording how long it took, in µs, into `histogram`.
pub(crate) fn timed<T>(histogram: &Histogram, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    histogram.observe(micros(started.elapsed()));
    value
}

/// `d` in whole microseconds, rounded to the nearest (a half rounds up), so
/// a sub-µs call counts as 0 or 1 and a histogram's sum is not biased low.
fn micros(d: Duration) -> u64 {
    u64::try_from((d.as_nanos() + 500) / 1_000).unwrap_or(u64::MAX)
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

    /// A duration is recorded to the nearest µs: a sub-µs cache hit is not
    /// always 0, and a half rounds up.
    #[test]
    fn durations_round_to_the_nearest_microsecond() {
        assert_eq!(micros(Duration::from_nanos(400)), 0);
        assert_eq!(micros(Duration::from_nanos(500)), 1);
        assert_eq!(micros(Duration::from_nanos(25_600)), 26);
        assert_eq!(micros(Duration::MAX), u64::MAX);
    }

    #[test]
    fn contention_requests_measure_achieved_ii_and_do_not_hit_plain_entries() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let plain = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };
        let contended = ScheduleRequest { contention: true, ..plain };

        let cold = service.answer(&plain).unwrap();
        assert_eq!(cold.record.verify.unwrap().achieved_ii, 0, "no replay without contention");

        let timed = service.answer(&contended).unwrap();
        assert!(!timed.cache_hit, "a contention request must not hit a plain verified entry");
        let digest = timed.record.verify.unwrap();
        assert!(digest.achieved_ii >= cold.record.ii);

        let warm = service.answer(&contended).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.record.verify, Some(digest), "the achieved II is cached with the digest");
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

        service.answer(&plain).unwrap();
        assert_eq!(stalls(), 0, "a plain verify records no link stall");
        let timed = service.answer(&contended).unwrap();
        assert!(stalls() >= 1, "the bus serialises this loop's transfers");
        let output = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
        let walk = verify_schedule(&fir, &output.result, &machine, 64).unwrap();
        assert!(walk.stall_cycles > 0);
        assert_eq!(timed.record.verify.unwrap().achieved_ii, walk.achieved_ii);
        service.answer(&contended).unwrap();
        assert_eq!(stalls(), 1, "a cache hit executes nothing");
    }

    #[test]
    fn warm_response_is_identical_to_cold_and_flagged_as_hit() {
        let service = ScheduleService::new();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        let cold = service.answer(&req).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.answer(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(
            cold.record, warm.record,
            "a cached record must be bit-identical to the cold one"
        );
        let full = service.schedule(&req).unwrap();
        assert!(!full.cache_hit, "the full output is always computed cold");
        assert_eq!(ScheduleRecord::new(&full.output, full.verify), cold.record);
        assert_eq!(service.cache_stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
    }

    #[test]
    fn a_record_counts_cycles_as_the_schedule_does() {
        let service = ScheduleService::new();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let full = service.schedule(&dms_request(&fir, &machine)).unwrap();
        let record = ScheduleRecord::new(&full.output, None);
        for trips in [1, 7, 64] {
            assert_eq!(record.cycles(trips), full.output.result().cycles(trips));
        }
    }

    #[test]
    fn verified_requests_cache_the_digest_and_skip_reverification() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };

        let cold = service.answer(&req).unwrap();
        let digest = cold.record.verify.expect("verification ran");
        assert!(digest.stores_checked > 0);
        let warm = service.answer(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.record.verify, Some(digest));
        assert_eq!(service.schedule(&req).unwrap().verify, Some(digest));
    }

    #[test]
    fn different_machine_scheduler_and_verify_contexts_do_not_collide() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let clustered = MachineConfig::paper_clustered(4);
        let unclustered = MachineConfig::unclustered(4);

        let dms = service.answer(&dms_request(&fir, &clustered)).unwrap();
        let ims = service
            .answer(&ScheduleRequest {
                scheduler: SchedulerKind::Ims,
                ..dms_request(&fir, &unclustered)
            })
            .unwrap();
        assert!(!ims.cache_hit, "IMS on another machine must not hit the DMS entry");
        assert!(ims.record.dms.is_none());
        assert!(dms.record.dms.is_some());

        let verified = service
            .answer(&ScheduleRequest { verify_trips: Some(16), ..dms_request(&fir, &clustered) })
            .unwrap();
        assert!(!verified.cache_hit, "a verified request must not hit an unverified entry");
        assert!(verified.record.verify.is_some());
    }

    #[test]
    fn isomorphic_twin_with_a_different_name_misses_on_the_guard() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let mut twin = fir.clone();
        twin.name = "fir_renamed".to_string();
        let machine = MachineConfig::paper_clustered(4);

        service.answer(&dms_request(&fir, &machine)).unwrap();
        let twin_resp = service.answer(&dms_request(&twin, &machine)).unwrap();
        assert!(
            !twin_resp.cache_hit,
            "the exact fingerprint must keep name-seeded tie-breaks from leaking across \
             isomorphic twins"
        );
        let full = service.schedule(&dms_request(&twin, &machine)).unwrap();
        assert_eq!(full.output.result().loop_name, "fir_renamed", "its own schedule");
        assert_eq!(ScheduleRecord::new(&full.output, None), twin_resp.record);
        assert_eq!(service.cache_len(), 2, "each twin has its own entry");
        assert!(service.answer(&dms_request(&twin, &machine)).unwrap().cache_hit);
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

        service.answer(&dms_request(&fir, &machine)).unwrap();
        let twin_resp = service.answer(&dms_request(&twin, &machine)).unwrap();
        assert!(!twin_resp.cache_hit, "a renumbered twin must not hit the original's entry");
        assert_eq!(service.cache_len(), 2);
        let cold = dms_schedule(&twin, &machine, &DmsConfig::default()).unwrap();
        let full = service.schedule(&dms_request(&twin, &machine)).unwrap();
        assert_eq!(
            format!("{:?}", full.output.result()),
            format!("{:?}", cold.result),
            "the twin's full output is its own cold schedule"
        );
        assert_eq!(
            twin_resp.record,
            ScheduleRecord::new(&SchedulerOutput::Dms(Box::new(cold)), None),
            "the twin's answer is read off its own cold schedule"
        );
    }

    #[test]
    fn ims_cache_key_ignores_the_dms_config() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::unclustered(4);
        let mut req =
            ScheduleRequest { scheduler: SchedulerKind::Ims, ..dms_request(&fir, &machine) };
        service.answer(&req).unwrap();
        req.dms.ii_seed = Some(7);
        let warm = service.answer(&req).unwrap();
        assert!(warm.cache_hit, "an IMS request must hit regardless of DMS knobs");
    }

    #[test]
    fn the_registry_mirrors_cache_stats_and_counts_request_latencies() {
        let service = ScheduleService::new();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        service.answer(&req).unwrap();
        service.answer(&req).unwrap();

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
        service.answer(&dms_request(&fir, &machine)).unwrap();
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
        let err = service.answer(&dms_request(&fir, &machine)).unwrap_err();
        assert!(matches!(err, ServiceError::Schedule(_)));
        assert_eq!(service.cache_len(), 0, "failures are never cached");
        assert_eq!(service.schedule(&dms_request(&fir, &machine)).unwrap_err(), err);
    }

    /// A verification failure reaches the wire as `VerifyError`'s message,
    /// not as its `Debug` form. IMS never checks queue capacity, so 65
    /// independent load -> store pairs on the one-cluster machine keep
    /// more values live than its 64-register LRF holds.
    #[test]
    fn verification_failures_reach_the_wire_as_their_message() {
        let mut b = dms_ir::LoopBuilder::new("wide");
        for _ in 0..65 {
            let value = b.load(dms_ir::Operand::Induction);
            b.store(value.into());
        }
        let body = b.finish(64);
        let machine = MachineConfig::unclustered(1);
        let req = ScheduleRequest {
            scheduler: SchedulerKind::Ims,
            verify_trips: Some(64),
            ..dms_request(&body, &machine)
        };
        let reply =
            crate::wire::encode_answer(&body.name, &ScheduleService::default().answer(&req));
        let prefix = r#"{"ok":false,"error":"verification failed: register allocation failed: LRF of cluster 0 needs "#;
        assert!(reply.starts_with(prefix), "{reply}");
        assert!(reply.ends_with(r#" registers but only 64 exist"}"#), "{reply}");
        assert!(!reply.contains("CapacityExceeded("), "{reply}");
    }

    /// IMS knows nothing about partitioning, so a request for IMS on the
    /// wire's `"unclustered":false,"clusters":4` machine is a scheduling
    /// error.
    #[test]
    fn a_clustered_ims_request_is_a_clean_error() {
        let body = kernels::daxpy(64);
        let machine = MachineConfig::paper_clustered(4);
        let req = ScheduleRequest { scheduler: SchedulerKind::Ims, ..dms_request(&body, &machine) };
        let answer = ScheduleService::default().answer(&req);
        assert_eq!(
            answer,
            Err(ServiceError::Schedule(ScheduleError::ClusteredMachine { clusters: 4 }))
        );
        assert_eq!(
            crate::wire::encode_answer(&body.name, &answer),
            r#"{"ok":false,"error":"scheduling failed: IMS schedules only an unclustered machine, and this one has 4 clusters"}"#
        );
    }
}
