//! The schedule service's request path, driven layer by layer for the
//! traced runs.
//!
//! [`Pipeline::answer`] does what `ScheduleService::schedule` does for one
//! request — content-address the body, look it up in a guarded sharded
//! cache, and on a miss schedule, verify, replay and insert — but calls each
//! layer's public function itself, so every call gets its own span. The
//! cache key folds the same fields as the service's, so the pipeline hits
//! and misses exactly where a service fed the same requests does, and its
//! responses encode to the same bytes (the traced runs check both).

use crate::trace::{micros, Tracer};
use dms_core::dms_schedule;
use dms_ir::canonical_hash;
use dms_ir::transform::convert_to_single_use;
use dms_regalloc::{allocate, emit};
use dms_sched::{ims_schedule, mii, validate_schedule, ImsConfig};
use dms_service::hash::{guard_fingerprint, CacheKey, Fnv};
use dms_service::{
    ScheduleRequest, ScheduleResponse, SchedulerKind, SchedulerOutput, ServiceError, ShardedCache,
    VerifyDigest,
};
use dms_sim::{execute_program, reference_trace, replay_schedule, StoreRecord, VerifyError};
use dms_telemetry::{EventKind, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every layer span the pipeline records.
pub const LAYER_SPANS: [&str; 18] = [
    "ir.canonical_hash",
    "service.key",
    "service.guard",
    "service.hit",
    "service.miss",
    "ir.single_use",
    "sched.mii",
    "sched.ims",
    "core.dms",
    "sched.validate",
    "regalloc.allocate",
    "regalloc.emit",
    "sim.execute",
    "sim.reference",
    "sim.compare",
    "sim.replay",
    // Recorded by the drivers around the pipeline.
    "workloads.unroll",
    "experiments.report",
];

/// Counts gathered at the layer boundaries of a traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub lookups: u64,
    pub hits: u64,
    pub ii_attempts: u64,
    pub failed_ii_attempts: u64,
    pub pressure_retries: u64,
    pub chain_dismantles: u64,
    pub budget_used: u64,
    pub evictions: u64,
    pub moves_inserted: u64,
    pub program_words: u64,
    pub instances_executed: u64,
    pub stores_checked: u64,
    pub transfers: u64,
    pub serialized_transfers: u64,
    pub stalled_cells: u64,
}

/// One `dms_schedule` call, for the slowest-call attribution.
#[derive(Debug, Clone, Copy)]
pub struct DmsCall {
    pub id: u64,
    pub us: f64,
    pub ii_attempts: u64,
    pub failed_ii_attempts: u64,
    pub chain_dismantles: u64,
}

#[derive(Debug, Clone)]
struct Cached {
    output: SchedulerOutput,
    verify: Option<VerifyDigest>,
}

/// The layered request path with its own cold cache.
#[derive(Debug)]
pub struct Pipeline {
    cache: ShardedCache<Cached>,
    registry: Arc<Registry>,
    pub counters: Counters,
    pub dms_calls: Vec<DmsCall>,
    /// Time spent re-running calls a scheduler also makes internally
    /// (single-use conversion, MII bounds), per scheduler layer: the service
    /// does this work once, inside that scheduler's own call.
    pub probed_us: BTreeMap<&'static str, f64>,
}

impl Pipeline {
    /// A pipeline reading scheduler event counts from `registry`, which the
    /// caller installs as the process-wide telemetry sink.
    pub fn new(registry: Arc<Registry>) -> Self {
        Pipeline {
            cache: ShardedCache::new(dms_service::service::DEFAULT_SHARDS),
            registry,
            counters: Counters::default(),
            dms_calls: Vec::new(),
            probed_us: BTreeMap::new(),
        }
    }

    /// Total time of the probes.
    pub fn probe_us(&self) -> f64 {
        self.probed_us.values().sum()
    }

    /// Answers one request as the schedule service would, recording a span
    /// per layer call under the id `id`.
    pub fn answer(
        &mut self,
        req: &ScheduleRequest<'_>,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<ScheduleResponse, ServiceError> {
        let canon = tr.span("ir.canonical_hash", id, || canonical_hash(&req.body.ddg));
        let key = CacheKey { canon, context: tr.span("service.key", id, || context_hash(req)) };
        let guard = tr.span("service.guard", id, || guard_fingerprint(req.body));
        let started = Instant::now();
        let found = self.cache.lookup(&key, guard);
        let name = if found.is_some() { "service.hit" } else { "service.miss" };
        tr.record(name, id, started, Instant::now());
        self.counters.lookups += 1;
        if let Some(entry) = found {
            self.counters.hits += 1;
            return Ok(ScheduleResponse {
                output: entry.output,
                verify: entry.verify,
                cache_hit: true,
            });
        }

        let output = match req.scheduler {
            SchedulerKind::Ims => {
                // IMS computes its bounds on the body as given (no
                // single-use conversion by default).
                let _ = self
                    .probe(tr, "sched.mii", "sched.ims", id, || mii(&req.body.ddg, req.machine));
                let result = tr.span("sched.ims", id, || {
                    ims_schedule(req.body, req.machine, &ImsConfig::default())
                });
                SchedulerOutput::Ims(Box::new(result.map_err(ServiceError::Schedule)?))
            }
            SchedulerKind::Dms => {
                // `dms_schedule` runs the single-use conversion and the MII
                // bounds internally; the same calls on the same input are
                // timed here on their own, and the ledger takes their time
                // out of `core.dms`.
                let converted = self.probe(tr, "ir.single_use", "core.dms", id, || {
                    let mut ddg = req.body.ddg.clone();
                    if req.machine.is_clustered() {
                        convert_to_single_use(&mut ddg, req.machine.latency());
                    }
                    ddg
                });
                let _ =
                    self.probe(tr, "sched.mii", "core.dms", id, || mii(&converted, req.machine));
                let events = |r: &Registry| {
                    [
                        r.event_count(EventKind::IiAttemptStarted),
                        r.event_count(EventKind::IiAttemptFailed),
                        r.event_count(EventKind::PressureRetry),
                        r.event_count(EventKind::ChainDismantled),
                    ]
                };
                let before = events(&self.registry);
                let started = Instant::now();
                let outcome = dms_schedule(req.body, req.machine, &req.dms);
                let ended = Instant::now();
                tr.record("core.dms", id, started, ended);
                let after = events(&self.registry);
                let [attempts, failed, retries, dismantles] =
                    [0, 1, 2, 3].map(|k| after[k] - before[k]);
                let c = &mut self.counters;
                c.ii_attempts += attempts;
                c.failed_ii_attempts += failed;
                c.pressure_retries += retries;
                c.chain_dismantles += dismantles;
                self.dms_calls.push(DmsCall {
                    id,
                    us: micros(ended - started),
                    ii_attempts: attempts,
                    failed_ii_attempts: failed,
                    chain_dismantles: dismantles,
                });
                let outcome = outcome.map_err(ServiceError::Schedule)?;
                c.budget_used += outcome.result.stats.budget_used;
                c.evictions += outcome.result.stats.evictions;
                c.moves_inserted += outcome.result.stats.moves_inserted;
                SchedulerOutput::Dms(Box::new(outcome))
            }
        };

        let verify = match req.verify_trips {
            None => None,
            Some(trips) => Some(self.verify(req, &output, trips, tr, id)?),
        };
        tr.span("service.miss", id, || {
            self.cache.insert(key, guard, Cached { output: output.clone(), verify })
        });
        Ok(ScheduleResponse { output, verify, cache_hit: false })
    }

    /// Runs one of the calls the scheduler layer `of` makes internally, on
    /// its own.
    fn probe<T>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        of: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let value = f();
        let ended = Instant::now();
        tr.record(name, id, started, ended);
        *self.probed_us.entry(of).or_insert(0.0) += micros(ended - started);
        value
    }

    /// `dms_sim::verify_schedule` stage by stage, then the contention replay
    /// when the request asks for it.
    fn verify(
        &mut self,
        req: &ScheduleRequest<'_>,
        output: &SchedulerOutput,
        trips: u64,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<VerifyDigest, ServiceError> {
        let fail = |e: VerifyError| ServiceError::Verify(format!("{e:?}"));
        let result = output.result();
        let machine = req.machine;
        let violations = tr.span("sched.validate", id, || {
            validate_schedule(&result.ddg, machine, &result.schedule)
        });
        if !violations.is_empty() {
            return Err(fail(VerifyError::InvalidSchedule(violations)));
        }
        tr.span("regalloc.allocate", id, || allocate(result, machine))
            .map_err(|e| fail(VerifyError::Allocation(e)))?;
        let program = tr.span("regalloc.emit", id, || emit(result, machine));
        let exec = tr
            .span("sim.execute", id, || execute_program(&program, &result.ddg, machine, trips))
            .map_err(|e| fail(VerifyError::Execution(e)))?;
        let expected = tr.span("sim.reference", id, || reference_trace(&req.body.ddg, trips));
        let (stores, mismatch) = tr.span("sim.compare", id, || {
            let sorted = |mut trace: Vec<StoreRecord>| {
                trace.sort_unstable_by_key(|r| (r.iteration, r.op));
                trace
            };
            let (actual, expected) = (sorted(exec.stores), sorted(expected));
            let mismatch = (actual != expected).then(|| {
                let at = expected
                    .iter()
                    .zip(&actual)
                    .position(|(e, a)| e != a)
                    .unwrap_or_else(|| expected.len().min(actual.len()));
                VerifyError::TraceMismatch {
                    expected: expected.get(at).copied(),
                    actual: actual.get(at).copied(),
                }
            });
            (expected.len() as u64, mismatch)
        });
        if let Some(e) = mismatch {
            return Err(fail(e));
        }
        let c = &mut self.counters;
        c.program_words +=
            (program.prologue.len() + program.kernel.len() + program.epilogue.len()) as u64;
        c.instances_executed += exec.instances_executed;
        c.stores_checked += stores;

        let achieved_ii = if req.contention {
            let replay = tr
                .span("sim.replay", id, || replay_schedule(result, machine, trips))
                .map_err(|e| ServiceError::Verify(format!("contention replay: {e:?}")))?;
            c.transfers += replay.transfers;
            c.serialized_transfers += replay.serialized_transfers;
            c.stalled_cells += u64::from(replay.achieved_ii > replay.scheduled_ii);
            replay.achieved_ii
        } else {
            0
        };
        Ok(VerifyDigest {
            stores_checked: stores,
            max_queue_depth: exec.max_queue_depth,
            achieved_ii,
        })
    }
}

/// The context half of the service's cache key: scheduler kind, DMS
/// configuration (DMS requests only), machine, verification trip count and
/// the contention flag.
fn context_hash(req: &ScheduleRequest<'_>) -> u64 {
    let mut ctx = Fnv::new();
    match req.scheduler {
        SchedulerKind::Ims => ctx.word(1),
        SchedulerKind::Dms => {
            ctx.word(2);
            ctx.debug(&req.dms);
        }
    }
    ctx.debug(req.machine);
    match req.verify_trips {
        None => ctx.word(0),
        Some(trips) => {
            ctx.word(1);
            ctx.word(trips);
        }
    }
    ctx.word(u64::from(req.contention));
    ctx.finish()
}
