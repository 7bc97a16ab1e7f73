//! Scheduling the whole suite on every machine configuration: the parallel
//! sweep engine.
//!
//! The paper-scale sweep is a grid of (loop × cluster-count) tasks — 1258
//! loops × 10 cluster counts, each scheduled twice (IMS on the unclustered
//! machine and DMS on the clustered one). Work cost varies by an order of
//! magnitude with body size and cluster count, so a static chunking of the
//! suite leaves workers idle behind the unlucky chunk.
//! [`measure_loops_with_stats_on`] instead runs a work-stealing executor:
//! every worker claims small batches of *loop* indices from a shared
//! lock-free cursor, so fast workers steal the tail of the suite from slow
//! ones automatically.
//!
//! The unit of work is one **loop**, not one grid cell: a worker measures
//! its loop at every cluster count in configuration order, which lets it
//! unroll the body once per distinct unroll factor instead of once per
//! cluster count. A regression test pins the swept CSV byte-for-byte
//! against the uncached per-cell path.
//!
//! Results are written into a pre-allocated slot per loop, which makes the
//! output **deterministic by construction**: the returned vector is
//! identical — contents *and* order — for `threads = 1` and `threads = N`,
//! and carries no trace of scheduling noise into the figures or CSV files.

use dms_core::{DmsConfig, SchedulerStrategy};
use dms_machine::{MachineConfig, TopologyKind};
use dms_service::{resolve_threads, run_indexed, ScheduleRequest, ScheduleService, SchedulerKind};
use dms_workloads::{generate, SuiteConfig, SuiteLoop, UnrollPolicy};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Suite to generate (the paper uses 1258 loops).
    pub suite: SuiteConfig,
    /// Cluster counts to evaluate (the paper uses 1..=10).
    pub cluster_counts: Vec<u32>,
    /// Unrolling policy applied before scheduling.
    pub unroll: UnrollPolicy,
    /// Worker threads for the sweep (0 = one per available core).
    pub threads: usize,
    /// Copy units per cluster (1 in the paper's configurations; the §5
    /// ablation raises it).
    pub copy_units: u32,
    /// DMS tuning (chain policy etc.).
    pub dms: DmsConfig,
    /// Whether to verify every schedule end-to-end: lower it through
    /// register allocation and code generation, execute the emitted program
    /// on the clustered machine interpreter and cross-check the stored
    /// values against a scalar reference interpretation of the loop
    /// (`dms::verify_schedule`). A verification failure makes the task fail
    /// (it is dropped from the results and counted in
    /// [`SweepStats::failed`]).
    pub verify: bool,
    /// Overrides the CQRF capacity of the clustered machine (`None` keeps
    /// the paper's 32 registers). Tight capacities exercise the DMS
    /// pressure-relaxation loop: schedules that would overflow a queue file
    /// are retried at a higher II, visible in
    /// [`LoopMeasurement::pressure_retries`].
    pub cqrf_capacity: Option<u32>,
    /// Interconnect topology of the clustered machine (the paper's ring by
    /// default). The unclustered reference machine has a single cluster and
    /// is unaffected.
    pub topology: TopologyKind,
    /// Additionally record in [`LoopMeasurement::achieved_ii`] the II every
    /// verified DMS program achieves under the topology's
    /// transfer-bandwidth model (`dms_sim::contention`). Implies end-to-end
    /// verification: the timing comes from the verify's execution, so a
    /// contention sweep verifies even when `verify` is false.
    pub contention: bool,
}

/// Iterations executed per schedule in verify mode. Enough to fill and
/// drain the software pipeline several times over while keeping the
/// paper-scale sweep tractable; the cross-check compares every stored value
/// of every executed iteration.
pub const VERIFY_TRIP_CAP: u64 = 64;

impl ExperimentConfig {
    /// The paper-scale configuration: 1258 loops, 1–10 clusters.
    pub fn paper() -> Self {
        ExperimentConfig {
            suite: SuiteConfig::paper(),
            cluster_counts: (1..=10).collect(),
            unroll: UnrollPolicy::default(),
            threads: 0,
            copy_units: 1,
            dms: DmsConfig::default(),
            verify: false,
            cqrf_capacity: None,
            topology: TopologyKind::Ring,
            contention: false,
        }
    }

    /// A reduced configuration for quick runs and benches.
    pub fn quick(num_loops: usize) -> Self {
        ExperimentConfig { suite: SuiteConfig::small(num_loops), ..Self::paper() }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One loop scheduled on one cluster count, on both the clustered machine
/// (DMS) and the equivalent unclustered machine (IMS). A plain `Copy`
/// value: the topology and strategy are kinds, rendered to their labels
/// only by the CSV and the tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopMeasurement {
    /// Suite index of the loop.
    pub loop_id: usize,
    /// Whether the loop belongs to Set 2 (no recurrences).
    pub set2: bool,
    /// Number of clusters of the clustered machine (the unclustered machine
    /// has `3 * clusters` useful FUs).
    pub clusters: u32,
    /// Useful operations of the (unrolled) body.
    pub useful_ops: usize,
    /// Trip count of the (unrolled) loop.
    pub trip_count: u64,
    /// II achieved by IMS on the unclustered machine.
    pub unclustered_ii: u32,
    /// II achieved by DMS on the clustered machine.
    pub clustered_ii: u32,
    /// Lower bound (MII) on the unclustered machine.
    pub unclustered_mii: u32,
    /// Lower bound (MII) on the clustered machine, including the copy
    /// operations inserted by the single-use conversion.
    pub clustered_mii: u32,
    /// Dynamic cycles on the unclustered machine.
    pub unclustered_cycles: u64,
    /// Dynamic cycles on the clustered machine.
    pub clustered_cycles: u64,
    /// Copy operations inserted by the single-use conversion (clustered run).
    pub copies: u64,
    /// Move operations inserted by DMS chains (clustered run).
    pub moves: u64,
    /// Operations placed by strategy 2.
    pub strategy2: u64,
    /// Operations placed by strategy 3.
    pub strategy3: u64,
    /// Store values cross-checked against the scalar reference interpreter
    /// (IMS + DMS runs combined). 0 when the sweep ran without `--verify`.
    pub verified_stores: u64,
    /// Structurally-valid DMS schedules rejected because a queue file
    /// exceeded its capacity, each answered by a retry at the next II.
    pub pressure_retries: u32,
    /// II of the *first* structurally-valid DMS schedule the search found,
    /// before pressure relaxation. The final (post-retry) II is
    /// `clustered_ii`; the distance between the two is the II cost of
    /// fitting the queue files.
    pub first_ii: u32,
    /// Largest occupancy any CQRF stream reached while executing the
    /// schedules (IMS + DMS runs combined). 0 when the sweep ran without
    /// `--verify` — the streams only exist in the simulator.
    pub max_queue_depth: u64,
    /// Interconnect topology of the clustered machine.
    pub topology: TopologyKind,
    /// Scheduler strategy that produced `clustered_ii`.
    pub strategy: SchedulerStrategy,
    /// Challenger searches run beyond the deterministic baseline (0 for the
    /// plain `dms` strategy).
    pub candidates: u32,
    /// II the plain deterministic DMS heuristic achieves on this cell; the
    /// reference point a portfolio/beam winner Pareto-dominates. Equals
    /// `clustered_ii` under the `dms` strategy.
    pub baseline_ii: u32,
    /// Whether *both* scheduler requests of this cell (IMS and DMS) were
    /// answered from the service's content-addressed schedule cache. A cold
    /// sweep hits too, wherever an earlier cell sent the same body to the
    /// same machine: suite loops that differ only in trip count often
    /// unroll to the same body, because the unrolled trip count is the
    /// original divided by the factor. A warm re-run of the same sweep
    /// against a resident service flips every row to `true`.
    pub cache_hit: bool,
    /// Steady-state II of the clustered schedule measured by the
    /// contention-accurate replay (always `>= clustered_ii`;
    /// `== clustered_ii` exactly when the schedule's communication fits
    /// the interconnect's bandwidth). 0 when the sweep ran without
    /// `--contention` — idealised rows are unchanged.
    pub achieved_ii: u32,
}

impl LoopMeasurement {
    /// Whether partitioning increased the II relative to the unclustered
    /// ideal (the quantity plotted in figure 4).
    pub fn ii_increased(&self) -> bool {
        self.clustered_ii > self.unclustered_ii
    }

    /// Useful operation instances executed over the whole loop.
    pub fn useful_instances(&self) -> u64 {
        self.useful_ops as u64 * self.trip_count
    }
}

/// One aggregate row per cluster count of `clusters`: `row(c, rows)` over
/// the measurements of cluster count `c`, in sweep order. The figures
/// share this and [`percent`] / [`mean`], so every aggregate sums its rows
/// in the same order.
pub(crate) fn per_cluster<R>(
    measurements: &[LoopMeasurement],
    clusters: &[u32],
    mut row: impl FnMut(u32, &[&LoopMeasurement]) -> R,
) -> Vec<R> {
    clusters
        .iter()
        .map(|&c| {
            let of_c: Vec<&LoopMeasurement> =
                measurements.iter().filter(|m| m.clusters == c).collect();
            row(c, &of_c)
        })
        .collect()
}

/// The distinct cluster counts of `measurements`, ascending.
pub(crate) fn cluster_counts(measurements: &[LoopMeasurement]) -> Vec<u32> {
    let mut clusters: Vec<u32> = measurements.iter().map(|m| m.clusters).collect();
    clusters.sort_unstable();
    clusters.dedup();
    clusters
}

/// Percentage of `rows` satisfying `pred` (0 for no rows).
pub(crate) fn percent(rows: &[&LoopMeasurement], pred: impl Fn(&LoopMeasurement) -> bool) -> f64 {
    let count = rows.iter().filter(|m| pred(m)).count();
    if rows.is_empty() {
        0.0
    } else {
        100.0 * count as f64 / rows.len() as f64
    }
}

/// Mean of `value` over `rows`, summed in row order (0 for no rows).
pub(crate) fn mean(rows: &[&LoopMeasurement], value: impl Fn(&LoopMeasurement) -> f64) -> f64 {
    if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|m| value(m)).sum::<f64>() / rows.len() as f64
    }
}

/// Aggregate throughput of one sweep, reported by the `_with_stats` entry
/// points and printed by the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// (loop, cluster-count) tasks in the grid.
    pub tasks: usize,
    /// Tasks that produced a measurement.
    pub completed: usize,
    /// Tasks skipped because a scheduler failed (0 in a healthy run).
    pub failed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the sweep.
    pub wall_seconds: f64,
    /// Useful operation instances covered by the completed measurements.
    pub useful_instances: u64,
    /// Store values cross-checked against the scalar reference (0 unless the
    /// sweep ran in verify mode).
    pub stores_verified: u64,
    /// DMS pressure-relaxation retries summed over every completed task.
    pub pressure_retries: u64,
    /// Peak CQRF stream occupancy (`QueueFile` high-water mark) observed
    /// across every executed schedule (0 unless the sweep ran in verify
    /// mode).
    pub peak_queue_depth: u64,
    /// Scheduler requests this sweep answered from the service's schedule
    /// cache (on a cold service, only repeats within the sweep, see
    /// [`LoopMeasurement::cache_hit`]; `2 * tasks` when re-running a sweep
    /// the resident service has fully absorbed).
    pub cache_hits: u64,
    /// Scheduler requests this sweep had to compute cold.
    pub cache_misses: u64,
}

impl SweepStats {
    /// Grid tasks per wall-clock second.
    pub fn tasks_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.tasks as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Scheduler invocations per wall-clock second (every task runs both
    /// IMS and DMS).
    pub fn schedules_per_second(&self) -> f64 {
        2.0 * self.tasks_per_second()
    }
}

/// The clustered machine of one sweep cell.
fn clustered_machine(clusters: u32, config: &ExperimentConfig) -> MachineConfig {
    MachineConfig::paper_clustered_with(
        clusters,
        config.copy_units,
        config.cqrf_capacity,
        config.topology,
    )
}

/// Schedules one suite loop for one cluster count and returns the
/// measurement, or `None` if either scheduler failed (which indicates a bug;
/// callers treat it as fatal in tests and skip it in production sweeps).
///
/// This is the plain per-cell path: it unrolls the body itself. The sweep
/// executor goes through `measure_loop` instead, which reuses unrolled
/// bodies across cluster counts; a regression test pins both paths to
/// byte-identical CSV.
pub fn measure_one(
    suite_loop: &SuiteLoop,
    clusters: u32,
    config: &ExperimentConfig,
) -> Option<LoopMeasurement> {
    let machine = clustered_machine(clusters, config);
    let body = dms_workloads::unroll_for_machine(
        &suite_loop.body,
        machine.total_useful_fus(),
        &config.unroll,
    );
    measure_body(suite_loop, &body, clusters, config, &ScheduleService::default())
}

/// Measures one already-unrolled body on one cluster count. Both scheduler
/// runs (IMS on the unclustered machine, DMS on the clustered one) go
/// through the schedule service's one lookup path, and each row is made
/// from the two answers' records; in verify mode the service also executes
/// the schedule against the scalar reference and the digests come back in
/// the records — cached or cold, the same bits either way.
fn measure_body(
    suite_loop: &SuiteLoop,
    body: &dms_ir::Loop,
    clusters: u32,
    config: &ExperimentConfig,
    service: &ScheduleService,
) -> Option<LoopMeasurement> {
    let clustered_machine = clustered_machine(clusters, config);
    let unclustered_machine = MachineConfig::unclustered(clusters);
    let verify_trips =
        (config.verify || config.contention).then(|| body.trip_count.min(VERIFY_TRIP_CAP));

    // A schedule or verification failure is a compiler bug; the task is
    // dropped here and counted as failed by the sweep stats.
    let ims = service
        .answer(&ScheduleRequest {
            body,
            machine: &unclustered_machine,
            dms: DmsConfig::default(),
            scheduler: SchedulerKind::Ims,
            verify_trips,
            // The unclustered reference machine has no interconnect to
            // contend on; its replay would be a no-op.
            contention: false,
        })
        .ok()?;
    let dms = service
        .answer(&ScheduleRequest {
            body,
            machine: &clustered_machine,
            dms: config.dms,
            scheduler: SchedulerKind::Dms,
            verify_trips,
            contention: config.contention,
        })
        .ok()?;

    let (unclustered, clustered) = (&ims.record, &dms.record);
    let search = clustered.dms.expect("a DMS request yields the DMS search's scalars");
    let (verified_stores, max_queue_depth) = match (unclustered.verify, clustered.verify) {
        (Some(i), Some(d)) => {
            (i.stores_checked + d.stores_checked, i.max_queue_depth.max(d.max_queue_depth))
        }
        _ => (0, 0),
    };

    Some(LoopMeasurement {
        loop_id: suite_loop.id,
        set2: suite_loop.in_set2(),
        clusters,
        useful_ops: body.useful_ops(),
        trip_count: body.trip_count,
        unclustered_ii: unclustered.ii,
        clustered_ii: clustered.ii,
        unclustered_mii: unclustered.mii,
        clustered_mii: clustered.mii,
        unclustered_cycles: unclustered.cycles(body.trip_count),
        clustered_cycles: clustered.cycles(body.trip_count),
        copies: clustered.copies,
        moves: clustered.moves,
        strategy2: clustered.strategy2,
        strategy3: clustered.strategy3,
        verified_stores,
        pressure_retries: search.pressure_retries,
        first_ii: search.first_ii,
        max_queue_depth,
        topology: config.topology,
        strategy: config.dms.strategy,
        candidates: search.candidates_run,
        baseline_ii: search.baseline_ii,
        cache_hit: ims.cache_hit && dms.cache_hit,
        achieved_ii: clustered.verify.map_or(0, |v| v.achieved_ii),
    })
}

/// Generates the suite and measures every loop on every cluster count, in
/// parallel, against a fresh (cold) schedule service. Use
/// [`measure_loops_with_stats_on`] to sweep an already-generated suite
/// against a resident service whose cache outlives the sweep.
pub fn measure_suite_with_stats(config: &ExperimentConfig) -> (Vec<LoopMeasurement>, SweepStats) {
    measure_loops_with_stats_on(&generate(&config.suite), config, &ScheduleService::default())
}

/// Measures one suite loop at every configured cluster count, in
/// configuration order. The unrolled body is computed once per *distinct*
/// unroll factor (neighbouring cluster counts frequently share one).
fn measure_loop(
    suite_loop: &SuiteLoop,
    config: &ExperimentConfig,
    service: &ScheduleService,
) -> Vec<Option<LoopMeasurement>> {
    let mut bodies: Vec<(u32, dms_ir::Loop)> = Vec::new();
    config
        .cluster_counts
        .iter()
        .map(|&clusters| {
            let useful_fus = clustered_machine(clusters, config).total_useful_fus();
            let factor = config.unroll.factor(suite_loop.body.useful_ops(), useful_fus);
            let body = match bodies.iter().find(|(f, _)| *f == factor) {
                Some((_, body)) => body,
                None => {
                    let body = dms_workloads::unroll_for_machine(
                        &suite_loop.body,
                        useful_fus,
                        &config.unroll,
                    );
                    bodies.push((factor, body));
                    &bodies.last().expect("just pushed").1
                }
            };
            measure_body(suite_loop, body, clusters, config, service)
        })
        .collect()
}

/// The sweep executor, against a caller-owned [`ScheduleService`].
///
/// The work-stealing worker pool ([`dms_service::run_indexed`]) claims
/// batches of loop indices from a shared atomic cursor, so load imbalance
/// between small and large loop bodies evens out; each loop's measurements
/// — all its cluster counts, produced by `measure_loop` — land in the
/// loop's dedicated slot. Rows come back loop-major, cluster counts in
/// configuration order, bit-identical for any worker count.
///
/// Every scheduler invocation goes through `service`, so a sweep the
/// service has already absorbed is answered entirely from its cache: the
/// CSV is byte-identical (the `cache_hit` column aside) and the sweep skips
/// all scheduling and verification work. The per-sweep hit/miss delta is
/// reported in [`SweepStats`].
pub fn measure_loops_with_stats_on(
    suite: &[SuiteLoop],
    config: &ExperimentConfig,
    service: &ScheduleService,
) -> (Vec<LoopMeasurement>, SweepStats) {
    let per_loop = config.cluster_counts.len();
    let tasks = suite.len() * per_loop;
    let threads = resolve_threads(config.threads).min(suite.len().max(1));
    let before = service.cache_stats();
    let started = Instant::now();

    let results: Vec<LoopMeasurement> =
        run_indexed(suite.len(), threads, |index| measure_loop(&suite[index], config, service))
            .into_iter()
            .flatten()
            .flatten()
            .collect();

    let wall_seconds = started.elapsed().as_secs_f64();
    let after = service.cache_stats();
    let stats = SweepStats {
        tasks,
        completed: results.len(),
        failed: tasks - results.len(),
        threads,
        wall_seconds,
        useful_instances: results.iter().map(LoopMeasurement::useful_instances).sum(),
        stores_verified: results.iter().map(|m| m.verified_stores).sum(),
        pressure_retries: results.iter().map(|m| m.pressure_retries as u64).sum(),
        peak_queue_depth: results.iter().map(|m| m.max_queue_depth).max().unwrap_or(0),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_one_row_per_loop_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(12);
        cfg.cluster_counts = vec![1, 2, 4];
        let (rows, _) = measure_suite_with_stats(&cfg);
        assert_eq!(rows.len(), 12 * 3);
        for m in &rows {
            assert!(m.clustered_ii >= 1);
            assert!(m.unclustered_ii >= 1);
            assert!(
                m.clustered_ii >= m.unclustered_ii,
                "DMS can never beat the unclustered ideal II"
            );
        }
    }

    #[test]
    fn single_cluster_never_shows_overhead() {
        let mut cfg = ExperimentConfig::quick(16);
        cfg.cluster_counts = vec![1];
        let (rows, _) = measure_suite_with_stats(&cfg);
        assert!(rows.iter().all(|m| !m.ii_increased()), "1 cluster == the unclustered machine");
    }

    #[test]
    fn two_cluster_overhead_only_from_copies() {
        let mut cfg = ExperimentConfig::quick(24);
        cfg.cluster_counts = vec![2];
        let (rows, _) = measure_suite_with_stats(&cfg);
        for m in rows {
            assert_eq!(m.moves, 0, "2-cluster machines never need moves");
            if m.ii_increased() {
                assert!(m.copies > 0, "overhead without copies on loop {}", m.loop_id);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.cluster_counts = vec![2, 6];
        let (a, _) = measure_suite_with_stats(&cfg);
        let (b, _) = measure_suite_with_stats(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_results_or_order() {
        let mut serial = ExperimentConfig::quick(10);
        serial.cluster_counts = vec![4, 1, 8]; // deliberately unsorted
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = 5; // does not divide the grid evenly
        let (a, sa) = measure_suite_with_stats(&serial);
        let (b, sb) = measure_suite_with_stats(&parallel);
        assert_eq!(a, b, "parallel sweep must match the serial sweep exactly");
        assert_eq!(sa.tasks, 30);
        assert_eq!(sa.completed, 30);
        assert_eq!(sa.failed, 0);
        assert_eq!(sa.threads, 1);
        assert_eq!(sb.threads, 5);
        assert_eq!(sa.useful_instances, sb.useful_instances);
    }

    #[test]
    fn rows_come_back_loop_major_in_cluster_config_order() {
        let mut cfg = ExperimentConfig::quick(4);
        cfg.cluster_counts = vec![2, 1];
        let (rows, _) = measure_suite_with_stats(&cfg);
        let order: Vec<(usize, u32)> = rows.iter().map(|m| (m.loop_id, m.clusters)).collect();
        assert_eq!(order, vec![(0, 2), (0, 1), (1, 2), (1, 1), (2, 2), (2, 1), (3, 2), (3, 1)]);
    }

    #[test]
    fn stats_report_throughput() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = vec![2];
        let (_, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.tasks, 6);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.tasks_per_second() > 0.0);
        assert!((stats.schedules_per_second() - 2.0 * stats.tasks_per_second()).abs() < 1e-9);
    }

    #[test]
    fn verify_mode_executes_every_schedule_against_the_reference() {
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![1, 2, 4];
        cfg.verify = true;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.failed, 0, "every schedule must pass end-to-end verification");
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|m| m.verified_stores > 0));
        assert_eq!(stats.stores_verified, rows.iter().map(|m| m.verified_stores).sum::<u64>());
        // without verify the counters stay zero and results are unchanged
        let mut plain = cfg.clone();
        plain.verify = false;
        let (plain_rows, plain_stats) = measure_suite_with_stats(&plain);
        assert_eq!(plain_stats.stores_verified, 0);
        assert!(plain_rows.iter().all(|m| m.verified_stores == 0));
        assert_eq!(
            rows.iter().map(|m| (m.loop_id, m.clusters, m.clustered_ii)).collect::<Vec<_>>(),
            plain_rows.iter().map(|m| (m.loop_id, m.clusters, m.clustered_ii)).collect::<Vec<_>>(),
            "verification must not perturb the measurements"
        );
    }

    #[test]
    fn tight_cqrf_capacity_forces_pressure_retries_and_still_verifies() {
        // Shrinking the CQRFs below the paper's 32 registers makes several
        // quick-suite schedules overflow on their first structurally-valid
        // II; the pressure-relaxation loop must absorb every overflow (the
        // retried schedules still pass end-to-end verification) and the
        // retry counts must surface in the rows and the aggregate stats.
        let mut cfg = ExperimentConfig::quick(24);
        cfg.cluster_counts = vec![4, 8];
        cfg.cqrf_capacity = Some(8);
        cfg.verify = true;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.failed, 0, "every capacity overflow must be absorbed by an II retry");
        assert!(stats.pressure_retries > 0, "a 8-register CQRF must force retries");
        assert_eq!(
            stats.pressure_retries,
            rows.iter().map(|m| m.pressure_retries as u64).sum::<u64>()
        );
        assert!(
            stats.peak_queue_depth > 0 && stats.peak_queue_depth <= 8,
            "executed queue occupancy must respect the shrunken capacity, got {}",
            stats.peak_queue_depth
        );
        for m in &rows {
            if m.pressure_retries > 0 {
                // Every retry rejected a structurally-valid schedule, so the
                // accepted II sits strictly above the first one found.
                assert!(
                    m.clustered_ii > m.first_ii,
                    "a retried schedule runs at a relaxed II (first {} vs final {})",
                    m.first_ii,
                    m.clustered_ii
                );
            } else {
                assert_eq!(m.first_ii, m.clustered_ii, "no retry, no relaxation");
            }
        }
    }

    #[test]
    fn cached_sweep_matches_the_per_cell_path_byte_for_byte() {
        // The executor reuses unrolled bodies across cluster counts; the
        // CSV must match the uncached per-cell measurement byte for byte.
        let mut cfg = ExperimentConfig::quick(16);
        cfg.cluster_counts = vec![1, 2, 4, 8, 10];
        let suite = generate(&cfg.suite);
        let (swept, stats) = measure_loops_with_stats_on(&suite, &cfg, &ScheduleService::default());
        assert_eq!(stats.failed, 0);
        let reference: Vec<LoopMeasurement> = suite
            .iter()
            .flat_map(|sl| cfg.cluster_counts.iter().filter_map(|&c| measure_one(sl, c, &cfg)))
            .collect();
        assert_eq!(
            crate::report::measurements_csv(&swept),
            crate::report::measurements_csv(&reference),
            "body caching must not change any measurement"
        );
    }

    #[test]
    fn pressure_steered_chains_do_not_increase_ii_retries() {
        // Chain planning scores strategy-2 candidates by the congestion of
        // the queue files their moves traverse — but only on II attempts
        // that follow a capacity rejection, so retry counts can only move
        // down. Pinned against the pre-steering scheduler on this exact
        // grid (6 retries); the full nightly grid's 11 are gated the same
        // way in nightly.yml.
        let mut cfg = ExperimentConfig::quick(24);
        cfg.cluster_counts = vec![4, 8];
        cfg.cqrf_capacity = Some(8);
        let (_, stats) = measure_suite_with_stats(&cfg);
        assert!(stats.pressure_retries > 0, "the tight grid must exercise the retry path");
        assert!(
            stats.pressure_retries <= 6,
            "chain steering must not increase II retries (pinned pre-steering count 6, got {})",
            stats.pressure_retries
        );
    }

    #[test]
    fn empty_grid_is_handled() {
        let mut cfg = ExperimentConfig::quick(0);
        cfg.cluster_counts = vec![1, 2];
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert!(rows.is_empty());
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.tasks_per_second(), 0.0);
    }

    #[test]
    fn oversubscribed_thread_request_is_clamped_to_the_grid() {
        let mut cfg = ExperimentConfig::quick(2);
        cfg.cluster_counts = vec![3];
        cfg.threads = 64;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.threads, 2, "no point spawning more workers than tasks");
    }
}
