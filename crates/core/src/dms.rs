//! The DMS driver: II search, the three placement strategies, the
//! register-pressure relaxation loop, and the strategy dispatch (plain DMS,
//! beam search, explore/exploit portfolio).

use crate::chains::{self, ChainPolicy};
use crate::state::{FlowNeighbours, SchedulerState};
use dms_ir::transform::convert_to_single_use;
use dms_ir::{Ddg, Fnv, Loop, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig, PathCache};
use dms_sched::ims::default_max_ii;
use dms_sched::mii::{mii, MiiBreakdown};
use dms_sched::pressure::QueuePressure;
use dms_sched::priority::SweepOrder;
use dms_sched::schedule::{admit_mrt, SchedStats, Schedule, ScheduleError, ScheduleResult};
use dms_sched::strategy::SchedulerStrategy;
use dms_telemetry::{EventKind, Telemetry};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Tuning parameters of the DMS search.
///
/// # Examples
///
/// The default configuration runs the paper's deterministic heuristic; a
/// [`SchedulerStrategy`] widens the search without ever losing to it:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig, SchedulerStrategy};
/// use dms_ir::kernels;
/// use dms_machine::MachineConfig;
///
/// let machine = MachineConfig::paper_clustered(4);
/// let config = DmsConfig {
///     strategy: SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
///     ..DmsConfig::default()
/// };
/// let out = dms_schedule(&kernels::fir(8, 256), &machine, &config).unwrap();
/// // The portfolio embeds the deterministic heuristic as candidate 0 and
/// // only ever replaces it with a Pareto improvement.
/// assert!(out.ii() <= out.baseline_ii);
/// assert!(out.ii() >= out.stats.mii.unwrap().mii());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DmsConfig {
    /// How chains pick between the two ring directions.
    pub chain_policy: ChainPolicy,
    /// An II a closely related configuration (e.g. the neighbouring cluster
    /// count of a sweep) is known to achieve. The search itself is
    /// untouched — it still scans every II ascending from the MII, so
    /// results are seed-independent by construction — but the derived
    /// search *ceiling* ([`default_max_ii`]) is raised to at least the
    /// seed, protecting edge-case loops whose default ceiling would sit
    /// below an II a neighbouring configuration proved reachable.
    pub ii_seed: Option<u32>,
    /// Which search drives scheduling: the deterministic heuristic (the
    /// default), a beam over strategy-1 placements, or an explore/exploit
    /// portfolio of jittered-priority candidates. The non-default searches
    /// schedule the plain heuristic first and only keep a challenger that
    /// Pareto-dominates it on (II, queue pressure, code size).
    pub strategy: SchedulerStrategy,
}

impl Default for DmsConfig {
    fn default() -> Self {
        DmsConfig {
            chain_policy: ChainPolicy::MaxFreeSlots,
            ii_seed: None,
            strategy: SchedulerStrategy::Dms,
        }
    }
}

/// The result of a DMS run: the schedule plus the provenance of the
/// pressure-relaxation loop that produced it.
///
/// Dereferences to the inner [`ScheduleResult`], so existing consumers
/// (`validate_schedule`, `dms_regalloc::allocate`, `dms::verify_schedule`,
/// `.ii()`, `.stats`, …) keep working unchanged on the outcome.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The accepted schedule (including the transformed DDG and statistics).
    pub result: ScheduleResult,
    /// II of the first structurally-valid schedule the search found. Equal
    /// to `self.ii()` unless the pressure-relaxation loop rejected that
    /// schedule for exceeding a queue-file capacity.
    pub first_ii: u32,
    /// Structurally-valid schedules rejected because a queue file exceeded
    /// its capacity, each answered by a retry at the next II.
    pub pressure_retries: u32,
    /// Final incremental pressure estimate of the accepted schedule; equals
    /// the register allocator's per-queue requirements.
    pub pressure: QueuePressure,
    /// II the plain deterministic heuristic achieves on this loop. Equal to
    /// `self.ii()` under [`SchedulerStrategy::Dms`]; under beam/portfolio it
    /// is the reference point the winning candidate Pareto-dominates. When
    /// the plain heuristic fails outright and a randomized candidate rescues
    /// the loop, this is the rescuer's own II.
    pub baseline_ii: u32,
    /// Challenger searches attempted beyond the deterministic baseline
    /// (0 under [`SchedulerStrategy::Dms`], 1 for beam, `n_candidates - 1`
    /// for a portfolio).
    pub candidates_run: u32,
    /// Index of the candidate whose schedule was kept: 0 is the
    /// deterministic baseline, `i >= 1` the i-th challenger.
    pub winner_candidate: u32,
}

impl std::ops::Deref for ScheduleOutcome {
    type Target = ScheduleResult;

    fn deref(&self) -> &ScheduleResult {
        &self.result
    }
}

impl std::ops::DerefMut for ScheduleOutcome {
    fn deref_mut(&mut self) -> &mut ScheduleResult {
        &mut self.result
    }
}

/// Schedules a loop with DMS on the given (usually clustered) machine.
///
/// The II search accepts the first structurally-valid schedule whose queue
/// register pressure also fits the machine's LRF/CQRF capacities; a schedule
/// that satisfies every dependence, resource and communication constraint
/// but would fail register allocation is rejected and the search retries at
/// II + 1 (counted in [`ScheduleOutcome::pressure_retries`]).
///
/// The single-use conversion runs only on clustered machines: it exists
/// because a CQRF value can be read once, and a single-cluster machine has
/// no CQRFs.
///
/// Under [`SchedulerStrategy::Beam`] or [`SchedulerStrategy::Portfolio`] the
/// deterministic heuristic runs first as the incumbent; challengers search
/// only up to the incumbent's II and replace it only on a strict Pareto
/// improvement over (II, total queue pressure, code size), so the returned
/// schedule is never worse than the plain heuristic's. If the plain
/// heuristic fails entirely, challengers search the full II range and the
/// first success becomes the incumbent.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the machine lacks a
/// required functional-unit class, the recurrence and reservation-table
/// errors [`dms_sched::ims_schedule`] returns, and
/// [`ScheduleError::IiLimitReached`] if no schedule both fitting the queue
/// files and satisfying the structural constraints is found up to the II
/// limit.
///
/// # Panics
///
/// Panics if [`DmsConfig::strategy`] fails
/// [`SchedulerStrategy::validate`] (a zero beam width or candidate count, or
/// an exploit percentage above 100) — a programming error, since every CLI
/// entry point validates at parse time.
pub fn dms_schedule(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    if let Err(msg) = config.strategy.validate() {
        panic!("invalid scheduler strategy: {msg}");
    }
    let prep = prepare(l, machine, config)?;
    let plain = run_search(l, machine, config, &prep, None, SearchMode { width: 1, jitter: None });
    let baseline_ii = plain.as_ref().ok().map(|o| o.ii());
    let (outcome, candidates_run, winner) = match config.strategy {
        SchedulerStrategy::Dms => (plain, 0, 0),
        SchedulerStrategy::Beam { width } => {
            let (outcome, winner) = run_challengers(plain, 1, |_, cap| {
                run_search(l, machine, config, &prep, cap, SearchMode { width, jitter: None })
            });
            (outcome, 1, winner)
        }
        SchedulerStrategy::Portfolio { n_candidates, exploit_percent } => {
            let challengers = n_candidates.saturating_sub(1);
            let (outcome, winner) = run_challengers(plain, challengers, |i, cap| {
                let mut rng = StdRng::seed_from_u64(candidate_seed(&l.name, i));
                let explore = !rng.gen_bool(f64::from(exploit_percent) / 100.0);
                let mode = SearchMode { width: 1, jitter: Some((rng, explore)) };
                run_search(l, machine, config, &prep, cap, mode)
            });
            (outcome, challengers, winner)
        }
    };
    let mut outcome = outcome?;
    outcome.baseline_ii = baseline_ii.unwrap_or_else(|| outcome.ii());
    outcome.candidates_run = candidates_run;
    outcome.winner_candidate = winner;
    Ok(outcome)
}

/// Scheduling budget per candidate II, as a multiple of the number of
/// operations.
const BUDGET_RATIO: u64 = 32;

/// The strategy-independent preprocessing of a loop: single-use conversion,
/// MII bounds and the per-II scheduling budget. Shared by every candidate of
/// a portfolio so the (deterministic) transforms run once per loop.
struct Prepared {
    ddg: Ddg,
    copies: u64,
    bounds: MiiBreakdown,
    start_ii: u32,
    max_ii: u32,
    budget: u64,
    /// The machine's chain paths, shared by every attempt.
    paths: Rc<PathCache>,
    /// The order the heights are relaxed in, shared by every attempt.
    order: SweepOrder,
}

fn prepare(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
) -> Result<Prepared, ScheduleError> {
    let mut ddg = l.ddg.clone();
    let copies = if machine.is_clustered() {
        convert_to_single_use(&mut ddg, machine.latency()) as u64
    } else {
        0
    };
    let bounds = mii(&ddg, machine)?;
    let start_ii = bounds.mii();
    let max_ii = default_max_ii(&ddg, machine, start_ii).max(config.ii_seed.unwrap_or(0));
    let budget = BUDGET_RATIO * ddg.num_live_ops().max(1) as u64;
    let paths = Rc::new(PathCache::new(machine.topology()));
    let order = SweepOrder::of_body(&ddg);
    Ok(Prepared { ddg, copies, bounds, start_ii, max_ii, budget, paths, order })
}

/// How a single candidate attempts each II of the search.
struct SearchMode {
    /// Partial placements kept per scheduling step: 1 for the paper's
    /// heuristic and the portfolio challengers, `W` for `beam:W`.
    width: u32,
    /// The jitter of a portfolio challenger: its RNG, which persists across
    /// the candidate's II attempts so each draws a fresh perturbation, and
    /// whether it explores.
    jitter: Option<(StdRng, bool)>,
}

/// The II search with the pressure-relaxation loop, for one candidate.
/// `ii_cap` (the incumbent's II, for challengers) tightens the search
/// ceiling: a challenger at a higher II can never Pareto-dominate.
fn run_search(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
    prep: &Prepared,
    ii_cap: Option<u32>,
    mut mode: SearchMode,
) -> Result<ScheduleOutcome, ScheduleError> {
    let max_ii = ii_cap.map_or(prep.max_ii, |cap| prep.max_ii.min(cap));
    let telemetry = Telemetry::current();
    let mut attempts = 0;
    let mut first_ii = None;
    let mut pressure_retries = 0u32;
    for ii in prep.start_ii..=max_ii {
        admit_mrt(machine, ii)?;
        attempts += 1;
        telemetry.event(EventKind::IiAttemptStarted);
        // Chains are steered away from congested queue files only once a
        // capacity rejection has proven that congestion binds for this
        // loop; until then every attempt follows the paper's criterion
        // exactly.
        let steer_chains = pressure_retries > 0;
        let attempt = try_attempt(prep, machine, ii, config, steer_chains, &mut mode);
        let Some((out_ddg, schedule, mut stats, pressure)) = attempt else {
            telemetry.event(EventKind::IiAttemptFailed);
            continue;
        };
        let first_ii = *first_ii.get_or_insert(ii);
        // Pressure relaxation: a structurally-valid schedule that overflows
        // a queue file would fail register allocation — reject it here and
        // retry one II higher, where every lifetime needs fewer in-flight
        // instances.
        if pressure.capacity_excess(machine).is_some() {
            pressure_retries += 1;
            telemetry.event(EventKind::PressureRetry);
            continue;
        }
        stats.mii = Some(prep.bounds);
        stats.copies_inserted = prep.copies;
        stats.ii_attempts = attempts;
        return Ok(ScheduleOutcome {
            result: ScheduleResult { loop_name: l.name.clone(), ddg: out_ddg, schedule, stats },
            first_ii,
            pressure_retries,
            pressure,
            baseline_ii: ii,
            candidates_run: 0,
            winner_candidate: 0,
        });
    }
    if pressure_retries > 0 {
        // Capacity rejections contributed to exhausting the II range —
        // surface them so undersized queue files (e.g. an aggressive
        // --cqrf-capacity) are diagnosable from the error alone.
        return Err(ScheduleError::PressureLimitReached {
            limit: max_ii,
            retries: pressure_retries,
        });
    }
    Err(ScheduleError::IiLimitReached { limit: max_ii })
}

/// Runs `challengers` searches against an incumbent, keeping a challenger
/// only when it strictly Pareto-dominates the incumbent on
/// (II, pressure, code size) — or when there is no incumbent to beat.
/// Returns the final outcome and the index of the winning candidate
/// (0 = the deterministic baseline).
fn run_challengers(
    mut incumbent: Result<ScheduleOutcome, ScheduleError>,
    challengers: u32,
    mut run: impl FnMut(u32, Option<u32>) -> Result<ScheduleOutcome, ScheduleError>,
) -> (Result<ScheduleOutcome, ScheduleError>, u32) {
    let telemetry = Telemetry::current();
    let mut winner = 0u32;
    for i in 1..=challengers {
        let cap = incumbent.as_ref().ok().map(|o| o.ii());
        let Ok(challenger) = run(i, cap) else {
            continue;
        };
        let replaces = match &incumbent {
            Ok(best) => pareto_beats(&challenger, best),
            Err(_) => true,
        };
        if replaces {
            incumbent = Ok(challenger);
            winner = i;
            telemetry.event(EventKind::CandidateWon);
        }
    }
    (incumbent, winner)
}

/// The minimization objectives of the portfolio/beam selection: II first in
/// spirit, but compared as a Pareto triple, never lexicographically.
fn score(o: &ScheduleOutcome) -> (u32, u32, u64) {
    (o.ii(), o.pressure.total(), code_size_words(&o.schedule))
}

/// Emitted VLIW words of the schedule, independent of the trip count:
/// prologue and epilogue of `stage_count - 1` stages each, plus the kernel,
/// each `ii` words long.
fn code_size_words(s: &Schedule) -> u64 {
    (2 * (u64::from(s.stage_count()) - 1) + 1) * u64::from(s.ii())
}

/// Strict Pareto dominance: no objective worse, at least one strictly
/// better. Ties keep the incumbent, so equal-quality challengers never
/// displace the deterministic baseline.
fn pareto_beats(challenger: &ScheduleOutcome, incumbent: &ScheduleOutcome) -> bool {
    let (a, b) = (score(challenger), score(incumbent));
    a != b && a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2
}

/// The jitter seed of portfolio candidate `candidate` on the named loop:
/// FNV-1a over the loop name, mixed with the candidate index. A pure
/// function of (loop, candidate), so sweeps are byte-reproducible for any
/// worker count and work-stealing order.
fn candidate_seed(loop_name: &str, candidate: u32) -> u64 {
    let mut h = Fnv::new();
    h.bytes(loop_name.as_bytes());
    h.finish() ^ u64::from(candidate).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Draws one priority perturbation per DDG slot. Exploit candidates only
/// break near-ties (jitter in {0, 1}); explore candidates may reorder whole
/// height bands (jitter up to a quarter of the height span).
fn draw_jitter(rng: &mut StdRng, heights: &[i64], explore: bool) -> Vec<i64> {
    let span = heights.iter().copied().max().unwrap_or(0).max(0);
    let bound = if explore { (span / 4).max(2) } else { 1 };
    heights.iter().map(|_| rng.gen_range(0..=bound)).collect()
}

/// One II attempt: a beam that keeps the best `mode.width` partial
/// placements per scheduling step. Width 1 is the paper's heuristic, since
/// its one branch always takes the slot plain strategy 1 picks. Branching
/// happens only where the heuristic has slack, the (time, cluster)
/// alternatives of strategy 1; chain building and forced placement stay
/// single-choice. Returns `None` when the budget pool is exhausted before
/// any branch completes.
fn try_attempt(
    prep: &Prepared,
    machine: &MachineConfig,
    ii: u32,
    config: &DmsConfig,
    steer_chains: bool,
    mode: &mut SearchMode,
) -> Option<(Ddg, Schedule, SchedStats, QueuePressure)> {
    let width = mode.width as usize;
    let mut seed = SchedulerState::with_paths(
        prep.ddg.clone(),
        machine,
        ii,
        Rc::clone(&prep.paths),
        &prep.order,
    );
    seed.chain_steering = steer_chains;
    if let Some((rng, explore)) = &mut mode.jitter {
        let jitter = draw_jitter(rng, &seed.height, *explore);
        seed.set_jitter(jitter);
    }
    // Boxed, so a step moves pointers rather than whole states.
    let mut beam = vec![Box::new(seed)];
    let mut next = Vec::with_capacity(width);
    // One pool for the whole beam, `width` single-search budgets deep: a
    // wide beam explores more but never does unbounded extra work.
    let mut remaining = prep.budget.saturating_mul(width as u64);
    let mut pending = Pending::empty();
    let mut options = Vec::with_capacity(width);

    while !beam.iter().all(|st| st.complete()) {
        if remaining == 0 {
            // Out of budget: settle for the branches that did finish.
            beam.retain(|st| st.complete());
            break;
        }
        for mut st in beam.drain(..) {
            let Some(op) = st.pop_highest_priority() else {
                // Already complete: carried along as a finished candidate.
                next.push(st);
                continue;
            };
            if remaining == 0 {
                continue;
            }
            remaining -= 1;
            st.stats.budget_used += 1;
            pending.fill(&st, op);
            strategy1_options(&st, &pending, width, &mut options);
            if let Some((&(time, cluster), rest)) = options.split_first() {
                for &(t, c) in rest {
                    let mut branch = st.clone();
                    branch.place(op, t, c);
                    branch.displace_conflicts(op, t, c);
                    next.push(branch);
                }
                st.place(op, time, cluster);
                st.displace_conflicts(op, time, cluster);
            } else if place_strategy2(&mut st, op, config.chain_policy) {
                st.stats.strategy2_placements += 1;
            } else {
                place_strategy3(&mut st, &pending);
                st.stats.strategy3_placements += 1;
            }
            next.push(st);
        }
        // Prune to the `width` most promising branches: progress first
        // (fewest unscheduled ops), then schedule span (the II-slack proxy
        // at this fixed II), then queue pressure, then churn. The sort is
        // stable, so equal branches keep their deterministic insertion
        // order.
        next.sort_by_cached_key(|st| {
            (st.num_unscheduled(), st.schedule.max_time(), st.pressure.total(), st.stats.evictions)
        });
        next.truncate(width);
        std::mem::swap(&mut beam, &mut next);
    }

    beam.into_iter()
        .min_by_key(|st| (st.pressure.total(), st.schedule.max_time()))
        .map(|st| st.into_parts())
}

/// What the placement strategies need to know about the operation being
/// placed, gathered once per pop. Strategy 2 only runs when strategy 1
/// changed nothing, and strategy 3 only when strategy 2 changed nothing,
/// so the facts hold for all three.
struct Pending {
    op: OpId,
    fu: FuKind,
    neighbours: FlowNeighbours,
    /// The clusters with no communication conflict towards the scheduled
    /// flow neighbours, in id order.
    compatible: Vec<ClusterId>,
    /// The scheduling window `(min_time, max_time)`.
    window: (u32, u32),
}

impl Pending {
    /// Buffers to [`fill`](Pending::fill) before first use.
    fn empty() -> Self {
        Pending {
            op: OpId(0),
            fu: FuKind::Copy,
            neighbours: FlowNeighbours::default(),
            compatible: Vec::new(),
            window: (0, 0),
        }
    }

    /// Gathers the facts for `op`, reusing this value's buffers.
    fn fill(&mut self, st: &SchedulerState, op: OpId) {
        self.op = op;
        self.fu = FuKind::for_op(st.ddg.op(op).kind);
        st.fill_flow_neighbours(op, &mut self.neighbours);
        self.compatible.clear();
        self.compatible.extend(st.compatible_clusters(&self.neighbours));
        self.window = st.window(op);
    }

    /// How much the operation prefers `cluster` (smaller is better):
    /// clusters already hosting scheduled flow neighbours first (the value
    /// stays in the LRF and the partition stays compact), then the least
    /// loaded cluster for the operation's unit class. Remaining ties go to
    /// the cluster whose queue files towards the scheduled neighbours hold
    /// the fewest live values, steering traffic away from saturated
    /// CQRFs/LRFs. The id makes the order total.
    fn preference(
        &self,
        st: &SchedulerState,
        cluster: ClusterId,
    ) -> (std::cmp::Reverse<usize>, std::cmp::Reverse<u32>, u64, ClusterId) {
        let hosted = self.neighbours.clusters().filter(|&n| n == cluster).count();
        (
            std::cmp::Reverse(hosted),
            std::cmp::Reverse(st.mrt.free_slots(cluster, self.fu)),
            st.cluster_pressure_cost(&self.neighbours, cluster),
            cluster,
        )
    }
}

/// Strategy 1: the free slots of clusters directly connected to every
/// scheduled flow neighbour, at most `width` of them and one per cluster,
/// written to `options`. The window's times are walked in ascending order
/// and the clusters free at each time taken by [`Pending::preference`], so
/// `options[0]` is the earliest free slot in the most preferred cluster
/// free then. Empty if no such cluster exists or if every such cluster is
/// out of free units across the whole window (the resource-blocked case,
/// handled by chains or forced placement).
fn strategy1_options(
    st: &SchedulerState,
    pending: &Pending,
    width: usize,
    options: &mut Vec<(u32, ClusterId)>,
) {
    options.clear();
    let fu = pending.fu;
    // The window spans II consecutive times, i.e. every MRT row once, so a
    // cluster has a free unit in it exactly when its column has free slots.
    let open = pending.compatible.iter().filter(|&&c| st.mrt.free_slots(c, fu) > 0);
    let wanted = open.take(width).count();
    let (min_time, max_time) = pending.window;
    for t in min_time..=max_time {
        while options.len() < wanted {
            let taken = |c: ClusterId| options.iter().any(|&(_, o)| o == c);
            let free =
                pending.compatible.iter().filter(|&&c| st.mrt.has_free(t, c, fu) && !taken(c));
            let Some(&c) = free.min_by_key(|&&c| pending.preference(st, c)) else {
                break;
            };
            options.push((t, c));
        }
        if options.len() == wanted {
            return;
        }
    }
}

/// Strategy 2: build chains of moves towards the too-distant predecessors
/// and place `op` in the chosen cluster (which must still have a free slot
/// for it). Returns `false` if no viable chain combination exists. This
/// strategy handles both the communication-conflict case (no directly
/// connected cluster exists at all) and the resource-blocked case (the
/// directly connected clusters have no free unit, but a farther cluster
/// reachable through moves does).
fn place_strategy2(st: &mut SchedulerState, op: OpId, policy: ChainPolicy) -> bool {
    let Some(option) = chains::best_option(st, op, policy) else {
        return false;
    };
    for plan in &option.chains {
        st.commit_chain(plan.edge, &plan.moves);
    }
    // The chains were only built if their Copy slots were free; the operation
    // itself may still have to evict a resource conflict (paper, figure 2,
    // strategy 2: "If necessary, unschedule other ops due to ... Resource
    // conflicts"). The window is taken after the commit: the chain's last
    // move is now a predecessor.
    force_place(st, op, option.cluster);
    true
}

/// Strategy 3: forced IMS-style placement with backtracking. The cluster is
/// "arbitrarily chosen" (paper's wording); this implementation prefers a
/// communication-compatible cluster, then the cluster of the most critical
/// scheduled predecessor, then the least loaded cluster. Eviction here also
/// covers communication conflicts, and evicting any part of a chain
/// dismantles the whole chain.
fn place_strategy3(st: &mut SchedulerState, pending: &Pending) {
    let cluster = strategy3_cluster(st, pending);
    force_place(st, pending.op, cluster);
}

/// IMS's forced placement of `op` in `cluster`, which strategies 2 and 3
/// end in: the first free slot of the scheduling window, or else the
/// window's start after evicting occupants until a unit is free, then
/// displacement of every operation the placement now conflicts with.
fn force_place(st: &mut SchedulerState, op: OpId, cluster: ClusterId) {
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    let window = st.window(op);
    let time = st.mrt.first_free(window, cluster, fu).unwrap_or(window.0);
    st.make_room(op, time, cluster);
    st.place(op, time, cluster);
    st.displace_conflicts(op, time, cluster);
}

/// The cluster used by strategy 3.
fn strategy3_cluster(st: &SchedulerState, pending: &Pending) -> ClusterId {
    if let Some(&c) = pending.compatible.iter().min_by_key(|&&c| pending.preference(st, c)) {
        return c;
    }
    let op = pending.op;
    let best_pred = st
        .ddg
        .flow_preds(op)
        .filter(|(_, e)| e.src != op)
        .filter_map(|(_, e)| st.schedule.get(e.src).map(|p| (st.height[e.src.index()], p.cluster)))
        .max_by_key(|&(h, c)| (h, std::cmp::Reverse(c)));
    if let Some((_, cluster)) = best_pred {
        return cluster;
    }
    st.topology()
        .iter()
        .max_by_key(|&c| {
            let pressure = st.cluster_pressure_cost(&pending.neighbours, c);
            (st.mrt.free_slots(c, pending.fu), std::cmp::Reverse(pressure), std::cmp::Reverse(c))
        })
        .unwrap_or(ClusterId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{kernels, transform};
    use dms_sched::ims::{ims_schedule, ImsConfig};
    use dms_sched::validate::validate_schedule;

    fn check(l: &dms_ir::Loop, machine: &MachineConfig, config: &DmsConfig) -> ScheduleOutcome {
        let r = dms_schedule(l, machine, config)
            .unwrap_or_else(|e| panic!("{} failed to schedule: {e}", l.name));
        let violations = validate_schedule(&r.ddg, machine, &r.schedule);
        assert!(violations.is_empty(), "{}: schedule has violations: {:?}", l.name, violations);
        assert!(r.ddg.validate().is_ok(), "{}: DDG corrupted by scheduling", l.name);
        r
    }

    #[test]
    fn candidate_seeds_are_pinned() {
        // Every portfolio candidate's jitter stream starts here, so a changed
        // seed would silently reorder every portfolio schedule.
        assert_eq!(candidate_seed("fir8", 0), 0xaa77_d078_efdf_85da);
        assert_eq!(candidate_seed("fir8", 1), 0x3440_a9c1_9095_f9cf);
        assert_eq!(candidate_seed("fir8", 7), 0xf9f3_846a_94d6_e149);
        assert_eq!(candidate_seed("suite-0017", 3), 0x554c_adda_844d_1a79);
        assert_eq!(candidate_seed("", 0), 0xcbf2_9ce4_8422_2325);
        assert_eq!(candidate_seed("dot", 5), 0xddba_4887_8800_34c9);
    }

    #[test]
    fn schedules_every_kernel_on_every_cluster_count() {
        for l in kernels::all(64) {
            for clusters in [1, 2, 3, 4, 6, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                let mii = r.stats.mii.unwrap().mii();
                assert!(r.ii() >= mii, "{}: II {} below MII {}", l.name, r.ii(), mii);
            }
        }
    }

    #[test]
    fn single_cluster_dms_matches_ims() {
        // On one cluster DMS degenerates to IMS (no copies, no chains).
        for l in kernels::all(64) {
            let m = MachineConfig::paper_clustered(1);
            let d = check(&l, &m, &DmsConfig::default());
            let i = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
            assert_eq!(d.ii(), i.ii(), "{}: DMS and IMS must agree on 1 cluster", l.name);
            assert_eq!(d.stats.copies_inserted, 0);
            assert_eq!(d.stats.moves_inserted, 0);
        }
    }

    #[test]
    fn two_and_three_cluster_machines_never_need_moves() {
        // Every pair of clusters is directly connected, so no communication
        // conflict can arise and strategy 2/3 should never fire.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                assert_eq!(r.stats.moves_inserted, 0, "{}: unexpected moves", l.name);
                assert_eq!(r.stats.strategy2_placements, 0);
            }
        }
    }

    #[test]
    fn useful_ops_preserved_by_scheduling() {
        let l = kernels::fir(8, 256);
        let m = MachineConfig::paper_clustered(4);
        let r = check(&l, &m, &DmsConfig::default());
        assert_eq!(r.useful_ops(), l.useful_ops());
    }

    #[test]
    fn wide_unrolled_loop_spreads_across_clusters() {
        let l = transform::unroll(&kernels::daxpy(1024), 8);
        let m = MachineConfig::paper_clustered(8);
        let r = check(&l, &m, &DmsConfig::default());
        let used: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        assert!(
            used.len() >= 4,
            "a 40-op loop should use several of the 8 clusters, used {}",
            used.len()
        );
    }

    #[test]
    fn chains_appear_on_wide_machines_with_spread_producers() {
        // A reduction over many loads forces values to cross the ring: on an
        // 8-cluster machine at least one of these loops needs moves or the
        // strategy-3 fallback.
        let mut any_conflict_resolution = false;
        for l in [kernels::fir(16, 256), transform::unroll(&kernels::dot_product(1024), 8)] {
            let m = MachineConfig::paper_clustered(8);
            let r = check(&l, &m, &DmsConfig::default());
            if r.stats.moves_inserted > 0 || r.stats.strategy3_placements > 0 {
                any_conflict_resolution = true;
            }
        }
        assert!(
            any_conflict_resolution,
            "expected at least one loop to exercise strategy 2 or 3 on 8 clusters"
        );
    }

    #[test]
    fn clustered_ii_never_beats_the_unclustered_ideal() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let clustered = MachineConfig::paper_clustered(clusters);
                let unclustered = MachineConfig::unclustered(clusters);
                let d = check(&l, &clustered, &DmsConfig::default());
                let i = ims_schedule(&l, &unclustered, &ImsConfig::default()).unwrap();
                assert!(
                    d.ii() >= i.ii(),
                    "{} on {} clusters: DMS II {} < IMS II {}",
                    l.name,
                    clusters,
                    d.ii(),
                    i.ii()
                );
            }
        }
    }

    #[test]
    fn overhead_on_few_clusters_comes_only_from_copies() {
        // For 2-3 clusters any II increase over the unclustered machine must
        // be attributable to copy pressure, not to moves.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let d = check(&l, &MachineConfig::paper_clustered(clusters), &DmsConfig::default());
                let i =
                    ims_schedule(&l, &MachineConfig::unclustered(clusters), &ImsConfig::default())
                        .unwrap();
                if d.ii() > i.ii() {
                    assert!(d.stats.copies_inserted > 0, "{}: overhead without copies", l.name);
                }
                assert_eq!(d.stats.moves_inserted, 0);
            }
        }
    }

    #[test]
    fn shortest_path_policy_also_produces_valid_schedules() {
        let cfg = DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..DmsConfig::default() };
        for l in [kernels::fir(16, 256), kernels::complex_multiply(256)] {
            let m = MachineConfig::paper_clustered(8);
            check(&l, &m, &cfg);
        }
    }

    #[test]
    fn extra_copy_units_never_hurt() {
        let l = kernels::fir(12, 256);
        let one = check(&l, &MachineConfig::paper_clustered(6), &DmsConfig::default());
        let two = check(
            &l,
            &MachineConfig::paper_clustered_with(6, 2, None, dms_machine::TopologyKind::Ring),
            &DmsConfig::default(),
        );
        assert!(two.ii() <= one.ii());
    }

    #[test]
    fn unschedulable_machine_is_reported() {
        let l = kernels::daxpy(8);
        let m = MachineConfig::homogeneous(
            2,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        assert!(matches!(
            dms_schedule(&l, &m, &DmsConfig::default()),
            Err(ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, .. })
        ));
    }

    #[test]
    fn exhausting_the_search_on_capacity_rejections_is_reported_distinctly() {
        // Zero-capacity queue files: every structurally-valid schedule is
        // rejected by the pressure check, so the search must exhaust the II
        // range with a PressureLimitReached (carrying the rejection count),
        // not a bare IiLimitReached.
        let l = kernels::daxpy(16);
        let mut m = MachineConfig::paper_clustered(2);
        m.lrf_capacity = 0;
        m.cqrf_capacity = 0;
        let mut ddg = l.ddg.clone();
        transform::convert_to_single_use(&mut ddg, m.latency());
        let ceiling = default_max_ii(&ddg, &m, mii(&ddg, &m).unwrap().mii());
        match dms_schedule(&l, &m, &DmsConfig::default()) {
            Err(ScheduleError::PressureLimitReached { limit, retries }) => {
                assert_eq!(limit, ceiling, "the search runs up to the derived ceiling");
                assert!(retries >= 1, "at least one schedule must have been rejected")
            }
            other => panic!("expected PressureLimitReached, got {other:?}"),
        }
    }

    #[test]
    fn plain_strategy_reports_itself_as_its_own_baseline() {
        let l = kernels::fir(8, 256);
        let r = check(&l, &MachineConfig::paper_clustered(4), &DmsConfig::default());
        assert_eq!(r.baseline_ii, r.ii());
        assert_eq!(r.candidates_run, 0);
        assert_eq!(r.winner_candidate, 0);
    }

    #[test]
    fn beam_and_portfolio_never_lose_to_the_plain_heuristic() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let plain = check(&l, &m, &DmsConfig::default());
                for strategy in [
                    SchedulerStrategy::Beam { width: 4 },
                    SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
                ] {
                    let cfg = DmsConfig { strategy, ..DmsConfig::default() };
                    let r = check(&l, &m, &cfg);
                    let tag = format!("{} on {clusters} clusters with {strategy}", l.name);
                    assert_eq!(r.baseline_ii, plain.ii(), "{tag}: wrong baseline");
                    // Pareto-dominates-or-equals the plain point on every
                    // objective — the winner is either candidate 0 itself or
                    // a strict improvement.
                    assert!(r.ii() <= plain.ii(), "{tag}: II regressed");
                    assert!(
                        r.pressure.total() <= plain.pressure.total(),
                        "{tag}: pressure regressed"
                    );
                    assert!(
                        code_size_words(&r.schedule) <= code_size_words(&plain.schedule),
                        "{tag}: code size regressed"
                    );
                    if r.winner_candidate == 0 {
                        assert_eq!(r.ii(), plain.ii(), "{tag}: candidate 0 must be the plain run");
                    }
                }
            }
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_runs() {
        let l = transform::unroll(&kernels::dot_product(1024), 4);
        let m = MachineConfig::paper_clustered(8);
        let cfg = DmsConfig {
            strategy: SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
            ..DmsConfig::default()
        };
        let a = check(&l, &m, &cfg);
        let b = check(&l, &m, &cfg);
        assert_eq!(a.ii(), b.ii());
        assert_eq!(a.winner_candidate, b.winner_candidate);
        assert_eq!(a.pressure.total(), b.pressure.total());
        assert_eq!(a.candidates_run, 7);
    }

    #[test]
    fn beam_width_one_still_schedules_every_kernel() {
        // The plain heuristic is the width-1 beam, so its challenger
        // repeats the baseline and never replaces it.
        let cfg =
            DmsConfig { strategy: SchedulerStrategy::Beam { width: 1 }, ..DmsConfig::default() };
        for l in kernels::all(64) {
            let m = MachineConfig::paper_clustered(4);
            let r = check(&l, &m, &cfg);
            let plain = check(&l, &m, &DmsConfig::default());
            assert_eq!(r.schedule, plain.schedule, "{}", l.name);
            assert_eq!(r.winner_candidate, 0, "{}", l.name);
        }
    }
}
