//! The one modulo-scheduling search: the II loop with its capacity retry,
//! the attempt loop and the placement step, shared by IMS and DMS.
//!
//! Each step pops the highest-priority waiting operation and places it by
//! the paper's three strategies: a conflict-free slot (strategy 1), chains
//! of moves (strategy 2), or IMS's forced placement with backtracking
//! (strategy 3). On one cluster strategy 2 never fires, because a cluster
//! is directly connected to itself, and strategy 3 is IMS's own step; so
//! [`crate::ims_schedule`] is this search on a one-cluster machine.

use crate::chains::{self, ChainPolicy};
use crate::ims::default_max_ii;
use crate::mii::{mii, MiiBreakdown};
use crate::pressure::QueuePressure;
use crate::priority::SweepOrder;
use crate::schedule::{admit_mrt, SchedStats, Schedule, ScheduleError, ScheduleResult};
use crate::state::{FlowNeighbours, SchedulerState};
use crate::strategy::SchedulerStrategy;
use dms_ir::transform::convert_to_single_use;
use dms_ir::{Ddg, Loop, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig, PathCache};
use dms_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Tuning parameters of the DMS search.
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

/// DMS's scheduling budget per candidate II, as a multiple of the number of
/// operations. IMS keeps its own, smaller ratio.
pub const DMS_BUDGET_RATIO: u64 = 32;

/// The candidate-independent preprocessing of a loop: single-use conversion,
/// MII bounds and the per-II scheduling budget. Shared by every candidate of
/// a portfolio so the (deterministic) transforms run once per loop.
#[derive(Debug)]
pub struct Prepared<'a> {
    loop_name: &'a str,
    machine: &'a MachineConfig,
    chain_policy: ChainPolicy,
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

/// Prepares `l` for the search on `machine`, with a scheduling budget of
/// `budget_ratio` placements per operation and II attempt.
///
/// The single-use conversion runs only on clustered machines: it exists
/// because a CQRF value can be read once, and a single-cluster machine has
/// no CQRFs.
///
/// # Errors
///
/// Returns the errors of [`mii`]: [`ScheduleError::UnexecutableLoop`] if
/// the machine lacks a required functional-unit class, and
/// [`ScheduleError::RecurrenceUnschedulable`].
pub fn prepare<'a>(
    l: &'a Loop,
    machine: &'a MachineConfig,
    config: &DmsConfig,
    budget_ratio: u64,
) -> Result<Prepared<'a>, ScheduleError> {
    let mut ddg = l.ddg.clone();
    let copies = if machine.is_clustered() {
        convert_to_single_use(&mut ddg, machine.latency()) as u64
    } else {
        0
    };
    let bounds = mii(&ddg, machine)?;
    let start_ii = bounds.mii();
    Ok(Prepared {
        loop_name: &l.name,
        machine,
        chain_policy: config.chain_policy,
        copies,
        bounds,
        start_ii,
        max_ii: default_max_ii(&ddg, machine, start_ii).max(config.ii_seed.unwrap_or(0)),
        budget: budget_ratio * ddg.num_live_ops().max(1) as u64,
        paths: Rc::new(PathCache::new(machine.topology())),
        order: SweepOrder::of_body(&ddg),
        ddg,
    })
}

/// A portfolio challenger's priority jitter: given an attempt's heights, one
/// perturbation per DDG slot.
pub type Jitter<'a> = dyn FnMut(&[i64]) -> Vec<i64> + 'a;

/// The II search for one candidate: every II from the MII up, each attempt
/// a beam of `width` partial placements (1 is the paper's heuristic).
/// A portfolio challenger passes its [`Jitter`]. `ii_cap` (the incumbent's
/// II, for challengers) tightens the search ceiling: a challenger at a
/// higher II can never Pareto-dominate.
///
/// With `capacity_retry`, a structurally-valid schedule that overflows a
/// queue file is rejected and the search retries one II higher; without
/// it, the first structurally-valid schedule is returned as it is.
///
/// # Errors
///
/// [`ScheduleError::MrtTooLarge`] for a too-large reservation table, else
/// [`ScheduleError::PressureLimitReached`] if the II range ran out after a
/// capacity rejection, or [`ScheduleError::IiLimitReached`].
pub fn run_search(
    prep: &Prepared,
    ii_cap: Option<u32>,
    width: u32,
    mut jitter: Option<&mut Jitter>,
    capacity_retry: bool,
) -> Result<ScheduleOutcome, ScheduleError> {
    let max_ii = ii_cap.map_or(prep.max_ii, |cap| prep.max_ii.min(cap));
    let telemetry = Telemetry::current();
    let mut attempts = 0;
    let mut first_ii = None;
    let mut pressure_retries = 0u32;
    for ii in prep.start_ii..=max_ii {
        admit_mrt(prep.machine, ii)?;
        attempts += 1;
        telemetry.event(EventKind::IiAttemptStarted);
        // Chains are steered away from congested queue files only once a
        // capacity rejection has proven that congestion binds for this
        // loop; until then every attempt follows the paper's criterion
        // exactly.
        let steer_chains = pressure_retries > 0;
        let attempt = try_attempt(prep, ii, steer_chains, width, jitter.as_deref_mut());
        let Some((out_ddg, schedule, mut stats, pressure)) = attempt else {
            telemetry.event(EventKind::IiAttemptFailed);
            continue;
        };
        let first_ii = *first_ii.get_or_insert(ii);
        // Pressure relaxation: a structurally-valid schedule that overflows
        // a queue file would fail register allocation — reject it here and
        // retry one II higher, where every lifetime needs fewer in-flight
        // instances.
        if capacity_retry && pressure.capacity_excess(prep.machine).is_some() {
            pressure_retries += 1;
            telemetry.event(EventKind::PressureRetry);
            continue;
        }
        stats.mii = Some(prep.bounds);
        stats.copies_inserted = prep.copies;
        stats.ii_attempts = attempts;
        let loop_name = prep.loop_name.to_owned();
        return Ok(ScheduleOutcome {
            result: ScheduleResult { loop_name, ddg: out_ddg, schedule, stats },
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

/// One II attempt: a beam that keeps the best `width` partial placements
/// per scheduling step. Width 1 is the paper's heuristic, since its one
/// branch always takes the slot plain strategy 1 picks. Branching happens
/// only where the heuristic has slack, the (time, cluster) alternatives of
/// strategy 1; chain building and forced placement stay single-choice.
/// Returns `None` when the budget pool is exhausted before any branch
/// completes.
fn try_attempt(
    prep: &Prepared,
    ii: u32,
    steer_chains: bool,
    width: u32,
    jitter: Option<&mut Jitter>,
) -> Option<(Ddg, Schedule, SchedStats, QueuePressure)> {
    let width = width as usize;
    let mut seed = SchedulerState::with_paths(
        prep.ddg.clone(),
        prep.machine,
        ii,
        Rc::clone(&prep.paths),
        &prep.order,
    );
    seed.chain_steering = steer_chains;
    if let Some(jitter) = jitter {
        let jitter = jitter(&seed.height);
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
            } else if place_strategy2(&mut st, op, prep.chain_policy) {
                st.stats.strategy2_placements += 1;
            } else {
                let cluster = strategy3_cluster(&st, &pending);
                force_place(&mut st, op, cluster);
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

/// The cluster of strategy 3, forced IMS-style placement with backtracking.
/// The cluster is "arbitrarily chosen" (paper's wording); this
/// implementation prefers a communication-compatible cluster, then the
/// cluster of the most critical scheduled predecessor, then the least
/// loaded cluster. Eviction here also covers communication conflicts, and
/// evicting any part of a chain dismantles the whole chain.
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
