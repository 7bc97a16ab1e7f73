//! Mutable scheduler state of one II attempt, and the rules of its
//! scheduling step.
//!
//! The state owns the working copy of the DDG (which grows as `move`
//! operations are inserted and shrinks again when chains are dismantled), the
//! modulo reservation table, the partial schedule, the scheduling priorities
//! and the bookkeeping needed for IMS-style backtracking.
//!
//! The rules of Rau's IMS step live here, beside their one caller: the
//! `Worklist` order, the scheduling `window`, the `eviction_victim`
//! and the `violated_successors`.

use crate::pressure::{edge_lifetime, Lifetime, QueuePressure};
use crate::priority::SweepOrder;
use crate::schedule::{dependence_bound, earliest_start, SchedStats, Schedule};
use dms_ir::{Ddg, DepEdge, OpId, OpKind, Operation};
use dms_machine::{ClusterId, FuKind, MachineConfig, Mrt, PathCache, TopoPath, Topology};
use dms_telemetry::{EventKind, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// The operations waiting to be scheduled, popped highest priority first
/// (largest priority, then smallest id).
///
/// A waiting op's priority never changes while it waits (the state rebuilds
/// the worklist when it sets new priorities), so a binary heap pops exactly
/// the op a scan for the maximum would. Removing an op other than by popping
/// only clears its flag; its heap entry is dropped when it reaches the top.
#[derive(Debug, Clone, Default)]
struct Worklist {
    heap: BinaryHeap<(i64, Reverse<OpId>)>,
    /// Per op id: whether the op is waiting.
    waiting: Vec<bool>,
    len: usize,
}

impl Worklist {
    /// Whether `op` is waiting.
    fn contains(&self, op: OpId) -> bool {
        self.waiting.get(op.index()).copied().unwrap_or(false)
    }

    /// Adds `op` with the given priority unless it is already waiting.
    fn push(&mut self, op: OpId, priority: i64) {
        if self.contains(op) {
            return;
        }
        if self.waiting.len() <= op.index() {
            self.waiting.resize(op.index() + 1, false);
        }
        self.waiting[op.index()] = true;
        self.len += 1;
        self.heap.push((priority, Reverse(op)));
    }

    /// Stops `op` waiting, if it was.
    fn remove(&mut self, op: OpId) {
        if self.contains(op) {
            self.waiting[op.index()] = false;
            self.len -= 1;
        }
    }

    /// Removes and returns the highest-priority waiting operation.
    fn pop(&mut self) -> Option<OpId> {
        while let Some((_, Reverse(op))) = self.heap.pop() {
            if self.contains(op) {
                self.remove(op);
                return Some(op);
            }
        }
        None
    }
}

/// The scheduling window `(min_time, max_time)` of an operation whose
/// predecessors allow it to start at `estart`: II consecutive times, so
/// every MRT row once. An operation scheduled before, last at `prev_time`,
/// must start later than that time (Rau's forced-progress rule), so
/// re-scheduling cannot cycle.
fn window(estart: u32, prev_time: Option<u32>, ii: u32) -> (u32, u32) {
    let min_time = prev_time.map_or(estart, |prev| estart.max(prev + 1));
    (min_time, min_time + ii - 1)
}

/// The occupant evicted to free a unit of a full slot: the lowest
/// priority, then the larger id.
///
/// # Panics
///
/// Panics if `occupants` is empty.
fn eviction_victim(occupants: &[OpId], priority: &[i64]) -> OpId {
    *occupants
        .iter()
        .min_by_key(|&&o| (priority[o.index()], Reverse(o)))
        .expect("a full slot has occupants")
}

/// The scheduled successors of `op` (self edges excluded, in edge order)
/// whose dependence is violated once `op` issues at `time`. A successor
/// reached by several violated edges appears once per edge.
fn violated_successors<'a>(
    ddg: &'a Ddg,
    schedule: &'a Schedule,
    op: OpId,
    time: u32,
) -> impl Iterator<Item = OpId> + 'a {
    let ii = schedule.ii();
    ddg.succs(op).filter(move |(_, e)| e.dst != op).filter_map(move |(_, e)| {
        let d = schedule.get(e.dst)?;
        ((d.time as i64) < dependence_bound(time, e.latency, ii, e.distance)).then_some(e.dst)
    })
}

/// A committed chain of `move` operations realising one too-distant flow
/// dependence.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The operation producing the value.
    pub producer: OpId,
    /// The operation consuming the value.
    pub consumer: OpId,
    /// The move operations, ordered from the producer towards the consumer.
    pub moves: Vec<OpId>,
    /// The original dependence edge that the chain replaced (re-installed
    /// when the chain is dismantled).
    pub original_edge: DepEdge,
}

/// The clusters hosting an operation's scheduled flow neighbours (self
/// edges excluded, in edge order).
#[derive(Debug, Clone, Default)]
pub struct FlowNeighbours {
    /// Clusters of the scheduled producers of the values the operation
    /// reads.
    pub producers: Vec<ClusterId>,
    /// Clusters of the scheduled consumers of the value the operation
    /// writes.
    pub consumers: Vec<ClusterId>,
}

impl FlowNeighbours {
    /// Every neighbour's cluster, producers first.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.producers.iter().chain(&self.consumers).copied()
    }
}

/// Mutable state of one scheduling attempt (one candidate II).
///
/// `Clone` is cheapest-possible but not free (the DDG, MRT and schedule are
/// deep-copied); only the beam search clones states, once per kept branch.
#[derive(Debug, Clone)]
pub struct SchedulerState {
    /// Working copy of the DDG (owned; grows/shrinks with chains).
    pub ddg: Ddg,
    /// The modulo reservation table for the current II.
    pub mrt: Mrt,
    /// The partial schedule.
    pub schedule: Schedule,
    /// Scheduling priority (height) per operation slot. Fixed once the
    /// attempt starts, except for the chain moves `commit_chain` adds.
    pub height: Vec<i64>,
    /// The last time at which each operation was scheduled, `None` if
    /// never (for the IMS forced-progress rule of `window`).
    pub prev_time: Vec<Option<u32>>,
    /// Operations waiting to be scheduled, keyed by their pop priority.
    /// Heights are fixed when the attempt starts (only chain moves get
    /// theirs later, and moves never wait) and setting the jitter rebuilds
    /// the worklist, so a waiting op's key never changes.
    worklist: Worklist,
    /// Committed chains, indexed implicitly by position.
    pub chains: Vec<Chain>,
    /// Statistics accumulated so far.
    pub stats: SchedStats,
    /// Incremental queue-register-pressure estimate of the partial schedule.
    ///
    /// Kept consistent by every mutation path — [`SchedulerState::place`],
    /// [`SchedulerState::unschedule`], [`SchedulerState::commit_chain`] and
    /// chain dismantling — and provably equal to
    /// [`QueuePressure::of_schedule`] of the final schedule (the register
    /// allocator's ground truth), a property pinned by the tier-1 suite.
    pub pressure: QueuePressure,
    /// Whether strategy-2 chain planning additionally scores candidates by
    /// the occupancy of the queue files their moves traverse. Enabled by
    /// the II search only on attempts that follow a capacity rejection —
    /// when the signal is known to matter — so loops whose queues never
    /// overflow schedule exactly as the paper's criterion dictates.
    pub chain_steering: bool,
    /// Per-slot perturbation of the pop priority (see
    /// [`SchedulerState::set_jitter`]; empty = none).
    jitter: Vec<i64>,
    paths: Rc<PathCache>,
    ii: u32,
    move_latency: u32,
    cqrf_capacity: u32,
    /// Telemetry handle captured at construction (a no-op unless a global
    /// registry is installed). Recording only — never read back, so it
    /// cannot perturb any scheduling decision.
    telemetry: Telemetry,
}

impl SchedulerState {
    /// Creates the state for one scheduling attempt.
    pub fn new(ddg: Ddg, machine: &MachineConfig, ii: u32) -> Self {
        let paths = Rc::new(PathCache::new(machine.topology()));
        let order = SweepOrder::of_body(&ddg);
        Self::with_paths(ddg, machine, ii, paths, &order)
    }

    /// [`SchedulerState::new`] sharing `paths`, the machine's chain paths,
    /// and `order`, the body's [`SweepOrder::of_body`], with the other
    /// attempts of one II search, so each is computed once per machine or
    /// body instead of once per attempt.
    pub fn with_paths(
        ddg: Ddg,
        machine: &MachineConfig,
        ii: u32,
        paths: Rc<PathCache>,
        order: &SweepOrder,
    ) -> Self {
        debug_assert_eq!(*paths.topology(), machine.topology(), "paths of another machine");
        let n = ddg.num_slots();
        let height = order.heights(&ddg, ii);
        let mut worklist = Worklist::default();
        for op in ddg.live_op_ids() {
            worklist.push(op, height[op.index()]);
        }
        SchedulerState {
            mrt: Mrt::new(machine, ii),
            schedule: Schedule::new(ii, n),
            height,
            prev_time: vec![None; n],
            worklist,
            chains: Vec::new(),
            stats: SchedStats::default(),
            pressure: QueuePressure::new(machine.num_clusters()),
            chain_steering: false,
            jitter: Vec::new(),
            paths,
            ii,
            move_latency: machine.latency().mv,
            cqrf_capacity: machine.cqrf_capacity,
            telemetry: Telemetry::current(),
            ddg,
        }
    }

    /// The initiation interval of this attempt.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The interconnect topology of the target machine.
    #[inline]
    pub fn topology(&self) -> &Topology {
        self.paths.topology()
    }

    /// The chain paths from `from` to `to` ([`Topology::paths`]), computed
    /// once per pair and machine.
    pub(crate) fn paths(&self, from: ClusterId, to: ClusterId) -> &[TopoPath] {
        self.paths.paths(from, to)
    }

    /// Latency of a `move` operation on the target machine.
    #[inline]
    pub fn move_latency(&self) -> u32 {
        self.move_latency
    }

    /// Whether all operations have been placed.
    pub fn complete(&self) -> bool {
        self.worklist.len == 0
    }

    /// Number of operations waiting to be scheduled.
    pub fn num_unscheduled(&self) -> usize {
        self.worklist.len
    }

    /// Sets the per-slot perturbation added to the height-based priority
    /// when popping the next operation (empty = none, the deterministic
    /// default). Indexed like [`SchedulerState::height`]; operations added
    /// after scheduling started (chain moves) fall outside the vector and
    /// get 0. Portfolio candidates set seeded jitter; the perturbation
    /// affects *only* the scheduling order, never the legality checks.
    pub fn set_jitter(&mut self, jitter: Vec<i64>) {
        self.jitter = jitter;
        let waiting: Vec<OpId> = (0..self.ddg.num_slots() as u32)
            .map(OpId)
            .filter(|&op| self.worklist.contains(op))
            .collect();
        self.worklist = Worklist::default();
        for op in waiting {
            self.worklist.push(op, self.priority(op));
        }
    }

    /// The pop priority of `op`: its height plus its jitter.
    fn priority(&self, op: OpId) -> i64 {
        self.height[op.index()] + self.jitter.get(op.index()).copied().unwrap_or(0)
    }

    /// Removes and returns the highest-priority unscheduled operation
    /// (largest height plus per-op jitter; ties broken by the smallest id).
    pub fn pop_highest_priority(&mut self) -> Option<OpId> {
        self.worklist.pop()
    }

    /// Earliest start time of `op` given its already-scheduled predecessors
    /// (self edges excluded — they are satisfied by any II at or above
    /// RecMII). Delegates to the shared [`earliest_start`], the one
    /// definition of the dependence inequality.
    pub fn earliest_start(&self, op: OpId) -> u32 {
        earliest_start(&self.ddg, &self.schedule, op, self.ii)
    }

    /// The scheduling `window` of `op`.
    pub fn window(&self, op: OpId) -> (u32, u32) {
        window(self.earliest_start(op), self.prev_time[op.index()], self.ii)
    }

    /// Fills `neighbours` with the clusters hosting already-scheduled
    /// operations that exchange a value with `op` (flow predecessors and
    /// flow successors). Reusing one value across calls keeps the per-pop
    /// lookup free of allocations once its buffers have grown.
    pub fn fill_flow_neighbours(&self, op: OpId, neighbours: &mut FlowNeighbours) {
        let placed = |other: OpId| (other != op).then(|| self.schedule.get(other)).flatten();
        neighbours.producers.clear();
        neighbours
            .producers
            .extend(self.ddg.flow_preds(op).filter_map(|(_, e)| placed(e.src).map(|p| p.cluster)));
        neighbours.consumers.clear();
        neighbours
            .consumers
            .extend(self.ddg.flow_succs(op).filter_map(|(_, e)| placed(e.dst).map(|s| s.cluster)));
    }

    /// The clusters in which an operation with the given scheduled flow
    /// neighbours could be placed without any communication conflict, in
    /// id order.
    pub fn compatible_clusters<'a>(
        &'a self,
        neighbours: &'a FlowNeighbours,
    ) -> impl Iterator<Item = ClusterId> + 'a {
        let topology = self.topology();
        topology
            .iter()
            .filter(move |&c| neighbours.clusters().all(|n| topology.directly_connected(c, n)))
    }

    /// The lifetime of a value-carrying edge whose endpoints are both placed
    /// in the current partial schedule, or `None` otherwise. Shares
    /// [`edge_lifetime`] with the register allocator, so the incremental
    /// pressure bookkeeping below accumulates exactly what
    /// `dms_regalloc::allocate` will later compute.
    fn edge_pressure(&self, e: &DepEdge) -> Option<Lifetime> {
        if !e.kind.carries_value() {
            return None;
        }
        let p = self.schedule.get(e.src)?;
        let c = self.schedule.get(e.dst)?;
        Some(edge_lifetime(e, p, c, self.ii, self.topology()))
    }

    /// Walks every value-carrying edge incident to `op` whose other endpoint
    /// is also scheduled and adds (or removes) its lifetime. Self edges
    /// appear once (via the successor list). Runs on every placement and
    /// eviction of the II search, so it borrows the fields disjointly
    /// instead of allocating an intermediate lifetime list.
    ///
    /// Adding must run *after* `op` is placed in `self.schedule`, removing
    /// *before* it leaves (the lifetimes are recomputed from the
    /// still-current placements, which keeps add/remove symmetric).
    fn update_pressure_for_op(&mut self, op: OpId, add: bool) {
        let topology = *self.topology();
        let (ddg, schedule, pressure) = (&self.ddg, &self.schedule, &mut self.pressure);
        let edges = ddg.succs(op).chain(ddg.preds(op).filter(|(_, e)| e.src != op));
        for (_, e) in edges {
            if !e.kind.carries_value() {
                continue;
            }
            let (Some(p), Some(c)) = (schedule.get(e.src), schedule.get(e.dst)) else {
                continue;
            };
            let lt = edge_lifetime(e, p, c, self.ii, &topology);
            if add {
                pressure.add(&lt);
            } else {
                pressure.remove(&lt);
            }
        }
    }

    /// Accounts for a value edge appearing between two operations that may
    /// already be scheduled (chain commit/dismantle rewires edges while the
    /// endpoints stay placed).
    fn pressure_add_edge(&mut self, e: &DepEdge) {
        if let Some(lt) = self.edge_pressure(e) {
            self.pressure.add(&lt);
        }
    }

    /// Accounts for a value edge disappearing between two operations that
    /// may both still be scheduled.
    fn pressure_remove_edge(&mut self, e: &DepEdge) {
        if let Some(lt) = self.edge_pressure(e) {
            self.pressure.remove(&lt);
        }
    }

    /// The queue registers currently occupied by the queue file a value
    /// would use travelling from `writer` to `reader` — the shared
    /// [`QueuePressure::queue_occupancy`] pricing, evaluated on this
    /// machine's topology.
    pub(crate) fn queue_occupancy(&self, writer: ClusterId, reader: ClusterId) -> u32 {
        self.pressure.queue_occupancy(self.topology(), writer, reader)
    }

    /// Congestion penalty of routing one more value from `writer` to
    /// `reader`: how far the carrying queue file's occupancy stretches
    /// beyond half its capacity — the regime where further chain traffic
    /// risks the overflow that forces a capacity II-retry.
    pub(crate) fn congestion_penalty(&self, writer: ClusterId, reader: ClusterId) -> u64 {
        let threshold = (self.cqrf_capacity / 2).max(1);
        self.queue_occupancy(writer, reader).saturating_sub(threshold) as u64
    }

    /// Pressure cost of placing an operation with the given scheduled flow
    /// neighbours in `cluster`: the summed occupancy of the queue files
    /// that would carry a value between the operation and each neighbour.
    /// Used as a placement tie-breaker so DMS steers values away from
    /// saturated queues.
    pub fn cluster_pressure_cost(&self, neighbours: &FlowNeighbours, cluster: ClusterId) -> u64 {
        let producers = neighbours.producers.iter().map(|&p| self.queue_occupancy(p, cluster));
        let consumers = neighbours.consumers.iter().map(|&s| self.queue_occupancy(cluster, s));
        producers.chain(consumers).fold(0u64, |cost, occ| cost.saturating_add(u64::from(occ)))
    }

    /// Places `op` at `time` in `cluster`, assuming a unit is free.
    ///
    /// # Panics
    ///
    /// Panics if no unit of the required class is free (callers must evict
    /// first via [`SchedulerState::make_room`]).
    pub fn place(&mut self, op: OpId, time: u32, cluster: ClusterId) {
        debug_assert!(self.schedule.get(op).is_none(), "place() requires an unscheduled op");
        let fu = FuKind::for_op(self.ddg.op(op).kind);
        self.mrt
            .reserve(op, time, cluster, fu)
            .expect("place() requires a free unit; call make_room() first");
        self.schedule.place(op, time, cluster);
        self.update_pressure_for_op(op, true);
        self.prev_time[op.index()] = Some(time);
        self.worklist.remove(op);
    }

    /// Evicts occupants of the `(time, cluster)` slot of `op`'s unit class
    /// until one unit is free, each the `eviction_victim` by height.
    /// Returns the evicted operations.
    pub fn make_room(&mut self, op: OpId, time: u32, cluster: ClusterId) -> Vec<OpId> {
        let fu = FuKind::for_op(self.ddg.op(op).kind);
        let mut evicted = Vec::new();
        while !self.mrt.has_free(time, cluster, fu) {
            let victim = eviction_victim(self.mrt.occupants(time, cluster, fu), &self.height);
            self.unschedule(victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Unschedules IMS's `violated_successors` of `op` issuing at `time`,
    /// and every scheduled flow neighbour that would sit in an indirectly
    /// connected cluster (communication conflict — the extra backtracking
    /// cause specific to DMS strategy 3).
    pub fn displace_conflicts(&mut self, op: OpId, time: u32, cluster: ClusterId) {
        let mut victims: Vec<OpId> =
            violated_successors(&self.ddg, &self.schedule, op, time).collect();
        for (_, e) in self.ddg.flow_preds(op) {
            if e.src == op {
                continue;
            }
            if let Some(p) = self.schedule.get(e.src) {
                if !self.topology().directly_connected(p.cluster, cluster) {
                    victims.push(e.src);
                }
            }
        }
        for (_, e) in self.ddg.flow_succs(op) {
            if e.dst == op {
                continue;
            }
            if let Some(s) = self.schedule.get(e.dst) {
                if !self.topology().directly_connected(s.cluster, cluster) {
                    victims.push(e.dst);
                }
            }
        }
        victims.sort();
        victims.dedup();
        for v in victims {
            if self.schedule.get(v).is_some() {
                self.unschedule(v);
            }
        }
    }

    /// Unschedules `op`: releases its reservation, removes it from the
    /// partial schedule and returns it to the unscheduled worklist. If `op`
    /// is the producer, the consumer or a member of any committed chain, the
    /// chain is dismantled (its moves are deleted from the DDG and the
    /// original dependence edge is restored); if that leaves the producer and
    /// consumer of a dismantled chain scheduled in indirectly connected
    /// clusters, the consumer is unscheduled as well.
    pub fn unschedule(&mut self, op: OpId) {
        if self.schedule.get(op).is_some() {
            self.update_pressure_for_op(op, false);
            self.mrt.release(op);
            self.schedule.remove(op);
            self.stats.evictions += 1;
        }
        // Dismantle every chain this operation participates in. Dismantling
        // can recursively unschedule other operations (and remove further
        // chains), so re-scan after every removal instead of precomputing
        // indices.
        loop {
            let pos = self
                .chains
                .iter()
                .position(|c| c.producer == op || c.consumer == op || c.moves.contains(&op));
            match pos {
                Some(i) => {
                    let chain = self.chains.remove(i);
                    self.dismantle(chain);
                }
                None => break,
            }
        }
        // Return the op itself to the worklist unless it is a move that was
        // just deleted by a dismantle above.
        if self.ddg.is_live(op) && self.ddg.op(op).kind != OpKind::Move {
            self.worklist.push(op, self.priority(op));
        }
    }

    /// Dismantles one chain: deletes its move operations, restores the
    /// original edge and operand, and unschedules the consumer if the direct
    /// dependence would now cross indirectly connected clusters.
    fn dismantle(&mut self, chain: Chain) {
        self.telemetry.event(EventKind::ChainDismantled);
        // Restore the consumer's operand to read the producer directly, at
        // the original edge's distance (the chain read was distance 0).
        if let Some(&last) = chain.moves.last() {
            if self.ddg.is_live(chain.consumer) {
                self.ddg.redirect_reads_at(
                    chain.consumer,
                    last,
                    0,
                    chain.producer,
                    chain.original_edge.distance,
                );
            }
        }
        // Delete the moves (removes their edges too).
        for m in &chain.moves {
            if self.schedule.get(*m).is_some() {
                self.update_pressure_for_op(*m, false);
                self.mrt.release(*m);
                self.schedule.remove(*m);
            }
            // Moves never enter the worklist (`unschedule` skips them).
            debug_assert!(!self.worklist.contains(*m));
            if self.ddg.is_live(*m) {
                self.ddg.remove_op(*m);
            }
        }
        // Restore the original producer -> consumer edge.
        if self.ddg.is_live(chain.producer) && self.ddg.is_live(chain.consumer) {
            self.ddg.add_edge(chain.original_edge);
            self.pressure_add_edge(&chain.original_edge);
        }
        // If both endpoints remain scheduled but are now too far apart, the
        // consumer must be rescheduled.
        if let (Some(p), Some(c)) =
            (self.schedule.get(chain.producer), self.schedule.get(chain.consumer))
        {
            if !self.topology().directly_connected(p.cluster, c.cluster) {
                self.unschedule(chain.consumer);
            }
        }
    }

    /// Inserts the move operations of a planned chain into the DDG, reserves
    /// their slots and records the chain for later dismantling. `moves` are
    /// `(cluster, time)` pairs ordered from the producer towards the
    /// consumer; the edge `edge_id` (producer → consumer) is replaced.
    ///
    /// # Panics
    ///
    /// Panics if any move slot is not actually free — chain planning must
    /// have verified availability.
    pub fn commit_chain(&mut self, edge: DepEdge, moves: &[(ClusterId, u32)]) -> Vec<OpId> {
        debug_assert!(!moves.is_empty(), "a chain needs at least one move");
        let producer = edge.src;
        let consumer = edge.dst;
        // Remove the original edge (it stops occupying queue registers if
        // both endpoints happen to be scheduled).
        let eid = self
            .ddg
            .preds(consumer)
            .find(|(_, e)| **e == edge)
            .map(|(id, _)| id)
            .expect("the chained edge must exist");
        self.pressure_remove_edge(&edge);
        self.ddg.remove_edge(eid);

        let mut move_ids = Vec::with_capacity(moves.len());
        let mut prev = producer;
        let mut prev_latency = edge.latency;
        let mut prev_distance = edge.distance;
        for &(cluster, time) in moves {
            let m = self.ddg.add_op(Operation::new(
                OpKind::Move,
                vec![dms_ir::Operand::def_at(prev, prev_distance)],
            ));
            self.grow_tables();
            self.ddg.add_edge(DepEdge::flow(prev, m, prev_latency, prev_distance));
            self.mrt
                .reserve(m, time, cluster, FuKind::Copy)
                .expect("chain planning verified this Copy slot was free");
            self.schedule.place(m, time, cluster);
            self.update_pressure_for_op(m, true);
            self.prev_time[m.index()] = Some(time);
            move_ids.push(m);
            prev = m;
            prev_latency = self.move_latency;
            prev_distance = 0;
        }
        // Re-point the consumer at the last move. The chain's first move
        // already absorbs the edge's iteration distance, so the consumer
        // reads the last move at distance 0 — re-pointing with the original
        // distance preserved would shift the value by the distance twice.
        let last = *move_ids.last().expect("at least one move");
        self.ddg.redirect_reads_at(consumer, producer, edge.distance, last, 0);
        let tail = DepEdge::flow(last, consumer, self.move_latency, 0);
        self.ddg.add_edge(tail);
        self.pressure_add_edge(&tail);

        // Heights: a move sits just above its consumer in the priority order.
        let consumer_height = self.height[consumer.index()];
        for (k, &m) in move_ids.iter().rev().enumerate() {
            self.height[m.index()] = consumer_height + (k as i64 + 1) * self.move_latency as i64;
        }

        self.chains.push(Chain {
            producer,
            consumer,
            moves: move_ids.clone(),
            original_edge: edge,
        });
        self.stats.moves_inserted += moves.len() as u64;
        move_ids
    }

    /// Grows the per-op side tables after the DDG gained a new operation.
    fn grow_tables(&mut self) {
        let n = self.ddg.num_slots();
        self.height.resize(n, 0);
        self.prev_time.resize(n, None);
    }

    /// Finalises the attempt, consuming the state. The returned
    /// [`QueuePressure`] is the incremental estimate, which at this point
    /// equals the ground truth recomputed from the final schedule (asserted
    /// in debug builds).
    pub fn into_parts(self) -> (Ddg, Schedule, SchedStats, QueuePressure) {
        debug_assert_eq!(
            self.pressure,
            QueuePressure::of_schedule(&self.ddg, &self.schedule, self.topology()),
            "incremental pressure estimate diverged from the schedule's ground truth"
        );
        (self.ddg, self.schedule, self.stats, self.pressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{LoopBuilder, Operand};
    use dms_machine::MachineConfig;

    fn chain_loop() -> dms_ir::Loop {
        let mut b = LoopBuilder::new("chain");
        let a = b.load(Operand::Induction);
        let m = b.mul(a.into(), Operand::Invariant(0));
        b.store(m.into());
        b.finish(16)
    }

    #[test]
    fn pop_highest_priority_is_deterministic_and_exhaustive() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(2);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 2);
        let mut seen = Vec::new();
        while let Some(op) = st.pop_highest_priority() {
            seen.push(op);
        }
        assert_eq!(seen.len(), 3);
        // load (highest height) first, store last
        assert_eq!(seen[0], OpId(0));
        assert_eq!(seen[2], OpId(2));
    }

    #[test]
    fn jittered_pops_follow_priority_then_id_across_requeues() {
        let l = dms_ir::kernels::fir(8, 64);
        let m = MachineConfig::paper_clustered(4);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 3);
        let n = st.ddg.num_slots();
        st.set_jitter((0..n as i64).map(|i| (i * 7) % 5).collect());
        let key = |st: &SchedulerState, op: OpId| {
            (st.height[op.index()] + (op.index() as i64 * 7) % 5, std::cmp::Reverse(op))
        };
        // Place the first pop, then put it back: it must come out first again.
        let first = st.pop_highest_priority().unwrap();
        st.place(first, 0, ClusterId(0));
        st.unschedule(first);
        let mut seen = Vec::new();
        while let Some(op) = st.pop_highest_priority() {
            seen.push(op);
        }
        let mut expected: Vec<OpId> = st.ddg.live_op_ids().collect();
        expected.sort_by_key(|&op| std::cmp::Reverse(key(&st, op)));
        assert_eq!(seen, expected);
        assert!(st.complete());
    }

    #[test]
    fn place_and_window_forced_progress() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(2);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 2);
        let load = OpId(0);
        assert_eq!(st.window(load), (0, 1));
        st.place(load, 0, ClusterId(0));
        assert!(st.schedule.get(load).is_some());
        // dependent mul must start at or after load latency
        assert_eq!(st.earliest_start(OpId(1)), 2);
        // unschedule and check forced progress
        st.unschedule(load);
        assert!(st.schedule.get(load).is_none());
        assert_eq!(st.window(load), (1, 2));
        assert_eq!(st.stats.evictions, 1);
    }

    #[test]
    fn make_room_evicts_lowest_priority() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(1);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 1);
        // load (op0) and store (op2) both need the single L/S unit; II = 1 so
        // they always collide.
        st.place(OpId(0), 0, ClusterId(0));
        let evicted = st.make_room(OpId(2), 3, ClusterId(0));
        assert_eq!(evicted, vec![OpId(0)]);
        st.place(OpId(2), 3, ClusterId(0));
        assert!(st.schedule.get(OpId(0)).is_none());
    }

    #[test]
    fn communication_compatible_clusters_respects_neighbours() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 4);
        st.place(OpId(0), 0, ClusterId(0)); // load in cluster 0
        let compatible = |op: OpId| {
            let mut neighbours = FlowNeighbours::default();
            st.fill_flow_neighbours(op, &mut neighbours);
            st.compatible_clusters(&neighbours).collect::<Vec<_>>()
        };
        assert_eq!(compatible(OpId(1)), vec![ClusterId(0), ClusterId(1), ClusterId(5)]);
        // no constraint for an operation with no scheduled neighbours
        assert_eq!(compatible(OpId(2)).len(), 6);
    }

    #[test]
    fn commit_and_dismantle_chain_restores_graph() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 4);
        st.place(OpId(0), 0, ClusterId(0));
        let edge = *st.ddg.flow_succs(OpId(0)).next().unwrap().1;
        let before_edges = st.ddg.live_edges().count();
        let moves = st.commit_chain(edge, &[(ClusterId(1), 2), (ClusterId(2), 3)]);
        assert_eq!(moves.len(), 2);
        assert_eq!(st.ddg.num_live_ops(), 5);
        assert_eq!(st.stats.moves_inserted, 2);
        assert!(st.ddg.validate().is_ok());
        // consumer now reads the last move
        assert_eq!(st.ddg.op(OpId(1)).defs_read().next().unwrap().0, moves[1]);

        // Evicting the producer dismantles the chain.
        st.unschedule(OpId(0));
        assert_eq!(st.chains.len(), 0);
        assert_eq!(st.ddg.num_live_ops(), 3);
        assert_eq!(st.ddg.live_edges().count(), before_edges);
        assert_eq!(st.ddg.op(OpId(1)).defs_read().next().unwrap().0, OpId(0));
        assert!(st.ddg.validate().is_ok());
    }

    #[test]
    fn carried_chain_absorbs_the_distance_exactly_once() {
        // consumer reads the producer one iteration back (distance 1); a
        // chain realising that edge shifts at its first move, so the
        // consumer must end up reading the last move at distance 0 —
        // reading it at distance 1 would shift the value twice.
        let mut b = LoopBuilder::new("carried_chain");
        let x = b.load(Operand::Induction);
        let y = b.op(dms_ir::OpKind::Add, vec![Operand::def_at(x, 1), Operand::Invariant(0)]);
        b.store(y.into());
        let l = b.finish(16);
        let m = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 4);
        st.place(x, 0, ClusterId(0));
        let edge = *st.ddg.flow_succs(x).next().unwrap().1;
        assert_eq!(edge.distance, 1);
        let moves = st.commit_chain(edge, &[(ClusterId(1), 2), (ClusterId(2), 3)]);
        // first move carries the distance, consumer reads the tail at 0
        assert_eq!(st.ddg.op(moves[0]).defs_read().next(), Some((x, 1)));
        assert_eq!(st.ddg.op(y).defs_read().next(), Some((*moves.last().unwrap(), 0)));
        // dismantling restores the original distance-1 read
        st.unschedule(x);
        assert!(st.chains.is_empty());
        assert_eq!(st.ddg.op(y).defs_read().next(), Some((x, 1)));
        assert!(st.ddg.validate().is_ok());
    }

    #[test]
    fn dismantle_unschedules_consumer_when_too_far() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 4);
        st.place(OpId(0), 0, ClusterId(0));
        let edge = *st.ddg.flow_succs(OpId(0)).next().unwrap().1;
        let moves = st.commit_chain(edge, &[(ClusterId(1), 2), (ClusterId(2), 3)]);
        // place the consumer far away (legal thanks to the chain)
        st.place(OpId(1), 4, ClusterId(3));
        // evict one of the moves: chain dismantles and the consumer (now
        // directly dependent on cluster 0) must be unscheduled too.
        st.unschedule(moves[0]);
        assert!(st.chains.is_empty());
        assert!(st.schedule.get(OpId(1)).is_none());
        // producer stays scheduled
        assert!(st.schedule.get(OpId(0)).is_some());
    }

    #[test]
    fn displace_conflicts_handles_dependence_and_communication() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &m, 4);
        // schedule mul and store first
        st.place(OpId(1), 2, ClusterId(3));
        st.place(OpId(2), 4, ClusterId(3));
        // now force the load into cluster 0 at time 4: the mul is both too
        // early (dependence) and too far (communication) -> displaced.
        st.displace_conflicts(OpId(0), 4, ClusterId(0));
        assert!(st.schedule.get(OpId(1)).is_none());
        // the store only depends on the mul, so it survives
        assert!(st.schedule.get(OpId(2)).is_some());
    }

    #[test]
    fn eviction_victim_is_the_lowest_priority_then_the_larger_id() {
        let priority = [5, 3, 3, 7];
        let all = [OpId(0), OpId(1), OpId(2), OpId(3)];
        assert_eq!(eviction_victim(&all, &priority), OpId(2));
        assert_eq!(eviction_victim(&[OpId(3), OpId(0)], &priority), OpId(0));
    }

    #[test]
    fn window_starts_after_the_previous_time() {
        assert_eq!(window(4, None, 3), (4, 6));
        assert_eq!(window(4, Some(2), 3), (4, 6));
        assert_eq!(window(4, Some(4), 3), (5, 7));
        assert_eq!(window(0, Some(0), 1), (1, 1));
    }
}
