//! The modulo-schedule representation and the dynamic execution model used
//! by the paper's figures.

use dms_ir::{Ddg, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig, Mrt};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::mii::MiiBreakdown;

/// The lower bound `time(src) + latency - II * distance` that a dependence
/// edge imposes on its consumer's issue time, computed in `i64` so that
/// loop-carried edges (`distance > 0`) can express *negative* slack without
/// wrapping. This is the single definition of the modulo-scheduling
/// dependence inequality; the schedulers, the chain planner and the
/// validator all use it.
#[inline]
pub fn dependence_bound(src_time: u32, latency: u32, ii: u32, distance: u32) -> i64 {
    src_time as i64 + latency as i64 - ii as i64 * distance as i64
}

/// Earliest start time of `op` given its already-scheduled predecessors:
/// the maximum of [`dependence_bound`] over every incoming edge with a
/// scheduled source, clamped at 0. Self edges are excluded — they are
/// satisfied by any II at or above RecMII.
///
/// Shared by IMS and the DMS scheduler state so the two cannot drift apart.
pub fn earliest_start(ddg: &Ddg, schedule: &Schedule, op: OpId, ii: u32) -> u32 {
    let mut estart = 0i64;
    for (_, e) in ddg.preds(op) {
        if e.src == op {
            continue;
        }
        if let Some(p) = schedule.get(e.src) {
            estart = estart.max(dependence_bound(p.time, e.latency, ii, e.distance));
        }
    }
    estart.max(0) as u32
}

/// Placement of one operation in the modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// Absolute issue time within the flat (single-iteration) schedule.
    pub time: u32,
    /// Cluster executing the operation.
    pub cluster: ClusterId,
}

impl ScheduledOp {
    /// The stage (`time / II`) of the operation.
    pub fn stage(&self, ii: u32) -> u32 {
        self.time / ii
    }

    /// The row of the modulo reservation table (`time % II`).
    pub fn row(&self, ii: u32) -> u32 {
        self.time % ii
    }
}

/// A complete modulo schedule of one loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    ii: u32,
    ops: Vec<Option<ScheduledOp>>,
}

impl Schedule {
    /// Creates an empty schedule with the given II for a DDG with
    /// `num_slots` operation slots.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(ii: u32, num_slots: usize) -> Self {
        assert!(ii > 0, "the initiation interval must be at least 1");
        Schedule { ii, ops: vec![None; num_slots] }
    }

    /// The initiation interval.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Places (or re-places) an operation.
    pub fn place(&mut self, op: OpId, time: u32, cluster: ClusterId) {
        if op.index() >= self.ops.len() {
            self.ops.resize(op.index() + 1, None);
        }
        self.ops[op.index()] = Some(ScheduledOp { time, cluster });
    }

    /// Removes the placement of an operation.
    pub fn remove(&mut self, op: OpId) {
        if let Some(slot) = self.ops.get_mut(op.index()) {
            *slot = None;
        }
    }

    /// The placement of an operation, if it is scheduled.
    #[inline]
    pub fn get(&self, op: OpId) -> Option<ScheduledOp> {
        self.ops.get(op.index()).copied().flatten()
    }

    /// Iterates over all placed operations.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, ScheduledOp)> + '_ {
        self.ops.iter().enumerate().filter_map(|(i, s)| s.map(|sched| (OpId(i as u32), sched)))
    }

    /// Number of placed operations.
    pub fn len(&self) -> usize {
        self.ops.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no operation is placed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest issue time of any placed operation (0 for an empty
    /// schedule).
    pub fn max_time(&self) -> u32 {
        self.iter().map(|(_, s)| s.time).max().unwrap_or(0)
    }

    /// Number of kernel stages: `floor(max_time / II) + 1`. The prologue and
    /// epilogue each contain `stages - 1` copies of the kernel rows.
    pub fn stage_count(&self) -> u32 {
        self.max_time() / self.ii + 1
    }

    /// Total number of cycles needed to execute `trip_count` iterations:
    /// `(trip_count + stages - 1) * II`. This is the dynamic measurement the
    /// paper's figure 5 reports (summed over all loops).
    pub fn cycles(&self, trip_count: u64) -> u64 {
        (trip_count + self.stage_count() as u64 - 1) * self.ii as u64
    }

    /// Instructions per cycle achieved over `trip_count` iterations, counting
    /// only the `useful_ops` useful operations of one iteration (copy and
    /// move operations are excluded, as in the paper's figure 6).
    pub fn ipc(&self, trip_count: u64, useful_ops: usize) -> f64 {
        let cycles = self.cycles(trip_count);
        if cycles == 0 {
            return 0.0;
        }
        (trip_count as f64 * useful_ops as f64) / cycles as f64
    }
}

/// Statistics gathered while scheduling one loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Lower bounds on the II for this loop/machine pair.
    pub mii: Option<MiiBreakdown>,
    /// Number of operations evicted (unscheduled) during scheduling.
    pub evictions: u64,
    /// Number of `Copy` operations inserted by the single-use conversion.
    pub copies_inserted: u64,
    /// Number of `Move` operations inserted by DMS chains (strategy 2).
    pub moves_inserted: u64,
    /// Number of operations placed by strategy 2 (chains of moves).
    pub strategy2_placements: u64,
    /// Number of operations placed by strategy 3 (forced placement).
    pub strategy3_placements: u64,
    /// Scheduling budget consumed (number of placement attempts).
    pub budget_used: u64,
    /// Number of candidate IIs tried before success.
    pub ii_attempts: u32,
}

/// The result of scheduling one loop.
///
/// `ddg` is the graph the schedule refers to — for DMS it contains the copy
/// and move operations inserted during compilation, so it generally differs
/// from the input loop body.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Name of the scheduled loop.
    pub loop_name: String,
    /// The (possibly transformed) DDG the schedule refers to.
    pub ddg: Ddg,
    /// The modulo schedule.
    pub schedule: Schedule,
    /// Scheduling statistics.
    pub stats: SchedStats,
}

impl ScheduleResult {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Number of useful operations in the scheduled DDG.
    pub fn useful_ops(&self) -> usize {
        self.ddg.live_ops().filter(|(_, o)| o.kind.is_useful()).count()
    }

    /// Dynamic cycle count for the given trip count.
    pub fn cycles(&self, trip_count: u64) -> u64 {
        self.schedule.cycles(trip_count)
    }

    /// IPC (useful operations only) for the given trip count.
    pub fn ipc(&self, trip_count: u64) -> f64 {
        self.schedule.ipc(trip_count, self.useful_ops())
    }
}

/// Errors reported by the schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No valid schedule was found up to the II limit.
    IiLimitReached {
        /// The largest II that was attempted.
        limit: u32,
    },
    /// The II search exhausted its range without accepting a schedule, and
    /// at least one structurally-valid schedule along the way was rejected
    /// because a queue register file exceeded its capacity (pressure-aware
    /// DMS only; the remaining IIs may have failed either structurally or on
    /// capacity). Distinct from [`Self::IiLimitReached`] so capacity
    /// pressure — e.g. a machine whose queue files are smaller than the
    /// number of values a loop must route through one of them at *any* II —
    /// is visible in the error itself.
    PressureLimitReached {
        /// The largest II that was attempted.
        limit: u32,
        /// Structurally-valid schedules rejected for exceeding a capacity.
        retries: u32,
    },
    /// The loop demands a functional-unit class of which the machine has
    /// zero units, so no II — however large — can execute it.
    UnexecutableLoop {
        /// The demanded functional-unit class with zero units.
        fu: FuKind,
        /// Number of operations demanding it.
        demand: u32,
    },
    /// No 32-bit II satisfies the loop's recurrences: a circuit needs the II
    /// `rec_mii`, or (`None`) has a total distance of zero.
    RecurrenceUnschedulable {
        /// The recurrence bound, if one exists.
        rec_mii: Option<u64>,
    },
    /// An II attempt's reservation table would hold more than
    /// [`MAX_MRT_CELLS`] cells, so the attempt is refused before allocating.
    MrtTooLarge {
        /// The II of the refused attempt.
        ii: u32,
        /// The cells its table would hold.
        cells: u64,
    },
    /// IMS was asked to schedule a machine of more than one cluster; it
    /// knows nothing about partitioning (DMS does).
    ClusteredMachine {
        /// The machine's cluster count.
        clusters: u32,
    },
}

/// The most cells (II × units per row) one attempt's reservation table may
/// hold: 2^24, 64 MiB of occupant ids, 10,000 times the paper grid's largest
/// table (1,600 cells: II 40 × 40 units at 10 clusters).
pub const MAX_MRT_CELLS: u64 = 1 << 24;

/// Refuses an II attempt whose reservation table would exceed
/// [`MAX_MRT_CELLS`] with [`ScheduleError::MrtTooLarge`]. IMS and DMS call
/// it before every attempt.
///
/// # Errors
///
/// Returns [`ScheduleError::MrtTooLarge`] for such an attempt.
pub fn admit_mrt(machine: &MachineConfig, ii: u32) -> Result<(), ScheduleError> {
    let cells = Mrt::cells(machine, ii);
    if cells > MAX_MRT_CELLS {
        return Err(ScheduleError::MrtTooLarge { ii, cells });
    }
    Ok(())
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::IiLimitReached { limit } => {
                write!(f, "no valid schedule found up to II = {limit}")
            }
            ScheduleError::PressureLimitReached { limit, retries } => write!(
                f,
                "no schedule fit the queue register files up to II = {limit} \
                 ({retries} structurally-valid schedule(s) rejected for exceeding a capacity)"
            ),
            ScheduleError::UnexecutableLoop { fu, demand } => write!(
                f,
                "loop is unexecutable on this machine: {demand} operation(s) demand the {fu} \
                 unit class, of which the machine has none"
            ),
            ScheduleError::RecurrenceUnschedulable { rec_mii: Some(bound) } => write!(
                f,
                "the loop's recurrences need an II of at least {bound}, above the 32-bit limit"
            ),
            ScheduleError::RecurrenceUnschedulable { rec_mii: None } => {
                write!(f, "a dependence cycle has a total distance of zero, which no II satisfies")
            }
            ScheduleError::MrtTooLarge { ii, cells } => write!(
                f,
                "the reservation table at II = {ii} would hold {cells} cells, above the budget \
                 of {MAX_MRT_CELLS}"
            ),
            ScheduleError::ClusteredMachine { clusters } => write!(
                f,
                "IMS schedules only an unclustered machine, and this one has {clusters} clusters"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_get_remove() {
        let mut s = Schedule::new(2, 4);
        s.place(OpId(1), 5, ClusterId(0));
        assert_eq!(s.get(OpId(1)), Some(ScheduledOp { time: 5, cluster: ClusterId(0) }));
        assert_eq!(s.get(OpId(0)), None);
        assert_eq!(s.len(), 1);
        s.remove(OpId(1));
        assert!(s.is_empty());
    }

    #[test]
    fn place_beyond_initial_capacity_grows() {
        let mut s = Schedule::new(3, 1);
        s.place(OpId(7), 2, ClusterId(1));
        assert_eq!(s.get(OpId(7)).unwrap().cluster, ClusterId(1));
    }

    #[test]
    fn stage_and_row() {
        let op = ScheduledOp { time: 7, cluster: ClusterId(0) };
        assert_eq!(op.stage(3), 2);
        assert_eq!(op.row(3), 1);
    }

    #[test]
    fn cycle_and_ipc_model() {
        // II = 2, ops at times 0 and 5 -> stages = 3
        let mut s = Schedule::new(2, 2);
        s.place(OpId(0), 0, ClusterId(0));
        s.place(OpId(1), 5, ClusterId(0));
        assert_eq!(s.stage_count(), 3);
        // (100 + 3 - 1) * 2 = 204
        assert_eq!(s.cycles(100), 204);
        // 2 useful ops per iteration
        let ipc = s.ipc(100, 2);
        assert!((ipc - 200.0 / 204.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_of_empty_trip_count() {
        let s = Schedule::new(4, 1);
        assert_eq!(s.cycles(0), 0);
        assert_eq!(s.ipc(0, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_schedule_panics() {
        let _ = Schedule::new(0, 1);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ScheduleError::IiLimitReached { limit: 64 }.to_string(),
            "no valid schedule found up to II = 64"
        );
        let e = ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, demand: 3 };
        assert!(e.to_string().contains("3 operation(s)"));
        assert!(e.to_string().contains("has none"));
        let e = ScheduleError::PressureLimitReached { limit: 12, retries: 5 };
        assert!(e.to_string().contains("II = 12"));
        assert!(e.to_string().contains("5 structurally-valid"));
        let e = ScheduleError::RecurrenceUnschedulable { rec_mii: Some(1 << 32) };
        assert!(e.to_string().contains("4294967296"));
        let e = ScheduleError::RecurrenceUnschedulable { rec_mii: None };
        assert!(e.to_string().contains("total distance of zero"));
        let e = ScheduleError::MrtTooLarge { ii: 7, cells: 1 << 30 };
        assert!(e.to_string().contains("II = 7"));
        assert!(e.to_string().contains(&MAX_MRT_CELLS.to_string()));
    }

    #[test]
    fn admit_mrt_refuses_tables_above_the_cell_budget() {
        let machine = MachineConfig::paper_clustered(10); // 40 units per row
        assert_eq!(admit_mrt(&machine, 40), Ok(()));
        let widest = (MAX_MRT_CELLS / 40) as u32;
        assert_eq!(admit_mrt(&machine, widest), Ok(()));
        assert_eq!(
            admit_mrt(&machine, widest + 1),
            Err(ScheduleError::MrtTooLarge { ii: widest + 1, cells: 40 * u64::from(widest + 1) })
        );
    }

    #[test]
    fn dependence_bound_matches_the_modulo_inequality() {
        // intra-iteration edge: plain src + latency
        assert_eq!(dependence_bound(5, 2, 3, 0), 7);
        // loop-carried edge: one II of slack per unit of distance
        assert_eq!(dependence_bound(5, 2, 3, 1), 4);
        // negative slack: the bound may drop below zero without wrapping
        assert_eq!(dependence_bound(0, 1, 4, 2), -7);
        assert_eq!(dependence_bound(0, 0, u32::MAX, 1), -(u32::MAX as i64));
    }

    fn two_op_graph(latency: u32, distance: u32) -> (Ddg, OpId, OpId) {
        use dms_ir::{DepEdge, OpKind, Operand, Operation};
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let b = g.add_op(Operation::new(OpKind::Store, vec![Operand::def_at(a, distance)]));
        g.add_edge(DepEdge::flow(a, b, latency, distance));
        (g, a, b)
    }

    #[test]
    fn earliest_start_of_op_with_unscheduled_preds_is_zero() {
        let (g, _, b) = two_op_graph(2, 0);
        let s = Schedule::new(3, g.num_slots());
        assert_eq!(earliest_start(&g, &s, b, 3), 0);
    }

    #[test]
    fn earliest_start_waits_for_scheduled_producers() {
        let (g, a, b) = two_op_graph(2, 0);
        let mut s = Schedule::new(3, g.num_slots());
        s.place(a, 4, ClusterId(0));
        assert_eq!(earliest_start(&g, &s, b, 3), 6);
    }

    #[test]
    fn earliest_start_clamps_negative_slack_of_carried_edges_to_zero() {
        // producer at time 0, latency 1, distance 2, II 4: the bound is
        // 0 + 1 - 8 = -7, which must clamp to 0 instead of wrapping to a
        // huge unsigned time.
        let (g, a, b) = two_op_graph(1, 2);
        let mut s = Schedule::new(4, g.num_slots());
        s.place(a, 0, ClusterId(0));
        assert_eq!(earliest_start(&g, &s, b, 4), 0);
    }

    #[test]
    fn earliest_start_ignores_self_edges() {
        use dms_ir::{DepEdge, OpKind, Operand, Operation};
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Add, vec![Operand::Induction]));
        g.add_edge(DepEdge::flow(a, a, 10, 1));
        let mut s = Schedule::new(2, g.num_slots());
        s.place(a, 3, ClusterId(0));
        assert_eq!(earliest_start(&g, &s, a, 2), 0);
    }
}
