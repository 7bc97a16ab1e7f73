//! The Modulo Reservation Table (MRT).
//!
//! A modulo schedule with initiation interval `II` issues the same pattern of
//! operations every `II` cycles, so a resource used at time `t` is busy at
//! every time congruent to `t` modulo `II`. The MRT therefore has `II` rows;
//! each row records, per cluster and functional-unit class, which operations
//! occupy the units of that class in that row.

use crate::config::{ClusterFus, MachineConfig};
use crate::fu::FuKind;
use crate::topology::ClusterId;
use dms_ir::OpId;
use std::fmt;

/// Error returned when a reservation cannot be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtError {
    /// All units of the requested class in the requested cluster are already
    /// occupied in the requested row; the conflicting occupants are returned.
    Full {
        /// The operations occupying the requested units.
        occupants: Vec<OpId>,
    },
    /// The operation already holds a reservation.
    AlreadyPlaced(OpId),
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Full { occupants } => {
                write!(f, "no free unit in the requested slot (occupied by {occupants:?})")
            }
            MrtError::AlreadyPlaced(op) => write!(f, "{op} already holds a reservation"),
        }
    }
}

impl std::error::Error for MrtError {}

/// A placement of an operation in the MRT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Absolute schedule time of the operation.
    pub time: u32,
    /// Cluster hosting the operation.
    pub cluster: ClusterId,
    /// Functional-unit class the operation occupies.
    pub fu: FuKind,
}

/// The modulo reservation table for one machine configuration and one II.
///
/// Storage is flat and sized once at construction: a *column* is one
/// `(cluster, unit class)` pair, each row holds one occupant cell per unit
/// of the column's class, and an op's placement is found by indexing with
/// its id. Every cluster has the machine's one unit mix, so a row is that
/// mix's cells once per cluster. Each column also keeps its occupant count
/// summed over all rows, so [`Mrt::free_slots`] — which DMS strategy 2
/// evaluates for every cluster of every candidate chain — costs O(1)
/// instead of a walk over the II rows.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    num_clusters: u32,
    /// The unit mix of every cluster.
    fus: ClusterFus,
    /// Offset of each unit class's first cell within a cluster's cells.
    class_offset: [usize; FuKind::ALL.len()],
    /// Occupant cells per cluster per row (the units of the mix).
    cluster_width: usize,
    /// `ii * num_clusters * cluster_width` cells; the occupants of a
    /// `(row, column)` slot are packed at the start of its cells, in
    /// reservation order.
    cells: Vec<OpId>,
    /// Occupant count per `(row, column)` slot.
    used: Vec<u32>,
    /// Occupant count per column, summed over all rows.
    column_used: Vec<u32>,
    /// Placement per op id (`None` = no reservation).
    placements: Vec<Option<Placement>>,
    num_placed: usize,
}

impl Mrt {
    /// Creates an empty reservation table for the given machine and II.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(config: &MachineConfig, ii: u32) -> Self {
        assert!(ii > 0, "the initiation interval must be at least 1");
        let num_clusters = config.num_clusters();
        let fus = config.fus();
        let mut cluster_width = 0;
        let class_offset = FuKind::ALL.map(|kind| {
            let offset = cluster_width;
            cluster_width += fus.count(kind) as usize;
            offset
        });
        let columns = num_clusters as usize * FuKind::ALL.len();
        Mrt {
            ii,
            num_clusters,
            fus,
            class_offset,
            cluster_width,
            cells: vec![OpId(0); num_clusters as usize * cluster_width * ii as usize],
            used: vec![0; columns * ii as usize],
            column_used: vec![0; columns],
            placements: Vec::new(),
            num_placed: 0,
        }
    }

    /// The occupant cells a table for `config` at `ii` would hold: II times
    /// the machine's functional units (the width of one row). Lets a caller
    /// price a table before building it.
    pub fn cells(config: &MachineConfig, ii: u32) -> u64 {
        let units: u64 = FuKind::ALL.map(|kind| u64::from(config.total_fu(kind))).iter().sum();
        units.saturating_mul(u64::from(ii))
    }

    /// The initiation interval this table was built for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    #[inline]
    fn column(&self, cluster: ClusterId, fu: FuKind) -> usize {
        cluster.index() * FuKind::ALL.len() + fu.index()
    }

    /// Index of the `(row of time, column)` slot in `used`.
    #[inline]
    fn slot_index(&self, time: u32, column: usize) -> usize {
        (time % self.ii) as usize * self.column_used.len() + column
    }

    /// Index of the first occupant cell of `fu` in `cluster` in the row of
    /// `time`.
    #[inline]
    fn cell_base(&self, time: u32, cluster: ClusterId, fu: FuKind) -> usize {
        let row = (time % self.ii) as usize;
        (row * self.num_clusters as usize + cluster.index()) * self.cluster_width
            + self.class_offset[fu.index()]
    }

    /// Number of units of `fu` in `cluster`: the count of the machine's
    /// one unit mix.
    #[inline]
    pub fn capacity(&self, _cluster: ClusterId, fu: FuKind) -> u32 {
        self.fus.count(fu)
    }

    /// The operations occupying units of `fu` in `cluster` in the row of
    /// `time`.
    pub fn occupants(&self, time: u32, cluster: ClusterId, fu: FuKind) -> &[OpId] {
        let base = self.cell_base(time, cluster, fu);
        let used = self.used[self.slot_index(time, self.column(cluster, fu))] as usize;
        &self.cells[base..base + used]
    }

    /// Whether at least one unit of `fu` in `cluster` is free in the row of
    /// `time`.
    #[inline]
    pub fn has_free(&self, time: u32, cluster: ClusterId, fu: FuKind) -> bool {
        self.free_at(time, cluster, fu) > 0
    }

    /// Number of free units of `fu` in `cluster` in the row of `time`.
    #[inline]
    pub fn free_at(&self, time: u32, cluster: ClusterId, fu: FuKind) -> u32 {
        self.fus.count(fu) - self.used[self.slot_index(time, self.column(cluster, fu))]
    }

    /// The earliest time in the inclusive `window` at which a unit of `fu`
    /// in `cluster` is free, if any.
    pub fn first_free(&self, window: (u32, u32), cluster: ClusterId, fu: FuKind) -> Option<u32> {
        (window.0..=window.1).find(|&t| self.has_free(t, cluster, fu))
    }

    /// Reserves one unit of `fu` in `cluster` at `time` for `op`.
    ///
    /// # Errors
    ///
    /// Returns [`MrtError::Full`] (with the conflicting occupants) if no unit
    /// is free, or [`MrtError::AlreadyPlaced`] if `op` already holds a
    /// reservation.
    pub fn reserve(
        &mut self,
        op: OpId,
        time: u32,
        cluster: ClusterId,
        fu: FuKind,
    ) -> Result<(), MrtError> {
        if self.placement(op).is_some() {
            return Err(MrtError::AlreadyPlaced(op));
        }
        if !self.has_free(time, cluster, fu) {
            return Err(MrtError::Full { occupants: self.occupants(time, cluster, fu).to_vec() });
        }
        let column = self.column(cluster, fu);
        let slot = self.slot_index(time, column);
        let cell = self.cell_base(time, cluster, fu) + self.used[slot] as usize;
        self.cells[cell] = op;
        self.used[slot] += 1;
        self.column_used[column] += 1;
        if self.placements.len() <= op.index() {
            self.placements.resize(op.index() + 1, None);
        }
        self.placements[op.index()] = Some(Placement { time, cluster, fu });
        self.num_placed += 1;
        Ok(())
    }

    /// Releases the reservation held by `op`, returning its placement if it
    /// had one.
    pub fn release(&mut self, op: OpId) -> Option<Placement> {
        let placement = self.placements.get_mut(op.index())?.take()?;
        let column = self.column(placement.cluster, placement.fu);
        let slot = self.slot_index(placement.time, column);
        let base = self.cell_base(placement.time, placement.cluster, placement.fu);
        let end = base + self.used[slot] as usize;
        let at = base
            + self.cells[base..end]
                .iter()
                .position(|&o| o == op)
                .expect("a placed op occupies its slot");
        // Keep the remaining occupants in reservation order.
        self.cells.copy_within(at + 1..end, at);
        self.used[slot] -= 1;
        self.column_used[column] -= 1;
        self.num_placed -= 1;
        Some(placement)
    }

    /// The placement of `op`, if it holds a reservation.
    #[inline]
    pub fn placement(&self, op: OpId) -> Option<Placement> {
        self.placements.get(op.index()).copied().flatten()
    }

    /// Number of operations currently holding reservations.
    pub fn num_placed(&self) -> usize {
        self.num_placed
    }

    /// Total number of free unit-slots of `fu` in `cluster` across all rows
    /// of the table. This is the quantity DMS maximises when choosing between
    /// alternative move chains.
    #[inline]
    pub fn free_slots(&self, cluster: ClusterId, fu: FuKind) -> u32 {
        self.fus.count(fu) * self.ii - self.column_used[self.column(cluster, fu)]
    }

    /// Number of clusters of the underlying machine.
    #[inline]
    pub fn num_clusters(&self) -> u32 {
        self.num_clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Mrt {
        Mrt::new(&MachineConfig::paper_clustered(2), 3)
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut mrt = table();
        let op = OpId(0);
        assert!(mrt.has_free(5, ClusterId(1), FuKind::Add));
        mrt.reserve(op, 5, ClusterId(1), FuKind::Add).unwrap();
        assert!(!mrt.has_free(5, ClusterId(1), FuKind::Add));
        // same row modulo II (5 % 3 == 2) is also busy
        assert!(!mrt.has_free(2, ClusterId(1), FuKind::Add));
        // a different row is free
        assert!(mrt.has_free(3, ClusterId(1), FuKind::Add));
        let p = mrt.release(op).unwrap();
        assert_eq!(p, Placement { time: 5, cluster: ClusterId(1), fu: FuKind::Add });
        assert!(mrt.has_free(5, ClusterId(1), FuKind::Add));
        assert_eq!(mrt.num_placed(), 0);
    }

    #[test]
    fn full_slot_reports_occupants() {
        let mut mrt = table();
        mrt.reserve(OpId(0), 1, ClusterId(0), FuKind::Mul).unwrap();
        let err = mrt.reserve(OpId(1), 4, ClusterId(0), FuKind::Mul).unwrap_err();
        assert_eq!(err, MrtError::Full { occupants: vec![OpId(0)] });
    }

    #[test]
    fn double_reservation_rejected() {
        let mut mrt = table();
        mrt.reserve(OpId(0), 0, ClusterId(0), FuKind::Add).unwrap();
        let err = mrt.reserve(OpId(0), 1, ClusterId(0), FuKind::Add).unwrap_err();
        assert_eq!(err, MrtError::AlreadyPlaced(OpId(0)));
    }

    #[test]
    fn free_slots_counts_whole_column() {
        let mut mrt = table();
        assert_eq!(mrt.free_slots(ClusterId(0), FuKind::Copy), 3);
        mrt.reserve(OpId(0), 0, ClusterId(0), FuKind::Copy).unwrap();
        mrt.reserve(OpId(1), 2, ClusterId(0), FuKind::Copy).unwrap();
        assert_eq!(mrt.free_slots(ClusterId(0), FuKind::Copy), 1);
        assert_eq!(mrt.free_slots(ClusterId(1), FuKind::Copy), 3);
    }

    #[test]
    fn free_slots_matches_the_row_walk_under_random_traffic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The O(1) per-column count must equal the definition: free units
        // summed over every row of the table.
        let config = MachineConfig::paper_clustered_with(3, 2, None, crate::TopologyKind::Ring);
        let mut mrt = Mrt::new(&config, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut placed: Vec<OpId> = Vec::new();
        for step in 0..4000u32 {
            if !placed.is_empty() && rng.gen_bool(0.45) {
                let op = placed.swap_remove(rng.gen_range(0..placed.len()));
                assert!(mrt.release(op).is_some());
            } else {
                let op = OpId(step);
                let cluster = ClusterId(rng.gen_range(0..3u32));
                let fu = FuKind::ALL[rng.gen_range(0..FuKind::ALL.len())];
                if mrt.reserve(op, rng.gen_range(0..40u32), cluster, fu).is_ok() {
                    placed.push(op);
                }
            }
            for cluster in config.cluster_ids() {
                for fu in FuKind::ALL {
                    let walked: u32 = (0..mrt.ii())
                        .map(|row| {
                            mrt.capacity(cluster, fu) - mrt.occupants(row, cluster, fu).len() as u32
                        })
                        .sum();
                    assert_eq!(mrt.free_slots(cluster, fu), walked, "step {step}");
                }
            }
            assert_eq!(mrt.num_placed(), placed.len());
        }
    }

    #[test]
    fn capacity_follows_machine_config() {
        let mrt = Mrt::new(&MachineConfig::unclustered(5), 4);
        assert_eq!(mrt.capacity(ClusterId(0), FuKind::LoadStore), 5);
        assert_eq!(mrt.capacity(ClusterId(0), FuKind::Copy), 5);
        assert_eq!(mrt.num_clusters(), 1);
        // 5 units of each of the 4 classes per row, over 4 rows.
        assert_eq!(Mrt::cells(&MachineConfig::unclustered(5), 4), 80);
        // The paper grid's widest table: II 40 on the 10-cluster machine.
        assert_eq!(Mrt::cells(&MachineConfig::paper_clustered(10), 40), 1600);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = Mrt::new(&MachineConfig::paper_clustered(1), 0);
    }

    #[test]
    fn release_unplaced_returns_none() {
        let mut mrt = table();
        assert!(mrt.release(OpId(9)).is_none());
        assert!(mrt.placement(OpId(9)).is_none());
    }
}
