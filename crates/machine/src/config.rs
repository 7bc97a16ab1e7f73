//! Machine configurations: clusters, functional-unit counts and latencies.

use crate::fu::FuKind;
use crate::topology::{ClusterId, Topology, TopologyKind};
use dms_ir::LatencySpec;
use serde::{Deserialize, Serialize};

/// Functional units available in one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterFus {
    /// Number of Load/Store units.
    pub load_store: u32,
    /// Number of Add units.
    pub add: u32,
    /// Number of Mul units.
    pub mul: u32,
    /// Number of Copy units (execute copy and move operations only).
    pub copy: u32,
}

impl ClusterFus {
    /// The paper's cluster: 1 L/S, 1 ADD, 1 MUL plus 1 Copy unit.
    pub const PAPER: ClusterFus = ClusterFus { load_store: 1, add: 1, mul: 1, copy: 1 };

    /// Number of units of the given class.
    #[inline]
    pub fn count(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::LoadStore => self.load_store,
            FuKind::Add => self.add,
            FuKind::Mul => self.mul,
            FuKind::Copy => self.copy,
        }
    }

    /// Number of useful (non-Copy) units in the cluster.
    pub fn useful(&self) -> u32 {
        self.load_store + self.add + self.mul
    }

    /// Scales every useful unit count by `n` (used to build the unclustered
    /// equivalents of an `n`-cluster machine).
    pub fn scaled(&self, n: u32) -> ClusterFus {
        ClusterFus {
            load_store: self.load_store * n,
            add: self.add * n,
            mul: self.mul * n,
            copy: self.copy * n,
        }
    }
}

impl Default for ClusterFus {
    fn default() -> Self {
        ClusterFus::PAPER
    }
}

/// A complete machine description: a count of identical clusters, the
/// functional units of each, operation latencies and queue register file
/// capacities. A plain `Copy` value: it owns no heap block.
///
/// # Example
///
/// ```
/// use dms_machine::MachineConfig;
///
/// let clustered = MachineConfig::paper_clustered(4);
/// let unclustered = MachineConfig::unclustered(4);
/// assert_eq!(clustered.total_useful_fus(), 12);
/// assert_eq!(unclustered.total_useful_fus(), 12);
/// assert!(clustered.is_clustered());
/// assert!(!unclustered.is_clustered());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    clusters: u32,
    fus: ClusterFus,
    latency: LatencySpec,
    /// The interconnect family connecting the clusters (the paper's
    /// bi-directional ring by default).
    pub topology_kind: TopologyKind,
    /// Capacity (in values) of each CQRF FIFO queue.
    pub cqrf_capacity: u32,
    /// Capacity (in values) of each LRF queue.
    pub lrf_capacity: u32,
}

impl MachineConfig {
    /// Default CQRF capacity used when none is specified.
    pub const DEFAULT_CQRF_CAPACITY: u32 = 32;
    /// Default LRF queue capacity used when none is specified.
    pub const DEFAULT_LRF_CAPACITY: u32 = 64;

    /// A machine with the given per-cluster unit mix, identical in every
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0`.
    pub fn homogeneous(clusters: u32, fus: ClusterFus, latency: LatencySpec) -> Self {
        assert!(clusters > 0, "a machine needs at least one cluster");
        MachineConfig {
            clusters,
            fus,
            latency,
            topology_kind: TopologyKind::Ring,
            cqrf_capacity: Self::DEFAULT_CQRF_CAPACITY,
            lrf_capacity: Self::DEFAULT_LRF_CAPACITY,
        }
    }

    /// The paper's clustered machine: `clusters` clusters, each with
    /// 1 L/S + 1 ADD + 1 MUL + 1 Copy unit, default latencies.
    pub fn paper_clustered(clusters: u32) -> Self {
        Self::homogeneous(clusters, ClusterFus::PAPER, LatencySpec::default())
    }

    /// The paper's clustered machine as the sweep and the wire parameterise
    /// it: `copy_units` Copy units per cluster (the paper has one; §5
    /// suggests "additional FUs to schedule move operations"), an optional
    /// CQRF capacity override and the interconnect.
    pub fn paper_clustered_with(
        clusters: u32,
        copy_units: u32,
        cqrf_capacity: Option<u32>,
        topology: TopologyKind,
    ) -> Self {
        let fus = ClusterFus { copy: copy_units, ..ClusterFus::PAPER };
        let machine =
            Self::homogeneous(clusters, fus, LatencySpec::default()).with_topology(topology);
        match cqrf_capacity {
            Some(capacity) => machine.with_cqrf_capacity(capacity),
            None => machine,
        }
    }

    /// The unclustered machine equivalent to `equivalent_clusters` clusters:
    /// a single cluster with all the useful functional units and no
    /// communication constraints. Its single register file stands in for the
    /// `equivalent_clusters` per-cluster LRFs of the clustered machine, so
    /// its capacity scales with the cluster count (otherwise wide unrolled
    /// loops would spuriously exceed a single cluster's 64 registers on the
    /// supposedly unconstrained ideal machine).
    pub fn unclustered(equivalent_clusters: u32) -> Self {
        assert!(equivalent_clusters > 0, "a machine needs at least one cluster");
        let mut m = Self::homogeneous(
            1,
            ClusterFus::PAPER.scaled(equivalent_clusters),
            LatencySpec::default(),
        );
        m.lrf_capacity = Self::DEFAULT_LRF_CAPACITY.saturating_mul(equivalent_clusters);
        m
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencySpec) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the CQRF capacity.
    pub fn with_cqrf_capacity(mut self, capacity: u32) -> Self {
        self.cqrf_capacity = capacity;
        self
    }

    /// Replaces the interconnect family (the cluster count stays as is).
    pub fn with_topology(mut self, kind: TopologyKind) -> Self {
        self.topology_kind = kind;
        self
    }

    /// The operation latency model of this machine.
    #[inline]
    pub fn latency(&self) -> &LatencySpec {
        &self.latency
    }

    /// Number of clusters.
    #[inline]
    pub fn num_clusters(&self) -> u32 {
        self.clusters
    }

    /// Whether the machine has more than one cluster (and therefore
    /// communication constraints).
    #[inline]
    pub fn is_clustered(&self) -> bool {
        self.clusters > 1
    }

    /// The interconnect topology connecting the clusters.
    #[inline]
    pub fn topology(&self) -> Topology {
        Topology::new(self.topology_kind, self.num_clusters())
    }

    /// Functional-unit mix of every cluster.
    #[inline]
    pub fn fus(&self) -> ClusterFus {
        self.fus
    }

    /// Total number of units of `kind` across all clusters.
    pub fn total_fu(&self, kind: FuKind) -> u32 {
        self.fus.count(kind) * self.clusters
    }

    /// Total number of useful (non-Copy) functional units — the quantity the
    /// paper uses on the x-axis of figures 5 and 6.
    pub fn total_useful_fus(&self) -> u32 {
        self.fus.useful() * self.clusters
    }

    /// Iterates over all cluster identifiers.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.num_clusters()).map(ClusterId)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_clustered(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::OpKind;

    #[test]
    fn paper_configuration_counts() {
        let m = MachineConfig::paper_clustered(8);
        assert_eq!(m.num_clusters(), 8);
        assert_eq!(m.total_useful_fus(), 24);
        assert_eq!(m.total_fu(FuKind::Copy), 8);
        assert_eq!(m.fus().count(FuKind::Mul), 1);
        assert!(m.is_clustered());
    }

    #[test]
    fn unclustered_equivalent() {
        let m = MachineConfig::unclustered(7);
        assert_eq!(m.num_clusters(), 1);
        assert!(!m.is_clustered());
        assert_eq!(m.total_useful_fus(), 21);
        assert_eq!(m.fus().count(FuKind::Add), 7);
        assert_eq!(m.total_fu(FuKind::Copy), 7);
    }

    #[test]
    fn copy_unit_ablation_config() {
        let m = MachineConfig::paper_clustered_with(6, 2, Some(12), TopologyKind::Bus);
        assert_eq!(m.total_fu(FuKind::Copy), 12);
        assert_eq!(m.total_useful_fus(), 18);
        assert_eq!((m.cqrf_capacity, m.topology_kind), (12, TopologyKind::Bus));
        // one Copy unit, no override and the ring is exactly the paper's machine
        assert_eq!(
            MachineConfig::paper_clustered_with(6, 1, None, TopologyKind::Ring),
            MachineConfig::paper_clustered(6)
        );
    }

    #[test]
    fn latency_override() {
        let m = MachineConfig::paper_clustered(2).with_latency(LatencySpec::uniform(1));
        assert_eq!(m.latency().of(OpKind::Load), 1);
        assert_eq!(m.latency().of(OpKind::Div), 1);
    }

    #[test]
    fn units_for_op() {
        let m = MachineConfig::paper_clustered(2);
        assert_eq!(m.fus().count(FuKind::for_op(OpKind::Load)), 1);
        assert_eq!(m.fus().count(FuKind::for_op(OpKind::Move)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_cluster_machine_panics() {
        let _ = MachineConfig::paper_clustered(0);
    }

    #[test]
    fn topology_override_reaches_the_machine_topology() {
        let m = MachineConfig::paper_clustered(6).with_topology(TopologyKind::Bus);
        assert_eq!(m.topology_kind, TopologyKind::Bus);
        assert!(m.topology().directly_connected(ClusterId(0), ClusterId(3)));
        assert_eq!(m.topology().queue_files().len(), 6);
        // the default stays the paper's ring
        let r = MachineConfig::paper_clustered(6);
        assert_eq!(r.topology_kind, TopologyKind::Ring);
        assert!(!r.topology().directly_connected(ClusterId(0), ClusterId(3)));
        assert_eq!(r.topology().queue_files().len(), 12);
    }

    #[test]
    fn unclustered_register_capacity_scales_with_equivalent_clusters() {
        // The ideal machine's single LRF stands in for n per-cluster LRFs.
        assert_eq!(MachineConfig::unclustered(1).lrf_capacity, 64);
        assert_eq!(MachineConfig::unclustered(4).lrf_capacity, 256);
        assert_eq!(MachineConfig::unclustered(10).lrf_capacity, 640);
        // clustered machines keep the per-cluster capacity
        assert_eq!(MachineConfig::paper_clustered(10).lrf_capacity, 64);
    }
}
