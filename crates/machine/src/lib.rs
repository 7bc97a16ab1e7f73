//! # dms-machine — Clustered VLIW machine model
//!
//! This crate describes the target architecture of the DMS paper (HPCA 1999):
//! a collection of clusters connected by an interconnect — the paper's
//! **bi-directional ring** by default, with chordal-ring, bus and crossbar
//! alternatives behind the same [`Topology`] surface. Each cluster contains
//! a small set of functional units (1 Load/Store, 1 Add, 1 Mul in the
//! paper's configurations) plus one Copy unit for `copy`/`move` operations,
//! a Local Register File (LRF) organised as queues, and Communication Queue
//! Register Files (CQRFs) shared with directly connected clusters.
//!
//! The crate provides:
//!
//! * [`MachineConfig`] / [`ClusterFus`] — machine descriptions (clustered and
//!   unclustered), FU counts, latencies and the interconnect family,
//! * [`FuKind`] and the [`OpKind`](dms_ir::OpKind) → FU mapping,
//! * [`topology`] — the [`Topology`] API: distances, direct connectivity,
//!   chain paths and the cluster-pair → queue-file mapping,
//! * [`Mrt`] — the modulo reservation table used by the schedulers,
//! * [`queues`] — descriptors of LRF/CQRF queue register files.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fu;
pub mod mrt;
pub mod queues;
pub mod topology;

pub use config::{ClusterFus, MachineConfig};
pub use fu::FuKind;
pub use mrt::{Mrt, MrtError, Placement};
pub use queues::{CqrfId, QueueFile};
pub use topology::{ClusterId, Link, PathCache, TopoPath, Topology, TopologyKind};
