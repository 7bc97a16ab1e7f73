//! # dms-core — Distributed Modulo Scheduling (DMS)
//!
//! This crate implements the paper's primary contribution: **DMS**, an
//! algorithm that integrates modulo scheduling and code partitioning for a
//! clustered VLIW architecture in a single phase (Fernandes, Llosa, Topham —
//! HPCA 1999).
//!
//! DMS extends Iterative Modulo Scheduling with cluster awareness. For every
//! operation it applies, in order, three strategies:
//!
//! 1. **Strategy 1** — find a time slot and a cluster such that no
//!    *communication conflict* arises: every already-scheduled producer or
//!    consumer of the operation ends up in the same or an adjacent cluster.
//! 2. **Strategy 2** — if no such cluster exists, build **chains** of `move`
//!    operations through the intermediate clusters of the ring, one chain per
//!    too-distant predecessor. Chains are only built if enough Copy-unit
//!    slots are free; among the alternative ring directions the algorithm
//!    picks the option that leaves the most Copy-unit slack (ties broken by
//!    the smaller number of moves).
//! 3. **Strategy 3** — otherwise fall back to forced, IMS-style placement
//!    with backtracking, where eviction also covers communication conflicts
//!    and evicting any part of a chain dismantles the whole chain.
//!
//! Before scheduling, multiple-use lifetimes are converted to single-use
//! lifetimes with `copy` operations (a requirement of the single-read queue
//! register files), which also limits every operation to at most two
//! immediate flow successors.
//!
//! The search itself — the II loop, the three strategies, chains and the
//! scheduler state — lives in `dms-sched`, where IMS runs it on one
//! cluster. This crate holds the code that draws random numbers:
//! [`dms_schedule`]'s dispatch over the plain heuristic, `beam:W` and the
//! explore/exploit portfolio, whose challengers jitter their priorities
//! with seeded RNGs.
//!
//! # Example
//!
//! ```
//! use dms_core::{dms_schedule, DmsConfig};
//! use dms_ir::kernels;
//! use dms_machine::MachineConfig;
//! use dms_sched::validate_schedule;
//!
//! let l = kernels::fir(8, 1000);
//! let machine = MachineConfig::paper_clustered(4);
//! let result = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
//! assert!(validate_schedule(&result.ddg, &machine, &result.schedule).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dms;

pub use dms::dms_schedule;
pub use dms_sched::{DmsConfig, SchedulerStrategy};
