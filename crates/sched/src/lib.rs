//! # dms-sched — Modulo scheduling framework and the IMS baseline
//!
//! This crate implements the machinery shared by both schedulers of the
//! reproduction:
//!
//! * [`mod@mii`] — lower bounds on the initiation interval: the resource-bound
//!   `ResMII` and the recurrence-bound `RecMII`,
//! * [`priority`] — Rau's height-based scheduling priority and the sparse
//!   longest-path relaxation it shares with RecMII,
//! * [`schedule`] — the modulo-schedule representation, stage counts and the
//!   dynamic cycle/IPC model used by the paper's figures,
//! * [`validate`] — an independent checker for dependence, resource and
//!   communication constraints,
//! * [`pressure`] — the queue-register lifetime math shared by the register
//!   allocator (ground truth) and the DMS scheduler (incremental estimate),
//! * [`mod@strategy`] — the [`SchedulerStrategy`] surface selecting which
//!   search drives scheduling (deterministic DMS, beam, or an
//!   explore/exploit portfolio),
//! * [`ims`] — **Iterative Modulo Scheduling** (Rau), the scheduler used for
//!   the unclustered baseline machine in the paper's experiments, and the
//!   rules of its scheduling step (worklist order, window, eviction victim,
//!   violated successors).
//!
//! The DMS scheduler itself (cluster-aware scheduling with move chains) lives
//! in the `dms-core` crate: it runs the IMS step defined here and adds its
//! three placement strategies.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ims;
pub mod mii;
pub mod pressure;
pub mod priority;
pub mod schedule;
pub mod strategy;
pub mod validate;

pub use ims::{default_max_ii, ims_schedule, ImsConfig};
pub use mii::{mii, rec_mii, res_mii, MiiBreakdown};
pub use pressure::{CapacityExcess, Lifetime, LifetimeClass, QueuePressure};
pub use priority::heights;
pub use schedule::{
    dependence_bound, earliest_start, SchedStats, Schedule, ScheduleError, ScheduleResult,
    ScheduledOp,
};
pub use strategy::{SchedulerStrategy, DEFAULT_EXPLOIT_PERCENT, DEFAULT_PORTFOLIO_CANDIDATES};
pub use validate::{validate_schedule, Violation};
