//! # dms-sched — Modulo scheduling: the one search behind IMS and DMS
//!
//! This crate implements the machinery of both schedulers of the
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
//!   allocator (ground truth) and the scheduler (incremental estimate),
//! * [`state`] — [`SchedulerState`], one II attempt's MRT, partial schedule
//!   and incremental pressure, with the rules of the IMS step,
//! * [`chains`] — move-chain planning, DMS's strategy 2,
//! * [`search`] — the single-candidate search: the II loop with its
//!   capacity retry, the attempt loop, and the paper's three placement
//!   strategies,
//! * [`ims`] — **Iterative Modulo Scheduling** (Rau), the scheduler used for
//!   the unclustered baseline machine in the paper's experiments: the search
//!   on one cluster,
//! * [`mod@strategy`] — the [`SchedulerStrategy`] surface selecting which
//!   search drives DMS (deterministic, beam, or an explore/exploit
//!   portfolio).
//!
//! The `dms-core` crate holds what draws random numbers: `dms_schedule`'s
//! strategy dispatch and the portfolio's challengers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chains;
pub mod ims;
pub mod mii;
pub mod pressure;
pub mod priority;
pub mod schedule;
pub mod search;
pub mod state;
pub mod strategy;
pub mod validate;

pub use chains::ChainPolicy;
pub use ims::{default_max_ii, ims_schedule, ImsConfig};
pub use mii::{mii, rec_mii, res_mii, MiiBreakdown};
pub use pressure::{CapacityExcess, Lifetime, LifetimeClass, QueuePressure};
pub use priority::heights;
pub use schedule::{
    dependence_bound, earliest_start, SchedStats, Schedule, ScheduleError, ScheduleResult,
    ScheduledOp,
};
pub use search::{DmsConfig, ScheduleOutcome};
pub use state::SchedulerState;
pub use strategy::{SchedulerStrategy, DEFAULT_EXPLOIT_PERCENT, DEFAULT_PORTFOLIO_CANDIDATES};
pub use validate::{validate_schedule, Violation};
