//! # dms-sim — Execution of modulo-scheduled clustered VLIW loops
//!
//! The paper evaluates DMS statically (initiation intervals, derived cycle
//! counts). This crate goes one step further and *executes* the generated
//! schedules, which both validates the reproduction and exercises the queue
//! register file semantics of the architecture. It has two executors (one
//! of the loop, one of the emitted program) and the oracle built on them:
//!
//! * [`interp`] — a sequential reference interpreter of a loop DDG, defining
//!   the semantics every correct schedule must reproduce,
//! * [`vliw`] — the executor of the *emitted* VLIW program (the
//!   `dms_regalloc::emit` output): prologue, kernel repetitions and epilogue
//!   run instruction word by instruction word, operands read from the
//!   register files their codegen annotations name, every loop-variant
//!   value — local (LRF) or cross-cluster (CQRF) — routed through a
//!   capacity-bounded FIFO stream with single-read discipline; the same
//!   walk times every CQRF transfer under the topology's link bandwidth,
//! * [`contention`] — that timing model (each link's next free cycle, the
//!   achieved II) and [`replay_schedule`], its one-call form for a schedule,
//! * [`verify`] — the end-to-end oracle: validate → allocate → emit →
//!   execute → cross-check against the scalar reference,
//! * [`values`] — the deterministic value semantics shared by all of them.
//!
//! The entry point is [`verify_schedule`], re-exported at the workspace
//! root as `dms::verify_schedule`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod contention;
#[cfg(test)]
mod exec;
pub mod interp;
pub mod values;
pub mod verify;
pub mod vliw;

pub use contention::{replay_schedule, ContentionReport};
pub use interp::{reference_trace, StoreRecord};
pub use verify::{verify_schedule, VerifyError, VerifyReport};
pub use vliw::{execute_program, ProgramReport, SimError};
