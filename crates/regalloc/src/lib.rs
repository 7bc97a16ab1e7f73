//! # dms-regalloc — Lifetimes and queue register file allocation
//!
//! The paper's architecture stores loop-variant lifetimes in *queue* register
//! files: the Local Register File (LRF) of the producing cluster for
//! intra-cluster values, and the Communication Queue Register File (CQRF)
//! between two adjacent clusters for values that cross a cluster boundary
//! (Fernandes, Llosa, Topham, EURO-PAR'97 describe the allocation scheme this
//! module reproduces).
//!
//! After modulo scheduling, every value-carrying (flow) dependence of the
//! scheduled DDG becomes one *lifetime*. [`allocate`] assigns each lifetime
//! its queue file and reports the per-LRF and per-CQRF register
//! requirements ([`RegAllocResult::pressure`]), the quantity a hardware
//! designer needs to size the queue files. The lifetime math, the
//! requirement sums and the capacity check all live in
//! `dms_sched::pressure`, the same code the DMS scheduler uses for its
//! incremental estimate, so a [`AllocError::CapacityExceeded`] carries
//! exactly the `CapacityExcess` the scheduler's pressure retries reject on.
//! [`emit`] then lowers the schedule to the annotated VLIW program.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codegen;
pub mod queues;

pub use codegen::{emit, VliwProgram};
pub use queues::{allocate, AllocError, RegAllocResult};
