//! Execution of the *emitted* VLIW program.
//!
//! This module executes the code the register allocator's code generator
//! actually emits — the fully unrolled prologue, `K` repetitions of the
//! steady-state kernel, and the epilogue — the way the hardware would:
//! instruction word by instruction word, each operand read from the
//! register file its [`OperandSource`] annotation names. Every loop-variant
//! value travels through a FIFO stream with single-read discipline: the
//! consumer cluster's LRF when producer and consumer share a cluster, the
//! CQRF between them otherwise. Each stream starts with its dependence's
//! live-in values and holds no more than its queue file's capacity.
//!
//! Executing the emitted program (rather than the schedule) makes the
//! codegen layer load-bearing: a wrong operand annotation, a missing kernel
//! slot or a mis-ordered prologue changes the values reaching the stores,
//! leaves a read with no value, or fails the setup checks, and is caught by
//! [`crate::verify`].
//!
//! The same walk times the interconnect ([`crate::contention`]): each CQRF
//! stream knows at setup the link its values cross (`Topology::link`), every
//! queued value carries the first cycle its consumer may read it, so a word
//! whose operand is still crossing a busy link issues late, and the kernel
//! store issue cycles give the achieved II.

use crate::contention::{ContentionReport, Timing};
use crate::interp::StoreRecord;
use crate::values::{apply, invariant_value, live_in_value};
use dms_ir::{Ddg, OpId, OpKind};
use dms_machine::{CqrfId, Link, MachineConfig, QueueFile};
use dms_regalloc::codegen::{CodeSlot, OperandSource, VliwProgram};
use std::fmt;

/// Errors detected while executing an emitted program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A consumer tried to read from an empty LRF or CQRF stream (the value
    /// had not been produced yet).
    EmptyQueueRead {
        /// Consumer operation.
        consumer: OpId,
        /// Iteration of the consumer.
        iteration: u64,
    },
    /// A producer pushed into a full stream: the schedule keeps more values
    /// in flight than the capacity of the queue file holding them. Reported
    /// eagerly instead of dropping the value, which would corrupt every
    /// later read of the stream and misdiagnose a capacity problem as a
    /// value bug.
    QueueOverflow {
        /// Producer operation whose value did not fit.
        producer: OpId,
        /// Consumer operation owning the overflowing stream.
        consumer: OpId,
        /// The CQRF that overflowed, or `None` for the LRF of the cluster
        /// both operations sit in.
        cqrf: Option<CqrfId>,
    },
    /// The emitted VLIW program is inconsistent with the DDG it claims to
    /// implement (wrong operand annotation, wrong arity, wrong endpoint).
    MalformedProgram {
        /// The operation whose slot is inconsistent.
        op: OpId,
        /// What is wrong with it.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyQueueRead { consumer, iteration } => {
                write!(f, "{consumer} read an empty queue in iteration {iteration}")
            }
            SimError::MalformedProgram { op, detail } => {
                write!(f, "emitted program is inconsistent at {op}: {detail}")
            }
            SimError::QueueOverflow { producer, consumer, cqrf } => {
                let queue = cqrf.map_or_else(|| "their LRF".to_string(), |q| q.to_string());
                write!(
                    f,
                    "value of {producer} for {consumer} overflowed {queue}: capacity exceeded"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of one program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramReport {
    /// Total cycles under idealised timing: `(trip_count + stages - 1) * II`.
    pub cycles: u64,
    /// Operation instances executed across prologue, kernel and epilogue.
    pub instances_executed: u64,
    /// Useful (non copy/move) instances among them.
    pub useful_instances: u64,
    /// Values that travelled through a CQRF stream.
    pub cross_cluster_values: u64,
    /// Largest occupancy reached by any CQRF stream.
    pub max_queue_depth: u64,
    /// Every value stored, in issue order.
    pub stores: Vec<StoreRecord>,
    /// The same walk under the topology's link bandwidth: issue cycles,
    /// link transactions and the achieved II.
    pub contention: ContentionReport,
}

/// Key of an operand stream: `(consumer, operand index)` — one stream per
/// operand that reads a loop-variant value, exactly how the queue registers
/// are allocated.
type StreamKey = (OpId, usize);

/// One operand stream, held in the consumer cluster's LRF or in a CQRF.
struct Stream {
    /// Values in flight, oldest first, each with the first cycle its
    /// consumer may read it.
    queue: QueueFile<(i64, u64)>,
    /// The CQRF the values cross a cluster boundary through; `None` for an
    /// LRF stream.
    cqrf: Option<CqrfId>,
    /// The link each value occupies for one cycle on its way; `None` for an
    /// LRF stream and on an unconstrained fabric.
    link: Option<Link>,
}

/// Per-operation state, indexed by [`OpId::index`].
struct ProgramState {
    /// The stream of each operand, if it reads a loop-variant value.
    streams: Vec<Vec<Option<Stream>>>,
    /// The streams each producer pushes into, sorted for a deterministic
    /// push order.
    fanout: Vec<Vec<StreamKey>>,
    iteration_of: Vec<u64>,
    trip_count: u64,
    timing: Timing,
    /// Links already granted to the value being pushed, with their grant
    /// cycles: one transaction serves each value per link.
    granted: Vec<(Link, u64)>,
    report: ProgramReport,
}

/// Executes `trip_count` iterations of the emitted program, timing every
/// CQRF transfer on the links of the machine's topology.
///
/// `ddg` must be the scheduled DDG the program was emitted from (it supplies
/// the iteration distance of every operand, which the instruction encoding
/// does not carry).
///
/// # Examples
///
/// On a crossbar no transfer ever waits, so the walk achieves the scheduled
/// II exactly:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig};
/// use dms_ir::kernels;
/// use dms_machine::{MachineConfig, TopologyKind};
/// use dms_regalloc::emit;
/// use dms_sim::execute_program;
///
/// let fir = kernels::fir(8, 64);
/// let machine = MachineConfig::paper_clustered(4).with_topology(TopologyKind::Crossbar);
/// let out = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
/// let program = emit(&out, &machine);
/// let report = execute_program(&program, &out.ddg, &machine, fir.trip_count).unwrap();
/// assert_eq!(report.contention.achieved_ii, report.contention.scheduled_ii);
/// assert_eq!(report.contention.stall_cycles, 0);
/// ```
///
/// # Errors
///
/// Returns a [`SimError`] for an inconsistency between program and DDG, a
/// read from an empty stream or a push into a full one; a correctly
/// emitted program of a valid schedule never fails.
pub fn execute_program(
    program: &VliwProgram,
    ddg: &Ddg,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ProgramReport, SimError> {
    let stages = program.stages.max(1) as u64;
    let kernel_repetitions = trip_count.saturating_sub(stages - 1);
    let cycles = if trip_count == 0 { 0 } else { (trip_count + stages - 1) * program.ii as u64 };

    // --- set up one FIFO stream per LRF- or CQRF-annotated operand ----------
    // Every live operation appears exactly once in the kernel, so one pass
    // over the kernel words discovers every stream (and a preliminary pass
    // the cluster of every producer, needed to check that each annotation
    // names the consumer's own LRF or the queue file the topology actually
    // provides between the two clusters).
    let topology = machine.topology();
    let mut cluster_of = vec![None; ddg.num_slots()];
    for slot in program.kernel.iter().flat_map(|w| &w.slots) {
        cluster_of[slot.op.index()] = Some(slot.cluster);
    }
    let mut streams: Vec<Vec<Option<Stream>>> = (0..ddg.num_slots()).map(|_| Vec::new()).collect();
    let mut fanout = vec![Vec::new(); ddg.num_slots()];
    for slot in program.kernel.iter().flat_map(|w| &w.slots) {
        let operation = ddg.op(slot.op);
        let malformed = |detail| SimError::MalformedProgram { op: slot.op, detail };
        if slot.sources.len() != operation.reads.len() {
            return Err(malformed(format!(
                "slot has {} operand sources but the operation reads {} values",
                slot.sources.len(),
                operation.reads.len()
            )));
        }
        for (idx, source) in slot.sources.iter().enumerate() {
            let (producer, cqrf, file) = match *source {
                OperandSource::Lrf { producer } => (producer, None, "LRF"),
                OperandSource::Cqrf { producer, queue } => (producer, Some(queue), "CQRF"),
                _ => continue,
            };
            let Some((read_producer, distance)) = operation.reads[idx].producer() else {
                return Err(malformed(format!("operand {idx} {file} annotation is on no Def")));
            };
            let from = cluster_of[read_producer.index()].filter(|&pc| {
                read_producer == producer
                    && match cqrf {
                        None => pc == slot.cluster,
                        Some(queue) => topology.queue_between(pc, slot.cluster) == Some(queue),
                    }
            });
            let Some(from) = from else {
                return Err(malformed(format!(
                    "operand {idx} {file} annotation names the wrong endpoint"
                )));
            };
            let capacity = cqrf.map_or(machine.lrf_capacity, |_| machine.cqrf_capacity);
            let mut values = QueueFile::new(capacity.max(1) as usize);
            for k in 0..distance {
                // live-in values of loop-carried dependences, oldest first,
                // queued before cycle 0
                let value = live_in_value(ddg, producer, k as i64 - distance as i64);
                if !values.push((value, 0)) {
                    return Err(SimError::QueueOverflow { producer, consumer: slot.op, cqrf });
                }
            }
            let link = topology.link(from, slot.cluster);
            let operands = &mut streams[slot.op.index()];
            operands.resize_with(slot.sources.len(), || None);
            operands[idx] = Some(Stream { queue: values, cqrf, link });
            fanout[producer.index()].push((slot.op, idx));
        }
    }
    for keys in &mut fanout {
        keys.sort_unstable();
    }

    let mut st = ProgramState {
        streams,
        fanout,
        iteration_of: vec![0; ddg.num_slots()],
        trip_count,
        timing: Timing::new(ddg.num_slots()),
        granted: Vec::new(),
        report: ProgramReport {
            cycles,
            instances_executed: 0,
            useful_instances: 0,
            cross_cluster_values: 0,
            max_queue_depth: 0,
            stores: Vec::new(),
            contention: ContentionReport::default(),
        },
    };

    // --- issue the words in program order -----------------------------------
    // One word per cycle, in order, except that a word waits for the latest
    // CQRF operand of its active slots still crossing a link.
    let kernel = (0..kernel_repetitions).flat_map(|_| program.kernel.iter().map(|w| (w, true)));
    let words = program
        .prologue
        .iter()
        .map(|w| (w, false))
        .chain(kernel)
        .chain(program.epilogue.iter().map(|w| (w, false)));
    let (mut next_cycle, mut ideal_cycles) = (0, 0);
    for (word, in_kernel) in words {
        let at = word.slots.iter().fold(next_cycle, |at, slot| at.max(ready_cycle(&st, slot)));
        for slot in &word.slots {
            issue(&mut st, slot, at, in_kernel)?;
        }
        next_cycle = at + 1;
        ideal_cycles += 1;
    }

    st.report.max_queue_depth = st
        .streams
        .iter()
        .flatten()
        .flatten()
        .filter(|s| s.cqrf.is_some())
        .map(|s| s.queue.high_water() as u64)
        .max()
        .unwrap_or(0);
    st.report.contention = st.timing.report(program.ii, next_cycle, ideal_cycles);
    Ok(st.report)
}

/// First cycle at which every stream operand of `slot` is readable (0 for
/// a slot that is predicated off or reads no stream). An empty stream does
/// not constrain the word: the read itself reports it. Only a CQRF value
/// can hold a word back: an LRF value is readable the cycle after its
/// producer issues, and words issue in order, so every later word issues
/// at least that late.
fn ready_cycle(st: &ProgramState, slot: &CodeSlot) -> u64 {
    let ready = st.streams[slot.op.index()]
        .iter()
        .filter_map(|stream| stream.as_ref()?.queue.peek())
        .map(|&(_, ready)| ready)
        .max();
    match ready {
        Some(ready) if st.iteration_of[slot.op.index()] < st.trip_count => ready,
        _ => 0,
    }
}

/// Executes one slot occurrence, issued at cycle `at`: the next iteration
/// of its operation.
fn issue(st: &mut ProgramState, slot: &CodeSlot, at: u64, in_kernel: bool) -> Result<(), SimError> {
    let j = st.iteration_of[slot.op.index()];
    if j >= st.trip_count {
        // Ramp code for an iteration beyond the trip count (only possible
        // when trip_count < stages): the hardware predicates it off.
        return Ok(());
    }
    st.iteration_of[slot.op.index()] = j + 1;

    let mut operands = Vec::with_capacity(slot.sources.len());
    for (idx, source) in slot.sources.iter().enumerate() {
        let value = match source {
            OperandSource::Immediate(v) => *v,
            OperandSource::Invariant(k) => invariant_value(*k),
            OperandSource::Induction => j as i64,
            OperandSource::Lrf { .. } | OperandSource::Cqrf { .. } => {
                st.streams[slot.op.index()]
                    .get_mut(idx)
                    .and_then(|s| s.as_mut()?.queue.pop())
                    .ok_or(SimError::EmptyQueueRead { consumer: slot.op, iteration: j })?
                    .0
            }
        };
        operands.push(value);
    }

    let value = apply(slot.kind, &operands, j);
    st.report.instances_executed += 1;
    if slot.kind.is_useful() {
        st.report.useful_instances += 1;
    }
    if slot.kind == OpKind::Store {
        st.report.stores.push(StoreRecord { op: slot.op, iteration: j, value });
        if in_kernel {
            st.timing.store_issued(slot.op, at);
        }
    }
    // The value requests each link at the issue cycle and is readable the
    // cycle after its grant (after `at` itself on an LRF or an
    // unconstrained link). Requests come in program order and grants are
    // first-free-cycle, so every stream stays FIFO in time.
    st.granted.clear();
    for &(consumer, idx) in &st.fanout[slot.op.index()] {
        let Some(stream) = st.streams[consumer.index()][idx].as_mut() else { continue };
        let grant = match stream.link {
            Some(link) => match st.granted.iter().find(|(l, _)| *l == link) {
                Some(&(_, grant)) => grant,
                None => {
                    let grant = st.timing.acquire(link, at);
                    st.granted.push((link, grant));
                    grant
                }
            },
            None => at,
        };
        st.report.cross_cluster_values += u64::from(stream.cqrf.is_some());
        if !stream.queue.push((value, grant + 1)) {
            return Err(SimError::QueueOverflow { producer: slot.op, consumer, cqrf: stream.cqrf });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::replay_schedule;
    use crate::interp::reference_trace;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_regalloc::emit;
    use dms_sched::ims::{ims_schedule, ImsConfig};

    fn sorted(mut v: Vec<StoreRecord>) -> Vec<StoreRecord> {
        v.sort_unstable_by_key(|r| (r.iteration, r.op));
        v
    }

    #[test]
    fn emitted_program_reproduces_the_reference_trace() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let exec = execute_program(&p, &r.ddg, &m, l.trip_count)
                    .unwrap_or_else(|e| panic!("{} on {clusters} clusters: {e}", l.name));
                assert_eq!(
                    sorted(exec.stores),
                    sorted(reference_trace(&l.ddg, l.trip_count)),
                    "{} on {clusters} clusters",
                    l.name
                );
                assert_eq!(exec.useful_instances, l.useful_ops() as u64 * l.trip_count);
                assert_eq!(exec.cycles, r.cycles(l.trip_count));
            }
        }
    }

    #[test]
    fn ims_programs_execute_without_cqrf_traffic() {
        let l = kernels::fir(6, 64);
        let m = MachineConfig::unclustered(4);
        let r = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
        let p = emit(&r, &m);
        let exec = execute_program(&p, &r.ddg, &m, l.trip_count).unwrap();
        assert_eq!(exec.cross_cluster_values, 0);
        assert_eq!(exec.stores.len(), l.trip_count as usize);
    }

    #[test]
    fn trip_count_shorter_than_the_pipeline_is_predicated_off() {
        let l = kernels::horner(5, 8);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        for trips in [0u64, 1, 2] {
            let exec = execute_program(&p, &r.ddg, &m, trips).unwrap();
            assert_eq!(sorted(exec.stores), sorted(reference_trace(&l.ddg, trips)));
        }
    }

    #[test]
    fn undersized_cqrf_reports_overflow_not_a_value_bug() {
        // Find a schedule with real queue pressure (depth >= 2), then shrink
        // the CQRFs to one register and execute *without* the allocate()
        // capacity gate: the executor must report the overflow eagerly
        // instead of dropping values and misdiagnosing a capacity problem as
        // a store mismatch.
        let mut exercised = false;
        for l in [kernels::fir(16, 128), dms_ir::transform::unroll(&kernels::daxpy(512), 8)] {
            let m = MachineConfig::paper_clustered(8);
            let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
            let p = emit(&r, &m);
            let depth = execute_program(&p, &r.ddg, &m, 64).unwrap().max_queue_depth;
            if depth < 2 {
                continue;
            }
            exercised = true;
            let tight = MachineConfig::paper_clustered(8).with_cqrf_capacity(1);
            match execute_program(&p, &r.ddg, &tight, 64) {
                Err(e @ SimError::QueueOverflow { cqrf: Some(queue), .. }) => {
                    assert!(e.to_string().contains(&format!("overflowed {queue}")), "{e}");
                }
                other => panic!(
                    "{}: a depth-{depth} stream must overflow a 1-register CQRF, got {other:?}",
                    l.name
                ),
            }
            assert!(
                matches!(replay_schedule(&r, &tight, 64), Err(SimError::QueueOverflow { .. })),
                "{}: contention timing runs the same capacity-checked walk",
                l.name
            );
        }
        assert!(exercised, "no candidate schedule had queue depth >= 2");
    }

    #[test]
    fn undersized_lrf_reports_overflow_naming_the_lrf() {
        // LRF streams are capacity-checked like CQRF ones: on one cluster
        // every value stays local, and a load that takes longer than the II
        // has two values in flight, one more than a one-register LRF holds.
        let l = kernels::prefix_sum(64);
        let mut m = MachineConfig::paper_clustered(1);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        assert!(execute_program(&p, &r.ddg, &m, 64).is_ok());
        m.lrf_capacity = 1;
        match execute_program(&p, &r.ddg, &m, 64) {
            Err(e @ SimError::QueueOverflow { cqrf: None, .. }) => {
                assert!(e.to_string().contains("overflowed their LRF"), "{e}");
            }
            other => panic!("a 1-register LRF must overflow, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_slot_arity_is_reported() {
        let l = kernels::daxpy(16);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let mut p = emit(&r, &m);
        // corrupt one kernel slot: drop an operand source
        let slot = p
            .kernel
            .iter_mut()
            .flat_map(|w| &mut w.slots)
            .find(|s| s.sources.len() > 1)
            .expect("daxpy has multi-operand slots");
        slot.sources.pop();
        assert!(matches!(
            execute_program(&p, &r.ddg, &m, 8),
            Err(SimError::MalformedProgram { .. })
        ));
    }

    #[test]
    fn an_lrf_annotation_on_a_value_from_another_cluster_is_malformed() {
        // An LRF holds only the values of its own cluster: relabelling one
        // CQRF read as an LRF read of the same producer (in every word, so
        // each occurrence agrees) must be rejected, although the value the
        // operand names is the right one.
        let l = kernels::fir(16, 512);
        let m = MachineConfig::paper_clustered(8);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let mut p = emit(&r, &m);
        let (op, idx, producer) = p
            .kernel
            .iter()
            .flat_map(|w| &w.slots)
            .find_map(|s| {
                s.sources.iter().enumerate().find_map(|(idx, src)| match *src {
                    OperandSource::Cqrf { producer, .. } => Some((s.op, idx, producer)),
                    _ => None,
                })
            })
            .expect("fir16 on 8 clusters reads a value across clusters");
        let words = p.prologue.iter_mut().chain(&mut p.kernel).chain(&mut p.epilogue);
        for slot in words.flat_map(|w| &mut w.slots).filter(|s| s.op == op) {
            slot.sources[idx] = OperandSource::Lrf { producer };
        }
        match execute_program(&p, &r.ddg, &m, 64) {
            Err(SimError::MalformedProgram { op: at, detail }) => {
                assert_eq!(at, op);
                assert_eq!(
                    detail,
                    format!("operand {idx} LRF annotation names the wrong endpoint")
                );
            }
            other => panic!("expected a malformed program, got {other:?}"),
        }
    }
}
