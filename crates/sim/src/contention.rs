//! Contention-accurate replay of the emitted VLIW program.
//!
//! [`crate::vliw::execute_program`] is the *functional* oracle: it runs the
//! emitted program under idealised timing (one instruction word per cycle,
//! transfers free) and cross-checks every stored value. This module replays
//! the **same program** on the discrete-event core ([`crate::event`]) under
//! the transfer-bandwidth model the machine's topology declares
//! ([`dms_machine::TransferModel`] / `Topology::link_capacity`):
//!
//! * **crossbar** — unconstrained: a dedicated path per cluster pair, so
//!   transfers never wait and the replay reproduces idealised timing by
//!   construction;
//! * **bus** — a single shared medium: one transaction per cycle across all
//!   writers (a written value is a broadcast, so one transaction serves all
//!   its readers);
//! * **ring / chordal ring** — one transfer per directed link per cycle.
//!
//! A cross-cluster value requests its link at the cycle its producer word
//! issues and is *granted* the first cycle the link has a free slot; the
//! consumer word stalls until the cycle after the grant. Multi-hop routes
//! are chains of scheduled `move` operations, so a `distance`-hop value
//! occupies its route for `distance` cycles hop by hop — each hop is its
//! own single-cycle transfer on its own link, and oversubscribed links
//! serialise the values crossing them.
//!
//! The replay is timing-only: values are not recomputed (the idealised
//! executor plus the verify cross-check already pin them bit-for-bit), but
//! the FIFO pop/push discipline of every CQRF stream is replayed exactly,
//! so a word's issue cycle reflects precisely the transfers its operands
//! travelled through. The headline output is the **achieved initiation
//! interval**: the steady-state distance between successive kernel store
//! timestamps, measured over the second half of the kernel repetitions —
//! `achieved_ii == scheduled II` means the schedule's communication fits
//! the interconnect's bandwidth; a larger value quantifies the optimism of
//! the storage-only model.

use crate::event::EventQueue;
use crate::vliw::{cqrf_streams, Fanout, SimError, StreamKey};
use dms_ir::{Ddg, OpId, OpKind};
use dms_machine::{CqrfId, MachineConfig, TransferModel};
use dms_regalloc::codegen::{InstructionWord, OperandSource, VliwProgram};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// The bandwidth resource a transfer occupies for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Resource {
    /// The single shared medium of a bus.
    Medium,
    /// One directed point-to-point link, named by its queue file.
    Link(CqrfId),
}

/// Timing summary of one contention-accurate replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// The II the scheduler promised (kernel length of the program).
    pub scheduled_ii: u32,
    /// Steady-state II measured from kernel store timestamps; equals
    /// `scheduled_ii` exactly when no store ever waited on a transfer.
    /// Always `>= scheduled_ii`.
    pub achieved_ii: u32,
    /// Cycle after the last word issued (the replayed makespan).
    pub cycles: u64,
    /// Words in the program — the idealised makespan (one word per cycle).
    pub ideal_cycles: u64,
    /// `cycles - ideal_cycles`: cycles lost to transfer serialisation.
    pub stall_cycles: u64,
    /// Link transactions replayed (one per value per link, readers of a
    /// bus broadcast share one).
    pub transfers: u64,
    /// Transactions granted later than requested (link busy).
    pub serialized_transfers: u64,
}

struct Replay {
    trip_count: u64,
    model: TransferModel,
    /// Grant cycle of every pushed-but-not-popped value, FIFO per stream.
    /// Pre-loaded live-ins carry grant 0 wrapped in `Preloaded`.
    arrivals: HashMap<StreamKey, VecDeque<Arrival>>,
    /// Streams each producer pushes into, sorted for determinism.
    fanout: Fanout,
    /// The link each stream's values cross, with its slot capacity.
    links: HashMap<StreamKey, (CqrfId, u32)>,
    /// Slots used per cycle per resource.
    usage: HashMap<Resource, BTreeMap<u64, u32>>,
    /// Next iteration index of every op (predication mirror of the
    /// idealised executor).
    iteration_of: HashMap<OpId, u64>,
    /// Kernel-phase store issue timestamps, per store op.
    store_times: HashMap<OpId, Vec<u64>>,
    transfers: u64,
    serialized: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// A loop live-in pre-loaded before cycle 0: never stalls a consumer.
    Preloaded,
    /// A replayed transfer granted at the given cycle; consumable from the
    /// following cycle.
    Granted(u64),
}

impl Arrival {
    /// First cycle a consumer holding this value may issue.
    fn ready(self) -> u64 {
        match self {
            Arrival::Preloaded => 0,
            Arrival::Granted(g) => g + 1,
        }
    }
}

/// Replays `trip_count` iterations of the emitted program under the
/// topology's transfer-bandwidth model and measures the achieved II.
///
/// `ddg` must be the scheduled DDG the program was emitted from, exactly as
/// for [`crate::vliw::execute_program`].
///
/// # Examples
///
/// On a crossbar no transfer ever waits, so the replay reproduces the
/// scheduled II exactly:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig};
/// use dms_ir::kernels;
/// use dms_machine::{MachineConfig, TopologyKind};
/// use dms_regalloc::emit;
/// use dms_sim::contended_replay;
///
/// let fir = kernels::fir(8, 64);
/// let machine = MachineConfig::paper_clustered(4).with_topology(TopologyKind::Crossbar);
/// let out = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
/// let program = emit(&out, &machine);
/// let rep = contended_replay(&program, &out.ddg, &machine, fir.trip_count).unwrap();
/// assert_eq!(rep.achieved_ii, rep.scheduled_ii);
/// assert_eq!(rep.stall_cycles, 0);
/// ```
///
/// # Errors
///
/// Returns a [`SimError`] for a program/DDG inconsistency or a stream that
/// is popped before anything was pushed; a correctly emitted program of a
/// valid schedule never fails.
pub fn contended_replay(
    program: &VliwProgram,
    ddg: &Ddg,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ContentionReport, SimError> {
    // --- discover streams and links from the kernel annotations -------------
    // (the idealised executor's setup pass, so both layers reject the same
    // malformed programs)
    let topology = machine.topology();
    let (streams, fanout) = cqrf_streams(program, ddg, &topology)?;
    let mut arrivals = HashMap::new();
    let mut links = HashMap::new();
    for stream in streams {
        // Live-in values of loop-carried dependences were in the queue
        // before cycle 0: they never stall.
        arrivals.insert(stream.key, (0..stream.distance).map(|_| Arrival::Preloaded).collect());
        if let Some(cap) = topology.link_capacity(stream.from, stream.to) {
            links.insert(stream.key, (stream.queue, cap));
        }
    }
    let mut st = Replay {
        trip_count,
        model: topology.transfer_model(),
        arrivals,
        fanout,
        links,
        usage: HashMap::new(),
        iteration_of: HashMap::new(),
        store_times: HashMap::new(),
        transfers: 0,
        serialized: 0,
    };

    // --- event-driven issue of the words in program order -------------------
    // The agenda holds at most one pending event: `TryIssue` of the next
    // word (issue is in-order — word `w + 1` never issues before `w`). A
    // word whose operands are still in flight is re-scheduled for the cycle
    // its latest operand becomes consumable; same-cycle ties (a word ready
    // the very cycle a transfer lands) drain in FIFO (time, seq) order.
    let stages = program.stages.max(1) as u64;
    let kernel_repetitions = trip_count.saturating_sub(stages - 1);
    let words: Vec<&InstructionWord> = program
        .prologue
        .iter()
        .chain((0..kernel_repetitions).flat_map(|_| program.kernel.iter()))
        .chain(program.epilogue.iter())
        .collect();
    let kernel_range = program.prologue.len()
        ..program.prologue.len() + kernel_repetitions as usize * program.kernel.len();

    let mut agenda: EventQueue<usize> = EventQueue::new();
    let mut last_issue = None;
    if !words.is_empty() {
        agenda.push(0, 0);
    }
    while let Some((time, word_index)) = agenda.pop() {
        match earliest_issue(&st, words[word_index], time)? {
            Some(ready) if ready > time => agenda.push(ready, word_index), // stalled: retry
            _ => {
                issue_word(&mut st, words[word_index], time, kernel_range.contains(&word_index))?;
                last_issue = Some(time);
                if word_index + 1 < words.len() {
                    agenda.push(time + 1, word_index + 1);
                }
            }
        }
    }

    let cycles = last_issue.map_or(0, |t| t + 1);
    let ideal_cycles = words.len() as u64;
    let scheduled_ii = program.ii;
    let stall_cycles = cycles.saturating_sub(ideal_cycles);
    if stall_cycles > 0 {
        dms_telemetry::Telemetry::current().event(dms_telemetry::EventKind::LinkStall);
    }
    Ok(ContentionReport {
        scheduled_ii,
        achieved_ii: measure_achieved_ii(&st.store_times, scheduled_ii),
        cycles,
        ideal_cycles,
        stall_cycles,
        transfers: st.transfers,
        serialized_transfers: st.serialized,
    })
}

/// Emits `result` for `machine` and replays it under the machine's
/// transfer-bandwidth model: the one-call form of [`contended_replay`] for
/// callers holding a schedule rather than an emitted program (the resident
/// service, the sweep runner).
///
/// # Errors
///
/// Propagates any [`SimError`] of the replay.
pub fn replay_schedule(
    result: &dms_sched::ScheduleResult,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ContentionReport, SimError> {
    let program = dms_regalloc::emit(result, machine);
    contended_replay(&program, &result.ddg, machine, trip_count)
}

/// First cycle `>= time` at which every CQRF operand of the word's active
/// slots is consumable, or `None` when nothing constrains the word beyond
/// program order. Pure (no pops): safe to call repeatedly while stalled.
fn earliest_issue(st: &Replay, word: &InstructionWord, time: u64) -> Result<Option<u64>, SimError> {
    let mut ready: Option<u64> = None;
    for slot in &word.slots {
        let j = *st.iteration_of.get(&slot.op).unwrap_or(&0);
        if j >= st.trip_count {
            continue; // predicated off, reads nothing
        }
        for (idx, source) in slot.sources.iter().enumerate() {
            if !matches!(source, OperandSource::Cqrf { .. }) {
                continue;
            }
            let front = st
                .arrivals
                .get(&(slot.op, idx))
                .and_then(|q| q.front().copied())
                .ok_or(SimError::EmptyQueueRead { consumer: slot.op, iteration: j })?;
            ready = Some(ready.unwrap_or(time).max(front.ready()));
        }
    }
    Ok(ready)
}

/// Issues one word at `time`: pops the operand arrivals of its active
/// slots, advances their iteration counters, records kernel store
/// timestamps and replays the transfers of every producing slot.
fn issue_word(
    st: &mut Replay,
    word: &InstructionWord,
    time: u64,
    in_kernel: bool,
) -> Result<(), SimError> {
    for slot in &word.slots {
        let j = *st.iteration_of.get(&slot.op).unwrap_or(&0);
        if j >= st.trip_count {
            continue; // predicated off: no pops, no pushes, no side effects
        }
        st.iteration_of.insert(slot.op, j + 1);
        for (idx, source) in slot.sources.iter().enumerate() {
            if matches!(source, OperandSource::Cqrf { .. }) {
                st.arrivals
                    .get_mut(&(slot.op, idx))
                    .and_then(VecDeque::pop_front)
                    .ok_or(SimError::EmptyQueueRead { consumer: slot.op, iteration: j })?;
            }
        }
        if in_kernel && slot.kind == OpKind::Store {
            st.store_times.entry(slot.op).or_default().push(time);
        }
        // Replay the transfers this slot's value performs: one transaction
        // per distinct link (a bus write is a broadcast — every consumer
        // stream shares the writer's single {w, w} queue, hence one
        // transaction), requested at the issue cycle, granted at the first
        // cycle the resource has a free slot. Requests are issued in
        // program order and grants are first-free-cycle, so per-stream
        // arrival order matches per-stream push order (FIFO preserved).
        let Some(streams) = st.fanout.get(&slot.op) else { continue };
        let mut granted: Vec<(CqrfId, u64)> = Vec::new();
        for key in streams.clone() {
            let arrival = match st.links.get(&key) {
                // unconstrained path (crossbar): lands the same cycle
                None => Arrival::Granted(time),
                Some(&(link, capacity)) => {
                    let grant = match granted.iter().find(|(l, _)| *l == link) {
                        Some(&(_, g)) => g, // same value, same link: one transaction
                        None => {
                            let resource = match st.model {
                                TransferModel::SharedMedium => Resource::Medium,
                                _ => Resource::Link(link),
                            };
                            let g = acquire(&mut st.usage, resource, capacity, time);
                            st.transfers += 1;
                            if g > time {
                                st.serialized += 1;
                            }
                            granted.push((link, g));
                            g
                        }
                    };
                    Arrival::Granted(grant)
                }
            };
            if let Some(q) = st.arrivals.get_mut(&key) {
                q.push_back(arrival);
            }
        }
    }
    Ok(())
}

/// First cycle `>= request` with a free slot on `resource`, booking it.
fn acquire(
    usage: &mut HashMap<Resource, BTreeMap<u64, u32>>,
    resource: Resource,
    capacity: u32,
    request: u64,
) -> u64 {
    let booked = usage.entry(resource).or_default();
    let mut cycle = request;
    while booked.get(&cycle).copied().unwrap_or(0) >= capacity {
        cycle += 1;
    }
    *booked.entry(cycle).or_insert(0) += 1;
    cycle
}

/// Steady-state II from kernel store timestamps: per store op, the mean
/// distance between successive repetitions over the second half of its
/// samples (warm pipeline), rounded up; the achieved II of the loop is the
/// worst store's. Falls back to the scheduled II when fewer than two
/// repetitions were observed (nothing to measure — no kernel steady state).
fn measure_achieved_ii(store_times: &HashMap<OpId, Vec<u64>>, scheduled_ii: u32) -> u32 {
    let mut achieved = None;
    for times in store_times.values() {
        let n = times.len();
        if n < 2 {
            continue;
        }
        // second half of the samples; for n == 2 that is the whole range
        let lo = if n / 2 < n - 1 { n / 2 } else { 0 };
        let span = times[n - 1] - times[lo];
        let intervals = (n - 1 - lo) as u64;
        let ii = span.div_ceil(intervals);
        achieved = Some(achieved.unwrap_or(0).max(ii));
    }
    achieved.map_or(scheduled_ii, |ii| (ii as u32).max(scheduled_ii))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_machine::TopologyKind;
    use dms_regalloc::emit;

    fn replay_on(kind: TopologyKind, clusters: u32) -> Vec<(String, ContentionReport)> {
        kernels::all(40)
            .into_iter()
            .map(|l| {
                let m = MachineConfig::paper_clustered(clusters).with_topology(kind);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let rep = contended_replay(&p, &r.ddg, &m, l.trip_count)
                    .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", l.name));
                assert_eq!(rep.scheduled_ii, r.ii(), "{}", l.name);
                (l.name.clone(), rep)
            })
            .collect()
    }

    #[test]
    fn crossbar_replay_is_stall_free_and_achieves_the_scheduled_ii() {
        for (name, rep) in replay_on(TopologyKind::Crossbar, 8) {
            assert_eq!(rep.achieved_ii, rep.scheduled_ii, "{name}");
            assert_eq!(rep.stall_cycles, 0, "{name}");
            assert_eq!(rep.serialized_transfers, 0, "{name}");
            assert_eq!(rep.cycles, rep.ideal_cycles, "{name}");
        }
    }

    #[test]
    fn achieved_ii_never_beats_the_scheduled_ii() {
        for kind in [
            TopologyKind::Ring,
            TopologyKind::ChordalRing { chord: 2 },
            TopologyKind::Bus,
            TopologyKind::Crossbar,
        ] {
            for clusters in [2, 4, 8] {
                for (name, rep) in replay_on(kind, clusters) {
                    assert!(
                        rep.achieved_ii >= rep.scheduled_ii,
                        "{name} on {kind:?} x{clusters}: {} < {}",
                        rep.achieved_ii,
                        rep.scheduled_ii
                    );
                    assert!(rep.cycles >= rep.ideal_cycles, "{name}");
                    assert_eq!(rep.stall_cycles, rep.cycles - rep.ideal_cycles, "{name}");
                }
            }
        }
    }

    #[test]
    fn single_cluster_replay_has_no_transfers() {
        let l = kernels::fir(8, 64);
        let m = MachineConfig::paper_clustered(1);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        let rep = contended_replay(&p, &r.ddg, &m, l.trip_count).unwrap();
        assert_eq!(rep.transfers, 0);
        assert_eq!(rep.achieved_ii, rep.scheduled_ii);
        assert_eq!(rep.stall_cycles, 0);
    }

    #[test]
    fn bus_replay_serialises_when_writers_oversubscribe_the_medium() {
        // Across the whole suite at 8 clusters a shared single-transaction
        // medium must delay at least one transfer (the suite has loops with
        // several concurrent cross-cluster values per cycle).
        let reps = replay_on(TopologyKind::Bus, 8);
        let serialized: u64 = reps.iter().map(|(_, r)| r.serialized_transfers).sum();
        assert!(serialized > 0, "no bus transfer was ever delayed across the suite");
    }

    #[test]
    fn short_trip_counts_replay_cleanly() {
        let l = kernels::horner(5, 8);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        for trips in [0u64, 1, 2] {
            let rep = contended_replay(&p, &r.ddg, &m, trips).unwrap();
            assert!(rep.achieved_ii >= rep.scheduled_ii);
        }
    }

    #[test]
    fn mismatched_slot_arity_is_reported() {
        let l = kernels::daxpy(16);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let mut p = emit(&r, &m);
        let slot = p
            .kernel
            .iter_mut()
            .flat_map(|w| &mut w.slots)
            .find(|s| s.sources.len() > 1)
            .expect("daxpy has multi-operand slots");
        slot.sources.pop();
        assert!(matches!(
            contended_replay(&p, &r.ddg, &m, 8),
            Err(SimError::MalformedProgram { .. })
        ));
    }
}
