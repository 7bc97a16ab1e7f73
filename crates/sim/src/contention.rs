//! Contention timing of the emitted VLIW program.
//!
//! [`crate::vliw::execute_program`] runs the emitted program once, moving
//! values and timing the interconnect in the same walk. This module holds
//! the timing half: one next-free cycle per [`Link`] the machine's topology
//! names (`Topology::link`), and the achieved-II measurement.
//!
//! * **crossbar** — unconstrained: a dedicated path per cluster pair, so
//!   transfers never wait and the walk reproduces idealised timing by
//!   construction;
//! * **bus** — a single shared medium: one transaction per cycle across all
//!   writers (a written value is a broadcast, so one transaction serves all
//!   its readers);
//! * **ring / chordal ring** — one transfer per directed link per cycle.
//!
//! A cross-cluster value requests its link at the cycle its producer word
//! issues and is *granted* the later of that cycle and the link's next free
//! cycle; the consumer word stalls until the cycle after the grant. Words
//! issue in order, one per cycle at best, so a stall delays every later
//! word. Multi-hop routes are chains of scheduled `move` operations, so a
//! `distance`-hop value occupies its route for `distance` cycles hop by hop
//! — each hop is its own single-cycle transfer on its own link, and
//! oversubscribed links serialise the values crossing them.
//!
//! The headline output is the **achieved initiation interval**: the
//! steady-state distance between successive kernel store timestamps,
//! measured over the second half of the kernel repetitions —
//! `achieved_ii == scheduled II` means the schedule's communication fits
//! the interconnect's bandwidth; a larger value quantifies the optimism of
//! the storage-only model.

use crate::vliw::{execute_program, SimError};
use dms_ir::OpId;
use dms_machine::{Link, MachineConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Timing summary of one program walk under the topology's link
/// bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// The II the scheduler promised (kernel length of the program).
    pub scheduled_ii: u32,
    /// Steady-state II measured from kernel store timestamps; equals
    /// `scheduled_ii` exactly when no store ever waited on a transfer.
    /// Always `>= scheduled_ii`.
    pub achieved_ii: u32,
    /// Cycle after the last word issued (the contended makespan).
    pub cycles: u64,
    /// Words in the program — the idealised makespan (one word per cycle).
    pub ideal_cycles: u64,
    /// `cycles - ideal_cycles`: cycles lost to transfer serialisation.
    pub stall_cycles: u64,
    /// Link transactions (one per value per link, readers of a bus
    /// broadcast share one).
    pub transfers: u64,
    /// Transactions granted later than requested (link busy).
    pub serialized_transfers: u64,
}

/// The timing state of one program walk: each link's next free cycle,
/// transaction counts and kernel store issue cycles.
#[derive(Debug)]
pub(crate) struct Timing {
    /// The first cycle each link is free again.
    next_free: HashMap<Link, u64>,
    /// Kernel-phase store issue timestamps, indexed by [`OpId::index`].
    store_times: Vec<Vec<u64>>,
    transfers: u64,
    serialized: u64,
}

impl Timing {
    /// Timing for a walk of a DDG with `slots` op slots.
    pub(crate) fn new(slots: usize) -> Self {
        Timing {
            next_free: HashMap::new(),
            store_times: vec![Vec::new(); slots],
            transfers: 0,
            serialized: 0,
        }
    }

    /// Books one transaction on `link` requested at cycle `request`, and
    /// returns its grant: the later of `request` and the link's next free
    /// cycle. A link carries one transfer per cycle, and the walk requests
    /// in nondecreasing cycle order, so no cycle before the next free one
    /// can still be free: the grant is the first free cycle.
    pub(crate) fn acquire(&mut self, link: Link, request: u64) -> u64 {
        let next = self.next_free.entry(link).or_default();
        let grant = request.max(*next);
        *next = grant + 1;
        self.transfers += 1;
        self.serialized += u64::from(grant > request);
        grant
    }

    /// Records that store `op` issued at `cycle` in the kernel phase.
    pub(crate) fn store_issued(&mut self, op: OpId, cycle: u64) {
        self.store_times[op.index()].push(cycle);
    }

    /// The walk's summary: `cycles` is the cycle after the last word
    /// issued, `ideal_cycles` the number of words.
    pub(crate) fn report(
        &self,
        scheduled_ii: u32,
        cycles: u64,
        ideal_cycles: u64,
    ) -> ContentionReport {
        ContentionReport {
            scheduled_ii,
            achieved_ii: measure_achieved_ii(&self.store_times, scheduled_ii),
            cycles,
            ideal_cycles,
            stall_cycles: cycles - ideal_cycles,
            transfers: self.transfers,
            serialized_transfers: self.serialized,
        }
    }
}

/// Emits `result` for `machine`, executes it and returns the contention
/// half of the report: the one-call form for callers holding a schedule
/// rather than an emitted program.
///
/// # Errors
///
/// Propagates any [`SimError`] of the execution.
pub fn replay_schedule(
    result: &dms_sched::ScheduleResult,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ContentionReport, SimError> {
    let program = dms_regalloc::emit(result, machine);
    Ok(execute_program(&program, &result.ddg, machine, trip_count)?.contention)
}

/// Steady-state II from kernel store timestamps: per store op, the mean
/// distance between successive repetitions over the second half of its
/// samples (warm pipeline), rounded up; the achieved II of the loop is the
/// worst store's. Falls back to the scheduled II when fewer than two
/// repetitions were observed (nothing to measure — no kernel steady state).
fn measure_achieved_ii(store_times: &[Vec<u64>], scheduled_ii: u32) -> u32 {
    let mut achieved = None;
    for times in store_times {
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
    use dms_machine::{ClusterId, CqrfId, TopologyKind};
    use dms_regalloc::emit;
    use std::collections::VecDeque;

    fn replay_on(kind: TopologyKind, clusters: u32) -> Vec<(String, ContentionReport)> {
        kernels::all(40)
            .into_iter()
            .map(|l| {
                let m = MachineConfig::paper_clustered(clusters).with_topology(kind);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let rep = execute_program(&p, &r.ddg, &m, l.trip_count)
                    .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", l.name))
                    .contention;
                assert_eq!(rep.scheduled_ii, r.ii(), "{}", l.name);
                (l.name.clone(), rep)
            })
            .collect()
    }

    /// The slot-window `acquire` the next-free cycle replaced: per link,
    /// the slots used in each cycle from the latest request on, each cycle
    /// holding `slots` transfers.
    #[derive(Default)]
    struct SlotWindow {
        usage: HashMap<Link, (u64, VecDeque<u32>)>,
        transfers: u64,
        serialized: u64,
    }

    impl SlotWindow {
        fn acquire(&mut self, link: Link, slots: u32, request: u64) -> u64 {
            let (base, booked) = self.usage.entry(link).or_default();
            assert!(request >= *base, "link requests must arrive in cycle order");
            booked.drain(..booked.len().min((request - *base) as usize));
            *base = request;
            let wait = booked.iter().position(|&used| used < slots).unwrap_or(booked.len());
            if wait == booked.len() {
                booked.push_back(0);
            }
            booked[wait] += 1;
            self.transfers += 1;
            self.serialized += u64::from(wait > 0);
            request + wait as u64
        }
    }

    #[test]
    fn next_free_cycle_grants_equal_the_one_slot_window() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let c = ClusterId;
        let links = [
            Link::Medium,
            Link::Queue(CqrfId { writer: c(0), reader: c(1) }),
            Link::Queue(CqrfId { writer: c(1), reader: c(0) }),
            Link::Queue(CqrfId { writer: c(2), reader: c(3) }),
            Link::Queue(CqrfId { writer: c(3), reader: c(2) }),
        ];
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut timing, mut window) = (Timing::new(0), SlotWindow::default());
            let mut cycle = 0u64;
            for _ in 0..2_000 {
                // Mostly the same cycle or the next (bursts), now and then a
                // long gap; a request never goes back in time.
                cycle += match rng.gen_range(0..10u32) {
                    0..=4 => 0,
                    5..=8 => 1,
                    _ => rng.gen_range(2..200u64),
                };
                let link = links[rng.gen_range(0..links.len())];
                let expected = window.acquire(link, 1, cycle);
                assert_eq!(timing.acquire(link, cycle), expected, "seed {seed} {link:?} @{cycle}");
            }
            assert!(window.serialized > 0, "seed {seed}: the stream never made a link wait");
            assert_eq!(timing.transfers, window.transfers, "seed {seed}");
            assert_eq!(timing.serialized, window.serialized, "seed {seed}");
        }
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
        let rep = execute_program(&p, &r.ddg, &m, l.trip_count).unwrap().contention;
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
            let rep = execute_program(&p, &r.ddg, &m, trips).unwrap().contention;
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
            execute_program(&p, &r.ddg, &m, 8),
            Err(SimError::MalformedProgram { .. })
        ));
    }
}
