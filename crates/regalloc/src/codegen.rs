//! Code generation: emitting the software-pipelined loop as VLIW code.
//!
//! The paper's architecture needs no explicit instruction for near-neighbour
//! communication: "This is done by the code generator, which maps lifetimes
//! that span a cluster boundary onto the corresponding CQRF." This module is
//! that code generator. From a modulo schedule it produces the **kernel**
//! (II instruction words, issued repeatedly), the **prologue** (filling the
//! pipeline) and the **epilogue** (draining it), with every operand
//! annotated with the register file it travels through (local LRF, or the
//! CQRF between the producing and consuming clusters).

use dms_ir::{OpId, OpKind, Operand};
use dms_machine::{ClusterId, CqrfId, FuKind, MachineConfig};
use dms_sched::schedule::ScheduleResult;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where an operand value comes from, as seen by the emitted code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperandSource {
    /// An immediate constant.
    Immediate(i64),
    /// A loop-invariant register.
    Invariant(u32),
    /// The loop induction variable.
    Induction,
    /// A value produced in the same cluster, read from the local register
    /// file.
    Lrf {
        /// The producing operation.
        producer: OpId,
    },
    /// A value produced in an adjacent cluster, read from a CQRF.
    Cqrf {
        /// The producing operation.
        producer: OpId,
        /// The queue file the value travels through.
        queue: CqrfId,
    },
}

impl fmt::Display for OperandSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandSource::Immediate(v) => write!(f, "#{v}"),
            OperandSource::Invariant(k) => write!(f, "inv{k}"),
            OperandSource::Induction => write!(f, "i"),
            OperandSource::Lrf { producer } => write!(f, "{producer}@lrf"),
            OperandSource::Cqrf { producer, queue } => write!(f, "{producer}@{queue}"),
        }
    }
}

/// One operation slot of an instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeSlot {
    /// The operation occupying the slot.
    pub op: OpId,
    /// Its kind.
    pub kind: OpKind,
    /// The cluster issuing it.
    pub cluster: ClusterId,
    /// The functional unit class it occupies.
    pub fu: FuKind,
    /// Where its operands come from. A value's route is named once, at the
    /// operand that reads it.
    pub sources: Vec<OperandSource>,
}

impl fmt::Display for CodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}: {} = {}(", self.cluster, self.fu, self.op, self.kind)?;
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// One VLIW instruction word: everything issued in one cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InstructionWord {
    /// The operation slots issued this cycle, ordered by cluster then unit.
    pub slots: Vec<CodeSlot>,
}

impl InstructionWord {
    /// Whether nothing issues this cycle.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The emitted software-pipelined loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VliwProgram {
    /// Initiation interval of the kernel.
    pub ii: u32,
    /// Number of kernel stages.
    pub stages: u32,
    /// Pipeline-filling code: `(stages - 1) * II` instruction words.
    pub prologue: Vec<InstructionWord>,
    /// The steady-state kernel: `II` instruction words, issued every II
    /// cycles.
    pub kernel: Vec<InstructionWord>,
    /// Pipeline-draining code: `(stages - 1) * II` instruction words.
    pub epilogue: Vec<InstructionWord>,
}

impl VliwProgram {
    /// Total number of operation slots in the kernel.
    pub fn kernel_ops(&self) -> usize {
        self.kernel.iter().map(|w| w.slots.len()).sum()
    }

    /// Total number of operation slots across prologue, kernel and epilogue.
    pub fn total_ops(&self) -> usize {
        self.kernel_ops()
            + self.prologue.iter().map(|w| w.slots.len()).sum::<usize>()
            + self.epilogue.iter().map(|w| w.slots.len()).sum::<usize>()
    }
}

impl fmt::Display for VliwProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let section = |f: &mut fmt::Formatter<'_>, name: &str, words: &[InstructionWord]| {
            writeln!(f, "{name}:")?;
            for (c, w) in words.iter().enumerate() {
                if w.is_empty() {
                    writeln!(f, "  [{c:>3}] nop")?;
                } else {
                    for (i, slot) in w.slots.iter().enumerate() {
                        if i == 0 {
                            writeln!(f, "  [{c:>3}] {slot}")?;
                        } else {
                            writeln!(f, "        {slot}")?;
                        }
                    }
                }
            }
            Ok(())
        };
        writeln!(f, "; II = {}, stages = {}", self.ii, self.stages)?;
        section(f, "prologue", &self.prologue)?;
        section(f, "kernel", &self.kernel)?;
        section(f, "epilogue", &self.epilogue)
    }
}

/// Builds the slot describing one scheduled operation.
fn build_slot(result: &ScheduleResult, machine: &MachineConfig, op: OpId) -> CodeSlot {
    let topology = machine.topology();
    let placed = result.schedule.get(op).expect("codegen requires a complete schedule");
    let operation = result.ddg.op(op);

    let sources = operation
        .reads
        .iter()
        .map(|r| match *r {
            Operand::Immediate(v) => OperandSource::Immediate(v),
            Operand::Invariant(k) => OperandSource::Invariant(k),
            Operand::Induction => OperandSource::Induction,
            Operand::Def { op: producer, .. } => {
                let p = result
                    .schedule
                    .get(producer)
                    .expect("codegen requires every producer to be scheduled");
                if p.cluster == placed.cluster {
                    OperandSource::Lrf { producer }
                } else {
                    let queue = topology
                        .queue_between(p.cluster, placed.cluster)
                        .expect("codegen requires a communication-conflict-free schedule");
                    OperandSource::Cqrf { producer, queue }
                }
            }
        })
        .collect();

    CodeSlot {
        op,
        kind: operation.kind,
        cluster: placed.cluster,
        fu: FuKind::for_op(operation.kind),
        sources,
    }
}

/// Emits the software-pipelined program for a scheduled loop.
///
/// The prologue and epilogue are fully unrolled: prologue cycle `c` issues
/// every operation whose kernel row equals `c mod II` and whose stage is at
/// most `c / II`; epilogue cycle `e` issues every operation whose row equals
/// `e mod II` and whose stage is strictly greater than `e / II`.
///
/// # Panics
///
/// Panics if some live operation of the scheduled DDG has no placement (the
/// scheduler never produces such a result).
pub fn emit(result: &ScheduleResult, machine: &MachineConfig) -> VliwProgram {
    let ii = result.ii();
    let stages = result.schedule.stage_count();

    // Pre-build one slot per live operation, grouped by kernel row.
    let mut by_row: Vec<Vec<(u32, CodeSlot)>> = vec![Vec::new(); ii as usize];
    for (op, _) in result.ddg.live_ops() {
        let placed = result.schedule.get(op).expect("complete schedule");
        let slot = build_slot(result, machine, op);
        by_row[placed.row(ii) as usize].push((placed.stage(ii), slot));
    }
    for row in &mut by_row {
        row.sort_by_key(|(stage, slot)| (slot.cluster, slot.fu, *stage, slot.op));
    }

    let kernel: Vec<InstructionWord> = by_row
        .iter()
        .map(|row| InstructionWord { slots: row.iter().map(|(_, s)| s.clone()).collect() })
        .collect();

    let ramp_cycles = (stages.saturating_sub(1)) * ii;
    let mut prologue = Vec::with_capacity(ramp_cycles as usize);
    let mut epilogue = Vec::with_capacity(ramp_cycles as usize);
    for c in 0..ramp_cycles {
        let row = (c % ii) as usize;
        let phase = c / ii;
        prologue.push(InstructionWord {
            slots: by_row[row]
                .iter()
                .filter(|(stage, _)| *stage <= phase)
                .map(|(_, s)| s.clone())
                .collect(),
        });
        epilogue.push(InstructionWord {
            slots: by_row[row]
                .iter()
                .filter(|(stage, _)| *stage > phase)
                .map(|(_, s)| s.clone())
                .collect(),
        });
    }

    VliwProgram { ii, stages, prologue, kernel, epilogue }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_machine::MachineConfig;
    use dms_sched::pressure::lifetimes_of;
    use dms_sched::LifetimeClass;

    fn program(clusters: u32) -> (ScheduleResult, MachineConfig, VliwProgram) {
        let l = kernels::fir(8, 256);
        let m = MachineConfig::paper_clustered(clusters);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap().result;
        let p = emit(&r, &m);
        (r, m, p)
    }

    #[test]
    fn kernel_has_ii_words_and_every_op_exactly_once() {
        let (r, _, p) = program(4);
        assert_eq!(p.kernel.len(), r.ii() as usize);
        assert_eq!(p.kernel_ops(), r.ddg.num_live_ops());
        let mut seen: Vec<OpId> =
            p.kernel.iter().flat_map(|w| w.slots.iter().map(|s| s.op)).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), r.ddg.num_live_ops());
    }

    #[test]
    fn kernel_respects_fu_capacity_per_word() {
        let (_, m, p) = program(4);
        for word in &p.kernel {
            for cluster in m.cluster_ids() {
                for fu in FuKind::ALL {
                    let used =
                        word.slots.iter().filter(|s| s.cluster == cluster && s.fu == fu).count()
                            as u32;
                    assert!(used <= m.fus().count(fu));
                }
            }
        }
    }

    #[test]
    fn prologue_and_epilogue_sizes_match_stage_count() {
        let (r, _, p) = program(4);
        let expected = ((r.schedule.stage_count() - 1) * r.ii()) as usize;
        assert_eq!(p.prologue.len(), expected);
        assert_eq!(p.epilogue.len(), expected);
        // prologue + epilogue together issue (stages - 1) copies of the kernel
        let ramp_ops: usize = p.prologue.iter().chain(&p.epilogue).map(|w| w.slots.len()).sum();
        assert_eq!(ramp_ops, (r.schedule.stage_count() as usize - 1) * p.kernel_ops());
    }

    #[test]
    fn cross_cluster_operands_are_annotated_with_the_right_cqrf() {
        let (r, m, p) = program(8);
        let topology = m.topology();
        let cross_lifetimes = lifetimes_of(&r, &topology)
            .into_iter()
            .filter(|lt| matches!(lt.class, LifetimeClass::CrossCluster { .. }))
            .count();
        let cqrf_reads: usize = p
            .kernel
            .iter()
            .flat_map(|w| &w.slots)
            .flat_map(|s| &s.sources)
            .filter(|src| matches!(src, OperandSource::Cqrf { .. }))
            .count();
        // every cross-cluster lifetime corresponds to at least one CQRF read
        assert!(cross_lifetimes == 0 || cqrf_reads > 0);
        // and every CQRF annotation references adjacent clusters by construction
        for slot in p.kernel.iter().flat_map(|w| &w.slots) {
            for src in &slot.sources {
                if let OperandSource::Cqrf { queue, .. } = src {
                    assert_eq!(topology.distance(queue.writer, queue.reader), 1);
                    assert_eq!(queue.reader, slot.cluster);
                }
            }
        }
    }

    #[test]
    fn single_cluster_code_never_mentions_cqrfs() {
        let (_, _, p) = program(1);
        let text = p.to_string();
        assert!(!text.contains("CQRF"));
        assert!(text.contains("kernel:"));
        assert!(text.contains("prologue:"));
    }

    #[test]
    fn display_is_nonempty_and_mentions_ii() {
        let (r, _, p) = program(2);
        let text = p.to_string();
        assert!(text.contains(&format!("II = {}", r.ii())));
        assert!(text.lines().count() > p.kernel.len());
    }
}
