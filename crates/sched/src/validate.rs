//! Independent validation of modulo schedules.
//!
//! The validator re-checks every constraint a correct schedule must satisfy,
//! without reusing any scheduler bookkeeping:
//!
//! 1. every live operation is placed, on an existing cluster;
//! 2. every dependence edge `(p, c)` satisfies
//!    `time(c) >= time(p) + latency - II * distance`;
//! 3. no functional-unit class in any cluster is oversubscribed in any row of
//!    the modulo reservation table;
//! 4. on a clustered machine, the endpoints of every value-carrying (flow)
//!    dependence are scheduled in directly connected clusters (same cluster
//!    or topology distance 1) — the *communication constraint* of the paper.

use crate::schedule::{dependence_bound, Schedule};
use dms_ir::{Ddg, DepEdge, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig};
use std::fmt;

/// A single constraint violation found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A live operation has no placement.
    Unscheduled(OpId),
    /// An operation is placed on a cluster that does not exist.
    BadCluster(OpId, ClusterId),
    /// A dependence edge is not satisfied by the placement times.
    Dependence {
        /// The violated edge.
        edge: DepEdge,
        /// Issue time of the producer.
        src_time: u32,
        /// Issue time of the consumer.
        dst_time: u32,
    },
    /// More operations share a functional-unit class in one MRT row of one
    /// cluster than there are units.
    Oversubscribed {
        /// MRT row (`time % II`).
        row: u32,
        /// Cluster.
        cluster: ClusterId,
        /// Functional-unit class.
        fu: FuKind,
        /// Number of operations placed there.
        used: u32,
        /// Number of units available.
        capacity: u32,
    },
    /// A flow dependence connects operations in indirectly connected
    /// clusters.
    Communication {
        /// The offending edge.
        edge: DepEdge,
        /// Cluster of the producer.
        src_cluster: ClusterId,
        /// Cluster of the consumer.
        dst_cluster: ClusterId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unscheduled(op) => write!(f, "{op} is not scheduled"),
            Violation::BadCluster(op, c) => write!(f, "{op} is placed on nonexistent cluster {c}"),
            Violation::Dependence { edge, src_time, dst_time } => write!(
                f,
                "dependence {edge} violated: src at {src_time}, dst at {dst_time}"
            ),
            Violation::Oversubscribed { row, cluster, fu, used, capacity } => write!(
                f,
                "row {row} of {cluster} uses {used} {fu} units but only {capacity} exist"
            ),
            Violation::Communication { edge, src_cluster, dst_cluster } => write!(
                f,
                "communication conflict on {edge}: {src_cluster} and {dst_cluster} are not directly connected"
            ),
        }
    }
}

/// Checks a schedule against the machine model and returns every violation
/// found (empty vector = valid schedule).
pub fn validate_schedule(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let ii = schedule.ii();
    let topology = machine.topology();

    // 1 & 2: placement existence and cluster validity.
    for (id, _) in ddg.live_ops() {
        match schedule.get(id) {
            None => violations.push(Violation::Unscheduled(id)),
            Some(s) => {
                if s.cluster.0 >= machine.num_clusters() {
                    violations.push(Violation::BadCluster(id, s.cluster));
                }
            }
        }
    }

    // 3: dependence constraints.
    for (_, edge) in ddg.live_edges() {
        let (Some(src), Some(dst)) = (schedule.get(edge.src), schedule.get(edge.dst)) else {
            continue; // already reported as Unscheduled
        };
        let lhs = dst.time as i64;
        let rhs = dependence_bound(src.time, edge.latency, ii, edge.distance);
        if lhs < rhs {
            violations.push(Violation::Dependence {
                edge: *edge,
                src_time: src.time,
                dst_time: dst.time,
            });
        }
    }

    // 4: resource constraints per MRT row.
    let mut usage = vec![0u32; ii as usize * machine.num_clusters() as usize * FuKind::ALL.len()];
    for (id, op) in ddg.live_ops() {
        let Some(s) = schedule.get(id) else { continue };
        if s.cluster.0 >= machine.num_clusters() {
            continue;
        }
        let fu = FuKind::for_op(op.kind);
        let idx = (s.time % ii) as usize * machine.num_clusters() as usize * FuKind::ALL.len()
            + s.cluster.index() * FuKind::ALL.len()
            + fu.index();
        usage[idx] += 1;
    }
    for row in 0..ii {
        for cluster in machine.cluster_ids() {
            for fu in FuKind::ALL {
                let idx = row as usize * machine.num_clusters() as usize * FuKind::ALL.len()
                    + cluster.index() * FuKind::ALL.len()
                    + fu.index();
                let used = usage[idx];
                let capacity = machine.fus().count(fu);
                if used > capacity {
                    violations.push(Violation::Oversubscribed { row, cluster, fu, used, capacity });
                }
            }
        }
    }

    // 5: communication constraints (clustered machines only).
    if machine.is_clustered() {
        for (_, edge) in ddg.live_edges() {
            if !edge.kind.carries_value() {
                continue;
            }
            let (Some(src), Some(dst)) = (schedule.get(edge.src), schedule.get(edge.dst)) else {
                continue;
            };
            if !topology.directly_connected(src.cluster, dst.cluster) {
                violations.push(Violation::Communication {
                    edge: *edge,
                    src_cluster: src.cluster,
                    dst_cluster: dst.cluster,
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{LoopBuilder, Operand};
    use dms_machine::MachineConfig;

    fn chain_loop() -> dms_ir::Loop {
        let mut b = LoopBuilder::new("chain");
        let a = b.load(Operand::Induction);
        let m = b.mul(a.into(), Operand::Invariant(0));
        b.store(m.into());
        b.finish(8)
    }

    #[test]
    fn valid_schedule_passes() {
        let l = chain_loop();
        let m = MachineConfig::unclustered(1);
        let mut s = Schedule::new(3, l.ddg.num_slots());
        let ids: Vec<_> = l.ddg.live_op_ids().collect();
        s.place(ids[0], 0, ClusterId(0)); // load
        s.place(ids[1], 2, ClusterId(0)); // mul (load latency 2)
        s.place(ids[2], 4, ClusterId(0)); // store (mul latency 2)
        assert!(validate_schedule(&l.ddg, &m, &s).is_empty());
    }

    #[test]
    fn detects_missing_and_dependence_violations() {
        let l = chain_loop();
        let m = MachineConfig::unclustered(1);
        let mut s = Schedule::new(3, l.ddg.num_slots());
        let ids: Vec<_> = l.ddg.live_op_ids().collect();
        s.place(ids[0], 0, ClusterId(0));
        s.place(ids[1], 1, ClusterId(0)); // too early: load latency is 2
        let v = validate_schedule(&l.ddg, &m, &s);
        assert!(v.iter().any(|x| matches!(x, Violation::Unscheduled(_))));
        assert!(v.iter().any(|x| matches!(x, Violation::Dependence { .. })));
    }

    #[test]
    fn detects_resource_oversubscription() {
        // two loads in the same row of a machine with one L/S unit
        let mut b = LoopBuilder::new("two_loads");
        let a = b.load(Operand::Induction);
        let c = b.load(Operand::Induction);
        let s1 = b.add(a.into(), c.into());
        b.store(s1.into());
        let l = b.finish(8);
        let m = MachineConfig::unclustered(1);
        let ids: Vec<_> = l.ddg.live_op_ids().collect();
        let mut s = Schedule::new(2, l.ddg.num_slots());
        s.place(ids[0], 0, ClusterId(0));
        s.place(ids[1], 2, ClusterId(0)); // same row as ids[0] (2 % 2 == 0)
        s.place(ids[2], 4, ClusterId(0));
        s.place(ids[3], 5, ClusterId(0));
        let v = validate_schedule(&l.ddg, &m, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::Oversubscribed { fu: FuKind::LoadStore, .. })));
    }

    #[test]
    fn detects_communication_conflicts() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(6);
        let ids: Vec<_> = l.ddg.live_op_ids().collect();
        let mut s = Schedule::new(2, l.ddg.num_slots());
        s.place(ids[0], 0, ClusterId(0));
        s.place(ids[1], 2, ClusterId(3)); // ring distance 3 from cluster 0
        s.place(ids[2], 4, ClusterId(3));
        let v = validate_schedule(&l.ddg, &m, &s);
        assert!(v.iter().any(|x| matches!(x, Violation::Communication { .. })));
        // adjacent clusters are fine
        let mut s2 = Schedule::new(2, l.ddg.num_slots());
        s2.place(ids[0], 0, ClusterId(0));
        s2.place(ids[1], 2, ClusterId(1));
        s2.place(ids[2], 4, ClusterId(2));
        let v2 = validate_schedule(&l.ddg, &m, &s2);
        assert!(!v2.iter().any(|x| matches!(x, Violation::Communication { .. })));
    }

    #[test]
    fn detects_bad_cluster() {
        let l = chain_loop();
        let m = MachineConfig::paper_clustered(2);
        let ids: Vec<_> = l.ddg.live_op_ids().collect();
        let mut s = Schedule::new(4, l.ddg.num_slots());
        s.place(ids[0], 0, ClusterId(5));
        s.place(ids[1], 2, ClusterId(0));
        s.place(ids[2], 4, ClusterId(0));
        let v = validate_schedule(&l.ddg, &m, &s);
        assert!(v.iter().any(|x| matches!(x, Violation::BadCluster(_, _))));
    }

    #[test]
    fn loop_carried_dependences_account_for_ii() {
        // s = s@(i-1) + x with add latency 1: at II >= 1 the self edge allows
        // the op to stay at the same time every iteration.
        let mut b = LoopBuilder::new("acc");
        let x = b.load(Operand::Induction);
        let sum = b.add_feedback(x.into(), 1);
        b.store(sum.into());
        let l = b.finish(8);
        let m = MachineConfig::unclustered(1);
        let mut s = Schedule::new(3, l.ddg.num_slots());
        s.place(x, 0, ClusterId(0));
        s.place(sum, 2, ClusterId(0));
        let store = l.ddg.live_op_ids().last().unwrap();
        s.place(store, 4, ClusterId(0));
        assert!(validate_schedule(&l.ddg, &m, &s).is_empty());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::Unscheduled(OpId(3));
        assert!(v.to_string().contains("op3"));
    }
}
