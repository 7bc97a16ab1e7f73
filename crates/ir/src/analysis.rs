//! Graph analyses over [`Ddg`]s: strongly connected components, recurrence
//! detection, topological ordering of the acyclic (intra-iteration) subgraph
//! and simple critical-path metrics.

use crate::ddg::Ddg;
use crate::op::OpId;
use std::collections::HashSet;

/// Computes the strongly connected components of the DDG (considering edges
/// of every kind and distance), using Tarjan's algorithm. Components are
/// returned in reverse topological order; singleton components without a
/// self-edge are included.
///
/// The depth-first search keeps its own stack of frames instead of
/// recursing, so a long dependence chain cannot overflow the thread's
/// stack; it emits the components, and the members within each, in the
/// order the recursive formulation does.
pub fn sccs(ddg: &Ddg) -> Vec<Vec<OpId>> {
    /// `index` of an op not yet visited.
    const UNVISITED: u32 = u32::MAX;
    /// `index` of an op already assigned to an emitted component.
    const DONE: u32 = u32::MAX - 1;
    let n = ddg.num_slots();
    // Per op: its visit order (or a sentinel above) and its lowlink.
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut next_index = 0u32;
    // Tarjan's stack of visited ops not yet in a component.
    let mut stack = Vec::new();
    // The depth-first path: each op with its successor edges not yet walked.
    let mut path = Vec::new();
    let mut out = Vec::new();
    for root in ddg.live_op_ids() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v.index()] = next_index;
                lowlink[v.index()] = next_index;
                next_index += 1;
                stack.push(v);
                path.push((v, ddg.succs(v)));
            }
            let Some((v, succs)) = path.last_mut() else {
                break;
            };
            let v = *v;
            if let Some((_, e)) = succs.next() {
                match index[e.dst.index()] {
                    UNVISITED => enter = Some(e.dst),
                    DONE => {}
                    on_stack => lowlink[v.index()] = lowlink[v.index()].min(on_stack),
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
            }
            if lowlink[v.index()] == index[v.index()] {
                let start = stack.iter().rposition(|&w| w == v).expect("v is on the stack");
                let comp: Vec<OpId> = stack.drain(start..).rev().collect();
                for w in &comp {
                    index[w.index()] = DONE;
                }
                out.push(comp);
            }
        }
    }
    out
}

/// Returns the set of operations that participate in a recurrence circuit
/// (a dependence cycle, necessarily with positive total iteration distance).
pub fn recurrence_ops(ddg: &Ddg) -> HashSet<OpId> {
    let mut out = HashSet::new();
    for comp in sccs(ddg) {
        if comp.len() > 1 {
            out.extend(comp);
        } else {
            let v = comp[0];
            if ddg.succs(v).any(|(_, e)| e.dst == v) {
                out.insert(v);
            }
        }
    }
    out
}

/// Whether the loop contains at least one recurrence circuit. Loops without
/// recurrences form the paper's "Set 2" (highly vectorisable, DSP-like).
pub fn has_recurrence(ddg: &Ddg) -> bool {
    !recurrence_ops(ddg).is_empty()
}

/// Topological order of the live operations considering only intra-iteration
/// edges (`distance == 0`). Returns `None` if the intra-iteration subgraph is
/// cyclic, which indicates an invalid DDG.
pub fn topological_order(ddg: &Ddg) -> Option<Vec<OpId>> {
    let n = ddg.num_slots();
    let mut indegree = vec![0usize; n];
    for (_, e) in ddg.live_edges() {
        if e.distance == 0 {
            indegree[e.dst.index()] += 1;
        }
    }
    let mut queue: Vec<OpId> = ddg.live_op_ids().filter(|id| indegree[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(ddg.num_live_ops());
    while let Some(v) = queue.pop() {
        order.push(v);
        for (_, e) in ddg.succs(v) {
            if e.distance == 0 {
                indegree[e.dst.index()] -= 1;
                if indegree[e.dst.index()] == 0 {
                    queue.push(e.dst);
                }
            }
        }
    }
    if order.len() == ddg.num_live_ops() {
        Some(order)
    } else {
        None
    }
}

/// The maximum number of *value reads* of any single result, i.e. the maximum
/// flow fan-out counted per reading operand. After the single-use conversion
/// ([`crate::transform::convert_to_single_use`]) this is at most 2.
pub fn max_flow_fanout(ddg: &Ddg) -> usize {
    let mut counts = vec![0usize; ddg.num_slots()];
    for (_, op) in ddg.live_ops() {
        for (producer, _) in op.defs_read() {
            counts[producer.index()] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
}

/// Checks that every dependence cycle has a positive total iteration
/// distance (a zero-distance cycle cannot be executed by any schedule).
pub fn cycles_have_positive_distance(ddg: &Ddg) -> bool {
    topological_order(ddg).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::op::Operand;

    #[test]
    fn acyclic_loop_has_no_recurrence() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let c = b.mul(a.into(), Operand::Invariant(0));
        b.store(c.into());
        let l = b.finish(8);
        assert!(!has_recurrence(&l.ddg));
        assert!(recurrence_ops(&l.ddg).is_empty());
        assert_eq!(sccs(&l.ddg).len(), 3);
        assert!(cycles_have_positive_distance(&l.ddg));
    }

    #[test]
    fn accumulator_is_a_recurrence() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let s = b.add_feedback(a.into(), 1);
        b.store(s.into());
        let l = b.finish(8);
        assert!(has_recurrence(&l.ddg));
        let rec = recurrence_ops(&l.ddg);
        assert_eq!(rec.len(), 1);
        assert!(rec.contains(&s));
    }

    #[test]
    fn two_op_cycle_detected() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let x = b.add(a.into(), Operand::Immediate(0));
        let y = b.mul(x.into(), Operand::Invariant(1));
        // y feeds back into x one iteration later
        b.dep(crate::DepKind::Flow, y, x, 2, 1);
        let l = b.finish(8);
        let rec = recurrence_ops(&l.ddg);
        assert!(rec.contains(&x) && rec.contains(&y));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn topological_order_respects_deps() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let c = b.add(a.into(), Operand::Immediate(1));
        let d = b.mul(c.into(), a.into());
        b.store(d.into());
        let l = b.finish(8);
        let order = topological_order(&l.ddg).unwrap();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(c));
        assert!(pos(c) < pos(d));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn fanout_counts_value_reads() {
        let mut b = LoopBuilder::new("t");
        let a = b.load(Operand::Induction);
        let _u1 = b.add(a.into(), Operand::Immediate(1));
        let _u2 = b.mul(a.into(), a.into()); // reads `a` twice
        let l = b.finish(8);
        assert_eq!(max_flow_fanout(&l.ddg), 3);
    }
}
