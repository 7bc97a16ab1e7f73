//! Operations and operands of an innermost-loop body.
//!
//! Every operation optionally produces a single value (its *result*); all
//! operations except [`OpKind::Store`] do. Operands reference either the
//! result of another operation (possibly from an earlier iteration), a
//! loop-invariant input, an immediate constant, or the loop induction
//! variable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an operation inside a [`crate::Ddg`].
///
/// Identifiers are dense indices assigned in insertion order and remain
/// stable when other operations are removed (removed operations become
/// tombstones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl OpId {
    /// Returns the identifier as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The kind of machine operation.
///
/// The paper's machine model has three *useful* functional unit classes per
/// cluster — Load/Store, Add and Mul — plus one Copy unit that executes the
/// `Copy` (single-use lifetime conversion) and `Move` (inter-cluster chain)
/// operations. Division is mapped onto the Mul unit with a longer latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Memory load (executes on the Load/Store unit).
    Load,
    /// Memory store (executes on the Load/Store unit); produces no result.
    Store,
    /// Integer/floating addition (Add unit).
    Add,
    /// Subtraction (Add unit).
    Sub,
    /// Multiplication (Mul unit).
    Mul,
    /// Division (Mul unit, longer latency).
    Div,
    /// Copy inserted by the single-use lifetime transformation (Copy unit).
    Copy,
    /// Inter-cluster move inserted by DMS strategy 2 chains (Copy unit).
    Move,
}

impl OpKind {
    /// Whether the operation performs useful computation. Copy and move
    /// operations only exist to satisfy queue and communication constraints
    /// and are excluded from IPC and FU-utilisation figures, exactly as in
    /// the paper.
    #[inline]
    pub fn is_useful(self) -> bool {
        !matches!(self, OpKind::Copy | OpKind::Move)
    }

    /// Whether the operation produces a result value.
    #[inline]
    pub fn has_result(self) -> bool {
        !matches!(self, OpKind::Store)
    }

    /// Whether this is a memory operation (Load or Store).
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// All useful operation kinds, in a stable order.
    pub const USEFUL: [OpKind; 6] =
        [OpKind::Load, OpKind::Store, OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Copy => "copy",
            OpKind::Move => "move",
        };
        f.write_str(s)
    }
}

/// A value read by an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// The result of operation `op`, produced `distance` iterations earlier
    /// (0 = same iteration). A non-zero distance creates a loop-carried
    /// (recurrence) flow dependence.
    Def {
        /// Producing operation.
        op: OpId,
        /// Iteration distance of the dependence (omega).
        distance: u32,
    },
    /// A loop-invariant input value, identified by an arbitrary small index.
    Invariant(u32),
    /// An immediate constant.
    Immediate(i64),
    /// The loop induction variable (current iteration index).
    Induction,
}

impl Operand {
    /// Convenience constructor for a same-iteration definition.
    #[inline]
    pub fn def(op: OpId) -> Self {
        Operand::Def { op, distance: 0 }
    }

    /// Convenience constructor for a loop-carried definition.
    #[inline]
    pub fn def_at(op: OpId, distance: u32) -> Self {
        Operand::Def { op, distance }
    }

    /// Returns the producing operation if this operand is a definition.
    #[inline]
    pub fn producer(&self) -> Option<(OpId, u32)> {
        match *self {
            Operand::Def { op, distance } => Some((op, distance)),
            _ => None,
        }
    }
}

impl From<OpId> for Operand {
    fn from(op: OpId) -> Self {
        Operand::def(op)
    }
}

/// A single operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    /// What the operation does (and which functional unit class it needs).
    pub kind: OpKind,
    /// The values it reads, in positional order.
    pub reads: Vec<Operand>,
}

impl Operation {
    /// Creates a new operation.
    pub fn new(kind: OpKind, reads: Vec<Operand>) -> Self {
        Self { kind, reads }
    }

    /// Iterates over the definition operands (producer, distance) read by
    /// this operation.
    pub fn defs_read(&self) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.reads.iter().filter_map(Operand::producer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_classification() {
        assert!(OpKind::Load.is_useful());
        assert!(OpKind::Store.is_useful());
        assert!(!OpKind::Copy.is_useful());
        assert!(!OpKind::Move.is_useful());
        assert!(!OpKind::Store.has_result());
        assert!(OpKind::Mul.has_result());
        assert!(OpKind::Load.is_memory());
        assert!(!OpKind::Add.is_memory());
    }

    #[test]
    fn operand_conversions() {
        let id = OpId(3);
        let o: Operand = id.into();
        assert_eq!(o, Operand::Def { op: id, distance: 0 });
        assert_eq!(o.producer(), Some((id, 0)));
        assert_eq!(Operand::Immediate(7).producer(), None);
        assert_eq!(Operand::def_at(id, 2).producer(), Some((id, 2)));
    }

    #[test]
    fn operation_defs_read() {
        let op = Operation::new(
            OpKind::Add,
            vec![Operand::def(OpId(0)), Operand::Immediate(1), Operand::def_at(OpId(1), 3)],
        );
        let defs: Vec<_> = op.defs_read().collect();
        assert_eq!(defs, vec![(OpId(0), 0), (OpId(1), 3)]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(OpId(5).to_string(), "op5");
        assert_eq!(OpKind::Move.to_string(), "move");
        assert_eq!(OpKind::Load.to_string(), "load");
    }
}
