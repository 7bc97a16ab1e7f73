//! The unrolling policy applied before scheduling.
//!
//! The paper: "The original body of many of those loops do not present enough
//! parallelism to saturate the FUs of wide-issue machines. Hence, loop
//! unrolling was performed to provide additional operations to the scheduler
//! whenever necessary."
//!
//! The policy here unrolls a loop until its body offers roughly two useful
//! operations per useful functional unit of the target machine, bounded by a
//! maximum factor. Both the clustered and the equivalent unclustered machine
//! have the same number of useful units, so the same unrolled body is fed to
//! DMS and IMS — exactly what the paper's comparison requires.

use dms_ir::{transform, Loop};
use serde::{Deserialize, Serialize};

/// Desired useful operations per useful functional unit.
const OPS_PER_FU: f64 = 2.0;

/// Upper bound on the unroll factor.
const MAX_FACTOR: u32 = 8;

/// The unrolling policy: unroll until the body offers about two useful
/// operations per useful functional unit, at most eight times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnrollPolicy {}

impl UnrollPolicy {
    /// The unroll factor chosen for a loop with `useful_ops` operations on a
    /// machine with `useful_fus` useful functional units.
    pub fn factor(&self, useful_ops: usize, useful_fus: u32) -> u32 {
        if useful_ops == 0 {
            return 1;
        }
        let wanted = (OPS_PER_FU * useful_fus as f64 / useful_ops as f64).ceil() as u32;
        wanted.clamp(1, MAX_FACTOR)
    }
}

/// Unrolls `l` for a machine with `useful_fus` useful functional units,
/// following the given policy.
pub fn unroll_for_machine(l: &Loop, useful_fus: u32, policy: &UnrollPolicy) -> Loop {
    let factor = policy.factor(l.useful_ops(), useful_fus);
    transform::unroll(l, factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::kernels;

    #[test]
    fn small_loops_get_unrolled_for_wide_machines() {
        let policy = UnrollPolicy::default();
        // vector_scale has 3 useful ops; 24 useful FUs want ~48 ops -> capped at 8
        assert_eq!(policy.factor(3, 24), 8);
        assert_eq!(policy.factor(3, 3), 2);
        assert_eq!(policy.factor(30, 3), 1);
        assert_eq!(policy.factor(0, 12), 1);
    }

    #[test]
    fn unrolled_loop_grows_accordingly() {
        let l = kernels::vector_scale(512);
        let u = unroll_for_machine(&l, 12, &UnrollPolicy::default());
        assert_eq!(u.useful_ops(), l.useful_ops() * 8);
        assert_eq!(u.trip_count, l.trip_count / 8);
    }

    #[test]
    fn large_loops_are_left_alone_on_narrow_machines() {
        let l = kernels::fir(12, 512);
        let u = unroll_for_machine(&l, 3, &UnrollPolicy::default());
        assert_eq!(u.useful_ops(), l.useful_ops());
        assert_eq!(u.trip_count, l.trip_count);
    }

    #[test]
    fn same_factor_for_clustered_and_unclustered_equivalents() {
        let l = kernels::daxpy(512);
        let policy = UnrollPolicy::default();
        // 7 clusters * 3 FUs and the unclustered 21-FU machine get the same body
        let a = unroll_for_machine(&l, 21, &policy);
        let b = unroll_for_machine(&l, 21, &policy);
        assert_eq!(a.useful_ops(), b.useful_ops());
    }
}
