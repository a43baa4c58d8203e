//! §4.3 — bounding the reduction in randomness.
//!
//! Every SCADDAR operation draws its fresh randomness from the quotient
//! `q_{j-1} = X_{j-1} div N_{j-1}`, shrinking the usable random range by
//! about a factor `N_{j-1}`. The paper quantifies the consequence with
//! the **unfairness coefficient** of a placement scheme,
//!
//! ```text
//! f = (largest expected load) / (smallest expected load) - 1
//! ```
//!
//! and proves (Lemmas 4.2/4.3):
//!
//! * `R_k div N_k >= R_0 div (N_0·N_1·…·N_k)` — the surviving range;
//! * if `sigma_k = N_0·…·N_k <= R_0·eps/(1+eps)` then `f(R_k,N_k) < eps`.
//!
//! The resulting **rule of thumb**: with `b` random bits, average disk
//! count `avg`, and tolerance `eps`, about
//! `k + 1 <= (b - log2(1/eps)) / log2(avg)` operations are safe; after
//! that the paper recommends a full redistribution (a fresh epoch 0).
//! [`FairnessTracker`] implements the paper's closing advice to "keep
//! track of the quantity sigma_k explicitly and find out whether the next
//! operation will lead to a violation of the precondition".

use crate::log::ScalingLog;
use scaddar_prng::Bits;

/// Unfairness coefficient `f(R, N) = 1 / (R div N)` of drawing uniformly
/// from `R` values (`0..R`) and placing by `x mod N` (§4.3).
///
/// Returns `f64::INFINITY` when `R div N == 0` (no full cycle of residues
/// fits in the range — some disk can have expected load 0).
pub fn unfairness_coefficient(range_size: u128, disks: u64) -> f64 {
    assert!(disks > 0, "disk count must be positive");
    let cycles = range_size / u128::from(disks);
    if cycles == 0 {
        f64::INFINITY
    } else {
        1.0 / cycles as f64
    }
}

/// Exact unfairness of `x mod N` over `x in 0..R`: `(max-min)/min - 1`
/// with max = ceil(R/N)·(N·?)… computed from the residue census rather
/// than the paper's `1/(R div N)` upper bound. Useful to show how tight
/// the bound is (experiment E7).
pub fn exact_unfairness(range_size: u128, disks: u64) -> f64 {
    assert!(disks > 0);
    let n = u128::from(disks);
    let q = range_size / n;
    let rem = range_size % n;
    if q == 0 {
        return f64::INFINITY;
    }
    if rem == 0 {
        0.0
    } else {
        // `rem` disks have expected count q+1, the rest q.
        (q as f64 + 1.0) / q as f64 - 1.0
    }
}

/// Result of asking the tracker whether another operation is safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessReport {
    /// Operations recorded so far (`k`).
    pub operations: usize,
    /// `sigma_k = N_0·…·N_k` (saturating at `u128::MAX`).
    pub sigma: u128,
    /// Guaranteed surviving range size, `(R_0+1) div sigma_k` values.
    pub guaranteed_range: u128,
    /// Upper bound on the unfairness coefficient after these operations.
    pub unfairness_bound: f64,
}

/// Tracks `sigma_k` across a server's lifetime and implements the
/// Lemma 4.3 precondition check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessTracker {
    bits: Bits,
    sigma: u128,
    operations: usize,
}

impl FairnessTracker {
    /// Starts tracking for a server with `initial_disks` and `b`-bit
    /// random numbers. `sigma_0 = N_0`.
    pub fn new(bits: Bits, initial_disks: u32) -> Self {
        assert!(initial_disks > 0);
        FairnessTracker {
            bits,
            sigma: u128::from(initial_disks),
            operations: 0,
        }
    }

    /// Rebuilds a tracker from an existing scaling log.
    pub fn from_log(bits: Bits, log: &ScalingLog) -> Self {
        let mut t = FairnessTracker::new(bits, log.initial_disks());
        for record in log.records() {
            t.record_op(record.disks_after());
        }
        t
    }

    /// Records operation `k` resulting in `disks_after` disks:
    /// `sigma_k = sigma_{k-1} · N_k`.
    pub fn record_op(&mut self, disks_after: u32) {
        assert!(disks_after > 0);
        self.sigma = self.sigma.saturating_mul(u128::from(disks_after));
        self.operations += 1;
    }

    /// `sigma_k`.
    pub fn sigma(&self) -> u128 {
        self.sigma
    }

    /// Lemma 4.3 precondition: would the *current* state keep
    /// `f(R_k, N_k) < eps`? (`sigma_k <= R_0 · eps / (1 + eps)`.)
    pub fn precondition_holds(&self, eps: f64) -> bool {
        assert!(eps > 0.0);
        // R_0 · eps/(1+eps), computed in f64 — R_0 <= 2^64 so f64's 53-bit
        // mantissa gives a ~2^11 ulp, negligible against the exponential
        // growth of sigma. Guard the conversion explicitly.
        let budget = self.bits.max_value() as f64 * (eps / (1.0 + eps));
        (self.sigma as f64) <= budget
    }

    /// Would recording one more operation ending at `disks_after` still
    /// satisfy the precondition? This is the paper's suggested
    /// implementation guard: check *before* scaling, and trigger a full
    /// redistribution instead when the answer is `false`.
    pub fn next_op_is_safe(&self, disks_after: u32, eps: f64) -> bool {
        let mut probe = self.clone();
        probe.record_op(disks_after);
        probe.precondition_holds(eps)
    }

    /// Snapshot of the analytic state.
    pub fn report(&self) -> FairnessReport {
        let guaranteed_range = self.bits.range_size() / self.sigma.max(1);
        FairnessReport {
            operations: self.operations,
            sigma: self.sigma,
            guaranteed_range,
            unfairness_bound: if guaranteed_range == 0 {
                f64::INFINITY
            } else {
                1.0 / guaranteed_range as f64
            },
        }
    }
}

/// The paper's rule of thumb (§4.3): the largest number of operations `k`
/// such that `k + 1 <= (b - log2(1/eps)) / log2(avg_disks)`.
///
/// Paper's own examples:
/// * `b=64, avg=16, eps=1%` → `k = 13` ("a total of 13 disk
///   addition/removal operations can be supported");
/// * `b=32, avg=8, eps=5%` → `k = 8` (the §5 simulation's threshold).
pub fn rule_of_thumb_max_ops(bits: Bits, avg_disks: f64, eps: f64) -> u32 {
    assert!(avg_disks > 1.0, "average disk count must exceed 1");
    assert!(eps > 0.0 && eps < 1.0);
    let b = f64::from(bits.get());
    let budget = (b - (1.0 / eps).log2()) / avg_disks.log2();
    if budget < 1.0 {
        0
    } else {
        (budget.floor() as u32).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScalingOp;

    #[test]
    fn paper_rule_of_thumb_examples() {
        // §4.3: "if we have an average of sixteen disks, desire eps=1%,
        // and are using a 64-bit random number generator ... k <= 13".
        assert_eq!(rule_of_thumb_max_ops(Bits::B64, 16.0, 0.01), 13);
        // §5: "we find k = 8 where eps = 5%, avg = 8 and b = 32".
        assert_eq!(rule_of_thumb_max_ops(Bits::B32, 8.0, 0.05), 8);
    }

    #[test]
    fn rule_of_thumb_monotonic_in_bits_and_disks() {
        let k32 = rule_of_thumb_max_ops(Bits::B32, 8.0, 0.05);
        let k64 = rule_of_thumb_max_ops(Bits::B64, 8.0, 0.05);
        assert!(k64 > k32);
        let k_few = rule_of_thumb_max_ops(Bits::B64, 4.0, 0.05);
        let k_many = rule_of_thumb_max_ops(Bits::B64, 64.0, 0.05);
        assert!(k_few > k_many, "more disks per op burn range faster");
    }

    #[test]
    fn unfairness_coefficient_basics() {
        // Range 0..10, 3 disks: counts 4,3,3 -> bound 1/(10 div 3)=1/3,
        // exact (4-3)/3 = 1/3.
        assert!((unfairness_coefficient(10, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((exact_unfairness(10, 3) - 1.0 / 3.0).abs() < 1e-12);
        // Perfectly divisible range is perfectly fair.
        assert_eq!(exact_unfairness(12, 3), 0.0);
        assert!((unfairness_coefficient(12, 3) - 0.25).abs() < 1e-12);
        // Degenerate range.
        assert_eq!(unfairness_coefficient(2, 3), f64::INFINITY);
    }

    #[test]
    fn exact_never_exceeds_bound() {
        for range in 1u128..500 {
            for disks in 1u64..20 {
                let exact = exact_unfairness(range, disks);
                let bound = unfairness_coefficient(range, disks);
                assert!(
                    exact <= bound + 1e-12,
                    "exact {exact} > bound {bound} at R={range} N={disks}"
                );
            }
        }
    }

    #[test]
    fn tracker_matches_manual_sigma() {
        let mut t = FairnessTracker::new(Bits::B32, 4);
        t.record_op(5);
        t.record_op(6);
        assert_eq!(t.sigma(), 4 * 5 * 6);
        let report = t.report();
        assert_eq!(report.operations, 2);
        assert_eq!(report.guaranteed_range, (1u128 << 32) / 120);
    }

    #[test]
    fn from_log_agrees_with_incremental() {
        let mut log = ScalingLog::new(4).unwrap();
        let mut inc = FairnessTracker::new(Bits::B32, 4);
        for op in [
            ScalingOp::Add { count: 1 },
            ScalingOp::remove_one(0),
            ScalingOp::Add { count: 3 },
        ] {
            let rec = log.push(&op).unwrap();
            let after = rec.disks_after();
            inc.record_op(after);
        }
        assert_eq!(FairnessTracker::from_log(Bits::B32, &log), inc);
    }

    #[test]
    fn precondition_flips_after_enough_ops() {
        // b=32, disks hovering at 8, eps=5%: the paper says ~8 ops.
        let mut t = FairnessTracker::new(Bits::B32, 8);
        let mut safe_ops = 0;
        while t.next_op_is_safe(8, 0.05) {
            t.record_op(8);
            safe_ops += 1;
        }
        // sigma_k = 8^{k+1}; need 8^{k+1} <= 2^32·0.05/1.05 ~ 2^27.6
        // -> 3(k+1) <= 27.6 -> k <= 8.2 -> 8 ops.
        assert_eq!(safe_ops, 8);
    }

    #[test]
    fn saturation_is_permanently_unsafe() {
        let mut t = FairnessTracker::new(Bits::B64, u32::MAX);
        for _ in 0..10 {
            t.record_op(u32::MAX);
        }
        assert_eq!(t.sigma(), u128::MAX);
        assert!(!t.precondition_holds(0.99));
        assert_eq!(t.report().guaranteed_range, 0);
        assert_eq!(t.report().unfairness_bound, f64::INFINITY);
    }
}
