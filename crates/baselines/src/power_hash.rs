//! Power consistent hash (Leu, 2023) — the O(1)-expected-time,
//! O(1)-memory consistent hash built on power-of-two ranges, included
//! as a second modern comparator next to jump hash.
//!
//! The construction decomposes `n = m + s` where `m = 2^⌊lg n⌋` (so
//! `m <= n < 2m`, `0 <= s < m`) and works in two stages:
//!
//! 1. **Power-of-two stage** — `r = h(k) mod 2m` with one fixed base
//!    hash. Buckets `r >= n` don't exist; their keys fold down to the
//!    partner bucket `r - m` (the classic linear-hashing unsplit).
//!    This map is continuous across power-of-two crossings: for both
//!    `n = 2m` and `n = 2m - 1` it reduces to `h mod 2m` on the shared
//!    range, so growing past a power of two never reshuffles the
//!    direct placements.
//! 2. **Balancing donations** — after folding, buckets `[s, m)` carry
//!    two `r`-preimages (double load) while `[0, s)` and `[m, n)`
//!    carry one. Each key landing on a double-loaded bucket *donates*
//!    itself with probability `s/n` to one of the `2s` single-loaded
//!    buckets, chosen by a jump consistent hash over a stable
//!    interleaved ordering (index `2i ↔ bucket i`, `2i+1 ↔ bucket
//!    m+i`), so growing `s` only appends donation targets at the tail.
//!
//! The result is *exactly* uniform: double buckets keep
//! `(2/2m)·(1 - s/n) = 1/n`, single buckets get
//! `1/2m + s(m-s)/(mn·2s) = 1/n`. Movement on growth is near-minimal
//! (the new bucket fills to exactly `1/n`; the donation machinery adds
//! a small constant factor of intra-array churn, visible in the E11
//! tables), and like jump hash the scheme natively shrinks only from
//! the tail — arbitrary removal is realized by swap-with-tail, the
//! same workaround [`crate::jump_hash::JumpHashStrategy`] uses.

use crate::strategy::{BlockKey, PlacementStrategy};
use scaddar_core::{RemovedSet, ScalingError, ScalingOp};
use scaddar_prng::jump_consistent_hash;

/// Salt for the base power-of-two hash.
const SALT_BASE: u64 = 0x9E6C_63D0_876A_3EF1;
/// Salt for the donate-or-keep draw.
const SALT_DONATE: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Salt for the donation-target draw.
const SALT_TARGET: u64 = 0x1656_67B1_9E37_79F9;

/// SplitMix64 finalizer over a salted key: the paper's building block
/// is any family of independent uniform draws per key.
fn mix(key: u64, salt: u64) -> u64 {
    let mut x = key ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Maps a 64-bit key to a bucket in `0..n`, uniformly and consistently.
pub fn power_consistent_hash(key: u64, n: u32) -> u32 {
    assert!(n > 0);
    if n == 1 {
        return 0;
    }
    // n = m + s with m = 2^⌊lg n⌋, so m <= n < 2m and 0 <= s < m.
    let m = if n.is_power_of_two() {
        n
    } else {
        (n + 1).next_power_of_two() / 2
    };
    let s = n - m;
    let r = (mix(key, SALT_BASE) % (2 * u64::from(m))) as u32;
    let t = if r < n { r } else { r - m };
    if s > 0 && (s..m).contains(&t) {
        // Double-loaded bucket: donate with probability s/n. The
        // threshold test is exact 128-bit fixed point, and monotone in
        // s/n, so growing n only ever adds donors.
        let u = mix(key, SALT_DONATE);
        if u128::from(u) * u128::from(n) < u128::from(s) << 64 {
            let idx = jump_consistent_hash(mix(key, SALT_TARGET), 2 * s);
            return if idx.is_multiple_of(2) {
                idx / 2
            } else {
                m + idx / 2
            };
        }
    }
    t
}

/// Power-consistent-hash strategy with swap-with-tail removal.
#[derive(Debug, Clone)]
pub struct PowerHashStrategy {
    /// bucket index -> logical disk; the permutation absorbs
    /// swap-with-tail removals, exactly as in the jump-hash strategy.
    bucket_to_disk: Vec<u32>,
}

impl PowerHashStrategy {
    /// Starts with `initial_disks` disks.
    pub fn new(initial_disks: u32) -> Result<Self, ScalingError> {
        if initial_disks == 0 {
            return Err(ScalingError::NoInitialDisks);
        }
        Ok(PowerHashStrategy {
            bucket_to_disk: (0..initial_disks).collect(),
        })
    }
}

impl PlacementStrategy for PowerHashStrategy {
    fn name(&self) -> &'static str {
        "power-hash"
    }

    fn disks(&self) -> u32 {
        self.bucket_to_disk.len() as u32
    }

    fn place(&self, key: BlockKey) -> u32 {
        let bucket = power_consistent_hash(key.id, self.disks());
        self.bucket_to_disk[bucket as usize]
    }

    fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let n_prev = self.disks();
        op.disks_after(n_prev)?;
        match op {
            ScalingOp::Add { count } => {
                for i in 0..*count {
                    self.bucket_to_disk.push(n_prev + i);
                }
            }
            ScalingOp::Remove { disks } => {
                let removed = RemovedSet::new(disks, n_prev)?;
                for &victim_disk in removed.indices() {
                    let pos = self
                        .bucket_to_disk
                        .iter()
                        .position(|&d| d == victim_disk)
                        .expect("victim disk exists");
                    self.bucket_to_disk.swap_remove(pos);
                }
                for d in &mut self.bucket_to_disk {
                    *d = removed.renumber(*d);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::PlacementStrategyExt;

    fn keys(n: u64) -> Vec<BlockKey> {
        (0..n)
            .map(|i| BlockKey {
                ordinal: i,
                id: i.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17),
            })
            .collect()
    }

    /// Exact uniformity is the paper's headline: at power-of-two and
    /// (harder) non-power-of-two bucket counts the census stays within
    /// sampling noise of flat.
    #[test]
    fn uniformity_holds_at_awkward_bucket_counts() {
        let ks = keys(200_000);
        for n in [2u32, 3, 5, 6, 8, 11, 12, 13, 16, 23] {
            let s = PowerHashStrategy::new(n).unwrap();
            let census = s.load_census(&ks);
            let mean = ks.len() as f64 / f64::from(n);
            for (d, &c) in census.iter().enumerate() {
                let dev = (c as f64 - mean).abs() / mean;
                assert!(dev < 0.05, "n={n} disk {d}: census {census:?}");
            }
        }
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for key in 0..5_000u64 {
            for n in [1u32, 2, 7, 64] {
                let b = power_consistent_hash(key, n);
                assert!(b < n);
                assert_eq!(b, power_consistent_hash(key, n));
            }
        }
    }

    /// Growth fills the new bucket to exactly its fair share while
    /// moving far less than a reshuffle — within a small constant
    /// factor of the optimal `1/(n+1)` fraction (the donation
    /// machinery's churn), and crossing a power of two is no cliff.
    #[test]
    fn growth_movement_is_near_optimal_and_crossings_are_smooth() {
        let ks = keys(100_000);
        for n_prev in [4u32, 5, 7, 8, 11, 15, 16] {
            let mut s = PowerHashStrategy::new(n_prev).unwrap();
            let before = s.place_all(&ks);
            s.apply(&ScalingOp::Add { count: 1 }).unwrap();
            let after = s.place_all(&ks);
            let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
            let frac = moved as f64 / ks.len() as f64;
            let optimal = 1.0 / f64::from(n_prev + 1);
            assert!(
                frac >= optimal - 0.01,
                "{n_prev}->{}: moved {frac:.4} < optimal {optimal:.4}",
                n_prev + 1
            );
            assert!(
                frac <= 2.5 * optimal + 0.01,
                "{n_prev}->{}: moved {frac:.4} vs optimal {optimal:.4}",
                n_prev + 1
            );
            // The new disk ends at its fair share.
            let on_new = after.iter().filter(|&&d| d == n_prev).count() as f64;
            let share = on_new / ks.len() as f64;
            assert!(
                (share - optimal).abs() < 0.01,
                "{n_prev}: new-disk share {share:.4} vs {optimal:.4}"
            );
        }
    }

    /// Tail removal mirrors growth: near-optimal movement, and the
    /// survivors re-balance to uniform.
    #[test]
    fn tail_removal_moves_little_and_rebalances() {
        let ks = keys(100_000);
        let mut s = PowerHashStrategy::new(6).unwrap();
        let before = s.place_all(&ks);
        s.apply(&ScalingOp::remove_one(5)).unwrap();
        let after = s.place_all(&ks);
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        let frac = moved as f64 / ks.len() as f64;
        // Everything on the removed disk (1/6) must move; allow the
        // donation churn on top.
        assert!(frac >= 1.0 / 6.0 - 0.01, "fraction {frac}");
        assert!(frac <= 2.5 / 6.0, "fraction {frac}");
        let census = s.load_census(&ks);
        let mean = ks.len() as f64 / 5.0;
        for &c in &census {
            assert!((c as f64 - mean).abs() / mean < 0.05, "census {census:?}");
        }
    }

    #[test]
    fn indices_stay_dense_after_mixed_ops() {
        let ks = keys(2_000);
        let mut s = PowerHashStrategy::new(6).unwrap();
        s.apply(&ScalingOp::Remove { disks: vec![0, 3] }).unwrap();
        s.apply(&ScalingOp::Add { count: 2 }).unwrap();
        assert_eq!(s.disks(), 6);
        for &k in &ks {
            assert!(s.place(k) < 6);
        }
    }
}
