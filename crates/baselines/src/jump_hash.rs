//! Jump consistent hash (Lamping & Veach, 2014) — the minimal-state
//! successor to the problem SCADDAR attacks, included as a modern
//! comparator (experiment E11).
//!
//! [`jump_consistent_hash`] (shared with the cluster router, so it
//! lives in `scaddar-prng`) maps a 64-bit key to a bucket in `0..n` such that
//! growing `n -> n+1` moves exactly a `1/(n+1)` expected fraction of keys
//! (optimal), with *zero* state beyond the bucket count. Its structural
//! limitation mirrors SCADDAR's structural strength: jump hash can only
//! add/remove buckets **at the tail** — removing an arbitrary disk is
//! inexpressible, whereas SCADDAR's Eq. 3 handles any victim set. This
//! strategy therefore realizes `Remove` by *swapping the victim with the
//! current tail disk* and shrinking — the standard workaround — which
//! moves the tail disk's blocks too and shows up as excess movement in
//! the E11 tables.

use crate::strategy::{BlockKey, PlacementStrategy};
use scaddar_core::{RemovedSet, ScalingError, ScalingOp};
use scaddar_prng::jump_consistent_hash;

/// Jump-consistent-hash strategy with swap-with-tail removal.
#[derive(Debug, Clone)]
pub struct JumpHashStrategy {
    /// bucket index -> logical disk. Buckets are what jump hash sees;
    /// the permutation absorbs swap-with-tail removals.
    bucket_to_disk: Vec<u32>,
}

impl JumpHashStrategy {
    /// Starts with `initial_disks` disks.
    pub fn new(initial_disks: u32) -> Result<Self, ScalingError> {
        if initial_disks == 0 {
            return Err(ScalingError::NoInitialDisks);
        }
        Ok(JumpHashStrategy {
            bucket_to_disk: (0..initial_disks).collect(),
        })
    }
}

impl PlacementStrategy for JumpHashStrategy {
    fn name(&self) -> &'static str {
        "jump-hash"
    }

    fn disks(&self) -> u32 {
        self.bucket_to_disk.len() as u32
    }

    fn place(&self, key: BlockKey) -> u32 {
        let bucket = jump_consistent_hash(key.id, self.disks());
        self.bucket_to_disk[bucket as usize]
    }

    fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let n_prev = self.disks();
        op.disks_after(n_prev)?;
        match op {
            ScalingOp::Add { count } => {
                // New disks take the next logical indices; buckets extend
                // at the tail, which is jump hash's native growth.
                for i in 0..*count {
                    self.bucket_to_disk.push(n_prev + i);
                }
            }
            ScalingOp::Remove { disks } => {
                let removed = RemovedSet::new(disks, n_prev)?;
                // Swap each victim bucket with the current tail, then pop
                // — the only shrink jump hash supports. Process victims
                // by *disk value*; their bucket positions move as we
                // swap.
                for &victim_disk in removed.indices() {
                    let pos = self
                        .bucket_to_disk
                        .iter()
                        .position(|&d| d == victim_disk)
                        .expect("victim disk exists");
                    self.bucket_to_disk.swap_remove(pos);
                }
                // Renumber surviving logical indices to stay dense.
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
                id: i.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31),
            })
            .collect()
    }

    #[test]
    fn growth_moves_optimal_fraction_onto_new_disk() {
        let ks = keys(100_000);
        let mut s = JumpHashStrategy::new(4).unwrap();
        let before = s.place_all(&ks);
        s.apply(&ScalingOp::Add { count: 1 }).unwrap();
        let after = s.place_all(&ks);
        let mut moved = 0;
        for (&b, &a) in before.iter().zip(&after) {
            if b != a {
                moved += 1;
                assert_eq!(a, 4);
            }
        }
        let frac = moved as f64 / ks.len() as f64;
        assert!((frac - 0.2).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn tail_removal_is_optimal() {
        // Removing the tail disk needs no swap: exactly the victim's
        // blocks (1/5) move. The mid-removal swap penalty is asserted
        // with physical-identity tracking in `harness::tests`.
        let ks = keys(100_000);
        let mut tail = JumpHashStrategy::new(5).unwrap();
        let before = tail.place_all(&ks);
        tail.apply(&ScalingOp::remove_one(4)).unwrap();
        let after = tail.place_all(&ks);
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        let frac = moved as f64 / ks.len() as f64;
        assert!((frac - 0.2).abs() < 0.01, "tail removal fraction {frac}");
    }

    #[test]
    fn balance_is_excellent() {
        let ks = keys(100_000);
        let s = JumpHashStrategy::new(8).unwrap();
        let census = s.load_census(&ks);
        let mean = ks.len() as f64 / 8.0;
        for &c in &census {
            assert!((c as f64 - mean).abs() / mean < 0.03, "census {census:?}");
        }
    }

    #[test]
    fn indices_stay_dense_after_mixed_ops() {
        let ks = keys(2_000);
        let mut s = JumpHashStrategy::new(6).unwrap();
        s.apply(&ScalingOp::Remove { disks: vec![0, 3] }).unwrap();
        s.apply(&ScalingOp::Add { count: 2 }).unwrap();
        assert_eq!(s.disks(), 6);
        for &k in &ks {
            assert!(s.place(k) < 6);
        }
    }
}
