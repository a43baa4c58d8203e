//! The directory approach (Appendix A, first initial approach): perfect
//! bookkeeping at the cost of per-block state.
//!
//! Every block's location is stored explicitly. Scaling draws fresh
//! randomness for exactly the optimal set of blocks, so RO1 and RO2 are
//! both *ideal* — the directory is the quality yardstick the paper wants
//! to match "for free". What it cannot satisfy is the storage/complexity
//! objective: `O(B)` directory entries, concurrency-controlled updates,
//! and a lookup that is a table probe instead of arithmetic. The
//! [`DirectoryStrategy::directory_bytes`] accessor quantifies the
//! footprint against [`scaddar_core::ScalingLog::metadata_bytes`].
//!
//! Movement selection for additions follows the optimal policy: each
//! block independently moves with probability `(N_j - N_{j-1})/N_j`,
//! to a uniformly chosen added disk — i.e. exactly what a fresh uniform
//! placement conditioned on minimal movement looks like.

use crate::strategy::{BlockKey, PlacementStrategy};
use scaddar_core::{RemovedSet, ScalingError, ScalingOp};
use scaddar_prng::{SeededRng, SplitMix64};
use std::collections::HashMap;

/// The explicit-directory strategy.
#[derive(Debug, Clone)]
pub struct DirectoryStrategy {
    disks: u32,
    /// One entry per block ever placed: key id -> disk.
    directory: HashMap<u64, u32>,
    /// Private randomness for redistribution decisions.
    rng: SplitMix64,
}

impl DirectoryStrategy {
    /// Starts with `initial_disks` disks; `seed` drives the private
    /// redistribution randomness.
    pub fn new(initial_disks: u32, seed: u64) -> Result<Self, ScalingError> {
        if initial_disks == 0 {
            return Err(ScalingError::NoInitialDisks);
        }
        Ok(DirectoryStrategy {
            disks: initial_disks,
            directory: HashMap::new(),
            rng: SplitMix64::from_seed(seed),
        })
    }

    /// Number of directory entries (blocks known to the strategy).
    pub fn entries(&self) -> usize {
        self.directory.len()
    }

    /// Approximate directory footprint: 12 bytes per entry (8-byte key,
    /// 4-byte disk), the honest lower bound a packed on-disk directory
    /// would need. Compare with the SCADDAR log's ~dozens of bytes.
    pub fn directory_bytes(&self) -> usize {
        self.directory.len() * 12
    }

    fn place_or_init(&mut self, key: BlockKey) -> u32 {
        let disks = self.disks;
        *self
            .directory
            .entry(key.id)
            .or_insert_with(|| (key.id % u64::from(disks)) as u32)
    }

    /// Directory strategies must *see* blocks to track them; the harness
    /// calls this once per population before the first operation.
    pub fn register(&mut self, keys: &[BlockKey]) {
        for &k in keys {
            self.place_or_init(k);
        }
    }

    fn uniform_below(&mut self, n: u32) -> u32 {
        // Rejection-free is unnecessary here; modulo bias over u64 draws
        // against n <= u32::MAX is < 2^-32 and this path is not part of
        // the placement quality under test (it mimics an ideal oracle).
        (self.rng.next_u64() % u64::from(n)) as u32
    }
}

impl PlacementStrategy for DirectoryStrategy {
    fn name(&self) -> &'static str {
        "directory"
    }

    fn disks(&self) -> u32 {
        self.disks
    }

    /// Lookup. Blocks never registered fall back to their epoch-0 spot —
    /// in a real directory server that would be a miss/fault.
    fn place(&self, key: BlockKey) -> u32 {
        self.directory
            .get(&key.id)
            .copied()
            .unwrap_or((key.id % u64::from(self.disks)) as u32)
    }

    fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let n_prev = self.disks;
        let n_new = op.disks_after(n_prev)?;
        match op {
            ScalingOp::Add { .. } => {
                let added = n_new - n_prev;
                // Each block moves with probability added/n_new onto a
                // uniform added disk.
                // Sorted, so every process walks the blocks, and draws
                // their randomness, in one order (a `HashMap`'s own order
                // is seeded per process).
                let mut keys: Vec<u64> = self.directory.keys().copied().collect();
                keys.sort_unstable();
                for id in keys {
                    if self.uniform_below(n_new) >= n_prev {
                        let target = n_prev + self.uniform_below(added);
                        self.directory.insert(id, target);
                    }
                }
            }
            ScalingOp::Remove { disks } => {
                let removed = RemovedSet::new(disks, n_prev)?;
                let mut keys: Vec<u64> = self.directory.keys().copied().collect();
                keys.sort_unstable();
                for id in keys {
                    let current = self.directory[&id];
                    let new_disk = if removed.contains(current) {
                        self.uniform_below(n_new)
                    } else {
                        removed.renumber(current)
                    };
                    self.directory.insert(id, new_disk);
                }
            }
        }
        self.disks = n_new;
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
                id: i.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 3,
            })
            .collect()
    }

    fn registered(n_disks: u32, ks: &[BlockKey]) -> DirectoryStrategy {
        let mut s = DirectoryStrategy::new(n_disks, 42).unwrap();
        s.register(ks);
        s
    }

    #[test]
    fn addition_is_optimal_and_uniform() {
        let ks = keys(100_000);
        let mut s = registered(4, &ks);
        let before = s.place_all(&ks);
        s.apply(&ScalingOp::Add { count: 2 }).unwrap();
        let after = s.place_all(&ks);
        let mut moved = 0usize;
        let mut to4 = 0usize;
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                moved += 1;
                assert!(*a >= 4);
                if *a == 4 {
                    to4 += 1;
                }
            }
        }
        let frac = moved as f64 / ks.len() as f64;
        assert!((frac - 2.0 / 6.0).abs() < 0.01, "fraction {frac}");
        // Moves split evenly between the two added disks.
        let split = to4 as f64 / moved as f64;
        assert!((split - 0.5).abs() < 0.02, "split {split}");
    }

    #[test]
    fn removal_reassigns_victims_uniformly() {
        let ks = keys(60_000);
        let mut s = registered(5, &ks);
        let before = s.place_all(&ks);
        s.apply(&ScalingOp::remove_one(1)).unwrap();
        let after = s.place_all(&ks);
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            if b != 1 {
                let expect = if b > 1 { b - 1 } else { b };
                assert_eq!(a, expect, "survivor {i} moved");
            }
        }
        let census = s.load_census(&ks);
        let mean = ks.len() as f64 / 4.0;
        for &c in &census {
            assert!((c as f64 - mean).abs() / mean < 0.05);
        }
    }

    #[test]
    fn directory_grows_with_blocks_unlike_scaddar_log() {
        let ks = keys(10_000);
        let s = registered(4, &ks);
        assert_eq!(s.entries(), 10_000);
        assert_eq!(s.directory_bytes(), 120_000);
    }
}
