//! Scaling operations (Definition 3.3): adding or removing one *disk
//! group* — `k >= 1` disks added, or a named set of logical disks removed.
//!
//! Removals are specified by the disks' **logical indices at the epoch the
//! operation applies to** (`0..N_{j-1}`). After the removal, survivors are
//! renumbered by rank — the paper's `new()` function — so logical indices
//! are always dense `0..N_j`. [`RemovedSet`] precomputes that rank map.

use crate::error::ScalingError;

/// One scaling operation: add a group of disks, or remove a named group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingOp {
    /// Add `count` fresh disks; they take logical indices
    /// `N_{j-1}..N_{j-1}+count`.
    Add {
        /// Number of disks in the added group (`>= 1`).
        count: u32,
    },
    /// Remove the disks whose logical indices (at epoch `j-1`) are listed.
    Remove {
        /// Logical indices to remove; need not be sorted, must be unique.
        disks: Vec<u32>,
    },
}

impl ScalingOp {
    /// Convenience constructor for a single-disk addition.
    pub fn add_one() -> Self {
        ScalingOp::Add { count: 1 }
    }

    /// Convenience constructor for a single-disk removal.
    pub fn remove_one(disk: u32) -> Self {
        ScalingOp::Remove { disks: vec![disk] }
    }

    /// The disk count after applying this operation to `disks_before`
    /// disks, validating the operation along the way.
    pub fn disks_after(&self, disks_before: u32) -> Result<u32, ScalingError> {
        match self {
            ScalingOp::Add { count } => {
                if *count == 0 {
                    return Err(ScalingError::EmptyAddition);
                }
                disks_before
                    .checked_add(*count)
                    .ok_or(ScalingError::TooManyDisks)
            }
            ScalingOp::Remove { disks } => {
                if disks.is_empty() {
                    return Err(ScalingError::EmptyRemoval);
                }
                let set = RemovedSet::new(disks, disks_before)?;
                let remaining = disks_before - set.len();
                if remaining == 0 {
                    return Err(ScalingError::WouldRemoveAllDisks);
                }
                Ok(remaining)
            }
        }
    }

    /// Structurally simpler variants of this operation, most aggressive
    /// first: additions shrink their count toward 1, group removals
    /// drop victims. Used by history minimizers (e.g. the simulation
    /// harness) to reduce a failing schedule while keeping each
    /// operation individually valid. Empty when already minimal.
    pub fn shrink_candidates(&self) -> Vec<ScalingOp> {
        match self {
            ScalingOp::Add { count } => {
                let mut out = Vec::new();
                if *count > 1 {
                    out.push(ScalingOp::Add { count: 1 });
                    let mut delta = (count - 1) / 2;
                    while delta > 0 {
                        let c = count - delta;
                        if c > 1 && !out.contains(&ScalingOp::Add { count: c }) {
                            out.push(ScalingOp::Add { count: c });
                        }
                        delta /= 2;
                    }
                }
                out
            }
            ScalingOp::Remove { disks } => {
                if disks.len() <= 1 {
                    return Vec::new();
                }
                let mut out = vec![ScalingOp::Remove {
                    disks: disks[..disks.len() / 2].to_vec(),
                }];
                for i in 0..disks.len() {
                    let mut fewer = disks.clone();
                    fewer.remove(i);
                    let cand = ScalingOp::Remove { disks: fewer };
                    if !out.contains(&cand) {
                        out.push(cand);
                    }
                }
                out
            }
        }
    }
}

/// A validated, sorted set of removed logical disk indices, supporting
/// the paper's `new()` renumbering (rank among survivors) in O(1) via a
/// precomputed dense rank table over `0..N_{j-1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedSet {
    sorted: Vec<u32>,
    /// `rank[d]` is the post-removal index of surviving disk `d`, or
    /// [`RemovedSet::REMOVED`] if `d` is removed; `rank.len()` is the
    /// pre-removal disk count.
    rank: Vec<u32>,
}

impl RemovedSet {
    /// Sentinel marking a removed disk in [`RemovedSet::rank_table`].
    /// Never collides with a real index: survivors number strictly fewer
    /// than `u32::MAX`.
    pub const REMOVED: u32 = u32::MAX;

    /// Validates and sorts a removal list against the current disk count.
    pub fn new(disks: &[u32], disks_before: u32) -> Result<Self, ScalingError> {
        if disks.is_empty() {
            return Err(ScalingError::EmptyRemoval);
        }
        let mut sorted = disks.to_vec();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if pair[0] == pair[1] {
                return Err(ScalingError::DuplicateRemoval { disk: pair[0] });
            }
        }
        if let Some(&max) = sorted.last() {
            if max >= disks_before {
                return Err(ScalingError::RemovalOutOfRange {
                    disk: max,
                    disks: disks_before,
                });
            }
        }
        let mut rank = vec![0u32; disks_before as usize];
        let mut next_removed = 0usize;
        let mut new_index = 0u32;
        for d in 0..disks_before {
            if next_removed < sorted.len() && sorted[next_removed] == d {
                rank[d as usize] = Self::REMOVED;
                next_removed += 1;
            } else {
                rank[d as usize] = new_index;
                new_index += 1;
            }
        }
        Ok(RemovedSet { sorted, rank })
    }

    /// Number of removed disks.
    pub fn len(&self) -> u32 {
        self.sorted.len() as u32
    }

    /// True iff empty (never, by construction; present for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The removed indices, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.sorted
    }

    /// The pre-removal disk count this set was validated against.
    pub fn disks_before(&self) -> u32 {
        self.rank.len() as u32
    }

    /// Is logical disk `d` removed by this operation?
    pub fn contains(&self, d: u32) -> bool {
        self.rank
            .get(d as usize)
            .is_some_and(|&m| m == Self::REMOVED)
    }

    /// The full dense renumber table over `0..N_{j-1}`: survivors map to
    /// their post-removal index, removed disks to
    /// [`RemovedSet::REMOVED`]. This is what [`RemapPipeline`] copies
    /// into its flat step list.
    ///
    /// [`RemapPipeline`]: crate::RemapPipeline
    pub fn rank_table(&self) -> &[u32] {
        &self.rank
    }

    /// The paper's `new()` function: the post-removal logical index of a
    /// *surviving* disk `d`, i.e. its rank among survivors. O(1) table
    /// lookup.
    ///
    /// # Panics
    /// In debug builds, if `d` is itself removed (callers must branch on
    /// [`RemovedSet::contains`] first, as Eq. 3 does); in all builds if
    /// `d` is outside `0..N_{j-1}`.
    pub fn renumber(&self, d: u32) -> u32 {
        debug_assert!(!self.contains(d), "renumber() called on a removed disk");
        self.rank[d as usize]
    }

    /// The original O(log k) binary-search renumbering, kept as a
    /// reference implementation cross-checked against the rank table.
    #[cfg(test)]
    pub(crate) fn renumber_by_search(&self, d: u32) -> u32 {
        let removed_below = match self.sorted.binary_search(&d) {
            Ok(pos) | Err(pos) => pos as u32,
        };
        d - removed_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shrink_candidates_are_simpler_and_valid() {
        assert!(ScalingOp::add_one().shrink_candidates().is_empty());
        assert!(ScalingOp::remove_one(3).shrink_candidates().is_empty());

        let cands = ScalingOp::Add { count: 8 }.shrink_candidates();
        assert_eq!(cands[0], ScalingOp::Add { count: 1 });
        for c in &cands {
            match c {
                ScalingOp::Add { count } => assert!(*count < 8 && *count >= 1),
                _ => panic!("addition shrinks to additions"),
            }
            assert!(c.disks_after(4).is_ok());
        }

        let op = ScalingOp::Remove {
            disks: vec![0, 2, 5],
        };
        let cands = op.shrink_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            match c {
                ScalingOp::Remove { disks } => {
                    assert!(disks.len() < 3 && !disks.is_empty());
                    assert!(disks.iter().all(|d| [0, 2, 5].contains(d)));
                }
                _ => panic!("removal shrinks to removals"),
            }
            assert!(c.disks_after(8).is_ok());
        }
    }

    #[test]
    fn add_validates_and_counts() {
        assert_eq!(ScalingOp::Add { count: 3 }.disks_after(4), Ok(7));
        assert_eq!(
            ScalingOp::Add { count: 0 }.disks_after(4),
            Err(ScalingError::EmptyAddition)
        );
        assert_eq!(
            ScalingOp::Add { count: 1 }.disks_after(u32::MAX),
            Err(ScalingError::TooManyDisks)
        );
    }

    #[test]
    fn remove_validates_and_counts() {
        assert_eq!(
            ScalingOp::Remove { disks: vec![1, 3] }.disks_after(4),
            Ok(2)
        );
        assert_eq!(
            ScalingOp::Remove { disks: vec![] }.disks_after(4),
            Err(ScalingError::EmptyRemoval)
        );
        assert_eq!(
            ScalingOp::Remove { disks: vec![4] }.disks_after(4),
            Err(ScalingError::RemovalOutOfRange { disk: 4, disks: 4 })
        );
        assert_eq!(
            ScalingOp::Remove { disks: vec![2, 2] }.disks_after(4),
            Err(ScalingError::DuplicateRemoval { disk: 2 })
        );
        assert_eq!(
            ScalingOp::Remove { disks: vec![0, 1] }.disks_after(2),
            Err(ScalingError::WouldRemoveAllDisks)
        );
    }

    #[test]
    fn renumber_matches_paper_example() {
        // Paper §4.2.1: "if disk 1 were removed from the disk set 0,1,2,3
        // and r_{j-1} = 2 then new(r_{j-1}) should become 1".
        let set = RemovedSet::new(&[1], 4).unwrap();
        assert_eq!(set.renumber(2), 1);
        assert_eq!(set.renumber(0), 0);
        assert_eq!(set.renumber(3), 2);
    }

    #[test]
    fn renumber_matches_second_paper_example() {
        // §4.2.1 worked example: remove disk 4 of 0..=5; new(5) = 4.
        let set = RemovedSet::new(&[4], 6).unwrap();
        assert_eq!(set.renumber(5), 4);
        assert_eq!(set.renumber(3), 3);
    }

    #[test]
    fn old_index_round_trips() {
        let set = RemovedSet::new(&[0, 2, 5], 8).unwrap();
        // Survivors: 1,3,4,6,7 -> new indices 0..5.
        let survivors = [1u32, 3, 4, 6, 7];
        for (new_d, &old_d) in survivors.iter().enumerate() {
            assert_eq!(set.renumber(old_d), new_d as u32);
        }
    }

    #[test]
    fn removal_list_order_is_irrelevant() {
        let a = RemovedSet::new(&[5, 1, 3], 8).unwrap();
        let b = RemovedSet::new(&[1, 3, 5], 8).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_renumber_is_dense_and_ordered(
            removal in proptest::collection::btree_set(0u32..32, 1..8),
        ) {
            let disks = 32u32;
            let removal: Vec<u32> = removal.into_iter().collect();
            prop_assume!((removal.len() as u32) < disks);
            let set = RemovedSet::new(&removal, disks).unwrap();
            let mut expected_new = 0u32;
            for d in 0..disks {
                if !set.contains(d) {
                    prop_assert_eq!(set.renumber(d), expected_new);
                    expected_new += 1;
                }
            }
            prop_assert_eq!(expected_new, disks - set.len());
        }

        /// The dense rank table agrees with the original binary-search
        /// renumbering on every surviving disk, for arbitrary removals.
        #[test]
        fn prop_rank_table_matches_binary_search(
            removal in proptest::collection::btree_set(0u32..64, 1..12),
            disks in 64u32..128,
        ) {
            let removal: Vec<u32> = removal.into_iter().collect();
            let set = RemovedSet::new(&removal, disks).unwrap();
            for d in 0..disks {
                if set.contains(d) {
                    prop_assert_eq!(set.rank_table()[d as usize], RemovedSet::REMOVED);
                } else {
                    prop_assert_eq!(set.renumber(d), set.renumber_by_search(d));
                }
            }
        }
    }
}
