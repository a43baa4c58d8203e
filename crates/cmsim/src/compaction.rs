//! Online rehash compaction: migrating a server to its next placement
//! generation while it keeps serving.
//!
//! SCADDAR's §4.3 budget eventually runs out: after enough scaling
//! operations the REMAP chain is long and statistically stale, and the
//! paper's prescribed escape hatch is a full rehash. Doing that offline
//! would violate the §1 no-downtime requirement, so the server runs it
//! like any other redistribution: [`CmServer::begin_compaction`] has
//! [`PlacementState`] open a staging engine at the next generation
//! (fresh `X_0 mod N` seed, empty scaling log — see
//! [`Scaddar::open_next_generation`]) and enqueues one move per block
//! whose new-generation placement differs from its current residency.
//! While those moves drain through the rate-limited executor the server
//! serves from **both** generations: [`PlacementState::locate`] first
//! consults the migrated set (new-generation residency), then falls back
//! to the old engine — the same never-served-twice discipline the
//! cluster handoff uses. When the last move lands the placement flips
//! atomically: the staging engine becomes *the* engine, locate
//! collapses back to a single O(1) hash, and the fairness budget is
//! full again.
//!
//! [`CmServer::begin_compaction`]: crate::server::CmServer::begin_compaction
//! [`PlacementState`]: crate::PlacementState
//! [`PlacementState::locate`]: crate::PlacementState::locate
//! [`Scaddar::open_next_generation`]: scaddar_core::Scaddar::open_next_generation

use scaddar_core::{BlockRef, ObjectId};
use std::collections::HashMap;

/// A set of blocks held as one bitmap per object (bit `b % 64` of word
/// `b / 64` is block `b`) with a running count: membership costs one
/// map lookup per object, not a hash per block.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockSet {
    objects: HashMap<ObjectId, Vec<u64>>,
    len: u64,
}

impl BlockSet {
    /// Number of blocks in the set.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Adds one block (a no-op if it is already present).
    pub(crate) fn insert(&mut self, block: BlockRef) {
        let words = self.objects.entry(block.object).or_default();
        let word = (block.block / 64) as usize;
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        let bit = 1u64 << (block.block % 64);
        self.len += u64::from(words[word] & bit == 0);
        words[word] |= bit;
    }

    /// Adds an object's blocks as one bitmap.
    ///
    /// # Panics
    /// If the set already holds blocks of `object`.
    pub(crate) fn insert_object(&mut self, object: ObjectId, bits: Vec<u64>) {
        self.len += popcount(&bits);
        let prev = self.objects.insert(object, bits);
        assert!(prev.is_none(), "{object:?} added to the block set twice");
    }

    /// Drops every block of `object`.
    pub(crate) fn remove_object(&mut self, object: ObjectId) {
        if let Some(bits) = self.objects.remove(&object) {
            self.len -= popcount(&bits);
        }
    }

    /// True if `block` is in the set.
    pub(crate) fn contains(&self, block: BlockRef) -> bool {
        has_block(self.bits(block.object), block.block)
    }

    /// The bitmap of one object (empty if none of its blocks is in the
    /// set); test blocks with [`has_block`].
    pub(crate) fn bits(&self, object: ObjectId) -> &[u64] {
        self.objects.get(&object).map_or(&[], Vec::as_slice)
    }
}

impl FromIterator<BlockRef> for BlockSet {
    fn from_iter<I: IntoIterator<Item = BlockRef>>(blocks: I) -> Self {
        let mut set = BlockSet::default();
        for block in blocks {
            set.insert(block);
        }
        set
    }
}

/// True if block `block` is set in one object's bitmap.
pub(crate) fn has_block(bits: &[u64], block: u64) -> bool {
    bits.get((block / 64) as usize)
        .is_some_and(|word| word >> (block % 64) & 1 == 1)
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// A point-in-time view of compaction progress, for operators
/// (`scaddar health`, fleet dashboards) and trigger policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionProgress {
    /// The generation being retired.
    pub from_generation: u64,
    /// The generation being migrated to.
    pub to_generation: u64,
    /// Blocks the compaction must account for.
    pub total_blocks: u64,
    /// Blocks already at their new-generation placement.
    pub migrated_blocks: u64,
    /// Compaction moves still queued in the executor.
    pub backlog: u64,
}

impl CompactionProgress {
    /// Migrated fraction in `[0, 1]` (1.0 for an empty catalog).
    pub fn fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            1.0
        } else {
            self.migrated_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Renders like `gen 0->1 41.2% (4120/10000, 5880 queued)`.
    pub fn render(&self) -> String {
        format!(
            "gen {}->{} {:.1}% ({}/{}, {} queued)",
            self.from_generation,
            self.to_generation,
            self.fraction() * 100.0,
            self.migrated_blocks,
            self.total_blocks,
            self.backlog
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_handles_empty_and_partial() {
        let p = CompactionProgress {
            from_generation: 0,
            to_generation: 1,
            total_blocks: 0,
            migrated_blocks: 0,
            backlog: 0,
        };
        assert_eq!(p.fraction(), 1.0);
        let p = CompactionProgress {
            from_generation: 2,
            to_generation: 3,
            total_blocks: 1_000,
            migrated_blocks: 250,
            backlog: 750,
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        let text = p.render();
        assert!(text.contains("gen 2->3"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
        assert!(text.contains("250/1000"), "{text}");
    }

    fn blk(o: u64, b: u64) -> BlockRef {
        BlockRef {
            object: ObjectId(o),
            block: b,
        }
    }

    #[test]
    fn block_set_counts_distinct_blocks() {
        let mut set: BlockSet = [blk(0, 3), blk(0, 3), blk(0, 130), blk(1, 0)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 3);
        assert!(set.contains(blk(0, 130)));
        assert!(!set.contains(blk(0, 129)));
        assert!(!set.contains(blk(0, u64::MAX)));
        assert!(!set.contains(blk(2, 0)));
        set.insert_object(ObjectId(2), vec![0b101, 1]);
        assert_eq!(set.len(), 6);
        assert!(has_block(set.bits(ObjectId(2)), 64));
        assert!(!has_block(set.bits(ObjectId(2)), 1));
        set.remove_object(ObjectId(0));
        set.remove_object(ObjectId(9));
        assert_eq!(set.len(), 4);
        assert!(set.bits(ObjectId(0)).is_empty());
    }
}
