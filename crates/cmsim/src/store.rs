//! The block store: where each block's data *physically* is right now.
//!
//! SCADDAR's access function says where a block *should* be; during an
//! online redistribution the data may still be in transit. The store
//! tracks actual residency so the simulator can model serving from stale
//! locations, and every applied move is checked against it (a continuous
//! end-to-end check that `RF()` and `AF()` agree).
//!
//! ## Representation
//!
//! `AF()` is a pure function of an object's seed and a *dense* block
//! index (Def. 4.1), so residency is dense too: one map entry per
//! object, holding a `Vec<u32>` of physical ids indexed by block (4 B
//! per block). Ids fit 4 bytes because `PhysicalMap` refuses an
//! addition that would mint one past `u32::MAX`
//! ([`ScalingError::PhysicalIdsExhausted`](scaddar_core::ScalingError)).
//! The per-disk census is dense as well: physical ids are
//! minted in sequence (`PhysicalMap`), so it is a `Vec<u64>` indexed by
//! `PhysicalDiskId.0`, and a retired disk's slot simply reads 0. Objects
//! enter and leave whole: [`BlockStore::ingest_object`] costs one map
//! operation per object and one census add per disk (the caller's
//! placement pass tallies the blocks), [`BlockStore::evict_object`] one
//! map operation and one indexed subtract per block — never a hash or a
//! search.
//! Single-block [`BlockStore::locate`] and [`BlockStore::relocate`]
//! serve the redistribution executor, scrubbing and fault handling.

use crate::disk::PhysicalDiskId;
use scaddar_core::{BlockRef, ObjectId};
use std::collections::HashMap;

/// A physical id as residency stores it.
///
/// # Panics
/// If the id is past `u32::MAX`, which `PhysicalMap` never mints.
pub(crate) fn id_word(id: PhysicalDiskId) -> u32 {
    u32::try_from(id.0).expect("physical ids are minted below the u32 ceiling")
}

/// Residency of all blocks: per object, the physical disk of each block.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    /// Per object, the physical id (`PhysicalDiskId.0`) of each block.
    objects: HashMap<ObjectId, Vec<u32>>,
    blocks: usize,
    /// Blocks per physical disk, indexed by `PhysicalDiskId.0`; ids past
    /// the end hold no blocks.
    per_disk: Vec<u64>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// True when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Ingests a whole object: block `b` lands on physical id `disks[b]` (initial
    /// load, object addition, or rebuilding residency from `AF()`).
    /// `tally` is how many of the blocks land on each disk, counted by
    /// the caller's placement pass; the census takes one add per disk.
    ///
    /// # Panics
    /// If the object is already stored (double ingest is a logic error).
    pub fn ingest_object(
        &mut self,
        object: ObjectId,
        disks: Vec<u32>,
        tally: impl IntoIterator<Item = (PhysicalDiskId, u64)>,
    ) {
        assert!(
            !self.objects.contains_key(&object),
            "{object:?} ingested twice"
        );
        let mut counted = 0;
        for (disk, blocks) in tally {
            if blocks > 0 {
                *self.count_mut(disk) += blocks;
                counted += blocks;
            }
        }
        debug_assert_eq!(counted, disks.len() as u64, "tally covers every block");
        self.blocks += disks.len();
        self.objects.insert(object, disks);
    }

    /// Drops a whole object (object deletion), returning the physical
    /// ids its blocks were on; `None` if the object is not stored.
    pub fn evict_object(&mut self, object: ObjectId) -> Option<Vec<u32>> {
        let disks = self.objects.remove(&object)?;
        for &disk in &disks {
            self.debit(PhysicalDiskId(disk.into()));
        }
        self.blocks -= disks.len();
        Some(disks)
    }

    /// The physical id (`PhysicalDiskId.0`) each block of `object`
    /// currently lives on, in block order.
    pub fn object(&self, object: ObjectId) -> Option<&[u32]> {
        self.objects.get(&object).map(Vec::as_slice)
    }

    /// Where a block's data currently lives.
    pub fn locate(&self, block: BlockRef) -> Option<PhysicalDiskId> {
        let id = *self
            .object(block.object)?
            .get(usize::try_from(block.block).ok()?)?;
        Some(PhysicalDiskId(id.into()))
    }

    /// Moves one block between disks.
    ///
    /// # Panics
    /// If the block is unknown or not on `from` — both indicate the move
    /// plan and the store have diverged, which must never happen — or
    /// if `to` is past the `u32` id ceiling, which no array mints.
    pub fn relocate(&mut self, block: BlockRef, from: PhysicalDiskId, to: PhysicalDiskId) {
        let slot = self
            .slot_mut(block)
            .unwrap_or_else(|| panic!("relocating unknown block {block:?}"));
        assert_eq!(
            u64::from(*slot),
            from.0,
            "move plan disagrees with store for {block:?}"
        );
        *slot = id_word(to);
        self.debit(from);
        *self.count_mut(to) += 1;
    }

    /// Moves a block to `to` from wherever the store believes it is,
    /// without checking the source. For *reconstruction* paths only
    /// (rebuilding a failed disk's block from its mirror): the stored
    /// location is the dead disk, and the data actually flows from the
    /// replica. Returns the prior location.
    ///
    /// # Panics
    /// If the block is unknown, or `to` is past the `u32` id ceiling.
    pub fn relocate_reconstructed(
        &mut self,
        block: BlockRef,
        to: PhysicalDiskId,
    ) -> PhysicalDiskId {
        let slot = self
            .slot_mut(block)
            .unwrap_or_else(|| panic!("reconstructing unknown block {block:?}"));
        let from = PhysicalDiskId(std::mem::replace(slot, id_word(to)).into());
        self.debit(from);
        *self.count_mut(to) += 1;
        from
    }

    /// Number of blocks currently on `disk`.
    pub fn blocks_on(&self, disk: PhysicalDiskId) -> u64 {
        self.per_disk.get(disk.0 as usize).copied().unwrap_or(0)
    }

    /// Load census over an explicit disk ordering (absent disks count 0).
    pub fn census(&self, disks: &[PhysicalDiskId]) -> Vec<u64> {
        disks.iter().map(|&d| self.blocks_on(d)).collect()
    }

    fn slot_mut(&mut self, block: BlockRef) -> Option<&mut u32> {
        self.objects
            .get_mut(&block.object)?
            .get_mut(usize::try_from(block.block).ok()?)
    }

    /// `disk`'s census slot, growing the census to cover a newly minted
    /// id.
    fn count_mut(&mut self, disk: PhysicalDiskId) -> &mut u64 {
        let i = disk.0 as usize;
        if i >= self.per_disk.len() {
            self.per_disk.resize(i + 1, 0);
        }
        &mut self.per_disk[i]
    }

    /// Takes one block off `disk`'s census slot.
    fn debit(&mut self, disk: PhysicalDiskId) {
        let held = self
            .per_disk
            .get_mut(disk.0 as usize)
            .expect("census in sync");
        *held = held.checked_sub(1).expect("census in sync");
    }
}

/// `disks` counted per disk: the tally [`BlockStore::ingest_object`]
/// takes, for tests that build residency by hand.
#[cfg(test)]
pub(crate) fn tally(disks: &[u32]) -> Vec<(PhysicalDiskId, u64)> {
    let mut counts: Vec<(PhysicalDiskId, u64)> = Vec::new();
    for disk in disks.iter().map(|&d| PhysicalDiskId(d.into())) {
        match counts.iter_mut().find(|(d, _)| *d == disk) {
            Some((_, n)) => *n += 1,
            None => counts.push((disk, 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ingests `disks` with its tally.
    fn ingest(s: &mut BlockStore, object: u64, disks: Vec<PhysicalDiskId>) {
        let words: Vec<u32> = disks.into_iter().map(id_word).collect();
        let counts = tally(&words);
        s.ingest_object(ObjectId(object), words, counts);
    }

    fn blk(o: u64, b: u64) -> BlockRef {
        BlockRef {
            object: ObjectId(o),
            block: b,
        }
    }

    #[test]
    fn ingest_locate_evict_roundtrip() {
        let mut s = BlockStore::new();
        ingest(&mut s, 0, vec![PhysicalDiskId(2)]);
        ingest(&mut s, 1, vec![PhysicalDiskId(2)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.locate(blk(0, 0)), Some(PhysicalDiskId(2)));
        assert_eq!(s.locate(blk(0, 1)), None);
        assert_eq!(s.blocks_on(PhysicalDiskId(2)), 2);
        assert_eq!(s.evict_object(ObjectId(0)), Some(vec![2]));
        assert_eq!(s.blocks_on(PhysicalDiskId(2)), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.evict_object(ObjectId(9)), None);
    }

    #[test]
    fn census_counts_every_disk_of_an_object() {
        let mut s = BlockStore::new();
        ingest(&mut s, 0, (0..10).map(|b| PhysicalDiskId(b % 2)).collect());
        assert_eq!(
            s.census(&[PhysicalDiskId(0), PhysicalDiskId(1), PhysicalDiskId(7)]),
            vec![5, 5, 0]
        );
        assert_eq!(s.object(ObjectId(0)).map(<[_]>::len), Some(10));
        s.evict_object(ObjectId(0));
        assert!(s.is_empty());
        assert_eq!(
            s.census(&[PhysicalDiskId(0), PhysicalDiskId(1)]),
            vec![0, 0]
        );
    }

    #[test]
    fn relocate_updates_census() {
        let mut s = BlockStore::new();
        ingest(&mut s, 1, vec![PhysicalDiskId(0)]);
        s.relocate(blk(1, 0), PhysicalDiskId(0), PhysicalDiskId(3));
        assert_eq!(s.blocks_on(PhysicalDiskId(0)), 0);
        assert_eq!(s.blocks_on(PhysicalDiskId(3)), 1);
        assert_eq!(s.locate(blk(1, 0)), Some(PhysicalDiskId(3)));
        assert_eq!(
            s.relocate_reconstructed(blk(1, 0), PhysicalDiskId(4)),
            PhysicalDiskId(3)
        );
        assert_eq!(
            s.census(&[PhysicalDiskId(3), PhysicalDiskId(4)]),
            vec![0, 1]
        );
    }

    #[test]
    fn dense_census_covers_minted_and_retired_ids() {
        let mut s = BlockStore::new();
        // The initial array: disks 0..4.
        ingest(&mut s, 0, (0..8).map(|b| PhysicalDiskId(b % 4)).collect());
        assert_eq!(s.per_disk.len(), 4);
        // A never-seen id reads 0 and does not grow the census.
        assert_eq!(s.blocks_on(PhysicalDiskId(9)), 0);
        assert_eq!(s.blocks_on(PhysicalDiskId(u64::MAX)), 0);
        assert_eq!(s.per_disk.len(), 4);
        // Scale-outs mint ids past the initial array; an object landing
        // there grows the census to cover them.
        ingest(&mut s, 1, vec![PhysicalDiskId(6), PhysicalDiskId(5)]);
        assert_eq!(s.per_disk.len(), 7);
        assert_eq!(
            s.census(&(0..8).map(PhysicalDiskId).collect::<Vec<_>>()),
            vec![2, 2, 2, 2, 0, 1, 1, 0]
        );
        // So does a block relocated onto a newer one.
        s.relocate(blk(0, 0), PhysicalDiskId(0), PhysicalDiskId(8));
        assert_eq!(s.blocks_on(PhysicalDiskId(8)), 1);
        // Retire disk 0 (drained by relocation) and disk 6 (drained by
        // eviction): both read 0 from then on.
        s.relocate_reconstructed(blk(0, 4), PhysicalDiskId(8));
        assert_eq!(s.blocks_on(PhysicalDiskId(0)), 0);
        s.evict_object(ObjectId(1));
        assert_eq!(s.blocks_on(PhysicalDiskId(6)), 0);
        assert_eq!(s.blocks_on(PhysicalDiskId(5)), 0);
        assert_eq!(
            s.census(&(0..9).map(PhysicalDiskId).collect::<Vec<_>>()),
            vec![0, 2, 2, 2, 0, 0, 0, 0, 2]
        );
        assert_eq!(s.len(), 8);
        s.evict_object(ObjectId(0));
        assert!(s.is_empty());
        assert!(s.per_disk.iter().all(|&n| n == 0));
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn relocate_from_wrong_disk_panics() {
        let mut s = BlockStore::new();
        ingest(&mut s, 1, vec![PhysicalDiskId(0)]);
        s.relocate(blk(1, 0), PhysicalDiskId(7), PhysicalDiskId(3));
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn relocate_past_the_last_block_panics() {
        let mut s = BlockStore::new();
        ingest(&mut s, 1, vec![PhysicalDiskId(0)]);
        s.relocate(blk(1, 1), PhysicalDiskId(0), PhysicalDiskId(3));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_ingest_panics() {
        let mut s = BlockStore::new();
        ingest(&mut s, 1, vec![PhysicalDiskId(0)]);
        ingest(&mut s, 1, vec![PhysicalDiskId(1)]);
    }
}
