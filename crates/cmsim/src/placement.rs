//! The placement state: the one value that decides which generation and
//! which physical disk serve a block.
//!
//! SCADDAR places a block by a pure function of the object seed and the
//! log of `N_j`s (Def. 4.1, Eqs. 3 and 5). In the server it reads the
//! live engine, the disk table and, mid-compaction, the staging engine
//! with its migrated set: [`PlacementState`] owns all three. Lookups,
//! the §6 mirror, the audit's expected homes and admission are its
//! methods, as are the scale commit and a compaction's begin and flip.

use crate::compaction::{has_block, BlockSet, CompactionProgress};
use crate::config::ServerConfig;
use crate::disk::{DiskArray, DiskSpec, PhysicalDiskId};
use crate::redistribute::PendingMove;
use crate::server::ServerError;
use crate::store::{id_word, BlockStore};
use scaddar_core::{
    BlockRef, CmObject, DiskIndex, MovePlan, ObjectId, RecordAction, Scaddar, ScaddarError,
    ScalingOp,
};
use std::ops::Range;

/// Everything a block's physical disk depends on.
#[derive(Debug, Clone)]
pub struct PlacementState {
    engine: Scaddar,
    disks: DiskArray,
    compaction: Option<Compaction>,
}

/// An object's residency (4-byte physical ids) and blocks per live disk.
type Placed = (Vec<u32>, Vec<(PhysicalDiskId, u64)>);

/// An in-flight rehash compaction ([`crate::compaction`]).
#[derive(Debug, Clone)]
struct Compaction {
    /// Serves the migrated blocks; the live engine after the flip.
    staging: Scaddar,
    /// Blocks resident at their staging placement.
    migrated: BlockSet,
}

impl PlacementState {
    /// The placement of a quiet server that lived through `engine`'s
    /// history: the disk table replays the log with `config`'s disk spec,
    /// so physical ids line up, and retires the removed disks. Fails if
    /// the log mints a physical id past the ceiling.
    pub(crate) fn replay(engine: Scaddar, config: &ServerConfig) -> Result<Self, ScaddarError> {
        let spec = DiskSpec {
            bandwidth: config.disk_bandwidth,
            capacity: config.disk_capacity,
        };
        let mut disks = DiskArray::new(engine.log().initial_disks(), spec);
        for record in engine.log().records() {
            disks.apply(&match record.action() {
                RecordAction::Added { count } => ScalingOp::Add { count: *count },
                RecordAction::Removed(set) => ScalingOp::Remove {
                    disks: set.indices().to_vec(),
                },
            })?;
        }
        disks.retire_empty(&BlockStore::new());
        Ok(PlacementState {
            engine,
            disks,
            compaction: None,
        })
    }

    /// The live engine: mid-compaction, the *old* generation.
    pub fn engine(&self) -> &Scaddar {
        &self.engine
    }

    /// The disk table: logical to physical disks, and each minted disk's
    /// spec and state.
    pub fn disks(&self) -> &DiskArray {
        &self.disks
    }

    /// The `(epoch, disks)` header of an epoch-tagged read.
    pub(crate) fn epoch_view(&self) -> (usize, u32) {
        (self.engine.epoch(), self.disks.disks())
    }

    /// True while a compaction is migrating blocks.
    pub(crate) fn compaction_active(&self) -> bool {
        self.compaction.is_some()
    }

    /// Mid-compaction: the staging engine and `object`'s migrated bitmap.
    fn staged(&self, object: ObjectId) -> Option<(&Scaddar, &[u64])> {
        let c = self.compaction.as_ref()?;
        Some((&c.staging, c.migrated.bits(object)))
    }

    /// Generation-aware `AF()`: the logical disk of one block under the
    /// generation serving it, the staging one for a block the compaction
    /// has migrated and the live one otherwise.
    pub fn locate(&self, object: ObjectId, block: u64) -> Result<DiskIndex, ScaddarError> {
        match self.staged(object) {
            Some((staging, migrated)) if has_block(migrated, block) => {
                staging.locate(object, block)
            }
            _ => self.engine.locate(object, block),
        }
    }

    /// The *physical* disks of the given blocks of one object, in input
    /// order, under the generation serving each: the live engine's
    /// cached batch path, then the staging engine for migrated blocks.
    pub fn locate_batch(
        &self,
        object: ObjectId,
        blocks: &[u64],
    ) -> Result<Vec<PhysicalDiskId>, ScaddarError> {
        let logical = self.engine.locate_batch(object, blocks)?;
        let mut out: Vec<PhysicalDiskId> = logical
            .into_iter()
            .map(|logical| self.disks.physical(logical))
            .collect();
        if let Some((staging, migrated)) = self.staged(object) {
            for (slot, &b) in out.iter_mut().zip(blocks) {
                if has_block(migrated, b) {
                    *slot = self
                        .disks
                        .physical(staging.locate(object, b).expect("staged block"));
                }
            }
        }
        Ok(out)
    }

    /// [`PlacementState::locate`] for every block of one object, in block
    /// order, at one bulk read per generation in play.
    pub(crate) fn placements(&self, object: ObjectId) -> Result<Vec<DiskIndex>, ScaddarError> {
        let obj = self.engine.catalog().object(object);
        let blocks = obj.ok_or(ScaddarError::UnknownObject(object))?.blocks;
        self.words(object, 0..blocks, |d| d)
    }

    /// The residency audit's expected homes: the 4-byte physical id of
    /// each block of a catalog object's range, in block order.
    pub(crate) fn homes(&self, object: ObjectId, blocks: Range<u64>) -> Vec<u32> {
        self.words(object, blocks, |d| id_word(self.disks.physical(d)))
            .expect("catalog blocks")
    }

    /// `word` of each block's disk under the generation serving it.
    fn words<T>(
        &self,
        object: ObjectId,
        blocks: Range<u64>,
        word: impl Fn(DiskIndex) -> T,
    ) -> Result<Vec<T>, ScaddarError> {
        let mut out = self
            .engine
            .map_placements_range(object, blocks.clone(), &word)?;
        if let Some((staging, migrated)) = self.staged(object) {
            let new = staging.map_placements_range(object, blocks.clone(), &word)?;
            for ((block, disk), new) in blocks.zip(&mut out).zip(new) {
                if has_block(migrated, block) {
                    *disk = new;
                }
            }
        }
        Ok(out)
    }

    /// The physical disk of a catalog block's §6 mirror: the mirror of
    /// its placement under the generation serving it.
    pub(crate) fn mirror(&self, object: ObjectId, block: u64) -> PhysicalDiskId {
        let af = self.locate(object, block).expect("catalog block");
        self.disks
            .physical(crate::faults::mirror_of(af, self.disks.disks()))
    }

    /// Adds an object to the catalog of every generation in play (ids
    /// advance in lockstep; a refused object burns its id in both) and
    /// places it: its residency and the blocks per live disk.
    pub(crate) fn admit(&mut self, blocks: u64) -> (ObjectId, Placed) {
        let id = self.engine.add_object(blocks);
        if let Some(c) = &mut self.compaction {
            let staged = c.staging.add_object(blocks);
            debug_assert_eq!(staged, id, "generations allocate ids in lockstep");
        }
        (id, self.place(&self.disks.physical_words(), id))
    }

    /// Drops an object from the catalog of every generation in play.
    pub(crate) fn remove_object(&mut self, id: ObjectId) -> Result<CmObject, ScaddarError> {
        let obj = self.engine.remove_object(id)?;
        if let Some(c) = &mut self.compaction {
            c.staging
                .remove_object(id)
                .expect("generations hold the same catalog");
            c.migrated.remove_object(id);
        }
        Ok(obj)
    }

    /// Residency as `AF()` places every catalog object.
    pub(crate) fn derive_store(&self) -> BlockStore {
        let ids = self.disks.physical_words();
        let mut store = BlockStore::new();
        for obj in self.engine.catalog().objects() {
            let (resident, tally) = self.place(&ids, obj.id);
            store.ingest_object(obj.id, resident, tally);
        }
        store
    }

    /// The one admission pass: the live engine's bulk read yields the
    /// object's logical disks a chunk at a time (cached `X_j` reduced by
    /// the vectorised kernel), and while a chunk is in L1 it is tallied
    /// and mapped through `ids` (each logical disk's physical id).
    fn place(&self, ids: &[u32], object: ObjectId) -> Placed {
        let obj = self.engine.catalog().object(object);
        let blocks = obj.expect("catalog object").blocks;
        let mut resident = Vec::with_capacity(blocks as usize);
        // Four sub-tallies per disk take consecutive blocks in turn, so
        // a run of blocks on one disk does not wait on one counter.
        let mut tally = vec![[0u64; 4]; ids.len()];
        self.engine
            .for_each_disk_chunk(object, 0..blocks, |logical| {
                let mut quads = logical.chunks_exact(4);
                for quad in &mut quads {
                    for (lane, &disk) in quad.iter().enumerate() {
                        tally[disk as usize][lane] += 1;
                    }
                }
                for &disk in quads.remainder() {
                    tally[disk as usize][0] += 1;
                }
                resident.extend(logical.iter().map(|&l| ids[l as usize]));
            })
            .expect("catalog object");
        let ids = ids.iter().map(|&id| PhysicalDiskId(id.into()));
        let tally = ids.zip(tally.iter().map(|t| t.iter().sum())).collect();
        (resident, tally)
    }

    /// Commits a scaling operation: the disk table checks it (the
    /// physical id ceiling) before the engine plans it and applies it
    /// after, so the two cannot diverge. Returns the move plan and the
    /// pre-op physical ids, against which reconstruction reads mirrors.
    /// Refused mid-compaction, which would have to re-plan against two
    /// generations: operators wait for the flip.
    pub(crate) fn scale(
        &mut self,
        op: &ScalingOp,
    ) -> Result<(MovePlan, Vec<PhysicalDiskId>), ServerError> {
        if self.compaction.is_some() {
            return Err(ServerError::CompactionActive);
        }
        self.disks.check(op).map_err(ScaddarError::from)?;
        let plan = self.engine.scale(op.clone())?;
        let before = self.disks.physical_ids();
        self.disks
            .apply(op)
            .expect("engine accepted the op, the array must too");
        Ok((plan, before))
    }

    /// Fails the disk at `logical`; returns its physical id.
    pub(crate) fn fail_disk(&mut self, logical: DiskIndex) -> PhysicalDiskId {
        self.disks.fail(logical)
    }

    /// Retires every removed disk that holds no block in `store`.
    pub(crate) fn retire_empty(&mut self, store: &BlockStore) -> Vec<PhysicalDiskId> {
        self.disks.retire_empty(store)
    }

    /// Opens the next generation (fresh `X_0 mod N` seed, empty log) and
    /// plans the migration of every object resident in `store`.
    pub(crate) fn begin_compaction(&mut self, store: &BlockStore) -> Vec<PendingMove> {
        self.compaction = Some(Compaction {
            staging: self.engine.open_next_generation(),
            migrated: BlockSet::default(),
        });
        let catalog = self.engine.catalog();
        let objects: Vec<ObjectId> = catalog.objects().iter().map(|o| o.id).collect();
        self.plan_migration(store, &objects)
    }

    /// Mid-compaction, plans the migration of `objects` from their
    /// residency in `store`: blocks already at their staging placement
    /// join the migrated set, every other block gets a move toward it,
    /// returned. No moves with no compaction in flight.
    pub(crate) fn plan_migration(
        &mut self,
        store: &BlockStore,
        objects: &[ObjectId],
    ) -> Vec<PendingMove> {
        let mut moves = Vec::new();
        let Some(c) = &mut self.compaction else {
            return moves;
        };
        let ids = self.disks.physical_words();
        for &object in objects {
            let resident = store.object(object).expect("catalog object stored");
            let targets = c
                .staging
                .map_placements(object, |logical| ids[logical.0 as usize])
                .expect("staged object");
            debug_assert_eq!(targets.len(), resident.len());
            let mut bits = vec![0u64; resident.len().div_ceil(64)];
            for (b, (&from, &to)) in resident.iter().zip(&targets).enumerate() {
                if from == to {
                    bits[b / 64] |= 1 << (b % 64);
                } else {
                    moves.push(PendingMove {
                        block: BlockRef {
                            object,
                            block: b as u64,
                        },
                        from: PhysicalDiskId(from.into()),
                        to: PhysicalDiskId(to.into()),
                    });
                }
            }
            c.migrated.insert_object(object, bits);
        }
        moves
    }

    /// Records that `block` resides at its staging placement; a no-op
    /// with no compaction in flight.
    pub(crate) fn mark_migrated(&mut self, block: BlockRef) {
        if let Some(c) = &mut self.compaction {
            c.migrated.insert(block);
        }
    }

    /// Progress of the in-flight compaction, if any, with `backlog`
    /// moves queued.
    pub(crate) fn progress(&self, backlog: u64) -> Option<CompactionProgress> {
        let c = self.compaction.as_ref()?;
        Some(CompactionProgress {
            from_generation: self.engine.generation(),
            to_generation: c.staging.generation(),
            total_blocks: self.engine.catalog().total_blocks(),
            migrated_blocks: c.migrated.len(),
            backlog,
        })
    }

    /// Flips to the next generation: the staging engine becomes *the*
    /// engine (stats handles transfer), lookups collapse back to one
    /// O(1) hash, and the fairness budget is full again.
    ///
    /// # Panics
    /// With no compaction in flight, or fewer than `resident` blocks
    /// migrated.
    pub(crate) fn flip(&mut self, resident: u64) {
        let c = self.compaction.take().expect("a compaction in flight");
        assert_eq!(c.migrated.len(), resident, "flip with unmigrated blocks");
        let mut staging = c.staging;
        if let Some(stats) = self.engine.stats() {
            staging.attach_stats(stats.clone());
        }
        self.engine = staging;
    }
}

#[cfg(test)]
impl PlacementState {
    /// The live engine, mutably: tests attach engine stats through it.
    pub(crate) fn engine_mut(&mut self) -> &mut Scaddar {
        &mut self.engine
    }
}
