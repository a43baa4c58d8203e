//! Epoch-tagged cache of current random numbers `X_j` — the engine-side
//! state that makes `locate()` O(1) amortized and `RF()` planning O(B).
//!
//! SCADDAR's access function recomputes `X_0 → X_j` on every lookup —
//! O(j) per block, O(B·j) per planning pass. But `X_j` evolves by
//! exactly one `REMAP` per scaling operation, so a server that stores
//! each block's current `X_j` next to the catalog only ever pays:
//!
//! * **lookup** — one `mod` (the stored `X_j` is already current);
//! * **scaling** — one pipeline step per block ([`XCache::advance`]),
//!   which both advances `X_{j-1}` to `X_j` and plans the operation:
//!   the step that yields `X_j` also says whether the block moved
//!   (§4's `RF()`), so one pass returns the [`MovePlan`]. That is O(B)
//!   per operation instead of the O(B·j) replay of the stateless
//!   oracle [`crate::plan_last_op`].
//!
//! The invalidation rule is the epoch tag: a cache at epoch `e` is valid
//! against a pipeline at epoch `e` and advances only to `e + 1`, right
//! after a scaling operation extended the pipeline — never rebuilt from
//! scratch unless the log itself restarts (full redistribution).
//!
//! The cache is an engine-layer acceleration, not placement state: it is
//! always reconstructible from catalog + log ([`XCache::rebuild`]), and
//! equivalence with the stateless `X_0`-fold oracle is property-tested.
//!
//! ## Word width
//!
//! No `REMAP` step increases `X` (DESIGN §8), so every cached `X_j` fits
//! the `b` bits of its `X_0`. At `b <= 32` an object's values are kept
//! as `Vec<u32>` (4 B per block) and reduced by the split 32-bit
//! reciprocal; `b` in 33..=64 keeps `Vec<u64>`. The width is chosen once
//! from the catalog's [`Bits`], and every bulk path dispatches on it
//! once per object.
//!
//! ## Reads
//!
//! A slice's length is its object's block count, so `Scaddar::locate`
//! validates and answers from one read of the map from object id to
//! slice and one reciprocal `mod`. Every bulk read of the values (bulk
//! `AF()`, the load census, the rehash count, and cmsim's admission,
//! residency audit and compaction plan on top of
//! `Scaddar::map_placements`, `Scaddar::map_placements_range` and
//! `Scaddar::for_each_disk_chunk`) goes through one method,
//! `Xs::for_each_disk_chunk`: one width dispatch, then one reciprocal
//! per block into a stack buffer of disks — for narrow words, a chunked
//! loop run at the host's widest vector tier.

use crate::address::DiskIndex;
use crate::log::ScalingLog;
use crate::object::{BlockRef, Catalog, CmObject, ObjectId};
use crate::pipeline::{MagicDivisor, RemapPipeline, Word};
use crate::plan::{BlockMove, MovePlan};
use scaddar_prng::Bits;
use std::collections::HashMap;
use std::ops::Range;

/// One object's cached values, at its catalog's word width.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Words {
    fn view(&self) -> Xs<'_> {
        match self {
            Words::Narrow(xs) => Xs::Narrow(xs),
            Words::Wide(xs) => Xs::Wide(xs),
        }
    }
}

/// One object's cached `X_j` values in block order, borrowed at the
/// width they are stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Xs<'a> {
    /// `b <= 32`: 4 B per block.
    Narrow(&'a [u32]),
    /// `b > 32`: 8 B per block.
    Wide(&'a [u64]),
}

impl Xs<'_> {
    /// Number of blocks.
    pub fn len(self) -> usize {
        match self {
            Xs::Narrow(xs) => xs.len(),
            Xs::Wide(xs) => xs.len(),
        }
    }

    /// True for an object of no blocks.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Block `i`'s value, widened.
    pub fn get(self, i: usize) -> Option<u64> {
        match self {
            Xs::Narrow(xs) => xs.get(i).map(|&x| u64::from(x)),
            Xs::Wide(xs) => xs.get(i).copied(),
        }
    }

    /// The disk of block `i`.
    #[inline]
    pub(crate) fn disk(self, i: usize, disks: MagicDivisor) -> Option<DiskIndex> {
        match self {
            Xs::Narrow(xs) => xs.get(i).map(|&x| disks.disk(x)),
            Xs::Wide(xs) => xs.get(i).map(|&x| disks.disk(x)),
        }
    }

    /// The disks of the listed blocks, in input order; `Err` names the
    /// first block past the end. One width dispatch per call.
    pub(crate) fn disks_of(
        self,
        blocks: &[u64],
        disks: MagicDivisor,
    ) -> Result<Vec<DiskIndex>, u64> {
        fn each<W: Word>(
            xs: &[W],
            blocks: &[u64],
            disks: MagicDivisor,
        ) -> Result<Vec<DiskIndex>, u64> {
            blocks
                .iter()
                .map(|&block| {
                    let x = usize::try_from(block)
                        .ok()
                        .and_then(|b| xs.get(b))
                        .ok_or(block)?;
                    Ok(disks.disk(*x))
                })
                .collect()
        }
        match self {
            Xs::Narrow(xs) => each(xs, blocks, disks),
            Xs::Wide(xs) => each(xs, blocks, disks),
        }
    }

    /// The blocks in `range`, or `None` if it reaches past the end or
    /// is reversed.
    pub(crate) fn range(self, range: Range<usize>) -> Option<Self> {
        match self {
            Xs::Narrow(xs) => xs.get(range).map(Xs::Narrow),
            Xs::Wide(xs) => xs.get(range).map(Xs::Wide),
        }
    }

    /// `f` of every block's disk, collected in block order, from
    /// [`Xs::for_each_disk_chunk`]. A `T = ()` fold allocates nothing.
    #[inline]
    pub(crate) fn map_placements<T>(
        self,
        disks: MagicDivisor,
        mut f: impl FnMut(DiskIndex) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_disk_chunk(disks, |chunk| {
            out.extend(chunk.iter().map(|&disk| f(DiskIndex(disk))));
        });
        out
    }

    /// The one bulk read of cached values: every block's disk, as
    /// logical-disk words handed to `f` up to [`CHUNK`] at a time, in
    /// block order. One width dispatch; narrow words are reduced by the
    /// vectorised kernel ([`MagicDivisor::reduce32`] at the host's
    /// widest tier), wide ones by the 128-bit reciprocal, into one
    /// stack buffer.
    #[inline]
    pub(crate) fn for_each_disk_chunk(self, disks: MagicDivisor, mut f: impl FnMut(&[u32])) {
        let mut buf = [0u32; CHUNK];
        match self {
            Xs::Narrow(xs) => {
                for chunk in xs.chunks(CHUNK) {
                    let reduced = &mut buf[..chunk.len()];
                    disks.reduce32(chunk, reduced);
                    f(reduced);
                }
            }
            Xs::Wide(xs) => {
                for chunk in xs.chunks(CHUNK) {
                    let reduced = &mut buf[..chunk.len()];
                    for (disk, &x) in reduced.iter_mut().zip(chunk) {
                        *disk = disks.disk(x).0;
                    }
                    f(reduced);
                }
            }
        }
    }
}

/// Blocks per chunk of [`Xs::for_each_disk_chunk`]: 4 KiB of disks on
/// the stack.
const CHUNK: usize = 1024;

/// Per-block current random numbers `X_e`, tagged with their epoch `e`.
#[derive(Debug, Clone)]
pub struct XCache {
    epoch: usize,
    bits: Bits,
    xs: HashMap<ObjectId, Words>,
}

impl XCache {
    /// An empty cache at epoch 0 for a catalog of width `bits`.
    pub fn new(bits: Bits) -> Self {
        XCache {
            epoch: 0,
            bits,
            xs: HashMap::new(),
        }
    }

    /// Rebuilds the cache from scratch: every block's `X_0` folded to the
    /// pipeline's epoch. O(B·j) — the cost the incremental path avoids;
    /// used at construction, restore, and log restarts.
    pub fn rebuild(catalog: &Catalog, pipeline: &RemapPipeline) -> Self {
        let mut cache = XCache {
            epoch: pipeline.epoch(),
            bits: catalog.bits(),
            xs: HashMap::with_capacity(catalog.objects().len()),
        };
        for obj in catalog.objects() {
            cache
                .xs
                .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
        }
        cache
    }

    /// True when the catalog's width stores `u32` words.
    fn narrow(bits: Bits) -> bool {
        bits.get() <= 32
    }

    /// One object's `X_0` stream folded to the pipeline's epoch: an
    /// exactly-sized bulk fill at the catalog's word width, then one
    /// step-outer batch fold.
    fn fold_object(catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) -> Words {
        let blocks = obj.blocks as usize;
        let seq = catalog.randoms(obj);
        let max = catalog.bits().max_value();
        if Self::narrow(catalog.bits()) {
            let mut xs = Vec::with_capacity(blocks);
            seq.fill_values_u32(blocks, &mut xs);
            pipeline.fold_words(0, &mut xs, max);
            Words::Narrow(xs)
        } else {
            let mut xs = Vec::with_capacity(blocks);
            seq.fill_values(blocks, &mut xs);
            pipeline.fold_words(0, &mut xs, max);
            Words::Wide(xs)
        }
    }

    /// The epoch the cached values are valid at.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of cached objects.
    pub fn objects(&self) -> usize {
        self.xs.len()
    }

    /// The cached `X_e` values of one object, in block order.
    pub fn xs(&self, id: ObjectId) -> Option<Xs<'_>> {
        self.xs.get(&id).map(Words::view)
    }

    /// Admits a newly registered object: its `X_0` stream folded to the
    /// cache's epoch.
    ///
    /// # Panics
    /// If the pipeline's epoch differs from the cache's, or the catalog's
    /// width from the cache's.
    pub fn insert_object(&mut self, catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) {
        assert_eq!(self.epoch, pipeline.epoch(), "cache and pipeline diverged");
        assert_eq!(self.bits, catalog.bits(), "cache and catalog widths differ");
        self.xs
            .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
    }

    /// Evicts a removed object.
    pub fn remove_object(&mut self, id: ObjectId) {
        self.xs.remove(&id);
    }

    /// Applies the pipeline's newest step — the operation `scale` just
    /// appended — to every cached value, and returns that operation's
    /// move plan (`RF()`) from the same pass: objects in catalog order,
    /// blocks in block order, as [`crate::plan_last_op`] emits them.
    ///
    /// # Panics
    /// If the pipeline is not exactly one record ahead of the cache, the
    /// log is not at the pipeline's epoch, or the cache and the catalog
    /// hold different objects.
    pub fn advance(
        &mut self,
        catalog: &Catalog,
        log: &ScalingLog,
        pipeline: &RemapPipeline,
    ) -> MovePlan {
        let j = pipeline.epoch();
        assert_eq!(
            self.epoch + 1,
            j,
            "the pipeline must be one record ahead of the cache at epoch {}",
            self.epoch
        );
        assert_eq!(log.epoch(), j, "log and pipeline diverged");
        assert_eq!(
            self.xs.len(),
            catalog.objects().len(),
            "cache and catalog hold different objects"
        );
        let max = self.bits.max_value();
        let mut moves = Vec::new();
        let mut total = 0u64;
        for obj in catalog.objects() {
            let object = obj.id;
            let push = |block, from, to| {
                let block = BlockRef {
                    object,
                    block: block as u64,
                };
                moves.push(BlockMove { block, from, to });
            };
            match self.xs.get_mut(&object).expect("catalog object is cached") {
                Words::Narrow(xs) => pipeline.step_words(j - 1, xs, max, push),
                Words::Wide(xs) => pipeline.step_words(j - 1, xs, max, push),
            }
            total += obj.blocks;
        }
        self.epoch = j;
        MovePlan {
            target_epoch: j,
            moves,
            total_blocks: total,
            optimal_fraction: log.records()[j - 1].optimal_move_fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::x_at_current_epoch;
    use crate::ops::ScalingOp;
    use crate::plan::plan_last_op;
    use scaddar_prng::{Bits, RngKind};

    /// Every cached value of one object, widened.
    fn widened(xs: Xs<'_>) -> Vec<u64> {
        match xs {
            Xs::Narrow(xs) => xs.iter().map(|&x| u64::from(x)).collect(),
            Xs::Wide(xs) => xs.to_vec(),
        }
    }

    fn setup() -> (Catalog, ScalingLog) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 3);
        catalog.add_object(500);
        catalog.add_object(200);
        (catalog, ScalingLog::new(4).unwrap())
    }

    #[test]
    fn incremental_advance_matches_rebuild_and_oracle() {
        let (catalog, mut log) = setup();
        let mut pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        for op in [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(0),
            ScalingOp::Add { count: 1 },
            ScalingOp::Remove { disks: vec![2, 5] },
        ] {
            log.push(&op).unwrap();
            pipeline.extend_from(&log);
            let plan = cache.advance(&catalog, &log, &pipeline);
            assert_eq!(plan, plan_last_op(&catalog, &log), "epoch {}", log.epoch());
            assert_eq!(cache.epoch(), log.epoch());
            let rebuilt = XCache::rebuild(&catalog, &pipeline);
            for obj in catalog.objects() {
                assert_eq!(cache.xs(obj.id), rebuilt.xs(obj.id));
                let seq = catalog.randoms(obj);
                for block in (0..obj.blocks).step_by(37) {
                    assert_eq!(
                        cache.xs(obj.id).unwrap().get(block as usize),
                        Some(x_at_current_epoch(seq.value_at(block), &log)),
                        "{} block {block} epoch {}",
                        obj.id,
                        log.epoch()
                    );
                }
            }
        }
    }

    #[test]
    fn admission_at_nonzero_epoch_matches_oracle_for_every_kind() {
        for kind in RngKind::ALL {
            for bits in [17, 32, 33, 64].map(|b| Bits::new(b).unwrap()) {
                let mut catalog = Catalog::new(kind, bits, 11);
                let mut log = ScalingLog::new(5).unwrap();
                let mut pipeline = RemapPipeline::compile(&log);
                let mut cache = XCache::rebuild(&catalog, &pipeline);
                for (i, op) in [
                    ScalingOp::Add { count: 3 },
                    ScalingOp::Remove { disks: vec![1, 4] },
                    ScalingOp::add_one(),
                    ScalingOp::remove_one(0),
                ]
                .into_iter()
                .enumerate()
                {
                    log.push(&op).unwrap();
                    pipeline.extend_from(&log);
                    let plan = cache.advance(&catalog, &log, &pipeline);
                    assert_eq!(plan, plan_last_op(&catalog, &log), "{kind} {bits}");
                    let rebuilt = XCache::rebuild(&catalog, &pipeline);
                    for obj in catalog.objects() {
                        assert_eq!(cache.xs(obj.id), rebuilt.xs(obj.id), "{kind} {bits}");
                    }
                    let id = catalog.add_object(300 + i as u64);
                    cache.insert_object(&catalog, catalog.object(id).unwrap(), &pipeline);
                    // Every object, whether admitted now or advanced from
                    // an earlier epoch, equals the stateless X_0 fold.
                    for obj in catalog.objects() {
                        let seq = catalog.randoms(obj);
                        let oracle: Vec<u64> = (0..obj.blocks)
                            .map(|b| x_at_current_epoch(seq.value_at(b), &log))
                            .collect();
                        let xs = cache.xs(obj.id).unwrap();
                        assert_eq!(matches!(xs, Xs::Narrow(_)), bits.get() <= 32, "{bits}");
                        assert_eq!(
                            widened(xs),
                            oracle,
                            "{kind} {bits} {} epoch {}",
                            obj.id,
                            log.epoch()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one record ahead")]
    fn advance_refuses_a_pipeline_at_the_cache_epoch() {
        let (catalog, mut log) = setup();
        log.push(&ScalingOp::add_one()).unwrap();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        cache.advance(&catalog, &log, &pipeline);
    }

    #[test]
    fn epoch_zero_cache_holds_the_x0_stream() {
        let (mut catalog, log) = setup();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        let id = catalog.add_object(50);
        cache.insert_object(&catalog, catalog.object(id).unwrap(), &pipeline);
        let cached: Vec<_> = catalog
            .objects()
            .iter()
            .flat_map(|obj| {
                let xs = widened(cache.xs(obj.id).unwrap());
                (0..obj.blocks).zip(xs).map(move |(block, x)| {
                    let object = obj.id;
                    (BlockRef { object, block }, x)
                })
            })
            .collect();
        let oracle: Vec<_> = catalog.iter_x0().collect();
        assert_eq!(cached, oracle, "epoch 0 cache is the X_0 stream, in order");
        cache.remove_object(id);
        assert_eq!(cache.objects(), 2);
        assert_eq!(cache.xs(id), None);
    }

    #[test]
    #[should_panic(expected = "one record ahead")]
    fn stale_pipeline_is_rejected() {
        let (catalog, mut log) = setup();
        let empty = RemapPipeline::compile(&log);
        log.push(&ScalingOp::add_one()).unwrap();
        let mut cache = XCache::rebuild(&catalog, &RemapPipeline::compile(&log));
        cache.advance(&catalog, &log, &empty);
    }
}
