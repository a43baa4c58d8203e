//! Epoch-tagged cache of current random numbers `X_j` — the engine-side
//! state that makes `locate()` O(1) amortized and `plan_last_op` O(B).
//!
//! SCADDAR's access function recomputes `X_0 → X_j` on every lookup —
//! O(j) per block, O(B·j) per planning pass. But `X_j` evolves by
//! exactly one `REMAP` per scaling operation, so a server that stores
//! each block's current `X_j` next to the catalog only ever pays:
//!
//! * **lookup** — one `mod` (the stored `X_j` is already current);
//! * **scaling** — one [`RemapPipeline::step`] per block
//!   ([`XCache::advance_to`]), i.e. O(B) per operation instead of the
//!   O(B·j) replay, and the same values feed
//!   [`crate::plan_last_op_with_x`] so planning is O(B) too.
//!
//! The invalidation rule is the epoch tag: a cache at epoch `e` is valid
//! against a pipeline at epoch `e` and is advanced by folding every
//! entry through steps `e..pipeline.epoch()` — never rebuilt from
//! scratch unless the log itself restarts (full redistribution).
//!
//! The cache is an engine-layer acceleration, not placement state: it is
//! always reconstructible from catalog + log ([`XCache::rebuild`]), and
//! equivalence with the stateless `X_0`-fold oracle is property-tested.

use crate::object::{BlockRef, Catalog, CmObject, ObjectId};
use crate::pipeline::RemapPipeline;
use std::collections::HashMap;

/// Per-block current random numbers `X_e`, tagged with their epoch `e`.
#[derive(Debug, Clone, Default)]
pub struct XCache {
    epoch: usize,
    xs: HashMap<ObjectId, Vec<u64>>,
}

impl XCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        XCache::default()
    }

    /// Rebuilds the cache from scratch: every block's `X_0` folded to the
    /// pipeline's epoch. O(B·j) — the cost the incremental path avoids;
    /// used at construction, restore, and log restarts.
    pub fn rebuild(catalog: &Catalog, pipeline: &RemapPipeline) -> Self {
        let mut cache = XCache {
            epoch: pipeline.epoch(),
            xs: HashMap::with_capacity(catalog.objects().len()),
        };
        for obj in catalog.objects() {
            cache
                .xs
                .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
        }
        cache
    }

    /// One object's `X_0` stream folded to the pipeline's epoch: an
    /// exactly-sized bulk fill, then one step-outer batch fold.
    fn fold_object(catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) -> Vec<u64> {
        let blocks = obj.blocks as usize;
        let mut xs = Vec::with_capacity(blocks);
        catalog.randoms(obj).fill_values(blocks, &mut xs);
        pipeline.fold_batch(&mut xs);
        xs
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
    pub fn xs(&self, id: ObjectId) -> Option<&[u64]> {
        self.xs.get(&id).map(Vec::as_slice)
    }

    /// The cached `X_e` of one block.
    pub fn x(&self, id: ObjectId, block: u64) -> Option<u64> {
        self.xs.get(&id)?.get(block as usize).copied()
    }

    /// Admits a newly registered object: its `X_0` stream folded to the
    /// cache's epoch.
    ///
    /// # Panics
    /// If the pipeline's epoch differs from the cache's.
    pub fn insert_object(&mut self, catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) {
        assert_eq!(self.epoch, pipeline.epoch(), "cache and pipeline diverged");
        self.xs
            .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
    }

    /// Evicts a removed object.
    pub fn remove_object(&mut self, id: ObjectId) {
        self.xs.remove(&id);
    }

    /// Advances every cached value to the pipeline's epoch — the
    /// incremental invalidation rule: one [`RemapPipeline::step`] per
    /// block per epoch bump (normally exactly one bump, right after a
    /// scaling operation extended the pipeline).
    ///
    /// # Panics
    /// If the pipeline is *behind* the cache (stale pipeline).
    pub fn advance_to(&mut self, pipeline: &RemapPipeline) {
        assert!(
            self.epoch <= pipeline.epoch(),
            "pipeline at epoch {} is behind the cache at epoch {}",
            pipeline.epoch(),
            self.epoch
        );
        if self.epoch == pipeline.epoch() {
            return;
        }
        for xs in self.xs.values_mut() {
            for x in xs.iter_mut() {
                *x = pipeline.fold_from(self.epoch, *x);
            }
        }
        self.epoch = pipeline.epoch();
    }

    /// `(BlockRef, X_e)` for every catalog block, **in catalog order**
    /// (the iteration order of [`Catalog::iter_x0`], which planners rely
    /// on for deterministic plans). Objects present in the catalog but
    /// not the cache are skipped — callers keep the two in lockstep.
    pub fn blocks_with_x<'a>(
        &'a self,
        catalog: &'a Catalog,
    ) -> impl Iterator<Item = (BlockRef, u64)> + 'a {
        catalog
            .objects()
            .iter()
            .filter_map(|obj| Some((obj, self.xs.get(&obj.id)?)))
            .flat_map(|(obj, xs)| {
                xs.iter().enumerate().map(move |(block, &x)| {
                    (
                        BlockRef {
                            object: obj.id,
                            block: block as u64,
                        },
                        x,
                    )
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::x_at_current_epoch;
    use crate::log::ScalingLog;
    use crate::ops::ScalingOp;
    use scaddar_prng::{Bits, RngKind};

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
            cache.advance_to(&pipeline);
            assert_eq!(cache.epoch(), log.epoch());
            let rebuilt = XCache::rebuild(&catalog, &pipeline);
            for obj in catalog.objects() {
                assert_eq!(cache.xs(obj.id), rebuilt.xs(obj.id));
                let seq = catalog.randoms(obj);
                for block in (0..obj.blocks).step_by(37) {
                    assert_eq!(
                        cache.x(obj.id, block),
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
            for bits in [Bits::B32, Bits::B64] {
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
                    cache.advance_to(&pipeline);
                    let id = catalog.add_object(300 + i as u64);
                    cache.insert_object(&catalog, catalog.object(id).unwrap(), &pipeline);
                    // Every object, whether admitted now or advanced from
                    // an earlier epoch, equals the stateless X_0 fold.
                    for obj in catalog.objects() {
                        let seq = catalog.randoms(obj);
                        let oracle: Vec<u64> = (0..obj.blocks)
                            .map(|b| x_at_current_epoch(seq.value_at(b), &log))
                            .collect();
                        assert_eq!(
                            cache.xs(obj.id),
                            Some(&oracle[..]),
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
    fn advance_is_idempotent_at_same_epoch() {
        let (catalog, mut log) = setup();
        log.push(&ScalingOp::add_one()).unwrap();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        let snapshot = cache.clone();
        cache.advance_to(&pipeline);
        assert_eq!(cache.epoch(), snapshot.epoch());
        for obj in catalog.objects() {
            assert_eq!(cache.xs(obj.id), snapshot.xs(obj.id));
        }
    }

    #[test]
    fn blocks_with_x_follows_catalog_order() {
        let (mut catalog, log) = setup();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        let id = catalog.add_object(50);
        cache.insert_object(&catalog, catalog.object(id).unwrap(), &pipeline);
        let cached: Vec<_> = cache.blocks_with_x(&catalog).collect();
        let oracle: Vec<_> = catalog.iter_x0().collect();
        assert_eq!(cached, oracle, "epoch 0 cache is the X_0 stream, in order");
        cache.remove_object(id);
        assert_eq!(cache.blocks_with_x(&catalog).count(), 700);
        assert_eq!(cache.x(id, 0), None);
    }

    #[test]
    #[should_panic(expected = "behind the cache")]
    fn stale_pipeline_is_rejected() {
        let (catalog, mut log) = setup();
        let empty = RemapPipeline::compile(&log);
        log.push(&ScalingOp::add_one()).unwrap();
        let mut cache = XCache::rebuild(&catalog, &RemapPipeline::compile(&log));
        cache.advance_to(&empty);
    }
}
