//! # scaddar-core — SCAling Disks for Data Arranged Randomly
//!
//! A faithful implementation of **SCADDAR** (Goel, Shahabi, Yao,
//! Zimmermann; USC TR-742 / ICDE 2002): pseudo-random placement of
//! continuous-media blocks that survives disk additions and removals with
//!
//! * **RO1** — minimal block movement (exactly the optimal fraction
//!   `z_j`),
//! * **RO2** — preserved randomization (and hence load balance), and
//! * **AO1** — directory-free, `O(j)` mod/div block lookup,
//!
//! for up to a provable number of scaling operations (§4.3), after which
//! a full redistribution is recommended and the counters reset.
//!
//! ## Layout
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`remap`] | §4.2, Eqs. 3 & 5 | the `REMAP_j` functions |
//! | [`address`] | §4, AO1 | the access function `AF()`, tracing |
//! | [`plan`] | §4, RO1 | the redistribution function `RF()` |
//! | [`ops`], [`log`] | Def. 3.3 | scaling operations and the scaling log |
//! | [`bounds`] | §4.3 | unfairness analysis, rule of thumb, tracker |
//! | [`object`] | Def. 3.2 | objects, seeds, the catalog |
//!
//! ## Quick start
//!
//! ```
//! use scaddar_core::{Scaddar, ScaddarConfig, ScalingOp};
//!
//! // A server with 4 disks, 32-bit placement randomness.
//! let mut server = Scaddar::new(ScaddarConfig::new(4)).unwrap();
//! let movie = server.add_object(10_000); // 10k blocks
//!
//! // Blocks are spread across all 4 disks.
//! let d = server.locate(movie, 1234).unwrap();
//! assert!(d.0 < 4);
//!
//! // Add a disk group: only ~2/6 of blocks move, all onto disks 4 and 5.
//! let plan = server.scale(ScalingOp::Add { count: 2 }).unwrap();
//! assert!((plan.moved_fraction() - 2.0 / 6.0).abs() < 0.02);
//! assert!(plan.moves.iter().all(|m| m.to.0 >= 4));
//!
//! // Lookup still works, no directory anywhere.
//! let d = server.locate(movie, 1234).unwrap();
//! assert!(d.0 < 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod audit;
pub mod bounds;
pub mod error;
pub mod log;
pub mod object;
pub mod ops;
pub mod persist;
pub mod pipeline;
pub mod plan;
pub mod remap;
pub mod stats;
pub mod xcache;

pub use address::{locate, locate_at_epoch, trace, DiskIndex, TraceStep};
pub use audit::{audit_balance, audit_census, audit_plan, AuditReport, Finding};
pub use bounds::{
    exact_unfairness, rule_of_thumb_max_ops, unfairness_coefficient, FairnessReport,
    FairnessTracker,
};
pub use error::ScalingError;
pub use log::{RecordAction, ScalingLog, ScalingRecord};
pub use object::{BlockRef, Catalog, CmObject, ObjectId};
pub use ops::{RemovedSet, ScalingOp};
pub use persist::{PersistError, Snapshot};
pub use pipeline::RemapPipeline;
pub use plan::{plan_last_op, plan_last_op_with_x, BlockMove, MovePlan, OpMovement};
pub use stats::EngineStats;
pub use xcache::XCache;

use scaddar_prng::{Bits, RngKind};
use std::sync::Arc;

/// Configuration of a SCADDAR placement engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaddarConfig {
    /// Initial number of disks `N_0`.
    pub initial_disks: u32,
    /// Bit width `b` of placement random numbers (paper: 32 or 64).
    pub bits: Bits,
    /// Generator family for `p_r(s)`.
    pub rng: RngKind,
    /// Server-wide seed decorrelating object seeds.
    pub catalog_seed: u64,
    /// Fairness tolerance `eps` for the §4.3 precondition
    /// ([`Scaddar::next_op_is_safe`]). Paper's §5 uses 5%.
    pub epsilon: f64,
}

impl ScaddarConfig {
    /// Paper-flavoured defaults: 32-bit randomness, `eps = 5%`,
    /// SplitMix64 generator.
    pub fn new(initial_disks: u32) -> Self {
        ScaddarConfig {
            initial_disks,
            bits: Bits::B32,
            rng: RngKind::SplitMix64,
            catalog_seed: 0,
            epsilon: 0.05,
        }
    }

    /// Overrides the bit width.
    pub fn with_bits(mut self, bits: Bits) -> Self {
        self.bits = bits;
        self
    }

    /// Overrides the generator family.
    pub fn with_rng(mut self, rng: RngKind) -> Self {
        self.rng = rng;
        self
    }

    /// Overrides the catalog seed.
    pub fn with_catalog_seed(mut self, seed: u64) -> Self {
        self.catalog_seed = seed;
        self
    }

    /// Overrides the fairness tolerance.
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self
    }
}

/// Errors from the high-level [`Scaddar`] engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaddarError {
    /// Underlying scaling-log error.
    Scaling(ScalingError),
    /// Unknown object id.
    UnknownObject(ObjectId),
    /// Block index out of range for the object.
    BlockOutOfRange {
        /// The object.
        object: ObjectId,
        /// The requested block.
        block: u64,
        /// The object's block count.
        blocks: u64,
    },
}

impl std::fmt::Display for ScaddarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaddarError::Scaling(e) => write!(f, "scaling error: {e}"),
            ScaddarError::UnknownObject(id) => write!(f, "unknown {id}"),
            ScaddarError::BlockOutOfRange {
                object,
                block,
                blocks,
            } => write!(f, "{object} has {blocks} blocks, no block {block}"),
        }
    }
}

impl std::error::Error for ScaddarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScaddarError::Scaling(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScalingError> for ScaddarError {
    fn from(e: ScalingError) -> Self {
        ScaddarError::Scaling(e)
    }
}

/// The high-level SCADDAR placement engine: a [`Catalog`], a
/// [`ScalingLog`], and a [`FairnessTracker`], behind one API.
///
/// This is pure placement logic — it decides *where blocks live*, not how
/// bytes move. The `cmsim` crate wraps it in a simulated CM server with
/// disks, streams, and an online redistribution executor.
///
/// Internally the engine keeps two accelerations in lockstep with the
/// log — a compiled [`RemapPipeline`] and an epoch-tagged [`XCache`] of
/// every block's current `X_j` — which make [`Scaddar::locate`] O(1),
/// [`Scaddar::locate_all`] O(B), and [`Scaddar::scale`] O(B) per
/// operation instead of the stateless O(j)/O(B·j) folds. Both are
/// derived state: always reconstructible from catalog + log, and the
/// stateless fold remains available as [`locate`]/[`plan_last_op`] (the
/// reference oracle the accelerated paths are property-tested against).
#[derive(Debug, Clone)]
pub struct Scaddar {
    catalog: Catalog,
    log: ScalingLog,
    pipeline: RemapPipeline,
    cache: XCache,
    fairness: FairnessTracker,
    epsilon: f64,
    movements: Vec<OpMovement>,
    stats: Option<Arc<EngineStats>>,
    /// Placement generation: bumped by a rehash compaction, which
    /// re-derives every `X_0` from a fresh catalog seed and restarts the
    /// scaling log (see [`Scaddar::open_next_generation`]).
    generation: u64,
}

/// Generation `g`'s catalog seed, chained from generation `g-1`'s via a
/// SplitMix64-style finalizer. Deterministic, so two replicas compacting
/// the same state open identical generations.
fn next_generation_seed(seed: u64, generation: u64) -> u64 {
    let mut z = seed
        .wrapping_add(generation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scaddar {
    /// Creates an engine with `config.initial_disks` empty disks.
    pub fn new(config: ScaddarConfig) -> Result<Self, ScaddarError> {
        let log = ScalingLog::new(config.initial_disks)?;
        Ok(Scaddar {
            catalog: Catalog::new(config.rng, config.bits, config.catalog_seed),
            pipeline: RemapPipeline::compile(&log),
            cache: XCache::new(),
            fairness: FairnessTracker::new(config.bits, config.initial_disks),
            log,
            epsilon: config.epsilon,
            movements: Vec::new(),
            stats: None,
            generation: 0,
        })
    }

    /// Attaches metric handles; subsequent engine activity records into
    /// them. Clones of the engine share the same handles.
    pub fn attach_stats(&mut self, stats: Arc<EngineStats>) {
        self.stats = Some(stats);
    }

    /// Detaches metric handles; subsequent activity is unobserved.
    /// Used by dry-run probes cloned from a live engine so preview
    /// work does not pollute the live registry.
    pub fn detach_stats(&mut self) {
        self.stats = None;
    }

    /// The attached metric handles, if any.
    pub fn stats(&self) -> Option<&Arc<EngineStats>> {
        self.stats.as_ref()
    }

    /// The object catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The scaling log (read-only).
    pub fn log(&self) -> &ScalingLog {
        &self.log
    }

    /// Current number of disks `N_j`.
    pub fn disks(&self) -> u32 {
        self.log.current_disks()
    }

    /// Current epoch `j`.
    pub fn epoch(&self) -> usize {
        self.log.epoch()
    }

    /// Current placement generation (0 for an engine that has never
    /// been rehash-compacted).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The compiled remap pipeline kept in lockstep with the log.
    pub fn pipeline(&self) -> &RemapPipeline {
        &self.pipeline
    }

    /// Registers a new object of `blocks` blocks.
    pub fn add_object(&mut self, blocks: u64) -> ObjectId {
        let id = self.catalog.add_object(blocks);
        let obj = *self.catalog.object(id).expect("object was just added");
        self.cache
            .insert_object(&self.catalog, &obj, &self.pipeline);
        if let Some(stats) = &self.stats {
            // Admission folds every new block X_0 → X_j.
            stats
                .pipeline_folds
                .add(blocks.saturating_mul(self.log.epoch() as u64));
        }
        id
    }

    /// Deletes an object from the catalog.
    pub fn remove_object(&mut self, id: ObjectId) -> Result<CmObject, ScaddarError> {
        let obj = self
            .catalog
            .remove_object(id)
            .ok_or(ScaddarError::UnknownObject(id))?;
        self.cache.remove_object(id);
        Ok(obj)
    }

    /// `AF()`: the disk of `block` of `object` at the current epoch.
    /// O(log objects): a binary search of the catalog, one X-cache
    /// lookup and one reciprocal `mod` — no per-epoch fold.
    ///
    /// With stats attached the overhead is one relaxed atomic increment
    /// per call (the X-cache hit counter, which doubles as the sampling
    /// basis); 1 in [`stats::LOCATE_SAMPLE_MASK`]` + 1` calls also pay
    /// two clock reads to feed the latency histogram.
    pub fn locate(&self, object: ObjectId, block: u64) -> Result<DiskIndex, ScaddarError> {
        if let Some(stats) = &self.stats {
            let calls = stats.xcache_hits.inc_weak();
            if calls & stats.sample_mask == 0 {
                let start = stats.clock.now_ns();
                let out = self.locate_inner(object, block);
                stats
                    .locate_ns
                    .record(stats.clock.now_ns().saturating_sub(start));
                return out;
            }
        }
        self.locate_inner(object, block)
    }

    #[inline]
    fn locate_inner(&self, object: ObjectId, block: u64) -> Result<DiskIndex, ScaddarError> {
        let obj = self
            .catalog
            .object(object)
            .ok_or(ScaddarError::UnknownObject(object))?;
        if block >= obj.blocks {
            return Err(ScaddarError::BlockOutOfRange {
                object,
                block,
                blocks: obj.blocks,
            });
        }
        let x = self
            .cache
            .x(object, block)
            .expect("cache holds every catalog block");
        Ok(self.pipeline.disk_of(x))
    }

    /// Bulk `AF()` as an iterator: the disk of every block of `object`,
    /// in block order. O(B): each cached `X_j` is reduced mod `N_j` by
    /// one reciprocal multiply, with no division and no allocation.
    pub fn placements(
        &self,
        object: ObjectId,
    ) -> Result<impl ExactSizeIterator<Item = DiskIndex> + '_, ScaddarError> {
        let xs = self
            .cache
            .xs(object)
            .ok_or(ScaddarError::UnknownObject(object))?;
        if let Some(stats) = &self.stats {
            stats.locate_bulk_blocks.add(xs.len() as u64);
        }
        let disks = self.pipeline.disk_divisor();
        Ok(xs.iter().map(move |&x| DiskIndex(disks.rem(x) as u32)))
    }

    /// Bulk `AF()`: the disks of *every* block of `object`, in block
    /// order — [`Scaddar::placements`], collected.
    pub fn locate_all(&self, object: ObjectId) -> Result<Vec<DiskIndex>, ScaddarError> {
        Ok(self.placements(object)?.collect())
    }

    /// Bulk `AF()` for an arbitrary list of blocks of one object, in
    /// input order. The batch companion of [`Scaddar::locate`] (same
    /// validation, same O(1)-per-block cost).
    pub fn locate_batch(
        &self,
        object: ObjectId,
        blocks: &[u64],
    ) -> Result<Vec<DiskIndex>, ScaddarError> {
        let xs = self
            .cache
            .xs(object)
            .ok_or(ScaddarError::UnknownObject(object))?;
        let disks = self.pipeline.disk_divisor();
        if let Some(stats) = &self.stats {
            stats.locate_bulk_blocks.add(blocks.len() as u64);
        }
        blocks
            .iter()
            .map(|&block| {
                let x = xs
                    .get(block as usize)
                    .ok_or(ScaddarError::BlockOutOfRange {
                        object,
                        block,
                        blocks: xs.len() as u64,
                    })?;
                Ok(DiskIndex(disks.rem(*x) as u32))
            })
            .collect()
    }

    /// The full remap history of one block (worked examples, debugging).
    pub fn trace(&self, object: ObjectId, block: u64) -> Result<Vec<TraceStep>, ScaddarError> {
        let obj = self
            .catalog
            .object(object)
            .ok_or(ScaddarError::UnknownObject(object))?;
        if let Some(stats) = &self.stats {
            // Tracing bypasses the cache: a stateless O(j) fold.
            stats.xcache_misses.inc();
            stats.pipeline_folds.add(self.log.epoch() as u64);
        }
        Ok(trace(self.catalog.x0(obj, block), &self.log))
    }

    /// Applies a scaling operation and returns the move plan (`RF()`).
    ///
    /// O(B): the cache already holds every block's `X_{j-1}`, so the plan
    /// applies only the new record, and advancing the cache afterwards is
    /// the same single [`RemapPipeline::step`] per block. (The stateless
    /// O(B·j) [`plan_last_op`] computes the identical plan.)
    pub fn scale(&mut self, op: ScalingOp) -> Result<MovePlan, ScaddarError> {
        let scale_start = self.stats.as_ref().map(|s| s.clock.now_ns());
        let disks_before = self.log.current_disks();
        let record = self.log.push(&op)?;
        let disks_after = record.disks_after();
        self.fairness.record_op(disks_after);
        self.pipeline.extend_from(&self.log);
        let plan_start = self.stats.as_ref().map(|s| s.clock.now_ns());
        let plan = plan_last_op_with_x(self.cache.blocks_with_x(&self.catalog), &self.log);
        if let (Some(stats), Some(start)) = (&self.stats, plan_start) {
            stats
                .plan_ns
                .record(stats.clock.now_ns().saturating_sub(start));
            stats.plan_blocks.add(plan.total_blocks);
        }
        self.cache.advance_to(&self.pipeline);
        self.movements
            .push(OpMovement::from_plan(&plan, disks_before, disks_after));
        if let (Some(stats), Some(start)) = (&self.stats, scale_start) {
            stats.scale_ops.inc();
            stats.scale_moved_blocks.add(plan.moves.len() as u64);
            stats.xcache_epoch_bumps.inc();
            // Planning applied the new record once per block; advancing
            // the cache applied it once more.
            stats
                .pipeline_folds
                .add(plan.total_blocks.saturating_mul(2));
            stats
                .scale_ns
                .record(stats.clock.now_ns().saturating_sub(start));
        }
        Ok(plan)
    }

    /// Lemma 4.3 guard: is one more operation (ending at `disks_after`
    /// disks) within the configured fairness tolerance?
    pub fn next_op_is_safe(&self, disks_after: u32) -> bool {
        self.fairness.next_op_is_safe(disks_after, self.epsilon)
    }

    /// Analytic fairness snapshot (§4.3).
    pub fn fairness(&self) -> FairnessReport {
        self.fairness.report()
    }

    /// The configured fairness tolerance `eps` (§4.3).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Movement accounting for every scaling operation applied through
    /// *this* engine value, oldest first — the RO1 audit trail a health
    /// monitor replays ([`OpMovement::moved_fraction`] vs the recorded
    /// optimal `z_j`). Cleared by [`Scaddar::full_redistribution`] (the
    /// log restarts) and empty on snapshot restore (the log records
    /// operations, not move counts).
    pub fn op_movements(&self) -> &[OpMovement] {
        &self.movements
    }

    /// Performs the paper's recommended escape hatch once the §4.3
    /// precondition fails: a **full redistribution**. The scaling log
    /// restarts at the current disk count (placement becomes plain
    /// `X_0 mod N`) and the fairness tracker resets. Returns how many
    /// blocks change disks — essentially a `z`-independent, near-complete
    /// reshuffle, which is why the paper avoids doing this often.
    pub fn full_redistribution(&mut self) -> u64 {
        let disks = u64::from(self.disks());
        // Old disk from the cached X_j, fresh disk from X_0; the two
        // iterators walk the same catalog order.
        let moved = self
            .cache
            .blocks_with_x(&self.catalog)
            .zip(self.catalog.iter_x0())
            .filter(|((_, x_j), (_, x0))| x_j % disks != x0 % disks)
            .count() as u64;
        self.log = ScalingLog::new(disks as u32).expect("disks > 0 by invariant");
        self.fairness.reset(disks as u32);
        self.movements.clear();
        self.pipeline = RemapPipeline::compile(&self.log);
        self.cache = XCache::rebuild(&self.catalog, &self.pipeline);
        if let Some(stats) = &self.stats {
            stats.xcache_rebuilds.inc();
        }
        moved
    }

    /// Opens the **next placement generation**: a staging engine with
    /// the same objects under re-derived seeds (fresh `X_0` per block),
    /// a scaling log restarted at the current disk count (locate
    /// collapses back to one `X_0 mod N` hash), and a full fairness
    /// budget. The staging engine serves nothing by itself — a caller
    /// (cmsim's compaction) migrates block residency toward it and then
    /// flips over. Deterministic: the new catalog seed is chained from
    /// the current one, so the next generation is a pure function of
    /// the current placement state.
    pub fn open_next_generation(&self) -> Scaddar {
        let generation = self.generation + 1;
        let catalog = self.catalog.reseeded(next_generation_seed(
            self.catalog.catalog_seed(),
            generation,
        ));
        let disks = self.disks();
        let log = ScalingLog::new(disks).expect("disks > 0 by invariant");
        let pipeline = RemapPipeline::compile(&log);
        let cache = XCache::rebuild(&catalog, &pipeline);
        Scaddar {
            fairness: FairnessTracker::new(catalog.bits(), disks),
            catalog,
            log,
            pipeline,
            cache,
            epsilon: self.epsilon,
            movements: Vec::new(),
            // Staging engines are unobserved; the caller re-attaches
            // handles at flip time so preview work never double-counts.
            stats: None,
            generation,
        }
    }

    /// **Offline** rehash compaction: replaces this engine with its next
    /// generation in place and returns how many blocks change disks.
    /// Unlike [`Scaddar::full_redistribution`] — which keeps the old
    /// `X_0`s and merely restarts the log — this re-derives every
    /// placement from a fresh seed, so the expected moved fraction is
    /// `1 - 1/N` regardless of history. The online, rate-limited path
    /// lives in cmsim's compaction machinery on top of
    /// [`Scaddar::open_next_generation`].
    pub fn rehash_to_next_generation(&mut self) -> u64 {
        let next = self.open_next_generation();
        let disks = u64::from(self.disks());
        let moved = self
            .cache
            .blocks_with_x(&self.catalog)
            .zip(next.cache.blocks_with_x(&next.catalog))
            .filter(|((_, x_old), (_, x_new))| x_old % disks != x_new % disks)
            .count() as u64;
        let stats = self.stats.take();
        *self = next;
        self.stats = stats;
        if let Some(stats) = &self.stats {
            stats.xcache_rebuilds.inc();
        }
        moved
    }

    /// Serializes the engine's entire placement state (catalog + log) to
    /// the compact [`persist`] format — everything a restarted server
    /// needs to relocate every block.
    pub fn snapshot(&self) -> Vec<u8> {
        let bytes = persist::encode(&Snapshot {
            log: self.log.clone(),
            catalog: self.catalog.clone(),
            generation: self.generation,
        });
        if let Some(stats) = &self.stats {
            stats.persist_bytes_written.add(bytes.len() as u64);
        }
        bytes
    }

    /// Rebuilds an engine from a [`Scaddar::snapshot`]. The fairness
    /// tolerance is configuration, not placement state, so it is passed
    /// fresh.
    pub fn from_snapshot(bytes: &[u8], epsilon: f64) -> Result<Self, PersistError> {
        Self::from_snapshot_with_stats(bytes, epsilon, None)
    }

    /// [`Scaddar::from_snapshot`] with metric handles attached from the
    /// start, so the restore itself is counted: bytes read, validation
    /// failures, and the X-cache rebuild.
    pub fn from_snapshot_with_stats(
        bytes: &[u8],
        epsilon: f64,
        stats: Option<Arc<EngineStats>>,
    ) -> Result<Self, PersistError> {
        if let Some(s) = &stats {
            s.persist_bytes_read.add(bytes.len() as u64);
        }
        let snap = match persist::decode(bytes) {
            Ok(snap) => snap,
            Err(e) => {
                if let Some(s) = &stats {
                    s.persist_validation_failures.inc();
                }
                return Err(e);
            }
        };
        let fairness = FairnessTracker::from_log(snap.catalog.bits(), &snap.log);
        let pipeline = RemapPipeline::compile(&snap.log);
        let cache = XCache::rebuild(&snap.catalog, &pipeline);
        if let Some(s) = &stats {
            s.xcache_rebuilds.inc();
            s.pipeline_folds.add(
                snap.catalog
                    .total_blocks()
                    .saturating_mul(snap.log.epoch() as u64),
            );
        }
        Ok(Scaddar {
            catalog: snap.catalog,
            log: snap.log,
            pipeline,
            cache,
            fairness,
            epsilon,
            // The log records the operations but not their per-plan
            // move counts, so restored engines restart RO1 accounting.
            movements: Vec::new(),
            stats,
            generation: snap.generation,
        })
    }

    /// Audits the engine's derived state (pipeline, X-cache, fairness
    /// tracker) against a from-scratch re-derivation from the only
    /// authoritative state, catalog + log. `Ok(())` when everything is
    /// in lockstep; `Err` names the first divergence.
    ///
    /// O(B·j) — this is a *testing* hook (used by the simulation
    /// harness after every step and by recovery checks), not a hot
    /// path.
    pub fn verify_derived_state(&self) -> Result<(), String> {
        if self.pipeline.epoch() != self.log.epoch() {
            return Err(format!(
                "pipeline epoch {} != log epoch {}",
                self.pipeline.epoch(),
                self.log.epoch()
            ));
        }
        if self.pipeline.current_disks() != self.log.current_disks() {
            return Err(format!(
                "pipeline disks {} != log disks {}",
                self.pipeline.current_disks(),
                self.log.current_disks()
            ));
        }
        let fresh_pipeline = RemapPipeline::compile(&self.log);
        if fresh_pipeline != self.pipeline {
            return Err("incrementally extended pipeline != recompiled pipeline".into());
        }
        if self.cache.epoch() != self.log.epoch() {
            return Err(format!(
                "x-cache epoch {} != log epoch {}",
                self.cache.epoch(),
                self.log.epoch()
            ));
        }
        let rebuilt = XCache::rebuild(&self.catalog, &self.pipeline);
        if self.cache.objects() != self.catalog.objects().len() {
            return Err(format!(
                "x-cache holds {} objects, catalog has {}",
                self.cache.objects(),
                self.catalog.objects().len()
            ));
        }
        for obj in self.catalog.objects() {
            if self.cache.xs(obj.id) != rebuilt.xs(obj.id) {
                return Err(format!("x-cache diverges from rebuild for {}", obj.id));
            }
        }
        let replayed = FairnessTracker::from_log(self.catalog.bits(), &self.log);
        if replayed != self.fairness {
            return Err(format!(
                "fairness tracker {:?} != log replay {:?}",
                self.fairness.report(),
                replayed.report()
            ));
        }
        Ok(())
    }

    /// Per-disk block counts across the whole catalog — the load census
    /// behind every balance experiment. O(B) over the cached `X_j`.
    pub fn load_distribution(&self) -> Vec<u64> {
        let disks = u64::from(self.disks());
        let mut counts = vec![0u64; disks as usize];
        for (_, x) in self.cache.blocks_with_x(&self.catalog) {
            counts[(x % disks) as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(disks: u32, blocks: u64) -> (Scaddar, ObjectId) {
        let mut s = Scaddar::new(ScaddarConfig::new(disks).with_catalog_seed(11)).unwrap();
        let id = s.add_object(blocks);
        (s, id)
    }

    #[test]
    fn locate_validates_inputs() {
        let (s, id) = engine(4, 100);
        assert!(s.locate(id, 99).is_ok());
        assert_eq!(
            s.locate(id, 100),
            Err(ScaddarError::BlockOutOfRange {
                object: id,
                block: 100,
                blocks: 100
            })
        );
        assert_eq!(
            s.locate(ObjectId(42), 0),
            Err(ScaddarError::UnknownObject(ObjectId(42)))
        );
    }

    #[test]
    fn scale_moves_minimum_and_locate_follows() {
        let (mut s, id) = engine(4, 50_000);
        let before: Vec<_> = (0..50_000).map(|b| s.locate(id, b).unwrap()).collect();
        let plan = s.scale(ScalingOp::Add { count: 1 }).unwrap();
        let after: Vec<_> = (0..50_000).map(|b| s.locate(id, b).unwrap()).collect();
        let mut observed_moves = 0;
        for b in 0..50_000usize {
            if before[b] != after[b] {
                observed_moves += 1;
                assert_eq!(after[b], DiskIndex(4), "block {b} moved to an old disk");
            }
        }
        assert_eq!(observed_moves, plan.moves.len());
    }

    #[test]
    fn load_stays_balanced_through_mixed_ops() {
        let (mut s, _) = engine(4, 2_000);
        for _ in 0..19 {
            s.add_object(2_000);
        }
        for op in [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(3),
            ScalingOp::Add { count: 1 },
        ] {
            s.scale(op).unwrap();
        }
        let loads = s.load_distribution();
        assert_eq!(loads.iter().sum::<u64>(), 40_000);
        let mean = 40_000.0 / loads.len() as f64;
        for (d, &l) in loads.iter().enumerate() {
            let dev = (l as f64 - mean).abs() / mean;
            assert!(dev < 0.1, "disk {d} load {l} deviates {dev:.3} from mean");
        }
    }

    #[test]
    fn fairness_guard_trips_near_paper_threshold() {
        // b=32, hovering at 8 disks, eps=5%: the §4.3 budget admits
        // sigma up to ~2^27.6; alternating remove/add multiplies sigma by
        // 7·8 per round-trip, so the guard must trip within a handful of
        // round-trips but not immediately.
        let mut s = Scaddar::new(ScaddarConfig::new(8)).unwrap();
        let mut ops = 0;
        while s.next_op_is_safe(if ops % 2 == 0 { 7 } else { 8 }) && ops < 100 {
            if ops % 2 == 0 {
                s.scale(ScalingOp::remove_one(0)).unwrap();
            } else {
                s.scale(ScalingOp::Add { count: 1 }).unwrap();
            }
            ops += 1;
        }
        assert!((4..=10).contains(&ops), "guard tripped at {ops} ops");
    }

    #[test]
    fn op_movements_record_the_ro1_audit_trail() {
        let (mut s, _) = engine(4, 10_000);
        assert!(s.op_movements().is_empty());
        let p1 = s.scale(ScalingOp::Add { count: 2 }).unwrap();
        let p2 = s.scale(ScalingOp::remove_one(1)).unwrap();
        let trail = s.op_movements();
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[0].epoch, 1);
        assert_eq!((trail[0].disks_before, trail[0].disks_after), (4, 6));
        assert_eq!(trail[0].moved, p1.moves.len() as u64);
        assert_eq!(trail[0].total, p1.total_blocks);
        assert_eq!(trail[0].optimal_fraction, p1.optimal_fraction);
        assert!((trail[0].moved_fraction() - p1.moved_fraction()).abs() < 1e-15);
        assert_eq!((trail[1].disks_before, trail[1].disks_after), (6, 5));
        assert_eq!(trail[1].moved, p2.moves.len() as u64);
        // A full redistribution restarts the log and the trail with it.
        s.full_redistribution();
        assert!(s.op_movements().is_empty());
    }

    #[test]
    fn full_redistribution_resets_fairness() {
        let (mut s, _) = engine(8, 10_000);
        for _ in 0..12 {
            s.scale(ScalingOp::remove_one(0)).unwrap();
            s.scale(ScalingOp::Add { count: 1 }).unwrap();
        }
        assert!(!s.next_op_is_safe(8));
        let moved = s.full_redistribution();
        assert!(moved > 0, "a late full redistribution moves many blocks");
        assert_eq!(s.epoch(), 0);
        assert!(s.next_op_is_safe(8));
        let loads = s.load_distribution();
        assert_eq!(loads.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn next_generation_collapses_locate_to_one_hash() {
        let (mut s, id) = engine(8, 10_000);
        for _ in 0..6 {
            s.scale(ScalingOp::remove_one(0)).unwrap();
            s.scale(ScalingOp::Add { count: 1 }).unwrap();
        }
        assert_eq!(s.epoch(), 12);
        assert_eq!(s.generation(), 0);
        let next = s.open_next_generation();
        assert_eq!(next.generation(), 1);
        assert_eq!(next.epoch(), 0, "fresh log: locate is X_0 mod N again");
        assert_eq!(next.disks(), s.disks());
        assert!(next.next_op_is_safe(7), "fairness budget is full again");
        next.verify_derived_state().unwrap();
        // Same library, new placement: every block locatable, loads
        // balanced straight from X_0.
        let loads = next.load_distribution();
        assert_eq!(loads.iter().sum::<u64>(), 10_000);
        let mean = 10_000.0 / loads.len() as f64;
        for &l in &loads {
            assert!((l as f64 - mean).abs() / mean < 0.15, "{loads:?}");
        }
        // Determinism: opening the next generation twice is identical.
        let again = s.open_next_generation();
        for blk in (0..10_000).step_by(997) {
            assert_eq!(
                next.locate(id, blk).unwrap(),
                again.locate(id, blk).unwrap()
            );
        }
    }

    #[test]
    fn offline_rehash_replaces_in_place_and_counts_moves() {
        let (mut s, id) = engine(5, 8_000);
        s.scale(ScalingOp::Add { count: 2 }).unwrap();
        s.scale(ScalingOp::remove_one(1)).unwrap();
        let staged = s.open_next_generation();
        let moved = s.rehash_to_next_generation();
        assert_eq!(s.generation(), 1);
        assert_eq!(s.epoch(), 0);
        // A rehash is a near-complete reshuffle: expect ~(1 - 1/6) moved.
        let frac = moved as f64 / 8_000.0;
        assert!((frac - 5.0 / 6.0).abs() < 0.05, "moved fraction {frac}");
        // In-place result equals the staged next generation.
        for blk in (0..8_000).step_by(271) {
            assert_eq!(s.locate(id, blk).unwrap(), staged.locate(id, blk).unwrap());
        }
        s.verify_derived_state().unwrap();
        // Generations chain: the second rehash lands on generation 2
        // with yet another placement.
        s.rehash_to_next_generation();
        assert_eq!(s.generation(), 2);
    }

    #[test]
    fn generation_survives_snapshot_round_trip() {
        let (mut s, id) = engine(4, 1_000);
        s.rehash_to_next_generation();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        let restored = Scaddar::from_snapshot(&s.snapshot(), 0.05).unwrap();
        assert_eq!(restored.generation(), 1);
        for blk in (0..1_000).step_by(97) {
            assert_eq!(
                restored.locate(id, blk).unwrap(),
                s.locate(id, blk).unwrap()
            );
        }
        // The next generation after restore matches the next generation
        // before restore (the chain is a function of placement state).
        let a = s.open_next_generation();
        let b = restored.open_next_generation();
        for blk in (0..1_000).step_by(97) {
            assert_eq!(a.locate(id, blk).unwrap(), b.locate(id, blk).unwrap());
        }
    }

    #[test]
    fn engines_are_reproducible() {
        let build = || {
            let (mut s, id) = engine(5, 1_000);
            s.scale(ScalingOp::Add { count: 2 }).unwrap();
            s.scale(ScalingOp::remove_one(1)).unwrap();
            (s, id)
        };
        let (a, id_a) = build();
        let (b, id_b) = build();
        assert_eq!(id_a, id_b);
        for blk in 0..1_000 {
            assert_eq!(a.locate(id_a, blk).unwrap(), b.locate(id_b, blk).unwrap());
        }
    }

    #[test]
    fn locate_all_matches_per_block_locate() {
        use scaddar_prng::RngKind;
        // Include the O(i)-indexed generator: the bulk path must agree
        // with the slow path for every family.
        for rng in [RngKind::SplitMix64, RngKind::XorShift64Star] {
            let mut s =
                Scaddar::new(ScaddarConfig::new(5).with_catalog_seed(3).with_rng(rng)).unwrap();
            let id = s.add_object(2_000);
            s.scale(ScalingOp::Add { count: 2 }).unwrap();
            s.scale(ScalingOp::remove_one(0)).unwrap();
            let bulk = s.locate_all(id).unwrap();
            assert_eq!(bulk.len(), 2_000);
            for (b, &d) in bulk.iter().enumerate() {
                assert_eq!(d, s.locate(id, b as u64).unwrap(), "{rng} block {b}");
            }
        }
        let s = Scaddar::new(ScaddarConfig::new(2)).unwrap();
        assert_eq!(
            s.locate_all(ObjectId(9)),
            Err(ScaddarError::UnknownObject(ObjectId(9)))
        );
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let (mut s, id) = engine(5, 2_000);
        s.scale(ScalingOp::Add { count: 2 }).unwrap();
        s.scale(ScalingOp::remove_one(1)).unwrap();
        let bytes = s.snapshot();
        let restored = Scaddar::from_snapshot(&bytes, 0.05).unwrap();
        assert_eq!(restored.disks(), s.disks());
        assert_eq!(restored.epoch(), s.epoch());
        for blk in (0..2_000).step_by(13) {
            assert_eq!(
                restored.locate(id, blk).unwrap(),
                s.locate(id, blk).unwrap()
            );
        }
        // Fairness state is re-derived from the log.
        assert_eq!(restored.fairness(), s.fairness());
    }

    #[test]
    fn derived_state_verifies_through_churn_and_recovery() {
        let (mut s, id) = engine(5, 1_200);
        s.verify_derived_state().unwrap();
        s.scale(ScalingOp::Add { count: 2 }).unwrap();
        s.add_object(400);
        s.scale(ScalingOp::remove_one(1)).unwrap();
        s.remove_object(id).unwrap();
        s.verify_derived_state().unwrap();
        let restored = Scaddar::from_snapshot(&s.snapshot(), 0.05).unwrap();
        restored.verify_derived_state().unwrap();
        s.full_redistribution();
        s.verify_derived_state().unwrap();
    }

    #[test]
    fn derived_state_detects_stale_cache() {
        let (mut s, _) = engine(4, 500);
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        // Sabotage: regress the cache to epoch 0 as a stale-state stand-in.
        s.cache = XCache::new();
        s.cache = XCache::rebuild(
            &s.catalog,
            &RemapPipeline::compile(&ScalingLog::new(4).unwrap()),
        );
        let err = s.verify_derived_state().unwrap_err();
        assert!(err.contains("epoch"), "unexpected diagnosis: {err}");
    }

    #[test]
    fn attached_stats_track_engine_activity() {
        use scaddar_obs::{Registry, VirtualClock};
        let registry = Registry::new();
        let clock = Arc::new(VirtualClock::new());
        let stats = EngineStats::register(&registry, clock);
        let mut s = Scaddar::new(ScaddarConfig::new(4).with_catalog_seed(5)).unwrap();
        s.attach_stats(stats.clone());
        assert!(s.stats().is_some());

        let id = s.add_object(1_000);
        for call in 0..1_025u64 {
            s.locate(id, call % 1_000).unwrap();
        }
        assert_eq!(stats.xcache_hits.get(), 1_025);
        // Mask 1023 samples calls 0 and 1024.
        assert_eq!(stats.locate_ns.snapshot().count, 2);

        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert_eq!(stats.scale_ops.get(), 1);
        assert_eq!(stats.xcache_epoch_bumps.get(), 1);
        assert_eq!(stats.plan_blocks.get(), 1_000);
        assert_eq!(stats.scale_ns.snapshot().count, 1);
        assert_eq!(stats.plan_ns.snapshot().count, 1);

        s.trace(id, 3).unwrap();
        assert_eq!(stats.xcache_misses.get(), 1);
        s.locate_all(id).unwrap();
        s.locate_batch(id, &[1, 2, 3]).unwrap();
        assert_eq!(stats.locate_bulk_blocks.get(), 1_003);

        let bytes = s.snapshot();
        assert_eq!(stats.persist_bytes_written.get(), bytes.len() as u64);
        let restored =
            Scaddar::from_snapshot_with_stats(&bytes, 0.05, Some(stats.clone())).unwrap();
        assert!(restored.stats().is_some());
        assert_eq!(stats.persist_bytes_read.get(), bytes.len() as u64);
        assert_eq!(stats.xcache_rebuilds.get(), 1);

        // A truncated snapshot counts as a validation failure.
        assert!(Scaddar::from_snapshot_with_stats(&bytes[..4], 0.05, Some(stats.clone())).is_err());
        assert_eq!(stats.persist_validation_failures.get(), 1);

        s.full_redistribution();
        assert_eq!(stats.xcache_rebuilds.get(), 2);
    }

    #[test]
    fn bare_engine_records_nothing_and_stays_correct() {
        let (mut s, id) = engine(4, 500);
        assert!(s.stats().is_none());
        let before = s.locate(id, 7).unwrap();
        // Attaching stats must not change placement decisions.
        let registry = scaddar_obs::Registry::new();
        s.attach_stats(EngineStats::register_monotonic(&registry));
        assert_eq!(s.locate(id, 7).unwrap(), before);
        s.verify_derived_state().unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let err = ScaddarError::BlockOutOfRange {
            object: ObjectId(3),
            block: 10,
            blocks: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains("object 3") && msg.contains("10") && msg.contains('5'));
    }
}
