//! The simulated continuous media server: SCADDAR placement + physical
//! disks + block residency + streams + online redistribution, advanced
//! one service round at a time.
//!
//! The server realizes the paper's deployment story end to end:
//!
//! 1. objects are ingested whole, each block to wherever `AF()` points;
//! 2. streams consume one block per round, served from the block's
//!    *actual* residency (which lags `AF()` during redistribution);
//! 3. a scaling operation plans its moves with `RF()` and hands them to
//!    the [`RedistributionExecutor`], which drains them over subsequent
//!    rounds within per-disk bandwidth budgets — streams keep playing;
//! 4. metrics record whether they actually kept playing (hiccups).

use crate::admission::AdmissionController;
use crate::compaction::{has_block, BlockSet, CompactionProgress};
use crate::config::ServerConfig;
use crate::disk::{DiskState, PhysicalDiskId};
use crate::metrics::{Metrics, RoundRecord};
use crate::placement::PlacementState;
use crate::redistribute::{PendingMove, RedistributionExecutor};
use crate::scrub::ScrubReport;
use crate::stats::{gauge, ServerStats};
use crate::store::BlockStore;
use crate::stream::{PlayState, Stream, StreamId};
use scaddar_core::{BlockRef, ObjectId, Scaddar, ScaddarConfig, ScaddarError, ScalingOp};
use std::ops::Range;
use std::sync::Arc;

/// Errors from server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Placement-engine error.
    Engine(ScaddarError),
    /// A disk would exceed its block capacity.
    DiskFull(PhysicalDiskId),
    /// Unknown stream id.
    UnknownStream(StreamId),
    /// Admission control rejected the stream.
    AdmissionRejected,
    /// A metadata snapshot was requested while redistribution is pending.
    RedistributionPending,
    /// A snapshot failed to decode.
    Snapshot(String),
    /// The operation conflicts with an in-flight rehash compaction
    /// (scaling, snapshots, and a second compaction must wait for the
    /// generation flip).
    CompactionActive,
    /// A rehash compaction or a snapshot was requested while failed
    /// disks are still in the array (they cannot receive their
    /// new-generation share, and a restored server would serve them as
    /// healthy; remove them first — reconstruction — then retry).
    FailedDisksPresent,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Engine(e) => write!(f, "placement engine: {e}"),
            ServerError::DiskFull(d) => write!(f, "disk {} is full", d.0),
            ServerError::UnknownStream(s) => write!(f, "unknown stream {}", s.0),
            ServerError::AdmissionRejected => write!(f, "admission control rejected the stream"),
            ServerError::RedistributionPending => {
                write!(
                    f,
                    "cannot snapshot while redistribution is pending — drain first"
                )
            }
            ServerError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
            ServerError::CompactionActive => {
                write!(f, "a rehash compaction is in flight — wait for the flip")
            }
            ServerError::FailedDisksPresent => {
                write!(f, "failed disk(s) still in the array — remove them first")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ScaddarError> for ServerError {
    fn from(e: ScaddarError) -> Self {
        ServerError::Engine(e)
    }
}

/// The simulated CM server: the [`PlacementState`] plus the executor
/// state (residency, the move queue, streams, metrics and admission).
#[derive(Debug, Clone)]
pub struct CmServer {
    config: ServerConfig,
    placement: PlacementState,
    store: BlockStore,
    streams: Vec<Stream>,
    next_stream: u64,
    executor: RedistributionExecutor,
    metrics: Metrics,
    admission: AdmissionController,
    stats: Option<Arc<ServerStats>>,
}

impl CmServer {
    /// Builds an empty server per the configuration.
    pub fn new(config: ServerConfig) -> Result<Self, ServerError> {
        let engine = Scaddar::new(
            ScaddarConfig::new(config.initial_disks)
                .with_bits(config.bits)
                .with_rng(config.rng)
                .with_catalog_seed(config.catalog_seed)
                .with_epsilon(config.epsilon),
        )?;
        let placement = PlacementState::replay(engine, &config)?;
        Ok(CmServer::around(config, placement))
    }

    /// A quiet server with `placement`: residency is derived from `AF()`.
    fn around(config: ServerConfig, placement: PlacementState) -> Self {
        CmServer {
            store: placement.derive_store(),
            placement,
            streams: Vec::new(),
            next_stream: 0,
            executor: RedistributionExecutor::new(),
            metrics: Metrics::new(),
            admission: AdmissionController::new(0.8),
            stats: None,
            config,
        }
    }

    /// Attaches server metric handles: subsequent rounds, scaling
    /// operations, and faults record into the shared registry (and
    /// [`Metrics`] mirrors its per-round totals there too).
    pub fn attach_stats(&mut self, stats: Arc<ServerStats>) {
        self.metrics.attach_stats(stats.clone());
        self.stats = Some(stats);
    }

    /// The attached server metric handles, if any.
    pub fn stats(&self) -> Option<&Arc<ServerStats>> {
        self.stats.as_ref()
    }

    /// Which generation and which physical disk serve each block: every
    /// block-to-disk read goes through this.
    pub fn placement(&self) -> &PlacementState {
        &self.placement
    }

    /// The live placement engine, [`PlacementState::engine`].
    pub fn engine(&self) -> &Scaddar {
        self.placement.engine()
    }

    /// The static configuration (read-only) — trigger policies read the
    /// auto-compaction knobs from here.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The block store (read-only).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Pending redistribution moves.
    pub fn backlog(&self) -> u64 {
        self.executor.backlog()
    }

    /// Blocks with a queued (not yet executed) redistribution move.
    pub fn pending_moves(&self) -> Vec<BlockRef> {
        self.executor.pending().map(|mv| mv.block).collect()
    }

    /// Serializes placement metadata (catalog + scaling log) for durable
    /// storage. Only callable when no redistribution is pending — a real
    /// server quiesces before checkpointing, and a snapshot taken
    /// mid-drain would teleport in-transit blocks on restore — and with no
    /// failed disk, which a restored server would serve as healthy.
    pub fn snapshot(&self) -> Result<Vec<u8>, ServerError> {
        if self.compaction_active() {
            return Err(ServerError::CompactionActive);
        }
        if !self.executor.is_idle() {
            return Err(ServerError::RedistributionPending);
        }
        if !self.failed_disks().is_empty() {
            return Err(ServerError::FailedDisksPresent);
        }
        Ok(self.engine().snapshot())
    }

    /// Rebuilds a server from a [`CmServer::snapshot`]: the engine is
    /// decoded and the block store re-derived from `AF()` (valid because
    /// snapshots are only taken at consistency points). Runtime knobs
    /// (bandwidths) come from `config`; placement state comes from the
    /// snapshot.
    pub fn restore(config: ServerConfig, bytes: &[u8]) -> Result<Self, ServerError> {
        let engine = Scaddar::from_snapshot(bytes, config.epsilon)
            .map_err(|e| ServerError::Snapshot(e.to_string()))?;
        let placement = PlacementState::replay(engine, &config)
            .map_err(|e| ServerError::Snapshot(ServerError::Engine(e).to_string()))?;
        Ok(CmServer::around(config, placement))
    }

    /// Simulates an **unexpected failure** of the disk at logical index
    /// `logical`: its data becomes unreadable immediately. Reads fall
    /// back to the §6 mirror (`f(N) = N/2` offset); the operator should
    /// follow up with a `scale(Remove)` of the same disk, whose
    /// reconstruction moves will read from mirrors too. Returns the
    /// failed physical id.
    pub fn fail_disk(&mut self, logical: scaddar_core::DiskIndex) -> PhysicalDiskId {
        let id = self.placement.fail_disk(logical);
        if let Some(stats) = &self.stats {
            stats.disk_failures.inc();
        }
        // Mid-compaction, migration moves into the dead disk complete as
        // metadata. Every pending move out of it now reads from the
        // mirror of the block's placement under the generation serving
        // it.
        if self.compaction_active() {
            for mut mv in self.executor.extract(|mv| mv.to == id) {
                self.bypass_failed(&mut mv);
            }
        }
        let placement = &self.placement;
        self.executor.resource_moves(|mv| {
            (mv.from == id).then(|| placement.mirror(mv.block.object, mv.block.block))
        });
        // Completing stranded moves may have emptied the queue.
        self.maybe_finish_compaction();
        id
    }

    /// Physical disks currently marked failed: still in the array, or
    /// pulled with blocks awaiting reconstruction. Ascending.
    pub fn failed_disks(&self) -> Vec<PhysicalDiskId> {
        self.placement
            .disks()
            .ids_where(DiskState::failed)
            .collect()
    }

    /// Removed disks still draining their blocks. Ascending.
    pub fn draining_disks(&self) -> Vec<PhysicalDiskId> {
        self.placement
            .disks()
            .ids_where(|state| state == DiskState::Draining)
            .collect()
    }

    /// Currently active (not Done) streams.
    pub fn active_streams(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.state != PlayState::Done)
            .count()
    }

    /// Ingests a new object of `blocks` blocks. Every block is written
    /// where `AF()` currently points. Fails (and rolls back the catalog
    /// entry) if any target disk is at capacity; nothing is written then.
    ///
    /// One pass over the object's cached `X_j` maps every block to its
    /// physical disk and tallies the blocks per disk; capacity is one
    /// comparison per disk, and the census one add per disk.
    pub fn add_object(&mut self, blocks: u64) -> Result<ObjectId, ServerError> {
        let (id, (resident, tally)) = self.placement.admit(blocks);
        if tally.iter().any(|&(disk, n)| n > self.room(disk)) {
            let full = self.first_full(&resident);
            self.placement.remove_object(id).expect("object just added");
            return Err(ServerError::DiskFull(full));
        }
        self.store.ingest_object(id, resident, tally);
        // Schedule the blocks toward their new-generation placement.
        let mut moves = self.placement.plan_migration(&self.store, &[id]);
        moves.retain_mut(|mv| self.bypass_failed(mv));
        self.executor.enqueue(moves);
        Ok(id)
    }

    /// Routes a migration move around failed disks, which have no move
    /// bandwidth and would wedge the flip. A move into one
    /// completes here as a metadata-only relocation (returns false): the
    /// block's new-generation home is the dead disk and its data stays
    /// recoverable through the §6 mirror, the steady state a failed disk
    /// has outside a compaction. A move out of one reads from the mirror
    /// of the block's placement under the generation serving it.
    fn bypass_failed(&mut self, mv: &mut PendingMove) -> bool {
        let disks = self.placement.disks();
        if disks.state(mv.to).failed() {
            if let Some(stored) = self.store.locate(mv.block).filter(|&d| d != mv.to) {
                self.store.relocate(mv.block, stored, mv.to);
            }
            self.placement.mark_migrated(mv.block);
            return false;
        }
        if disks.state(mv.from).failed() {
            mv.from = self.placement.mirror(mv.block.object, mv.block.block);
        }
        true
    }

    /// Blocks `disk` can still take.
    fn room(&self, disk: PhysicalDiskId) -> u64 {
        self.placement
            .disks()
            .spec(disk)
            .capacity
            .saturating_sub(self.store.blocks_on(disk))
    }

    /// Cold path of a refused admission: the disk of the lowest-indexed
    /// block of `resident` (physical ids) that does not fit — where a
    /// block-by-block ingest would have stopped.
    fn first_full(&self, resident: &[u32]) -> PhysicalDiskId {
        let mut taken = self.placement.disks().table(|_, _| 0u64);
        physical(resident)
            .find(|&disk| {
                let n = &mut taken[disk.0 as usize];
                *n += 1;
                *n > self.room(disk)
            })
            .expect("some disk overflows")
    }

    /// Deletes an object: evicts its blocks and cancels its pending
    /// moves.
    pub fn remove_object(&mut self, id: ObjectId) -> Result<(), ServerError> {
        self.placement.remove_object(id)?;
        self.store
            .evict_object(id)
            .expect("catalog objects are resident");
        self.executor.cancel_blocks(|blk| blk.object == id);
        let before = self.streams.len();
        self.streams.retain(|s| s.object != id);
        if let Some(stats) = &self.stats {
            stats
                .streams_closed
                .add((before - self.streams.len()) as u64);
        }
        Ok(())
    }

    /// Opens a stream on `object`, subject to admission control.
    pub fn open_stream(&mut self, object: ObjectId) -> Result<StreamId, ServerError> {
        let blocks = self
            .engine()
            .catalog()
            .object(object)
            .ok_or(ServerError::Engine(ScaddarError::UnknownObject(object)))?
            .blocks;
        // `streams` still holds the `Done` streams no tick has reaped,
        // so its length bounds the live count from above: live streams
        // are counted only when that bound is refused.
        let (disks, bandwidth) = (self.placement.disks().disks(), self.config.disk_bandwidth);
        let admit = |streams: usize| self.admission.admit(streams as u64, disks, bandwidth);
        if !admit(self.streams.len()) && !admit(self.active_streams()) {
            return Err(ServerError::AdmissionRejected);
        }
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.streams.push(Stream::new(id, object, blocks));
        if let Some(stats) = &self.stats {
            stats.streams_opened.inc();
        }
        Ok(id)
    }

    /// Mutable access to a stream for VCR operations.
    pub fn stream_mut(&mut self, id: StreamId) -> Result<&mut Stream, ServerError> {
        match self.stream_index(id) {
            Some(i) => Ok(&mut self.streams[i]),
            None => Err(ServerError::UnknownStream(id)),
        }
    }

    /// Read access to a stream.
    pub fn stream(&self, id: StreamId) -> Option<&Stream> {
        self.stream_index(id).map(|i| &self.streams[i])
    }

    /// Where stream `id` sits in `streams`. Ids ascend along the vector:
    /// streams are pushed in id order and removed only by `retain`.
    fn stream_index(&self, id: StreamId) -> Option<usize> {
        self.streams.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// A copy of all live streams (they are small `Copy` structs); used
    /// by drivers that need to iterate while mutating.
    pub fn streams_snapshot(&self) -> Vec<Stream> {
        self.streams.clone()
    }

    /// §4.3 guard, surfaced: would `op` keep fairness within `eps`?
    pub fn next_op_is_safe(&self, op: &ScalingOp) -> bool {
        match op.disks_after(self.placement.disks().disks()) {
            Ok(after) => self.engine().next_op_is_safe(after),
            Err(_) => false,
        }
    }

    /// Applies a scaling operation **online**: the move plan is queued,
    /// not executed; streams keep playing while subsequent [`Self::tick`]
    /// calls drain the queue. Returns the number of queued moves.
    ///
    /// Blocks that already had a pending move are re-planned from their
    /// *actual* current residency, so at most one pending move exists per
    /// block at any time.
    pub fn scale(&mut self, op: ScalingOp) -> Result<u64, ServerError> {
        let scale_start = self.stats.as_ref().map(|s| s.clock.now_ns());
        let (plan, pre_physicals) = self.placement.scale(&op)?;
        let disks = self.placement.disks();
        // The plan lists each object's moves as one run, in block order.
        let runs = || plan.moves.chunk_by(|a, b| a.block.object == b.block.object);
        if !self.executor.is_idle() {
            // Drop superseded pending moves for re-planned blocks.
            let mut replanned = BlockSet::default();
            for run in runs() {
                let mut bits = vec![0u64; (run[run.len() - 1].block.block / 64 + 1) as usize];
                for m in run {
                    bits[(m.block.block / 64) as usize] |= 1 << (m.block.block % 64);
                }
                replanned.insert_object(run[0].block.object, bits);
            }
            self.executor.cancel_blocks(|b| replanned.contains(b));
        }
        let mut moves = Vec::with_capacity(plan.moves.len());
        for run in runs() {
            let resident = self
                .store
                .object(run[0].block.object)
                .expect("planned object exists in store");
            for m in run {
                let stored = PhysicalDiskId(resident[m.block.block as usize].into());
                let to = disks.physical(m.to);
                let from = if disks.state(stored).failed() {
                    // Reconstruction: data is read from the pre-op
                    // mirror. Keep the move even when mirror == target —
                    // the block must still be materialized there (the
                    // executor treats it as a one-disk local copy).
                    let n_prev = pre_physicals.len() as u32;
                    pre_physicals[crate::faults::mirror_of(m.from, n_prev).0 as usize]
                } else if stored != to {
                    stored
                } else {
                    // A replanned block whose earlier pending move
                    // already completed to the same target.
                    continue;
                };
                moves.push(PendingMove {
                    block: m.block,
                    from,
                    to,
                });
            }
        }
        let queued = moves.len() as u64;
        self.executor.enqueue(moves);
        if let (Some(stats), Some(start)) = (&self.stats, scale_start) {
            stats.scale_ops.inc();
            stats.moves_queued.add(queued);
            stats.backlog.set(gauge(self.executor.backlog()));
            stats
                .scale_ns
                .record(stats.clock.now_ns().saturating_sub(start));
        }
        Ok(queued)
    }

    /// Convenience: apply a scaling operation **offline** — queue and
    /// immediately drain it, ignoring bandwidth. Returns moves executed.
    pub fn scale_offline(&mut self, op: ScalingOp) -> Result<u64, ServerError> {
        self.scale(op)?;
        Ok(self.drain_all_moves())
    }

    /// Executes every pending move immediately, ignoring bandwidth.
    fn drain_all_moves(&mut self) -> u64 {
        let mut unlimited =
            self.placement
                .disks()
                .table(|_, state| if state.attached() { u32::MAX } else { 0 });
        let executed = self.executor.execute_round(&mut unlimited);
        self.apply_executed(&executed);
        self.purge_drained();
        debug_assert!(self.executor.is_idle());
        executed.len() as u64
    }

    /// Applies executed moves to the store. A move whose source differs
    /// from the stored location is a *reconstruction* (the stored copy
    /// died with a failed disk; the data flowed from a mirror).
    fn apply_executed(&mut self, executed: &[PendingMove]) {
        for mv in executed {
            if self.store.locate(mv.block) == Some(mv.from) {
                self.store.relocate(mv.block, mv.from, mv.to);
            } else {
                self.store.relocate_reconstructed(mv.block, mv.to);
            }
        }
    }

    /// Retires draining disks whose last block has been copied off, and
    /// forgets failed disks that have been pulled from the array and
    /// fully reconstructed — once nothing resides on a removed dead
    /// disk the failure is history, and a later compaction sees a
    /// healthy array again. A retired disk leaves the gauge refresh, so
    /// its per-disk gauges are zeroed here, once.
    fn purge_drained(&mut self) {
        for id in self.placement.retire_empty(&self.store) {
            if let Some(stats) = &self.stats {
                stats.disk_load(id).set(0);
                stats.disk_queue_depth(id).set(0);
            }
        }
    }

    /// Begins an **online rehash compaction**: opens the next placement
    /// generation and enqueues one move per block whose new-generation
    /// placement differs from its residency. [`Self::tick`] drains them
    /// within the usual budgets while lookups dual-serve from both
    /// generations, and flips the round the last move lands. Returns
    /// the number of queued moves. Requires an idle executor (a
    /// compaction re-plans *every* block) and no compaction in flight.
    pub fn begin_compaction(&mut self) -> Result<u64, ServerError> {
        if self.compaction_active() {
            return Err(ServerError::CompactionActive);
        }
        if !self.executor.is_idle() {
            return Err(ServerError::RedistributionPending);
        }
        // A rehash at the same N re-assigns ~1/N of all blocks *to*
        // every disk — including a dead one, which can accept nothing.
        // The §6 remedy is to remove the failed disk first (its blocks
        // reconstruct from mirrors onto the survivors) and compact the
        // healthy array; refusing here is what keeps the migration
        // guaranteed to drain.
        if !self.failed_disks().is_empty() {
            return Err(ServerError::FailedDisksPresent);
        }
        let moves = self.placement.begin_compaction(&self.store);
        let queued = moves.len() as u64;
        self.executor.enqueue(moves);
        if let Some(stats) = &self.stats {
            stats.compactions_started.inc();
            stats
                .compaction_target_generation
                .set(gauge(self.generation() + 1));
            stats.backlog.set(gauge(self.executor.backlog()));
        }
        // An empty catalog (or one whose placements all coincide)
        // finishes immediately.
        self.maybe_finish_compaction();
        Ok(queued)
    }

    /// Progress of the in-flight compaction, if any.
    pub fn compaction_progress(&self) -> Option<CompactionProgress> {
        self.placement.progress(self.executor.backlog())
    }

    /// True while a compaction is migrating blocks.
    pub fn compaction_active(&self) -> bool {
        self.placement.compaction_active()
    }

    /// The serving placement generation (post-flip it reflects the new
    /// generation; during a compaction, still the old one).
    pub fn generation(&self) -> u64 {
        self.engine().generation()
    }

    /// Flips to the next generation ([`PlacementState::flip`]) once
    /// every migration move has landed, then publishes the compaction
    /// gauges.
    fn maybe_finish_compaction(&mut self) {
        if self.compaction_active() && self.executor.is_idle() {
            self.placement.flip(self.store.len() as u64);
            if let Some(stats) = &self.stats {
                stats.compactions_completed.inc();
            }
        }
        let Some(stats) = &self.stats else { return };
        let progress = self.compaction_progress();
        stats.compaction_active.set(i64::from(progress.is_some()));
        stats.compaction_generation.set(gauge(self.generation()));
        let remaining = progress.map_or(0, |p| p.total_blocks.saturating_sub(p.migrated_blocks));
        stats.compaction_remaining.set(gauge(remaining));
        if let Some(p) = progress {
            stats.compaction_total.set(gauge(p.total_blocks));
        }
    }

    /// Mid-compaction residency audit, the dual-generation analogue of
    /// [`CmServer::residency_consistent`]: no catalog block may be
    /// corrupt — each is resident where the generation serving it places
    /// it (migrated blocks at their staging placement, everything else
    /// at its old placement) or has a queued move. With no compaction in
    /// flight this is plain residency consistency.
    pub fn compaction_consistent(&self) -> bool {
        if !self.compaction_active() && !self.executor.is_idle() {
            return false;
        }
        let objects = self.engine().catalog().objects().iter();
        self.audit(objects.map(|obj| (obj.id, 0..obj.blocks)))
            .corrupt
            .is_empty()
    }

    /// Advances one service round.
    pub fn tick(&mut self) {
        let tick_start = self.stats.as_ref().map(|s| s.clock.now_ns());
        let disks = self.placement.disks();
        let mut budget = disks.table(|spec, state| if state.serves() { spec.bandwidth } else { 0 });

        // 1. Serve playing streams from actual residency, in id order.
        //    Requests landing on a failed disk fall back to the §6
        //    mirror of the block's placement.
        let mut requested = 0u64;
        let mut served = 0u64;
        let mut hiccups = 0u64;
        let mut recovered = 0u64;
        for stream in &mut self.streams {
            let Some(block) = stream.current_request() else {
                continue;
            };
            requested += 1;
            // A block can be missing only if the object was deleted, and
            // deletion reaps its streams; treat missing as a hiccup
            // defensively.
            let object = stream.object;
            let Some(disk) = self.store.locate(BlockRef { object, block }) else {
                hiccups += 1;
                continue;
            };
            // Primary gone: read the mirror copy at (AF + N/2) mod N,
            // defined against the generation the block is served by.
            let from = if disks.state(disk).failed() {
                self.placement.mirror(object, block)
            } else {
                disk
            };
            // A failed disk has no budget: with both copies gone the
            // data is lost, a permanent stall.
            let cap = &mut budget[from.0 as usize];
            if *cap > 0 {
                *cap -= 1;
                served += 1;
                recovered += u64::from(from != disk);
                stream.advance();
            } else {
                hiccups += 1;
            }
        }

        // 2. Redistribution: reserved bandwidth plus whatever streams
        //    left unused this round.
        for id in disks.ids_where(DiskState::serves) {
            let left = &mut budget[id.0 as usize];
            *left = left.saturating_add(self.config.redistribution_bandwidth);
        }
        let executed = self.executor.execute_round(&mut budget);
        self.apply_executed(&executed);
        // While a compaction is in flight scaling is refused, so every
        // executed move is a migration move.
        for mv in &executed {
            self.placement.mark_migrated(mv.block);
        }
        self.purge_drained();
        self.maybe_finish_compaction();

        // 3. Reap finished streams and record the round.
        let before = self.streams.len();
        self.streams.retain(|s| s.state != PlayState::Done);
        self.metrics.push(RoundRecord {
            requested,
            served,
            hiccups,
            recovered,
            moves: executed.len() as u64,
            backlog: self.executor.backlog(),
            active_streams: self.streams.len() as u64,
        });
        if let (Some(stats), Some(start)) = (&self.stats, tick_start) {
            stats
                .streams_closed
                .add((before - self.streams.len()) as u64);
            self.refresh_disk_gauges(stats);
            stats
                .tick_ns
                .record(stats.clock.now_ns().saturating_sub(start));
        }
    }

    /// Refreshes the per-disk labeled gauges: outbound move queue depth
    /// and the residency load census, over the disks in the array
    /// (failed or not) and the draining ones.
    fn refresh_disk_gauges(&self, stats: &ServerStats) {
        let disks = self.placement.disks();
        let mut queue = disks.table(|_, _| 0i64);
        for mv in self.executor.pending() {
            queue[mv.from.0 as usize] += 1;
        }
        for id in disks.ids_where(DiskState::attached) {
            stats.disk_queue_depth(id).set(queue[id.0 as usize]);
            stats.disk_load(id).set(gauge(self.store.blocks_on(id)));
        }
    }

    /// Load census (blocks per disk) in logical order — the §5 metric's
    /// input. Uses actual residency.
    pub fn load_census(&self) -> Vec<u64> {
        self.store.census(&self.placement.disks().physical_ids())
    }

    /// **Test hook** — plants silent data rot: moves `block`'s residency
    /// to physical disk `to` *without* telling the engine, so `AF()` and
    /// the store now disagree about the block. This is precisely what a
    /// scrubber exists to detect; it must never happen through the
    /// public mutation API. Returns `false` (and changes nothing) if
    /// the block is unknown or already on `to`.
    pub fn inject_misplacement(&mut self, block: BlockRef, to: PhysicalDiskId) -> bool {
        match self.store.locate(block) {
            Some(from) if from != to => {
                self.store.relocate(block, from, to);
                true
            }
            _ => false,
        }
    }

    /// Verifies that residency matches `AF()` for every block (only true
    /// when no redistribution is pending). The simulator's end-to-end
    /// invariant; exercised constantly by tests.
    pub fn residency_consistent(&self) -> bool {
        self.executor.is_idle() && self.compaction_consistent()
    }

    /// The one residency audit, behind both consistency checks and the
    /// [`Scrubber`](crate::scrub::Scrubber). A block of the given ranges
    /// (one catalog object each) is clean if it is resident where the
    /// generation serving it places it ([`PlacementState::homes`]), in
    /// transit if it is elsewhere with a queued move, and corrupt
    /// otherwise. Only the given ranges' placements are read, in bulk; a
    /// range wholly at home costs one slice comparison.
    pub(crate) fn audit(
        &self,
        ranges: impl IntoIterator<Item = (ObjectId, Range<u64>)>,
    ) -> ScrubReport {
        let pending: BlockSet = self.executor.pending().map(|mv| mv.block).collect();
        let mut report = ScrubReport::default();
        for (object, blocks) in ranges {
            let expected = self.placement.homes(object, blocks.clone());
            let resident = self.store.object(object).unwrap_or_default();
            let span = blocks.start as usize..blocks.end as usize;
            report.scanned += span.len() as u64;
            if resident.get(span) == Some(&expected[..]) {
                report.clean += expected.len() as u64;
                continue;
            }
            let queued = pending.bits(object);
            for (block, &home) in blocks.zip(&expected) {
                match resident.get(block as usize) {
                    Some(&stored) if stored == home => report.clean += 1,
                    Some(_) if has_block(queued, block) => report.in_transit += 1,
                    _ => report.corrupt.push(BlockRef { object, block }),
                }
            }
        }
        report
    }
}

/// Stored 4-byte physical ids as [`PhysicalDiskId`]s.
fn physical(ids: &[u32]) -> impl Iterator<Item = PhysicalDiskId> + '_ {
    ids.iter().map(|&id| PhysicalDiskId(id.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::DiskIndex;
    use std::collections::HashMap;

    fn server(disks: u32) -> CmServer {
        CmServer::new(ServerConfig::new(disks).with_catalog_seed(21)).unwrap()
    }

    #[test]
    fn ingest_matches_engine_placement() {
        let mut s = server(4);
        s.add_object(5_000).unwrap();
        assert!(s.residency_consistent());
        assert_eq!(s.load_census().iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn locate_batch_matches_per_block_lookups() {
        let mut s = server(4);
        let obj = s.add_object(2_000).unwrap();
        s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        let blocks: Vec<u64> = (0..2_000).step_by(7).collect();
        let batch = s.placement().locate_batch(obj, &blocks).unwrap();
        for (&b, &physical) in blocks.iter().zip(&batch) {
            let logical = s.placement().locate(obj, b).unwrap();
            assert_eq!(
                physical,
                s.placement().disks().physical(logical),
                "block {b}"
            );
        }
        assert!(s.placement().locate_batch(obj, &[2_000]).is_err());
        assert!(s.placement().locate_batch(ObjectId(99), &[0]).is_err());

        // Mid-compaction, with some blocks migrated and some not, every
        // read of a block agrees: the batch, the per-block lookup through
        // the disk table, the bulk placements, and the §6 mirror.
        s.begin_compaction().unwrap();
        s.tick();
        let progress = s.compaction_progress().expect("still migrating");
        assert!(progress.migrated_blocks > 0 && progress.backlog > 0);
        let p = s.placement();
        let all: Vec<u64> = (0..2_000).collect();
        let batch = p.locate_batch(obj, &all).unwrap();
        let bulk = p.placements(obj).unwrap();
        let n = p.disks().disks();
        let mut staged = 0;
        for (&b, &physical) in all.iter().zip(&batch) {
            let logical = p.locate(obj, b).unwrap();
            staged += usize::from(logical != s.engine().locate(obj, b).unwrap());
            assert_eq!(physical, p.disks().physical(logical), "block {b}");
            assert_eq!(bulk[b as usize], logical, "block {b}");
            let mirror = crate::faults::mirror_of(logical, n);
            assert_eq!(p.mirror(obj, b), p.disks().physical(mirror), "block {b}");
        }
        assert!(
            staged > 0,
            "some migrated blocks answer from the staging generation"
        );
    }

    #[test]
    fn offline_scale_keeps_consistency() {
        let mut s = server(4);
        s.add_object(20_000).unwrap();
        let moved = s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        assert!(moved > 0);
        assert!(s.residency_consistent());
        let census = s.load_census();
        assert_eq!(census.len(), 6);
        let mean = 20_000.0 / 6.0;
        for &c in &census {
            assert!((c as f64 - mean).abs() / mean < 0.1, "{census:?}");
        }
    }

    #[test]
    fn online_scale_drains_and_converges() {
        let mut s = server(4);
        s.add_object(10_000).unwrap();
        let queued = s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(queued > 1_000);
        assert_eq!(s.backlog(), queued);
        let mut rounds = 0;
        while s.backlog() > 0 {
            s.tick();
            rounds += 1;
            assert!(rounds < 10_000, "redistribution never drains");
        }
        assert!(rounds > 1, "online redistribution should take >1 round");
        assert!(s.residency_consistent());
    }

    #[test]
    fn streams_survive_online_scaling() {
        let mut s = CmServer::new(
            ServerConfig::new(4)
                .with_bandwidth(32)
                .with_redistribution_bandwidth(4)
                .with_catalog_seed(3),
        )
        .unwrap();
        let obj = s.add_object(2_000).unwrap();
        for _ in 0..20 {
            s.open_stream(obj).unwrap();
        }
        // Scale mid-playback.
        for _ in 0..5 {
            s.tick();
        }
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        // Light load (20 streams, 4-5 disks x 32 bw): zero hiccups.
        assert_eq!(s.metrics().total_hiccups(), 0);
        assert!(s.metrics().total_served() > 0);
    }

    #[test]
    fn admission_control_rejects_past_capacity() {
        // 1 disk, bandwidth 2, target 80%: exactly 1 stream fits.
        let mut s =
            CmServer::new(ServerConfig::new(1).with_bandwidth(2).with_catalog_seed(5)).unwrap();
        let obj = s.add_object(100).unwrap();
        s.open_stream(obj).unwrap();
        assert_eq!(s.open_stream(obj), Err(ServerError::AdmissionRejected));
    }

    #[test]
    fn open_stream_admits_up_to_the_capacity_and_counts_done_streams_free() {
        // 8 disks x 32 blocks per round at 80%: 204 streams fit.
        let mut s = server(8);
        let obj = s.add_object(1_000).unwrap();
        let ids: Vec<StreamId> = (0..204).map(|_| s.open_stream(obj).unwrap()).collect();
        assert_eq!(s.open_stream(obj), Err(ServerError::AdmissionRejected));
        // Sought past the end, a stream is `Done` before any tick
        // reaps it, and its slot is free at once.
        s.stream_mut(ids[7]).unwrap().seek(1_000);
        assert_eq!(s.stream(ids[7]).unwrap().state, PlayState::Done);
        assert_eq!(s.active_streams(), 203);
        s.open_stream(obj).unwrap();
        assert_eq!(s.open_stream(obj), Err(ServerError::AdmissionRejected));
    }

    #[test]
    fn every_stream_is_found_after_removals_and_reaping() {
        let mut s = server(4);
        let a = s.add_object(500).unwrap();
        let b = s.add_object(500).unwrap();
        let ids: Vec<(StreamId, ObjectId)> = (0..30)
            .map(|i| {
                let obj = if i % 3 == 0 { a } else { b };
                (s.open_stream(obj).unwrap(), obj)
            })
            .collect();
        s.remove_object(a).unwrap();
        for &(id, obj) in &ids {
            assert_eq!(s.stream(id).is_some(), obj == b, "{id:?}");
            assert_eq!(s.stream_mut(id).is_ok(), obj == b, "{id:?}");
        }
        // Finish every fourth survivor; the tick's `retain` reaps them.
        let survivors: Vec<StreamId> = ids
            .iter()
            .filter(|&&(_, obj)| obj == b)
            .map(|&(id, _)| id)
            .collect();
        for id in survivors.iter().step_by(4) {
            s.stream_mut(*id).unwrap().seek(500);
        }
        s.tick();
        for (i, &id) in survivors.iter().enumerate() {
            let found = s.stream(id).map(|st| st.id);
            assert_eq!(found, (i % 4 != 0).then_some(id), "{id:?}");
            assert_eq!(s.stream_mut(id).is_ok(), i % 4 != 0, "{id:?}");
        }
        assert_eq!(
            s.stream_mut(StreamId(999)),
            Err(ServerError::UnknownStream(StreamId(999)))
        );
    }

    #[test]
    fn correlated_start_positions_cause_hiccups() {
        // 12 streams all start at block 0, which lives on exactly one
        // disk (bandwidth 4): 8 must hiccup in round one even though
        // aggregate bandwidth is ample — the statistical reality of
        // random placement the admission margin exists for.
        let mut s =
            CmServer::new(ServerConfig::new(4).with_bandwidth(4).with_catalog_seed(5)).unwrap();
        let obj = s.add_object(1_000).unwrap();
        for _ in 0..12 {
            s.open_stream(obj).unwrap();
        }
        s.tick();
        assert_eq!(s.metrics().rounds()[0].hiccups, 8);
        assert_eq!(s.metrics().rounds()[0].served, 4);
    }

    #[test]
    fn scaling_during_pending_redistribution_is_safe() {
        let mut s = server(4);
        s.add_object(10_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        // Immediately scale again while the first op's moves are pending.
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.residency_consistent());
        assert_eq!(s.placement().disks().disks(), 6);
    }

    #[test]
    fn online_removal_drains_the_victim_while_serving() {
        let mut s = server(6);
        let obj = s.add_object(6_000).unwrap();
        for _ in 0..10 {
            s.open_stream(obj).unwrap();
        }
        let queued = s.scale(ScalingOp::remove_one(2)).unwrap();
        assert!(queued > 0);
        assert_eq!(s.draining_disks().len(), 1, "victim must enter draining");
        let victim = s.draining_disks()[0];
        let mut rounds = 0;
        while s.backlog() > 0 {
            s.tick();
            rounds += 1;
            assert!(rounds < 10_000);
        }
        assert!(s.draining_disks().is_empty(), "victim retired after drain");
        assert_eq!(s.store().blocks_on(victim), 0);
        assert!(s.residency_consistent());
        assert_eq!(s.metrics().total_hiccups(), 0, "no service interruption");
    }

    #[test]
    fn removal_scaling_end_to_end() {
        let mut s = server(6);
        s.add_object(12_000).unwrap();
        let moved = s.scale_offline(ScalingOp::remove_one(2)).unwrap();
        // Optimal: 1/6 of blocks.
        let frac = moved as f64 / 12_000.0;
        assert!((frac - 1.0 / 6.0).abs() < 0.02, "{frac}");
        assert!(s.residency_consistent());
        assert_eq!(s.load_census().len(), 5);
    }

    #[test]
    fn object_deletion_cancels_pending_moves() {
        let mut s = server(4);
        let obj = s.add_object(5_000).unwrap();
        let _keep = s.add_object(5_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(s.backlog() > 0);
        s.remove_object(obj).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.residency_consistent());
        assert_eq!(s.load_census().iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut s = server(5);
        let obj = s.add_object(3_000).unwrap();
        s.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
        s.scale_offline(ScalingOp::remove_one(1)).unwrap();
        let bytes = s.snapshot().unwrap();
        let restored =
            CmServer::restore(ServerConfig::new(5).with_catalog_seed(21), &bytes).unwrap();
        assert_eq!(
            restored.placement().disks().disks(),
            s.placement().disks().disks()
        );
        assert!(restored.residency_consistent());
        assert_eq!(restored.load_census(), s.load_census());
        for blk in (0..3_000).step_by(97) {
            assert_eq!(
                restored.store().locate(BlockRef {
                    object: obj,
                    block: blk
                }),
                s.store().locate(BlockRef {
                    object: obj,
                    block: blk
                })
            );
        }
    }

    #[test]
    fn snapshot_refused_mid_redistribution() {
        let mut s = server(4);
        s.add_object(5_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(matches!(
            s.snapshot(),
            Err(ServerError::RedistributionPending)
        ));
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.snapshot().is_ok());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(matches!(
            CmServer::restore(ServerConfig::new(4), b"not a snapshot"),
            Err(ServerError::Snapshot(_))
        ));
    }

    #[test]
    fn attached_stats_observe_a_full_scaling_run() {
        use crate::stats::ServerStats;
        use scaddar_obs::Registry;
        let registry = Registry::new();
        let stats = ServerStats::register_monotonic(&registry);
        let mut s = server(4);
        s.attach_stats(stats.clone());
        // Engine stats share the same registry.
        let engine_stats = scaddar_core::EngineStats::register_monotonic(&registry);
        s.placement.engine_mut().attach_stats(engine_stats.clone());

        let obj = s.add_object(5_000).unwrap();
        for _ in 0..5 {
            s.open_stream(obj).unwrap();
        }
        assert_eq!(stats.streams_opened.get(), 5);
        let queued = s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert_eq!(stats.scale_ops.get(), 1);
        assert_eq!(stats.moves_queued.get(), queued);
        assert_eq!(stats.backlog.get(), queued as i64);
        assert_eq!(engine_stats.scale_ops.get(), 1);
        while s.backlog() > 0 {
            s.tick();
        }
        assert_eq!(stats.backlog.get(), 0, "gauge follows the drain");
        assert_eq!(stats.moves.get(), queued, "every queued move executed");
        assert_eq!(stats.rounds.get(), s.metrics().len() as u64);
        assert_eq!(stats.served.get(), s.metrics().total_served());
        // Per-disk gauges exist for every live disk and sum to the
        // catalog size.
        let census_total: i64 = s
            .placement()
            .disks()
            .physical_ids()
            .into_iter()
            .map(|d| stats.disk_load(d).get())
            .sum();
        assert_eq!(census_total, 5_000);
        assert!(registry
            .render_prometheus()
            .contains("cmsim_server_rounds_total"));
        // Drain interval visible through the fixed drain accounting.
        assert_eq!(s.metrics().drain_times().len(), 1);
    }

    #[test]
    fn a_scrub_pass_reads_each_placement_once() {
        use crate::scrub::{ScrubReport, Scrubber};
        let mut s = CmServer::new(ServerConfig::new(8).with_catalog_seed(21)).unwrap();
        for _ in 0..64 {
            s.add_object(4_096).unwrap();
        }
        let registry = scaddar_obs::Registry::new();
        let stats = scaddar_core::EngineStats::register_monotonic(&registry);
        s.placement.engine_mut().attach_stats(stats.clone());
        let mut scrubber = Scrubber::new();
        let mut pass = ScrubReport::default();
        while !pass.completed_pass {
            let r = scrubber.scrub(&s, 64);
            assert!(r.scanned <= 64);
            pass.scanned += r.scanned;
            pass.clean += r.clean;
            pass.in_transit += r.in_transit;
            pass.corrupt.extend(r.corrupt);
            pass.completed_pass = r.completed_pass;
        }
        assert_eq!(stats.locate_bulk_blocks.get(), 64 * 4_096);
        let whole = s.audit(
            s.engine()
                .catalog()
                .objects()
                .iter()
                .map(|o| (o.id, 0..o.blocks)),
        );
        assert_eq!(
            pass,
            ScrubReport {
                completed_pass: true,
                ..whole
            }
        );
        assert_eq!(pass.clean, 64 * 4_096);
    }

    #[test]
    fn load_gauge_of_a_disk_drained_within_one_tick_reads_zero() {
        use crate::stats::ServerStats;
        use scaddar_obs::Registry;
        let registry = Registry::new();
        let stats = ServerStats::register_monotonic(&registry);
        let mut s = CmServer::new(
            ServerConfig::new(4)
                .with_bandwidth(u32::MAX)
                .with_catalog_seed(21),
        )
        .unwrap();
        s.attach_stats(stats.clone());
        for _ in 0..4 {
            s.add_object(1_000).unwrap();
        }
        s.tick();
        let victim = s.placement().disks().physical(DiskIndex(1));
        assert!(stats.disk_load(victim).get() > 0, "gauges published");
        s.scale(ScalingOp::remove_one(1)).unwrap();
        s.tick();
        assert_eq!(s.backlog(), 0, "unbounded bandwidth drains in one tick");
        assert!(s.draining_disks().is_empty(), "the victim retired");
        let census = stats.disk_load_census();
        assert!(
            census.contains(&(victim.0, 0)),
            "drained disk reads 0: {census:?}"
        );
        assert_eq!(census.iter().map(|&(_, n)| n).sum::<u64>(), 4_000);
        assert_eq!(stats.disk_queue_depth(victim).get(), 0);
    }

    /// The disk a block-by-block ingest of a `blocks`-block object
    /// stops at: the first block whose disk is already full.
    fn first_overflow(s: &CmServer, blocks: u64) -> PhysicalDiskId {
        let mut probe = s.engine().clone();
        let id = probe.add_object(blocks);
        let mut held: HashMap<PhysicalDiskId, u64> = HashMap::new();
        for b in 0..blocks {
            let disk = s.placement.disks().physical(probe.locate(id, b).unwrap());
            let count = held.entry(disk).or_insert(s.store.blocks_on(disk));
            if *count >= s.placement.disks().spec(disk).capacity {
                return disk;
            }
            *count += 1;
        }
        panic!("a {blocks}-block object fits");
    }

    #[test]
    fn capacity_limit_rolls_back() {
        let mut cfg = ServerConfig::new(2).with_catalog_seed(1);
        cfg.disk_capacity = 10;
        let mut s = CmServer::new(cfg).unwrap();
        let expected = first_overflow(&s, 1_000);
        assert_eq!(expected, PhysicalDiskId(0));
        assert_eq!(s.add_object(1_000), Err(ServerError::DiskFull(expected)));
        // Rollback leaves the server empty and usable.
        assert_eq!(s.load_census(), vec![0, 0]);
        assert_eq!(s.store().len(), 0);
        assert!(s.engine().catalog().objects().is_empty());
        let fits = s.add_object(10).unwrap();
        // A second overflow, onto a partly filled array, names the disk
        // the block-by-block ingest would and leaves residency alone.
        let census = s.load_census();
        let expected = first_overflow(&s, 30);
        assert_eq!(expected, PhysicalDiskId(1));
        assert_eq!(s.add_object(30), Err(ServerError::DiskFull(expected)));
        assert_eq!(s.load_census(), census);
        assert_eq!(s.store().len(), 10);
        let ids: Vec<ObjectId> = s
            .engine()
            .catalog()
            .objects()
            .iter()
            .map(|o| o.id)
            .collect();
        assert_eq!(ids, vec![fits]);
        assert!(s.residency_consistent());
    }

    /// The census over every minted disk id.
    fn minted_census(s: &CmServer) -> Vec<u64> {
        s.store
            .census(&s.placement.disks().ids_where(|_| true).collect::<Vec<_>>())
    }

    /// The three-pass admission the one pass replaced, kept as its
    /// oracle: `locate_all`, a room counter per block, the physical id
    /// of every block, then one census add per block. `Ok` holds the
    /// new object's residency and the resulting census over every
    /// minted id; `Err` the disk `DiskFull` names.
    fn three_pass_admission(
        s: &CmServer,
        blocks: u64,
    ) -> Result<(Vec<PhysicalDiskId>, Vec<u64>), PhysicalDiskId> {
        let mut engine = s.engine().clone();
        let id = engine.add_object(blocks);
        let placements = engine.locate_all(id).unwrap();
        let ids = s.placement.disks().physical_ids();
        let mut room: Vec<u64> = ids
            .iter()
            .map(|&d| {
                s.placement
                    .disks()
                    .spec(d)
                    .capacity
                    .saturating_sub(s.store.blocks_on(d))
            })
            .collect();
        for &logical in &placements {
            let left = &mut room[logical.0 as usize];
            if *left == 0 {
                return Err(ids[logical.0 as usize]);
            }
            *left -= 1;
        }
        let resident: Vec<PhysicalDiskId> = placements
            .iter()
            .map(|&l| s.placement.disks().physical(l))
            .collect();
        let mut census = minted_census(s);
        for &disk in &resident {
            census[disk.0 as usize] += 1;
        }
        Ok((resident, census))
    }

    /// Everything a refused admission must leave as it was.
    fn observable(s: &CmServer) -> impl PartialEq + std::fmt::Debug {
        (
            minted_census(s),
            s.store.len(),
            s.engine().catalog().objects().to_vec(),
            s.pending_moves(),
            s.compaction_progress(),
        )
    }

    /// Ticks until no compaction is in flight.
    fn finish_compaction(s: &mut CmServer) {
        let mut rounds = 0;
        while s.compaction_active() {
            s.tick();
            rounds += 1;
            assert!(rounds < 100_000, "compaction never flips");
        }
    }

    /// Checks one admission against the oracle, on `s` itself.
    fn admit_like_oracle(s: &mut CmServer, blocks: u64) {
        let expected = three_pass_admission(s, blocks);
        let before = observable(s);
        match (s.add_object(blocks), expected) {
            (Ok(id), Ok((resident, census))) => {
                let stored: Vec<PhysicalDiskId> = physical(s.store.object(id).unwrap()).collect();
                assert_eq!(stored, resident, "{blocks} blocks");
                assert_eq!(minted_census(s), census, "{blocks} blocks");
            }
            (Err(ServerError::DiskFull(disk)), Err(oracle)) => {
                assert_eq!(disk, oracle, "{blocks} blocks");
                assert_eq!(observable(s), before, "{blocks} blocks");
            }
            (got, oracle) => panic!("{blocks} blocks: one pass {got:?}, oracle {oracle:?}"),
        }
    }

    #[test]
    fn admission_agrees_with_the_oracle_at_every_size() {
        // An object's first k blocks do not depend on its size, so as
        // the size grows one block at a time each disk's tally passes
        // its room exactly once: every capacity boundary gets checked.
        let mut cfg = ServerConfig::new(3).with_catalog_seed(5);
        cfg.disk_capacity = 50;
        let mut s = CmServer::new(cfg).unwrap();
        s.add_object(40).unwrap();
        for blocks in 0..=120 {
            admit_like_oracle(&mut s.clone(), blocks);
        }
        s.scale_offline(ScalingOp::Add { count: 1 }).unwrap();
        s.begin_compaction().unwrap();
        for blocks in 0..=160 {
            admit_like_oracle(&mut s.clone(), blocks);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random scaling histories, with capacities small enough
        /// to refuse objects, inside and outside a compaction, the one
        /// pass admits exactly what the three passes admit: the same
        /// residency and census, or the same `DiskFull` disk (the one a
        /// block-by-block ingest stops at) and an unchanged server.
        #[test]
        fn one_pass_admission_matches_three_pass_oracle(
            disks in 3u32..7,
            capacity in 200u64..3_000,
            history in proptest::collection::vec((0u32..10, 0u32..64, 0u64..=5_000), 1..12),
        ) {
            let mut cfg = ServerConfig::new(disks)
                .with_bandwidth(16)
                .with_redistribution_bandwidth(8)
                .with_catalog_seed(u64::from(capacity as u32 ^ disks));
            cfg.disk_capacity = capacity;
            let mut s = CmServer::new(cfg).unwrap();
            for (kind, pick, blocks) in history {
                let n = s.placement().disks().disks();
                match kind {
                    0..=3 => {
                        admit_like_oracle(&mut s, blocks);
                        if s.compaction_active() {
                            proptest::prop_assert!(s.compaction_consistent());
                        }
                    }
                    4 => {
                        if let Some(obj) = s.engine().catalog().objects().first() {
                            s.remove_object(obj.id).unwrap();
                        }
                    }
                    5 => {
                        finish_compaction(&mut s);
                        s.scale_offline(ScalingOp::Add { count: 1 + pick % 2 }).unwrap();
                    }
                    6 if n > 2 => {
                        finish_compaction(&mut s);
                        s.scale_offline(ScalingOp::remove_one(pick % n)).unwrap();
                    }
                    7 if n > 2 => {
                        finish_compaction(&mut s);
                        s.fail_disk(DiskIndex(pick % n));
                        s.scale_offline(ScalingOp::remove_one(pick % n)).unwrap();
                    }
                    _ => {
                        if !s.compaction_active() {
                            s.begin_compaction().unwrap();
                        }
                        for _ in 0..pick % 4 {
                            s.tick();
                        }
                    }
                }
            }
            finish_compaction(&mut s);
            proptest::prop_assert!(s.residency_consistent());
        }
    }

    /// The queueing half of [`CmServer::scale`] as it was before the
    /// plan's runs were read from residency slices, kept as its oracle:
    /// every replanned block hashed into a set (built even on an idle
    /// executor), then one `store.locate` per move.
    fn scale_with_hash_set(s: &mut CmServer, op: ScalingOp) -> Result<u64, ServerError> {
        use std::collections::HashSet;
        let (plan, pre_physicals) = s.placement.scale(&op)?;
        let n_prev = pre_physicals.len() as u32;
        let replanned: HashSet<BlockRef> = plan.moves.iter().map(|m| m.block).collect();
        s.executor.cancel_blocks(|b| replanned.contains(&b));
        let moves: Vec<PendingMove> = plan
            .moves
            .iter()
            .filter_map(|m| {
                let stored = s.store.locate(m.block).unwrap();
                let to = s.placement.disks().physical(m.to);
                if s.placement.disks().state(stored).failed() {
                    let mirror = crate::faults::mirror_of(m.from, n_prev);
                    Some(PendingMove {
                        block: m.block,
                        from: pre_physicals[mirror.0 as usize],
                        to,
                    })
                } else if stored == to {
                    None
                } else {
                    Some(PendingMove {
                        block: m.block,
                        from: stored,
                        to,
                    })
                }
            })
            .collect();
        let queued = moves.len() as u64;
        s.executor.enqueue(moves);
        Ok(queued)
    }

    fn queue(s: &CmServer) -> Vec<PendingMove> {
        s.executor.pending().copied().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random histories of additions, single and group
        /// removals, disk failures (pulled at once or left in the
        /// array), object churn and partial drains — so most scales
        /// find moves still pending, some find the executor idle, and
        /// some plan blocks stored on a dead disk — every scale returns
        /// the oracle's count and leaves exactly the oracle's queue:
        /// the same surviving moves and the same new ones, in order.
        #[test]
        fn scale_queues_what_the_hash_set_oracle_queues(
            disks in 4u32..9,
            b64 in proptest::prelude::any::<bool>(),
            history in proptest::collection::vec((0u32..10, 0u32..64, 0u32..6), 1..16),
        ) {
            let mut cfg = ServerConfig::new(disks)
                .with_bandwidth(16)
                .with_redistribution_bandwidth(8)
                .with_catalog_seed(u64::from(disks) * 7 + u64::from(b64));
            if b64 {
                cfg = cfg.with_bits(scaddar_prng::Bits::B64);
            }
            let mut s = CmServer::new(cfg).unwrap();
            for blocks in [900, 1, 2_500] {
                s.add_object(blocks).unwrap();
            }
            for (kind, pick, ticks) in history {
                let n = s.placement().disks().disks();
                let healthy = s.failed_disks().is_empty();
                let op = match kind {
                    0..=2 => Some(ScalingOp::Add { count: 1 + pick % 2 }),
                    3 | 4 if n > 3 => Some(ScalingOp::remove_one(pick % n)),
                    5 if n > 5 => Some(ScalingOp::Remove {
                        disks: vec![pick % n, (pick + 1 + pick / 7 % (n - 1)) % n],
                    }),
                    6 if n > 3 && healthy => {
                        s.fail_disk(DiskIndex(pick % n));
                        Some(ScalingOp::remove_one(pick % n))
                    }
                    7 if healthy => {
                        s.fail_disk(DiskIndex(pick % n));
                        None
                    }
                    8 => {
                        match s.engine().catalog().objects().first() {
                            Some(obj) if pick % 2 == 0 => s.remove_object(obj.id).unwrap(),
                            _ => {
                                s.add_object(u64::from(pick) * 37).unwrap();
                            }
                        }
                        None
                    }
                    _ => {
                        for _ in 0..200 {
                            if s.backlog() == 0 {
                                break;
                            }
                            s.tick();
                        }
                        None
                    }
                };
                if let Some(op) = op {
                    let mut oracle = s.clone();
                    let expected = scale_with_hash_set(&mut oracle, op.clone());
                    proptest::prop_assert_eq!(s.scale(op.clone()), expected, "{:?}", op);
                    proptest::prop_assert_eq!(queue(&s), queue(&oracle), "{:?}", op);
                }
                for _ in 0..ticks {
                    s.tick();
                }
            }
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;

    fn server(disks: u32) -> CmServer {
        CmServer::new(
            ServerConfig::new(disks)
                .with_bandwidth(32)
                .with_redistribution_bandwidth(8)
                .with_catalog_seed(7),
        )
        .unwrap()
    }

    /// Burns the §4.3 budget with alternating remove/add round-trips
    /// (dominant unfairness growth, zero net size change), draining each
    /// op so the executor is idle afterwards.
    fn burn_budget(s: &mut CmServer, round_trips: usize) {
        for _ in 0..round_trips {
            s.scale_offline(ScalingOp::remove_one(0)).unwrap();
            s.scale_offline(ScalingOp::Add { count: 1 }).unwrap();
        }
    }

    #[test]
    fn compaction_migrates_online_and_flips() {
        let mut s = server(6);
        let obj = s.add_object(6_000).unwrap();
        burn_budget(&mut s, 4);
        for _ in 0..10 {
            s.open_stream(obj).unwrap();
        }
        let epoch_before = s.engine().epoch();
        assert!(epoch_before >= 8);

        let queued = s.begin_compaction().unwrap();
        // A rehash is a near-complete reshuffle: ~(1 - 1/6) of blocks.
        let frac = queued as f64 / 6_000.0;
        assert!((frac - 5.0 / 6.0).abs() < 0.05, "queued fraction {frac}");
        assert!(s.compaction_active());

        // Every cutover round: dual-generation residency stays
        // consistent, every block stays locatable, streams keep playing.
        let mut rounds = 0;
        while s.compaction_active() {
            assert!(s.compaction_consistent(), "round {rounds}");
            for blk in (0..6_000).step_by(599) {
                let logical = s.placement().locate(obj, blk).unwrap();
                assert!(logical.0 < 6);
            }
            s.tick();
            rounds += 1;
            assert!(rounds < 10_000, "compaction never finishes");
        }
        assert!(rounds > 1, "online compaction should take >1 round");

        // The flip collapses locate back to a single O(1) hash: fresh
        // log, bumped generation, full budget, consistent residency.
        assert_eq!(s.generation(), 1);
        assert_eq!(s.engine().epoch(), 0);
        assert!(s.engine().next_op_is_safe(5));
        assert!(s.residency_consistent());
        assert_eq!(s.metrics().total_hiccups(), 0, "no service interruption");
        // locate_batch and locate agree post-flip.
        let batch = s.placement().locate_batch(obj, &[0, 17, 5_999]).unwrap();
        for (&b, &physical) in [0u64, 17, 5_999].iter().zip(&batch) {
            assert_eq!(
                physical,
                s.placement()
                    .disks()
                    .physical(s.placement().locate(obj, b).unwrap())
            );
        }
    }

    #[test]
    fn compaction_resets_the_fairness_budget() {
        let mut s = server(8);
        s.add_object(2_000).unwrap();
        let mut trips = 0;
        while s.next_op_is_safe(&ScalingOp::remove_one(0)) && trips < 50 {
            burn_budget(&mut s, 1);
            trips += 1;
        }
        assert!(
            !s.next_op_is_safe(&ScalingOp::remove_one(0)),
            "budget should be exhausted"
        );
        s.begin_compaction().unwrap();
        while s.compaction_active() {
            s.tick();
        }
        assert!(
            s.next_op_is_safe(&ScalingOp::remove_one(0)),
            "flip must refill the §4.3 budget"
        );
    }

    #[test]
    fn scaling_and_snapshots_wait_for_the_flip() {
        let mut s = server(4);
        s.add_object(3_000).unwrap();
        s.begin_compaction().unwrap();
        assert_eq!(
            s.scale(ScalingOp::Add { count: 1 }),
            Err(ServerError::CompactionActive)
        );
        assert!(matches!(s.snapshot(), Err(ServerError::CompactionActive)));
        assert_eq!(s.begin_compaction(), Err(ServerError::CompactionActive));
        while s.compaction_active() {
            s.tick();
        }
        assert!(s.scale(ScalingOp::Add { count: 1 }).is_ok());
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.snapshot().is_ok());
    }

    #[test]
    fn begin_requires_an_idle_executor() {
        let mut s = server(4);
        s.add_object(3_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(s.backlog() > 0);
        assert_eq!(
            s.begin_compaction(),
            Err(ServerError::RedistributionPending)
        );
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.begin_compaction().is_ok());
    }

    #[test]
    fn object_churn_during_compaction_stays_consistent() {
        let mut s = server(5);
        let keep = s.add_object(2_000).unwrap();
        let doomed = s.add_object(1_500).unwrap();
        s.begin_compaction().unwrap();
        // A few rounds in: delete one object, ingest another.
        for _ in 0..3 {
            s.tick();
        }
        s.remove_object(doomed).unwrap();
        assert!(s.compaction_consistent());
        let newcomer = s.add_object(800).unwrap();
        assert!(s.compaction_consistent());
        while s.compaction_active() {
            s.tick();
            assert!(s.compaction_consistent());
        }
        assert_eq!(s.generation(), 1);
        assert!(s.residency_consistent());
        assert_eq!(s.load_census().iter().sum::<u64>(), 2_800);
        assert!(s.placement().locate(keep, 0).is_ok());
        assert!(s.placement().locate(newcomer, 799).is_ok());
        assert!(matches!(
            s.placement().locate(doomed, 0),
            Err(ScaddarError::UnknownObject(_))
        ));
    }

    #[test]
    fn empty_catalog_compaction_flips_immediately() {
        let mut s = server(4);
        assert_eq!(s.begin_compaction().unwrap(), 0);
        assert!(!s.compaction_active(), "nothing to migrate");
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn progress_reporting_counts_down_to_the_flip() {
        let mut s = server(4);
        s.add_object(4_000).unwrap();
        assert!(s.compaction_progress().is_none());
        let queued = s.begin_compaction().unwrap();
        let p0 = s.compaction_progress().unwrap();
        assert_eq!((p0.from_generation, p0.to_generation), (0, 1));
        assert_eq!(p0.total_blocks, 4_000);
        assert_eq!(p0.backlog, queued);
        assert_eq!(p0.migrated_blocks, 4_000 - queued);
        let mut last = p0.migrated_blocks;
        while s.compaction_active() {
            s.tick();
            if let Some(p) = s.compaction_progress() {
                assert!(p.migrated_blocks >= last, "progress is monotone");
                last = p.migrated_blocks;
            }
        }
        assert!(s.compaction_progress().is_none());
    }

    #[test]
    fn compaction_stats_follow_the_migration() {
        use crate::stats::ServerStats;
        use scaddar_obs::Registry;
        let registry = Registry::new();
        let stats = ServerStats::register_monotonic(&registry);
        let mut s = server(4);
        s.attach_stats(stats.clone());
        s.add_object(3_000).unwrap();
        s.begin_compaction().unwrap();
        assert_eq!(stats.compactions_started.get(), 1);
        assert_eq!(stats.compaction_active.get(), 1);
        assert_eq!(stats.compaction_target_generation.get(), 1);
        assert!(stats.compaction_remaining.get() > 0);
        assert_eq!(stats.compaction_total.get(), 3_000);
        while s.compaction_active() {
            s.tick();
        }
        assert_eq!(stats.compactions_completed.get(), 1);
        assert_eq!(stats.compaction_active.get(), 0);
        assert_eq!(stats.compaction_remaining.get(), 0);
        assert_eq!(stats.compaction_generation.get(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("cmsim_compactions_completed_total 1"));
    }

    #[test]
    fn compaction_refuses_failed_disks_until_they_are_removed() {
        let mut s = server(6);
        s.add_object(3_000).unwrap();
        let dead = s.fail_disk(scaddar_core::DiskIndex(2));
        assert!(s.store().blocks_on(dead) > 0);
        assert_eq!(s.begin_compaction(), Err(ServerError::FailedDisksPresent));
        // The §6 remedy: remove the dead disk (its blocks reconstruct
        // from mirrors onto the survivors), then compact the healthy
        // 5-disk array.
        s.scale(ScalingOp::remove_one(2)).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.begin_compaction().is_ok());
        let mut rounds = 0;
        while s.compaction_active() {
            s.tick();
            rounds += 1;
            assert!(rounds < 10_000, "compaction never finishes");
        }
        assert_eq!(s.generation(), 1);
        assert!(s.residency_consistent());
        assert_eq!(s.load_census().len(), 5);
    }

    #[test]
    fn disk_failure_mid_compaction_still_flips() {
        let mut s = server(6);
        let obj = s.add_object(4_000).unwrap();
        s.begin_compaction().unwrap();
        for _ in 0..3 {
            s.tick();
        }
        let dead = s.fail_disk(scaddar_core::DiskIndex(2));
        assert!(s.compaction_consistent());
        let mut rounds = 0;
        while s.compaction_active() {
            s.tick();
            assert!(s.compaction_consistent(), "round {rounds}");
            rounds += 1;
            assert!(rounds < 10_000, "compaction wedged on the dead disk");
        }
        // The cutover completed: blocks whose new-generation home is
        // the dead disk are resident there (unreadable, mirror-served
        // — the same steady state a failed disk has outside
        // compaction); everything else actually moved.
        assert_eq!(s.generation(), 1);
        assert!(s.residency_consistent());
        assert!(s.store().blocks_on(dead) > 0);
        // Streams keep playing through the §6 mirror fallback.
        for _ in 0..4 {
            s.open_stream(obj).unwrap();
        }
        for _ in 0..50 {
            s.tick();
        }
        assert_eq!(s.metrics().total_hiccups(), 0);
        assert!(s.metrics().total_recovered() > 0, "mirror reads happened");
    }

    #[test]
    fn object_ingested_after_a_failure_mid_compaction_still_flips() {
        let mut s = server(6);
        s.add_object(4_000).unwrap();
        s.begin_compaction().unwrap();
        for _ in 0..3 {
            s.tick();
        }
        let dead = s.fail_disk(scaddar_core::DiskIndex(2));
        let obj = s.add_object(2_000).unwrap();
        // No queued move reads from or writes to the dead disk.
        assert!(s
            .executor
            .pending()
            .all(|mv| mv.from != dead && mv.to != dead));
        assert!(s.compaction_consistent());
        let mut rounds = 0;
        while s.compaction_active() {
            s.tick();
            assert!(s.compaction_consistent(), "round {rounds}");
            rounds += 1;
            assert!(rounds < 2_000, "compaction wedged on the dead disk");
        }
        assert_eq!(s.generation(), 1);
        assert!(s.residency_consistent());
        // The new object's share of the dead disk is resident there,
        // mirror-served like the rest of its blocks.
        let on_dead = physical(s.store().object(obj).unwrap());
        assert!(on_dead.filter(|&d| d == dead).count() > 0);
        assert_eq!(s.store().len(), 6_000);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use scaddar_core::DiskIndex;

    fn server(disks: u32) -> CmServer {
        CmServer::new(
            ServerConfig::new(disks)
                .with_bandwidth(32)
                .with_redistribution_bandwidth(8)
                .with_catalog_seed(33),
        )
        .unwrap()
    }

    #[test]
    fn failed_disk_is_served_from_mirrors() {
        let mut s = server(6);
        let obj = s.add_object(3_000).unwrap();
        for _ in 0..12 {
            s.open_stream(obj).unwrap();
        }
        // Spread positions so requests hit many disks.
        for (i, st) in s.streams_snapshot().into_iter().enumerate() {
            s.stream_mut(st.id).unwrap().seek((i as u64) * 211 % 3_000);
        }
        s.tick();
        let baseline_recovered = s.metrics().total_recovered();
        assert_eq!(baseline_recovered, 0);

        let dead = s.fail_disk(DiskIndex(2));
        assert_eq!(s.failed_disks(), vec![dead]);
        for _ in 0..50 {
            s.tick();
        }
        assert!(
            s.metrics().total_recovered() > 0,
            "mirror reads should have served the failed disk's blocks"
        );
        assert_eq!(
            s.metrics().total_hiccups(),
            0,
            "single failure with mirroring must not stall streams"
        );
    }

    #[test]
    fn removing_the_failed_disk_reconstructs_from_mirrors() {
        let mut s = server(6);
        s.add_object(6_000).unwrap();
        let dead = s.fail_disk(DiskIndex(2));
        let dead_blocks = s.store().blocks_on(dead);
        assert!(dead_blocks > 0);
        // Operator pulls the dead disk; moves must be sourced elsewhere.
        let queued = s.scale(ScalingOp::remove_one(2)).unwrap();
        assert!(
            queued >= dead_blocks,
            "every dead block needs reconstruction"
        );
        assert!(
            s.draining_disks().is_empty(),
            "a failed disk has nothing to drain"
        );
        while s.backlog() > 0 {
            s.tick();
        }
        assert_eq!(s.store().blocks_on(dead), 0);
        assert!(s.residency_consistent());
        assert_eq!(s.placement().disks().disks(), 5);
    }

    #[test]
    fn failure_mid_redistribution_resources_pending_moves() {
        let mut s = server(6);
        s.add_object(8_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(s.backlog() > 0);
        // A disk dies while its outbound moves are still queued.
        s.fail_disk(DiskIndex(0));
        s.scale(ScalingOp::remove_one(0)).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.residency_consistent());
        assert_eq!(s.placement().disks().disks(), 6); // 6 + 1 - 1
    }

    #[test]
    fn snapshot_refuses_a_failed_disk_until_it_is_removed() {
        let mut s = CmServer::new(ServerConfig::new(4).with_catalog_seed(21)).unwrap();
        s.add_object(400).unwrap();
        let dead = s.fail_disk(DiskIndex(1));
        assert!(s.store().blocks_on(dead) > 0);
        // The snapshot records no failure: a restore would serve the
        // dead disk's blocks as healthy.
        assert_eq!(s.snapshot(), Err(ServerError::FailedDisksPresent));
        s.scale(ScalingOp::remove_one(1)).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.failed_disks().is_empty());
        let bytes = s.snapshot().unwrap();
        let restored =
            CmServer::restore(ServerConfig::new(4).with_catalog_seed(21), &bytes).unwrap();
        assert!(restored.failed_disks().is_empty());
        assert!(restored.draining_disks().is_empty());
        assert_eq!(restored.load_census(), s.load_census());
    }

    #[test]
    fn partner_pair_failure_causes_stalls() {
        // Disks 0 and 3 are mirror partners at N=6: blocks whose primary
        // is on one and mirror on the other are unreadable.
        let mut s = server(6);
        let obj = s.add_object(2_000).unwrap();
        for _ in 0..12 {
            s.open_stream(obj).unwrap();
        }
        s.fail_disk(DiskIndex(0));
        s.fail_disk(DiskIndex(3));
        for _ in 0..30 {
            s.tick();
        }
        assert!(
            s.metrics().total_hiccups() > 0,
            "losing a mirror pair must be visible as stalls"
        );
    }
}
