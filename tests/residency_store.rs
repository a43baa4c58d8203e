//! Property test of the server's block residency: random histories of
//! object churn, online scaling, disk failure, rehash compaction and
//! snapshot/restore against the store's bookkeeping and a model of each
//! disk's lifecycle, checked after every step. Half the histories run on
//! disks small enough that ingesting an object can fail with `DiskFull`,
//! which must name the disk a block-by-block ingest stops at and leave
//! the server as it was.

use proptest::prelude::*;
use scaddar::cmsim::{PhysicalDiskId, ServerError};
use scaddar::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// One step of a server's history.
#[derive(Debug, Clone)]
enum Step {
    /// Ingest an object of this many blocks.
    Add(u64),
    /// Remove the catalog object picked by this value, if any.
    Remove(u64),
    /// Add disks and drain the moves.
    ScaleAdd(u32),
    /// Remove the disk picked by this value and drain the moves.
    ScaleRemove(u32),
    /// Fail the disk picked by this value, then remove it and drain.
    FailAndRemove(u32),
    /// Fail the disk picked by this value and leave it in the array.
    Fail(u32),
    /// Remove the disk picked by this value without draining: it keeps
    /// draining through later steps.
    ScaleRemoveOnline(u32),
    /// Begin a compaction and run this many rounds of it; the rest
    /// drains when a later step needs the flip.
    Compact(u32),
    /// Run this many service rounds.
    Tick(u32),
    /// Snapshot the server and continue on the restored copy.
    Restore,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u32..12, 0u32..64, 1u64..600).prop_map(|(kind, pick, blocks)| match kind {
            0 | 1 => Step::Add(blocks),
            2 => Step::Remove(u64::from(pick)),
            3 => Step::ScaleAdd(1 + pick % 2),
            4 => Step::ScaleRemove(pick),
            5 => Step::FailAndRemove(pick),
            6 | 7 => Step::Compact(pick % 4),
            8 => Step::Tick(1 + pick % 4),
            9 => Step::Fail(pick),
            10 => Step::ScaleRemoveOnline(pick),
            _ => Step::Restore,
        }),
        1..=16,
    )
}

/// Narrow disks, so a compaction stays in flight across several steps,
/// each holding `capacity` blocks.
fn config(capacity: u64) -> ServerConfig {
    let mut config = ServerConfig::new(4)
        .with_bandwidth(4)
        .with_redistribution_bandwidth(2)
        .with_catalog_seed(17);
    config.disk_capacity = capacity;
    config
}

/// Model of a refused ingest: the live disk the first block that does
/// not fit would land on, had an object of `blocks` blocks been added.
fn first_full_disk(s: &CmServer, blocks: u64) -> Option<PhysicalDiskId> {
    let mut probe = s.engine().clone();
    let id = probe.add_object(blocks);
    let mut taken: HashMap<PhysicalDiskId, u64> = HashMap::new();
    (0..blocks).find_map(|block| {
        let disk = s.disks().physical(probe.locate(id, block).unwrap());
        let n = taken.entry(disk).or_insert(s.store().blocks_on(disk));
        *n += 1;
        (*n > s.disks().spec(disk).capacity).then_some(disk)
    })
}

/// Drives one history and checks the residency invariants after every
/// step.
struct Run {
    server: CmServer,
    /// Blocks per disk.
    capacity: u64,
    /// `migrated_blocks` at the last check of an in-flight compaction.
    migrated: Option<u64>,
    /// Model of the failed disks: in the array, or pulled with blocks
    /// still on them.
    failed: BTreeSet<PhysicalDiskId>,
    /// Model of the removed disks still draining.
    draining: BTreeSet<PhysicalDiskId>,
}

impl Run {
    fn new(capacity: u64) -> Self {
        Run {
            server: CmServer::new(config(capacity)).unwrap(),
            capacity,
            migrated: None,
            failed: BTreeSet::new(),
            draining: BTreeSet::new(),
        }
    }

    fn tick(&mut self) {
        let generation = self.server.generation();
        let was_compacting = self.server.compaction_active();
        self.server.tick();
        if was_compacting && !self.server.compaction_active() {
            assert_eq!(self.server.generation(), generation + 1, "flip");
        }
        // A tick retires every removed disk that holds no block.
        let s = &self.server;
        let live = s.disks().physical_ids();
        self.draining.retain(|&d| s.store().blocks_on(d) > 0);
        self.failed
            .retain(|&d| live.contains(&d) || s.store().blocks_on(d) > 0);
        self.check_progress();
    }

    /// Ticks until the compaction flips and the executor is idle.
    fn quiesce(&mut self) {
        let mut rounds = 0;
        while self.server.compaction_active() || self.server.backlog() > 0 {
            self.tick();
            rounds += 1;
            assert!(rounds < 100_000, "moves never drain");
        }
    }

    /// `migrated_blocks` never decreases, and every catalog block is
    /// either migrated or queued — so it reaches `total_blocks` exactly
    /// when the last move lands.
    fn check_progress(&mut self) {
        match self.server.compaction_progress() {
            Some(p) => {
                if let Some(last) = self.migrated {
                    assert!(p.migrated_blocks >= last, "{} < {last}", p.migrated_blocks);
                }
                assert_eq!(p.migrated_blocks + p.backlog, p.total_blocks, "{p:?}");
                self.migrated = Some(p.migrated_blocks);
            }
            None => self.migrated = None,
        }
    }

    /// Applies `op` online and drains it, ticking at least once (a
    /// tick retires drained and reconstructed disks).
    fn scale(&mut self, op: ScalingOp) {
        self.scale_online(op);
        self.tick();
        self.quiesce();
    }

    /// Applies `op` online on a quiet server and leaves its moves
    /// queued. A removed disk drains unless it had failed.
    fn scale_online(&mut self, op: ScalingOp) {
        self.quiesce();
        let victims: Vec<PhysicalDiskId> = match &op {
            ScalingOp::Remove { disks } => disks
                .iter()
                .map(|&l| self.server.disks().physical(DiskIndex(l)))
                .collect(),
            ScalingOp::Add { .. } => Vec::new(),
        };
        match self.server.scale(op) {
            Ok(_) => {
                let failed = &self.failed;
                self.draining
                    .extend(victims.into_iter().filter(|d| !failed.contains(d)));
            }
            Err(ServerError::Engine(_)) => {}
            Err(e) => panic!("scale refused on a quiet server: {e}"),
        }
    }

    /// The §6 remedy before any scaling: remove a failed disk still in
    /// the array and reconstruct its blocks from their mirrors.
    fn heal(&mut self) {
        let live = self.server.disks().physical_ids();
        if let Some(at) = live.iter().position(|d| self.failed.contains(d)) {
            self.scale(ScalingOp::remove_one(at as u32));
            assert!(self.failed.is_empty(), "{:?}", self.failed);
        }
    }

    fn apply(&mut self, step: &Step) {
        if matches!(
            step,
            Step::ScaleAdd(_)
                | Step::ScaleRemove(_)
                | Step::FailAndRemove(_)
                | Step::ScaleRemoveOnline(_)
        ) {
            self.heal();
        }
        let disks = self.server.disks().disks();
        match *step {
            Step::Add(blocks) => {
                let full = first_full_disk(&self.server, blocks);
                let before = (
                    self.server.load_census(),
                    self.server.engine().catalog().objects().to_vec(),
                    self.server.pending_moves(),
                    self.server.compaction_progress(),
                );
                match self.server.add_object(blocks) {
                    Ok(_) => assert_eq!(full, None, "admitted past capacity"),
                    Err(ServerError::DiskFull(disk)) => {
                        assert_eq!(Some(disk), full);
                        // Rolled back: nothing written, nothing queued.
                        let after = (
                            self.server.load_census(),
                            self.server.engine().catalog().objects().to_vec(),
                            self.server.pending_moves(),
                            self.server.compaction_progress(),
                        );
                        assert_eq!(after, before);
                    }
                    Err(e) => panic!("ingest failed: {e}"),
                }
                self.check_progress();
            }
            Step::Remove(pick) => {
                let objects = self.server.engine().catalog().objects();
                if objects.is_empty() {
                    return;
                }
                let id = objects[(pick % objects.len() as u64) as usize].id;
                self.server.remove_object(id).expect("catalog object");
                // Removal takes the object's migrated blocks with it.
                self.migrated = None;
                self.check_progress();
            }
            Step::ScaleAdd(count) => self.scale(ScalingOp::Add { count }),
            Step::ScaleRemove(pick) if disks > 2 => self.scale(ScalingOp::remove_one(pick % disks)),
            Step::FailAndRemove(pick) if disks > 2 => {
                // Mid-compaction the server completes migration moves into
                // the dead disk. An online removal's moves into it would
                // wait for its removal instead, so they land first.
                if !self.server.compaction_active() {
                    self.quiesce();
                }
                let logical = pick % disks;
                let dead = self.server.fail_disk(DiskIndex(logical));
                self.failed.insert(dead);
                self.check_progress();
                // A failure mid-compaction still lets it flip; the dead
                // disk leaves the array once the flip allows scaling.
                self.quiesce();
                let at = self
                    .server
                    .disks()
                    .physical_ids()
                    .iter()
                    .position(|&d| d == dead)
                    .expect("failed disk still in the array") as u32;
                self.scale(ScalingOp::remove_one(at));
                assert!(self.server.failed_disks().is_empty());
            }
            // One failure at a time stays within the mirror's
            // redundancy. Quiescing first leaves no queued move into
            // the dead disk, and later scaling steps heal it first, so
            // no move ever waits on it.
            Step::Fail(pick) if disks > 2 && self.failed.is_empty() => {
                self.quiesce();
                let dead = self.server.fail_disk(DiskIndex(pick % disks));
                self.failed.insert(dead);
            }
            Step::ScaleRemoveOnline(pick) if disks > 2 => {
                self.scale_online(ScalingOp::remove_one(pick % disks));
            }
            Step::ScaleRemove(_)
            | Step::FailAndRemove(_)
            | Step::Fail(_)
            | Step::ScaleRemoveOnline(_) => {}
            Step::Compact(_) if !self.failed.is_empty() => {
                self.quiesce();
                assert_eq!(
                    self.server.begin_compaction(),
                    Err(ServerError::FailedDisksPresent)
                );
            }
            Step::Compact(rounds) => {
                self.quiesce();
                self.server
                    .begin_compaction()
                    .expect("quiet, healthy server");
                self.check_progress();
                for _ in 0..rounds {
                    self.tick();
                }
            }
            Step::Tick(rounds) => {
                for _ in 0..rounds {
                    self.tick();
                }
            }
            Step::Restore if !self.failed.is_empty() => {
                self.quiesce();
                assert_eq!(self.server.snapshot(), Err(ServerError::FailedDisksPresent));
            }
            Step::Restore => {
                self.quiesce();
                let census = self.server.load_census();
                let bytes = self.server.snapshot().expect("quiet server");
                self.server =
                    CmServer::restore(config(self.capacity), &bytes).expect("own snapshot");
                assert_eq!(self.server.load_census(), census);
                // The snapshot holds no removed disk.
                self.draining.clear();
            }
        }
    }

    fn check(&self) {
        let s = &self.server;
        assert_eq!(s.failed_disks(), Vec::from_iter(self.failed.clone()));
        assert_eq!(s.draining_disks(), Vec::from_iter(self.draining.clone()));
        let catalog = s.engine().catalog();
        assert_eq!(s.store().len() as u64, catalog.total_blocks());
        let mut recount: HashMap<PhysicalDiskId, u64> = HashMap::new();
        for obj in catalog.objects() {
            for block in 0..obj.blocks {
                let disk = s
                    .store()
                    .locate(BlockRef {
                        object: obj.id,
                        block,
                    })
                    .expect("catalog block is resident");
                *recount.entry(disk).or_insert(0) += 1;
            }
        }
        let live = s.disks().physical_ids();
        let expected: Vec<u64> = live
            .iter()
            .map(|d| recount.get(d).copied().unwrap_or(0))
            .collect();
        assert_eq!(s.load_census(), expected);
        if s.compaction_active() {
            assert!(s.compaction_consistent());
        } else if s.backlog() == 0 {
            assert!(s.residency_consistent());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every step of any history the store holds exactly the
    /// catalog's blocks, its census matches a recount, residency agrees
    /// with placement at quiet points, compaction progress only moves
    /// forward, and a refused ingest changes nothing.
    #[test]
    fn residency_tracks_every_history(history in steps(), capacity in 0u64..400) {
        // Disks of 100 to 299 blocks fill within an ingest or two; the
        // rest never fill.
        let capacity = if capacity < 200 { 100 + capacity } else { u64::MAX };
        let mut run = Run::new(capacity);
        for step in &history {
            run.apply(step);
            run.check();
        }
        run.quiesce();
        run.check();
        prop_assert!(run.server.residency_consistent());
    }
}
