//! Concurrent online access: serving lookups *while* scaling operations
//! commit.
//!
//! The paper's service requirement is that customers never see downtime
//! during maintenance (§1). In a real server, block-location queries come
//! from many session threads while an operator thread applies scaling
//! operations. [`SharedServer`] wraps a [`CmServer`] in a
//! `std::sync::RwLock` with an epoch counter so tests can assert the
//! crucial property: every concurrent lookup observes a *consistent*
//! epoch — either entirely pre-op or entirely post-op placement, never a
//! torn mixture — and no lookup ever blocks for the duration of a whole
//! redistribution (only for the O(B) plan computation of the commit
//! itself).

use crate::disk::PhysicalDiskId;
use crate::server::{CmServer, ServerError};
use scaddar_core::{DiskIndex, ObjectId, ScalingOp};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A snapshot of one lookup with the epoch it was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRead {
    /// Scaling epoch `j` at the time of the read.
    pub epoch: usize,
    /// Number of disks at that epoch.
    pub disks: u32,
    /// The block's logical disk.
    pub disk: DiskIndex,
}

/// A snapshot of one **bulk** lookup with the epoch it was served at:
/// the owned analogue of [`EpochRead`] for whole playback windows. The
/// network layer serializes this as one `BatchLocated` frame, so the
/// epoch-consistency invariant survives the socket boundary — a remote
/// client gets the same "whole batch at one epoch" guarantee an
/// in-process session thread gets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRead {
    /// Scaling epoch `j` at the time of the read.
    pub epoch: usize,
    /// Number of disks at that epoch.
    pub disks: u32,
    /// Physical location per requested block, in request order.
    pub locations: Vec<PhysicalDiskId>,
}

/// One pending lookup frame in a coalesced read: either a single-block
/// `Locate` or a whole-window `LocateBatch`. Block lists are borrowed
/// from the caller (typically straight out of a decoded wire frame) so
/// coalescing adds no copies on the request path.
#[derive(Debug, Clone, Copy)]
pub enum LocateQuery<'a> {
    /// A single-block lookup (answers with the *logical* disk index,
    /// mirroring [`SharedServer::locate`]).
    One {
        /// Object to locate in.
        object: ObjectId,
        /// Block number within the object.
        block: u64,
    },
    /// A bulk lookup (answers with *physical* disk ids, mirroring
    /// [`SharedServer::locate_batch_read`]).
    Many {
        /// Object to locate in.
        object: ObjectId,
        /// Block numbers within the object.
        blocks: &'a [u64],
    },
}

/// Per-query payload of a coalesced read, shaped like the query that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocateAnswer {
    /// Answer to [`LocateQuery::One`].
    One(DiskIndex),
    /// Answer to [`LocateQuery::Many`], in request order.
    Many(Vec<PhysicalDiskId>),
}

/// The result of answering *many* lookup frames under **one** shared
/// lock acquisition: a single `(epoch, disks)` snapshot that every
/// answer in `answers` was served at. This is the invariant an
/// event-loop server needs for cross-connection batching — frames from
/// different sockets coalesced into one read must still each be
/// "entirely pre-op or entirely post-op", and sharing one guard makes
/// that true by construction.
#[derive(Debug, Clone)]
pub struct CoalescedRead {
    /// Scaling epoch `j` every answer was served at.
    pub epoch: usize,
    /// Number of disks at that epoch.
    pub disks: u32,
    /// One result per query, in submission order. Per-query failures
    /// (unknown object, block out of range) do not poison the batch.
    pub answers: Vec<Result<LocateAnswer, ServerError>>,
}

/// Thread-safe wrapper over a [`CmServer`].
///
/// Reads take the shared lock; scaling takes the exclusive lock for the
/// plan-and-commit step only (move execution stays asynchronous via
/// `tick`, which also takes the exclusive lock per round — rounds are
/// short by construction).
#[derive(Debug)]
pub struct SharedServer {
    inner: RwLock<CmServer>,
}

impl SharedServer {
    /// Wraps a server.
    pub fn new(server: CmServer) -> Self {
        SharedServer {
            inner: RwLock::new(server),
        }
    }

    // Poisoning is ignored: after a panic under the lock, lookups keep
    // answering from whatever state the panicking writer left, so one
    // failed request never takes the whole server down with it.
    fn read(&self) -> RwLockReadGuard<'_, CmServer> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CmServer> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consistent lookup: epoch, disk count and location read under one
    /// shared lock acquisition. Generation-aware: during a compaction,
    /// migrated blocks answer from the staging generation
    /// ([`CmServer::locate_current`]).
    pub fn locate(&self, object: ObjectId, block: u64) -> Result<EpochRead, ServerError> {
        let guard = self.read();
        let disk = guard.locate_current(object, block)?;
        Ok(EpochRead {
            epoch: guard.engine().epoch(),
            disks: guard.disks().disks(),
            disk,
        })
    }

    /// Consistent **bulk** lookup: every block located under *one*
    /// shared lock acquisition, so the whole batch is served at a single
    /// epoch — a session thread prefetching a playback window can never
    /// observe a scaling operation ripping through the middle of its
    /// batch. Returns the epoch alongside the physical disks.
    pub fn locate_batch(
        &self,
        object: ObjectId,
        blocks: &[u64],
    ) -> Result<(usize, Vec<PhysicalDiskId>), ServerError> {
        let guard = self.read();
        let disks = guard.locate_batch(object, blocks)?;
        Ok((guard.engine().epoch(), disks))
    }

    /// [`locate_batch`](Self::locate_batch) with the disk count read
    /// under the *same* shared lock acquisition: the full epoch-tagged
    /// triple a serving layer needs to answer a batch request without a
    /// second (potentially torn) `epoch_view` round-trip.
    pub fn locate_batch_read(
        &self,
        object: ObjectId,
        blocks: &[u64],
    ) -> Result<BatchRead, ServerError> {
        let guard = self.read();
        let locations = guard.locate_batch(object, blocks)?;
        Ok(BatchRead {
            epoch: guard.engine().epoch(),
            disks: guard.disks().disks(),
            locations,
        })
    }

    /// Answers a whole slate of lookup frames under **one** shared lock
    /// acquisition. All answers share a single `(epoch, disks)`
    /// snapshot, so a serving layer may interleave frames from many
    /// connections into one call and still hand every client the
    /// epoch-consistency guarantee of [`locate`](Self::locate) /
    /// [`locate_batch_read`](Self::locate_batch_read). Compared to one
    /// lock round-trip per frame this is the difference between `n`
    /// atomic RMWs on the lock word per wakeup and two.
    pub fn locate_coalesced(&self, queries: &[LocateQuery<'_>]) -> CoalescedRead {
        self.locate_coalesced_with(queries, || {})
    }

    /// [`locate_coalesced`](Self::locate_coalesced) with a hook fired
    /// the moment the shared lock is *acquired* — before any query is
    /// answered. This is the instrumentation seam the serving layer's
    /// latency anatomy uses to split "engine read-lock wait" from
    /// "engine execute" without `SharedServer` depending on any clock:
    /// the caller timestamps around the call and inside the hook, and
    /// the cooperative profiler flips its state word from `lock-wait`
    /// to `engine` in the hook.
    pub fn locate_coalesced_with(
        &self,
        queries: &[LocateQuery<'_>],
        on_locked: impl FnOnce(),
    ) -> CoalescedRead {
        let guard = self.read();
        on_locked();
        let answers = queries
            .iter()
            .map(|query| match *query {
                LocateQuery::One { object, block } => {
                    guard.locate_current(object, block).map(LocateAnswer::One)
                }
                LocateQuery::Many { object, blocks } => {
                    guard.locate_batch(object, blocks).map(LocateAnswer::Many)
                }
            })
            .collect();
        CoalescedRead {
            epoch: guard.engine().epoch(),
            disks: guard.disks().disks(),
            answers,
        }
    }

    /// Applies a scaling operation under the exclusive lock.
    pub fn scale(&self, op: ScalingOp) -> Result<u64, ServerError> {
        self.write().scale(op)
    }

    /// Applies a scaling operation and reads the post-commit
    /// `(epoch, disks)` under the *same* exclusive lock acquisition, so
    /// a serving layer can answer "scaled to epoch j with N disks,
    /// queued M moves" without racing a concurrent operator.
    pub fn scale_read(&self, op: ScalingOp) -> Result<(usize, u32, u64), ServerError> {
        let mut guard = self.write();
        let queued = guard.scale(op)?;
        Ok((guard.engine().epoch(), guard.disks().disks(), queued))
    }

    /// Advances one service round under the exclusive lock.
    pub fn tick(&self) {
        self.write().tick();
    }

    /// Ingests an object under the exclusive lock — the migration
    /// copy-in path a cluster orchestrator uses to materialize an
    /// object on its new shard (the shard's own `AF()` places every
    /// block, so the copy re-enters the paper's placement discipline).
    pub fn add_object(&self, blocks: u64) -> Result<ObjectId, ServerError> {
        self.write().add_object(blocks)
    }

    /// Deletes an object under the exclusive lock — the migration
    /// evict path on the handoff source (pending redistribution moves
    /// for the object are cancelled with it).
    pub fn remove_object(&self, id: ObjectId) -> Result<(), ServerError> {
        self.write().remove_object(id)
    }

    /// Pending redistribution moves.
    pub fn backlog(&self) -> u64 {
        self.read().backlog()
    }

    /// Begins an online rehash compaction under the exclusive lock
    /// (see [`CmServer::begin_compaction`]).
    pub fn begin_compaction(&self) -> Result<u64, ServerError> {
        self.write().begin_compaction()
    }

    /// Progress of the in-flight compaction, if any, read under the
    /// shared lock.
    pub fn compaction_progress(&self) -> Option<crate::compaction::CompactionProgress> {
        self.read().compaction_progress()
    }

    /// The current `(epoch, disks)` pair read under one shared lock
    /// acquisition — the reference point concurrent-read checkers
    /// compare their [`EpochRead`]s against.
    pub fn epoch_view(&self) -> (usize, u32) {
        let guard = self.read();
        (guard.engine().epoch(), guard.disks().disks())
    }

    /// Runs `f` with shared access to the server.
    pub fn with_read<R>(&self, f: impl FnOnce(&CmServer) -> R) -> R {
        f(&self.read())
    }

    /// Runs `f` with exclusive access to the server.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut CmServer) -> R) -> R {
        f(&mut self.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn reads_are_epoch_consistent_during_scaling() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(17)).unwrap();
        let object = server.add_object(5_000).unwrap();
        let shared = SharedServer::new(server);
        let stop = AtomicBool::new(false);
        let total_reads = AtomicU64::new(0);

        std::thread::scope(|scope| {
            // Reader threads hammer lookups and assert internal
            // consistency of every observation.
            for t in 0..4 {
                let shared = &shared;
                let stop = &stop;
                let total_reads = &total_reads;
                scope.spawn(move || {
                    let mut block = t * 131;
                    while !stop.load(Ordering::Relaxed) {
                        block = (block + 1) % 5_000;
                        let r = shared.locate(object, block).expect("lookup");
                        // Torn-state detector: the disk must be valid for
                        // the disk count observed in the same read.
                        assert!(
                            r.disk.0 < r.disks,
                            "torn read: disk {} of {} at epoch {}",
                            r.disk.0,
                            r.disks,
                            r.epoch
                        );
                        // Epochs imply disk counts 4..=8 in this test.
                        assert_eq!(r.disks, 4 + r.epoch as u32);
                        total_reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Operator thread: four scaling operations with service
            // rounds in between, paced so every epoch is observed by
            // readers (fast optimized builds can otherwise finish all
            // four ops before a reader gets scheduled).
            for _ in 0..4 {
                let seen = total_reads.load(Ordering::Relaxed);
                shared.scale(ScalingOp::Add { count: 1 }).expect("scale");
                while shared.backlog() > 0 {
                    shared.tick();
                }
                while total_reads.load(Ordering::Relaxed) < seen + 50 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(total_reads.load(Ordering::Relaxed) >= 200);

        assert_eq!(shared.with_read(|s| s.disks().disks()), 8);
        assert!(shared.with_read(|s| s.residency_consistent()));
    }

    #[test]
    fn batch_reads_are_epoch_consistent_during_scaling() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(9)).unwrap();
        let object = server.add_object(3_000).unwrap();
        let shared = SharedServer::new(server);
        let stop = AtomicBool::new(false);
        let total_batches = AtomicU64::new(0);
        let window: Vec<u64> = (0..64).collect();

        std::thread::scope(|scope| {
            for _ in 0..2 {
                let shared = &shared;
                let stop = &stop;
                let total_batches = &total_batches;
                let window = &window;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (epoch, disks) =
                            shared.locate_batch(object, window).expect("batch lookup");
                        // Single-epoch guarantee: re-locating the same
                        // window at the same epoch must agree entirely.
                        let (epoch2, disks2) =
                            shared.locate_batch(object, window).expect("batch lookup");
                        if epoch == epoch2 {
                            assert_eq!(disks, disks2, "torn batch at epoch {epoch}");
                        }
                        total_batches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..3 {
                let seen = total_batches.load(Ordering::Relaxed);
                shared.scale(ScalingOp::Add { count: 1 }).expect("scale");
                while shared.backlog() > 0 {
                    shared.tick();
                }
                while total_batches.load(Ordering::Relaxed) < seen + 20 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(shared.with_read(|s| s.disks().disks()), 7);
    }

    #[test]
    fn coalesced_read_agrees_with_individual_lookups() {
        let mut server = CmServer::new(ServerConfig::new(5).with_catalog_seed(23)).unwrap();
        let object = server.add_object(2_000).unwrap();
        let shared = SharedServer::new(server);
        shared.scale(ScalingOp::Add { count: 2 }).unwrap();
        while shared.backlog() > 0 {
            shared.tick();
        }

        let window: Vec<u64> = (100..140).collect();
        let queries = [
            LocateQuery::One { object, block: 7 },
            LocateQuery::Many {
                object,
                blocks: &window,
            },
            LocateQuery::One {
                object,
                block: 1_999,
            },
            // Out-of-range block: fails alone, must not poison the rest.
            LocateQuery::One {
                object,
                block: 2_000,
            },
        ];
        let read = shared.locate_coalesced(&queries);
        assert_eq!((read.epoch, read.disks), shared.epoch_view());
        assert_eq!(read.answers.len(), queries.len());

        let single = shared.locate(object, 7).unwrap();
        assert_eq!(read.answers[0], Ok(LocateAnswer::One(single.disk)));
        let batch = shared.locate_batch_read(object, &window).unwrap();
        assert_eq!(read.answers[1], Ok(LocateAnswer::Many(batch.locations)));
        let last = shared.locate(object, 1_999).unwrap();
        assert_eq!(read.answers[2], Ok(LocateAnswer::One(last.disk)));
        assert!(read.answers[3].is_err(), "out-of-range block must fail");
    }

    #[test]
    fn coalesced_reads_are_epoch_consistent_during_scaling() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(41)).unwrap();
        let object = server.add_object(3_000).unwrap();
        let shared = SharedServer::new(server);
        let stop = AtomicBool::new(false);
        let total = AtomicU64::new(0);
        let window: Vec<u64> = (0..32).collect();

        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let shared = &shared;
                let stop = &stop;
                let total = &total;
                let window = &window;
                scope.spawn(move || {
                    let mut block = t * 977;
                    while !stop.load(Ordering::Relaxed) {
                        block = (block + 13) % 3_000;
                        let queries = [
                            LocateQuery::One { object, block },
                            LocateQuery::Many {
                                object,
                                blocks: window,
                            },
                        ];
                        let read = shared.locate_coalesced(&queries);
                        // Epochs imply disk counts 4..=7 in this test;
                        // a torn coalesced read would break the pairing
                        // or place a block outside the epoch's array.
                        assert_eq!(read.disks, 4 + read.epoch as u32);
                        match &read.answers[0] {
                            Ok(LocateAnswer::One(disk)) => assert!(disk.0 < read.disks),
                            other => panic!("unexpected answer {other:?}"),
                        }
                        match &read.answers[1] {
                            Ok(LocateAnswer::Many(locs)) => {
                                assert_eq!(locs.len(), window.len());
                            }
                            other => panic!("unexpected answer {other:?}"),
                        }
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..3 {
                let seen = total.load(Ordering::Relaxed);
                shared.scale(ScalingOp::Add { count: 1 }).expect("scale");
                while shared.backlog() > 0 {
                    shared.tick();
                }
                while total.load(Ordering::Relaxed) < seen + 30 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(shared.with_read(|s| s.disks().disks()), 7);
    }

    #[test]
    fn coalesced_with_fires_the_hook_after_lock_acquisition() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(3)).unwrap();
        let object = server.add_object(1_000).unwrap();
        let shared = SharedServer::new(server);
        let fired = AtomicU64::new(0);
        let queries = [LocateQuery::One { object, block: 5 }];
        let read = shared.locate_coalesced_with(&queries, || {
            fired.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fires exactly once");
        // The hooked variant answers identically to the plain one.
        let plain = shared.locate_coalesced(&queries);
        assert_eq!((read.epoch, read.disks), (plain.epoch, plain.disks));
        assert_eq!(read.answers, plain.answers);
    }

    #[test]
    fn a_panicking_writer_leaves_lookups_answering() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(2)).unwrap();
        let object = server.add_object(500).unwrap();
        let shared = SharedServer::new(server);
        let before = shared.locate(object, 42).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| shared.with_write(|_| panic!("writer panics under the lock")))
                .join()
                .is_err()
        });
        assert!(panicked);
        assert_eq!(shared.locate(object, 42).unwrap(), before);
        shared
            .scale(ScalingOp::Add { count: 1 })
            .expect("the lock still admits writers");
    }

    #[test]
    fn with_write_allows_full_mutation() {
        let server = CmServer::new(ServerConfig::new(2).with_catalog_seed(1)).unwrap();
        let shared = SharedServer::new(server);
        let id = shared.with_write(|s| s.add_object(100)).unwrap();
        let read = shared.locate(id, 0).unwrap();
        assert!(read.disk.0 < 2);
        assert_eq!(read.epoch, 0);
    }
}
