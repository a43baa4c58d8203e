//! The scrubber: incremental, online verification that actual block
//! residency agrees with the placement arithmetic.
//!
//! Directory-free placement has a failure mode directories don't: if the
//! store and the arithmetic ever disagree (bit rot in the metadata
//! snapshot, a lost move, an operator restoring the wrong epoch), reads
//! silently go to the wrong disk. Production systems scrub; so does the
//! simulator. A [`Scrubber`] walks the catalog a bounded number of blocks
//! per call (so it can ride along each service round), classifying every
//! block as *clean* (residency == `AF()`), *in transit* (a queued move
//! explains the difference), or *corrupt* (unexplained divergence — the
//! alarm case).
//!
//! `AF()` here is the generation that serves the block: during a rehash
//! compaction a block the migration has already moved is placed by the
//! staging generation, every other block by the live one. The scrubber
//! shares that rule, and the classification itself, with
//! [`CmServer::residency_consistent`] and
//! [`CmServer::compaction_consistent`]: all three are callers of the
//! server's one residency audit. The audit reads the placements of the
//! block ranges an increment covers in bulk, and nothing else, so a full
//! pass reads each block's placement once whatever the budget.

use crate::server::CmServer;
use scaddar_core::BlockRef;

/// Cursor state of an incremental scrub pass over the catalog.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    /// Index of the next object in catalog order.
    object_pos: usize,
    /// Next block within that object.
    block_pos: u64,
    /// Completed full passes.
    passes: u64,
}

/// Result of one scrub increment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks examined in this increment.
    pub scanned: u64,
    /// Residency matched `AF()` of the generation serving the block.
    pub clean: u64,
    /// Residency differed but a queued move explains it.
    pub in_transit: u64,
    /// Unexplained divergence — these need repair.
    pub corrupt: Vec<BlockRef>,
    /// Did this increment wrap around to the start of the catalog?
    pub completed_pass: bool,
}

impl Scrubber {
    /// A scrubber starting at the beginning of the catalog.
    pub fn new() -> Self {
        Scrubber::default()
    }

    /// Completed full catalog passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Scans up to `budget` blocks of `server`, advancing the cursor.
    ///
    /// The catalog may have changed since the last increment (objects
    /// added or removed); the cursor degrades gracefully by clamping to
    /// the current catalog shape.
    pub fn scrub(&mut self, server: &CmServer, budget: u64) -> ScrubReport {
        let objects = server.engine().catalog().objects();
        if objects.is_empty() || budget == 0 {
            return ScrubReport::default();
        }
        if self.object_pos >= objects.len() {
            self.object_pos = 0;
            self.block_pos = 0;
        }
        let mut ranges = Vec::new();
        let mut left = budget;
        let mut completed_pass = false;
        while left > 0 {
            let obj = &objects[self.object_pos];
            if self.block_pos >= obj.blocks {
                self.object_pos += 1;
                self.block_pos = 0;
                if self.object_pos >= objects.len() {
                    self.object_pos = 0;
                    self.passes += 1;
                    completed_pass = true;
                    // One pass per increment at most: stop here so the
                    // caller sees pass boundaries.
                    break;
                }
                continue;
            }
            let take = left.min(obj.blocks - self.block_pos);
            ranges.push((obj.id, self.block_pos..self.block_pos + take));
            left -= take;
            self.block_pos += take;
        }
        ScrubReport {
            completed_pass,
            ..server.audit(ranges)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use scaddar_core::ScalingOp;

    fn server(blocks: u64) -> CmServer {
        let mut s = CmServer::new(ServerConfig::new(4).with_catalog_seed(6)).unwrap();
        s.add_object(blocks).unwrap();
        s
    }

    #[test]
    fn healthy_server_scrubs_clean() {
        let s = server(1_000);
        let mut scrubber = Scrubber::new();
        let mut total_clean = 0;
        loop {
            let r = scrubber.scrub(&s, 256);
            assert!(r.corrupt.is_empty());
            assert_eq!(r.in_transit, 0);
            total_clean += r.clean;
            if r.completed_pass {
                break;
            }
        }
        assert_eq!(total_clean, 1_000);
        assert_eq!(scrubber.passes(), 1);
    }

    #[test]
    fn in_transit_blocks_are_not_corrupt() {
        let mut s = server(5_000);
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(s.backlog() > 0);
        let mut scrubber = Scrubber::new();
        let mut in_transit = 0;
        loop {
            let r = scrubber.scrub(&s, 1_000);
            assert!(
                r.corrupt.is_empty(),
                "pending moves misdiagnosed as corruption: {:?}",
                r.corrupt
            );
            in_transit += r.in_transit;
            if r.completed_pass {
                break;
            }
        }
        assert_eq!(in_transit, s.backlog(), "every queued move seen in transit");
    }

    #[test]
    fn scrubbing_rides_along_ticks_until_consistent() {
        let mut s = server(3_000);
        s.scale(ScalingOp::Add { count: 2 }).unwrap();
        let mut scrubber = Scrubber::new();
        while s.backlog() > 0 {
            s.tick();
            let r = scrubber.scrub(&s, 500);
            assert!(r.corrupt.is_empty());
        }
        // A full clean pass after the drain.
        let mut scrubber = Scrubber::new();
        loop {
            let r = scrubber.scrub(&s, 1_000);
            assert!(r.corrupt.is_empty());
            assert_eq!(r.in_transit, 0);
            if r.completed_pass {
                break;
            }
        }
    }

    #[test]
    fn empty_catalog_and_zero_budget_are_noops() {
        let s = CmServer::new(ServerConfig::new(2)).unwrap();
        let mut scrubber = Scrubber::new();
        assert_eq!(scrubber.scrub(&s, 100), ScrubReport::default());
        let s = server(10);
        assert_eq!(scrubber.scrub(&s, 0), ScrubReport::default());
    }

    /// Planted rot is detected, exactly and only: misplace a handful of
    /// blocks behind the engine's back and the scrubber must flag
    /// precisely those blocks as corrupt — nothing more, nothing less.
    #[test]
    fn detects_planted_rot_exactly() {
        use scaddar_core::BlockRef;
        let mut s = server(2_000);
        let id = s.engine().catalog().objects()[0].id;
        let mut planted = Vec::new();
        for block in [17u64, 900, 1_999] {
            let blockref = BlockRef { object: id, block };
            let home = s.store().locate(blockref).unwrap();
            let wrong = s
                .placement()
                .disks()
                .physical_ids()
                .into_iter()
                .find(|&p| p != home)
                .expect("more than one disk");
            assert!(s.inject_misplacement(blockref, wrong));
            planted.push(blockref);
        }
        let mut scrubber = Scrubber::new();
        let mut corrupt = Vec::new();
        loop {
            let r = scrubber.scrub(&s, 512);
            assert_eq!(r.in_transit, 0, "no moves are pending");
            corrupt.extend(r.corrupt);
            if r.completed_pass {
                break;
            }
        }
        corrupt.sort();
        planted.sort();
        assert_eq!(corrupt, planted, "scrub must flag exactly the planted rot");
    }

    /// The inject hook itself is honest: it refuses no-op misplacement
    /// and unknown blocks, and flips `residency_consistent`.
    #[test]
    fn inject_misplacement_contract() {
        use scaddar_core::BlockRef;
        let mut s = server(100);
        let id = s.engine().catalog().objects()[0].id;
        let blockref = BlockRef {
            object: id,
            block: 5,
        };
        let home = s.store().locate(blockref).unwrap();
        assert!(
            !s.inject_misplacement(blockref, home),
            "same-disk is a no-op"
        );
        assert!(!s.inject_misplacement(
            BlockRef {
                object: scaddar_core::ObjectId(77),
                block: 0
            },
            home
        ));
        assert!(s.residency_consistent());
        let wrong = s
            .placement()
            .disks()
            .physical_ids()
            .into_iter()
            .find(|&p| p != home)
            .unwrap();
        assert!(s.inject_misplacement(blockref, wrong));
        assert!(!s.residency_consistent(), "rot must break the invariant");
    }

    /// One full pass from the start of the catalog, in increments of
    /// `budget` blocks, summed.
    fn full_pass(s: &CmServer, budget: u64) -> ScrubReport {
        let mut scrubber = Scrubber::new();
        let mut pass = ScrubReport::default();
        while !pass.completed_pass {
            let r = scrubber.scrub(s, budget);
            pass.scanned += r.scanned;
            pass.clean += r.clean;
            pass.in_transit += r.in_transit;
            pass.corrupt.extend(r.corrupt);
            pass.completed_pass = r.completed_pass;
        }
        pass
    }

    /// Mid-compaction, a block the migration has moved is at home at its
    /// staging-generation placement, not at its old one. A full scrub
    /// every round finds nothing corrupt, sees no more blocks in transit
    /// than moves are queued, and agrees with `compaction_consistent`,
    /// through a disk failure and an admission during the cutover.
    #[test]
    fn scrub_follows_the_serving_generation_through_a_compaction() {
        let mut s = CmServer::new(ServerConfig::new(5).with_catalog_seed(6)).unwrap();
        s.add_object(4_000).unwrap();
        s.scale(ScalingOp::Add { count: 1 }).unwrap();
        while s.backlog() > 0 {
            s.tick();
        }
        assert!(s.begin_compaction().unwrap() > 0);
        let mut rounds = 0;
        while s.compaction_active() {
            if rounds == 5 {
                s.fail_disk(scaddar_core::DiskIndex(2));
            }
            if rounds == 10 {
                s.add_object(1_500).unwrap();
            }
            let pass = full_pass(&s, 700);
            let blocks = s.store().len() as u64;
            assert!(
                pass.corrupt.is_empty(),
                "round {rounds}: {} of {blocks} blocks flagged corrupt",
                pass.corrupt.len()
            );
            assert_eq!(pass.scanned, blocks, "round {rounds}");
            assert_eq!(pass.clean + pass.in_transit, blocks, "round {rounds}");
            assert!(
                pass.in_transit <= s.backlog(),
                "round {rounds}: {} in transit, {} queued",
                pass.in_transit,
                s.backlog()
            );
            assert!(s.compaction_consistent(), "round {rounds}");
            s.tick();
            rounds += 1;
            assert!(rounds < 10_000, "compaction never finishes");
        }
        assert!(
            rounds > 10,
            "the failure and the admission happened mid-cutover"
        );
        assert_eq!(s.generation(), 1);
        let pass = full_pass(&s, 700);
        assert!(pass.corrupt.is_empty());
        assert_eq!(pass.in_transit, 0);
        assert_eq!(pass.clean, 5_500);
    }

    #[test]
    fn survives_catalog_shrinking_between_increments() {
        let mut s = CmServer::new(ServerConfig::new(4).with_catalog_seed(1)).unwrap();
        let a = s.add_object(500).unwrap();
        s.add_object(500).unwrap();
        let mut scrubber = Scrubber::new();
        let _ = scrubber.scrub(&s, 700); // cursor now inside object b
        s.remove_object(a).unwrap();
        // Cursor positions past the shrunken catalog must clamp cleanly.
        let r = scrubber.scrub(&s, 10_000);
        assert!(r.corrupt.is_empty());
    }
}
