//! The online redistribution executor.
//!
//! The paper's central service requirement (§1): scaling must happen
//! "without interruption to the activity of the CM server" — no downtime,
//! no broken streams. The executor models that: a scaling operation's
//! [`MovePlan`](scaddar_core::MovePlan) becomes a queue of *pending
//! moves* executed over many rounds, each move consuming one unit of
//! bandwidth on its source disk and one on its target disk, competing
//! with (but never preempting) stream service.
//!
//! While a move is pending, reads are served from the block's *current*
//! physical disk (the block store); once executed, from the new one. The
//! engine's `AF()` answers are thus eventually consistent with residency,
//! and the server layer resolves reads through the store.
//!
//! A round's budgets are a `&mut [u32]` indexed by `PhysicalDiskId.0`,
//! one slot per id the disk array has minted (ids are dense and never
//! reused); the server builds it from its disk table, and an id past
//! the end of the slice has no budget.

use crate::disk::PhysicalDiskId;
use scaddar_core::BlockRef;
use std::collections::VecDeque;

/// One queued block move, in physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMove {
    /// The block to move.
    pub block: BlockRef,
    /// Source physical disk.
    pub from: PhysicalDiskId,
    /// Target physical disk.
    pub to: PhysicalDiskId,
}

/// Executes queued moves under per-disk per-round bandwidth budgets.
#[derive(Debug, Clone, Default)]
pub struct RedistributionExecutor {
    queue: VecDeque<PendingMove>,
}

impl RedistributionExecutor {
    /// An idle executor.
    pub fn new() -> Self {
        RedistributionExecutor::default()
    }

    /// Enqueues a batch of moves (one scaling operation's plan).
    pub fn enqueue<I: IntoIterator<Item = PendingMove>>(&mut self, moves: I) {
        self.queue.extend(moves);
    }

    /// Pending move count.
    pub fn backlog(&self) -> u64 {
        self.queue.len() as u64
    }

    /// True when no moves are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The pending moves, in execution order (for scrubbing and
    /// introspection).
    pub fn pending(&self) -> impl Iterator<Item = &PendingMove> {
        self.queue.iter()
    }

    /// Executes up to the per-disk budgets' worth of moves this round.
    ///
    /// `budget[d]` is the number of block transfers physical disk `d`
    /// may participate in this round (as source *or* target); an id past
    /// the end of the slice has no budget. Returns the executed moves,
    /// in queue order; moves whose source or target is out of budget
    /// are deferred, preserving their relative order (head-of-line
    /// blocking is deliberate — it models a sequential sweep and keeps
    /// the executor fair across disks).
    pub fn execute_round(&mut self, budget: &mut [u32]) -> Vec<PendingMove> {
        let has_budget = |budget: &[u32], d: PhysicalDiskId| {
            budget.get(d.0 as usize).is_some_and(|&left| left > 0)
        };
        let mut executed = Vec::new();
        let mut deferred = VecDeque::new();
        while let Some(mv) = self.queue.pop_front() {
            // A local copy (from == to, e.g. materializing a
            // reconstructed block from a mirror co-resident with the
            // target) is one disk operation on a single spindle.
            let local = mv.from == mv.to;
            if has_budget(budget, mv.to) && (local || has_budget(budget, mv.from)) {
                budget[mv.to.0 as usize] -= 1;
                if !local {
                    budget[mv.from.0 as usize] -= 1;
                }
                executed.push(mv);
            } else {
                // Other moves may touch disks with budget left; keep
                // scanning — queue lengths are bounded by the plan size.
                deferred.push_back(mv);
            }
        }
        self.queue = deferred;
        executed
    }

    /// Rewrites the *source* of pending moves (e.g. when a source disk
    /// fails and the data must instead be read from its mirror). The
    /// callback returns the new source for moves it wants to redirect.
    /// Returns how many moves were redirected.
    pub fn resource_moves<F>(&mut self, mut new_source: F) -> u64
    where
        F: FnMut(&PendingMove) -> Option<PhysicalDiskId>,
    {
        let mut changed = 0;
        for mv in &mut self.queue {
            if let Some(from) = new_source(mv) {
                if from != mv.from {
                    mv.from = from;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Removes and returns the pending moves matching `pred`, in queue
    /// order.
    pub(crate) fn extract<F: FnMut(&PendingMove) -> bool>(
        &mut self,
        mut pred: F,
    ) -> Vec<PendingMove> {
        let mut taken = Vec::new();
        self.queue.retain(|mv| {
            let take = pred(mv);
            if take {
                taken.push(*mv);
            }
            !take
        });
        taken
    }

    /// Drops pending moves for blocks that no longer exist (object
    /// deletion during redistribution). Returns how many were dropped.
    pub fn cancel_blocks<F: Fn(BlockRef) -> bool>(&mut self, gone: F) -> u64 {
        let before = self.queue.len();
        self.queue.retain(|mv| !gone(mv.block));
        (before - self.queue.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::ObjectId;

    fn mv(b: u64, from: u64, to: u64) -> PendingMove {
        PendingMove {
            block: BlockRef {
                object: ObjectId(0),
                block: b,
            },
            from: PhysicalDiskId(from),
            to: PhysicalDiskId(to),
        }
    }

    /// A slice budget holding `pairs`; ids not named, and ids past the
    /// largest one named, have none.
    fn budget(pairs: &[(u64, u32)]) -> Vec<u32> {
        let len = pairs
            .iter()
            .map(|&(d, _)| d as usize + 1)
            .max()
            .unwrap_or(0);
        let mut b = vec![0; len];
        for &(d, n) in pairs {
            b[d as usize] = n;
        }
        b
    }

    #[test]
    fn executes_within_budget() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 0, 1), mv(1, 0, 1), mv(2, 0, 1)]);
        let mut b = budget(&[(0, 2), (1, 2)]);
        let done = ex.execute_round(&mut b);
        assert_eq!(done.len(), 2);
        assert_eq!(ex.backlog(), 1);
        // Budgets fully consumed.
        assert_eq!(b, vec![0, 0]);
    }

    #[test]
    fn independent_disks_proceed_despite_blocked_head() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 0, 1), mv(1, 2, 3)]);
        // Disk 0 has no budget; the 2->3 move must still run.
        let mut b = budget(&[(0, 0), (1, 5), (2, 5), (3, 5)]);
        let done = ex.execute_round(&mut b);
        assert_eq!(done, vec![mv(1, 2, 3)]);
        assert_eq!(ex.backlog(), 1);
    }

    #[test]
    fn drains_over_multiple_rounds() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue((0..10).map(|i| mv(i, 0, 1)));
        let mut rounds = 0;
        while !ex.is_idle() {
            let mut b = budget(&[(0, 3), (1, 3)]);
            let done = ex.execute_round(&mut b);
            assert!(!done.is_empty(), "no progress");
            rounds += 1;
        }
        assert_eq!(rounds, 4, "10 moves at 3/round: 4 rounds");
    }

    #[test]
    fn unknown_disk_has_zero_budget() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 7, 1)]);
        let mut b = budget(&[(1, 5)]);
        assert!(ex.execute_round(&mut b).is_empty());
        assert_eq!(ex.backlog(), 1);
    }

    #[test]
    fn cancel_drops_matching_blocks() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue((0..6).map(|i| mv(i, 0, 1)));
        let dropped = ex.cancel_blocks(|b| b.block % 2 == 0);
        assert_eq!(dropped, 3);
        assert_eq!(ex.backlog(), 3);
    }

    #[test]
    fn extract_takes_matching_moves_in_order() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue((0..6).map(|i| mv(i, 0, i % 3)));
        let taken = ex.extract(|m| m.to == PhysicalDiskId(1));
        assert_eq!(taken, vec![mv(1, 0, 1), mv(4, 0, 1)]);
        assert_eq!(ex.backlog(), 4);
        assert!(ex.pending().all(|m| m.to != PhysicalDiskId(1)));
    }
}
