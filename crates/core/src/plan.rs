//! The redistribution function `RF()` — planning which blocks move.
//!
//! During scaling operation `j`, `RF()` computes each block's `X_j` and
//! emits a move for every block whose disk changed (§4):
//!
//! * **addition** — all blocks are examined (cheap integer math per
//!   block), the `(N_j - N_{j-1})/N_j` fraction that remaps onto an added
//!   disk is moved;
//! * **removal** — only blocks on the removed disks move; callers that
//!   track residency (the simulator's block store) can restrict the scan
//!   accordingly, and the plan they get is identical.
//!
//! A [`MovePlan`] is pure data: applying it to actual storage is the
//! simulator's job (`cmsim::redistribute`), which is also where the
//! *online* aspects (rate limiting, bandwidth accounting) live.

use crate::address::DiskIndex;
use crate::log::{RecordAction, ScalingLog, ScalingRecord};
use crate::object::{BlockRef, Catalog};
use crate::remap::{remap_add, remap_remove};

/// One block that must change disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMove {
    /// Which block.
    pub block: BlockRef,
    /// Its disk before the operation (pre-op logical numbering).
    pub from: DiskIndex,
    /// Its disk after the operation (post-op logical numbering).
    pub to: DiskIndex,
}

/// The complete set of moves for one scaling operation, plus censuses.
#[derive(Debug, Clone, PartialEq)]
pub struct MovePlan {
    /// Epoch the plan transitions *into* (the `j` of `REMAP_j`).
    pub target_epoch: usize,
    /// Every block that changes disks.
    pub moves: Vec<BlockMove>,
    /// Total blocks examined (`B`).
    pub total_blocks: u64,
    /// Optimal fraction `z_j` for this operation (Def. 3.4).
    pub optimal_fraction: f64,
}

impl MovePlan {
    /// Fraction of all blocks moved. RO1 requires this to be ~`z_j`.
    pub fn moved_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.moves.len() as f64 / self.total_blocks as f64
        }
    }

    /// How far above optimal the plan is, as a ratio
    /// (`1.0` = exactly optimal). The headline RO1 metric.
    pub fn overhead_ratio(&self) -> f64 {
        if self.optimal_fraction == 0.0 {
            if self.moves.is_empty() {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.moved_fraction() / self.optimal_fraction
        }
    }

    /// Census of move targets: how many blocks each destination disk
    /// receives. Indexed by post-op logical disk.
    pub fn target_census(&self, disks_after: u32) -> Vec<u64> {
        let mut counts = vec![0u64; disks_after as usize];
        for mv in &self.moves {
            counts[mv.to.0 as usize] += 1;
        }
        counts
    }
}

/// Movement accounting for one *applied* scaling operation: the RO1
/// numbers of a [`MovePlan`] without the per-block move list. The
/// engine retains one of these per `scale()` call
/// ([`Scaddar::op_movements`](crate::Scaddar::op_movements)) so health
/// monitors can audit the moved fraction against the optimal `z_j`
/// (Def. 3.4) after the fact, at ~40 bytes per operation instead of
/// `O(B)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMovement {
    /// Epoch the operation transitioned into (the `j` of `REMAP_j`).
    pub epoch: usize,
    /// Disk count before the operation (`N_{j-1}`).
    pub disks_before: u32,
    /// Disk count after the operation (`N_j`).
    pub disks_after: u32,
    /// Blocks the plan moved.
    pub moved: u64,
    /// Total blocks examined (`B`).
    pub total: u64,
    /// Optimal fraction `z_j` for this operation (Def. 3.4).
    pub optimal_fraction: f64,
}

impl OpMovement {
    /// Summarizes a plan, recording the disk counts it transitioned
    /// between.
    pub fn from_plan(plan: &MovePlan, disks_before: u32, disks_after: u32) -> Self {
        OpMovement {
            epoch: plan.target_epoch,
            disks_before,
            disks_after,
            moved: plan.moves.len() as u64,
            total: plan.total_blocks,
            optimal_fraction: plan.optimal_fraction,
        }
    }

    /// Fraction of all blocks moved (cf. [`MovePlan::moved_fraction`]).
    pub fn moved_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.moved as f64 / self.total as f64
        }
    }
}

/// Plans the moves for the *last* operation in `log`, given the catalog:
/// the stateless reference `RF()`.
///
/// The log must already contain the operation (push first, then plan);
/// this keeps a single source of truth for epochs. For each block the
/// chain `X_0 … X_{j-1}` is recomputed with the record-by-record `REMAP`
/// functions and the final record applied — `O(B·j)` total.
/// [`Scaddar::scale`](crate::Scaddar::scale) computes the identical plan
/// in `O(B)` by advancing its X-cache ([`crate::XCache::advance`]); this
/// function is the oracle that path is property-tested against.
///
/// # Panics
/// If the log has no operations.
pub fn plan_last_op(catalog: &Catalog, log: &ScalingLog) -> MovePlan {
    let j = log.epoch();
    assert!(j > 0, "log has no scaling operation to plan");
    let prefix = &log.records()[..j - 1];
    let record = &log.records()[j - 1];
    let apply = |r: &ScalingRecord, x: u64| {
        let (n_prev, n_new) = (u64::from(r.disks_before()), u64::from(r.disks_after()));
        match r.action() {
            RecordAction::Added { .. } => remap_add(x, n_prev, n_new),
            RecordAction::Removed(set) => remap_remove(x, n_prev, set),
        }
    };
    let n_prev = u64::from(record.disks_before());
    let n_new = u64::from(record.disks_after());
    let mut moves = Vec::new();
    let mut total = 0u64;
    for (blockref, x0) in catalog.iter_x0() {
        total += 1;
        let x_prev = prefix.iter().fold(x0, |x, r| apply(r, x).x);
        let out = apply(record, x_prev);
        if out.moved {
            moves.push(BlockMove {
                block: blockref,
                from: DiskIndex((x_prev % n_prev) as u32),
                to: DiskIndex((out.x % n_new) as u32),
            });
        }
    }
    MovePlan {
        target_epoch: j,
        moves,
        total_blocks: total,
        optimal_fraction: record.optimal_move_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScalingOp;
    use scaddar_prng::{Bits, RngKind};

    fn setup(blocks: u64) -> (Catalog, ScalingLog) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        catalog.add_object(blocks);
        let log = ScalingLog::new(4).unwrap();
        (catalog, log)
    }

    #[test]
    fn addition_plan_moves_near_optimal_fraction() {
        let (catalog, mut log) = setup(100_000);
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.total_blocks, 100_000);
        assert_eq!(plan.target_epoch, 1);
        assert!((plan.optimal_fraction - 0.2).abs() < 1e-12);
        // Statistical: the binomial fraction should be within ~1% of z_j.
        assert!(
            (plan.moved_fraction() - 0.2).abs() < 0.01,
            "moved {}",
            plan.moved_fraction()
        );
        // Every move must target the added disk (index 4).
        assert!(plan.moves.iter().all(|m| m.to == DiskIndex(4)));
    }

    #[test]
    fn removal_plan_moves_exactly_the_victims_blocks() {
        let (catalog, mut log) = setup(50_000);
        // Locate blocks on disk 2 before the removal.
        let n0 = 4u64;
        let on_victim: u64 = catalog.iter_x0().filter(|(_, x0)| x0 % n0 == 2).count() as u64;
        log.push(&ScalingOp::remove_one(2)).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.moves.len() as u64, on_victim);
        assert!(plan.moves.iter().all(|m| m.from == DiskIndex(2)));
        // Targets are post-op indices 0..3, roughly uniform.
        let census = plan.target_census(3);
        let min = *census.iter().min().unwrap() as f64;
        let max = *census.iter().max().unwrap() as f64;
        assert!(max / min < 1.15, "skewed removal targets {census:?}");
    }

    #[test]
    fn cached_x_variant_agrees_with_full_recompute() {
        let (catalog, mut log) = setup(10_000);
        log.push(&ScalingOp::Add { count: 2 }).unwrap();
        // Plan op 2 both ways: from X_0, and by advancing a cache that
        // holds X_1.
        let mut cache = crate::XCache::rebuild(&catalog, &crate::RemapPipeline::compile(&log));
        log.push(&ScalingOp::remove_one(3)).unwrap();
        let full = plan_last_op(&catalog, &log);
        let incremental = cache.advance(&catalog, &log, &crate::RemapPipeline::compile(&log));
        assert_eq!(full, incremental);
        assert!(!full.moves.is_empty());
    }

    #[test]
    fn overhead_ratio_is_near_one_for_scaddar() {
        let (catalog, mut log) = setup(200_000);
        log.push(&ScalingOp::Add { count: 4 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert!((plan.overhead_ratio() - 1.0).abs() < 0.05);
    }

    #[test]
    fn empty_catalog_yields_empty_plan() {
        let catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        let mut log = ScalingLog::new(2).unwrap();
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.total_blocks, 0);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.moved_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no scaling operation")]
    fn planning_without_op_panics() {
        let (catalog, log) = setup(10);
        let _ = plan_last_op(&catalog, &log);
    }
}
