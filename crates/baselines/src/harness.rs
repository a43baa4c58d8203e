//! The comparison harness: drives any set of [`PlacementStrategy`]s
//! through the same operation schedule over the same block population and
//! *observes* movement and balance.
//!
//! Two details make the comparison honest:
//!
//! 1. **Movement is physical, not logical.** Removals renumber logical
//!    disk indices (the paper's `new()`), so comparing raw `place()`
//!    outputs would count renumbered-but-unmoved blocks as moves.
//!    [`PhysicalMap`] tracks the stable physical identity of every
//!    logical index across the schedule; a block "moved" iff its
//!    *physical* disk changed.
//! 2. **Movement is observed, not self-reported.** The harness snapshots
//!    placements before and after each operation and diffs.

use crate::strategy::{BlockKey, PlacementStrategy, PlacementStrategyExt};
use scaddar_core::{RemovedSet, ScalingError, ScalingOp};

/// Stable physical disk identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysicalDiskId(pub u64);

/// Maps dense logical indices (the strategies' world) to stable physical
/// disk ids across a schedule of scaling operations, using the same rank
/// renumbering every strategy implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalMap {
    logical_to_physical: Vec<PhysicalDiskId>,
    next_physical: u64,
}

impl PhysicalMap {
    /// Starts with `initial_disks` physical disks `0..initial_disks`.
    pub fn new(initial_disks: u32) -> Self {
        PhysicalMap {
            logical_to_physical: (0..u64::from(initial_disks)).map(PhysicalDiskId).collect(),
            next_physical: u64::from(initial_disks),
        }
    }

    /// Number of live disks.
    pub fn disks(&self) -> u32 {
        self.logical_to_physical.len() as u32
    }

    /// The physical disk behind a logical index.
    pub fn physical(&self, logical: u32) -> PhysicalDiskId {
        self.logical_to_physical[logical as usize]
    }

    /// The largest physical id a map mints. Ids are never reused, so a
    /// long history of additions and removals can reach it before the
    /// live count does; residency stores ids in 4 bytes.
    pub const MAX_ID: u64 = u32::MAX as u64;

    /// Validates `op` against the live count and the id ceiling without
    /// applying it: the error [`PhysicalMap::apply`] would return.
    pub fn check(&self, op: &ScalingOp) -> Result<(), ScalingError> {
        op.disks_after(self.disks())?;
        if let ScalingOp::Add { count } = op {
            if self.next_physical + u64::from(*count) > Self::MAX_ID + 1 {
                return Err(ScalingError::PhysicalIdsExhausted);
            }
        }
        Ok(())
    }

    /// Applies a scaling operation: additions mint fresh physical ids,
    /// removals drop the victims and compact (rank renumbering). An
    /// addition past [`PhysicalMap::MAX_ID`] is refused before anything
    /// is allocated.
    pub fn apply(&mut self, op: &ScalingOp) -> Result<(), ScalingError> {
        let n_prev = self.disks();
        self.check(op)?;
        match op {
            ScalingOp::Add { count } => {
                for _ in 0..*count {
                    self.logical_to_physical
                        .push(PhysicalDiskId(self.next_physical));
                    self.next_physical += 1;
                }
            }
            ScalingOp::Remove { disks } => {
                let removed = RemovedSet::new(disks, n_prev)?;
                let mut kept = Vec::with_capacity(self.logical_to_physical.len());
                for (logical, &phys) in self.logical_to_physical.iter().enumerate() {
                    if !removed.contains(logical as u32) {
                        kept.push(phys);
                    }
                }
                self.logical_to_physical = kept;
            }
        }
        Ok(())
    }
}

/// Balance and movement statistics for one strategy after one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Strategy name.
    pub strategy: &'static str,
    /// 1-based operation number in the schedule.
    pub op_index: usize,
    /// Disks after the operation.
    pub disks_after: u32,
    /// Blocks whose *physical* disk changed.
    pub moved: u64,
    /// Population size.
    pub total_blocks: u64,
    /// Optimal fraction `z_j` for this operation.
    pub optimal_fraction: f64,
    /// Per-logical-disk block counts after the operation.
    pub load_census: Vec<u64>,
}

impl OpStats {
    /// Observed moved fraction.
    pub fn moved_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.moved as f64 / self.total_blocks as f64
        }
    }

    /// Coefficient of variation of the load census — the paper's §5
    /// balance metric (stddev / mean of blocks per disk).
    pub fn load_cov(&self) -> f64 {
        cov(&self.load_census)
    }
}

/// Coefficient of variation of a census.
pub fn cov(census: &[u64]) -> f64 {
    if census.is_empty() {
        return 0.0;
    }
    let n = census.len() as f64;
    let mean = census.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = census
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Runs one strategy through a schedule, returning per-op statistics.
///
/// The schedule must be valid for the starting disk count (validated as
/// it runs; errors abort with the offending operation's index).
pub fn run_schedule<S: PlacementStrategy + ?Sized>(
    strategy: &mut S,
    keys: &[BlockKey],
    schedule: &[ScalingOp],
) -> Result<Vec<OpStats>, (usize, ScalingError)> {
    let mut physical = PhysicalMap::new(strategy.disks());
    let mut stats = Vec::with_capacity(schedule.len());
    let mut placements: Vec<PhysicalDiskId> = strategy
        .place_all(keys)
        .into_iter()
        .map(|l| physical.physical(l))
        .collect();

    for (i, op) in schedule.iter().enumerate() {
        let n_prev = strategy.disks();
        let optimal = optimal_fraction(n_prev, op);
        strategy.apply(op).map_err(|e| (i + 1, e))?;
        physical.apply(op).map_err(|e| (i + 1, e))?;

        let mut moved = 0u64;
        let mut census = vec![0u64; strategy.disks() as usize];
        for (slot, &key) in keys.iter().enumerate() {
            let logical = strategy.place(key);
            census[logical as usize] += 1;
            let phys = physical.physical(logical);
            if phys != placements[slot] {
                moved += 1;
                placements[slot] = phys;
            }
        }
        stats.push(OpStats {
            strategy: strategy.name(),
            op_index: i + 1,
            disks_after: strategy.disks(),
            moved,
            total_blocks: keys.len() as u64,
            optimal_fraction: optimal,
            load_census: census,
        });
    }
    Ok(stats)
}

/// Optimal `z_j` of an operation applied to `n_prev` disks (Def. 3.4),
/// or `NaN` if the operation is invalid.
pub fn optimal_fraction(n_prev: u32, op: &ScalingOp) -> f64 {
    match op.disks_after(n_prev) {
        Err(_) => f64::NAN,
        Ok(n_new) => {
            let before = f64::from(n_prev);
            let after = f64::from(n_new);
            if after > before {
                (after - before) / after
            } else {
                (before - after) / before
            }
        }
    }
}

/// Synthesizes a uniform block population of `n` keys: ordinals `0..n`,
/// ids from the given seed via splitmix-style mixing. Experiments that
/// model real catalogs build keys from `scaddar_core::Catalog` instead.
pub fn synthetic_population(n: u64, seed: u64) -> Vec<BlockKey> {
    use scaddar_prng::{SeededRng, SplitMix64};
    let mut rng = SplitMix64::from_seed(seed);
    (0..n)
        .map(|ordinal| BlockKey {
            ordinal,
            id: rng.next_u64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullRedistStrategy;
    use crate::jump_hash::JumpHashStrategy;
    use crate::scaddar::ScaddarStrategy;

    #[test]
    fn physical_map_tracks_identity_through_removal() {
        let mut m = PhysicalMap::new(4);
        m.apply(&ScalingOp::Add { count: 2 }).unwrap(); // physical 4, 5
        m.apply(&ScalingOp::remove_one(1)).unwrap(); // drop physical 1
        assert_eq!(m.disks(), 5);
        let physes: Vec<u64> = (0..5).map(|l| m.physical(l).0).collect();
        assert_eq!(physes, vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn additions_stop_at_the_id_ceiling() {
        // A map whose history already minted ids up to MAX_ID - 1.
        let mut m = PhysicalMap {
            logical_to_physical: vec![PhysicalDiskId(PhysicalMap::MAX_ID - 1)],
            next_physical: PhysicalMap::MAX_ID,
        };
        let two = ScalingOp::Add { count: 2 };
        assert_eq!(m.check(&two), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(m.apply(&two), Err(ScalingError::PhysicalIdsExhausted));
        assert_eq!(m.disks(), 1, "a refused addition mints nothing");
        m.apply(&ScalingOp::add_one()).unwrap();
        assert_eq!(m.physical(1), PhysicalDiskId(PhysicalMap::MAX_ID));
        assert_eq!(
            m.apply(&ScalingOp::add_one()),
            Err(ScalingError::PhysicalIdsExhausted)
        );
        // Removals never mint, so they still apply at the ceiling.
        m.apply(&ScalingOp::remove_one(0)).unwrap();
        assert_eq!(m.disks(), 1);
    }

    #[test]
    fn renumbering_is_not_counted_as_movement() {
        // Under SCADDAR, removing disk 0 moves only disk 0's blocks even
        // though every surviving block's logical index shifts down.
        let keys = synthetic_population(40_000, 9);
        let mut s = ScaddarStrategy::new(5).unwrap();
        let stats = run_schedule(&mut s, &keys, &[ScalingOp::remove_one(0)]).unwrap();
        let frac = stats[0].moved_fraction();
        assert!((frac - 0.2).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn full_redistribution_shows_its_cost() {
        let keys = synthetic_population(40_000, 9);
        let mut s = FullRedistStrategy::new(4).unwrap();
        let stats = run_schedule(&mut s, &keys, &[ScalingOp::Add { count: 1 }]).unwrap();
        assert!(stats[0].moved_fraction() > 0.7);
        assert!((stats[0].optimal_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jump_hash_mid_removal_pays_the_swap_penalty() {
        let keys = synthetic_population(60_000, 10);
        let schedule = [ScalingOp::remove_one(1)];
        let mut jump = JumpHashStrategy::new(5).unwrap();
        let stats = run_schedule(&mut jump, &keys, &schedule).unwrap();
        let frac = stats[0].moved_fraction();
        // victim's 1/5 + tail re-jump 1/5·(3/4) = 0.35 expected.
        assert!(
            (0.3..0.45).contains(&frac),
            "expected ~0.35 physical movement, got {frac}"
        );
    }

    #[test]
    fn cov_basics() {
        assert_eq!(cov(&[]), 0.0);
        assert_eq!(cov(&[5, 5, 5, 5]), 0.0);
        // Census 0,10: mean 5, stddev 5 -> cov 1.
        assert!((cov(&[0, 10]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_schedule_reports_index() {
        let keys = synthetic_population(100, 1);
        let mut s = ScaddarStrategy::new(2).unwrap();
        let err = run_schedule(
            &mut s,
            &keys,
            &[ScalingOp::Add { count: 1 }, ScalingOp::remove_one(9)],
        )
        .unwrap_err();
        assert_eq!(err.0, 2);
    }
}
