//! Compiled remap pipelines: the bulk-location engine's hot loop.
//!
//! Folding `X_0 → X_j` through a [`ScalingLog`] record-by-record pays,
//! per step, an enum dispatch on [`RecordAction`], a hardware division
//! for every `mod`/`div`, and (for removals) a lookup through
//! [`RemovedSet`]. A [`RemapPipeline`] *compiles* the log once into a
//! flat step list that removes all three costs:
//!
//! * steps are plain structs in one contiguous `Vec` — no enum
//!   dispatch, no pointer chasing, one cache line per step;
//! * every removal's renumbering is a dense table shared in one buffer;
//! * **divisions are strength-reduced away**: each step's disk counts
//!   are fixed at compilation, so `x / N` and `x % N` are computed with
//!   a precomputed 128-bit reciprocal (`⌊2¹²⁸/N⌋ + 1`) and two 64×64
//!   multiplies — exact for all `x` and all `N ≥ 1` (Granlund &
//!   Montgomery's invariant-divisor scheme; see [`MagicDivisor`]) —
//!   instead of a `div` instruction per `mod`/`div` pair. `AF()`'s
//!   final `X_j mod N_j` uses the same scheme, so no lookup path pays a
//!   hardware division.
//!
//! The pipeline is append-only, mirroring the log: after a scaling
//! operation, [`RemapPipeline::extend_from`] compiles just the new
//! records. Equivalence with the reference fold
//! ([`crate::address::x_at_current_epoch`]) is property-tested for
//! arbitrary op sequences and full-range `u64` inputs.

use crate::address::DiskIndex;
use crate::log::{RecordAction, ScalingLog, ScalingRecord};
use crate::ops::RemovedSet;

/// Sentinel in a step's `table_off` marking an addition step (additions
/// need no renumber table; it doubles as the op-kind tag).
const ADDITION: usize = usize::MAX;

/// Exact division and remainder by a fixed divisor via a precomputed
/// 128-bit reciprocal, replacing the hardware `div` in the fold loop.
///
/// For `2 <= d < 2^64` the magic constant is `M = ⌊2¹²⁸/d⌋ + 1`, and
/// `⌊x/d⌋ = ⌊M·x / 2¹²⁸⌋` for every `x < 2^64` — the invariant-divisor
/// bound holds because `2¹²⁸ < M·d ≤ 2¹²⁸ + d - 1 < 2¹²⁸ + 2⁶⁴`.
/// `d = 1` is kept as a trivial branch (its magic would overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MagicDivisor {
    d: u64,
    magic: u128,
}

impl MagicDivisor {
    fn new(d: u64) -> Self {
        debug_assert!(d >= 1);
        // For d = 1 the magic is unused; 0 keeps Eq/Hash canonical.
        let magic = if d == 1 {
            0
        } else {
            u128::MAX / u128::from(d) + 1
        };
        MagicDivisor { d, magic }
    }

    /// `(x / d, x % d)` with two multiplies and no division.
    #[inline(always)]
    fn divmod(self, x: u64) -> (u64, u64) {
        if self.d == 1 {
            return (x, 0);
        }
        let q = self.mul_hi(x);
        (q, x - q * self.d)
    }

    /// `x % d` alone.
    #[inline(always)]
    pub(crate) fn rem(self, x: u64) -> u64 {
        if self.d == 1 {
            return 0;
        }
        x - self.mul_hi(x) * self.d
    }

    /// `⌊magic · x / 2¹²⁸⌋`: the 128×64→192-bit high product, from two
    /// 64×64→128 multiplies.
    #[inline(always)]
    fn mul_hi(self, x: u64) -> u64 {
        let x = u128::from(x);
        let lo = u128::from(self.magic as u64) * x;
        let hi = (self.magic >> 64) * x;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// One compiled `REMAP` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// `N_{j-1}` with its reciprocal.
    n_prev: MagicDivisor,
    /// `N_j` with its reciprocal (the reciprocal is used by additions
    /// only, but removals keep it for uniformity).
    n_new: MagicDivisor,
    /// Offset of this step's dense renumber table in
    /// [`RemapPipeline::tables`], or [`ADDITION`].
    table_off: usize,
}

impl Step {
    /// Applies this step to `x`: `(X_j, moved)`, the same contract as
    /// [`crate::remap::remap_add`]/[`crate::remap::remap_remove`].
    #[inline(always)]
    fn apply(&self, x: u64, tables: &[u32]) -> (u64, bool) {
        let (q, r) = self.n_prev.divmod(x);
        if self.table_off == ADDITION {
            // Eq. 5: fresh draw t = q mod N_j; t < N_{j-1} keeps disk r,
            // and (q/N_j)·N_j + r = q - t + r needs no extra division.
            let t = self.n_new.rem(q);
            if t < self.n_prev.d {
                (q - t + r, false)
            } else {
                (q, true)
            }
        } else {
            // Eq. 3: dense table gives new(r) or the removed sentinel.
            let m = tables[self.table_off + r as usize];
            if m == RemovedSet::REMOVED {
                (q, true)
            } else {
                (q * self.n_new.d + u64::from(m), false)
            }
        }
    }
}

/// A [`ScalingLog`] compiled to a flat, division-free step list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapPipeline {
    initial_disks: u32,
    /// `N_j` with its reciprocal: `AF()`'s final `mod`.
    disks: MagicDivisor,
    steps: Vec<Step>,
    /// Concatenated dense renumber tables of every removal step.
    tables: Vec<u32>,
}

impl RemapPipeline {
    /// Compiles the whole log.
    pub fn compile(log: &ScalingLog) -> Self {
        Self::compile_prefix(log, log.epoch())
    }

    /// Compiles only the first `epochs` operations (the state of the
    /// world at epoch `epochs`). Used by planners that need `X_{j-1}`.
    ///
    /// # Panics
    /// If `epochs > log.epoch()`.
    pub fn compile_prefix(log: &ScalingLog, epochs: usize) -> Self {
        assert!(epochs <= log.epoch(), "epoch {epochs} is in the future");
        let mut pipeline = RemapPipeline {
            initial_disks: log.initial_disks(),
            disks: MagicDivisor::new(u64::from(log.initial_disks())),
            steps: Vec::with_capacity(epochs),
            tables: Vec::new(),
        };
        for record in &log.records()[..epochs] {
            pipeline.push_record(record);
        }
        pipeline
    }

    /// Appends compiled steps for every log record past the pipeline's
    /// current epoch. O(new records), so keeping a pipeline in lockstep
    /// with a growing log costs one step compilation per operation.
    ///
    /// # Panics
    /// If the log is not a continuation of what was compiled (different
    /// initial disk count, shorter history, or mismatched disk counts at
    /// the pipeline's epoch).
    pub fn extend_from(&mut self, log: &ScalingLog) {
        assert_eq!(
            self.initial_disks,
            log.initial_disks(),
            "log is not a continuation: different initial disk count"
        );
        assert!(
            self.epoch() <= log.epoch(),
            "log is behind the compiled pipeline"
        );
        assert_eq!(
            self.current_disks(),
            log.disks_at(self.epoch()),
            "log diverged from the compiled pipeline"
        );
        for record in &log.records()[self.epoch()..] {
            self.push_record(record);
        }
    }

    fn push_record(&mut self, record: &ScalingRecord) {
        debug_assert_eq!(self.current_disks(), record.disks_before());
        let table_off = match record.action() {
            RecordAction::Added { .. } => ADDITION,
            RecordAction::Removed(set) => {
                let off = self.tables.len();
                self.tables.extend_from_slice(set.rank_table());
                off
            }
        };
        self.steps.push(Step {
            n_prev: MagicDivisor::new(u64::from(record.disks_before())),
            n_new: MagicDivisor::new(u64::from(record.disks_after())),
            table_off,
        });
        self.disks = MagicDivisor::new(u64::from(record.disks_after()));
    }

    /// Number of compiled operations (the epoch the pipeline folds to).
    pub fn epoch(&self) -> usize {
        self.steps.len()
    }

    /// `N_0`.
    pub fn initial_disks(&self) -> u32 {
        self.initial_disks
    }

    /// `N_j` at the pipeline's epoch.
    pub fn current_disks(&self) -> u32 {
        self.disks.d as u32
    }

    /// `N_j` with its reciprocal, for reducing an `X_j` to its disk.
    #[inline]
    pub(crate) fn disk_divisor(&self) -> MagicDivisor {
        self.disks
    }

    /// `D_j = X_j mod N_j` by reciprocal multiply.
    #[inline]
    pub(crate) fn disk_of(&self, x: u64) -> DiskIndex {
        DiskIndex(self.disks.rem(x) as u32)
    }

    /// Applies compiled step `i` (i.e. `REMAP_{i+1}`) to `x`, returning
    /// the remapped value and whether the block changed disks — the same
    /// contract as [`crate::remap::remap_add`]/
    /// [`crate::remap::remap_remove`].
    #[inline]
    pub fn step(&self, i: usize, x: u64) -> (u64, bool) {
        self.steps[i].apply(x, &self.tables)
    }

    /// `X_j`: folds `x0` through every compiled step.
    #[inline]
    pub fn fold(&self, x0: u64) -> u64 {
        let mut x = x0;
        for step in &self.steps {
            x = step.apply(x, &self.tables).0;
        }
        x
    }

    /// Folds `x` (a value at epoch `from`) through steps `from..epoch()`.
    /// The X-cache uses this with `from = epoch() - 1` to advance by
    /// exactly one `REMAP` per scaling operation.
    #[inline]
    pub fn fold_from(&self, from: usize, mut x: u64) -> u64 {
        for step in &self.steps[from..] {
            x = step.apply(x, &self.tables).0;
        }
        x
    }

    /// Folds a whole batch of `X_0` values to `X_j` in place.
    ///
    /// Unlike mapping [`RemapPipeline::fold`] over the slice (one block
    /// at a time through all steps, each step waiting on the last), this
    /// walks **step-outer, block-inner**: every block in the batch is
    /// independent within a step, so the per-block multiply chains
    /// overlap in the CPU pipeline and the step's constants (divisor,
    /// reciprocal, renumber table) stay in registers/L1 for the whole
    /// inner loop. This is the engine's bulk path — the throughput win
    /// the scalar fold cannot reach latency-bound.
    pub fn fold_batch(&self, xs: &mut [u64]) {
        for step in &self.steps {
            let np = step.n_prev;
            if step.table_off == ADDITION {
                let nn = step.n_new;
                for x in xs.iter_mut() {
                    let (q, r) = np.divmod(*x);
                    let t = nn.rem(q);
                    *x = if t < np.d { q - t + r } else { q };
                }
            } else {
                let nn = step.n_new.d;
                // r < N_{j-1} always, so the table slice is exactly
                // N_{j-1} long and the inner bounds check never fires.
                let table = &self.tables[step.table_off..step.table_off + np.d as usize];
                for x in xs.iter_mut() {
                    let (q, r) = np.divmod(*x);
                    let m = table[r as usize];
                    *x = if m == RemovedSet::REMOVED {
                        q
                    } else {
                        q * nn + u64::from(m)
                    };
                }
            }
        }
    }

    /// `AF()` against the compiled log: `D_j = fold(x0) mod N_j`.
    #[inline]
    pub fn locate(&self, x0: u64) -> DiskIndex {
        self.disk_of(self.fold(x0))
    }

    /// Bulk `AF()`: batch-folds every `x0` and reduces mod `N_j`.
    pub fn locate_batch(&self, x0s: &[u64]) -> Vec<DiskIndex> {
        let mut xs = x0s.to_vec();
        self.fold_batch(&mut xs);
        xs.into_iter().map(|x| self.disk_of(x)).collect()
    }

    /// Bulk `AF()` across `threads` scoped worker threads, each batch-
    /// folding a contiguous chunk. Output order matches input order;
    /// results are identical to [`RemapPipeline::locate_batch`].
    pub fn locate_batch_parallel(&self, x0s: &[u64], threads: usize) -> Vec<DiskIndex> {
        let threads = threads.max(1);
        if threads == 1 || x0s.len() < 2 * threads {
            return self.locate_batch(x0s);
        }
        let mut out = vec![DiskIndex(0); x0s.len()];
        let chunk = x0s.len().div_ceil(threads);
        crossbeam::scope(|scope| {
            for (xs, outs) in x0s.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| {
                    let mut buf = xs.to_vec();
                    self.fold_batch(&mut buf);
                    for (x, slot) in buf.iter().zip(outs.iter_mut()) {
                        *slot = self.disk_of(*x);
                    }
                });
            }
        })
        .expect("locate workers join cleanly");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{locate, x_at_current_epoch};
    use crate::ops::ScalingOp;

    #[test]
    fn magic_division_is_exact() {
        // Stress the reciprocal against hardware division across divisor
        // shapes (1, 2, powers of two, primes, u32::MAX) and extreme x.
        let xs = [
            0u64,
            1,
            12345,
            u64::from(u32::MAX),
            1 << 33,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in [
            1u64,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            64,
            97,
            1 << 20,
            u64::from(u32::MAX),
        ] {
            let m = MagicDivisor::new(d);
            for &x in &xs {
                assert_eq!(m.divmod(x), (x / d, x % d), "x={x} d={d}");
                assert_eq!(m.rem(x), x % d, "x={x} d={d}");
            }
        }
    }

    fn log_with(initial: u32, ops: &[ScalingOp]) -> ScalingLog {
        let mut log = ScalingLog::new(initial).unwrap();
        for op in ops {
            log.push(op).unwrap();
        }
        log
    }

    fn mixed_log() -> ScalingLog {
        log_with(
            4,
            &[
                ScalingOp::Add { count: 2 },
                ScalingOp::remove_one(1),
                ScalingOp::Add { count: 1 },
                ScalingOp::Remove { disks: vec![0, 3] },
                ScalingOp::Add { count: 3 },
            ],
        )
    }

    #[test]
    fn empty_log_is_identity() {
        let log = ScalingLog::new(5).unwrap();
        let pipe = RemapPipeline::compile(&log);
        assert_eq!(pipe.epoch(), 0);
        assert_eq!(pipe.current_disks(), 5);
        assert_eq!(pipe.fold(12345), 12345);
        assert_eq!(pipe.locate(12), DiskIndex(2));
    }

    #[test]
    fn fold_matches_reference_on_mixed_log() {
        let log = mixed_log();
        let pipe = RemapPipeline::compile(&log);
        assert_eq!(pipe.current_disks(), log.current_disks());
        for x0 in (0..200_000u64).step_by(37).chain([u64::MAX, u64::MAX / 3]) {
            assert_eq!(pipe.fold(x0), x_at_current_epoch(x0, &log), "x0={x0}");
            assert_eq!(pipe.locate(x0), locate(x0, &log), "x0={x0}");
        }
    }

    #[test]
    fn single_disk_and_growth_from_one() {
        // N = 1 exercises the d == 1 branch of the magic divisor.
        let log = log_with(1, &[ScalingOp::Add { count: 3 }, ScalingOp::remove_one(0)]);
        let pipe = RemapPipeline::compile(&log);
        for x0 in [0u64, 5, 999_999, u64::MAX] {
            assert_eq!(pipe.fold(x0), x_at_current_epoch(x0, &log), "x0={x0}");
        }
    }

    #[test]
    fn paper_removal_example_through_pipeline() {
        // §4.2.1: remove disk 4 of 6; X=28 moves to disk 4 (new
        // numbering), X=41 stays put as X_j = 34.
        let log = log_with(6, &[ScalingOp::remove_one(4)]);
        let pipe = RemapPipeline::compile(&log);
        assert_eq!(pipe.fold(28), 4);
        assert_eq!(pipe.fold(41), 34);
        assert_eq!(pipe.step(0, 28), (4, true));
        assert_eq!(pipe.step(0, 41), (34, false));
    }

    #[test]
    fn extend_from_matches_full_compile() {
        let log = mixed_log();
        let full = RemapPipeline::compile(&log);
        let mut incremental = RemapPipeline::compile_prefix(&log, 0);
        for e in 1..=log.epoch() {
            let partial = {
                let mut l = ScalingLog::new(4).unwrap();
                for r in &log.records()[..e] {
                    let op = match r.action() {
                        RecordAction::Added { count } => ScalingOp::Add { count: *count },
                        RecordAction::Removed(set) => ScalingOp::Remove {
                            disks: set.indices().to_vec(),
                        },
                    };
                    l.push(&op).unwrap();
                }
                l
            };
            incremental.extend_from(&partial);
            assert_eq!(incremental.epoch(), e);
        }
        assert_eq!(incremental, full);
    }

    #[test]
    fn fold_from_composes() {
        let log = mixed_log();
        let pipe = RemapPipeline::compile(&log);
        for x0 in [0u64, 7, 999_999, u64::MAX / 7] {
            let mid = RemapPipeline::compile_prefix(&log, 2).fold(x0);
            assert_eq!(pipe.fold_from(2, mid), pipe.fold(x0));
        }
    }

    #[test]
    fn fold_batch_matches_scalar_fold() {
        let log = mixed_log();
        let pipe = RemapPipeline::compile(&log);
        let mut xs: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([u64::MAX, 0])
            .collect();
        let expected: Vec<u64> = xs.iter().map(|&x| pipe.fold(x)).collect();
        pipe.fold_batch(&mut xs);
        assert_eq!(xs, expected);
    }

    #[test]
    fn locate_batch_parallel_matches_serial() {
        let log = mixed_log();
        let pipe = RemapPipeline::compile(&log);
        let x0s: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let serial = pipe.locate_batch(&x0s);
        for threads in [1, 2, 3, 8] {
            assert_eq!(pipe.locate_batch_parallel(&x0s, threads), serial);
        }
    }

    #[test]
    #[should_panic(expected = "not a continuation")]
    fn extend_from_rejects_divergent_log() {
        let mut pipe = RemapPipeline::compile(&log_with(4, &[ScalingOp::add_one()]));
        pipe.extend_from(&log_with(5, &[ScalingOp::add_one()]));
    }
}
