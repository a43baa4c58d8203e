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
//!   Montgomery's invariant-divisor scheme; see `MagicDivisor`) —
//!   instead of a `div` instruction per `mod`/`div` pair. `AF()`'s
//!   final `X_j mod N_j` uses the same scheme, so no lookup path pays a
//!   hardware division. Values stored as `u32` words (`b ≤ 32`, see
//!   [`Word`]) take a 64-bit reciprocal split into 32-bit halves, whose
//!   32×32→64 products vectorise (DESIGN §8).
//!
//! The pipeline is append-only, mirroring the log: after a scaling
//! operation, [`RemapPipeline::extend_from`] compiles just the new
//! records. Equivalence with the reference fold
//! ([`crate::address::x_at_current_epoch`]) is property-tested for
//! arbitrary op sequences and full-range `u64` inputs.

use crate::address::DiskIndex;
use crate::log::{RecordAction, ScalingLog, ScalingRecord};
use crate::ops::RemovedSet;
use scaddar_prng::multiversion::{self, Kernel};

/// Sentinel in a step's `table_off` marking an addition step (additions
/// need no renumber table; it doubles as the op-kind tag).
const ADDITION: usize = usize::MAX;

/// Words per chunk of a step's two phases ([`RemapPipeline::step_words`]).
const STEP_CHUNK: usize = 1024;

/// A block's `to` disk in an addition chunk when it kept its disk. No disk
/// index reaches it: disk counts are at most `u32::MAX`.
const STAYED: u32 = u32::MAX;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A stored placement word (DESIGN §8): `u32` when the catalog's
/// [`Bits`](scaddar_prng::Bits) is at most 32, `u64` otherwise.
///
/// No `REMAP` step increases `X` (an addition yields `q - t + r <= x`, a
/// removal `q` or `q·N_j + m` with `m <= r`), so every `X_j` fits the
/// `b` bits of its `X_0`. Folds widen a word into a `u64` register and
/// narrow the result back; for `u32` every reduction takes the split
/// 32-bit reciprocal. The width is a type parameter, so a
/// fold dispatches on it once per call, never per block.
pub trait Word: Copy + Eq + std::fmt::Debug + Send + Sync + 'static + sealed::Sealed {
    /// True for `u32`: values and divisors fit 32 bits.
    const NARROW: bool;
    /// The largest value the word holds.
    const MAX: u64;
    /// The value in a `u64` register.
    fn widen(self) -> u64;
    /// Stores `x`, truncating; callers check `x <= Self::MAX`.
    fn narrow(x: u64) -> Self;
    /// The words as `u32`s, for `u32` only: the vectorised fold's view.
    fn as_narrow(xs: &mut [Self]) -> Option<&mut [u32]>;
}

impl Word for u32 {
    const NARROW: bool = true;
    const MAX: u64 = u32::MAX as u64;
    #[inline(always)]
    fn widen(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn narrow(x: u64) -> Self {
        x as u32
    }
    #[inline(always)]
    fn as_narrow(xs: &mut [Self]) -> Option<&mut [u32]> {
        Some(xs)
    }
}

impl Word for u64 {
    const NARROW: bool = false;
    const MAX: u64 = u64::MAX;
    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }
    #[inline(always)]
    fn narrow(x: u64) -> Self {
        x
    }
    #[inline(always)]
    fn as_narrow(_: &mut [Self]) -> Option<&mut [u32]> {
        None
    }
}

/// Exact division and remainder by a fixed divisor via a precomputed
/// reciprocal, replacing the hardware `div` in the fold loop.
///
/// * **Wide** (any `x < 2^64`, `2 <= d < 2^64`): `M = ⌊2¹²⁸/d⌋ + 1` and
///   `⌊x/d⌋ = ⌊M·x / 2¹²⁸⌋` — the invariant-divisor bound holds because
///   `2¹²⁸ < M·d ≤ 2¹²⁸ + d - 1 < 2¹²⁸ + 2⁶⁴`. Two 64×64 multiplies.
/// * **Narrow** (`x, d < 2^32`): `M₃₂ = ⌊2⁶⁴/d⌋ + 1`, so
///   `M₃₂·d = 2⁶⁴ + e` with `0 < e <= d`. Then
///   `M₃₂·x / 2⁶⁴ = x/d + e·x/(d·2⁶⁴)`, and `e·x < 2⁶⁴` keeps the error
///   below `1/d`, so `⌊x/d⌋ = ⌊M₃₂·x / 2⁶⁴⌋`. The product is taken in
///   the **split form** (DESIGN §8): with `M₃₂ = mh·2³² + ml`,
///   `q = (x·mh + ⌊x·ml/2³²⌋) >> 32` and `r = x − q·d` in `u32` — only
///   32×32→64 products, which vector units have, so the reduction loop
///   vectorises ([`MagicDivisor::reduce32`]).
///
/// `d = 1` is kept as a trivial branch (its magics would overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MagicDivisor {
    d: u64,
    magic: u128,
    /// `M₃₂`'s high and low 32-bit halves.
    mh: u32,
    ml: u32,
}

impl MagicDivisor {
    fn new(d: u64) -> Self {
        debug_assert!(d >= 1);
        // For d = 1 the magics are unused; 0 keeps Eq/Hash canonical.
        let (magic, magic32) = if d == 1 {
            (0, 0)
        } else {
            (
                u128::MAX / u128::from(d) + 1,
                ((1u128 << 64) / u128::from(d) + 1) as u64,
            )
        };
        MagicDivisor {
            d,
            magic,
            mh: (magic32 >> 32) as u32,
            ml: magic32 as u32,
        }
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

    /// `(x / d, x % d)` for `x, d < 2^32`, in the split form: three
    /// 32×32→64 multiplies. `x·mh + ⌊x·ml/2³²⌋` is below
    /// `(2³² − 1)² + 2³² < 2⁶⁴`, so the sum cannot overflow. Every
    /// operand is a `u32`, so a vector loop keeps 32-bit lanes except
    /// for the products.
    #[inline(always)]
    fn divmod_u32(self, x: u32) -> (u32, u32) {
        if self.d == 1 {
            return (x, 0);
        }
        let x64 = u64::from(x);
        let sum = x64 * u64::from(self.mh) + ((x64 * u64::from(self.ml)) >> 32);
        let q = (sum >> 32) as u32;
        (q, x.wrapping_sub(q.wrapping_mul(self.d as u32)))
    }

    /// `(x / d, x % d)` for `x, d < 2^32`.
    #[inline(always)]
    fn divmod32(self, x: u64) -> (u64, u64) {
        debug_assert!(x <= u64::from(u32::MAX) && self.d <= u64::from(u32::MAX));
        let (q, r) = self.divmod_u32(x as u32);
        (q.into(), r.into())
    }

    /// `x % d` for `x, d < 2^32`.
    #[inline(always)]
    fn rem32(self, x: u64) -> u64 {
        self.divmod32(x).1
    }

    /// `out[k] = xs[k] mod d` for `u32` words and `d < 2^32`: one
    /// counted loop over the split form, which vectorises, run at the
    /// host's widest vector tier ([`Reduce32`]).
    ///
    /// # Panics
    /// If `out` and `xs` differ in length.
    #[inline]
    pub(crate) fn reduce32(self, xs: &[u32], out: &mut [u32]) {
        multiversion::run(Reduce32 {
            disks: self,
            xs,
            out,
        });
    }

    /// [`Self::rem`] at word width `W`.
    #[inline(always)]
    fn rem_w<W: Word>(self, x: u64) -> u64 {
        if W::NARROW {
            self.rem32(x)
        } else {
            self.rem(x)
        }
    }

    /// The logical disk of a stored `X_j` when `d = N_j`.
    #[inline(always)]
    pub(crate) fn disk<W: Word>(self, x: W) -> DiskIndex {
        DiskIndex(self.rem_w::<W>(x.widen()) as u32)
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

/// [`MagicDivisor::reduce32`]'s loop, compiled once per vector tier.
pub(crate) struct Reduce32<'a> {
    pub(crate) disks: MagicDivisor,
    pub(crate) xs: &'a [u32],
    pub(crate) out: &'a mut [u32],
}

impl Kernel for Reduce32<'_> {
    type Output = ();

    #[inline(always)]
    fn apply(self) {
        let Reduce32 { disks, xs, out } = self;
        assert_eq!(xs.len(), out.len(), "one remainder per word");
        for (r, &x) in out.iter_mut().zip(xs) {
            *r = disks.divmod_u32(x).1;
        }
    }
}

/// One compiled `REMAP` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// `N_{j-1}` with its reciprocal.
    n_prev: MagicDivisor,
    /// `N_j` with its reciprocal (additions draw `t` with it; removals
    /// reduce a moved block's new value with it).
    n_new: MagicDivisor,
    /// Offset of this step's dense renumber table in
    /// [`RemapPipeline::tables`], or [`ADDITION`].
    table_off: usize,
}

/// One addition step (Eq. 5) over one chunk of narrow words in
/// [`RemapPipeline::step_words`], without branches, compiled once per
/// vector tier: each word remapped in place, `from[k]` its disk before
/// the step and `to[k]` its disk after it, or [`STAYED`] if it kept its
/// disk. Returns the OR of the new values.
struct AddChunk<'a> {
    /// `N_{j-1}` and `N_j` with their reciprocals.
    np: MagicDivisor,
    nn: MagicDivisor,
    xs: &'a mut [u32],
    from: &'a mut [u32],
    to: &'a mut [u32],
}

impl Kernel for AddChunk<'_> {
    type Output = u32;

    #[inline(always)]
    fn apply(self) -> u32 {
        let AddChunk {
            np,
            nn,
            xs,
            from,
            to,
        } = self;
        let n_prev = np.d as u32;
        let mut seen = 0;
        // Fresh draw t = q mod N_j; t < N_{j-1} keeps disk r, and
        // (q/N_j)·N_j + r = q - t + r needs no extra division.
        for (x, (from, to)) in xs.iter_mut().zip(from.iter_mut().zip(to.iter_mut())) {
            let (q, r) = np.divmod_u32(*x);
            let t = nn.divmod_u32(q).1;
            let stays = t < n_prev;
            let v = if stays { q - t + r } else { q };
            *from = r;
            *to = if stays { STAYED } else { t };
            seen |= v;
            *x = v;
        }
        seen
    }
}

/// The division of a removal step (Eq. 3) over one chunk of narrow
/// words in [`RemapPipeline::step_words`], compiled once per vector
/// tier: each word replaced by its quotient by `d`, and its remainder
/// stored in `rems`.
struct DivChunk<'a> {
    d: MagicDivisor,
    xs: &'a mut [u32],
    rems: &'a mut [u32],
}

impl Kernel for DivChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn apply(self) {
        for (x, rem) in self.xs.iter_mut().zip(self.rems.iter_mut()) {
            (*x, *rem) = self.d.divmod_u32(*x);
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
    pub fn step(&self, i: usize, x: u64) -> (u64, bool) {
        let (mut xs, mut moved) = ([x], false);
        self.step_words(i, &mut xs, u64::MAX, |_, _, _| moved = true);
        (xs[0], moved)
    }

    /// `X_j`: folds `x0` through every compiled step.
    pub fn fold(&self, x0: u64) -> u64 {
        let mut xs = [x0];
        self.fold_words(0, &mut xs, u64::MAX);
        xs[0]
    }

    /// Folds a whole batch of `X_0` values to `X_j` in place, at either
    /// word width.
    ///
    /// Unlike mapping [`RemapPipeline::fold`] over the slice (one block
    /// at a time through all steps, each step waiting on the last), this
    /// walks **step-outer, block-inner**: every block in the batch is
    /// independent within a step, so the per-block multiply chains
    /// overlap in the CPU pipeline and the step's constants (divisor,
    /// reciprocal, renumber table) stay in registers/L1 for the whole
    /// inner loop. This is the engine's bulk path — the throughput win
    /// the scalar fold cannot reach latency-bound. `u32` words reduce by
    /// the split 32-bit reciprocal.
    pub fn fold_batch<W: Word>(&self, xs: &mut [W]) {
        self.fold_words(0, xs, W::MAX);
    }

    /// Folds `xs` (values at epoch `from`) through steps `from..epoch()`
    /// in place, step-outer.
    pub(crate) fn fold_words<W: Word>(&self, from: usize, xs: &mut [W], max: u64) {
        for i in from..self.epoch() {
            self.step_words(i, xs, max, |_, _, _| {});
        }
    }

    /// Applies compiled step `i` (`REMAP_{i+1}`) to every word of `xs` in
    /// place, calling `moved(k, from, to)` in block order for each block
    /// `k` that changed disks. Both disks fall out of the step's own
    /// division: `from` is its remainder `r`, and a moved block's new
    /// value is its quotient `q`, so `to = q mod N_{i+1}`.
    ///
    /// Narrow words run in two phases per chunk of [`STEP_CHUNK`], the
    /// first at the host's widest vector tier. An addition remaps the
    /// chunk without branches ([`AddChunk`]) and then reports the moved
    /// blocks (a fold that ignores moves compiles that scan away); a
    /// removal divides the chunk ([`DivChunk`]) and then renumbers it
    /// in a scalar pass, because a table lookup would vectorise only as
    /// a gather. Wide words take one scalar pass: their 128-bit
    /// reciprocal has no vector form.
    ///
    /// # Panics
    /// If a result exceeds `max` (`2^b - 1`, or the word's own maximum) —
    /// impossible for inputs at most `max`, as no step increases `X`.
    #[inline(always)]
    pub(crate) fn step_words<W: Word>(
        &self,
        i: usize,
        xs: &mut [W],
        max: u64,
        moved: impl FnMut(usize, DiskIndex, DiskIndex),
    ) {
        let step = &self.steps[i];
        // Eq. 3's dense table gives new(r) or the removed sentinel. r <
        // N_{j-1} always, so the slice is exactly N_{j-1} long and the
        // bounds check on a lookup never fires. Additions have none.
        let table = (step.table_off != ADDITION)
            .then(|| &self.tables[step.table_off..step.table_off + step.n_prev.d as usize]);
        let seen = if let Some(xs) = W::as_narrow(xs) {
            Self::step_narrow(step, table, xs, moved)
        } else {
            Self::step_wide(step, table, xs, moved)
        };
        // `max` is all ones (2^b - 1), so the OR exceeds it exactly
        // when some value does.
        assert!(seen <= max, "a REMAP step increased X past {max:#x}");
    }

    /// [`Self::step_words`] for `u32` words, chunk by chunk: the
    /// step's division at the host's widest vector tier, then a scalar
    /// pass for what depends on each block. Returns the OR of the new
    /// values.
    #[inline(always)]
    fn step_narrow(
        step: &Step,
        table: Option<&[u32]>,
        xs: &mut [u32],
        mut moved: impl FnMut(usize, DiskIndex, DiskIndex),
    ) -> u64 {
        let (np, nn) = (step.n_prev, step.n_new);
        let (mut from, mut to) = ([0u32; STEP_CHUNK], [0u32; STEP_CHUNK]);
        let mut seen = 0u64;
        for (c, xs) in xs.chunks_mut(STEP_CHUNK).enumerate() {
            let block = |k: usize| c * STEP_CHUNK + k;
            let (from, to) = (&mut from[..xs.len()], &mut to[..xs.len()]);
            match table {
                None => {
                    let kernel = AddChunk {
                        np,
                        nn,
                        xs,
                        from,
                        to,
                    };
                    seen |= u64::from(multiversion::run(kernel));
                    for (k, (&from, &to)) in from.iter().zip(to.iter()).enumerate() {
                        if to != STAYED {
                            moved(block(k), DiskIndex(from), DiskIndex(to));
                        }
                    }
                }
                Some(table) => {
                    let rems = &mut *from;
                    multiversion::run(DivChunk {
                        d: np,
                        xs: &mut *xs,
                        rems: &mut *rems,
                    });
                    for (k, (x, &r)) in xs.iter_mut().zip(rems.iter()).enumerate() {
                        let q = *x;
                        let m = table[r as usize];
                        let v = if m == RemovedSet::REMOVED {
                            moved(block(k), DiskIndex(r), nn.disk(q));
                            u64::from(q)
                        } else {
                            u64::from(q) * nn.d + u64::from(m)
                        };
                        seen |= v;
                        *x = v as u32;
                    }
                }
            }
        }
        seen
    }

    /// [`Self::step_words`] for `u64` words: one scalar pass, as the
    /// 128-bit reciprocal has no vector form. Returns the OR of the new
    /// values.
    #[inline(always)]
    fn step_wide<W: Word>(
        step: &Step,
        table: Option<&[u32]>,
        xs: &mut [W],
        mut moved: impl FnMut(usize, DiskIndex, DiskIndex),
    ) -> u64 {
        let (np, nn) = (step.n_prev, step.n_new);
        let mut seen = 0u64;
        for (k, x) in xs.iter_mut().enumerate() {
            let (q, r) = np.divmod(x.widen());
            let v = match table {
                // Eq. 5: fresh draw t = q mod N_j; t < N_{j-1} keeps
                // disk r, and (q/N_j)·N_j + r = q - t + r.
                None => {
                    let t = nn.rem(q);
                    if t < np.d {
                        q - t + r
                    } else {
                        moved(k, DiskIndex(r as u32), DiskIndex(t as u32));
                        q
                    }
                }
                Some(table) => {
                    let m = table[r as usize];
                    if m == RemovedSet::REMOVED {
                        moved(k, DiskIndex(r as u32), DiskIndex(nn.rem(q) as u32));
                        q
                    } else {
                        q * nn.d + u64::from(m)
                    }
                }
            };
            seen |= v;
            *x = W::narrow(v);
        }
        seen
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{locate, x_at_current_epoch};
    use crate::ops::ScalingOp;
    use proptest::prelude::*;
    use scaddar_prng::multiversion::{run_at, Tier};

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

    /// Divisors of every shape the engine meets: small, powers of two,
    /// uniform up to `u32::MAX`, and `u32::MAX` itself.
    fn divisors() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..64,
            (0u32..32).prop_map(|k| 1u64 << k),
            1u64..(1 << 32),
            Just(u64::from(u32::MAX)),
        ]
    }

    /// Every vector tier this host supports.
    fn tiers() -> impl Iterator<Item = Tier> {
        Tier::ALL.into_iter().filter(|t| t.supported())
    }

    proptest! {
        /// The split 32-bit reciprocal is exact for every `x, d < 2^32`:
        /// at a random `x` and at the boundaries `0`, `d - 1`, `d`,
        /// `k·d - 1` (for the multiple nearest `x` and the largest below
        /// `2^32`), and `2^32 - 1`; scalar, and as the chunk reduction
        /// at every vector tier.
        #[test]
        fn prop_narrow_reciprocal_matches_hardware(d in divisors(), x in 0u64..(1 << 32)) {
            let m = MagicDivisor::new(d);
            let top = u64::from(u32::MAX);
            let near = (x / d).max(1) * d;
            let last = top / d * d;
            let edges = [x, 0, d - 1, d, near - 1, near, last - 1, last, top];
            for x in edges {
                prop_assert_eq!(m.divmod32(x), (x / d, x % d), "x={} d={}", x, d);
                prop_assert_eq!(m.rem32(x), x % d, "x={} d={}", x, d);
                prop_assert_eq!(m.divmod(x), (x / d, x % d), "x={} d={}", x, d);
            }
            let words: Vec<u32> = edges.iter().map(|&x| x as u32).collect();
            let expected: Vec<u32> = words.iter().map(|&x| x % d as u32).collect();
            for tier in tiers() {
                let mut out = vec![u32::MAX; words.len()];
                run_at(tier, Reduce32 { disks: m, xs: &words, out: &mut out });
                prop_assert_eq!(&out, &expected, "{:?} d={}", tier, d);
            }
        }

        /// No `REMAP` step increases `x`, over random logs and
        /// full-range `u64` inputs (and small ones, where `q` is 0 and a
        /// step has no slack): what lets a `b`-bit `X_0` keep every
        /// later `X_j` in `b` bits. The batch fold at both word widths
        /// agrees with the scalar fold.
        #[test]
        fn prop_a_step_never_increases_x(
            initial in 1u32..24,
            raw in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..12),
            xs in proptest::collection::vec(prop_oneof![any::<u64>(), 0u64..4096], 1..24),
        ) {
            let mut log = ScalingLog::new(initial).unwrap();
            for (add, pick) in raw {
                let n = log.current_disks();
                let op = if add || n == 1 {
                    ScalingOp::Add { count: 1 + (pick % 4) as u32 }
                } else {
                    let victims = (pick % u64::from(n)) as u32;
                    let mut disks: Vec<u32> = (0..n)
                        .filter(|d| (pick >> (d % 64)) & 1 == 1)
                        .take(victims.max(1) as usize)
                        .collect();
                    if disks.is_empty() || disks.len() as u32 == n {
                        disks = vec![victims];
                    }
                    ScalingOp::Remove { disks }
                };
                log.push(&op).unwrap();
            }
            let pipe = RemapPipeline::compile(&log);
            for &x0 in &xs {
                let mut x = x0;
                for i in 0..pipe.epoch() {
                    let next = pipe.step(i, x).0;
                    prop_assert!(next <= x, "step {} raised {} to {}", i, x, next);
                    x = next;
                }
            }
            let mut wide = xs.clone();
            pipe.fold_batch(&mut wide);
            let scalar: Vec<u64> = xs.iter().map(|&x| pipe.fold(x)).collect();
            prop_assert_eq!(&wide, &scalar);
            let mut narrow: Vec<u32> = xs.iter().map(|&x| x as u32).collect();
            pipe.fold_batch(&mut narrow);
            let scalar: Vec<u32> = xs.iter().map(|&x| pipe.fold(u64::from(x as u32)) as u32).collect();
            prop_assert_eq!(narrow, scalar);
        }
    }

    #[test]
    fn every_tier_reduces_what_the_baseline_reduces() {
        // Long enough for every tier's vector body and scalar tail, at
        // divisors of every shape up to u32::MAX.
        let words: Vec<u32> = (0..4099u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i >> 3))
            .chain([0, 1, u32::MAX - 1, u32::MAX])
            .collect();
        for d in [1u32, 2, 3, 7, 8, 64, 97, 1 << 20, u32::MAX] {
            let m = MagicDivisor::new(u64::from(d));
            let mut base = vec![0u32; words.len()];
            run_at(
                Tier::Baseline,
                Reduce32 {
                    disks: m,
                    xs: &words,
                    out: &mut base,
                },
            );
            let hardware: Vec<u32> = words.iter().map(|&x| x % d).collect();
            assert_eq!(base, hardware, "baseline d={d}");
            for tier in tiers() {
                let mut out = vec![0u32; words.len()];
                run_at(
                    tier,
                    Reduce32 {
                        disks: m,
                        xs: &words,
                        out: &mut out,
                    },
                );
                assert_eq!(out, base, "{tier:?} d={d}");
            }
        }
    }

    #[test]
    fn every_tier_steps_what_the_baseline_steps() {
        let words: Vec<u32> = (0..1024u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i >> 3))
            .chain([0, 1, u32::MAX - 1, u32::MAX])
            .take(STEP_CHUNK)
            .collect();
        let n = words.len();
        for (before, after) in [
            (1u64, 2u64),
            (4, 5),
            (8, 11),
            (7, 9),
            (u64::from(u32::MAX) - 2, u64::from(u32::MAX)),
        ] {
            let (np, nn) = (MagicDivisor::new(before), MagicDivisor::new(after));
            let add = |tier| {
                let (mut xs, mut from, mut to) = (words.clone(), vec![0; n], vec![0; n]);
                let seen = run_at(
                    tier,
                    AddChunk {
                        np,
                        nn,
                        xs: &mut xs,
                        from: &mut from,
                        to: &mut to,
                    },
                );
                (xs, from, to, seen)
            };
            let div = |tier| {
                let (mut xs, mut rems) = (words.clone(), vec![0; n]);
                run_at(
                    tier,
                    DivChunk {
                        d: np,
                        xs: &mut xs,
                        rems: &mut rems,
                    },
                );
                (xs, rems)
            };
            let (base_add, base_div) = (add(Tier::Baseline), div(Tier::Baseline));
            let hardware: Vec<u32> = words.iter().map(|&x| x / before as u32).collect();
            assert_eq!(base_div.0, hardware, "quotients by {before}");
            for tier in tiers() {
                assert_eq!(add(tier), base_add, "{tier:?} {before} -> {after}");
                assert_eq!(div(tier), base_div, "{tier:?} / {before}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "increased X")]
    fn narrowing_check_refuses_values_past_the_bound() {
        // An input above the bound can only come out above it.
        let pipe = RemapPipeline::compile(&log_with(3, &[ScalingOp::add_one()]));
        pipe.fold_words(0, &mut [u32::MAX], u64::from(u16::MAX));
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
    #[should_panic(expected = "not a continuation")]
    fn extend_from_rejects_divergent_log() {
        let mut pipe = RemapPipeline::compile(&log_with(4, &[ScalingOp::add_one()]));
        pipe.extend_from(&log_with(5, &[ScalingOp::add_one()]));
    }
}
