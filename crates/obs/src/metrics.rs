//! Lock-free metric primitives: counters, gauges, and log-linear
//! histograms.
//!
//! All recording paths are single relaxed atomic operations (a handful
//! for histograms) — safe to call from any thread, never blocking, and
//! cheap enough for hot paths. Handles are `Arc`-backed: cloning a
//! [`Counter`] clones the handle, not the value, so a subsystem can
//! cache its handles at construction and the registry still sees every
//! increment.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution exponent: each power-of-two octave is split
/// into `2^SUB_BITS` equal-width linear sub-buckets (HdrHistogram's
/// scheme), bounding quantile overshoot at `2^-SUB_BITS` ≈ 6.25%
/// relative error instead of the 2× a pure log2 histogram gives.
pub const SUB_BITS: usize = 4;

/// Linear sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Exponent of the histogram range's upper boundary: values at or
/// beyond `2^MAX_EXP` clamp into the top (unbounded) bucket.
/// `2^39` ns ≈ 9.2 minutes — far beyond any latency this stack records.
const MAX_EXP: usize = 39;

/// Number of histogram buckets: values `0..SUB_BUCKETS` get exact
/// unit-width buckets, each octave `[2^e, 2^(e+1))` for
/// `e in SUB_BITS..MAX_EXP` gets `SUB_BUCKETS` linear sub-buckets, and
/// one top bucket catches everything at or beyond `2^MAX_EXP`.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS + (MAX_EXP - SUB_BITS) * SUB_BUCKETS + 1;

/// A fingerprint of the histogram bucket grid: every parameter that
/// determines bucket boundaries, packed into one value. Two processes
/// with equal fingerprints bucket every sample identically, so their
/// histograms may be merged bucket-wise; unequal fingerprints mean a
/// merge would silently misattribute counts. Shards publish this as
/// the `obs_bucket_layout` gauge and the fleet aggregator refuses to
/// merge histogram series from a shard whose fingerprint differs
/// (see `Registry::absorb_checked`).
pub fn bucket_layout() -> u64 {
    ((SUB_BITS as u64) << 32) | ((MAX_EXP as u64) << 16) | HISTOGRAM_BUCKETS as u64
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one and returns the *previous* value — the idiom behind
    /// 1-in-N sampling (`if c.inc_and_get() & MASK == 0 { ... }`).
    #[inline]
    pub fn inc_and_get(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed)
    }

    /// [`Counter::inc_and_get`] without the atomic read-modify-write: a
    /// plain relaxed load + store pair, several times cheaper than the
    /// locked `fetch_add` on x86. Concurrent *writers* may lose
    /// increments, so this is for statistical hot-path counters with an
    /// effectively single writer (e.g. per-engine lookup counts);
    /// readers are unaffected. Exact counters use [`Counter::inc`].
    #[inline]
    pub fn inc_weak(&self) -> u64 {
        let prev = self.value.load(Ordering::Relaxed);
        self.value.store(prev.wrapping_add(1), Ordering::Relaxed);
        prev
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, log-linear histogram of `u64` samples
/// (HdrHistogram-style: log2 octaves, each split into
/// [`SUB_BUCKETS`] equal-width sub-buckets).
///
/// Recording is four relaxed atomic RMWs (bucket, count, sum, max) —
/// no locks, no allocation. Quantiles are estimated from the bucket
/// upper bounds and overshoot by at most `2^-SUB_BITS` ≈ 6.25% of the
/// true value — fine enough to certify a sub-100 µs tail, where a pure
/// log2 histogram could only answer "somewhere below 131072 ns". The
/// top bucket reports the exact recorded maximum, so outliers beyond
/// the bucket range are clamped but never lost.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

/// The bucket a value lands in. Values below [`SUB_BUCKETS`] index
/// exact unit buckets; larger values index octave `e = floor(log2 v)`
/// at the sub-bucket given by the [`SUB_BITS`] bits right below the
/// leading one; values at or past `2^MAX_EXP` clamp to the top bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()) as usize;
    if e >= MAX_EXP {
        return HISTOGRAM_BUCKETS - 1;
    }
    let sub = ((v >> (e - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + (e - SUB_BITS) * SUB_BUCKETS + sub
}

/// Inclusive upper bound of bucket `i` (the top bucket is unbounded).
fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        let j = i - SUB_BUCKETS;
        let e = SUB_BITS + j / SUB_BUCKETS;
        let sub = (j % SUB_BUCKETS) as u64;
        let width = 1u64 << (e - SUB_BITS);
        (1u64 << e) + (sub + 1) * width - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Merges a remote snapshot into this histogram bucket-wise: every
    /// bucket count, the total count, and the sum are added; the max is
    /// raised if the snapshot's is larger. This is the federation
    /// primitive — merging buckets keeps quantile error bounded by one
    /// sub-bucket width, whereas averaging per-shard *percentiles*
    /// (the classic fleet-dashboard mistake) has no error bound at all.
    pub fn merge_from(&self, snap: &HistogramSnapshot) {
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n > 0 {
                self.inner.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        self.inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.inner.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A point-in-time copy of the whole histogram (the unit quantile
    /// math and renderers work over, so every field is from one pass).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed)),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
            max: self.inner.max.load(Ordering::Relaxed),
        }
    }

    /// Estimated p50; `None` when empty.
    pub fn p50(&self) -> Option<u64> {
        self.snapshot().quantile(0.50)
    }

    /// Estimated p95; `None` when empty.
    pub fn p95(&self) -> Option<u64> {
        self.snapshot().quantile(0.95)
    }

    /// Estimated p99; `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.snapshot().quantile(0.99)
    }

    /// Largest recorded sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        let snap = self.snapshot();
        (snap.count > 0).then_some(snap.max)
    }
}

/// An owned, consistent copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (non-cumulative).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping only past `u64::MAX` total).
    pub sum: u64,
    /// Largest sample (0 when empty — check `count`).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of
    /// the bucket containing the rank-`ceil(q·count)` sample. The top
    /// bucket reports the recorded maximum (its bound is infinite).
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i >= HISTOGRAM_BUCKETS - 1 {
                    self.max
                } else {
                    bucket_upper_bound(i).min(self.max)
                });
            }
        }
        Some(self.max) // unreachable unless counters raced; stay total
    }

    /// Mean sample; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges `other` into this snapshot bucket-wise (the owned-value
    /// twin of [`Histogram::merge_from`], for aggregators that fold
    /// many shard snapshots before ever touching a live histogram).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded in buckets whose *upper bound*
    /// exceeds `threshold` — an upper estimate of "samples slower than
    /// threshold", overcounting by at most the one bucket straddling
    /// it. The SLO latency burn-rate feeds on this.
    pub fn count_over(&self, threshold: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(i, _)| bucket_upper_bound(i) > threshold)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Cumulative `(upper_bound, count)` pairs up to and including the
    /// highest non-empty bucket — the Prometheus exposition shape (the
    /// caller appends the `+Inf` bucket with the total count).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&n| n > 0) {
            Some(i) => i.min(HISTOGRAM_BUCKETS - 2),
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut cum = 0u64;
        for i in 0..=last {
            cum += self.buckets[i];
            out.push((bucket_upper_bound(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.inc_and_get(), 5);
        assert_eq!(c.get(), 6);
        assert_eq!(c.inc_weak(), 6, "weak increment still returns previous");
        assert_eq!(c.get(), 7);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 8, "clones share the cell");

        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // The first octave's sub-buckets are still unit width, so
        // exactness actually extends to 2·SUB_BUCKETS − 1.
        for v in SUB_BUCKETS as u64..(2 * SUB_BUCKETS) as u64 {
            assert_eq!(bucket_upper_bound(bucket_of(v)), v);
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Every finite bucket's upper bound maps back to that bucket,
        // and the next value starts the next bucket — no gaps, no
        // overlaps, strictly monotone bounds.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_of(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_of(ub + 1), i + 1, "first value past bucket {i}");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < ub);
            }
        }
        // Range cap: the last finite bucket ends at 2^39 − 1.
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 2), (1 << 39) - 1);
        assert_eq!(bucket_of(1 << 39), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantile_overshoot_is_bounded_by_sub_bucket_width() {
        // Log-linear contract: the reported bound never undershoots and
        // overshoots by less than one sub-bucket (1/16 of the value).
        let mut v: u64 = 1;
        while v < (1 << 39) {
            for sample in [v, v + v / 3, v + v / 2] {
                let ub = bucket_upper_bound(bucket_of(sample));
                assert!(ub >= sample, "undershoot at {sample}");
                assert!(
                    ub - sample <= sample / SUB_BUCKETS as u64 + 1,
                    "overshoot {ub} at {sample}"
                );
            }
            v = v.wrapping_mul(5).wrapping_add(13) % (1 << 39) + v; // irregular sweep
        }
    }

    #[test]
    fn sub_bucket_resolution_certifies_a_sub_100us_tail() {
        // A pure log2 histogram reports any 66..131 µs tail as
        // "131071 ns"; log-linear sub-buckets must keep a 95 µs tail
        // visibly below the 100 µs budget.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(95_000);
        }
        let p999 = h.snapshot().quantile(0.999).unwrap();
        assert!((95_000..100_000).contains(&p999), "p999 = {p999}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.snapshot().mean(), None);
        assert!(h.snapshot().cumulative_buckets().is_empty());
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(37);
        assert_eq!(h.p50(), Some(37));
        assert_eq!(h.p95(), Some(37));
        assert_eq!(h.p99(), Some(37));
        assert_eq!(h.max(), Some(37));
        assert_eq!(h.snapshot().mean(), Some(37.0));
    }

    #[test]
    fn values_beyond_top_bucket_clamp_to_max() {
        let h = Histogram::new();
        // Both land in the top bucket; quantiles there report the true
        // recorded max, not a bucket bound.
        h.record(1 << 39);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.p50(), Some(u64::MAX));
        assert_eq!(h.p99(), Some(u64::MAX));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Log-linear buckets: answers are sub-bucket upper bounds, so
        // p50 of 1..=1000 (true 500) reports 511 (sub-bucket
        // [496, 511]) and p95 (true 950) reports 959 (sub-bucket
        // [928, 959]) — within 1/16, not within 2×.
        assert_eq!(h.p50(), Some(511));
        assert_eq!(h.p95(), Some(959));
        assert_eq!(h.max(), Some(1000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        // Cumulative buckets end at the last non-empty one and sum up.
        let cum = snap.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 1000);
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
    }

    #[test]
    fn zero_samples_count_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().buckets[0], 2);
        assert_eq!(h.p50(), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn merge_from_adds_bucket_wise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 90, 4000] {
            a.record(v);
        }
        for v in [3u64, 512, 1 << 20] {
            b.record(v);
        }
        a.merge_from(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 3 + 90 + 4000 + 3 + 512 + (1 << 20));
        assert_eq!(snap.max, 1 << 20);
        assert_eq!(snap.buckets[bucket_of(3)], 2, "shared bucket sums");
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
        // Merging an empty snapshot is a no-op.
        a.merge_from(&Histogram::new().snapshot());
        assert_eq!(a.snapshot(), snap);
    }

    #[test]
    fn snapshot_merge_matches_live_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..200u64 {
            a.record(v * 7);
            b.record(v * 13 + 1);
        }
        let mut folded = a.snapshot();
        folded.merge(&b.snapshot());
        a.merge_from(&b.snapshot());
        assert_eq!(folded, a.snapshot());
    }

    #[test]
    fn count_over_bounds_the_slow_sample_count() {
        let h = Histogram::new();
        for v in [10u64, 50_000, 99_000, 150_000, 200_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count_over(1 << 40), 0);
        assert_eq!(snap.count_over(0), 5);
        // True count over 100 µs is 2; the bucket straddling the
        // threshold ([98304, 102399], holding the 99 µs sample) may
        // overcount by its own occupancy — an upper estimate, never an
        // undercount.
        assert_eq!(snap.count_over(100_000), 3);
        // A threshold on an exact bucket boundary is exact.
        assert_eq!(snap.count_over(102_399), 2);
    }

    proptest::proptest! {
        /// Satellite: merge-then-percentile equals the percentile of the
        /// concatenated sample stream, within one sub-bucket width —
        /// the soundness claim behind bucket-wise federation.
        #[test]
        fn merged_quantiles_match_concatenated_samples(
            xs in proptest::collection::vec(0u64..1_000_000, 1..200),
            ys in proptest::collection::vec(0u64..1_000_000, 1..200),
            qs in proptest::collection::vec(0.01f64..1.0, 1..6),
        ) {
            let a = Histogram::new();
            let b = Histogram::new();
            let all = Histogram::new();
            for &v in &xs { a.record(v); all.record(v); }
            for &v in &ys { b.record(v); all.record(v); }
            let merged = {
                let m = Histogram::new();
                m.merge_from(&a.snapshot());
                m.merge_from(&b.snapshot());
                m.snapshot()
            };
            let reference = all.snapshot();
            proptest::prop_assert_eq!(&merged, &reference,
                "bucket-wise merge must equal recording the concatenation");
            for &q in &qs {
                let mq = merged.quantile(q);
                let rq = reference.quantile(q);
                proptest::prop_assert_eq!(mq, rq);
                // And against the exact sample quantile: bounded by one
                // sub-bucket (1/16 relative) overshoot, never undershoot.
                let mut sorted: Vec<u64> =
                    xs.iter().chain(ys.iter()).copied().collect();
                sorted.sort_unstable();
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let est = mq.unwrap();
                proptest::prop_assert!(est >= exact);
                proptest::prop_assert!(
                    est - exact <= exact / SUB_BUCKETS as u64 + 1,
                    "estimate {} vs exact {} at q={}", est, exact, q
                );
            }
        }
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        // Hammered from scoped threads,
        // every sample must land — relaxed atomics lose nothing.
        let h = Histogram::new();
        let c = Counter::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                        c.inc();
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        let total: u64 = (0..THREADS * PER_THREAD).sum();
        assert_eq!(snap.sum, total);
        assert_eq!(snap.max, THREADS * PER_THREAD - 1);
    }
}
