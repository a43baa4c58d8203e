//! Percentiles and the timing summary every reported timing carries.

/// Percentiles tried for the reported tail, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `q` among `n` samples. The
/// small slack keeps `0.9 * 100` at rank 90 despite rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// The highest of [`TAILS`] that leaves at least [`TAIL_BEYOND`]
/// samples beyond it among `n`, if any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|&q| n > 0 && n - rank(q, n) >= TAIL_BEYOND)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A timing as reported: median, the highest percentile with ten
/// samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(q, value)` of the reported tail percentile, when `n` allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: median(&sorted),
            tail: tail_quantile(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        })
    }

    /// One-line rendering: `p50 (p99=..., n=...)`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "{:.3} {unit} median (p{}={v:.3}, n={})",
                self.p50,
                q * 100.0,
                self.n
            ),
            None => format!("{:.3} {unit} median (n={})", self.p50, self.n),
        }
    }
}
