//! Fixed-range histograms with an ASCII rendering, used by experiment
//! binaries to show load distributions at a glance.

use std::fmt;

/// A histogram over `[lo, hi)` with equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo` or at/above `hi`.
    outliers: u64,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    /// If `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            outliers: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v < self.lo || v >= self.hi || v.is_nan() {
            self.outliers += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((v - self.lo) / width) as usize;
        // Floating-point edge: clamp (v just below hi can round up).
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Out-of-range sample count.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total recorded (including outliers).
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.outliers
    }

    /// Bounds of bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }
}

impl fmt::Display for Histogram {
    /// Renders rows like `[ 0.00,  0.25) ######## 812`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let width = (count * 40 / max) as usize;
            writeln!(f, "[{lo:9.3}, {hi:9.3}) {:<40} {count}", "#".repeat(width))?;
        }
        if self.outliers > 0 {
            writeln!(f, "outliers: {}", self.outliers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.999, 10.0, -0.1] {
            h.record(v);
        }
        assert_eq!(h.bins(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.outliers(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn bin_range_is_consistent() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 0.25));
        assert_eq!(h.bin_range(3), (0.75, 1.0));
    }

    #[test]
    fn nan_is_an_outlier() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.outliers(), 1);
    }

    #[test]
    fn display_renders_all_bins() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for v in [0.5, 1.5, 1.6, 2.5] {
            h.record(v);
        }
        let s = h.to_string();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
    }
}
