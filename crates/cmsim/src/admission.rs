//! Admission control: how many concurrent streams the server can promise
//! to serve.
//!
//! With random placement there are no deterministic per-disk guarantees —
//! service quality is statistical (§2: "random placement techniques are
//! modeled statistically"). The server admits streams while expected
//! per-disk demand stays below [`TARGET_UTILIZATION`] of disk bandwidth
//! (headroom for the binomial fluctuation of which disks a round's
//! requests hit, and for redistribution traffic).

/// Fraction of total disk bandwidth admission will commit to streams.
pub const TARGET_UTILIZATION: f64 = 0.8;

/// Maximum streams admitted for an array of `disks` disks with
/// `bandwidth` blocks/round each.
pub fn capacity(disks: u32, bandwidth: u32) -> u64 {
    let total = u64::from(disks) * u64::from(bandwidth);
    (total as f64 * TARGET_UTILIZATION).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_disks() {
        assert_eq!(capacity(4, 32), 102);
        assert_eq!(capacity(8, 32), 204);
        assert_eq!(capacity(1, 2), 1);
    }
}
