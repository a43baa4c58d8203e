//! Admission control: how many concurrent streams the server can promise
//! to serve.
//!
//! With random placement there are no deterministic per-disk guarantees —
//! service quality is statistical (§2: "random placement techniques are
//! modeled statistically"). The controller admits streams while
//! expected per-disk demand stays below a target utilization of disk
//! bandwidth (headroom for the binomial fluctuation of which disks a
//! round's requests hit, and for redistribution traffic).

/// Statistical admission controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionController {
    /// Fraction of total disk bandwidth the controller will commit
    /// (0..=1).
    pub target_utilization: f64,
}

impl AdmissionController {
    /// A controller committing up to `target_utilization`.
    pub fn new(target_utilization: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_utilization),
            "utilization must be a fraction"
        );
        AdmissionController { target_utilization }
    }

    /// Maximum streams admitted for an array of `disks` disks with
    /// `bandwidth` blocks/round each.
    pub fn capacity(&self, disks: u32, bandwidth: u32) -> u64 {
        let total = u64::from(disks) * u64::from(bandwidth);
        (total as f64 * self.target_utilization).floor() as u64
    }

    /// Admit another stream given the current active count?
    pub fn admit(&self, active: u64, disks: u32, bandwidth: u32) -> bool {
        active < self.capacity(disks, bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_disks() {
        let c = AdmissionController::new(0.75);
        assert_eq!(c.capacity(4, 32), 96);
        assert_eq!(c.capacity(8, 32), 192);
        assert!(c.admit(95, 4, 32));
        assert!(!c.admit(96, 4, 32));
    }

    #[test]
    fn full_utilization_uses_everything() {
        let c = AdmissionController::new(1.0);
        assert_eq!(c.capacity(2, 10), 20);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_over_unity() {
        AdmissionController::new(1.5);
    }
}
