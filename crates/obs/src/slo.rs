//! Multi-window SLO burn-rate tracking.
//!
//! An SLO ("99.9% of locates succeed", "99.9% of locates finish under
//! 100 µs") defines an *error budget*: the fraction of requests allowed
//! to be bad. The **burn rate** is how fast the fleet is spending that
//! budget — `observed bad fraction / budgeted bad fraction` — so burn
//! 1.0 spends exactly the budget over the window and burn 10 exhausts a
//! 30-day budget in 3 days. Following the multi-window pattern
//! (Google SRE workbook), each objective is evaluated over a *short*
//! (5 m) and a *long* (1 h) window: the long window proves the problem
//! is sustained, the short window proves it is still happening, and an
//! alert should fire only when **both** burn hot. [`WindowBurn::gating`]
//! returns `min(short, long)` so one hysteresis rule threshold on the
//! gating value implements that AND.
//!
//! Time comes from the injected [`Clock`]: a harness driving a
//! [`VirtualClock`](crate::VirtualClock) gets byte-identical burn-rate
//! sequences per seed. Counts live in a coarse ring of fixed-width time
//! buckets ([`BUCKET_NS`], 10 s), pruned past the long window, so
//! memory is bounded by `LONG_WINDOW_NS / BUCKET_NS` regardless of
//! traffic.
//!
//! This module is deliberately self-contained (the monitor crate
//! depends on obs, not the reverse): it computes burn rates; the
//! bridge that runs them through the hysteresis rule engine and emits
//! `HealthEvent`s lives in `scaddar-monitor`.

use crate::clock::Clock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Availability target: the fraction of requests that must succeed
/// (a 0.1% error budget).
pub const AVAILABILITY_TARGET: f64 = 0.999;
/// Latency target: the fraction of requests that must beat the
/// latency objective (a p999 objective).
pub const LATENCY_TARGET: f64 = 0.999;
/// Short ("still happening") window: 5 minutes.
pub const SHORT_WINDOW_NS: u64 = 5 * 60 * 1_000_000_000;
/// Long ("sustained") window: 1 hour.
pub const LONG_WINDOW_NS: u64 = 60 * 60 * 1_000_000_000;
/// Ring bucket width, the windows' resolution: 10 seconds.
pub const BUCKET_NS: u64 = 10 * 1_000_000_000;

/// One objective's burn rate over both windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowBurn {
    /// Burn over the short window.
    pub short: f64,
    /// Burn over the long window.
    pub long: f64,
}

impl WindowBurn {
    /// The multi-window gating value: `min(short, long)`. High only
    /// when the burn is both sustained (long) and ongoing (short) —
    /// threshold this, not the windows individually.
    pub fn gating(&self) -> f64 {
        self.short.min(self.long)
    }
}

/// Burn rates for both tracked objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRates {
    /// Availability (error-fraction) burn.
    pub availability: WindowBurn,
    /// Latency (slow-fraction past the objective) burn.
    pub latency: WindowBurn,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    start_ns: u64,
    total: u64,
    errors: u64,
    slow: u64,
}

/// Clock-driven request accounting for one service's SLOs; cheaply
/// clonable, clones share the ring (like [`Registry`]).
///
/// [`Registry`]: crate::registry::Registry
#[derive(Debug, Clone)]
pub struct SloTracker {
    clock: Arc<dyn Clock>,
    buckets: Arc<Mutex<VecDeque<Bucket>>>,
}

impl SloTracker {
    /// A tracker stamping buckets from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        SloTracker {
            clock,
            buckets: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Accounts a pre-aggregated batch of requests: `total` of them,
    /// `errors` that failed and `slow` that missed the latency
    /// objective — the federation path, where the aggregator feeds
    /// scrape-to-scrape counter deltas.
    pub fn record_batch(&self, total: u64, errors: u64, slow: u64) {
        if total == 0 && errors == 0 && slow == 0 {
            return;
        }
        let now = self.clock.now_ns();
        let start = now - now % BUCKET_NS;
        let mut ring = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        match ring.back_mut() {
            Some(back) if back.start_ns == start => {
                back.total += total;
                back.errors += errors;
                back.slow += slow;
            }
            _ => ring.push_back(Bucket {
                start_ns: start,
                total,
                errors,
                slow,
            }),
        }
        // Prune buckets wholly past the long window.
        let horizon = now.saturating_sub(LONG_WINDOW_NS);
        while ring
            .front()
            .is_some_and(|b| b.start_ns + BUCKET_NS <= horizon)
        {
            ring.pop_front();
        }
    }

    /// `(total, errors, slow)` over the trailing `window_ns`.
    fn window_counts(&self, now: u64, window_ns: u64) -> (u64, u64, u64) {
        let horizon = now.saturating_sub(window_ns);
        let ring = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let mut acc = (0u64, 0u64, 0u64);
        for b in ring.iter() {
            // Any overlap with the window counts (bucket resolution).
            if b.start_ns + BUCKET_NS > horizon {
                acc.0 += b.total;
                acc.1 += b.errors;
                acc.2 += b.slow;
            }
        }
        acc
    }

    fn burn(bad: u64, total: u64, target: f64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - target).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    /// Both objectives' burn rates over both windows, as of now.
    pub fn burn_rates(&self) -> BurnRates {
        let now = self.clock.now_ns();
        let per_window = |window_ns: u64| {
            let (total, errors, slow) = self.window_counts(now, window_ns);
            (
                Self::burn(errors, total, AVAILABILITY_TARGET),
                Self::burn(slow, total, LATENCY_TARGET),
            )
        };
        let (avail_short, lat_short) = per_window(SHORT_WINDOW_NS);
        let (avail_long, lat_long) = per_window(LONG_WINDOW_NS);
        BurnRates {
            availability: WindowBurn {
                short: avail_short,
                long: avail_long,
            },
            latency: WindowBurn {
                short: lat_short,
                long: lat_long,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    /// Requests still held in the ring, across every window.
    fn retained(tracker: &SloTracker) -> u64 {
        let ring = tracker.buckets.lock().unwrap();
        ring.iter().map(|b| b.total).sum()
    }

    fn fixture() -> (Arc<VirtualClock>, SloTracker) {
        let clock = Arc::new(VirtualClock::new());
        let tracker = SloTracker::new(clock.clone());
        (clock, tracker)
    }

    #[test]
    fn burn_is_bad_fraction_over_budget() {
        let (_clock, tracker) = fixture();
        // 1% errors against a 0.1% budget: burn 10 on both windows.
        for i in 0..1000 {
            tracker.record_batch(1, u64::from(i % 100 == 0), 0);
        }
        let burns = tracker.burn_rates();
        assert!((burns.availability.short - 10.0).abs() < 1e-6);
        assert!((burns.availability.long - 10.0).abs() < 1e-6);
        assert!((burns.availability.gating() - 10.0).abs() < 1e-6);
        // All requests were fast: zero latency burn.
        assert_eq!(burns.latency.gating(), 0.0);
    }

    #[test]
    fn latency_over_objective_burns_the_latency_budget() {
        let (_clock, tracker) = fixture();
        // 0.5% of traffic past the p999 objective.
        for i in 0..1000u64 {
            tracker.record_batch(1, 0, u64::from(i % 200 == 0));
        }
        let burns = tracker.burn_rates();
        assert!((burns.latency.short - 5.0).abs() < 1e-9);
        assert_eq!(burns.availability.gating(), 0.0);
    }

    #[test]
    fn empty_tracker_burns_nothing() {
        let (_clock, tracker) = fixture();
        let burns = tracker.burn_rates();
        assert_eq!(burns.availability.gating(), 0.0);
        assert_eq!(burns.latency.gating(), 0.0);
        assert_eq!(retained(&tracker), 0);
    }

    #[test]
    fn short_window_forgets_what_the_long_window_remembers() {
        let (clock, tracker) = fixture();
        // A burst of errors, then 10 minutes of clean traffic.
        tracker.record_batch(100, 100, 0);
        clock.advance(2 * SHORT_WINDOW_NS);
        tracker.record_batch(900, 0, 0);
        let burns = tracker.burn_rates();
        // Short window: clean. Long window: 10% errors → burn 100.
        assert_eq!(burns.availability.short, 0.0);
        assert!((burns.availability.long - 100.0).abs() < 1e-9);
        // The gating value (AND) stays quiet: not *still happening*.
        assert_eq!(burns.availability.gating(), 0.0);
    }

    #[test]
    fn buckets_prune_past_the_long_window() {
        let (clock, tracker) = fixture();
        tracker.record_batch(500, 500, 0);
        clock.advance(LONG_WINDOW_NS + 2 * BUCKET_NS);
        tracker.record_batch(1, 0, 0); // triggers pruning
        assert_eq!(retained(&tracker), 1, "old buckets dropped");
        let burns = tracker.burn_rates();
        assert_eq!(burns.availability.long, 0.0);
    }

    #[test]
    fn batch_and_individual_recording_agree() {
        let clock = Arc::new(VirtualClock::new());
        let a = SloTracker::new(clock.clone());
        let b = SloTracker::new(clock.clone());
        for i in 0..200 {
            a.record_batch(1, u64::from(i % 50 == 0), u64::from(i % 100 == 0));
        }
        b.record_batch(200, 4, 2);
        assert_eq!(a.burn_rates(), b.burn_rates());
        // Empty batches are no-ops (no phantom buckets).
        b.record_batch(0, 0, 0);
        assert_eq!(a.burn_rates(), b.burn_rates());
    }

    #[test]
    fn burn_sequences_are_deterministic_under_a_virtual_clock() {
        let run = || {
            let (clock, tracker) = fixture();
            let mut outputs = Vec::new();
            for step in 0..50u64 {
                // Requests past 100 µs are slow.
                let latency_ns = 50_000 + step * 3_000;
                tracker.record_batch(1, u64::from(step % 7 == 0), u64::from(latency_ns > 100_000));
                clock.advance(30_000_000_000);
                let burns = tracker.burn_rates();
                outputs.push(format!(
                    "{:.6}/{:.6}",
                    burns.availability.gating(),
                    burns.latency.gating()
                ));
            }
            outputs.join("\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clones_share_the_ring() {
        let (_clock, tracker) = fixture();
        let peer = tracker.clone();
        tracker.record_batch(1, 1, 0);
        peer.record_batch(1, 1, 0);
        assert_eq!(retained(&tracker), 2);
    }
}
