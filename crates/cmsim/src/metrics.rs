//! Service metrics: what "uninterrupted service during scaling" means,
//! measured.
//!
//! The paper's motivation (§1) is qualitative — no downtime, no broken
//! streams during maintenance. The simulator makes it measurable: every
//! round records demand, service, *hiccups* (a playing stream whose block
//! could not be delivered this round), and redistribution traffic.
//!
//! Per-round records are kept in a bounded retention window (a ring
//! buffer of the last [`DEFAULT_RETENTION`] rounds, the window every
//! server uses) so week-long simulated runs hold steady-state memory;
//! the run-level totals and drain intervals are maintained as
//! saturating accumulators at push time and therefore survive
//! eviction. With a
//! [`crate::stats::ServerStats`] attached, every push also
//! mirrors into the shared metric registry, making the registry a live
//! view of the same totals.

use crate::stats::{gauge, ServerStats};
use std::collections::VecDeque;
use std::sync::Arc;

/// The retention window: enough for every experiment in the repo while
/// bounding a long-running simulation's memory.
pub const DEFAULT_RETENTION: usize = 4096;

/// One round's aggregate record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Blocks requested by playing streams.
    pub requested: u64,
    /// Blocks delivered on time.
    pub served: u64,
    /// Requests that missed their round (stream stalls).
    pub hiccups: u64,
    /// Requests served from a mirror because the primary disk has
    /// failed (§6 fault tolerance in action).
    pub recovered: u64,
    /// Redistribution block-moves completed this round.
    pub moves: u64,
    /// Redistribution moves still pending after this round.
    pub backlog: u64,
    /// Active streams at the end of the round.
    pub active_streams: u64,
}

/// Accumulated simulation metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    rounds: VecDeque<RoundRecord>,
    total_rounds: u64,
    total_requested: u64,
    total_served: u64,
    total_hiccups: u64,
    total_recovered: u64,
    total_moves: u64,
    evicted: u64,
    /// Completed drain intervals, in order of completion.
    drains: Vec<usize>,
    /// Round index at which the currently-draining backlog appeared.
    drain_started: Option<u64>,
    stats: Option<Arc<ServerStats>>,
}

impl Metrics {
    /// An empty metrics sink retaining the last [`DEFAULT_RETENTION`]
    /// round records. Totals and drain intervals are unaffected by the
    /// window.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Mirrors every subsequent push into `stats`' registry handles.
    pub fn attach_stats(&mut self, stats: Arc<ServerStats>) {
        self.stats = Some(stats);
    }

    /// Records one round.
    pub fn push(&mut self, record: RoundRecord) {
        // Accumulate first: totals must not depend on the window.
        self.total_requested = self.total_requested.saturating_add(record.requested);
        self.total_served = self.total_served.saturating_add(record.served);
        self.total_hiccups = self.total_hiccups.saturating_add(record.hiccups);
        self.total_recovered = self.total_recovered.saturating_add(record.recovered);
        self.total_moves = self.total_moves.saturating_add(record.moves);
        // Drain-interval tracking: an interval opens at the first round
        // that starts with a backlog (the moves it executed plus what it
        // left) and closes with the first round that ends without one,
        // both counted. A backlog reappearing later (another scale op)
        // opens a new one.
        if self.drain_started.is_none() && record.backlog.saturating_add(record.moves) > 0 {
            self.drain_started = Some(self.total_rounds);
        }
        if record.backlog == 0 {
            if let Some(start) = self.drain_started.take() {
                self.drains.push((self.total_rounds - start + 1) as usize);
            }
        }
        self.total_rounds += 1;
        if self.rounds.len() == DEFAULT_RETENTION {
            self.rounds.pop_front();
            self.evicted += 1;
        }
        self.rounds.push_back(record);
        if let Some(stats) = &self.stats {
            stats.rounds.inc();
            stats.requested.add(record.requested);
            stats.served.add(record.served);
            stats.hiccups.add(record.hiccups);
            stats.recovered.add(record.recovered);
            stats.moves.add(record.moves);
            stats.backlog.set(gauge(record.backlog));
            stats.active_streams.set(gauge(record.active_streams));
            if self.evicted > stats.rounds_evicted.get() {
                stats.rounds_evicted.inc();
            }
        }
    }

    /// The retained round records, oldest first (at most the
    /// [`DEFAULT_RETENTION`] window; earlier rounds have been evicted
    /// but remain in the totals).
    pub fn rounds(&self) -> &VecDeque<RoundRecord> {
        &self.rounds
    }

    /// Total rounds simulated — including rounds already evicted from
    /// the retention window.
    pub fn len(&self) -> usize {
        self.total_rounds as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_rounds == 0
    }

    /// Round records evicted from the retention window so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total hiccups across the run.
    pub fn total_hiccups(&self) -> u64 {
        self.total_hiccups
    }

    /// Total blocks served.
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// Total redistribution moves executed.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Total mirror-served (recovered) reads.
    pub fn total_recovered(&self) -> u64 {
        self.total_recovered
    }

    /// Hiccup rate: hiccups / requests (0 when idle).
    pub fn hiccup_rate(&self) -> f64 {
        if self.total_requested == 0 {
            0.0
        } else {
            self.total_hiccups as f64 / self.total_requested as f64
        }
    }

    /// Every completed drain interval, in order: for each time a
    /// redistribution backlog appeared, the number of rounds that ran
    /// while it was non-zero, the one that emptied it included. A
    /// backlog still draining is not included.
    pub fn drain_times(&self) -> &[usize] {
        &self.drains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(requested: u64, served: u64, hiccups: u64, moves: u64, backlog: u64) -> RoundRecord {
        RoundRecord {
            requested,
            served,
            hiccups,
            recovered: 0,
            moves,
            backlog,
            active_streams: 0,
        }
    }

    #[test]
    fn totals_and_rates() {
        let mut m = Metrics::new();
        m.push(rec(10, 10, 0, 0, 0));
        m.push(rec(10, 8, 2, 3, 5));
        m.push(rec(10, 10, 0, 5, 0));
        assert_eq!(m.len(), 3);
        assert_eq!(m.total_hiccups(), 2);
        assert_eq!(m.total_served(), 28);
        assert_eq!(m.total_moves(), 8);
        assert!((m.hiccup_rate() - 2.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn drain_time_measures_backlog() {
        let mut m = Metrics::new();
        m.push(rec(0, 0, 0, 0, 0));
        m.push(rec(0, 0, 0, 2, 8)); // backlog appears
        m.push(rec(0, 0, 0, 4, 4));
        m.push(rec(0, 0, 0, 4, 0)); // drained
        assert_eq!(m.drain_times(), &[3]);
    }

    /// A backlog emptied by the round right after the scale op is one
    /// round of draining, not none.
    #[test]
    fn drain_time_counts_a_one_round_drain() {
        let mut m = Metrics::new();
        m.push(rec(0, 0, 0, 0, 0));
        m.push(rec(0, 0, 0, 5, 0)); // the whole backlog moved at once
        assert_eq!(m.drain_times(), &[1]);
    }

    #[test]
    fn drain_time_none_cases() {
        let mut m = Metrics::new();
        m.push(rec(1, 1, 0, 0, 0));
        assert!(m.drain_times().is_empty(), "no backlog ever");
        m.push(rec(1, 1, 0, 1, 7));
        assert!(m.drain_times().is_empty(), "backlog never drained");
    }

    /// Regression: a second scale op's backlog after the first drained
    /// used to be invisible, when only the first interval was kept.
    /// `drain_times` reports every completed interval.
    #[test]
    fn backlog_reappearing_yields_multiple_drain_intervals() {
        let mut m = Metrics::new();
        m.push(rec(0, 0, 0, 0, 0));
        m.push(rec(0, 0, 0, 2, 8)); // scale #1: backlog appears
        m.push(rec(0, 0, 0, 4, 4));
        m.push(rec(0, 0, 0, 4, 0)); // drained after 3 rounds
        m.push(rec(0, 0, 0, 0, 0));
        m.push(rec(0, 0, 0, 1, 6)); // scale #2: backlog reappears
        m.push(rec(0, 0, 0, 2, 4));
        m.push(rec(0, 0, 0, 2, 2));
        m.push(rec(0, 0, 0, 2, 0)); // drained after 4 rounds
        assert_eq!(m.drain_times(), &[3, 4]);
        // A third backlog still draining stays out of the list.
        m.push(rec(0, 0, 0, 0, 9));
        assert_eq!(m.drain_times(), &[3, 4]);
    }

    #[test]
    fn idle_run_has_zero_rate() {
        let m = Metrics::new();
        assert_eq!(m.hiccup_rate(), 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn retention_window_bounds_memory_but_not_totals() {
        let mut m = Metrics::new();
        let pushed = DEFAULT_RETENTION as u64 + 6;
        for i in 0..pushed {
            m.push(rec(10, 9, 1, i, if i % 2 == 0 { 1 } else { 0 }));
        }
        assert_eq!(
            m.rounds().len(),
            DEFAULT_RETENTION,
            "window holds the last rounds"
        );
        assert_eq!(m.evicted(), 6);
        assert_eq!(m.len(), pushed as usize, "len counts evicted rounds");
        // Totals accumulated at push time, unaffected by eviction.
        assert_eq!(m.total_served(), 9 * pushed);
        assert_eq!(m.total_hiccups(), pushed);
        assert_eq!(m.total_moves(), (0..pushed).sum::<u64>());
        assert!((m.hiccup_rate() - 0.1).abs() < 1e-12);
        // The window really is the *last* rounds.
        assert_eq!(m.rounds()[DEFAULT_RETENTION - 1].moves, pushed - 1);
        assert_eq!(m.rounds()[0].moves, 6);
        // Drain intervals kept as accumulators too: backlog alternated
        // 1,0 so every appearance drained in the round after it.
        assert_eq!(m.drain_times().len(), pushed as usize / 2);
        assert!(m.drain_times().iter().all(|&t| t == 2));
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        let mut m = Metrics::new();
        m.push(rec(u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0));
        m.push(rec(100, 100, 100, 100, 0));
        assert_eq!(m.total_served(), u64::MAX);
        assert_eq!(m.total_hiccups(), u64::MAX);
        assert_eq!(m.total_moves(), u64::MAX);
        assert!((m.hiccup_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attached_stats_mirror_totals_into_the_registry() {
        use scaddar_obs::Registry;
        let registry = Registry::new();
        let stats = crate::stats::ServerStats::register_monotonic(&registry);
        let mut m = Metrics::new();
        m.attach_stats(stats.clone());
        m.push(rec(10, 8, 2, 3, 5));
        m.push(rec(10, 10, 0, 5, 0));
        // Idle rounds up to one past the window: the first round is
        // evicted.
        for _ in 0..DEFAULT_RETENTION - 2 {
            m.push(rec(0, 0, 0, 0, 0));
        }
        m.push(rec(4, 4, 0, 0, 0));
        assert_eq!(stats.rounds.get(), DEFAULT_RETENTION as u64 + 1);
        assert_eq!(m.evicted(), 1);
        assert_eq!(stats.requested.get(), 24);
        assert_eq!(stats.served.get(), 22);
        assert_eq!(stats.hiccups.get(), 2);
        assert_eq!(stats.moves.get(), 8);
        assert_eq!(stats.backlog.get(), 0, "gauge tracks the latest round");
        assert_eq!(stats.rounds_evicted.get(), m.evicted());
        // The registry is a live view of the same totals.
        assert_eq!(stats.served.get(), m.total_served());
    }
}
