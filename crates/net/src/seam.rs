//! The reactor's one instrumentation seam (DESIGN.md §15).
//!
//! Each reactor worker owns a [`Seam`]; every edge of a request's life
//! in the event loop is one call on it. The call publishes the worker's
//! profiler state word and, when the request, wave or flush crossing
//! the edge carries a sampled request, reads the clock once and closes
//! the phase that edge ends into its `net_phase_ns` histogram.
//! Unsampled requests pay the state stores and their decision, no clock.
//!
//! Sampling is one decision per request, taken as its frame is decoded:
//! each worker times 1 in [`SAMPLE_EVERY`] of the requests it decodes.
//! A wave or flush carrying k sampled requests records its phases k
//! times, so every phase histogram counts sampled requests. Closed
//! phases wait in the worker's ledger until [`Seam::record`] at the end
//! of its wakeup, so no histogram write lands inside a timed phase (or
//! under the engine lock) and slows the sampled request it times.

use scaddar_obs::{Clock, Counter, Histogram, Registry, StateHandle, ThreadState};
use std::sync::Arc;

/// One request in this many is sampled (per worker, in decode order).
pub const SAMPLE_EVERY: usize = 64;

/// REMAP chain-depth label values for the `engine` phase histogram:
/// the engine epoch *is* the worst-case chain length a lookup may
/// walk, so residency is bucketed by it.
pub const ENGINE_DEPTH_BUCKETS: [&str; 4] = ["0", "1-4", "5-16", "17+"];

/// What a thread does from an edge on; [`TABLE`] gives its state word
/// and histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between duties.
    Idle,
    /// Blocked in the readiness poller.
    Epoll,
    /// Socket readable → frame decoded.
    Decode,
    /// Frame decoded → its lookup wave starts.
    CoalesceWait,
    /// Wave start → engine read lock held.
    LockWait,
    /// Lock held → answers computed.
    Engine,
    /// Answers computed → responses in the write buffer.
    Encode,
    /// A connection's buffered responses → kernel took the bytes.
    Write,
    /// A `scaddard-op` thread running an offloaded heavy op.
    Offload,
}

/// The seam table, indexed by `Phase as usize`: each phase's state word
/// and the `net_phase_ns{phase=...}` label its sampled time lands under
/// (`engine` is further labelled `depth=` by [`ENGINE_DEPTH_BUCKETS`]).
pub const TABLE: [(Phase, ThreadState, Option<&str>); 9] = [
    (Phase::Idle, ThreadState::Idle, None),
    (Phase::Epoll, ThreadState::Epoll, None),
    (Phase::Decode, ThreadState::Decode, Some("decode")),
    (
        Phase::CoalesceWait,
        ThreadState::Decode,
        Some("coalesce-wait"),
    ),
    (Phase::LockWait, ThreadState::LockWait, Some("lock-wait")),
    (Phase::Engine, ThreadState::Engine, Some("engine")),
    (Phase::Encode, ThreadState::Encode, Some("encode")),
    (Phase::Write, ThreadState::Write, Some("write-flush")),
    (Phase::Offload, ThreadState::Offload, None),
];

impl Phase {
    /// The state word a thread publishes in this phase.
    pub fn state(self) -> ThreadState {
        TABLE[self as usize].1
    }
}

/// The clock side of one unit of work — a request, a wave or a flush:
/// how many sampled requests it carries and the phase open on them.
/// The default carries none and never reads the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    requests: u64,
    /// The open phase and the clock reading that opened it.
    open: Option<(Phase, u64)>,
    /// [`ENGINE_DEPTH_BUCKETS`] index the `engine` phase closes into.
    depth: usize,
}

impl Sample {
    /// Adds `other`'s sampled requests (not its open phase).
    pub fn carry(&mut self, other: Sample) {
        self.requests += other.requests;
    }

    /// Labels the `engine` phase with the [`ENGINE_DEPTH_BUCKETS`]
    /// bucket of `epoch`.
    pub fn at_epoch(&mut self, epoch: u64) {
        self.depth = match epoch {
            0 => 0,
            1..=4 => 1,
            5..=16 => 2,
            _ => 3,
        };
    }
}

/// One worker's seam: its state word, its sampling decisions, and the
/// `net_phase_ns` histograms every worker shares.
#[derive(Debug)]
pub struct Seam {
    state: StateHandle,
    clock: Arc<dyn Clock>,
    /// `false` for a bare server: no decisions, no clock reads.
    instrument: bool,
    /// Requests this worker decodes before its next sampled one.
    ahead: usize,
    decisions: Counter,
    /// By `Phase as usize`: one per depth bucket for `engine`, one per
    /// other timed phase, none for untimed ones.
    histograms: Vec<Vec<Histogram>>,
    /// Phases closed since the last [`record`](Self::record): phase,
    /// histogram index, duration, sampled requests.
    ledger: Vec<(Phase, usize, u64, u64)>,
}

impl Seam {
    /// A seam publishing to `state` and timing into the `net_phase_*`
    /// family of `registry` (registered from [`TABLE`] on first use).
    pub fn new(
        state: StateHandle,
        registry: &Registry,
        clock: Arc<dyn Clock>,
        instrument: bool,
    ) -> Seam {
        let histograms = TABLE
            .iter()
            .map(|&(phase, _, label)| match label {
                None => Vec::new(),
                Some(label) if phase == Phase::Engine => ENGINE_DEPTH_BUCKETS
                    .iter()
                    .map(|depth| {
                        registry.histogram(
                            &format!("net_phase_ns{{phase=\"{label}\",depth=\"{depth}\"}}"),
                            "Engine execute phase latency, by REMAP chain depth",
                        )
                    })
                    .collect(),
                Some(label) => vec![registry.histogram(
                    &format!("net_phase_ns{{phase=\"{label}\"}}"),
                    "Request lifecycle phase latency",
                )],
            })
            .collect();
        Seam {
            state,
            clock,
            instrument,
            ahead: 0,
            decisions: registry.counter(
                "net_phase_decisions_total",
                "Phase-sampling decisions taken (one per decoded request)",
            ),
            histograms,
            ledger: Vec::new(),
        }
    }

    /// Another worker's seam: publishes to `state` and shares this
    /// seam's histograms and decision counter, so a reactor registers
    /// the `net_phase_ns` family once. Its sampling cadence starts
    /// afresh.
    pub fn sibling(&self, state: StateHandle) -> Seam {
        Seam {
            state,
            clock: Arc::clone(&self.clock),
            instrument: self.instrument,
            ahead: 0,
            decisions: self.decisions.clone(),
            histograms: self.histograms.clone(),
            ledger: Vec::new(),
        }
    }

    /// An edge no request crosses: publishes `phase`'s state word only.
    pub fn enter(&self, phase: Phase) {
        self.state.set(phase.state());
    }

    /// The socket-readable edge: a clock reading when the next sampled
    /// request is the `n`-th from here and `ready(n)` — how many of the
    /// next `n` requests are buffered — says it has arrived.
    pub fn readable(&self, ready: impl FnOnce(usize) -> usize) -> Option<u64> {
        let n = self.ahead + 1;
        (self.instrument && ready(n) >= n).then(|| self.clock.now_ns())
    }

    /// The frame-decoded edge, carrying the request's one sampling
    /// decision. A sampled request closes `decode` (opened at the
    /// [`readable`](Self::readable) reading) and opens `coalesce-wait`.
    pub fn decoded(&mut self, readable_at: Option<u64>) -> Sample {
        let mut sample = Sample::default();
        if !self.instrument {
            return sample;
        }
        self.decisions.inc_weak();
        if self.ahead > 0 {
            self.ahead -= 1;
            return sample;
        }
        self.ahead = SAMPLE_EVERY - 1;
        let now = self.clock.now_ns();
        sample.requests = 1;
        sample.open = Some((Phase::Decode, readable_at.unwrap_or(now)));
        self.close(&mut sample, Phase::CoalesceWait, now);
        sample
    }

    /// A timed edge: publishes `next`'s state word and, when `sample`
    /// carries sampled requests, closes the open phase into its
    /// histogram and opens `next` on one clock reading — `now` when the
    /// caller already took it (the per-endpoint wave start or end).
    pub fn edge(&mut self, next: Phase, sample: &mut Sample, now: Option<u64>) {
        self.state.set(next.state());
        if sample.requests > 0 {
            let now = now.unwrap_or_else(|| self.clock.now_ns());
            self.close(sample, next, now);
        }
    }

    /// Writes the ledger into the histograms, once per sampled request.
    pub fn record(&mut self) {
        for (phase, index, ns, requests) in self.ledger.drain(..) {
            if let Some(h) = self.histograms[phase as usize].get(index) {
                for _ in 0..requests {
                    h.record(ns);
                }
            }
        }
    }

    fn close(&mut self, sample: &mut Sample, next: Phase, now: u64) {
        if let Some((phase, since)) = sample.open {
            // Only `engine` has a histogram per depth bucket.
            let index = if phase == Phase::Engine {
                sample.depth
            } else {
                0
            };
            let ns = now.saturating_sub(since);
            self.ledger.push((phase, index, ns, sample.requests));
        }
        sample.open = Some((next, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_obs::{MetricValue, VirtualClock};

    #[test]
    fn the_sampled_request_reads_the_clock_only_once_it_is_buffered() {
        let registry = Registry::new();
        let state = StateHandle::detached();
        let clock = Arc::new(VirtualClock::new());
        let mut seam = Seam::new(state.clone(), &registry, clock.clone(), true);
        for (i, (phase, word, _)) in TABLE.into_iter().enumerate() {
            seam.enter(phase);
            assert_eq!((phase as usize, state.current()), (i, word as u8));
        }
        let first = seam.readable(|_| 1);
        assert!(first.is_some(), "request 0 is sampled");
        assert_eq!(seam.decoded(first).requests, 1);
        // The next sampled request is 64 frames ahead.
        assert_eq!(seam.readable(|n| n - 1), None);
        assert!(seam.readable(|n| n).is_some());
        for _ in 1..SAMPLE_EVERY {
            assert_eq!(seam.decoded(None).requests, 0);
        }
        assert_eq!(seam.decoded(Some(0)).requests, 1);
        seam.record();
        let count = |name: &str| registry.snapshot().histogram(name).map(|h| h.count);
        assert_eq!(count("net_phase_ns{phase=\"decode\"}"), Some(2));
        let decisions = || registry.value("net_phase_decisions_total");
        let taken = Some(MetricValue::Counter(SAMPLE_EVERY as u64 + 1));
        assert_eq!(decisions(), taken);
        // A bare seam shares the histograms but decides nothing.
        let mut bare = Seam::new(state.clone(), &registry, clock.clone(), false);
        assert_eq!(bare.readable(|n| n), None);
        assert_eq!(bare.decoded(None).requests, 0);
        assert_eq!(decisions(), taken);
        // A sibling times into the same histograms and counter.
        let mut sibling = seam.sibling(StateHandle::detached());
        let mut sample = sibling.decoded(sibling.readable(|_| 1));
        assert_eq!(sample.requests, 1);
        clock.advance(5);
        sibling.edge(Phase::LockWait, &mut sample, None);
        sibling.record();
        assert_eq!(count("net_phase_ns{phase=\"decode\"}"), Some(3));
        assert_eq!(count("net_phase_ns{phase=\"coalesce-wait\"}"), Some(1));
        let taken = Some(MetricValue::Counter(SAMPLE_EVERY as u64 + 2));
        assert_eq!(decisions(), taken);
    }
}
