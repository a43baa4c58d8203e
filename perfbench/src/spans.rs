//! The traced run's client-side layer timings: the duration of every
//! `Frame::encode` and `decode_frame` call, kept in memory until the run
//! ends. With tracing off nothing is recorded and the clock is not read.

use std::time::Instant;

/// Codec call durations of one session (or, merged, of one pass).
#[derive(Debug, Clone, Default)]
pub struct CodecSpans {
    on: bool,
    /// `Frame::encode` durations, ns.
    pub encode_ns: Vec<f64>,
    /// `decode_frame` durations, ns.
    pub decode_ns: Vec<f64>,
}

impl CodecSpans {
    /// A recorder; records only when `on`.
    pub fn new(on: bool) -> CodecSpans {
        CodecSpans {
            on,
            ..CodecSpans::default()
        }
    }

    /// The start of a call to time, when tracing.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Runs `f` (an encode), recording its duration when tracing.
    pub fn encode<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = self.start();
        let out = f();
        if let Some(t) = t {
            self.encode_ns.push(t.elapsed().as_nanos() as f64);
        }
        out
    }

    /// Records a decode that began at `start` (from [`start`](Self::start))
    /// and ended at `end`.
    pub fn decoded(&mut self, start: Option<Instant>, end: Instant) {
        if let Some(t) = start {
            self.decode_ns
                .push(end.saturating_duration_since(t).as_nanos() as f64);
        }
    }

    /// Moves `other`'s durations into this recorder.
    pub fn absorb(&mut self, other: CodecSpans) {
        self.encode_ns.extend(other.encode_ns);
        self.decode_ns.extend(other.decode_ns);
    }
}
