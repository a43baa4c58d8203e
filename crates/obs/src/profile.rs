//! Cooperative sampling profiler: per-thread state words plus a
//! ~1 kHz sampler that accumulates state-residency profiles.
//!
//! Classic profilers interrupt threads and unwind stacks; that is
//! neither portable nor deterministic, and it is forbidden in a
//! workspace that vendors no libc bindings. This module takes the
//! cooperative route instead: every participating thread owns a
//! [`StateHandle`] — one atomic byte — and publishes *what it is
//! doing right now* ([`ThreadState`]) with a single relaxed store at
//! each phase boundary. A sampler reads every state word per round and
//! bumps one residency counter per thread. On a real server that is
//! the process's one `obs-sampler` thread, which every profiler
//! attached with [`Profiler::sample_in_background`] shares; the harness
//! instead calls [`Profiler::sample_once`] directly under a
//! `VirtualClock`.
//!
//! The `obs-sampler` thread is spawned the first time a profiler is
//! attached and then lives as long as the process. It holds each
//! attached profiler only weakly, so dropping the last owner frees the
//! profiler and detaches it; with none attached the thread parks. No
//! daemon boot spawns it after the first, and no shutdown joins it.
//!
//! ## Determinism contract
//!
//! Sampling rounds are the unit of time, not wall-clock seconds: a
//! round reads each registered thread's word exactly once, so for
//! every thread the invariant
//!
//! ```text
//! sum(counts[state] for state in states) == samples_observed
//! ```
//!
//! holds *exactly* (the harness `profile-conserves` invariant). Under
//! a `VirtualClock` with scripted state transitions, the same seed
//! produces byte-identical [`ProfileSnapshot::render_folded`] output
//! run after run — there is no `Instant::now` anywhere in the
//! accounting path.
//!
//! ## Overhead budget
//!
//! The instrumented thread pays one relaxed `AtomicU8` store per
//! state change (sub-nanosecond on x86); the sampler pays, per
//! attached profiler, one mutex acquisition plus `n_threads` relaxed
//! loads per round. At 1 kHz with a dozen threads that is ~10 µs/s of
//! sampler CPU — invisible next to the 1.10× locate-path overhead
//! gate, which the `obs_profile_overhead` bench group pins down.

use crate::clock::Clock;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, Weak};
use std::time::Duration;

/// Wall-clock period of the background sampler's rounds (~1 kHz).
const SAMPLE_PERIOD: Duration = Duration::from_millis(1);

/// What a cooperating thread is doing right now.
///
/// The discriminant is the state word's stored byte and the index
/// into every residency-count array; the wire format and the folded
/// renderer both rely on these values being stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ThreadState {
    /// Parked or between duties (also the initial state).
    Idle = 0,
    /// Blocked in the readiness poller (`epoll_wait`/`poll`).
    Epoll = 1,
    /// Draining sockets and decoding frames.
    Decode = 2,
    /// Waiting to acquire the engine read/write lock.
    LockWait = 3,
    /// Executing inside the engine (locate/scale/tick).
    Engine = 4,
    /// Encoding response frames.
    Encode = 5,
    /// Flushing response bytes to sockets.
    Write = 6,
    /// Running an offloaded heavy operation (scale/tick thread).
    Offload = 7,
}

/// Number of distinct [`ThreadState`] values.
pub const THREAD_STATES: usize = 8;

/// Stable lowercase state names, indexed by discriminant. These are
/// the folded-stack leaf names and the Prometheus `state` label
/// values — renaming one is a wire-visible change.
pub const THREAD_STATE_NAMES: [&str; THREAD_STATES] = [
    "idle",
    "epoll",
    "decode",
    "lock-wait",
    "engine",
    "encode",
    "write",
    "offload",
];

impl ThreadState {
    /// The state for discriminant `v`, if in range.
    pub fn from_u8(v: u8) -> Option<ThreadState> {
        Some(match v {
            0 => ThreadState::Idle,
            1 => ThreadState::Epoll,
            2 => ThreadState::Decode,
            3 => ThreadState::LockWait,
            4 => ThreadState::Engine,
            5 => ThreadState::Encode,
            6 => ThreadState::Write,
            7 => ThreadState::Offload,
            _ => return None,
        })
    }

    /// The stable lowercase name for this state.
    pub fn name(self) -> &'static str {
        THREAD_STATE_NAMES[self as usize]
    }
}

/// A registered thread's handle for publishing its current state.
///
/// Cloning shares the same state word; the handle is `Send` so a
/// worker can move it into its thread. Publishing is one relaxed
/// store — cheap enough to mark every phase boundary unconditionally.
#[derive(Debug, Clone)]
pub struct StateHandle {
    word: Arc<AtomicU8>,
}

impl StateHandle {
    /// A handle not attached to any profiler: stores vanish. Lets
    /// call sites keep one unconditional code path when profiling is
    /// disabled or the thread predates the profiler.
    pub fn detached() -> StateHandle {
        StateHandle {
            word: Arc::new(AtomicU8::new(ThreadState::Idle as u8)),
        }
    }

    /// Publishes `state` as this thread's current activity.
    pub fn set(&self, state: ThreadState) {
        self.word.store(state as u8, Ordering::Relaxed);
    }

    /// The raw state byte (test/diagnostic use).
    pub fn current(&self) -> u8 {
        self.word.load(Ordering::Relaxed)
    }
}

/// One registered thread: its shared word plus sampler-owned tallies.
#[derive(Debug)]
struct ThreadSlot {
    name: String,
    word: Arc<AtomicU8>,
    /// Rounds that have observed this thread (it may register late).
    samples: u64,
    counts: [u64; THREAD_STATES],
}

/// The always-on cooperative profiler: a table of per-thread state
/// words and the residency counts accumulated by sampling them.
///
/// The sampler (thread or manual [`sample_once`](Self::sample_once)
/// calls) is the only writer of the tallies; readers take snapshots.
/// All accounting lives under one short mutex — at 1 kHz the
/// contention is unmeasurable, and plain `u64` tallies keep the
/// arithmetic exact and the rendering deterministic.
#[derive(Debug)]
pub struct Profiler {
    clock: Arc<dyn Clock>,
    slots: Mutex<Vec<ThreadSlot>>,
    rounds: AtomicU64,
}

impl Profiler {
    /// An empty profiler stamping snapshots with `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Profiler> {
        Arc::new(Profiler {
            clock,
            slots: Mutex::new(Vec::new()),
            rounds: AtomicU64::new(0),
        })
    }

    /// The clock snapshots are stamped with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Registers a thread under `name` and returns its state handle.
    /// Names should be unique (`scaddard-worker-0`, …); duplicates
    /// are kept as distinct rows.
    pub fn register(&self, name: &str) -> StateHandle {
        let word = Arc::new(AtomicU8::new(ThreadState::Idle as u8));
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.push(ThreadSlot {
            name: name.to_string(),
            word: word.clone(),
            samples: 0,
            counts: [0; THREAD_STATES],
        });
        StateHandle { word }
    }

    /// Runs one sampling round: reads every registered thread's state
    /// word once and bumps the matching residency count. Returns the
    /// total number of rounds run so far.
    pub fn sample_once(&self) -> u64 {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        for slot in slots.iter_mut() {
            let state = slot.word.load(Ordering::Relaxed) as usize;
            // An out-of-range byte (impossible via `StateHandle`, but
            // the word is just an atomic) lands on `idle` rather than
            // corrupting the conservation invariant.
            let idx = if state < THREAD_STATES { state } else { 0 };
            slot.counts[idx] += 1;
            slot.samples += 1;
        }
        self.rounds.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Total sampling rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every thread's residency profile,
    /// sorted by thread name (registration order breaks ties) so the
    /// rendering is deterministic.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut threads: Vec<ThreadProfile> = slots
            .iter()
            .map(|slot| ThreadProfile {
                name: slot.name.clone(),
                samples: slot.samples,
                counts: slot.counts.to_vec(),
            })
            .collect();
        threads.sort_by(|a, b| a.name.cmp(&b.name));
        ProfileSnapshot {
            at_ns: self.clock.now_ns(),
            rounds: self.rounds(),
            threads,
        }
    }

    /// Publishes the current tallies into `registry` as gauges:
    /// `profiler_state_samples{thread="...",state="..."}` (cumulative
    /// residency counts, zero rows included so dashboards see every
    /// state) plus `profiler_rounds`. Gauges — not counters — so a
    /// re-publish *sets* the absolute value instead of double-adding,
    /// while fleet federation still sums them across shards.
    pub fn publish(&self, registry: &Registry) {
        let snapshot = self.snapshot();
        registry
            .gauge("profiler_rounds", "Profiler sampling rounds run")
            .set(snapshot.rounds as i64);
        for thread in &snapshot.threads {
            for (i, &count) in thread.counts.iter().enumerate() {
                let name = format!(
                    "profiler_state_samples{{thread=\"{}\",state=\"{}\"}}",
                    thread.name,
                    state_name(i)
                );
                registry
                    .gauge(&name, "Sampled residency count per thread state")
                    .set(count as i64);
            }
        }
    }

    /// Attaches this profiler to the process's `obs-sampler` thread,
    /// which runs one [`sample_once`](Self::sample_once) round on every
    /// attached profiler each millisecond. The thread is spawned on
    /// first use and holds only a [`Weak`], so the profiler detaches
    /// when its last owner drops it. Only for wall-clock deployments —
    /// tests and the harness drive `sample_once` directly for
    /// determinism.
    pub fn sample_in_background(self: &Arc<Self>) {
        BACKGROUND
            .attached
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::downgrade(self));
        BACKGROUND.attach.notify_one();
        static SPAWN: Once = Once::new();
        SPAWN.call_once(|| {
            std::thread::Builder::new()
                .name("obs-sampler".into())
                .spawn(|| BACKGROUND.run())
                .expect("spawn obs-sampler");
        });
    }
}

/// The profilers the `obs-sampler` thread samples, and the condvar it
/// parks on while none is attached.
struct Background {
    attached: Mutex<Vec<Weak<Profiler>>>,
    attach: Condvar,
}

static BACKGROUND: Background = Background {
    attached: Mutex::new(Vec::new()),
    attach: Condvar::new(),
};

impl Background {
    /// The `obs-sampler` loop: forget dropped profilers, park while
    /// none is left, otherwise sample each live one and sleep a period.
    fn run(&self) -> ! {
        let mut live: Vec<Arc<Profiler>> = Vec::new();
        loop {
            {
                let mut attached = self.attached.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    attached.retain(|p| p.strong_count() > 0);
                    if !attached.is_empty() {
                        break;
                    }
                    attached = self
                        .attach
                        .wait(attached)
                        .unwrap_or_else(|e| e.into_inner());
                }
                live.extend(attached.iter().filter_map(Weak::upgrade));
            }
            for profiler in &live {
                profiler.sample_once();
            }
            // Hold no profiler through the sleep: its owner frees it.
            live.clear();
            std::thread::sleep(SAMPLE_PERIOD);
        }
    }
}

/// The state name for count index `i` — unknown indices (a newer
/// peer's snapshot) render as `state<i>` instead of panicking.
fn state_name(i: usize) -> String {
    match THREAD_STATE_NAMES.get(i) {
        Some(name) => (*name).to_string(),
        None => format!("state{i}"),
    }
}

/// One thread's residency profile: `counts[i]` rounds were spent in
/// state `i` ([`THREAD_STATE_NAMES`]), out of `samples` total rounds
/// that observed this thread. `counts` is a `Vec` (not a fixed
/// array) so a snapshot decoded from a peer speaking a newer
/// protocol with extra states still round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadProfile {
    /// Thread name, e.g. `scaddard-worker-0`.
    pub name: String,
    /// Rounds that observed this thread (== sum of `counts`).
    pub samples: u64,
    /// Residency count per state index.
    pub counts: Vec<u64>,
}

impl ThreadProfile {
    /// Whether the conservation invariant holds: counts sum exactly
    /// to the rounds that observed this thread.
    pub fn conserves(&self) -> bool {
        self.counts.iter().copied().sum::<u64>() == self.samples
    }
}

/// A point-in-time profile across every registered thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Clock reading when the snapshot was taken.
    pub at_ns: u64,
    /// Total sampling rounds run by the profiler.
    pub rounds: u64,
    /// Per-thread profiles, sorted by thread name.
    pub threads: Vec<ThreadProfile>,
}

impl ProfileSnapshot {
    /// Renders the profile as folded-stack text — one
    /// `thread;state count` line per non-zero cell, sorted by thread
    /// then state index — the format `flamegraph.pl` and every
    /// flamegraph viewer ingest directly.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for thread in &self.threads {
            for (i, &count) in thread.counts.iter().enumerate() {
                if count > 0 {
                    let _ = writeln!(out, "{};{} {}", thread.name, state_name(i), count);
                }
            }
        }
        out
    }

    /// The profile accumulated *since* `earlier`: per-thread,
    /// per-state saturating count deltas (threads absent from
    /// `earlier` keep their full counts). This is how the CLI turns
    /// two cumulative dumps N seconds apart into an interval profile
    /// without any server-side blocking.
    pub fn since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let threads = self
            .threads
            .iter()
            .map(|now| {
                let base = earlier.threads.iter().find(|t| t.name == now.name);
                ThreadProfile {
                    name: now.name.clone(),
                    samples: base
                        .map(|b| now.samples.saturating_sub(b.samples))
                        .unwrap_or(now.samples),
                    counts: now
                        .counts
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            let was = base.and_then(|b| b.counts.get(i).copied()).unwrap_or(0);
                            c.saturating_sub(was)
                        })
                        .collect(),
                }
            })
            .collect();
        ProfileSnapshot {
            at_ns: self.at_ns,
            rounds: self.rounds.saturating_sub(earlier.rounds),
            threads,
        }
    }

    /// Number of distinct states with a non-zero residency count
    /// anywhere in the profile (the CI smoke gate: ≥ 3 under load).
    pub fn distinct_states(&self) -> usize {
        let mut seen = [false; THREAD_STATES];
        let mut extra = 0usize;
        for thread in &self.threads {
            for (i, &count) in thread.counts.iter().enumerate() {
                if count > 0 {
                    match seen.get_mut(i) {
                        Some(slot) => *slot = true,
                        None => extra += 1,
                    }
                }
            }
        }
        seen.iter().filter(|&&s| s).count() + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn residency_counts_follow_the_state_words() {
        let clock = Arc::new(VirtualClock::new());
        let profiler = Profiler::new(clock);
        let a = profiler.register("worker-a");
        let b = profiler.register("worker-b");
        a.set(ThreadState::Engine);
        b.set(ThreadState::Epoll);
        for _ in 0..10 {
            profiler.sample_once();
        }
        a.set(ThreadState::Write);
        for _ in 0..5 {
            profiler.sample_once();
        }
        let snap = profiler.snapshot();
        assert_eq!(snap.rounds, 15);
        let wa = &snap.threads[0];
        assert_eq!(wa.name, "worker-a");
        assert_eq!(wa.counts[ThreadState::Engine as usize], 10);
        assert_eq!(wa.counts[ThreadState::Write as usize], 5);
        let wb = &snap.threads[1];
        assert_eq!(wb.counts[ThreadState::Epoll as usize], 15);
    }

    #[test]
    fn conservation_holds_with_late_registration() {
        let profiler = Profiler::new(Arc::new(VirtualClock::new()));
        let _a = profiler.register("early");
        for _ in 0..7 {
            profiler.sample_once();
        }
        let _b = profiler.register("late");
        for _ in 0..3 {
            profiler.sample_once();
        }
        let snap = profiler.snapshot();
        for thread in &snap.threads {
            assert!(thread.conserves(), "{thread:?}");
        }
        assert_eq!(snap.threads[0].samples, 10);
        assert_eq!(snap.threads[1].samples, 3);
    }

    #[test]
    fn folded_rendering_is_deterministic_per_script() {
        let run = || {
            let profiler = Profiler::new(Arc::new(VirtualClock::new()));
            let w0 = profiler.register("scaddard-worker-0");
            let w1 = profiler.register("scaddard-worker-1");
            let mut state = 42u64;
            for _ in 0..200 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                w0.set(ThreadState::from_u8((state % 8) as u8).unwrap());
                w1.set(ThreadState::from_u8(((state >> 8) % 8) as u8).unwrap());
                profiler.sample_once();
            }
            profiler.snapshot().render_folded()
        };
        let first = run();
        assert_eq!(first, run(), "same script must render byte-identically");
        assert!(first.contains("scaddard-worker-0;"));
        for line in first.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
            assert_eq!(stack.split(';').count(), 2);
            count.parse::<u64>().expect("folded count parses");
        }
    }

    #[test]
    fn since_diffs_cumulative_snapshots() {
        let profiler = Profiler::new(Arc::new(VirtualClock::new()));
        let h = profiler.register("w");
        h.set(ThreadState::Engine);
        for _ in 0..4 {
            profiler.sample_once();
        }
        let first = profiler.snapshot();
        h.set(ThreadState::Write);
        for _ in 0..6 {
            profiler.sample_once();
        }
        let interval = profiler.snapshot().since(&first);
        assert_eq!(interval.rounds, 6);
        assert_eq!(interval.threads[0].samples, 6);
        assert_eq!(interval.threads[0].counts[ThreadState::Engine as usize], 0);
        assert_eq!(interval.threads[0].counts[ThreadState::Write as usize], 6);
        assert!(interval.threads[0].conserves());
    }

    #[test]
    fn distinct_states_counts_nonzero_columns() {
        let profiler = Profiler::new(Arc::new(VirtualClock::new()));
        let h = profiler.register("w");
        for state in [ThreadState::Decode, ThreadState::Engine, ThreadState::Write] {
            h.set(state);
            profiler.sample_once();
        }
        assert_eq!(profiler.snapshot().distinct_states(), 3);
    }

    #[test]
    fn publish_exposes_gauges_in_prometheus_output() {
        let profiler = Profiler::new(Arc::new(VirtualClock::new()));
        let h = profiler.register("scaddard-worker-0");
        h.set(ThreadState::Engine);
        profiler.sample_once();
        let registry = Registry::new();
        profiler.publish(&registry);
        let text = registry.render_prometheus();
        assert!(
            text.contains(
                "profiler_state_samples{thread=\"scaddard-worker-0\",state=\"engine\"} 1"
            ),
            "{text}"
        );
        assert!(text.contains("profiler_rounds 1"), "{text}");
        // Re-publishing sets absolute values, it does not double-add.
        profiler.publish(&registry);
        assert!(registry
            .render_prometheus()
            .contains("profiler_state_samples{thread=\"scaddard-worker-0\",state=\"engine\"} 1"));
    }

    /// Waits up to 5 s for `done`, polling.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn one_background_sampler_serves_every_profiler_and_frees_dropped_ones() {
        let clock = || Arc::new(crate::clock::MonotonicClock::new());
        let (a, b) = (Profiler::new(clock()), Profiler::new(clock()));
        let (ha, hb) = (a.register("a"), b.register("b"));
        ha.set(ThreadState::Offload);
        hb.set(ThreadState::Engine);
        a.sample_in_background();
        b.sample_in_background();
        assert!(eventually(|| a.rounds() >= 3 && b.rounds() >= 3));
        for (profiler, state) in [(&a, ThreadState::Offload), (&b, ThreadState::Engine)] {
            let snap = profiler.snapshot();
            assert!(snap.threads[0].counts[state as usize] >= 3);
            assert!(snap.threads[0].conserves());
        }
        // The sampler holds only a `Weak`: the owner's drop frees `a`,
        // and `b` keeps being sampled.
        let gone = Arc::downgrade(&a);
        drop(a);
        assert!(eventually(|| gone.upgrade().is_none()), "a is still alive");
        let before = b.rounds();
        assert!(eventually(|| b.rounds() > before));
    }
}
