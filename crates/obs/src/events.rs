//! Structured event log: an append-only buffer of typed events
//! rendered as JSON Lines.
//!
//! The health monitor (and anything else with discrete findings to
//! report) emits events here instead of interleaving prints with
//! metric output. Each event is one JSON object per line:
//!
//! ```json
//! {"ts_ns": 1234, "kind": "ro2-chi-square", "severity": "warn", "p_value": "0.0001"}
//! ```
//!
//! Timestamps come from the injected [`Clock`], so a harness run under
//! a `VirtualClock` produces a byte-identical event stream per seed —
//! the property the determinism invariants assert. Field order is the
//! insertion order chosen by the emitter (deterministic by
//! construction); values are stored pre-rendered as strings and
//! escaped on render.

use crate::clock::Clock;
use crate::registry::json_escape;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One logged event: a kind tag plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Clock timestamp at emit time.
    pub ts_ns: u64,
    /// Event type tag, e.g. `ro1-deviation`.
    pub kind: String,
    /// Ordered extra fields (insertion order is preserved on render).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"ts_ns\": {}, \"kind\": \"{}\"",
            self.ts_ns,
            json_escape(&self.kind)
        );
        for (key, value) in &self.fields {
            let _ = write!(
                out,
                ", \"{}\": \"{}\"",
                json_escape(key),
                json_escape(value)
            );
        }
        out.push('}');
        out
    }
}

/// A live size-capped JSONL file sink: every emitted event is also
/// appended to `path`, and when the file would exceed `max_bytes` it
/// is rolled over *once* — the current file renames to `path.1`
/// (replacing any previous rollover) and a fresh file starts. Total
/// on-disk footprint is therefore bounded by ~`2 * max_bytes` no
/// matter how long a `watch`/soak run emits.
#[derive(Debug)]
struct FileSink {
    path: PathBuf,
    max_bytes: u64,
    file: File,
    written: u64,
}

impl FileSink {
    /// Path of the single rollover file (`<path>.1`).
    fn rollover_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Appends one rendered line, rotating first if it would push the
    /// current file past the cap. Best-effort: I/O errors drop the
    /// line from the file (never from the in-memory log) rather than
    /// poisoning the emitter.
    fn append(&mut self, line: &str) {
        if self.written > 0 && self.written + line.len() as u64 > self.max_bytes {
            let _ = std::fs::rename(&self.path, Self::rollover_path(&self.path));
            match File::create(&self.path) {
                Ok(file) => {
                    self.file = file;
                    self.written = 0;
                }
                Err(_) => return,
            }
        }
        if self.file.write_all(line.as_bytes()).is_ok() {
            self.written += line.len() as u64;
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    sink: Option<FileSink>,
}

/// A cheaply clonable, append-only event sink with a JSONL renderer.
///
/// Shares one buffer across clones (like [`Registry`]); emission takes
/// a short lock. There is no capacity bound on the in-memory buffer:
/// event volume is expected to be low (alerts, state changes), unlike
/// spans or metrics. Long-running emitters that stream to disk attach
/// a size-capped rotating file via
/// [`attach_file_sink`](EventLog::attach_file_sink).
///
/// [`Registry`]: crate::registry::Registry
#[derive(Debug, Clone)]
pub struct EventLog {
    clock: Arc<dyn Clock>,
    inner: Arc<Mutex<Inner>>,
}

impl EventLog {
    /// An empty log stamping events with `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        EventLog {
            clock,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// The clock used for timestamps.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Streams every future event to `path` as JSONL, rotating to a
    /// single `<path>.1` rollover whenever the file would exceed
    /// `max_bytes` (so disk usage stays bounded under soak runs). The
    /// file is created (truncated) now; events already in memory are
    /// not back-filled. Appends happen under the same lock as the
    /// in-memory push, so file order always matches
    /// [`events`](EventLog::events) order and concurrent writers
    /// never tear lines.
    pub fn attach_file_sink(&self, path: &Path, max_bytes: u64) -> std::io::Result<()> {
        let file = File::create(path)?;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.sink = Some(FileSink {
            path: path.to_path_buf(),
            max_bytes,
            file,
            written: 0,
        });
        Ok(())
    }

    /// Appends one event stamped with the current clock reading.
    /// `fields` render in the given order.
    pub fn emit<K, V>(&self, kind: &str, fields: impl IntoIterator<Item = (K, V)>)
    where
        K: Into<String>,
        V: Into<String>,
    {
        let event = Event {
            ts_ns: self.clock.now_ns(),
            kind: kind.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = inner.sink.as_mut() {
            let mut line = event.to_json();
            line.push('\n');
            sink.append(&line);
        }
        inner.events.push(event);
    }

    /// Number of events logged so far.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.len()
    }

    /// Whether no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every logged event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.clone()
    }

    /// Renders the whole log as JSON Lines: one object per line,
    /// trailing newline iff non-empty.
    pub fn render_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for event in inner.events.iter() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL rendering to `path` (truncating).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render_jsonl())
    }

    /// Drops every logged event (the file sink, if any, is untouched).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::registry::try_parse_json_values;

    fn virtual_log() -> (EventLog, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (EventLog::new(clock.clone()), clock)
    }

    #[test]
    fn events_are_stamped_and_ordered() {
        let (log, clock) = virtual_log();
        log.emit("first", [("a", "1")]);
        clock.advance(50);
        log.emit("second", Vec::<(&str, &str)>::new());
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "first");
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[1].ts_ns, 50);
    }

    #[test]
    fn jsonl_rendering_is_one_valid_object_per_line() {
        let (log, clock) = virtual_log();
        log.emit("alert", [("probe", "ro2"), ("severity", "warn")]);
        clock.advance(7);
        log.emit("quote\"in\"kind", [("detail", "line\nbreak")]);
        let jsonl = log.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ts_ns\": 0, \"kind\": \"alert\", \"probe\": \"ro2\", \"severity\": \"warn\"}"
        );
        // Escaped payloads stay on one line and parse strictly.
        assert!(!lines[1].contains('\n'));
        for line in &lines {
            assert!(try_parse_json_values(line).is_ok(), "invalid JSON: {line}");
        }
    }

    #[test]
    fn clones_share_one_buffer() {
        let (log, _clock) = virtual_log();
        let peer = log.clone();
        log.emit("from-original", Vec::<(&str, &str)>::new());
        peer.emit("from-clone", Vec::<(&str, &str)>::new());
        assert_eq!(log.len(), 2);
        assert_eq!(peer.render_jsonl(), log.render_jsonl());
    }

    #[test]
    fn identical_emission_sequences_render_byte_identically() {
        let run = || {
            let (log, clock) = virtual_log();
            for i in 0..5 {
                log.emit("tick", [("i", i.to_string())]);
                clock.advance(13);
            }
            log.render_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn concurrent_writers_never_tear_lines_and_keep_per_writer_order() {
        // The monitor and the SLO engine now both emit into one log:
        // every event must land as exactly one complete JSONL line,
        // and each writer's own events must stay in emission order.
        let (log, _clock) = virtual_log();
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 200;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        log.emit("tick", [("writer", w.to_string()), ("seq", i.to_string())]);
                    }
                });
            }
        });
        assert_eq!(log.len(), WRITERS * PER_WRITER);
        let jsonl = log.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), WRITERS * PER_WRITER);
        let mut next_seq = [0usize; WRITERS];
        for line in &lines {
            try_parse_json_values(line).expect("torn or interleaved line");
            let field = |key: &str| {
                let tag = format!("\"{key}\": \"");
                let rest = &line[line.find(&tag).unwrap() + tag.len()..];
                rest[..rest.find('"').unwrap()].parse::<usize>().unwrap()
            };
            let (w, seq) = (field("writer"), field("seq"));
            assert_eq!(seq, next_seq[w], "writer {w} events out of order");
            next_seq[w] += 1;
        }
        assert!(next_seq.iter().all(|&n| n == PER_WRITER));
    }

    #[test]
    fn file_sink_rotates_once_at_the_byte_cap() {
        let (log, _clock) = virtual_log();
        let dir = std::env::temp_dir().join("scaddar-obs-eventlog-rotate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let rollover = dir.join("events.jsonl.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rollover);
        // Each line is ~45 bytes; a 256-byte cap forces several
        // rotations over 40 emits, exercising the .1 replacement.
        log.attach_file_sink(&path, 256).unwrap();
        for i in 0..40 {
            log.emit("tick", [("i", i.to_string())]);
        }
        let current = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rollover).unwrap();
        assert!(
            current.len() as u64 <= 256,
            "cap respected: {}",
            current.len()
        );
        assert!(old.len() as u64 <= 256);
        for line in current.lines().chain(old.lines()) {
            try_parse_json_values(line).expect("rotated files hold whole lines");
        }
        // The two files together are exactly a suffix of the full
        // stream — rotation loses only what aged past the rollover.
        let on_disk = format!("{old}{current}");
        assert!(log.render_jsonl().ends_with(&on_disk));
        // The in-memory log is complete regardless of rotation.
        assert_eq!(log.len(), 40);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rollover);
    }

    #[test]
    fn concurrent_writers_with_rotation_never_tear_file_lines() {
        let (log, _clock) = virtual_log();
        let dir = std::env::temp_dir().join("scaddar-obs-eventlog-rotate-mt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let rollover = dir.join("events.jsonl.1");
        let _ = std::fs::remove_file(&rollover);
        log.attach_file_sink(&path, 2048).unwrap();
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 100;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        log.emit("tick", [("writer", w.to_string()), ("seq", i.to_string())]);
                    }
                });
            }
        });
        assert_eq!(log.len(), WRITERS * PER_WRITER);
        let current = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rollover).expect("cap forced at least one rotation");
        let on_disk = format!("{old}{current}");
        for line in on_disk.lines() {
            try_parse_json_values(line).expect("torn line across rotation");
        }
        // File emission shares the in-memory lock: disk order is the
        // tail of the global emission order even across the rollover.
        assert!(log.render_jsonl().ends_with(&on_disk));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rollover);
    }

    #[test]
    fn seeded_replay_is_byte_identical() {
        // The determinism contract the harness invariants lean on:
        // one seed → one exact JSONL byte stream, run after run.
        let run = |seed: u64| {
            let (log, clock) = virtual_log();
            let mut state = seed;
            for i in 0..64u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                clock.advance(state % 997 + 1);
                log.emit(
                    if state.is_multiple_of(3) {
                        "probe"
                    } else {
                        "alert"
                    },
                    [("i", i.to_string()), ("v", (state % 1000).to_string())],
                );
            }
            log.render_jsonl()
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(7), run(8), "the seed actually drives the stream");
    }

    #[test]
    fn write_to_persists_the_rendering() {
        let (log, _clock) = virtual_log();
        log.emit("persisted", [("ok", "yes")]);
        let dir = std::env::temp_dir().join("scaddar-obs-eventlog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        log.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.render_jsonl());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clear_empties_the_log() {
        let (log, _clock) = virtual_log();
        log.emit("gone", Vec::<(&str, &str)>::new());
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.render_jsonl(), "");
    }
}
