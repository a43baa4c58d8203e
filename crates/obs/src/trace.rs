//! Lightweight structured tracing: named spans with enter/exit
//! timestamps and `key=value` events, recorded into a bounded ring
//! buffer.
//!
//! This is the flight recorder, not a logging framework: the last N
//! spans are always available for a post-mortem (`cli spans`, harness
//! failure reports) at a fixed memory ceiling. Timestamps come from the
//! tracer's [`Clock`], so a harness driving a
//! [`VirtualClock`](crate::VirtualClock) gets byte-identical timelines
//! for the same seed.

use crate::clock::Clock;
use crate::events::EventLog;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// SplitMix64 finalizer (Steele et al.), matching `scaddar-prng`'s
/// stream — inlined so the obs crate stays dependency-free. Trace and
/// span ids come from here: pure functions of the seed, so a harness
/// run under a [`VirtualClock`](crate::VirtualClock) gets the same ids
/// every time.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The distributed-trace identity a request carries across process
/// boundaries: which trace it belongs to and which span is currently
/// open on the sender's side. Serialized into the optional trace
/// trailer on request frames (see `scaddar-net`); each receiver derives
/// its own child context with [`TraceContext::child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identity, shared by every span in the trace. Never 0 (0
    /// marks "untraced" on a [`SpanRecord`]).
    pub trace_id: u64,
    /// The sender's currently open span — the parent of whatever span
    /// the receiver opens next.
    pub span_id: u64,
    /// Whether downstream hops should record spans. Unsampled contexts
    /// still propagate ids (so logs can correlate) but ask receivers
    /// to skip the flight recorder.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context: trace and root-span ids are SplitMix64
    /// draws from `(seed, sequence)`, so a seeded client issues the
    /// same trace ids on every run.
    pub fn root(seed: u64, sequence: u64) -> TraceContext {
        let trace_id = splitmix64(seed ^ splitmix64(sequence)).max(1);
        TraceContext {
            trace_id,
            span_id: splitmix64(trace_id),
            sampled: true,
        }
    }

    /// The child context a receiver continues under: same trace, a new
    /// span id derived from `(trace_id, parent span, salt)`. `salt`
    /// disambiguates siblings continuing from the same parent — e.g.
    /// two shards both serving hops of one locate — so pass something
    /// locally unique (shard id, endpoint hash).
    pub fn child(&self, salt: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: splitmix64(self.trace_id ^ self.span_id.rotate_left(23) ^ salt),
            sampled: self.sampled,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static call-site label, e.g. `server.scale`).
    pub name: String,
    /// Clock reading at span entry, nanoseconds.
    pub start_ns: u64,
    /// Clock reading at span exit, nanoseconds.
    pub end_ns: u64,
    /// `key=value` events attached while the span was open, in order.
    pub events: Vec<(String, String)>,
    /// Distributed trace this span belongs to; 0 = untraced local span.
    pub trace_id: u64,
    /// This span's id within the trace; 0 = untraced.
    pub span_id: u64,
    /// Parent span id; 0 = root (or untraced).
    pub parent_id: u64,
}

impl SpanRecord {
    /// One deterministic timeline line:
    /// `[start..end ns] name key=value ...`, with
    /// `trace=… span=… parent=…` appended on traced spans.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[{:>10} ..{:>10} ns] {}",
            self.start_ns, self.end_ns, self.name
        );
        for (k, v) in &self.events {
            let _ = write!(out, " {k}={v}");
        }
        if self.trace_id != 0 {
            let _ = write!(
                out,
                " trace={:016x} span={:016x} parent={:016x}",
                self.trace_id, self.span_id, self.parent_id
            );
        }
        out
    }
}

/// Renders one distributed trace as a deterministic tree: the spans of
/// `trace_id` (drawn from any mix of tracers — client plus every
/// shard), roots first, children indented under their parent, siblings
/// ordered by start time then span id. Spans whose parent is absent
/// from `spans` (e.g. evicted from a ring) render at top level, marked
/// `~orphan`. Empty string when no span matches.
pub fn render_trace_dump(spans: &[SpanRecord], trace_id: u64) -> String {
    let mut trace: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.trace_id == trace_id && s.trace_id != 0)
        .collect();
    trace.sort_by_key(|s| (s.start_ns, s.span_id));
    let present: std::collections::BTreeSet<u64> = trace.iter().map(|s| s.span_id).collect();
    let mut out = String::new();
    fn emit(out: &mut String, trace: &[&SpanRecord], parent: u64, depth: usize) {
        for s in trace.iter().filter(|s| s.parent_id == parent) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), s.render());
            emit(out, trace, s.span_id, depth + 1);
        }
    }
    emit(&mut out, &trace, 0, 0);
    // Orphans: parented on a span we never saw.
    let orphans: Vec<&&SpanRecord> = trace
        .iter()
        .filter(|s| s.parent_id != 0 && !present.contains(&s.parent_id))
        .collect();
    for s in orphans {
        let _ = writeln!(out, "{} ~orphan", s.render());
        emit(&mut out, &trace, s.span_id, 1);
    }
    out
}

#[derive(Debug)]
struct Recorder {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

/// The span recorder: hands out [`SpanGuard`]s and keeps the last
/// `capacity` completed spans.
#[derive(Debug, Clone)]
pub struct Tracer {
    clock: Arc<dyn Clock>,
    recorder: Arc<Mutex<Recorder>>,
}

impl Tracer {
    /// A tracer reading time from `clock`, retaining the last
    /// `capacity` spans (at least 1).
    pub fn new(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Tracer {
            clock,
            recorder: Arc::new(Mutex::new(Recorder {
                spans: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// The tracer's clock (shared with sampled metrics and the driver).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Opens a span; it records itself when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            record: SpanRecord {
                name: name.to_string(),
                start_ns: self.clock.now_ns(),
                end_ns: 0,
                events: Vec::new(),
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
        }
    }

    /// Opens a span inside a distributed trace: the span carries
    /// `ctx`'s trace and span ids and points at `parent_id` (0 for the
    /// trace root; the wire-received parent span id on a continuing
    /// hop).
    pub fn span_in(&self, name: &str, ctx: &TraceContext, parent_id: u64) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            record: SpanRecord {
                name: name.to_string(),
                start_ns: self.clock.now_ns(),
                end_ns: 0,
                events: Vec::new(),
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id,
            },
        }
    }

    fn push(&self, record: SpanRecord) {
        let mut rec = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        if rec.spans.len() == rec.capacity {
            rec.spans.pop_front();
            rec.dropped += 1;
        }
        rec.spans.push_back(record);
    }

    /// The last `n` completed spans, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let rec = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        rec.spans
            .iter()
            .skip(rec.spans.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Completed spans evicted by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.recorder
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .dropped
    }

    /// Deterministic multi-line timeline of the last `n` spans, oldest
    /// first; empty string when nothing has been recorded.
    pub fn render_recent(&self, n: usize) -> String {
        let mut out = String::new();
        for span in self.recent(n) {
            let _ = writeln!(out, "{}", span.render());
        }
        out
    }

    /// Every retained span belonging to `trace_id`, oldest first — one
    /// process's contribution to a distributed trace. Feed the
    /// concatenation across tracers to [`render_trace_dump`].
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let rec = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        rec.spans
            .iter()
            .filter(|s| s.trace_id == trace_id && trace_id != 0)
            .cloned()
            .collect()
    }

    /// Flight-recorder capture: emits the last `n` retained spans into
    /// `log` as `span-capture` events (one per span, oldest first,
    /// fields name/start/end/trace/span/parent plus the span's own
    /// events). The SLO engine calls this on a CRIT transition so the
    /// JSONL event log carries the post-mortem timeline alongside the
    /// alert that triggered it. Returns the number of spans captured.
    pub fn capture_into(&self, log: &EventLog, n: usize) -> usize {
        let spans = self.recent(n);
        for s in &spans {
            let mut fields: Vec<(String, String)> = vec![
                ("name".to_string(), s.name.clone()),
                ("start_ns".to_string(), s.start_ns.to_string()),
                ("end_ns".to_string(), s.end_ns.to_string()),
            ];
            if s.trace_id != 0 {
                fields.push(("trace".to_string(), format!("{:016x}", s.trace_id)));
                fields.push(("span".to_string(), format!("{:016x}", s.span_id)));
                fields.push(("parent".to_string(), format!("{:016x}", s.parent_id)));
            }
            for (k, v) in &s.events {
                fields.push((format!("e_{k}"), v.clone()));
            }
            log.emit("span-capture", fields);
        }
        spans.len()
    }
}

/// An open span; completes (and records itself) on drop.
#[must_use = "a span records itself when dropped; binding it to `_` closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    record: SpanRecord,
}

impl SpanGuard {
    /// Attaches a `key=value` event to the span.
    pub fn event(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record
            .events
            .push((key.to_string(), value.to_string()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut record = std::mem::replace(
            &mut self.record,
            SpanRecord {
                name: String::new(),
                start_ns: 0,
                end_ns: 0,
                events: Vec::new(),
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
        );
        record.end_ns = self.tracer.clock.now_ns().max(record.start_ns);
        self.tracer.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn fixture() -> (Arc<VirtualClock>, Tracer) {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock.clone(), 4);
        (clock, tracer)
    }

    #[test]
    fn spans_record_timing_and_events() {
        let (clock, tracer) = fixture();
        {
            let mut span = tracer.span("scale");
            clock.advance(120);
            span.event("op", "Add{count: 2}");
            span.event("moves", 42);
        }
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "scale");
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].end_ns, 120);
        assert_eq!(
            spans[0].render(),
            "[         0 ..       120 ns] scale op=Add{count: 2} moves=42"
        );
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let (clock, tracer) = fixture();
        for i in 0..6u64 {
            let _span = tracer.span(&format!("s{i}"));
            clock.advance(1);
        }
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 4, "capacity bounds retention");
        assert_eq!(spans[0].name, "s2");
        assert_eq!(spans[3].name, "s5");
        assert_eq!(tracer.dropped(), 2);
        assert_eq!(tracer.recent(2).len(), 2);
        assert_eq!(tracer.recent(2)[0].name, "s4");
    }

    #[test]
    fn timelines_are_deterministic_under_a_virtual_clock() {
        let run = || {
            let (clock, tracer) = fixture();
            for i in 0..3u64 {
                let mut span = tracer.span("step");
                clock.advance(10 + i);
                span.event("i", i);
            }
            tracer.render_recent(8)
        };
        let a = run();
        assert_eq!(a, run(), "virtual clock must make traces reproducible");
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn trace_context_ids_are_deterministic_and_distinct() {
        let a = TraceContext::root(42, 0);
        let b = TraceContext::root(42, 0);
        assert_eq!(a, b, "same (seed, sequence) → same ids");
        assert_ne!(a.trace_id, 0);
        assert_ne!(a, TraceContext::root(42, 1));
        assert_ne!(a, TraceContext::root(43, 0));
        // Sibling children continuing from the same parent stay
        // distinct when salted differently (two shards, one hop each).
        let c0 = a.child(0);
        let c1 = a.child(1);
        assert_eq!(c0.trace_id, a.trace_id);
        assert_ne!(c0.span_id, c1.span_id);
        assert_ne!(c0.span_id, a.span_id);
        assert_eq!(a.child(0), c0, "child derivation is a pure function");
        assert!(c0.sampled);
    }

    #[test]
    fn traced_spans_render_ids_and_untraced_spans_do_not() {
        let (clock, tracer) = fixture();
        let ctx = TraceContext::root(7, 0);
        {
            let mut span = tracer.span_in("client.locate", &ctx, 0);
            clock.advance(9);
            span.event("object", 3);
        }
        {
            let _plain = tracer.span("local");
        }
        let spans = tracer.recent(10);
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].span_id, ctx.span_id);
        assert_eq!(spans[0].parent_id, 0);
        assert!(spans[0]
            .render()
            .contains(&format!("trace={:016x}", ctx.trace_id)));
        assert_eq!(spans[1].trace_id, 0);
        assert!(!spans[1].render().contains("trace="));
    }

    #[test]
    fn trace_dump_stitches_spans_across_tracers_into_one_tree() {
        let clock = Arc::new(VirtualClock::new());
        let client = Tracer::new(clock.clone(), 16);
        let shard0 = Tracer::new(clock.clone(), 16);
        let shard1 = Tracer::new(clock.clone(), 16);
        let root = TraceContext::root(5, 0);
        {
            let mut root_span = client.span_in("client.locate", &root, 0);
            clock.advance(2);
            {
                // Stale shard answers WrongShard.
                let hop = root.child(0);
                let mut s = shard0.span_in("shard0.locate", &hop, root.span_id);
                clock.advance(3);
                s.event("verdict", "wrong-shard");
            }
            clock.advance(1);
            {
                let hop = root.child(1);
                let _s = shard1.span_in("shard1.locate", &hop, root.span_id);
                clock.advance(4);
            }
            root_span.event("hops", 2);
        }
        let mut all = client.spans_for_trace(root.trace_id);
        all.extend(shard0.spans_for_trace(root.trace_id));
        all.extend(shard1.spans_for_trace(root.trace_id));
        assert_eq!(all.len(), 3);
        let dump = render_trace_dump(&all, root.trace_id);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("client.locate"), "root first: {dump}");
        assert!(lines[1].starts_with("  ") && lines[1].contains("shard0.locate"));
        assert!(lines[2].starts_with("  ") && lines[2].contains("shard1.locate"));
        assert!(!dump.contains("~orphan"));
        // Unrelated trace ids render nothing.
        assert_eq!(render_trace_dump(&all, root.trace_id ^ 1), "");
        // A child whose parent never recorded is marked, not dropped.
        let orphan_dump = render_trace_dump(&all[1..], root.trace_id);
        assert!(orphan_dump.contains("~orphan"));
    }

    #[test]
    fn capture_into_exports_spans_as_jsonl_events() {
        use crate::events::EventLog;
        let (clock, tracer) = fixture();
        let log = EventLog::new(clock.clone());
        let ctx = TraceContext::root(11, 3);
        {
            let mut s = tracer.span_in("shard.locate", &ctx, 0);
            clock.advance(5);
            s.event("gate", "waited");
        }
        {
            let _s = tracer.span("plain");
        }
        assert_eq!(tracer.capture_into(&log, 8), 2);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "span-capture");
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "trace" && *v == format!("{:016x}", ctx.trace_id)));
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "e_gate" && v == "waited"));
        assert!(!events[1].fields.iter().any(|(k, _)| k == "trace"));
        for line in log.render_jsonl().lines() {
            assert!(
                crate::registry::try_parse_json_values(line).is_ok(),
                "capture must stay valid JSONL: {line}"
            );
        }
    }

    #[test]
    fn nested_spans_both_record() {
        let (clock, tracer) = fixture();
        {
            let _outer = tracer.span("outer");
            clock.advance(5);
            {
                let _inner = tracer.span("inner");
                clock.advance(3);
            }
            clock.advance(2);
        }
        let spans = tracer.recent(10);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 3);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].end_ns - spans[1].start_ns, 10);
    }
}
