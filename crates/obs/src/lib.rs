//! # scaddar-obs — vendored observability core
//!
//! The workspace builds offline (no `tracing`, no `prometheus`), so this
//! crate provides the telemetry substrate the stack instruments itself
//! with:
//!
//! * [`metrics`] — lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   log-linear [`Histogram`]s (p50/p95/p99/max) built on relaxed
//!   atomics; recording never takes a lock;
//! * [`registry`] — a global-free [`Registry`] that names metrics,
//!   renders both Prometheus text exposition and a JSON snapshot, and
//!   exposes a generic read API ([`Registry::value`],
//!   [`Registry::gauges_with_prefix`]) for monitors that poll by name;
//! * [`events`] — an [`EventLog`]: append-only typed events rendered as
//!   JSON Lines, clock-stamped for deterministic replay;
//! * [`trace`] — structured spans with enter/exit timing and `key=value`
//!   events, recorded into a bounded ring buffer by a [`Tracer`];
//! * [`profile`] — the cooperative sampling profiler: per-thread
//!   atomic state words ([`StateHandle`]) read by a [`Profiler`]
//!   sampler into state-residency profiles rendered as folded-stack
//!   text and Registry gauges;
//! * [`clock`] — the pluggable [`Clock`] trait: [`MonotonicClock`] for
//!   production, [`VirtualClock`] for deterministic harness runs (same
//!   seed → byte-identical span timelines).
//!
//! Handles are cheap `Arc` clones; the intended shape is "create a
//! [`Registry`] at the composition root, hand out handles to each
//! subsystem". Nothing here is `static` — two servers in one process get
//! two disjoint registries.
//!
//! ```
//! use scaddar_obs::{Registry, Tracer, VirtualClock};
//! use std::sync::Arc;
//!
//! let registry = Registry::new();
//! let lookups = registry.counter("scaddar_core_locate_calls_total", "AF() lookups");
//! let latency = registry.histogram("scaddar_core_locate_ns", "AF() latency (ns)");
//! lookups.inc();
//! latency.record(42);
//! assert!(registry.render_prometheus().contains("scaddar_core_locate_calls_total 1"));
//!
//! let clock = Arc::new(VirtualClock::new());
//! let tracer = Tracer::new(clock.clone(), 128);
//! {
//!     let mut span = tracer.span("demo");
//!     clock.advance(10);
//!     span.event("k", "v");
//! }
//! assert_eq!(tracer.recent(1)[0].end_ns, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use events::{Event, EventLog};
pub use metrics::{
    bucket_layout, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS, SUB_BITS,
    SUB_BUCKETS,
};
pub use profile::{
    ProfileSnapshot, Profiler, StateHandle, ThreadProfile, ThreadState, THREAD_STATES,
    THREAD_STATE_NAMES,
};
pub use registry::{
    json_escape, parse_json_values, try_parse_json_values, CounterSample, GaugeSample,
    HistogramSample, MetricValue, ParseError, Registry, RegistrySnapshot, BUCKET_LAYOUT_GAUGE,
};
pub use slo::{BurnRates, SloTracker, WindowBurn};
pub use trace::{render_trace_dump, SpanGuard, SpanRecord, TraceContext, Tracer};
