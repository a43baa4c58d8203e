//! Engine telemetry: the metric handles a [`Scaddar`](crate::Scaddar)
//! records into when observability is attached.
//!
//! The engine is built to run bare — `stats` is an `Option` and every
//! instrumentation site is a branch on it — so embedding contexts that
//! don't care (unit tests, experiments) pay one predicted-not-taken
//! branch per call. When attached, the budget is explicit:
//!
//! * **`locate` (hot)** — exactly one weak counter increment
//!   ([`Counter::inc_weak`], a relaxed load + store pair, no locked
//!   read-modify-write), which doubles as the 1-in-N sampling basis
//!   for the `scaddar_core_locate_ns` histogram. The overhead bench
//!   (`benches/obs.rs`) holds this within a few percent of bare.
//! * **scaling / planning / persistence (cold)** — full timing and
//!   byte counts; these run per-operation, not per-lookup.
//!
//! Metric names follow the `DESIGN.md` §9 scheme
//! (`scaddar_core_<what>[_<unit>|_total]`).

use scaddar_obs::{Clock, Counter, Histogram, MonotonicClock, Registry};
use std::sync::Arc;

/// Sampling interval for `locate` latency: a power-of-two mask, so the
/// sampled call is `calls & MASK == 0` (every 1024th call by default —
/// two clock reads plus a histogram record cost ~80 ns, and amortizing
/// them over 1024 calls keeps the per-call tax well under the 5%
/// overhead budget).
pub const LOCATE_SAMPLE_MASK: u64 = 1023;

/// Metric handles for one engine, registered in a shared [`Registry`].
#[derive(Debug)]
pub struct EngineStats {
    /// `AF()` lookups served from the X-cache — every successful
    /// [`Scaddar::locate`](crate::Scaddar::locate); this counter is
    /// also the sampling basis for [`EngineStats::locate_ns`].
    pub xcache_hits: Counter,
    /// Lookups that bypassed the cache and paid the stateless O(j)
    /// fold ([`Scaddar::trace`](crate::Scaddar::trace), oracle paths).
    pub xcache_misses: Counter,
    /// Blocks served through the bulk cache paths (`locate_all`,
    /// `locate_batch`).
    pub locate_bulk_blocks: Counter,
    /// Sampled `locate` latency, nanoseconds.
    pub locate_ns: Histogram,
    /// X-cache epoch advances (one per scaling operation).
    pub xcache_epoch_bumps: Counter,
    /// X-cache rebuilds from scratch (restore, log restart).
    pub xcache_rebuilds: Counter,
    /// `REMAP` pipeline step applications, bulk-counted at the call
    /// sites that fold (cache rebuild/admission, a scale's advance).
    pub pipeline_folds: Counter,
    /// Scaling operations applied.
    pub scale_ops: Counter,
    /// Blocks moved by applied scaling operations (the RO1 numerator;
    /// together with `plan_blocks` this yields the live moved
    /// fraction).
    pub scale_moved_blocks: Counter,
    /// End-to-end `scale()` latency (log push + cache advance + plan).
    pub scale_ns: Histogram,
    /// `RF()` planning latency per operation (the X-cache advance).
    pub plan_ns: Histogram,
    /// Blocks examined by planning passes.
    pub plan_blocks: Counter,
    /// Snapshot bytes encoded.
    pub persist_bytes_written: Counter,
    /// Snapshot bytes decoded (successfully or not).
    pub persist_bytes_read: Counter,
    /// Snapshot decode/validation failures.
    pub persist_validation_failures: Counter,
    /// Time source for the latency histograms.
    pub clock: Arc<dyn Clock>,
    /// Sampling mask for `locate` timing (`calls & mask == 0` samples).
    pub sample_mask: u64,
}

impl EngineStats {
    /// Registers the engine metric family in `registry`, timing with
    /// `clock`.
    pub fn register(registry: &Registry, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(EngineStats {
            xcache_hits: registry.counter(
                "scaddar_core_xcache_hits_total",
                "AF() lookups served from the X-cache",
            ),
            xcache_misses: registry.counter(
                "scaddar_core_xcache_misses_total",
                "Lookups that paid the stateless O(j) fold instead of the cache",
            ),
            locate_bulk_blocks: registry.counter(
                "scaddar_core_locate_bulk_blocks_total",
                "Blocks served through locate_all/locate_batch",
            ),
            locate_ns: registry.histogram(
                "scaddar_core_locate_ns",
                "Sampled AF() lookup latency (ns, 1-in-1024 calls)",
            ),
            xcache_epoch_bumps: registry.counter(
                "scaddar_core_xcache_epoch_bumps_total",
                "X-cache epoch advances (one per scaling operation)",
            ),
            xcache_rebuilds: registry.counter(
                "scaddar_core_xcache_rebuilds_total",
                "X-cache rebuilds from catalog + log",
            ),
            pipeline_folds: registry.counter(
                "scaddar_core_pipeline_folds_total",
                "REMAP pipeline step applications (bulk-counted)",
            ),
            scale_ops: registry
                .counter("scaddar_core_scale_ops_total", "Scaling operations applied"),
            scale_moved_blocks: registry.counter(
                "scaddar_core_scale_moved_blocks_total",
                "Blocks moved by applied scaling operations",
            ),
            scale_ns: registry
                .histogram("scaddar_core_scale_ns", "End-to-end scale() latency (ns)"),
            plan_ns: registry.histogram("scaddar_core_plan_ns", "RF() planning latency (ns)"),
            plan_blocks: registry.counter(
                "scaddar_core_plan_blocks_total",
                "Blocks examined by RF() planning passes",
            ),
            persist_bytes_written: registry.counter(
                "scaddar_core_persist_bytes_written_total",
                "Snapshot bytes encoded",
            ),
            persist_bytes_read: registry.counter(
                "scaddar_core_persist_bytes_read_total",
                "Snapshot bytes decoded",
            ),
            persist_validation_failures: registry.counter(
                "scaddar_core_persist_validation_failures_total",
                "Snapshot decode/validation failures",
            ),
            clock,
            sample_mask: LOCATE_SAMPLE_MASK,
        })
    }

    /// [`EngineStats::register`] with the default wall clock.
    pub fn register_monotonic(registry: &Registry) -> Arc<Self> {
        Self::register(registry, Arc::new(MonotonicClock::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_per_registry() {
        let registry = Registry::new();
        let a = EngineStats::register_monotonic(&registry);
        let b = EngineStats::register_monotonic(&registry);
        a.xcache_hits.inc();
        b.xcache_hits.inc();
        // Both handles point at the same registered counters.
        assert_eq!(a.xcache_hits.get(), 2);
        assert!(registry
            .names()
            .contains(&"scaddar_core_locate_ns".to_string()));
    }
}
