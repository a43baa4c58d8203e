//! Server telemetry: the registry-backed metric handles a [`CmServer`]
//! records into when observability is attached.
//!
//! [`crate::metrics::Metrics`] keeps the windowed per-round records the
//! experiments consume; `ServerStats` is the *export surface* — the same
//! totals as lock-free registry counters plus gauges and latency
//! histograms, renderable as Prometheus text or a JSON snapshot. When
//! stats are attached, [`crate::metrics::Metrics::push`] mirrors every
//! round into the registry, so a `RoundRecord`'s running totals and the
//! registry never disagree.
//!
//! Naming follows `DESIGN.md` §9: `cmsim_<subsystem>_<what>[_total]`,
//! with per-disk series labeled inline
//! (`cmsim_disk_queue_depth{disk="3"}`).
//!
//! [`CmServer`]: crate::server::CmServer

use crate::disk::PhysicalDiskId;
use scaddar_obs::{Clock, Counter, Gauge, Histogram, MonotonicClock, Registry};
use std::sync::Arc;

/// Metric handles for one simulated server.
#[derive(Debug)]
pub struct ServerStats {
    /// Service rounds simulated (`tick` calls).
    pub rounds: Counter,
    /// Blocks requested by playing streams.
    pub requested: Counter,
    /// Blocks delivered on time.
    pub served: Counter,
    /// Requests that missed their round.
    pub hiccups: Counter,
    /// Requests served from a §6 mirror after a disk failure.
    pub recovered: Counter,
    /// Redistribution block-moves completed.
    pub moves: Counter,
    /// Redistribution moves queued by `scale()`.
    pub moves_queued: Counter,
    /// Pending redistribution moves right now.
    pub backlog: Gauge,
    /// Live streams right now.
    pub active_streams: Gauge,
    /// Streams admitted.
    pub streams_opened: Counter,
    /// Streams that finished playback (or were reaped with their
    /// object).
    pub streams_closed: Counter,
    /// Online scaling operations accepted.
    pub scale_ops: Counter,
    /// End-to-end `scale()` latency (plan + queue), nanoseconds.
    pub scale_ns: Histogram,
    /// Per-round `tick()` latency, nanoseconds.
    pub tick_ns: Histogram,
    /// Unexpected disk failures injected.
    pub disk_failures: Counter,
    /// Round records evicted from the in-memory retention window.
    pub rounds_evicted: Counter,
    /// Rehash compactions begun.
    pub compactions_started: Counter,
    /// Rehash compactions that flipped to the new generation.
    pub compactions_completed: Counter,
    /// 1 while a compaction is migrating blocks, else 0.
    pub compaction_active: Gauge,
    /// The placement generation currently serving.
    pub compaction_generation: Gauge,
    /// The generation an in-flight compaction is migrating toward.
    pub compaction_target_generation: Gauge,
    /// Blocks an in-flight compaction has not yet migrated.
    pub compaction_remaining: Gauge,
    /// Blocks the in-flight compaction must account for.
    pub compaction_total: Gauge,
    /// Time source for the latency histograms.
    pub clock: Arc<dyn Clock>,
    registry: Registry,
}

impl ServerStats {
    /// Registers the server metric family in `registry`, timing with
    /// `clock`.
    pub fn register(registry: &Registry, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(ServerStats {
            rounds: registry.counter("cmsim_server_rounds_total", "Service rounds simulated"),
            requested: registry.counter(
                "cmsim_streams_requested_total",
                "Blocks requested by playing streams",
            ),
            served: registry.counter("cmsim_streams_served_total", "Blocks delivered on time"),
            hiccups: registry.counter(
                "cmsim_streams_hiccups_total",
                "Requests that missed their round (stream stalls)",
            ),
            recovered: registry.counter(
                "cmsim_recovery_mirror_reads_total",
                "Requests served from a mirror after a disk failure",
            ),
            moves: registry.counter(
                "cmsim_redistribution_moves_total",
                "Redistribution block-moves completed",
            ),
            moves_queued: registry.counter(
                "cmsim_redistribution_moves_queued_total",
                "Redistribution moves queued by scale()",
            ),
            backlog: registry.gauge("cmsim_server_backlog", "Pending redistribution moves"),
            active_streams: registry.gauge("cmsim_server_active_streams", "Live streams"),
            streams_opened: registry.counter("cmsim_streams_opened_total", "Streams admitted"),
            streams_closed: registry.counter(
                "cmsim_streams_closed_total",
                "Streams that finished playback or were reaped",
            ),
            scale_ops: registry.counter(
                "cmsim_server_scale_ops_total",
                "Online scaling operations accepted",
            ),
            scale_ns: registry.histogram(
                "cmsim_server_scale_ns",
                "End-to-end scale() latency: plan + queue (ns)",
            ),
            tick_ns: registry.histogram("cmsim_server_tick_ns", "Per-round tick() latency (ns)"),
            disk_failures: registry.counter(
                "cmsim_faults_disk_failures_total",
                "Unexpected disk failures injected",
            ),
            rounds_evicted: registry.counter(
                "cmsim_metrics_rounds_evicted_total",
                "Round records evicted from the retention window",
            ),
            compactions_started: registry.counter(
                "cmsim_compactions_started_total",
                "Rehash compactions begun",
            ),
            compactions_completed: registry.counter(
                "cmsim_compactions_completed_total",
                "Rehash compactions that flipped to the new generation",
            ),
            compaction_active: registry.gauge(
                "cmsim_compaction_active",
                "1 while a rehash compaction is migrating blocks",
            ),
            compaction_generation: registry.gauge(
                "cmsim_compaction_generation",
                "Placement generation currently serving",
            ),
            compaction_target_generation: registry.gauge(
                "cmsim_compaction_target_generation",
                "Generation an in-flight compaction is migrating toward",
            ),
            compaction_remaining: registry.gauge(
                "cmsim_compaction_remaining_blocks",
                "Blocks an in-flight compaction has not yet migrated",
            ),
            compaction_total: registry.gauge(
                "cmsim_compaction_total_blocks",
                "Blocks the in-flight compaction must account for",
            ),
            clock,
            registry: registry.clone(),
        })
    }

    /// [`ServerStats::register`] with the default wall clock.
    pub fn register_monotonic(registry: &Registry) -> Arc<Self> {
        Self::register(registry, Arc::new(MonotonicClock::new()))
    }

    /// Per-disk gauge: pending moves sourced from `disk`. Labeled
    /// series are registered on first touch and stable thereafter.
    pub fn disk_queue_depth(&self, disk: PhysicalDiskId) -> Gauge {
        self.registry.gauge(
            &format!("cmsim_disk_queue_depth{{disk=\"{}\"}}", disk.0),
            "Pending redistribution moves sourced from this disk",
        )
    }

    /// Per-disk gauge: blocks resident on `disk` (the load census).
    pub fn disk_load(&self, disk: PhysicalDiskId) -> Gauge {
        self.registry.gauge(
            &format!("cmsim_disk_load_blocks{{disk=\"{}\"}}", disk.0),
            "Blocks resident on this disk",
        )
    }
}

/// A count as a gauge value, saturating at `i64::MAX`.
pub(crate) fn gauge(count: u64) -> i64 {
    count.min(i64::MAX as u64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_disk_gauges_are_stable_labeled_series() {
        let registry = Registry::new();
        let stats = ServerStats::register_monotonic(&registry);
        stats.disk_queue_depth(PhysicalDiskId(3)).set(7);
        stats.disk_queue_depth(PhysicalDiskId(3)).add(-2);
        assert_eq!(stats.disk_queue_depth(PhysicalDiskId(3)).get(), 5);
        stats.disk_load(PhysicalDiskId(0)).set(100);
        let text = registry.render_prometheus();
        assert!(text.contains("cmsim_disk_queue_depth{disk=\"3\"} 5"));
        assert!(text.contains("cmsim_disk_load_blocks{disk=\"0\"} 100"));
    }
}
