//! The metric tables, name rules and the result line.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload's untraced run prints them, and
/// each has a regression bound in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 1] = [def("setup_s", "s", Lower)];

/// Measured end to end like [`END_TO_END`] and printed in every run's
/// report, but too unsteady on a small shared host to carry a bound:
/// the traced run prints them with the per-layer metrics.
pub const DEMOTED: [MetricDef; 10] = [
    def("lookup_p50_us", "us", Lower),
    def("scale_commit_ms", "ms", Lower),
    def("lookup_rps", "1/s", Higher),
    def("compact_s", "s", Lower),
    def("recover_s", "s", Lower),
    def("batch_p50_us", "us", Lower),
    def("lookup_p99_us", "us", Lower),
    def("batch_p99_us", "us", Lower),
    def("window_p99_us", "us", Lower),
    def("drain_blocks_per_s", "1/s", Higher),
];

/// Every end-to-end measurement, bounded ones first.
pub fn all_end_to_end() -> impl Iterator<Item = MetricDef> {
    END_TO_END.into_iter().chain(DEMOTED)
}

/// Per-layer metrics: printed by every workload's traced run, followed
/// by the [`DEMOTED`] end-to-end metrics and one
/// `obs.trace_overhead.<metric>` per end-to-end measurement.
pub const PER_LAYER: [MetricDef; 34] = [
    def("net.wire.encode_ns", "ns", Lower),
    def("net.wire.decode_ns", "ns", Lower),
    def("net.wire.bytes_per_request", "B", Lower),
    def("net.reactor.decode_ns.p50", "ns", Lower),
    def("net.reactor.decode_ns.p99", "ns", Lower),
    def("net.reactor.coalesce_wait_ns.p50", "ns", Lower),
    def("net.reactor.coalesce_wait_ns.p99", "ns", Lower),
    def("net.reactor.lock_wait_ns.p50", "ns", Lower),
    def("net.reactor.lock_wait_ns.p99", "ns", Lower),
    def("net.reactor.engine_ns.p50", "ns", Lower),
    def("net.reactor.engine_ns.p99", "ns", Lower),
    def("net.reactor.encode_ns.p50", "ns", Lower),
    def("net.reactor.encode_ns.p99", "ns", Lower),
    def("net.reactor.write_flush_ns.p50", "ns", Lower),
    def("net.reactor.write_flush_ns.p99", "ns", Lower),
    def("net.unexplained_ns", "ns", Lower),
    def("lookup.unexplained_share", "ratio", Lower),
    def("cmsim.locate_ns", "ns", Lower),
    def("cmsim.locate_coalesced_ns", "ns", Lower),
    def("cmsim.tick_ns.p50", "ns", Lower),
    def("cmsim.tick_ns.p99", "ns", Lower),
    def("cmsim.backlog_per_tick", "count", Lower),
    def("cmsim.moves_per_tick", "count", Higher),
    def("cmsim.move_yield", "ratio", Higher),
    def("cmsim.read_stall_ns", "ns", Lower),
    def("cmsim.ingest_ns", "ns", Lower),
    def("cmsim.restore_ns", "ns", Lower),
    def("cmsim.hiccup_ratio", "ratio", Lower),
    def("core.from_snapshot_ns", "ns", Lower),
    def("core.locate_ns", "ns", Lower),
    def("core.locate_batch_ns", "ns", Lower),
    def("core.scale_ns", "ns", Lower),
    def("compact.begin_ns", "ns", Lower),
    def("compact.rounds", "count", Lower),
];

/// Name of the trace-overhead metric for end-to-end metric `metric`.
pub fn overhead_name(metric: &str) -> String {
    format!("obs.trace_overhead.{metric}")
}

/// One printed metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Every per-layer metric a traced run prints, in order:
/// `(name, unit, better)`.
pub fn per_layer_metrics() -> Vec<(String, &'static str, Better)> {
    PER_LAYER
        .into_iter()
        .chain(DEMOTED)
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .chain(all_end_to_end().map(|m| (overhead_name(m.name), "ratio", Lower)))
        .collect()
}

/// A valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values are refused.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
