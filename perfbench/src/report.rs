//! Reduces a run's samples to the printed metrics and the report.

use crate::metrics::{all_end_to_end, overhead_name, per_layer_metrics, Metric, END_TO_END};
use crate::scenario::{mean_of, median_of, Samples};
use crate::stats::{percentile, Summary};

fn p99(name: &str, values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile(&sorted, 0.99))
}

/// Every end-to-end measurement of a set of repetitions, in
/// [`all_end_to_end`] order.
pub fn end_to_end(s: &Samples) -> Result<Vec<Metric>, String> {
    let us = |v: f64| v / 1e3;
    all_end_to_end()
        .map(|m| {
            let value = match m.name {
                "setup_s" => median_of(m.name, &s.setup_s)?,
                "lookup_p50_us" => us(mean_of(m.name, &s.seek_slices)?),
                "lookup_p99_us" => us(p99(m.name, &s.seek_ns)?),
                "batch_p50_us" => us(mean_of(m.name, &s.batch_slices)?),
                "batch_p99_us" => us(p99(m.name, &s.batch_ns)?),
                "lookup_rps" => median_of(m.name, &s.phase_rps)?,
                "window_p99_us" => us(p99(m.name, &s.window_ns)?),
                "scale_commit_ms" => median_of(m.name, &s.scale_ms)?,
                "drain_blocks_per_s" => median_of(m.name, &s.drain_rate)?,
                "compact_s" => median_of(m.name, &s.compact_s)?,
                "recover_s" => median_of(m.name, &s.recover_s)?,
                other => return Err(format!("no measurement for {other}")),
            };
            Ok(Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value,
            })
        })
        .collect()
}

/// The bounded subset of [`end_to_end`]'s result.
pub fn bounded(e2e: &[Metric]) -> Vec<Metric> {
    e2e.iter()
        .filter(|m| END_TO_END.iter().any(|d| d.name == m.name))
        .cloned()
        .collect()
}

/// The sample set behind each end-to-end metric, for the report's
/// sample counts and tails.
fn samples_of<'a>(s: &'a Samples, metric: &str) -> Option<(&'a [f64], f64, &'static str)> {
    Some(match metric {
        "setup_s" => (&s.setup_s, 1.0, "s"),
        "lookup_p50_us" | "lookup_p99_us" => (&s.seek_ns, 1e-3, "us"),
        "batch_p50_us" | "batch_p99_us" => (&s.batch_ns, 1e-3, "us"),
        "window_p99_us" => (&s.window_ns, 1e-3, "us"),
        "scale_commit_ms" => (&s.scale_ms, 1.0, "ms"),
        "drain_blocks_per_s" => (&s.drain_rate, 1.0, "1/s"),
        "compact_s" => (&s.compact_s, 1.0, "s"),
        "recover_s" => (&s.recover_s, 1.0, "s"),
        "lookup_rps" => (&s.phase_rps, 1.0, "1/s"),
        _ => return None,
    })
}

/// Prints the end-to-end metrics with sample counts, the deterministic
/// counts, and any failed check.
pub fn print_pass(label: &str, s: &Samples, e2e: &[Metric]) {
    println!("== {label}");
    for m in e2e {
        let detail = samples_of(s, &m.name).map_or_else(String::new, |(values, scale, unit)| {
            let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
            Summary::of(&scaled).map_or_else(String::new, |sum| sum.render(unit))
        });
        println!("  {:<20} {:>14.3} {:<4} {detail}", m.name, m.value, m.unit);
    }
    println!(
        "  error_ratio          {:>14.6} ratio ({} errors + wrong of {} attempted)",
        error_ratio(s),
        s.errors + s.wrong,
        s.attempted
    );
    println!(
        "  hiccup_ratio         {:>14.6} ratio (stream rounds missed / requested)",
        hiccup_ratio(s)
    );
    for c in &s.counts {
        println!("  count: {c}");
    }
    for f in &s.failures {
        println!("  FAILED: {f}");
    }
}

/// Errors, protocol errors and wrong answers over attempts.
pub fn error_ratio(s: &Samples) -> f64 {
    (s.errors + s.wrong) as f64 / s.attempted.max(1) as f64
}

/// Stream rounds missed over stream rounds requested (0 without streams).
pub fn hiccup_ratio(s: &Samples) -> f64 {
    let requested: u64 = s.rounds.iter().map(|r| r.requested).sum();
    let hiccups: u64 = s.rounds.iter().map(|r| r.hiccups).sum();
    hiccups as f64 / requested.max(1) as f64
}

/// The per-layer metrics of a traced run, in [`per_layer_metrics`]
/// order. `s` holds the traced repetitions' samples, `traced` their
/// end-to-end result and `base` the untraced repetitions': the demoted
/// end-to-end metrics come from `base`, and their ratio is the tracing
/// overhead.
pub fn per_layer(s: &Samples, traced: &[Metric], base: &[Metric]) -> Result<Vec<Metric>, String> {
    let encode = median_of("net.wire.encode_ns", &s.codec.encode_ns)?;
    let decode = median_of("net.wire.decode_ns", &s.codec.decode_ns)?;
    let locate = median_of("cmsim.locate_ns", &s.locate_ns)?;
    let lookup_p50_ns = mean_of("lookup", &s.seek_slices)?;
    let mut values: Vec<(String, f64)> = vec![
        ("net.wire.encode_ns".into(), encode),
        ("net.wire.decode_ns".into(), decode),
        (
            "net.wire.bytes_per_request".into(),
            s.lookup_bytes as f64 / s.lookups.max(1) as f64,
        ),
    ];
    let mut phase_p50_sum = 0.0;
    for (stem, hist) in &s.phases {
        let q = |q: f64| hist.quantile(q).unwrap_or(0) as f64;
        phase_p50_sum += q(0.5);
        values.push((format!("net.reactor.{stem}_ns.p50"), q(0.5)));
        values.push((format!("net.reactor.{stem}_ns.p99"), q(0.99)));
    }
    let (mut scanned, mut moved, mut busy) = (0u64, 0u64, 0u64);
    for r in &s.rounds {
        let before = r.backlog + r.moves;
        if before > 0 {
            scanned += before;
            moved += r.moves;
            busy += 1;
        }
    }
    values.extend([
        (
            "net.unexplained_ns".into(),
            lookup_p50_ns - encode - decode - locate,
        ),
        (
            "lookup.unexplained_share".into(),
            1.0 - (encode + decode + phase_p50_sum) / lookup_p50_ns,
        ),
        ("cmsim.locate_ns".into(), locate),
        (
            "cmsim.locate_coalesced_ns".into(),
            median_of("cmsim.locate_coalesced_ns", &s.coalesced_ns)?,
        ),
        (
            "cmsim.tick_ns.p50".into(),
            median_of("cmsim.tick_ns", &s.tick_ns)?,
        ),
        (
            "cmsim.tick_ns.p99".into(),
            p99("cmsim.tick_ns", &s.tick_ns)?,
        ),
        (
            "cmsim.backlog_per_tick".into(),
            scanned as f64 / busy.max(1) as f64,
        ),
        (
            "cmsim.moves_per_tick".into(),
            moved as f64 / busy.max(1) as f64,
        ),
        (
            "cmsim.move_yield".into(),
            moved as f64 / scanned.max(1) as f64,
        ),
        (
            "cmsim.read_stall_ns".into(),
            p99("cmsim.read_stall_ns", &s.read_stall_ns)?,
        ),
        (
            "cmsim.ingest_ns".into(),
            median_of("cmsim.ingest_ns", &s.ingest_ns)?,
        ),
        (
            "cmsim.restore_ns".into(),
            median_of("cmsim.restore_ns", &s.restore_ns)?,
        ),
        ("cmsim.hiccup_ratio".into(), hiccup_ratio(s)),
        (
            "core.from_snapshot_ns".into(),
            median_of("core.from_snapshot_ns", &s.from_snapshot_ns)?,
        ),
        (
            "core.locate_ns".into(),
            median_of("core.locate_ns", &s.core_locate_ns)?,
        ),
        (
            "core.locate_batch_ns".into(),
            median_of("core.locate_batch_ns", &s.core_batch_ns)?,
        ),
        (
            "core.scale_ns".into(),
            median_of("core.scale_ns", &s.core_scale_ns)?,
        ),
        (
            "compact.begin_ns".into(),
            median_of("compact.begin_ns", &s.begin_ns)?,
        ),
        (
            "compact.rounds".into(),
            median_of("compact.rounds", &s.compact_rounds)?,
        ),
    ]);
    for (t, b) in traced.iter().zip(base) {
        values.push((b.name.clone(), b.value));
        values.push((overhead_name(&t.name), t.value / b.value));
    }
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            Ok(Metric { name, unit, value })
        })
        .collect()
}
