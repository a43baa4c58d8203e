//! Loopback load harness: boots `scaddard` in-process and measures the
//! serving layer end-to-end, emitting criterion-shim-compatible JSON
//! that `bench_gate` checks against the gate table
//! (`scaddar_bench::gate::GATES`).
//!
//! Per server mode (`--mode event-loop`, `--mode threaded`, or the
//! default `--mode both` for the A/B table), three passes:
//!
//! 1. **Mixed closed-loop** — the full configuration (per-endpoint
//!    histograms, spans) under the seeded locate/batch/scale mixture;
//!    this pass supplies the round-trip latency percentiles and
//!    error/consistency counts.
//! 2. **Pipelined throughput** — a locate-heavy pipelined workload
//!    (windowed, many frames in flight per connection) that gives the
//!    event loop's cross-connection coalescing something to coalesce;
//!    this pass supplies the throughput headline and the amortized
//!    per-request p999.
//! 3. **Overhead** (primary mode only) — a locate-only closed loop,
//!    instrumented vs bare, in alternating pairs of passes; the median
//!    per-pair ratio of mean ns-per-request is gated at ≤ 1.10 (same
//!    discipline as the obs and monitor overhead rows).
//!
//! ```text
//! cargo run --release -p scaddar-net --bin scaddard-load -- \
//!     [--mode event-loop|threaded|both] [--seed N] [--clients N] \
//!     [--requests N] [--scale-ops N] [--window N] [--out PATH]
//! cargo run -p scaddar-bench --bin bench_gate
//! ```
//!
//! The report goes to `--out`, or else to `net_load.json` in
//! `CRITERION_JSON_DIR` (default `target/criterion-json`), where the
//! criterion shim writes the benches' reports and `bench_gate` reads.
//!
//! The event-loop rows keep the historical `net_load/*` names (the
//! headline); threaded rows land under `net_load_threaded/*` so the
//! gate table can take the A/B throughput ratio.
//!
//! Exits nonzero on any protocol error or epoch-consistency violation
//! in any pass, so CI can gate directly on the run.

use scaddar_analysis::percentile;
use scaddar_net::{LoadConfig, LoadReport, LoopMode, NetServerConfig, Scaddard, ServerMode};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Blocks in the served object for every pass.
const OBJECT_BLOCKS: u64 = 50_000;

/// Alternating bare/instrumented pass pairs in the overhead pass.
const OVERHEAD_PAIRS: usize = 61;

fn boot(mode: ServerMode, instrument: bool) -> Scaddard {
    let mut server = cmsim::CmServer::new(cmsim::ServerConfig::new(4).with_catalog_seed(0xBEEF))
        .expect("server");
    server.add_object(OBJECT_BLOCKS).expect("object");
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
    Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(cmsim::SharedServer::new(server)),
        NetServerConfig {
            instrument,
            ..NetServerConfig::default()
        }
        .with_mode(mode),
        &registry,
        tracer,
    )
    .expect("bind loopback")
}

/// Mean service nanoseconds per completed locate request.
fn mean_locate_ns(report: &LoadReport) -> f64 {
    if report.locate.count == 0 {
        return 0.0;
    }
    report.locate.mean as f64
}

fn push_result(out: &mut String, group: &str, bench: &str, ns: f64, iterations: u64) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    write!(
        out,
        "    {{\"group\": \"{group}\", \"bench\": \"{bench}\", \"ns_per_iter\": {ns:.3}, \"iterations\": {iterations}}}"
    )
    .expect("write to string");
}

fn mode_label(mode: ServerMode) -> &'static str {
    match mode {
        ServerMode::EventLoop => "event-loop",
        ServerMode::Threaded => "threaded",
    }
}

struct ModeMeasurement {
    mixed: LoadReport,
    pipelined: LoadReport,
}

/// Passes 1 and 2 for one server mode.
fn measure_mode(
    mode: ServerMode,
    seed: u64,
    clients: usize,
    requests: u64,
    scale_ops: u32,
    window: usize,
) -> ModeMeasurement {
    let daemon = boot(mode, true);
    let mixed = scaddar_net::run_load(
        daemon.local_addr(),
        &LoadConfig {
            seed,
            clients,
            requests_per_client: requests,
            object_blocks: OBJECT_BLOCKS,
            scale_ops,
            ..LoadConfig::default()
        },
    );
    daemon.shutdown();
    println!(
        "{} mixed: {} requests in {:?} ({:.0} rps), locate p50/p95/p99/p999 = {}/{}/{}/{} ns, \
         epochs {}, errors {}, protocol errors {}, torn reads {}",
        mode_label(mode),
        mixed.requests,
        mixed.elapsed,
        mixed.throughput_rps,
        mixed.locate.p50,
        mixed.locate.p95,
        mixed.locate.p99,
        mixed.locate.p999,
        mixed.epochs_observed,
        mixed.errors,
        mixed.protocol_errors,
        mixed.consistency_violations,
    );

    // Throughput pass: pipelined windows, locate-heavy (one batch per
    // 32 requests keeps the mixture honest without letting batch
    // payloads dominate the byte counts).
    let daemon = boot(mode, true);
    let pipelined = scaddar_net::run_load(
        daemon.local_addr(),
        &LoadConfig {
            seed,
            clients,
            requests_per_client: requests.saturating_mul(8),
            object_blocks: OBJECT_BLOCKS,
            scale_ops,
            batch_every: 32,
            mode: LoopMode::Pipelined { window },
            ..LoadConfig::default()
        },
    );
    daemon.shutdown();
    println!(
        "{} pipelined (window {window}): {} requests in {:?} ({:.0} rps), amortized locate \
         p50/p999 = {}/{} ns, errors {}, protocol errors {}, torn reads {}",
        mode_label(mode),
        pipelined.requests,
        pipelined.elapsed,
        pipelined.throughput_rps,
        pipelined.locate.p50,
        pipelined.locate.p999,
        pipelined.errors,
        pipelined.protocol_errors,
        pipelined.consistency_violations,
    );
    ModeMeasurement { mixed, pipelined }
}

/// Where the report goes without `--out`: `net_load.json` in the
/// criterion shim's `CRITERION_JSON_DIR` when it is set, else in the
/// shim's default `target/criterion-json`, so `bench_gate` reads it
/// beside the benches' reports. Its own stem (not `net.json`, which the
/// codec bench owns): the shim writes one file per stem.
fn default_out_path(json_dir: Option<String>) -> PathBuf {
    PathBuf::from(json_dir.unwrap_or_else(|| "target/criterion-json".into())).join("net_load.json")
}

fn clean(report: &LoadReport) -> bool {
    report.protocol_errors == 0 && report.consistency_violations == 0
}

fn main() {
    let mut seed = 0xC0FFEEu64;
    let mut clients = 8usize;
    let mut requests = 600u64;
    let mut scale_ops = 2u32;
    let mut window = 64usize;
    let mut modes: Vec<ServerMode> = vec![ServerMode::EventLoop, ServerMode::Threaded];
    let mut out_path = default_out_path(std::env::var("CRITERION_JSON_DIR").ok());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed").parse().expect("numeric --seed"),
            "--clients" => clients = value("--clients").parse().expect("numeric --clients"),
            "--requests" => requests = value("--requests").parse().expect("numeric --requests"),
            "--scale-ops" => scale_ops = value("--scale-ops").parse().expect("numeric --scale-ops"),
            "--window" => window = value("--window").parse().expect("numeric --window"),
            "--mode" => {
                modes = match value("--mode").as_str() {
                    "event-loop" => vec![ServerMode::EventLoop],
                    "threaded" => vec![ServerMode::Threaded],
                    "both" => vec![ServerMode::EventLoop, ServerMode::Threaded],
                    other => panic!("--mode must be event-loop, threaded, or both (got {other})"),
                }
            }
            "--out" => out_path = value("--out").into(),
            other => {
                eprintln!(
                    "unknown argument `{other}`\nusage: scaddard-load \
                     [--mode event-loop|threaded|both] [--seed N] [--clients N] [--requests N] \
                     [--scale-ops N] [--window N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut results = String::new();
    let mut all_clean = true;
    let primary_mode = modes[0];
    for &mode in &modes {
        let m = measure_mode(mode, seed, clients, requests, scale_ops, window);
        all_clean &= clean(&m.mixed) && clean(&m.pipelined);
        // Event-loop rows keep the historical headline names; the
        // threaded reference gets its own group for the A/B speedup.
        let group = match mode {
            ServerMode::EventLoop => "net_load",
            ServerMode::Threaded => "net_load_threaded",
        };
        for (bench, ns) in [
            ("locate_p50", m.mixed.locate.p50 as f64),
            ("locate_p95", m.mixed.locate.p95 as f64),
            ("locate_p99", m.mixed.locate.p99 as f64),
            ("locate_p999", m.mixed.locate.p999 as f64),
            ("batch_p99", m.mixed.locate_batch.p99 as f64),
            ("pipelined_p50", m.pipelined.locate.p50 as f64),
            ("pipelined_p999", m.pipelined.locate.p999 as f64),
        ] {
            push_result(&mut results, group, bench, ns, m.mixed.requests);
        }
        // Non-latency facts ride in `ns_per_iter` too: the shim format
        // has one numeric field, and bench_gate reads it verbatim.
        for (bench, v) in [
            ("throughput_rps", m.pipelined.throughput_rps),
            ("closed_loop_rps", m.mixed.throughput_rps),
            ("requests", (m.mixed.requests + m.pipelined.requests) as f64),
            ("errors", (m.mixed.errors + m.pipelined.errors) as f64),
            (
                "protocol_errors",
                (m.mixed.protocol_errors + m.pipelined.protocol_errors) as f64,
            ),
            (
                "consistency_violations",
                (m.mixed.consistency_violations + m.pipelined.consistency_violations) as f64,
            ),
            ("epochs_observed", m.mixed.epochs_observed as f64),
        ] {
            push_result(&mut results, group, bench, v, 1);
        }
    }

    // Overhead pass (primary mode): locate-only closed loop,
    // instrumented vs bare. Same seed, same shape, only `instrument`
    // differs. Loopback round-trips are scheduler-noisy, so the two
    // configurations alternate over `OVERHEAD_PAIRS` pairs of passes
    // and the gate reads the median per-pair ratio, as it does for the
    // criterion shim's paired rows. The `bare` and `instrumented` rows
    // keep each side's *minimum* mean, its least-disturbed pass.
    let overhead_config = LoadConfig {
        seed,
        clients: clients.min(4),
        requests_per_client: requests,
        object_blocks: OBJECT_BLOCKS,
        scale_ops: 0,
        batch_every: 0,
        ..LoadConfig::default()
    };
    let mut bare_runs = Vec::new();
    let mut inst_runs = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        let daemon = boot(primary_mode, false);
        bare_runs.push(scaddar_net::run_load(daemon.local_addr(), &overhead_config));
        daemon.shutdown();
        let daemon = boot(primary_mode, true);
        inst_runs.push(scaddar_net::run_load(daemon.local_addr(), &overhead_config));
        daemon.shutdown();
    }
    let best = |runs: &[LoadReport]| {
        runs.iter()
            .map(mean_locate_ns)
            .fold(f64::INFINITY, f64::min)
    };
    let (bare_ns, inst_ns) = (best(&bare_runs), best(&inst_runs));
    all_clean &= bare_runs.iter().chain(inst_runs.iter()).all(clean);
    let ratios: Vec<f64> = inst_runs
        .iter()
        .zip(&bare_runs)
        .map(|(inst, bare)| {
            let bare = mean_locate_ns(bare);
            if bare > 0.0 {
                mean_locate_ns(inst) / bare
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let median = percentile(&ratios, 0.5);
    let iqr = percentile(&ratios, 0.75) - percentile(&ratios, 0.25);
    println!(
        "overhead ({}): bare {bare_ns:.0} ns/locate, instrumented {inst_ns:.0} ns/locate \
         (median per-pair ratio {median:.4}, IQR {iqr:.4})",
        mode_label(primary_mode),
    );
    push_result(
        &mut results,
        "net_locate_overhead",
        "bare",
        bare_ns,
        bare_runs[0].locate.count,
    );
    push_result(
        &mut results,
        "net_locate_overhead",
        "instrumented",
        inst_ns,
        inst_runs[0].locate.count,
    );
    write!(
        results,
        ",\n    {{\"pair\": \"net_locate_overhead/instrumented / net_locate_overhead/bare\", \
         \"ratio_median\": {median:.4}, \"ratio_iqr\": {iqr:.4}, \"pairs\": {OVERHEAD_PAIRS}}}"
    )
    .expect("write to string");

    let json = format!("{{\"bench\": \"net_load\", \"results\": [\n{results}\n]}}\n");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, &json).expect("write report");
    println!("scaddard-load: wrote {}", out_path.display());

    if !all_clean {
        eprintln!("scaddard-load: FAILED (protocol errors or torn epochs observed)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lands_in_the_criterion_json_dir() {
        assert_eq!(
            default_out_path(Some("/tmp/gate".into())),
            PathBuf::from("/tmp/gate/net_load.json")
        );
        assert_eq!(
            default_out_path(None),
            PathBuf::from("target/criterion-json/net_load.json")
        );
    }
}
