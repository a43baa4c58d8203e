//! The live fleet dashboard: `scaddar-console top <addr>` polls a
//! cluster through one [`FleetAggregator`] round per frame and renders
//! every shard's rps / p99 / epoch / health plus the fleet SLO burn
//! gauges — all from federated `ScrapeStats` pulls, never N ad-hoc
//! status probes.
//!
//! ```text
//! scaddar-console top 127.0.0.1:7411              # live, 2s frames
//! scaddar-console top 127.0.0.1:7411 --frames 1   # one frame, exit 0/1/2
//! ```
//!
//! The frame renderer ([`FleetTop::frame`]) is a plain function from a
//! seed address to `(text, exit code)`, so the whole dashboard is
//! unit-testable; the subcommand loop around it only clears the screen
//! and sleeps.

use crate::remote::verdict_exit_code;
use scaddar_cluster::FleetAggregator;
use scaddar_monitor::Severity;
use scaddar_net::{fetch_map, NetClient};
use scaddar_obs::{EventLog, MonotonicClock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// The fleet SLO's latency objective: the stack's north star, a
/// sub-100 µs tail.
const LATENCY_OBJECTIVE_NS: u64 = 100_000;

const TOP_USAGE: &str = "top <addr> [--interval MS] [--frames N]";

/// Parsed `top` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct TopArgs {
    /// Any shard of the cluster (the map is refetched every frame).
    pub addr: String,
    /// Milliseconds between frames.
    pub interval_ms: u64,
    /// Frames to render; 0 = until the process is killed.
    pub frames: usize,
}

impl Default for TopArgs {
    fn default() -> Self {
        TopArgs {
            addr: String::new(),
            interval_ms: 2000,
            frames: 0,
        }
    }
}

/// Parses `top` argv (everything after the subcommand word).
pub fn parse_top_args(args: &[String]) -> Result<TopArgs, String> {
    let mut parsed = TopArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\nusage: {TOP_USAGE}"))
        };
        let bad = |name: &str| format!("{name} needs a numeric value\nusage: {TOP_USAGE}");
        match arg.as_str() {
            "--interval" => {
                parsed.interval_ms = value("--interval")?
                    .parse()
                    .map_err(|_| bad("--interval"))?;
            }
            "--frames" => {
                parsed.frames = value("--frames")?.parse().map_err(|_| bad("--frames"))?;
            }
            other if parsed.addr.is_empty() && !other.starts_with('-') => {
                parsed.addr = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`\nusage: {TOP_USAGE}")),
        }
    }
    if parsed.addr.is_empty() {
        return Err(format!("an address is required\nusage: {TOP_USAGE}"));
    }
    Ok(parsed)
}

/// Turns two `(requests_total, at_ns)` observations into an rps cell.
///
/// Counters are monotone per process, but a shard *restart* resets
/// them to zero — a naive `now - then` underflows (or, with a signed
/// cast, renders a negative rate). The delta is clamped at zero and
/// the caller is told the counter ran backwards so the dashboard can
/// mark the shard `restarted` instead of lying about throughput.
fn rps_cell(prev: Option<(u64, u64)>, requests: u64, at_ns: u64) -> (String, bool) {
    match prev {
        Some((req0, at0)) if at_ns > at0 => {
            let restarted = requests < req0;
            let dt = (at_ns - at0) as f64 / 1e9;
            let delta = requests.saturating_sub(req0);
            (format!("{:.1}/s", delta as f64 / dt), restarted)
        }
        _ => ("-".to_string(), false),
    }
}

/// The dashboard state: one aggregator (so unreachable shards keep
/// their last-known data across frames) plus the previous frame's
/// request totals, which turn monotone counters into per-shard rps.
pub struct FleetTop {
    aggregator: FleetAggregator,
    /// Per-shard `(requests_total, at_ns)` from the previous frame.
    prev: BTreeMap<u32, (u64, u64)>,
}

impl Default for FleetTop {
    fn default() -> Self {
        FleetTop::new()
    }
}

impl FleetTop {
    /// A dashboard with fleet SLO tracking on.
    pub fn new() -> FleetTop {
        let clock = Arc::new(MonotonicClock::new());
        let mut aggregator = FleetAggregator::new(clock.clone());
        aggregator.enable_slo(LATENCY_OBJECTIVE_NS, EventLog::new(clock));
        FleetTop {
            aggregator,
            prev: BTreeMap::new(),
        }
    }

    /// Renders one dashboard frame against `seed`: refetches the
    /// cluster map, scrapes every shard, and returns `(text, exit
    /// code)` — 0/1/2 by the worst of shard health and fleet SLO
    /// severity, 2 when any shard is unreachable. Errors only when the
    /// seed itself yields no map.
    pub fn frame(&mut self, seed: SocketAddr) -> Result<(String, i32), String> {
        let map = fetch_map(&NetClient::connect(seed), 0)
            .map_err(|e| format!("fetch map from {seed}: {e}"))?;
        let mut out = String::new();
        let mut code = 0;
        let mut targets = Vec::new();
        for (shard, addr) in &map.shards {
            match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
                Some(resolved) => targets.push((*shard, resolved)),
                None => {
                    let _ = writeln!(out, "shard {shard:>3} @ {addr} [UNRESOLVABLE]");
                    code = 2;
                }
            }
        }
        let fleet = self.aggregator.scrape(&targets);
        self.aggregator.evaluate_slo(None);
        let slo = self.aggregator.slo_severity().unwrap_or(Severity::Ok);
        let _ = writeln!(
            out,
            "fleet @ {seed} — map v{}, {} shard(s), {} unreachable, slo {}",
            map.version,
            fleet.shards.len(),
            fleet.unreachable_shards().len(),
            slo.label().to_uppercase(),
        );
        let mut epochs = Vec::new();
        let mut prev = BTreeMap::new();
        for s in &fleet.shards {
            let verdict = match s.verdict {
                0 => "ok",
                1 => "WARN",
                _ => "CRIT",
            };
            let requests = s.requests_total();
            let (rps, restarted) =
                rps_cell(self.prev.get(&s.shard).copied(), requests, s.scraped_at_ns);
            let state = match (s.reachable, restarted) {
                (false, _) => "UNREACHABLE",
                (true, true) => "up restarted",
                (true, false) => "up",
            };
            let compaction = s
                .compaction()
                .map_or(String::new(), |c| format!(" {}", c.render()));
            let _ = writeln!(
                out,
                "shard {:>3} @ {} [{state}] epoch={} health={verdict} requests={requests} \
                 ({rps}) p99={} stale={}ms{compaction}",
                s.shard,
                s.addr,
                s.epoch,
                s.request_p99()
                    .map_or_else(|| "-".to_string(), |v| format!("{v}ns")),
                s.staleness_ns(fleet.at_ns) / 1_000_000,
            );
            if s.reachable {
                epochs.push(s.epoch);
                code = code.max(i32::from(s.verdict));
            } else {
                code = 2;
            }
            prev.insert(s.shard, (requests, s.scraped_at_ns));
        }
        self.prev = prev;
        match (epochs.iter().min(), epochs.iter().max()) {
            (Some(lo), Some(hi)) if lo == hi => {
                let _ = writeln!(out, "epochs aligned @ {lo}");
            }
            (Some(lo), Some(hi)) => {
                let _ = writeln!(out, "epochs {lo}..{hi} (migration in flight)");
            }
            _ => {}
        }
        if let Some(monitor) = self.aggregator.slo_monitor() {
            let burn = monitor.tracker().burn_rates();
            let _ = writeln!(
                out,
                "burn availability: short={:.2} long={:.2} | latency: short={:.2} long={:.2}",
                burn.availability.short,
                burn.availability.long,
                burn.latency.short,
                burn.latency.long,
            );
        }
        code = code.max(verdict_exit_code(slo));
        Ok((out.trim_end().to_string(), code))
    }
}

/// The `top` subcommand: render frames until the count (or the
/// operator) stops it. Returns the last frame's exit code.
pub fn run_top(args: &[String]) -> i32 {
    let parsed = match parse_top_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let seed = match parsed
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(addr) => addr,
        None => {
            eprintln!("top: cannot resolve `{}`", parsed.addr);
            return 2;
        }
    };
    let mut top = FleetTop::new();
    let mut frame = 0usize;
    loop {
        match top.frame(seed) {
            Ok((text, code)) => {
                if parsed.frames == 0 {
                    // Live mode: repaint in place.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{text}");
                frame += 1;
                if parsed.frames > 0 && frame >= parsed.frames {
                    return code;
                }
            }
            Err(msg) => {
                eprintln!("top: {msg}");
                return 2;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(parsed.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{boot_daemon, parse_serve_args};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn top_args_parse_and_validate() {
        assert!(parse_top_args(&[]).is_err());
        let parsed = parse_top_args(&args(&["127.0.0.1:7411"])).unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:7411");
        assert_eq!(parsed.interval_ms, 2000);
        assert_eq!(parsed.frames, 0);
        let parsed = parse_top_args(&args(&[
            "localhost:9",
            "--interval",
            "100",
            "--frames",
            "3",
        ]))
        .unwrap();
        assert_eq!((parsed.interval_ms, parsed.frames), (100, 3));
        assert!(parse_top_args(&args(&["--interval", "x"])).is_err());
        assert!(parse_top_args(&args(&["a", "b"])).is_err());
    }

    /// Two-shard cluster, two frames: the first has no rps baseline,
    /// the second shows one; killing a shard flips it to UNREACHABLE
    /// with exit code 2 while its last-known data stays on screen.
    #[test]
    fn top_frames_render_a_live_fleet_and_flag_dead_shards() {
        let one = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "2000",
            "--shard",
            "1",
        ]))
        .unwrap();
        let (shard1, _rt1) = boot_daemon(&one).unwrap();
        let zero = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "2000",
            "--shard",
            "0",
            "--peers",
            &format!("1={}", shard1.local_addr()),
        ]))
        .unwrap();
        let (shard0, _rt0) = boot_daemon(&zero).unwrap();

        let mut top = FleetTop::new();
        let (text, code) = top.frame(shard0.local_addr()).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("2 shard(s), 0 unreachable, slo OK"), "{text}");
        assert!(text.contains("shard   0 @"), "{text}");
        assert!(text.contains("shard   1 @"), "{text}");
        assert!(text.contains("(-)"), "first frame has no rps baseline");
        assert!(text.contains("burn availability:"), "{text}");
        assert!(text.contains("gen 0"), "compaction cell renders: {text}");

        // Serve some traffic, then the next frame has an rps figure.
        let client = NetClient::connect(shard0.local_addr());
        for _ in 0..20 {
            client.ping().unwrap();
        }
        let (text, code) = top.frame(shard0.local_addr()).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("/s)"), "second frame shows rps: {text}");

        // Kill shard 1: unreachable, exit 2, last-known data retained.
        shard1.shutdown();
        let (text, code) = top.frame(shard0.local_addr()).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("1 unreachable"), "{text}");
        assert!(text.contains("[UNREACHABLE]"), "{text}");
        shard0.shutdown();
    }

    /// The restart clamp: a counter that runs backwards (shard restart
    /// between scrapes) renders a zero rate and a `restarted` flag —
    /// never a negative or underflowed rps figure.
    #[test]
    fn rps_cell_clamps_restarts_at_zero() {
        // No baseline yet: dash, not restarted.
        assert_eq!(rps_cell(None, 100, 1_000_000_000), ("-".into(), false));
        // Same timestamp (clock didn't advance): no division by zero.
        assert_eq!(
            rps_cell(Some((50, 1_000_000_000)), 100, 1_000_000_000),
            ("-".into(), false)
        );
        // Normal forward progress: 50 requests over 1s.
        assert_eq!(
            rps_cell(Some((50, 1_000_000_000)), 100, 2_000_000_000),
            ("50.0/s".into(), false)
        );
        // Restart: the counter reset below the baseline. Clamped to
        // zero and flagged.
        assert_eq!(
            rps_cell(Some((5000, 1_000_000_000)), 12, 2_000_000_000),
            ("0.0/s".into(), true)
        );
    }

    #[test]
    fn top_frame_errors_on_a_dead_seed() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(FleetTop::new().frame(dead).is_err());
        assert_eq!(run_top(&args(&["not an addr"])), 2);
        assert_eq!(run_top(&[]), 2);
    }
}
