//! The profiler console: `scaddar-console profile <addr>` pulls the
//! daemon's always-on cooperative profiler over the wire
//! ([`Frame::ProfileDump`](scaddar_net::Frame::ProfileDump)), diffs
//! two dumps into a windowed interval profile, and renders either a
//! human summary (per-thread residency percentages) or folded-stack
//! text ready for `flamegraph.pl`.
//!
//! ```text
//! scaddar-console profile 127.0.0.1:7411                 # 2s window
//! scaddar-console profile 127.0.0.1:7411 --seconds 0     # since boot
//! scaddar-console profile 127.0.0.1:7411 --folded > p.folded
//! ```
//!
//! Like `top` and `cluster-status`, the subcommand body is a plain
//! function from inputs to `(text, exit code)` so the whole surface is
//! unit-testable; the only side effects live in [`run_profile`].

use scaddar_net::NetClient;
use scaddar_obs::{ProfileSnapshot, THREAD_STATE_NAMES};
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

const PROFILE_USAGE: &str = "profile <addr> [--seconds N] [--folded]";

/// Parsed `profile` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileArgs {
    /// The daemon to profile.
    pub addr: String,
    /// Window length between the two dumps; 0 = one cumulative dump
    /// (everything since the daemon booted).
    pub seconds: u64,
    /// Emit folded-stack text (`thread;state count`) instead of the
    /// human summary.
    pub folded: bool,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        ProfileArgs {
            addr: String::new(),
            seconds: 2,
            folded: false,
        }
    }
}

/// Parses `profile` argv (everything after the subcommand word).
pub fn parse_profile_args(args: &[String]) -> Result<ProfileArgs, String> {
    let mut parsed = ProfileArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seconds" => {
                parsed.seconds = iter
                    .next()
                    .ok_or_else(|| format!("--seconds needs a value\nusage: {PROFILE_USAGE}"))?
                    .parse()
                    .map_err(|_| {
                        format!("--seconds needs a numeric value\nusage: {PROFILE_USAGE}")
                    })?;
            }
            "--folded" => parsed.folded = true,
            other if parsed.addr.is_empty() && !other.starts_with('-') => {
                parsed.addr = other.to_string();
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: {PROFILE_USAGE}"
                ))
            }
        }
    }
    if parsed.addr.is_empty() {
        return Err(format!("an address is required\nusage: {PROFILE_USAGE}"));
    }
    Ok(parsed)
}

/// Captures a profile from `addr`: one cumulative dump when `seconds`
/// is 0, otherwise two dumps bracketing the wait injected by `sleep`
/// (the interval hook is a parameter so tests can drive traffic
/// instead of blocking). The diff is taken with
/// [`ProfileSnapshot::since`], so a daemon restart between dumps
/// degrades to saturating zeros, never an underflow.
pub fn capture_profile(
    addr: SocketAddr,
    seconds: u64,
    sleep: impl FnOnce(Duration),
) -> Result<ProfileSnapshot, String> {
    let client = NetClient::connect(addr);
    let first = client
        .profile_dump()
        .map_err(|e| format!("profile dump from {addr}: {e}"))?;
    if seconds == 0 {
        return Ok(first);
    }
    sleep(Duration::from_secs(seconds));
    let second = client
        .profile_dump()
        .map_err(|e| format!("profile dump from {addr}: {e}"))?;
    Ok(second.since(&first))
}

/// Renders a captured profile: folded-stack text when `folded`,
/// otherwise a per-thread residency table (states sorted by share,
/// zero rows elided).
pub fn render_profile(
    addr: SocketAddr,
    seconds: u64,
    profile: &ProfileSnapshot,
    folded: bool,
) -> String {
    if folded {
        // `render_folded` ends with a newline; the caller's `println!`
        // restores it, so trim here to avoid a trailing blank line.
        return profile.render_folded().trim_end().to_string();
    }
    let window = if seconds == 0 {
        "since boot".to_string()
    } else {
        format!("{seconds}s window")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile of {addr} — {window}, {} round(s), {} thread(s), {} distinct state(s)",
        profile.rounds,
        profile.threads.len(),
        profile.distinct_states(),
    );
    for thread in &profile.threads {
        let mut states: Vec<(usize, u64)> = thread
            .counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect();
        states.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total = thread.samples.max(1) as f64;
        let cells: Vec<String> = states
            .iter()
            .map(|&(i, n)| {
                let name = THREAD_STATE_NAMES
                    .get(i)
                    .map_or_else(|| format!("state{i}"), |s| (*s).to_string());
                format!("{name} {:.1}%", n as f64 * 100.0 / total)
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<24} {:>8} samples: {}",
            thread.name,
            thread.samples,
            if cells.is_empty() {
                "(no samples)".to_string()
            } else {
                cells.join(", ")
            },
        );
    }
    out.trim_end().to_string()
}

/// The `profile` subcommand: capture, render, print. Exit 0 on
/// success, 2 on usage or transport errors.
pub fn run_profile(args: &[String]) -> i32 {
    let parsed = match parse_profile_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let addr = match parsed
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(addr) => addr,
        None => {
            eprintln!("profile: cannot resolve `{}`", parsed.addr);
            return 2;
        }
    };
    match capture_profile(addr, parsed.seconds, std::thread::sleep) {
        Ok(profile) => {
            println!(
                "{}",
                render_profile(addr, parsed.seconds, &profile, parsed.folded)
            );
            0
        }
        Err(msg) => {
            eprintln!("profile: {msg}");
            2
        }
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
    fn profile_args_parse_and_validate() {
        assert!(parse_profile_args(&[]).is_err());
        let parsed = parse_profile_args(&args(&["127.0.0.1:7411"])).unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:7411");
        assert_eq!(parsed.seconds, 2);
        assert!(!parsed.folded);
        let parsed =
            parse_profile_args(&args(&["localhost:9", "--seconds", "0", "--folded"])).unwrap();
        assert_eq!(parsed.seconds, 0);
        assert!(parsed.folded);
        assert!(parse_profile_args(&args(&["--seconds", "x"])).is_err());
        assert!(parse_profile_args(&args(&["a", "b"])).is_err());
    }

    /// End-to-end against a live daemon: the interval hook drives
    /// traffic instead of sleeping, the windowed profile conserves,
    /// the summary names the reactor workers, and the folded output
    /// parses line-by-line as `thread;state count`.
    #[test]
    fn profile_captures_a_live_daemon_and_renders_both_forms() {
        let serve =
            parse_serve_args(&args(&["--addr", "127.0.0.1:0", "--blocks", "2000"])).unwrap();
        let (daemon, _rt) = boot_daemon(&serve).unwrap();
        let addr = daemon.local_addr();

        // Warm the profiler: traffic + a beat for the 1 kHz sampler.
        let client = NetClient::connect(addr);
        for _ in 0..50 {
            client.locate(0, 7).unwrap();
        }
        std::thread::sleep(Duration::from_millis(30));

        // seconds=0: cumulative dump since boot.
        let cumulative = capture_profile(addr, 0, |_| unreachable!()).unwrap();
        assert!(cumulative.rounds > 0, "sampler never ran");
        assert!(cumulative.threads.iter().all(|t| t.conserves()));

        // seconds>0: the hook stands in for the wall-clock wait and
        // keeps the daemon busy so the window has residency to show.
        let profile = capture_profile(addr, 1, |_| {
            for _ in 0..200 {
                client.locate(0, 7).unwrap();
            }
            std::thread::sleep(Duration::from_millis(30));
        })
        .unwrap();
        assert!(profile.threads.iter().all(|t| t.conserves()));

        let summary = render_profile(addr, 1, &profile, false);
        assert!(summary.contains("1s window"), "{summary}");
        assert!(summary.contains("scaddard-worker-0"), "{summary}");
        assert!(summary.contains("samples:"), "{summary}");

        let folded = render_profile(addr, 0, &cumulative, true);
        assert!(!folded.is_empty(), "folded output empty");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(stack.contains(';'), "stack `{stack}` has no state frame");
            count.parse::<u64>().expect("folded count numeric");
        }

        daemon.shutdown();
    }

    #[test]
    fn run_profile_rejects_bad_input_and_dead_daemons() {
        assert_eq!(run_profile(&[]), 2);
        assert_eq!(run_profile(&args(&["not an addr"])), 2);
        assert_eq!(run_profile(&args(&["127.0.0.1:1", "--seconds", "0"])), 2);
    }
}
