//! CLI for the deterministic simulation harness.
//!
//! ```text
//! scaddar-harness [--seed N] [--runs K] [--plant-bug ro1|misplace]
//!                 [--events-out PATH]
//! scaddar-harness --cluster [--seed N] [--runs K] [--plant-bug route]
//! ```
//!
//! - `--seed N` (or env `HARNESS_SEED=N`): first seed; default 1.
//! - `--runs K`: run seeds `N, N+1, …, N+K-1`; default 1.
//! - `--plant-bug ro1`: run the model with the planted RO1 off-by-one,
//!   to demonstrate detection + shrinking end to end.
//! - `--plant-bug misplace`: plant silent data rot in the server after
//!   the last step; the health monitor must raise `ro2-misplacement`.
//! - `--events-out PATH`: write every run's health-monitor JSONL event
//!   log to `PATH`.
//! - `--cluster`: run seeded *cluster* scenarios instead — a real
//!   loopback multi-shard cluster with kills, partitions, restarts,
//!   and online scale, checked against the independent jump-hash
//!   routing model. `--plant-bug route` plants the model-side routing
//!   bug the cluster shrinker must catch and minimize.
//!
//! A bug planted in the other mode is a usage error (exit 2). Exit code
//! 0 iff every seed passed. Same seed → byte-identical output; a failing
//! seed's `replay:` line carries the flags that reproduce it.

use scaddar_harness::cluster::ClusterMutation;
use scaddar_harness::scenario::Mutation;
use scaddar_harness::{run_seed, Mode};

const USAGE: &str = "\
usage: scaddar-harness [--seed N] [--runs K] [--plant-bug ro1|misplace] [--events-out PATH]
       scaddar-harness --cluster [--seed N] [--runs K] [--plant-bug route]
env: HARNESS_SEED=N sets the first seed";

fn main() {
    let mut seed: u64 = std::env::var("HARNESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut runs: u64 = 1;
    let mut cluster = false;
    let mut bug = None;
    let mut events_out = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    while let Some(flag) = args.next() {
        match flag {
            "--seed" => seed = integer(args.next(), flag),
            "--runs" => runs = integer(args.next(), flag),
            "--plant-bug" => bug = Some(value(args.next(), "--plant-bug expects a bug name")),
            "--cluster" => cluster = true,
            "--events-out" => events_out = Some(value(args.next(), "--events-out expects a path")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }

    let seeds = seed..seed.saturating_add(runs);
    let failures = if cluster {
        run_seeds::<ClusterMutation>(seeds, bug, events_out)
    } else {
        run_seeds::<Mutation>(seeds, bug, events_out)
    };
    if runs > 1 {
        println!("{}/{runs} seeds passed", runs - failures);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Runs and prints `seeds` in mode `M` with the bug named `bug` planted,
/// writes the event log if asked, and returns the number of failures.
fn run_seeds<M: Mode>(
    seeds: std::ops::Range<u64>,
    bug: Option<&str>,
    events_out: Option<&str>,
) -> u64 {
    let mutation = match bug {
        None => M::default(),
        Some(name) => M::plant(name).unwrap_or_else(|| {
            let mode = M::FLAG.unwrap_or("single-node");
            let bugs: Vec<&str> = M::BUGS.iter().map(|(n, _)| *n).collect();
            die(&format!(
                "--plant-bug {name:?} is not a {mode} bug (it takes {})\n{USAGE}",
                bugs.join("|")
            ))
        }),
    };
    let mut failures = 0u64;
    let mut events = String::new();
    for s in seeds {
        let report = run_seed(s, mutation);
        print!("{}", report.render());
        events.push_str(M::events(&report.outcome));
        if !report.passed() {
            failures += 1;
        }
    }
    if let Some(path) = events_out {
        if let Err(e) = std::fs::write(path, &events) {
            die(&format!("writing health events to {path}: {e}"));
        }
        eprintln!(
            "scaddar-harness: wrote {} health event(s) to {path}",
            events.lines().count()
        );
    }
    failures
}

fn integer(value: Option<&str>, flag: &str) -> u64 {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => die(&format!("{flag} expects an integer value")),
    }
}

fn value<'a>(value: Option<&'a str>, missing: &str) -> &'a str {
    value.unwrap_or_else(|| die(missing))
}

fn die(msg: &str) -> ! {
    eprintln!("scaddar-harness: {msg}");
    std::process::exit(2)
}
