//! A failing seed's `replay:` line must reproduce the failure: run
//! through the harness binary, whose own argument parser reads its
//! flags, it fails the same seed on the same invariant. A planted bug
//! named in the wrong mode is a usage error.

use scaddar_harness::cluster::{run_cluster_seed, ClusterMutation};
use scaddar_harness::run_seed;
use scaddar_harness::scenario::Mutation;
use std::process::{Command, Output};

fn harness(seed: Option<&str>, flags: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scaddar-harness"));
    cmd.env_remove("HARNESS_SEED").args(flags);
    if let Some(seed) = seed {
        cmd.env("HARNESS_SEED", seed);
    }
    cmd.output().expect("the harness binary runs")
}

/// The `[invariant]` tag of a report's first failure.
fn first_failure_tag(report: &str) -> &str {
    let line = report
        .lines()
        .find(|l| l.contains(": FAIL ["))
        .unwrap_or_else(|| panic!("no failure in:\n{report}"));
    let from = line.find('[').unwrap();
    &line[from..=from + line[from..].find(']').unwrap()]
}

/// Reruns the replay line of `report` (a failing seed's rendering)
/// through the binary and checks it fails the same way.
fn replay_fails_alike(report: &str) {
    let line = report
        .lines()
        .find_map(|l| l.strip_prefix("replay: "))
        .expect("a failing report prints a replay line");
    let (env, command) = line.split_once(' ').expect("env assignment, then command");
    let seed = env.strip_prefix("HARNESS_SEED=").expect("seed in env");
    let (cargo, flags) = command.split_once(" -- ").unwrap_or((command, ""));
    assert_eq!(cargo, "cargo run --release -p scaddar-harness");
    let flags: Vec<&str> = flags.split_whitespace().collect();

    let rerun = harness(Some(seed), &flags);
    let stdout = String::from_utf8(rerun.stdout).unwrap();
    assert_eq!(rerun.status.code(), Some(1), "`{line}` passed:\n{stdout}");
    assert_eq!(first_failure_tag(&stdout), first_failure_tag(report));
    // Same mode and seed: "seed N:" or "cluster seed N:".
    assert!(stdout.starts_with(&report[..=report.find(':').unwrap()]));
}

#[test]
fn single_node_replay_line_replays_the_planted_bug() {
    let report = (0..64u64)
        .map(|seed| run_seed(seed, Mutation::Ro1AddOffByOne))
        .find(|report| !report.passed())
        .expect("a seed in 0..64 trips the planted RO1 bug");
    replay_fails_alike(&report.render());
}

#[test]
fn cluster_replay_line_replays_the_planted_bug() {
    let report = (0..24u64)
        .map(|seed| run_cluster_seed(seed, ClusterMutation::RouteIgnoreNewestShard))
        .find(|report| !report.passed())
        .expect("a seed in 0..24 trips the planted routing bug");
    replay_fails_alike(&report.render());
}

#[test]
fn a_bug_planted_in_the_wrong_mode_is_a_usage_error() {
    for flags in [
        &["--plant-bug", "route"][..],
        &["--cluster", "--plant-bug", "ro1"],
        &["--cluster", "--plant-bug", "misplace"],
    ] {
        let out = harness(None, flags);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} ran seeds");
    }
}
