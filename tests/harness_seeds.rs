//! Fixed seeds through the deterministic simulation harness, so the
//! root package's tests exercise the same invariant catalog as
//! `scaddar-harness`: single-node scenarios (including a disk killed
//! mid-compaction) and one seeded multi-shard cluster scenario.
//!
//! A failure prints the harness's own report, with the shrunk
//! reproducer and its replay line.

use scaddar_harness::cluster::{run_cluster_seed, ClusterMutation};
use scaddar_harness::run_seed;
use scaddar_harness::scenario::{Mutation, Scenario, Step};

/// Seed 5 compacts twice, each time with a disk killed mid-migration.
const KILL_DURING_COMPACTION: u64 = 5;

#[test]
fn single_node_seeds_pass() {
    let scenario = Scenario::generate(KILL_DURING_COMPACTION);
    assert!(
        scenario
            .steps
            .iter()
            .any(|s| matches!(s, Step::Compact { kill: Some(_) })),
        "seed {KILL_DURING_COMPACTION} no longer compacts under a kill:\n{}",
        scenario.describe()
    );
    // Seed 3 never compacts; seed 8 compacts with no kill.
    for seed in [3, KILL_DURING_COMPACTION, 8] {
        let report = run_seed(seed, Mutation::None);
        assert!(report.passed(), "{}", report.render());
    }
}

#[test]
fn cluster_seed_passes() {
    let report = run_cluster_seed(50, ClusterMutation::None);
    assert!(report.passed(), "{}", report.render());
}
