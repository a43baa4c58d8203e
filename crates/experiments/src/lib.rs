//! # scaddar-experiments — regenerating the paper's tables and figures
//!
//! One binary per experiment (see `DESIGN.md` §4 for the index, and
//! `EXPERIMENTS.md` for paper-vs-measured records):
//!
//! | binary | experiment | paper source |
//! |--------|------------|--------------|
//! | `exp_fig1_naive` | E1/E2 | §4.1 Figure 1 + RO2-violation census |
//! | `exp_worked_examples` | E3 | §4.2.1 removal walkthroughs |
//! | `exp_rule_of_thumb` | E4 | §4.3 rule-of-thumb table |
//! | `exp_cov` | E5/E12 | §5 CoV-vs-operations figure |
//! | `exp_movement` | E6 | RO1: moved fraction vs optimal `z_j` |
//! | `exp_unfairness` | E7 | §4.3 bound vs measured unfairness |
//! | `exp_online` | E9 | online scaling: hiccups & drain time |
//! | `exp_mirroring` | E10 | §6 mirroring fault tolerance |
//! | `exp_baselines` | E11 | modern comparators ablation |
//! | `exp_storage` | Appendix A | directory vs scaling-log metadata |
//!
//! Every binary prints its tables to stdout and writes CSV series under
//! `target/experiments/` (see [`scaddar_analysis::experiment_dir`]).
//!
//! This library crate holds the shared setup: the paper's §5 catalog,
//! standard schedules, and strategy construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scaddar_analysis::Csv;
use scaddar_baselines::BlockKey;
use scaddar_core::{Catalog, ScalingOp};
use scaddar_prng::{Bits, RngKind};
use std::path::PathBuf;

/// The paper's §5 experimental setup: "eight scaling operations performed
/// on 20 different objects", `b = 32`, disks hovering around 8.
pub struct PaperSetup;

impl PaperSetup {
    /// Number of objects (§5: 20).
    pub const OBJECTS: u32 = 20;
    /// Blocks per object. The paper says "tens of thousands of blocks"
    /// per object for real servers (Appendix A); we default to 5 000 per
    /// object (100k total) to keep every experiment under a second while
    /// keeping binomial noise ~0.3%.
    pub const BLOCKS_PER_OBJECT: u64 = 5_000;
    /// Initial disks (§5: average of 8).
    pub const INITIAL_DISKS: u32 = 8;
    /// Bit width (§5: 32).
    pub const BITS: Bits = Bits::B32;
    /// Fairness tolerance (§5: 5%).
    pub const EPSILON: f64 = 0.05;

    /// Builds the 20-object catalog.
    pub fn catalog(seed: u64) -> Catalog {
        let mut c = Catalog::new(RngKind::SplitMix64, Self::BITS, seed);
        for _ in 0..Self::OBJECTS {
            c.add_object(Self::BLOCKS_PER_OBJECT);
        }
        c
    }

    /// The catalog flattened into harness keys.
    pub fn population(seed: u64) -> Vec<BlockKey> {
        catalog_population(&Self::catalog(seed))
    }
}

/// Flattens any catalog into harness block keys (ordinal = catalog
/// order, id = `X_0`).
pub fn catalog_population(catalog: &Catalog) -> Vec<BlockKey> {
    catalog
        .iter_x0()
        .enumerate()
        .map(|(ordinal, (_, x0))| BlockKey {
            ordinal: ordinal as u64,
            id: x0,
        })
        .collect()
}

/// A schedule alternating remove-disk-0 / add-one, hovering around the
/// starting disk count — the worst case for range shrinkage.
pub fn churn(n: usize) -> Vec<ScalingOp> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                ScalingOp::remove_one(0)
            } else {
                ScalingOp::Add { count: 1 }
            }
        })
        .collect()
}

/// Writes a CSV into the conventional experiment directory and returns
/// the path (also printed by callers for discoverability).
pub fn write_csv(name: &str, csv: &Csv) -> PathBuf {
    let path = scaddar_analysis::experiment_dir().join(name);
    csv.write_to(&path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Prints the standard experiment header.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("=== {id}: {title}");
    println!("    paper: {paper_ref}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_population_size() {
        let pop = PaperSetup::population(1);
        assert_eq!(pop.len(), 100_000);
        // 32-bit ids.
        assert!(pop.iter().all(|k| k.id <= u64::from(u32::MAX)));
        // Ordinals are dense.
        assert!(pop.iter().enumerate().all(|(i, k)| k.ordinal == i as u64));
    }

    #[test]
    fn schedules_have_expected_shape() {
        let c = churn(4);
        assert_eq!(c[0], ScalingOp::remove_one(0));
        assert_eq!(c[1], ScalingOp::Add { count: 1 });
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn write_csv_lands_in_experiment_dir() {
        std::env::set_var(
            "SCADDAR_EXPERIMENT_DIR",
            std::env::temp_dir().join("scaddar-exp-test"),
        );
        let mut csv = Csv::new(["a"]);
        csv.row(["1"]);
        let path = write_csv("unit_test.csv", &csv);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
        std::env::remove_var("SCADDAR_EXPERIMENT_DIR");
    }
}
