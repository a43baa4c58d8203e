//! Seeded scenario generation: one `u64` seed determines the whole run —
//! initial array shape, object catalog, every scaling operation, every
//! workload phase, and the injected fault plan.
//!
//! Raw generated values are *loose* (removal victims are arbitrary
//! `u64` picks, sizes are unclamped); [`crate::exec`] normalizes them
//! against live state at execution time. Loose-generate/strict-execute
//! is what makes shrinking easy: any substructure can be dropped or
//! reduced and the scenario stays executable.

use proptest::test_runner::TestRng;
use scaddar_core::ScalingOp;
use scaddar_prng::Bits;

/// Which variant of the remap arithmetic the *model* runs — the planted
/// bug the acceptance tests require the harness to catch and shrink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful copy of `REMAP` (Eqs. 3 and 5): the clean run.
    #[default]
    None,
    /// Off-by-one in the copy of `REMAP_add`: `t <= N_{j-1}` instead of
    /// `t < N_{j-1}`, so the boundary draw `t == N_{j-1}` is wrongly
    /// treated as "keep" — an RO1 violation the invariants must flag.
    Ro1AddOffByOne,
    /// Silent data rot planted in the *server*, not the model: after the
    /// scenario completes, one resident block is relocated behind the
    /// engine's back via `CmServer::inject_misplacement`. The model stays
    /// faithful; the health monitor's exact RO2 conformance probe must
    /// raise an `ro2-misplacement` alert or the run fails.
    MisplaceBlock,
}

/// A fault injected around one scaling operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Crash before the post-op snapshot persists: recovery replays the
    /// journal on top of the previous snapshot and must land on the
    /// uncrashed placement.
    CrashBeforePersist,
    /// Crash right after persisting: recovery from the fresh snapshot
    /// must be placement-identical.
    CrashAfterPersist,
    /// The persisted snapshot is truncated at `cut % len` bytes; decode
    /// must error, and recovery must fall back to the last valid one.
    TruncatedSnapshot {
        /// Raw cut-point pick (normalized modulo snapshot length).
        cut: u64,
    },
    /// A single bit `bit % (len*8)` of the snapshot flips; decode must
    /// error (CRC32 catches all 1-bit errors) or be placement-identical.
    BitFlippedSnapshot {
        /// Raw bit-position pick.
        bit: u64,
    },
    /// One disk dies after the op: with mirroring on, no block may be
    /// lost, and a cloned server must keep serving via mirror failover.
    DiskDeath {
        /// Raw victim pick (normalized modulo disk count).
        pick: u64,
    },
    /// Concurrent readers against a [`cmsim::SharedServer`] while the op
    /// commits: every read must observe one consistent epoch.
    StaleEpochReads {
        /// Reads per reader thread.
        reads: u32,
    },
}

impl Fault {
    /// Compact stable label for traces.
    pub fn label(&self) -> String {
        match self {
            Fault::CrashBeforePersist => "crash-before-persist".into(),
            Fault::CrashAfterPersist => "crash-after-persist".into(),
            Fault::TruncatedSnapshot { cut } => format!("truncate({cut})"),
            Fault::BitFlippedSnapshot { bit } => format!("bitflip({bit})"),
            Fault::DiskDeath { pick } => format!("disk-death({pick})"),
            Fault::StaleEpochReads { reads } => format!("stale-reads({reads})"),
        }
    }
}

/// One step of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Apply a scaling operation (normalized at exec time) with a fault
    /// plan around it.
    Scale {
        /// The raw operation.
        op: ScalingOp,
        /// Faults to inject around this operation.
        faults: Vec<Fault>,
    },
    /// Register a new object of roughly `blocks` blocks.
    AddObject {
        /// Raw size pick (clamped at exec time).
        blocks: u64,
    },
    /// Remove the `pick % live`-th object (skipped if it would empty
    /// the catalog).
    RemoveObject {
        /// Raw object pick.
        pick: u64,
    },
    /// Run the closed-loop workload for `1 + rounds % 5` rounds.
    Workload {
        /// Raw round pick.
        rounds: u32,
    },
    /// Rehash-compact to the next generation (collapsing the REMAP
    /// chain); `kill` optionally names a disk (raw pick, normalized at
    /// exec time) to fail mid-migration on a cloned server, which must
    /// still complete the flip without losing a block.
    Compact {
        /// Raw mid-migration kill victim, if any.
        kill: Option<u64>,
    },
}

/// A fully seeded test scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The driving seed (also used as catalog seed).
    pub seed: u64,
    /// Placement width `b` of the engine and the server: 64-bit for odd
    /// seeds, 32-bit for even ones, so both X-cache word widths run the
    /// whole invariant catalog ([`Scenario::bits_for`]).
    pub bits: Bits,
    /// Initial disk count `N_0`.
    pub initial_disks: u32,
    /// Initial object sizes (blocks).
    pub objects: Vec<u64>,
    /// The step sequence.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// Deterministically generates the scenario for `seed`.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = TestRng::new(seed ^ 0x5CAD_DA25_CADD_A25C);
        let initial_disks = 4 + rng.below(9) as u32; // 4..=12
        let objects: Vec<u64> = (0..2 + rng.below(3))
            .map(|_| 300 + rng.below(901))
            .collect();
        let steps = (0..6 + rng.below(9)).map(|_| gen_step(&mut rng)).collect();
        Scenario {
            seed,
            bits: Scenario::bits_for(seed),
            initial_disks,
            objects,
            steps,
        }
    }

    /// The placement width of `seed`'s scenario. Read from the seed's
    /// low bit, not drawn from the scenario RNG, so every other draw of
    /// an existing seed is unchanged.
    pub fn bits_for(seed: u64) -> Bits {
        if seed & 1 == 1 {
            Bits::B64
        } else {
            Bits::B32
        }
    }

    /// Number of scale steps (the measure the planted-bug acceptance
    /// criterion bounds after shrinking).
    pub fn scale_ops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Scale { .. }))
            .count()
    }

    /// A stable multi-line description (for reproducer printouts).
    pub fn describe(&self) -> String {
        let mut out = format!(
            "seed={} bits={} disks={} objects={:?}\n",
            self.seed,
            self.bits.get(),
            self.initial_disks,
            self.objects
        );
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Scale { op, faults } => {
                    let labels: Vec<String> = faults.iter().map(Fault::label).collect();
                    out.push_str(&format!(
                        "  {i}: scale {op:?} faults=[{}]\n",
                        labels.join(",")
                    ));
                }
                Step::AddObject { blocks } => {
                    out.push_str(&format!("  {i}: add-object {blocks}\n"));
                }
                Step::RemoveObject { pick } => {
                    out.push_str(&format!("  {i}: remove-object {pick}\n"));
                }
                Step::Workload { rounds } => {
                    out.push_str(&format!("  {i}: workload {rounds}\n"));
                }
                Step::Compact { kill: Some(pick) } => {
                    out.push_str(&format!("  {i}: compact kill({pick})\n"));
                }
                Step::Compact { kill: None } => {
                    out.push_str(&format!("  {i}: compact\n"));
                }
            }
        }
        out
    }
}

fn gen_step(rng: &mut TestRng) -> Step {
    match rng.below(10) {
        0..=3 => {
            let op = if rng.below(2) == 0 {
                ScalingOp::Add {
                    count: 1 + rng.below(3) as u32,
                }
            } else {
                let victims = 1 + rng.below(2) as usize;
                ScalingOp::Remove {
                    disks: (0..victims).map(|_| rng.next_u64() as u32).collect(),
                }
            };
            let faults = if rng.below(2) == 0 {
                vec![gen_fault(rng)]
            } else {
                Vec::new()
            };
            Step::Scale { op, faults }
        }
        4 => Step::AddObject {
            blocks: 50 + rng.below(1_200),
        },
        5 => Step::RemoveObject {
            pick: rng.next_u64(),
        },
        6 | 7 => Step::Workload {
            rounds: rng.below(16) as u32,
        },
        _ => Step::Compact {
            kill: (rng.below(2) == 0).then(|| rng.next_u64()),
        },
    }
}

fn gen_fault(rng: &mut TestRng) -> Fault {
    match rng.below(6) {
        0 => Fault::CrashBeforePersist,
        1 => Fault::CrashAfterPersist,
        2 => Fault::TruncatedSnapshot {
            cut: rng.next_u64(),
        },
        3 => Fault::BitFlippedSnapshot {
            bit: rng.next_u64(),
        },
        4 => Fault::DiskDeath {
            pick: rng.next_u64(),
        },
        _ => Fault::StaleEpochReads {
            reads: 32 + rng.below(97) as u32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn generated_shapes_are_in_band() {
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            assert!((4..=12).contains(&s.initial_disks));
            assert!((2..=4).contains(&s.objects.len()));
            assert!((6..=14).contains(&s.steps.len()));
            for o in &s.objects {
                assert!((300..=1_200).contains(o));
            }
        }
    }

    #[test]
    fn seeds_cover_every_step_and_fault_kind() {
        let (mut scale, mut add, mut remove, mut work) = (0, 0, 0, 0);
        let (mut compact, mut compact_kill) = (0, 0);
        let mut fault_kinds = std::collections::BTreeSet::new();
        for seed in 0..300u64 {
            for step in Scenario::generate(seed).steps {
                match step {
                    Step::Scale { faults, .. } => {
                        scale += 1;
                        for f in faults {
                            let label = f.label();
                            let kind = label.split('(').next().expect("nonempty").to_string();
                            fault_kinds.insert(kind);
                        }
                    }
                    Step::AddObject { .. } => add += 1,
                    Step::RemoveObject { .. } => remove += 1,
                    Step::Workload { .. } => work += 1,
                    Step::Compact { kill } => {
                        compact += 1;
                        if kill.is_some() {
                            compact_kill += 1;
                        }
                    }
                }
            }
        }
        assert!(scale > 0 && add > 0 && remove > 0 && work > 0);
        assert!(compact > 0, "compaction steps generated");
        assert!(compact_kill > 0, "kill-during-compaction steps generated");
        assert_eq!(fault_kinds.len(), 6, "every fault kind generated");
    }
}
