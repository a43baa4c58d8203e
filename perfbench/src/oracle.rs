//! The answer oracle: an independent [`Scaddar`] engine built from the
//! same configuration and operator script as the server, plus the
//! disk array that maps its logical disks to physical ids. Every reply
//! the benchmark receives is checked against it.

use crate::workload::{Step, Workload, INITIAL_DISKS};
use cmsim::{DiskArray, DiskSpec, ServerConfig};
use scaddar_core::{ObjectId, RecordAction, Scaddar, ScaddarConfig, ScalingOp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Placement the server may serve at one point of the script.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The serving generation's engine.
    pub engine: Scaddar,
    /// During a compaction, the generation being migrated to: a block
    /// answers from either generation.
    pub staging: Option<Scaddar>,
    /// Logical to physical disk mapping, as the server assigns it.
    pub disks: DiskArray,
    /// After a restore, the mapping a server that kept its physical ids
    /// across the restart would serve. `CmServer::restore` renumbers
    /// them instead (see [`Placement::restored`]); batch answers are
    /// accepted under either mapping, so neither behaviour is reported
    /// as a wrong answer.
    pub kept: Option<DiskArray>,
}

impl Placement {
    /// The placement a freshly ingested server of `w` serves.
    pub fn initial(w: &Workload, config: &ServerConfig) -> Placement {
        let mut engine = Scaddar::new(
            ScaddarConfig::new(config.initial_disks)
                .with_bits(config.bits)
                .with_rng(config.rng)
                .with_catalog_seed(config.catalog_seed)
                .with_epsilon(config.epsilon),
        )
        .expect("valid engine config");
        for _ in 0..w.objects {
            engine.add_object(w.blocks_per_object);
        }
        Placement {
            engine,
            staging: None,
            disks: DiskArray::new(
                INITIAL_DISKS,
                DiskSpec {
                    bandwidth: config.disk_bandwidth,
                    capacity: config.disk_capacity,
                },
            ),
            kept: None,
        }
    }

    /// The placement a server restored from a snapshot of this one
    /// serves: the same engine, with physical disk ids re-derived by
    /// replaying the scaling log from its initial disk count, as
    /// `CmServer::restore` does. (After a compaction the log restarts,
    /// so physical ids are renumbered even though every block keeps
    /// its logical disk.) The mapping before the restart is carried
    /// on in `kept`.
    pub fn restored(&self) -> Placement {
        let log = self.engine.log();
        let any = self.disks.physical(scaddar_core::DiskIndex(0));
        let mut disks = DiskArray::new(log.initial_disks(), self.disks.spec(any));
        for record in log.records() {
            let op = match record.action() {
                RecordAction::Added { count } => ScalingOp::Add { count: *count },
                RecordAction::Removed(set) => ScalingOp::Remove {
                    disks: set.indices().to_vec(),
                },
            };
            disks.apply(&op).expect("logged ops are valid");
        }
        Placement {
            engine: self.engine.clone(),
            staging: None,
            disks,
            kept: Some(self.kept.as_ref().unwrap_or(&self.disks).clone()),
        }
    }

    /// The physical mappings a batch answer may use.
    fn mappings(&self) -> impl Iterator<Item = &DiskArray> {
        std::iter::once(&self.disks).chain(self.kept.as_ref())
    }

    fn header_ok(&self, epoch: u64, disks: u32) -> bool {
        epoch == self.engine.epoch() as u64 && disks == self.disks.disks()
    }

    fn generations(&self) -> impl Iterator<Item = &Scaddar> {
        std::iter::once(&self.engine).chain(self.staging.as_ref())
    }

    /// Is `Located{epoch, disks, disk}` a correct answer to a `Locate`
    /// of `(object, block)` here? `disk` is a logical index.
    pub fn check_one(&self, object: u64, block: u64, epoch: u64, disks: u32, disk: u64) -> bool {
        self.header_ok(epoch, disks)
            && self.generations().any(|e| {
                e.locate(ObjectId(object), block)
                    .is_ok_and(|d| u64::from(d.0) == disk)
            })
    }

    /// Is `BatchLocated{epoch, disks, locations}` a correct answer to a
    /// `LocateBatch` of `blocks`? Locations are physical ids, all under
    /// one of the placement's mappings.
    pub fn check_batch(
        &self,
        object: u64,
        blocks: std::ops::Range<u64>,
        epoch: u64,
        disks: u32,
        locations: &[u64],
    ) -> bool {
        if !self.header_ok(epoch, disks) || locations.len() as u64 != blocks.end - blocks.start {
            return false;
        }
        self.mappings().any(|m| {
            blocks.clone().zip(locations).all(|(block, &loc)| {
                self.generations().any(|e| {
                    e.locate(ObjectId(object), block)
                        .is_ok_and(|d| m.physical(d).0 == loc)
                })
            })
        })
    }

    /// Blocks whose physical disk differs between `self` and `next`:
    /// the moves an idle server must queue to get from one to the other.
    pub fn moves_to(&self, next: &Scaddar, next_disks: &DiskArray) -> u64 {
        let mut moved = 0;
        for obj in self.engine.catalog().objects() {
            let old = self.engine.locate_all(obj.id).expect("catalog object");
            let new = next.locate_all(obj.id).expect("same catalog");
            moved += old
                .iter()
                .zip(&new)
                .filter(|(o, n)| self.disks.physical(**o) != next_disks.physical(**n))
                .count() as u64;
        }
        moved
    }
}

/// The oracle's expectation for one script step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOracle {
    /// Index of the first placement the step can serve after its ack.
    pub first: usize,
    /// Index of the placement once the step has completed.
    pub last: usize,
    /// Moves the server must queue for the step (the `MovePlan` count
    /// for a scaling op, the migration moves for a compaction).
    pub moves: u64,
}

/// Every placement one repetition of the script passes through, in
/// order, with the expectation for each step.
#[derive(Debug)]
pub struct Timeline {
    /// `states[0]` is the placement before the script.
    pub states: Vec<Placement>,
    /// One entry per script step.
    pub steps: Vec<StepOracle>,
    /// `Scaddar::scale` times on the oracle's cloned engine, in ns.
    pub scale_ns: Vec<f64>,
}

impl Timeline {
    /// Plays `script` on the oracle from `start`.
    pub fn build(start: Placement, script: &[Step]) -> Timeline {
        let mut states = vec![start];
        let mut steps = Vec::with_capacity(script.len());
        let mut scale_ns = Vec::new();
        for step in script {
            let prev = states.last().expect("non-empty").clone();
            match step {
                Step::Scale(op) => {
                    let mut engine = prev.engine.clone();
                    let t = Instant::now();
                    let plan = engine.scale(op.clone()).expect("generated op is valid");
                    scale_ns.push(t.elapsed().as_nanos() as f64);
                    let apply = |d: &DiskArray| {
                        let mut d = d.clone();
                        d.apply(op).expect("generated op is valid");
                        d
                    };
                    let (disks, kept) = (apply(&prev.disks), prev.kept.as_ref().map(apply));
                    let idx = states.len();
                    steps.push(StepOracle {
                        first: idx,
                        last: idx,
                        moves: plan.moves.len() as u64,
                    });
                    states.push(Placement {
                        engine,
                        staging: None,
                        disks,
                        kept,
                    });
                }
                Step::Compact => {
                    let next = prev.engine.open_next_generation();
                    let moves = prev.moves_to(&next, &prev.disks);
                    let idx = states.len();
                    steps.push(StepOracle {
                        first: idx,
                        last: idx + 1,
                        moves,
                    });
                    states.push(Placement {
                        engine: prev.engine.clone(),
                        staging: Some(next.clone()),
                        ..prev.clone()
                    });
                    states.push(Placement {
                        engine: next,
                        staging: None,
                        ..prev
                    });
                }
            }
        }
        Timeline {
            states,
            steps,
            scale_ns,
        }
    }
}

/// Which placements a lookup may legally observe right now. The
/// operator raises `upper` before sending a step and `lower` once the
/// step is acknowledged (or complete), so a request that read `lower`
/// before it was sent and `upper` after its reply arrived was served by
/// one of `states[lower..=upper]`.
#[derive(Debug)]
pub struct View<'a> {
    /// The repetition's placements.
    pub states: &'a [Placement],
    /// Lowest placement a request sent now can be served by.
    pub lower: AtomicUsize,
    /// Highest placement a reply received now can come from.
    pub upper: AtomicUsize,
}

impl<'a> View<'a> {
    /// A view fixed at `states[at]`.
    pub fn at(states: &'a [Placement], at: usize) -> View<'a> {
        View {
            states,
            lower: AtomicUsize::new(at),
            upper: AtomicUsize::new(at),
        }
    }

    /// Read before sending a request.
    pub fn low(&self) -> usize {
        self.lower.load(Ordering::SeqCst)
    }

    /// Read after its reply arrived.
    pub fn high(&self) -> usize {
        self.upper.load(Ordering::SeqCst)
    }

    /// Placements a request sent at `low` and answered now may come from.
    pub fn candidates(&self, low: usize) -> &'a [Placement] {
        let high = self.high().min(self.states.len() - 1);
        &self.states[low.min(high)..=high]
    }
}
