//! Cluster-mode harness: seeded multi-shard scenarios with kills,
//! partitions, restarts, and online scale-out/in, cross-checked after
//! every step against an **independent** routing model.
//!
//! The model ([`RoutingModel`]) reimplements jump consistent hash from
//! the Lamping & Veach equations with its own code shape — it shares
//! no routing code with `scaddar_net::cluster` — so a divergence
//! anywhere in the stack (client map-chasing, shard gate, migration
//! plumbing) is an exact failure on a specific object, not a
//! statistical smell. Three invariants run against it:
//!
//! * **`cluster-routing-agree`** — every lookup the seeded load
//!   completes landed on the model's owner;
//! * **`cluster-epoch-single`** — direct probes of every shard find at
//!   most one serving any sampled object;
//! * **`cluster-migration-delta`** — each scale-out/in migrated
//!   exactly the model's predicted delta, within the analytic
//!   fraction + 6σ.
//!
//! Same seed → byte-identical trace (the cluster runs under a
//! [`VirtualClock`] and the trace records only logical events). The
//! mode plugs into the harness's shared pipeline as the [`Mode`] of
//! [`ClusterMutation`]: on failure the scenario shrinks through the
//! same delta-debugging loop ([`minimize`]) as the single-node harness,
//! over cluster candidates built from the `proptest` shim's shrinking
//! vocabulary.

use crate::invariants::{
    check_cluster_epoch_single, check_cluster_migration_delta, check_cluster_routing_agree,
    check_federation_agreement, check_profile_conserves, check_trace_complete, Failure,
};
use crate::Mode;
use proptest::shrink::halvings;
use proptest::test_runner::TestRng;
use scaddar_cluster::{
    Cluster, ClusterConfig, FleetAggregator, IngestError, MigrationRecord, ProbeResult,
};
use scaddar_net::{ClusterClient, NetClient};
use scaddar_obs::{Tracer, VirtualClock};
use std::fmt::Write as _;
use std::sync::Arc;

pub use crate::run_seed as run_cluster_seed;
pub use crate::shrink::minimize;

/// Which routing arithmetic the *model* runs — the plantable bug the
/// cluster acceptance tests require the harness to catch and shrink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ClusterMutation {
    /// Faithful jump hash: the clean run.
    #[default]
    None,
    /// The model routes over `n - 1` buckets whenever the cluster has
    /// more than one shard — as if the newest shard never existed. The
    /// first load step over a multi-shard cluster diverges on every
    /// object the real map sends to the last bucket, so
    /// `cluster-routing-agree` must fire and shrink to a tiny
    /// reproducer.
    RouteIgnoreNewestShard,
}

/// Independent copy of the jump-consistent-hash bucket function,
/// written from the paper's equations (loop-and-advance form, distinct
/// from `scaddar_net::jump_hash`'s while-guard form). Same LCG
/// constant, same floating-point expression, so a faithful
/// implementation agrees bit-for-bit.
fn owning_bucket(object: u64, buckets: u32) -> u32 {
    debug_assert!(buckets > 0);
    let mut state = object;
    let mut bucket: u64 = 0;
    loop {
        state = state
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(1);
        let draw = ((state >> 33) + 1) as f64;
        let candidate = ((bucket as f64 + 1.0) * (2_147_483_648.0 / draw)) as u64;
        if candidate >= u64::from(buckets) {
            return bucket as u32;
        }
        bucket = candidate;
    }
}

/// The from-the-paper routing model: a sorted shard-id list and the
/// jump bucket function, nothing else. Evolves in lockstep with the
/// orchestrator's topology changes.
#[derive(Debug, Clone)]
pub struct RoutingModel {
    shards: Vec<u32>,
    mutation: ClusterMutation,
}

impl RoutingModel {
    /// A model of a fresh cluster with shards `0..n`.
    pub fn new(n: u32, mutation: ClusterMutation) -> RoutingModel {
        RoutingModel {
            shards: (0..n).collect(),
            mutation,
        }
    }

    /// The shard the model says owns `object`.
    pub fn route(&self, object: u64) -> Option<u32> {
        if self.shards.is_empty() {
            return None;
        }
        let buckets = match self.mutation {
            ClusterMutation::None => self.shards.len(),
            ClusterMutation::RouteIgnoreNewestShard => self.shards.len().max(2) - 1,
        };
        Some(self.shards[owning_bucket(object, buckets as u32) as usize])
    }

    /// Mirrors a scale-out (new highest id).
    pub fn add_shard(&mut self, id: u32) {
        debug_assert!(self.shards.last().is_none_or(|last| *last < id));
        self.shards.push(id);
    }

    /// Mirrors a scale-in.
    pub fn remove_shard(&mut self, id: u32) {
        self.shards.retain(|s| *s != id);
    }

    /// Objects in `catalog` whose owner changes between `self` and
    /// `next` — the predicted migration delta.
    pub fn predicted_delta(&self, next: &RoutingModel, catalog: &[u64]) -> Vec<u64> {
        catalog
            .iter()
            .filter(|&&gid| self.route(gid) != next.route(gid))
            .copied()
            .collect()
    }

    /// Analytic expected move fraction for the transition to `next`
    /// (the model's own derivation, mirroring the paper's `z_j`
    /// reasoning at cluster granularity).
    pub fn expected_fraction(&self, next: &RoutingModel) -> f64 {
        let (old, new) = (&self.shards, &next.shards);
        if old == new {
            0.0
        } else if new.len() == old.len() + 1 && new.starts_with(old) {
            1.0 / new.len() as f64
        } else if old.len() == new.len() + 1 {
            match (0..old.len()).find(|&i| !new.contains(&old[i])) {
                Some(i) => (old.len() - i) as f64 / old.len() as f64,
                None => 1.0,
            }
        } else {
            1.0
        }
    }
}

/// One step of a cluster scenario. Raw picks are loose; the executor
/// normalizes them against live topology (skipping steps that have no
/// legal target), which keeps every shrink candidate executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterStep {
    /// Ingest `1 + count % 8` objects.
    Ingest {
        /// Raw count pick.
        count: u64,
    },
    /// Drive `1 + requests % 24` routed lookups through the client,
    /// checking each against the model.
    Load {
        /// Raw request pick.
        requests: u64,
    },
    /// Scale out by one shard (always the next id / last bucket).
    AddShard,
    /// Scale in: drain and retire the `pick % live`-th shard (skipped
    /// when only one shard remains).
    RemoveShard {
        /// Raw victim pick.
        pick: u64,
    },
    /// Kill the `pick % up`-th live shard (snapshot retained; skipped
    /// when it would take the last live shard down).
    Kill {
        /// Raw victim pick.
        pick: u64,
    },
    /// Restart the longest-dead shard from its snapshot (skipped when
    /// none is down).
    Restart,
    /// Partition the `pick % candidates`-th non-partitioned shard from
    /// the control plane (it keeps serving by its stale map).
    Partition {
        /// Raw victim pick.
        pick: u64,
    },
    /// Heal the longest-partitioned shard (skipped when none).
    Heal,
}

impl ClusterStep {
    fn label(&self) -> String {
        match self {
            ClusterStep::Ingest { count } => format!("ingest({count})"),
            ClusterStep::Load { requests } => format!("load({requests})"),
            ClusterStep::AddShard => "add-shard".into(),
            ClusterStep::RemoveShard { pick } => format!("remove-shard({pick})"),
            ClusterStep::Kill { pick } => format!("kill({pick})"),
            ClusterStep::Restart => "restart".into(),
            ClusterStep::Partition { pick } => format!("partition({pick})"),
            ClusterStep::Heal => "heal".into(),
        }
    }
}

/// A fully seeded cluster scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterScenario {
    /// The driving seed (also each shard's catalog-seed base).
    pub seed: u64,
    /// Initial shard count.
    pub initial_shards: u32,
    /// Initial object count.
    pub initial_objects: u64,
    /// The step sequence.
    pub steps: Vec<ClusterStep>,
}

impl ClusterScenario {
    /// Deterministically generates the cluster scenario for `seed`.
    pub fn generate(seed: u64) -> ClusterScenario {
        let mut rng = TestRng::new(seed ^ 0xC1u64.wrapping_mul(0x5CAD_DA25_CADD_A25C));
        let initial_shards = 2 + rng.below(3) as u32; // 2..=4
        let initial_objects = 24 + rng.below(49); // 24..=72
        let steps = (0..4 + rng.below(6)).map(|_| gen_step(&mut rng)).collect();
        ClusterScenario {
            seed,
            initial_shards,
            initial_objects,
            steps,
        }
    }

    /// A stable multi-line description (for reproducer printouts).
    pub fn describe(&self) -> String {
        let mut out = format!(
            "seed={} shards={} objects={}\n",
            self.seed, self.initial_shards, self.initial_objects
        );
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "  {i}: {}", step.label());
        }
        out
    }

    /// Number of topology-change steps (the measure the planted-bug
    /// acceptance criterion bounds after shrinking).
    pub fn topology_ops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ClusterStep::AddShard | ClusterStep::RemoveShard { .. }))
            .count()
    }
}

fn gen_step(rng: &mut TestRng) -> ClusterStep {
    match rng.below(10) {
        0 => ClusterStep::Ingest {
            count: rng.next_u64(),
        },
        1..=4 => ClusterStep::Load {
            requests: rng.next_u64(),
        },
        5 => ClusterStep::AddShard,
        6 => ClusterStep::RemoveShard {
            pick: rng.next_u64(),
        },
        7 => ClusterStep::Kill {
            pick: rng.next_u64(),
        },
        8 => ClusterStep::Partition {
            pick: rng.next_u64(),
        },
        _ => {
            if rng.below(2) == 0 {
                ClusterStep::Restart
            } else {
                ClusterStep::Heal
            }
        }
    }
}

/// Execution outcome: the logical trace plus the first failure.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Logical event trace — byte-identical for a given scenario.
    pub trace: String,
    /// First invariant violation, if any.
    pub failure: Option<Failure>,
    /// Index of the step that failed.
    pub failed_step: Option<usize>,
}

impl ClusterOutcome {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

const BLOCKS_PER_OBJECT: u64 = 400;

struct Exec {
    cluster: Cluster,
    client: ClusterClient,
    model: RoutingModel,
    /// Snapshots of killed shards, oldest kill first.
    down: Vec<(u32, Vec<u8>)>,
    /// Partitioned shard ids, oldest first.
    partitioned: Vec<u32>,
    /// Client root spans already audited by `trace_complete_audit`
    /// (the client tracer's capacity exceeds any scenario's lookup
    /// count, so indices into its root list are stable).
    roots_checked: usize,
    rng: TestRng,
    trace: String,
}

impl Exec {
    /// Shards that are up, un-partitioned, and map-current — the only
    /// ones a routed lookup may be required to land on.
    fn reachable(&self, shard: u32) -> bool {
        self.cluster.addr(shard).is_some()
            && !self.partitioned.contains(&shard)
            && !self.down.iter().any(|(id, _)| *id == shard)
    }

    /// Runs the routed-load check: every completed lookup must land on
    /// the model's owner.
    fn load(&mut self, requests: u64) -> Result<(u64, u64), Failure> {
        let population = self.cluster.object_ids().len() as u64;
        let mut observed = Vec::new();
        let mut skipped = 0u64;
        for _ in 0..requests {
            let gid = self.rng.next_u64() % population.max(1);
            let Some(expected) = self.model.route(gid) else {
                skipped += 1;
                continue;
            };
            // Also consult the real map: when the two disagree (the
            // planted mutation), the lookup still lands somewhere and
            // the checker reports the divergence; but a *down* real
            // owner makes the lookup fail for fault-model reasons, not
            // routing reasons, so those are skipped.
            let real_owner = self.cluster.map().route(gid);
            if real_owner.map(|o| !self.reachable(o)).unwrap_or(true) {
                skipped += 1;
                continue;
            }
            let block = self.rng.next_u64() % BLOCKS_PER_OBJECT;
            match self.client.locate(gid, block) {
                Ok(answer) => observed.push((gid, answer.shard, expected)),
                Err(e) => {
                    return Err(Failure {
                        invariant: "cluster-routing-agree",
                        detail: format!("lookup {gid}/{block} failed after retries: {e}"),
                    })
                }
            }
        }
        let served = observed.len() as u64;
        check_cluster_routing_agree(&observed)?;
        Ok((served, skipped))
    }

    /// Probes a deterministic sample of objects on every shard; at
    /// most one shard may serve each.
    fn epoch_single_sweep(&self) -> Result<(), Failure> {
        let gids = self.cluster.object_ids();
        let stride = (gids.len() / 6).max(1);
        for gid in gids.iter().step_by(stride) {
            let serving: Vec<u32> = self
                .cluster
                .probe_object(*gid, 0)
                .into_iter()
                .filter(|(_, r)| matches!(r, ProbeResult::Served(..)))
                .map(|(id, _)| id)
                .collect();
            check_cluster_epoch_single(*gid, &serving)?;
        }
        Ok(())
    }

    /// **`trace-complete`** audit over every client root span not yet
    /// checked: each completed lookup must have stitched into exactly
    /// one trace holding the client root plus at least one serving
    /// hop's continuation span (the shards' flight recorders hold the
    /// server side). Runs right after every load step, before later
    /// traffic can evict the spans from the shard rings.
    fn trace_complete_audit(&mut self) -> Result<usize, Failure> {
        let Some(tracer) = self.client.tracer() else {
            return Ok(0);
        };
        let roots: Vec<u64> = tracer
            .recent(usize::MAX)
            .iter()
            .filter(|s| s.parent_id == 0 && s.trace_id != 0)
            .map(|s| s.trace_id)
            .collect();
        let fresh = roots[self.roots_checked.min(roots.len())..].to_vec();
        let shard_ids = self.cluster.shard_ids();
        for &trace_id in &fresh {
            let mut spans = tracer.spans_for_trace(trace_id);
            for id in &shard_ids {
                if let Some(t) = self.cluster.shard_tracer(*id) {
                    spans.extend(t.spans_for_trace(trace_id));
                }
            }
            check_trace_complete(trace_id, &spans, 2)?;
        }
        self.roots_checked = roots.len();
        Ok(fresh.len())
    }

    /// **`obs-federation-agree`** end-of-run audit: one
    /// [`FleetAggregator`] round over every live shard must find all
    /// of them reachable and agree with direct per-shard scrapes on
    /// every serving series.
    fn federation_audit(&self) -> Result<usize, Failure> {
        let targets = self.cluster.scrape_targets();
        let mut aggregator = FleetAggregator::new(self.cluster.clock().clone());
        let fleet = aggregator.scrape(&targets);
        let unreachable = fleet.unreachable_shards();
        if !unreachable.is_empty() {
            return Err(Failure {
                invariant: "obs-federation-agree",
                detail: format!("aggregator found live shards unreachable: {unreachable:?}"),
            });
        }
        let mut directs = Vec::new();
        for (shard, addr) in &targets {
            let (_, _, snapshot) =
                NetClient::connect(*addr)
                    .scrape_stats()
                    .map_err(|e| Failure {
                        invariant: "obs-federation-agree",
                        detail: format!("direct scrape of shard {shard} failed: {e}"),
                    })?;
            directs.push(snapshot);
        }
        check_federation_agreement(&fleet.fleet_registry().snapshot(), &directs)?;
        Ok(targets.len())
    }

    /// **`profile-conserves`** end-of-run audit: a fleet-wide profile
    /// scrape of every live shard must merge into shard-rooted rows
    /// whose residency counts conserve exactly (each thread's counts
    /// sum to the rounds that observed it). The daemons' real-time
    /// samplers make the *counts* wall-clock dependent, so only the
    /// exact conservation identity is asserted here — the scripted
    /// byte-identical-per-seed half lives in the invariant's own
    /// `VirtualClock` tests.
    fn profile_audit(&self) -> Result<usize, Failure> {
        let targets = self.cluster.scrape_targets();
        let aggregator = FleetAggregator::new(self.cluster.clock().clone());
        let merged = aggregator.scrape_profiles(&targets);
        if merged.threads.len() < targets.len() {
            return Err(Failure {
                invariant: "profile-conserves",
                detail: format!(
                    "fleet profile has {} thread rows across {} live shards — \
                     some shard answered ProfileDump with no registered threads",
                    merged.threads.len(),
                    targets.len()
                ),
            });
        }
        check_profile_conserves(&merged)?;
        Ok(targets.len())
    }

    /// Audits one completed migration against the model's prediction,
    /// then advances the model to `next`.
    fn audit_migration(
        &mut self,
        record: &MigrationRecord,
        next: RoutingModel,
    ) -> Result<(), Failure> {
        let catalog = self.cluster.object_ids();
        let predicted = self.model.predicted_delta(&next, &catalog);
        let moved: Vec<u64> = record.moved.iter().map(|m| m.0).collect();
        let expected = self.model.expected_fraction(&next);
        check_cluster_migration_delta(&moved, &predicted, record.population, expected)?;
        self.model = next;
        Ok(())
    }
}

/// Executes `scenario` against a real loopback cluster, checking the
/// cluster invariant catalog after every step.
pub fn execute(scenario: &ClusterScenario, mutation: ClusterMutation) -> ClusterOutcome {
    let clock = Arc::new(VirtualClock::new());
    let mut exec = match Exec::boot(scenario, mutation, &clock) {
        Ok(exec) => exec,
        Err(detail) => {
            return ClusterOutcome {
                trace: String::new(),
                failure: Some(Failure {
                    invariant: "cluster-boot",
                    detail,
                }),
                failed_step: None,
            }
        }
    };
    let failure = exec.run(scenario, &clock).err();
    exec.cluster.shutdown();
    ClusterOutcome {
        trace: exec.trace,
        failed_step: failure.as_ref().map(|(step, _)| *step),
        failure: failure.map(|(_, f)| f),
    }
}

impl Exec {
    /// Boots the scenario's cluster, populates it, and connects a
    /// tracing client to it.
    fn boot(
        scenario: &ClusterScenario,
        mutation: ClusterMutation,
        clock: &Arc<VirtualClock>,
    ) -> Result<Exec, String> {
        let mut cluster = Cluster::boot_with_clock(
            ClusterConfig {
                shards: scenario.initial_shards,
                blocks_per_object: BLOCKS_PER_OBJECT,
                catalog_seed: scenario.seed,
                migration_batch: 4,
                ..ClusterConfig::default()
            },
            clock.clone(),
        )?;
        cluster.populate(scenario.initial_objects)?;
        let mut client = ClusterClient::connect(&cluster.seeds()).map_err(|e| e.to_string())?;
        // Root spans are seeded from (scenario seed, lookup sequence),
        // so the trace ids — and the whole logical trace — stay
        // byte-identical across runs. 4096 spans outlasts any
        // scenario's lookup budget.
        client.enable_tracing(Tracer::new(clock.clone(), 4096), scenario.seed);
        Ok(Exec {
            client,
            model: RoutingModel::new(scenario.initial_shards, mutation),
            down: Vec::new(),
            partitioned: Vec::new(),
            roots_checked: 0,
            rng: TestRng::new(scenario.seed ^ 0x10AD_10AD_10AD_10AD),
            trace: format!(
                "boot shards={} objects={} map=v{}\n",
                scenario.initial_shards,
                scenario.initial_objects,
                cluster.map().version
            ),
            cluster,
        })
    }

    /// Runs every step, then the end-of-run audits; on the first
    /// failure, returns it with the index of the step it surfaced at.
    fn run(
        &mut self,
        scenario: &ClusterScenario,
        clock: &VirtualClock,
    ) -> Result<(), (usize, Failure)> {
        for (i, step) in scenario.steps.iter().enumerate() {
            clock.advance(1_000_000);
            match run_step(self, step) {
                Ok(note) => {
                    let _ = writeln!(self.trace, "{i}: {} -> {note}", step.label());
                }
                Err(f) => return Err(self.fail(i, &format!("{i}: {} -> ", step.label()), f)),
            }
            // The epoch-single sweep runs after every step: kills,
            // partitions, and half-finished topology states must never
            // leave an object served twice.
            self.epoch_single_sweep()
                .map_err(|f| self.fail(i, &format!("{i}: sweep -> "), f))?;
        }
        let last = scenario.steps.len().saturating_sub(1);
        self.cluster.residency_consistent().map_err(|e| {
            let failure = Failure {
                invariant: "cluster-epoch-single",
                detail: format!("final residency audit: {e}"),
            };
            self.fail(last, "final: ", failure)
        })?;
        let shards = self
            .federation_audit()
            .map_err(|f| self.fail(last, "federation: ", f))?;
        let _ = writeln!(self.trace, "federation: {shards} shards agree");
        let shards = self
            .profile_audit()
            .map_err(|f| self.fail(last, "profiles: ", f))?;
        // Only the shard count goes in the trace: the real-time
        // sampler makes round counts wall-clock dependent, and the
        // trace must stay byte-identical per seed.
        let _ = writeln!(self.trace, "profiles: {shards} shards conserve");
        let _ = writeln!(self.trace, "final map=v{}", self.cluster.map().version);
        Ok(())
    }

    /// Records `failure` in the trace after `at` and tags it with
    /// `step`.
    fn fail(&mut self, step: usize, at: &str, failure: Failure) -> (usize, Failure) {
        let _ = writeln!(
            self.trace,
            "{at}FAIL [{}] {}",
            failure.invariant, failure.detail
        );
        (step, failure)
    }
}

fn run_step(exec: &mut Exec, step: &ClusterStep) -> Result<String, Failure> {
    match step {
        ClusterStep::Ingest { count } => {
            let n = 1 + count % 8;
            // A killed owner refuses its object (the id stays free, so
            // the rest of the step names the same owner).
            let mut refused = 0;
            for _ in 0..n {
                match exec.cluster.add_object(BLOCKS_PER_OBJECT) {
                    Ok(_) => {}
                    Err(IngestError::OwnerDown(_)) => refused += 1,
                    Err(e) => {
                        return Err(Failure {
                            invariant: "cluster-boot",
                            detail: format!("ingest: {e}"),
                        })
                    }
                }
            }
            Ok(format!(
                "ingested {} refused {refused} (population {})",
                n - refused,
                exec.cluster.object_ids().len()
            ))
        }
        ClusterStep::Load { requests } => {
            let n = 1 + requests % 24;
            let (served, skipped) = exec.load(n)?;
            let traced = exec.trace_complete_audit()?;
            Ok(format!("served={served} skipped={skipped} traced={traced}"))
        }
        ClusterStep::AddShard => {
            let (id, record) = exec.cluster.add_shard().map_err(|e| Failure {
                invariant: "cluster-migration-delta",
                detail: format!("add-shard: {e}"),
            })?;
            let mut next = exec.model.clone();
            next.add_shard(id);
            let moved = record.moved.len();
            exec.audit_migration(&record, next)?;
            Ok(format!(
                "shard {id} joined, moved {moved}/{} map=v{}",
                record.population,
                exec.cluster.map().version
            ))
        }
        ClusterStep::RemoveShard { pick } => {
            let live = exec.cluster.shard_ids();
            if live.len() <= 1 {
                return Ok("skipped (last shard)".into());
            }
            let victim = live[(pick % live.len() as u64) as usize];
            let record = exec.cluster.remove_shard(victim).map_err(|e| Failure {
                invariant: "cluster-migration-delta",
                detail: format!("remove-shard {victim}: {e}"),
            })?;
            exec.down.retain(|(id, _)| *id != victim);
            exec.partitioned.retain(|id| *id != victim);
            let mut next = exec.model.clone();
            next.remove_shard(victim);
            let moved = record.moved.len();
            exec.audit_migration(&record, next)?;
            Ok(format!(
                "shard {victim} drained, moved {moved}/{} map=v{}",
                record.population,
                exec.cluster.map().version
            ))
        }
        ClusterStep::Kill { pick } => {
            let up: Vec<u32> = exec
                .cluster
                .shard_ids()
                .into_iter()
                .filter(|id| exec.cluster.addr(*id).is_some())
                .collect();
            if up.len() <= 1 {
                return Ok("skipped (last live shard)".into());
            }
            let victim = up[(pick % up.len() as u64) as usize];
            let snapshot = exec.cluster.kill(victim).map_err(|e| Failure {
                invariant: "cluster-epoch-single",
                detail: format!("kill {victim}: {e}"),
            })?;
            exec.down.push((victim, snapshot));
            Ok(format!("shard {victim} down"))
        }
        ClusterStep::Restart => {
            let Some((victim, snapshot)) = exec.down.first().cloned() else {
                return Ok("skipped (none down)".into());
            };
            exec.down.remove(0);
            exec.cluster
                .restart(victim, &snapshot)
                .map_err(|e| Failure {
                    invariant: "cluster-epoch-single",
                    detail: format!("restart {victim}: {e}"),
                })?;
            Ok(format!(
                "shard {victim} rejoined map=v{}",
                exec.cluster.map().version
            ))
        }
        ClusterStep::Partition { pick } => {
            let candidates: Vec<u32> = exec
                .cluster
                .shard_ids()
                .into_iter()
                .filter(|id| !exec.partitioned.contains(id))
                .collect();
            if candidates.len() <= 1 {
                return Ok("skipped (no candidate)".into());
            }
            let victim = candidates[(pick % candidates.len() as u64) as usize];
            exec.cluster.partition(victim).map_err(|e| Failure {
                invariant: "cluster-epoch-single",
                detail: format!("partition {victim}: {e}"),
            })?;
            exec.partitioned.push(victim);
            Ok(format!("shard {victim} partitioned"))
        }
        ClusterStep::Heal => {
            let Some(&victim) = exec.partitioned.first() else {
                return Ok("skipped (none partitioned)".into());
            };
            exec.partitioned.remove(0);
            exec.cluster.heal(victim).map_err(|e| Failure {
                invariant: "cluster-epoch-single",
                detail: format!("heal {victim}: {e}"),
            })?;
            Ok(format!("shard {victim} healed"))
        }
    }
}

/// The cluster mode: a real loopback cluster per scenario, checked
/// against [`RoutingModel`].
impl Mode for ClusterMutation {
    type Scenario = ClusterScenario;
    type Step = ClusterStep;
    type Outcome = ClusterOutcome;

    const FLAG: Option<&'static str> = Some("--cluster");
    const BUGS: &'static [(&'static str, ClusterMutation)] =
        &[("route", ClusterMutation::RouteIgnoreNewestShard)];
    const LABEL: &'static str = "cluster seed";
    /// Each candidate boots a real loopback cluster, so the budget is
    /// tighter than the single-node shrinker's.
    const SHRINK_BUDGET: usize = 80;

    fn generate(seed: u64) -> ClusterScenario {
        ClusterScenario::generate(seed)
    }

    fn execute(scenario: &ClusterScenario, mutation: ClusterMutation) -> ClusterOutcome {
        execute(scenario, mutation)
    }

    fn steps(scenario: &mut ClusterScenario) -> &mut Vec<ClusterStep> {
        &mut scenario.steps
    }

    /// Smaller loads and ingests, then a smaller initial shape.
    fn candidates(s: &ClusterScenario) -> Vec<ClusterScenario> {
        let mut out = Vec::new();
        for (i, step) in s.steps.iter().enumerate() {
            match step {
                ClusterStep::Load { requests } => {
                    for r in halvings(0, *requests) {
                        let mut c = s.clone();
                        c.steps[i] = ClusterStep::Load { requests: r };
                        out.push(c);
                    }
                }
                ClusterStep::Ingest { count } => {
                    for n in halvings(0, *count) {
                        let mut c = s.clone();
                        c.steps[i] = ClusterStep::Ingest { count: n };
                        out.push(c);
                    }
                }
                _ => {}
            }
        }
        for o in halvings(1, s.initial_objects) {
            let mut c = s.clone();
            c.initial_objects = o;
            out.push(c);
        }
        for n in halvings(1, u64::from(s.initial_shards)) {
            let mut c = s.clone();
            c.initial_shards = n as u32;
            out.push(c);
        }
        out
    }

    fn describe(scenario: &ClusterScenario) -> String {
        scenario.describe()
    }

    fn ops(scenario: &ClusterScenario) -> String {
        format!("{} topology ops", scenario.topology_ops())
    }

    fn failure(outcome: &ClusterOutcome) -> Option<&Failure> {
        outcome.failure.as_ref()
    }

    fn failed_step(outcome: &ClusterOutcome) -> Option<usize> {
        outcome.failed_step
    }

    fn pass_summary(scenario: &ClusterScenario, _: &ClusterOutcome) -> String {
        format!("{} steps, {}", scenario.steps.len(), Self::ops(scenario))
    }

    fn evidence(outcome: &ClusterOutcome, minimal: bool, out: &mut String) {
        let prefix = if minimal { "minimal " } else { "" };
        let _ = writeln!(out, "{prefix}trace:\n{}", outcome.trace);
    }

    fn events(_: &ClusterOutcome) -> &str {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bucket_agrees_with_the_net_implementation() {
        for n in [1u32, 2, 3, 5, 16, 101] {
            for key in (0..2_000u64).chain([u64::MAX, u64::MAX / 2]) {
                assert_eq!(
                    owning_bucket(key, n),
                    scaddar_net::jump_hash(key, n),
                    "key {key} buckets {n}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_band() {
        for seed in 0..100u64 {
            let a = ClusterScenario::generate(seed);
            assert_eq!(a, ClusterScenario::generate(seed));
            assert!((2..=4).contains(&a.initial_shards));
            assert!((24..=72).contains(&a.initial_objects));
            assert!((4..=9).contains(&a.steps.len()));
        }
    }

    #[test]
    fn seeds_cover_every_step_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            for step in ClusterScenario::generate(seed).steps {
                kinds.insert(step.label().split('(').next().unwrap().to_string());
            }
        }
        for kind in [
            "ingest",
            "load",
            "add-shard",
            "remove-shard",
            "kill",
            "restart",
            "partition",
            "heal",
        ] {
            assert!(kinds.contains(kind), "no seed generated {kind}");
        }
    }

    #[test]
    fn clean_cluster_seeds_pass() {
        for seed in [3u64, 17] {
            let report = run_cluster_seed(seed, ClusterMutation::None);
            assert!(report.passed(), "seed {seed}:\n{}", report.render());
        }
    }

    #[test]
    fn execution_is_trace_reproducible() {
        let scenario = ClusterScenario::generate(5);
        let a = execute(&scenario, ClusterMutation::None);
        let b = execute(&scenario, ClusterMutation::None);
        assert_eq!(a.trace, b.trace);
        assert!(a.passed(), "{}", a.trace);
    }

    #[test]
    fn ingest_refused_by_a_killed_owner_is_counted_not_failed() {
        // Seed 1 ingests while the owner of its next object is down.
        let scenario = ClusterScenario::generate(1);
        let a = execute(&scenario, ClusterMutation::None);
        assert!(a.passed(), "{}", a.trace);
        assert!(
            a.trace
                .lines()
                .any(|l| l.contains(" refused ") && !l.contains(" refused 0 ")),
            "{}",
            a.trace
        );
        assert_eq!(a.trace, execute(&scenario, ClusterMutation::None).trace);
    }

    /// One seeded run: a client holding a stale map looks up an object
    /// that a scale-out just moved, eats the `WrongShard` bounce, and
    /// the stitched trace renders as a single tree with at least three
    /// spans — client root, the stale shard's hop, and the owner's.
    fn wrong_shard_hop_trace(seed: u64) -> (u64, String) {
        let clock = Arc::new(VirtualClock::new());
        let mut cluster = Cluster::boot_with_clock(
            ClusterConfig {
                shards: 2,
                blocks_per_object: BLOCKS_PER_OBJECT,
                catalog_seed: seed,
                migration_batch: 4,
                ..ClusterConfig::default()
            },
            clock.clone(),
        )
        .unwrap();
        cluster.populate(16).unwrap();
        // Connect (adopting map v1) *before* the scale-out, so the
        // client's first hop goes to the old owner.
        let mut client = ClusterClient::connect(&cluster.seeds()).unwrap();
        client.enable_tracing(Tracer::new(clock.clone(), 256), seed);
        let old_owners: Vec<(u64, u32)> = cluster
            .object_ids()
            .iter()
            .map(|g| (*g, cluster.map().route(*g).unwrap()))
            .collect();
        cluster.add_shard().unwrap();
        let (moved, _) = *old_owners
            .iter()
            .find(|(g, old)| cluster.map().route(*g) != Some(*old))
            .expect("a scale-out over 16 objects moves at least one");
        let answer = client.locate(moved, 0).unwrap();
        assert_eq!(Some(answer.shard), cluster.map().route(moved));
        let (_, bounces, ..) = client.stats_snapshot();
        assert!(bounces >= 1, "stale lookup must bounce via WrongShard");

        let tracer = client.tracer().unwrap();
        let root = tracer.recent(1).pop().unwrap();
        let mut spans = tracer.spans_for_trace(root.trace_id);
        for id in cluster.shard_ids() {
            if let Some(t) = cluster.shard_tracer(id) {
                spans.extend(t.spans_for_trace(root.trace_id));
            }
        }
        check_trace_complete(root.trace_id, &spans, 3)
            .unwrap_or_else(|f| panic!("[{}] {}", f.invariant, f.detail));
        let dump = scaddar_obs::render_trace_dump(&spans, root.trace_id);
        cluster.shutdown();
        (root.trace_id, dump)
    }

    #[test]
    fn stale_client_wrong_shard_hop_renders_one_trace_with_three_spans() {
        let (trace_a, dump_a) = wrong_shard_hop_trace(42);
        let (trace_b, dump_b) = wrong_shard_hop_trace(42);
        assert_eq!(trace_a, trace_b, "root trace ids must be seed-stable");
        assert_eq!(dump_a, dump_b, "trace dump must be byte-identical");
        assert!(dump_a.contains("cluster.locate"), "{dump_a}");
        assert!(dump_a.contains("wrong-shard"), "{dump_a}");
        assert!(dump_a.contains("serve.locate"), "{dump_a}");
    }
}
