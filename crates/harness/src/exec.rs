//! Scenario execution: drives a standalone [`Scaddar`] engine, a
//! [`CmServer`], and the independent [`Model`] through one scenario,
//! injecting the fault plan and running the invariant catalog after
//! every step.
//!
//! Raw scenario values are normalized here against live state
//! (loose-generate/strict-execute): removal picks are reduced modulo
//! the disk count, sizes are clamped, steps that would be invalid are
//! *skipped with a trace note* instead of failing — so the shrinker can
//! drop or reduce any substructure and the scenario stays executable.
//!
//! Everything is deterministic: the same scenario and mutation produce
//! a byte-identical trace.

use crate::invariants::{self, Failure};
use crate::model::Model;
use crate::scenario::{Fault, Mutation, Scenario, Step};
use cmsim::{
    availability_census, CmServer, ServerConfig, ServerStats, SharedServer, Simulation,
    WorkloadConfig,
};
use scaddar_core::{BlockRef, DiskIndex, ObjectId, Scaddar, ScaddarConfig, ScalingOp};
use scaddar_monitor::{HealthMonitor, MonitorConfig};
use scaddar_obs::{Clock, Registry, SpanGuard, Tracer, VirtualClock};
use std::fmt::Write as _;
use std::sync::Arc;

/// Snapshot decode epsilon, shared by live config and every recovery.
const EPSILON: f64 = 0.05;
/// Disk-count band the normalizer enforces.
const MIN_DISKS: u32 = 2;
const MAX_DISKS: u32 = 64;
/// Safety bound on drain loops (a tick makes progress or the executor
/// reports a failure instead of spinning).
const MAX_TICKS: u32 = 200_000;

/// A durable event since the last persisted snapshot; crash recovery
/// replays these on top of the snapshot.
#[derive(Debug, Clone)]
enum Event {
    AddObject { blocks: u64 },
    RemoveObject(ObjectId),
    Scale(ScalingOp),
}

/// Span-recorder capacity: generous for any generated scenario, bounded
/// against pathological ones.
const SPAN_CAPACITY: usize = 512;

/// The result of executing one scenario.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Deterministic step-by-step trace (same seed → byte-identical).
    pub trace: String,
    /// Structured span timeline of the run, one line per step span,
    /// timed by a virtual clock the executor advances deterministically
    /// — same seed → byte-identical (attached to failure reports).
    pub spans: String,
    /// First invariant violation, if any.
    pub failure: Option<Failure>,
    /// Index of the step the failure surfaced at.
    pub failed_step: Option<usize>,
    /// The health monitor's structured event log, rendered as JSONL.
    /// Timestamps come from the executor's virtual clock, so the same
    /// seed produces byte-identical bytes.
    pub health_events: String,
    /// Alert events (warn/crit) the monitor emitted during the run.
    pub health_alerts: usize,
}

impl Outcome {
    /// Whether the run passed every check.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Executes `scenario` with the model running `mutation`.
pub fn execute(scenario: &Scenario, mutation: Mutation) -> Outcome {
    Executor::new(scenario, mutation).run()
}

struct Executor<'a> {
    scenario: &'a Scenario,
    mutation: Mutation,
    engine: Scaddar,
    server: CmServer,
    model: Model,
    last_snapshot: Vec<u8>,
    journal: Vec<Event>,
    trace: String,
    clock: Arc<VirtualClock>,
    tracer: Tracer,
    monitor: HealthMonitor,
}

impl<'a> Executor<'a> {
    fn new(scenario: &'a Scenario, mutation: Mutation) -> Self {
        let disks = scenario.initial_disks;
        let seed = scenario.seed;
        let engine = Scaddar::new(
            ScaddarConfig::new(disks)
                .with_bits(scenario.bits)
                .with_catalog_seed(seed)
                .with_epsilon(EPSILON),
        )
        .expect("initial_disks >= 4 by generation");
        let mut server = CmServer::new(
            ServerConfig::new(disks)
                .with_bits(scenario.bits)
                .with_catalog_seed(seed),
        )
        .expect("initial_disks >= 4 by generation");
        let last_snapshot = engine.snapshot();
        // A virtual clock only the executor advances: span timelines
        // count *work units* (blocks, rounds, moves), not wall time, so
        // the same seed always yields the same bytes.
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock.clone(), SPAN_CAPACITY);
        // The health monitor rides along on the same virtual clock, so
        // its JSONL event log is byte-identical run to run; the server's
        // per-disk gauges land in the same registry the monitor exports
        // its own gauges to.
        let registry = Registry::new();
        let stats = ServerStats::register(&registry, clock.clone() as Arc<dyn Clock>);
        server.attach_stats(stats);
        let mut monitor =
            HealthMonitor::for_engine(MonitorConfig::default(), clock.clone(), &engine);
        monitor.attach_registry(&registry);
        Executor {
            scenario,
            mutation,
            engine,
            server,
            model: Model::new(disks, mutation),
            last_snapshot,
            journal: Vec::new(),
            trace: String::new(),
            clock,
            tracer,
            monitor,
        }
    }

    fn run(mut self) -> Outcome {
        {
            let mut span = self.tracer.span("setup.ingest");
            span.event("objects", self.scenario.objects.len());
            for &blocks in &self.scenario.objects {
                if let Err(f) = self.add_object(blocks) {
                    span.event("failed", "exec");
                    drop(span);
                    return self.finish(Some(f), None);
                }
                self.clock.advance(blocks);
            }
        }
        if let Err(f) = self.check_invariants(None) {
            return self.finish(Some(f), None);
        }
        self.feed_monitor();
        for i in 0..self.scenario.steps.len() {
            let step = self.scenario.steps[i].clone();
            let mut span = self.tracer.span(step_name(&step));
            span.event("step", i);
            let result = self.run_step(i, &step, &mut span);
            if let Err(f) = result {
                span.event("failed", f.invariant);
                drop(span);
                let _ = writeln!(
                    self.trace,
                    "  step {i}: FAILED [{}] {}",
                    f.invariant, f.detail
                );
                return self.finish(Some(f), Some(i));
            }
        }
        if let Err(f) = self.check_health_outcome() {
            let _ = writeln!(
                self.trace,
                "  health: FAILED [{}] {}",
                f.invariant, f.detail
            );
            return self.finish(Some(f), None);
        }
        self.finish(None, None)
    }

    fn finish(mut self, failure: Option<Failure>, failed_step: Option<usize>) -> Outcome {
        let verdict = match &failure {
            None => "PASS".to_string(),
            Some(f) => format!("FAIL [{}]", f.invariant),
        };
        let _ = writeln!(self.trace, "  verdict: {verdict}");
        Outcome {
            trace: self.trace,
            spans: self.tracer.render_recent(SPAN_CAPACITY),
            failure,
            failed_step,
            health_events: self.monitor.events_jsonl(),
            health_alerts: self.monitor.alerts_emitted(),
        }
    }

    fn run_step(&mut self, i: usize, step: &Step, span: &mut SpanGuard) -> Result<(), Failure> {
        match step {
            Step::Scale { op, faults } => self.run_scale(i, op, faults, span)?,
            Step::AddObject { blocks } => {
                let blocks = (*blocks).clamp(1, 5_000);
                self.add_object(blocks)?;
                span.event("blocks", blocks);
                self.clock.advance(blocks);
                let _ = writeln!(self.trace, "  step {i}: add-object {blocks}");
            }
            Step::RemoveObject { pick } => self.run_remove_object(i, *pick, span)?,
            Step::Workload { rounds } => self.run_workload(i, *rounds, span)?,
            Step::Compact { kill } => self.run_compact(i, *kill, span)?,
        }
        self.check_invariants(if matches!(step, Step::Scale { .. }) {
            None // already checked with the plan in run_scale
        } else {
            Some(i)
        })?;
        self.feed_monitor();
        Ok(())
    }

    /// Feeds the health monitor one observation round: new movement
    /// records from the engine's RO1 audit trail, plus (when the server
    /// is at rest, the only time residency is comparable) the per-disk
    /// census for the streaming RO2 probes and the exact conformance
    /// check of store residency against the engine's derivation.
    fn feed_monitor(&mut self) {
        self.monitor.observe_engine(&self.engine);
        if self.server.backlog() == 0 {
            let actual = self.server.load_census();
            self.monitor.observe_census(&actual);
            let expected = self.engine.load_distribution();
            self.monitor.observe_conformance(&expected, &actual);
        }
    }

    /// End-of-run health verdict. Clean runs must have raised no RO1/RO2
    /// conformance alert; a [`Mutation::MisplaceBlock`] run plants silent
    /// data rot *after* the last step (so every placement invariant along
    /// the way stays meaningful) and then requires the monitor's exact
    /// conformance probe to catch it.
    fn check_health_outcome(&mut self) -> Result<(), Failure> {
        match self.mutation {
            Mutation::None => invariants::check_health_quiet(self.monitor.events()),
            // The model-divergence bug is caught (and shrunk) by the
            // placement invariants mid-run, not by the health phase.
            Mutation::Ro1AddOffByOne => Ok(()),
            Mutation::MisplaceBlock => {
                self.drain_server()?;
                let Some(id) = self.engine.catalog().objects().first().map(|o| o.id) else {
                    return Err(exec_failure("misplace mutation found no object".into()));
                };
                let block = BlockRef {
                    object: id,
                    block: 0,
                };
                let Some(from) = self.server.store().locate(block) else {
                    return Err(exec_failure(format!(
                        "misplace target {block:?} not resident"
                    )));
                };
                let Some(to) = self
                    .server
                    .placement()
                    .disks()
                    .physical_ids()
                    .into_iter()
                    .find(|&d| d != from)
                else {
                    return Err(exec_failure("no second disk to misplace onto".into()));
                };
                if !self.server.inject_misplacement(block, to) {
                    return Err(exec_failure(format!(
                        "inject_misplacement({block:?}, {to:?}) refused"
                    )));
                }
                let _ = writeln!(
                    self.trace,
                    "  mutation: misplaced {block:?} {from:?} -> {to:?}"
                );
                self.clock.advance(1);
                self.feed_monitor();
                invariants::check_health_detects_misplacement(self.monitor.events())
            }
        }
    }

    // ---- steps -----------------------------------------------------

    fn add_object(&mut self, blocks: u64) -> Result<(), Failure> {
        let sid = self
            .server
            .add_object(blocks)
            .map_err(|e| exec_failure(format!("server.add_object({blocks}): {e:?}")))?;
        let eid = self.engine.add_object(blocks);
        if sid != eid {
            return Err(exec_failure(format!(
                "object id skew: server {sid:?} vs engine {eid:?}"
            )));
        }
        let obj = *self.engine.catalog().object(eid).expect("just added");
        let x0s = (0..blocks)
            .map(|b| self.engine.catalog().x0(&obj, b))
            .collect();
        self.model.add_object(eid, x0s);
        self.journal.push(Event::AddObject { blocks });
        Ok(())
    }

    fn run_remove_object(
        &mut self,
        i: usize,
        pick: u64,
        span: &mut SpanGuard,
    ) -> Result<(), Failure> {
        let live = self.engine.catalog().objects();
        if live.len() <= 1 {
            span.event("skipped", "catalog-floor");
            let _ = writeln!(
                self.trace,
                "  step {i}: remove-object skipped (catalog floor)"
            );
            return Ok(());
        }
        let id = live[(pick % live.len() as u64) as usize].id;
        if self.server.remove_object(id).is_err() {
            // Streams may pin the object; skip to keep all three in sync.
            span.event("skipped", "pinned");
            let _ = writeln!(
                self.trace,
                "  step {i}: remove-object {id:?} skipped (pinned)"
            );
            return Ok(());
        }
        self.engine
            .remove_object(id)
            .map_err(|e| exec_failure(format!("engine.remove_object({id:?}): {e:?}")))?;
        self.model.remove_object(id);
        self.journal.push(Event::RemoveObject(id));
        span.event("object", id.0);
        self.clock.advance(1);
        let _ = writeln!(self.trace, "  step {i}: remove-object {id:?}");
        Ok(())
    }

    fn run_workload(&mut self, i: usize, rounds: u32, span: &mut SpanGuard) -> Result<(), Failure> {
        let rounds = 1 + rounds % 5;
        let seed = self.scenario.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let dummy = CmServer::new(ServerConfig::new(MIN_DISKS)).expect("dummy server");
        let server = std::mem::replace(&mut self.server, dummy);
        let mut sim = Simulation::from_server(server, WorkloadConfig::interactive(2.0), seed);
        sim.run(rounds);
        self.server = sim.into_server();
        span.event("rounds", rounds);
        span.event("streams", self.server.active_streams());
        self.clock.advance(u64::from(rounds));
        let _ = writeln!(
            self.trace,
            "  step {i}: workload {rounds} rounds, {} active streams",
            self.server.active_streams()
        );
        Ok(())
    }

    /// One online rehash compaction: the server migrates to the next
    /// generation through its executor while the standalone engine
    /// flips offline; both must land on the same placement (same
    /// catalog seed, same history, same generation seed derivation).
    /// `kill` fails a disk mid-migration on a *clone* — the clone must
    /// still complete the flip without losing a block, while the real
    /// timeline stays fault-free and deterministic.
    fn run_compact(
        &mut self,
        i: usize,
        kill: Option<u64>,
        span: &mut SpanGuard,
    ) -> Result<(), Failure> {
        let from = self.engine.generation();
        let pre_catalog: Vec<(ObjectId, u64)> = self
            .engine
            .catalog()
            .objects()
            .iter()
            .map(|o| (o.id, o.blocks))
            .collect();
        let pre_resident: u64 = self.server.load_census().iter().sum();
        let backlog = match self.server.begin_compaction() {
            Ok(b) => b,
            Err(e) => {
                span.event("skipped", "refused");
                let _ = writeln!(self.trace, "  step {i}: compact skipped ({e:?})");
                return Ok(());
            }
        };
        let moved = self.engine.rehash_to_next_generation();
        if moved != backlog {
            return Err(exec_failure(format!(
                "compaction backlog skew: server queued {backlog}, \
                 engine re-placed {moved}"
            )));
        }
        self.monitor
            .note_compaction_started(from, from + 1, backlog);
        span.event("generation", format!("{from}->{}", from + 1));
        span.event("backlog", backlog);

        // A few migration rounds first, so an injected kill lands
        // mid-flight rather than before any move committed.
        let mut ticks = 0u32;
        for _ in 0..3 {
            if !self.server.compaction_active() {
                break;
            }
            self.server.tick();
            ticks += 1;
        }
        if let Some(pick) = kill {
            let victim = DiskIndex((pick % u64::from(self.engine.disks())) as u32);
            let mut clone = self.server.clone();
            clone.fail_disk(victim);
            let mut t = 0u32;
            while clone.compaction_active() {
                clone.tick();
                t += 1;
                if t > MAX_TICKS {
                    return Err(Failure {
                        invariant: "compaction-no-loss",
                        detail: format!(
                            "kill-during-compaction({victim:?}): migration wedged \
                             after {MAX_TICKS} ticks"
                        ),
                    });
                }
            }
            if clone.generation() != from + 1 || !clone.residency_consistent() {
                return Err(Failure {
                    invariant: "compaction-no-loss",
                    detail: format!(
                        "kill-during-compaction({victim:?}): generation {} \
                         (expected {}), residency_consistent={}",
                        clone.generation(),
                        from + 1,
                        clone.residency_consistent()
                    ),
                });
            }
            let clone_resident: u64 = clone.load_census().iter().sum();
            invariants::check_compaction_no_loss(
                &self.engine,
                &pre_catalog,
                pre_resident,
                clone_resident,
            )?;
            span.event("kill", format!("{victim:?}"));
            let _ = writeln!(
                self.trace,
                "    fault kill-during-compaction({victim:?}) ok"
            );
        }
        while self.server.compaction_active() {
            self.server.tick();
            ticks += 1;
            if ticks > MAX_TICKS {
                return Err(exec_failure(format!(
                    "compaction drain stuck after {MAX_TICKS} ticks"
                )));
            }
        }
        self.drain_server()?;

        let total = self.engine.catalog().total_blocks();
        self.monitor.note_compaction_completed(from + 1, total);
        // The flip is durable (v2 snapshots carry the generation), so it
        // is also a persistence point: crash recovery replays on top of
        // the flipped snapshot, never the dead generation's.
        self.last_snapshot = self.engine.snapshot();
        self.journal.clear();
        // The model's REMAP copy described the dead generation; rebuild
        // it from the flipped catalog's fresh X_0 draws.
        self.model = Model::new(self.engine.disks(), self.mutation);
        for obj in self.engine.catalog().objects() {
            let x0s = (0..obj.blocks)
                .map(|b| self.engine.catalog().x0(obj, b))
                .collect();
            self.model.add_object(obj.id, x0s);
        }
        self.monitor.observe_engine(&self.engine);
        let post_resident: u64 = self.server.load_census().iter().sum();
        invariants::check_compaction_no_loss(
            &self.engine,
            &pre_catalog,
            pre_resident,
            post_resident,
        )?;
        invariants::check_compaction_resets_budget(&self.engine, self.monitor.budget_remaining())?;
        self.clock.advance(backlog + 1);
        let kill_label = kill.map_or(String::new(), |_| " kill".to_string());
        let _ = writeln!(
            self.trace,
            "  step {i}: compact generation {from}->{} moved {moved}/{total}{kill_label}",
            from + 1
        );
        Ok(())
    }

    fn run_scale(
        &mut self,
        i: usize,
        raw: &ScalingOp,
        faults: &[Fault],
        span: &mut SpanGuard,
    ) -> Result<(), Failure> {
        let n_prev = self.engine.disks();
        let Some(op) = normalize_op(raw, n_prev) else {
            span.event("skipped", "normalization");
            let _ = writeln!(
                self.trace,
                "  step {i}: scale {raw:?} skipped (normalization)"
            );
            return Ok(());
        };
        let disks_after = match &op {
            ScalingOp::Add { count } => n_prev + count,
            ScalingOp::Remove { disks } => n_prev - disks.len() as u32,
        };
        if !self.engine.next_op_is_safe(disks_after) || !self.server.next_op_is_safe(&op) {
            span.event("skipped", "unsafe");
            let _ = writeln!(self.trace, "  step {i}: scale {op:?} skipped (unsafe)");
            return Ok(());
        }

        // Faults that race the commit need a pre-op clone of the server.
        let pre_clone = faults
            .iter()
            .any(|f| matches!(f, Fault::StaleEpochReads { .. }))
            .then(|| self.server.clone());

        let plan = self
            .engine
            .scale(op.clone())
            .map_err(|e| exec_failure(format!("engine.scale({op:?}): {e:?}")))?;
        self.server
            .scale(op.clone())
            .map_err(|e| exec_failure(format!("server.scale({op:?}): {e:?}")))?;
        self.drain_server()?;
        self.model.apply(&op);
        self.journal.push(Event::Scale(op.clone()));

        let labels: Vec<String> = faults.iter().map(Fault::label).collect();
        span.event("op", format!("{op:?}"));
        span.event("disks", format!("{n_prev}->{disks_after}"));
        span.event("moved", plan.moves.len());
        span.event("blocks", plan.total_blocks);
        for label in &labels {
            span.event("fault", label);
        }
        self.clock.advance(plan.moves.len() as u64 + 1);
        let _ = writeln!(
            self.trace,
            "  step {i}: scale {op:?} n {n_prev}->{disks_after} moved {}/{} faults=[{}]",
            plan.moves.len(),
            plan.total_blocks,
            labels.join(",")
        );

        // Plan-level invariants first (cheapest, sharpest).
        invariants::check_ro1_exact(&plan, &op, n_prev)?;
        invariants::check_oracle_plan(&plan, &self.engine)?;
        invariants::check_ro1_fraction(&plan)?;
        for fault in faults {
            self.inject(i, fault, &op, n_prev, disks_after, &pre_clone)?;
        }
        self.check_invariants(Some(i))
    }

    // ---- faults ----------------------------------------------------

    fn inject(
        &mut self,
        i: usize,
        fault: &Fault,
        op: &ScalingOp,
        n_prev: u32,
        disks_after: u32,
        pre_clone: &Option<CmServer>,
    ) -> Result<(), Failure> {
        match fault {
            Fault::CrashBeforePersist => {
                // The post-op snapshot never made it to disk: recovery is
                // last snapshot + journal replay.
                let recovered = self.recover_from_journal()?;
                self.require_identical_placement(&recovered, "crash-before-persist")?;
            }
            Fault::CrashAfterPersist => {
                let snap = self.engine.snapshot();
                let recovered = Scaddar::from_snapshot(&snap, EPSILON).map_err(|e| Failure {
                    invariant: "recovery",
                    detail: format!("fresh snapshot failed to decode: {e:?}"),
                })?;
                self.require_identical_placement(&recovered, "crash-after-persist")?;
                self.last_snapshot = snap;
                self.journal.clear();
            }
            Fault::TruncatedSnapshot { cut } => {
                let snap = self.engine.snapshot();
                let cut_at = (cut % snap.len() as u64) as usize;
                if scaddar_core::persist::validate(&snap[..cut_at]).is_ok() {
                    return Err(Failure {
                        invariant: "persist-detect",
                        detail: format!(
                            "truncation to {cut_at}/{} bytes validated cleanly",
                            snap.len()
                        ),
                    });
                }
                // The corrupt snapshot is discarded; recovery falls back.
                let recovered = self.recover_from_journal()?;
                self.require_identical_placement(&recovered, "truncated-snapshot")?;
            }
            Fault::BitFlippedSnapshot { bit } => {
                let mut snap = self.engine.snapshot();
                let pos = (bit % (snap.len() as u64 * 8)) as usize;
                snap[pos / 8] ^= 1 << (pos % 8);
                if let Ok(recovered) = Scaddar::from_snapshot(&snap, EPSILON) {
                    // CRC32 catches every 1-bit error, so decoding at all
                    // is suspicious — but only *wrong placement* is fatal.
                    self.require_identical_placement(&recovered, "bit-flipped-snapshot")?;
                }
            }
            Fault::DiskDeath { pick } => {
                let victim = DiskIndex((pick % u64::from(disks_after)) as u32);
                let (readable, lost) = availability_census(&self.server, &[victim])
                    .map_err(|e| exec_failure(format!("availability_census: {e:?}")))?;
                if lost != 0 {
                    return Err(Failure {
                        invariant: "mirror-availability",
                        detail: format!(
                            "disk {victim:?} death loses {lost}/{} blocks \
                             ({readable} readable) on {disks_after} disks",
                            readable + lost
                        ),
                    });
                }
                // Failover on a clone: the dead disk drains and the array
                // ends residency-consistent (the real server is untouched).
                let mut clone = self.server.clone();
                clone.fail_disk(victim);
                let mut ticks = 0u32;
                while clone.backlog() > 0 {
                    clone.tick();
                    ticks += 1;
                    if ticks > MAX_TICKS {
                        return Err(Failure {
                            invariant: "mirror-availability",
                            detail: format!("failover drain stuck after {MAX_TICKS} ticks"),
                        });
                    }
                }
                if !clone.residency_consistent() {
                    return Err(Failure {
                        invariant: "mirror-availability",
                        detail: "failover left residency inconsistent".into(),
                    });
                }
                let _ = writeln!(self.trace, "    fault disk-death({victim:?}) ok");
            }
            Fault::StaleEpochReads { reads } => {
                let clone = pre_clone.clone().expect("pre-op clone captured");
                let reads = (*reads).clamp(1, 512);
                stale_epoch_reads(clone, op.clone(), n_prev, disks_after, reads)?;
                let _ = writeln!(self.trace, "    fault stale-reads({reads}) ok");
            }
        }
        let _ = i; // step index only used in trace lines above
        Ok(())
    }

    // ---- recovery helpers ------------------------------------------

    /// Recovers from the last valid snapshot plus the journal, as a
    /// restart after losing the latest snapshot would.
    fn recover_from_journal(&self) -> Result<Scaddar, Failure> {
        let mut engine =
            Scaddar::from_snapshot(&self.last_snapshot, EPSILON).map_err(|e| Failure {
                invariant: "recovery",
                detail: format!("last valid snapshot failed to decode: {e:?}"),
            })?;
        for event in &self.journal {
            match event {
                Event::AddObject { blocks } => {
                    engine.add_object(*blocks);
                }
                Event::RemoveObject(id) => {
                    engine.remove_object(*id).map_err(|e| Failure {
                        invariant: "recovery",
                        detail: format!("journal replay remove_object({id:?}): {e:?}"),
                    })?;
                }
                Event::Scale(op) => {
                    engine.scale(op.clone()).map_err(|e| Failure {
                        invariant: "recovery",
                        detail: format!("journal replay scale({op:?}): {e:?}"),
                    })?;
                }
            }
        }
        Ok(engine)
    }

    /// The recovered engine must place every block exactly where the
    /// uncrashed one does.
    fn require_identical_placement(
        &self,
        recovered: &Scaddar,
        context: &str,
    ) -> Result<(), Failure> {
        if placement_of(recovered) != placement_of(&self.engine) {
            return Err(Failure {
                invariant: "recovery",
                detail: format!("{context}: recovered placement diverges from live engine"),
            });
        }
        Ok(())
    }

    // ---- invariants ------------------------------------------------

    fn drain_server(&mut self) -> Result<(), Failure> {
        let mut ticks = 0u32;
        while self.server.backlog() > 0 {
            self.server.tick();
            ticks += 1;
            if ticks > MAX_TICKS {
                return Err(exec_failure(format!(
                    "redistribution drain stuck after {MAX_TICKS} ticks"
                )));
            }
        }
        Ok(())
    }

    /// The full post-step catalog: model equality, oracle agreement,
    /// derived-state audit, uniformity, and server/engine agreement.
    fn check_invariants(&self, after_scale_step: Option<usize>) -> Result<(), Failure> {
        invariants::check_model(&self.engine, &self.model)?;
        invariants::check_oracle(&self.engine)?;
        invariants::check_derived(&self.engine)?;
        invariants::check_ro2(&self.engine)?;
        self.check_server_agrees()?;
        let _ = after_scale_step;
        Ok(())
    }

    /// The served placement (engine inside the CmServer, and the block
    /// store once drained) agrees with the standalone engine.
    fn check_server_agrees(&self) -> Result<(), Failure> {
        if self.server.backlog() > 0 {
            return Ok(()); // only comparable at rest
        }
        if !self.server.residency_consistent() {
            return Err(Failure {
                invariant: "server-agree",
                detail: "block store residency inconsistent with AF() at rest".into(),
            });
        }
        for obj in self.engine.catalog().objects() {
            let stride = (obj.blocks / 32).max(1) as usize;
            for blk in (0..obj.blocks).step_by(stride) {
                let ours = self.engine.locate(obj.id, blk).map_err(|e| {
                    exec_failure(format!("engine.locate({:?},{blk}): {e:?}", obj.id))
                })?;
                let theirs = self.server.placement().locate(obj.id, blk).map_err(|e| {
                    exec_failure(format!("server locate({:?},{blk}): {e:?}", obj.id))
                })?;
                if ours != theirs {
                    return Err(Failure {
                        invariant: "server-agree",
                        detail: format!(
                            "object {:?} block {blk}: engine {ours:?} vs server {theirs:?}",
                            obj.id
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Span label for a step: stable names keyed by step kind.
fn step_name(step: &Step) -> &'static str {
    match step {
        Step::Scale { .. } => "step.scale",
        Step::AddObject { .. } => "step.add-object",
        Step::RemoveObject { .. } => "step.remove-object",
        Step::Workload { .. } => "step.workload",
        Step::Compact { .. } => "step.compact",
    }
}

/// Placement fingerprint: every block's disk, in catalog order.
fn placement_of(engine: &Scaddar) -> Vec<(ObjectId, Vec<u32>)> {
    engine
        .catalog()
        .objects()
        .iter()
        .map(|obj| {
            let disks = engine
                .locate_all(obj.id)
                .expect("object in catalog")
                .iter()
                .map(|d| d.0)
                .collect();
            (obj.id, disks)
        })
        .collect()
}

/// Normalizes a raw operation against the current disk count. `None`
/// means the step is a no-op at this state (e.g. array at the cap).
fn normalize_op(raw: &ScalingOp, disks: u32) -> Option<ScalingOp> {
    match raw {
        ScalingOp::Add { count } => {
            let count = (*count).min(MAX_DISKS.saturating_sub(disks));
            (count > 0).then_some(ScalingOp::Add { count })
        }
        ScalingOp::Remove { disks: picks } => {
            let mut victims: Vec<u32> = Vec::new();
            for &p in picks {
                let v = p % disks;
                if !victims.contains(&v) {
                    victims.push(v);
                }
                if disks - victims.len() as u32 == MIN_DISKS {
                    break;
                }
            }
            (!victims.is_empty() && disks > MIN_DISKS)
                .then_some(ScalingOp::Remove { disks: victims })
        }
    }
}

fn exec_failure(detail: String) -> Failure {
    Failure {
        invariant: "exec",
        detail,
    }
}

/// Concurrent readers against a pre-op clone while the op commits: every
/// read must observe one internally consistent epoch.
fn stale_epoch_reads(
    clone: CmServer,
    op: ScalingOp,
    n_prev: u32,
    disks_after: u32,
    reads: u32,
) -> Result<(), Failure> {
    let target = clone
        .engine()
        .catalog()
        .objects()
        .first()
        .map(|o| (o.id, o.blocks));
    let Some((id, blocks)) = target else {
        return Ok(()); // nothing to read
    };
    let e_pre = clone.engine().epoch();
    let shared = SharedServer::new(clone);
    let reader = |salt: u64| -> Result<(), String> {
        for k in 0..u64::from(reads) {
            let blk = (k.wrapping_mul(31).wrapping_add(salt)) % blocks;
            let read = shared
                .locate(id, blk)
                .map_err(|e| format!("locate({id:?},{blk}): {e:?}"))?;
            if read.epoch != e_pre && read.epoch != e_pre + 1 {
                return Err(format!(
                    "read at epoch {} (commit was {e_pre}->{})",
                    read.epoch,
                    e_pre + 1
                ));
            }
            let expected_disks = if read.epoch == e_pre {
                n_prev
            } else {
                disks_after
            };
            if read.disks != expected_disks {
                return Err(format!(
                    "torn read: epoch {} with {} disks (expected {expected_disks})",
                    read.epoch, read.disks
                ));
            }
            if read.disk.0 >= read.disks {
                return Err(format!(
                    "read names disk {} outside its own epoch's {} disks",
                    read.disk.0, read.disks
                ));
            }
        }
        Ok(())
    };
    let result = std::thread::scope(|s| {
        let r1 = s.spawn(|| reader(1));
        let r2 = s.spawn(|| reader(7));
        shared
            .scale(op)
            .map_err(|e| format!("shared.scale: {e:?}"))?;
        let mut ticks = 0u32;
        while shared.backlog() > 0 {
            shared.tick();
            ticks += 1;
            if ticks > MAX_TICKS {
                return Err("shared drain stuck".to_string());
            }
        }
        r1.join().expect("reader 1 panicked")?;
        r2.join().expect("reader 2 panicked")
    });
    result.map_err(|detail| Failure {
        invariant: "epoch-consistency",
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn clean_scenarios_pass_and_traces_are_bit_reproducible() {
        for seed in [3u64, 17, 404] {
            let scenario = Scenario::generate(seed);
            let a = execute(&scenario, Mutation::None);
            let b = execute(&scenario, Mutation::None);
            assert!(a.passed(), "seed {seed} failed:\n{}", a.trace);
            assert_eq!(a.trace, b.trace, "seed {seed} trace not reproducible");
            assert_eq!(a.spans, b.spans, "seed {seed} spans not byte-identical");
            assert!(!a.spans.is_empty(), "seed {seed} recorded no spans");
        }
    }

    #[test]
    fn span_timeline_names_every_step_kind_executed() {
        let scenario = Scenario::generate(11);
        let outcome = execute(&scenario, Mutation::None);
        assert!(outcome.spans.contains("setup.ingest"));
        for (line, step) in outcome
            .spans
            .lines()
            .filter(|l| l.contains("step."))
            .zip(&scenario.steps)
        {
            assert!(
                line.contains(step_name(step)),
                "span order must follow step order: {line} vs {step:?}"
            );
        }
    }

    #[test]
    fn failing_runs_attach_spans_with_the_failure_event() {
        for seed in 0..64u64 {
            let scenario = Scenario::generate(seed);
            let outcome = execute(&scenario, Mutation::Ro1AddOffByOne);
            if outcome.passed() {
                continue;
            }
            assert!(
                outcome.spans.contains("failed="),
                "failure must be visible in the span timeline:\n{}",
                outcome.spans
            );
            return;
        }
        panic!("no seed in 0..64 tripped the planted bug");
    }

    #[test]
    fn health_event_log_is_byte_identical_per_seed() {
        for seed in [19u64, 17, 404] {
            let scenario = Scenario::generate(seed);
            let a = execute(&scenario, Mutation::None);
            let b = execute(&scenario, Mutation::None);
            assert!(a.passed(), "seed {seed} failed:\n{}", a.trace);
            assert_eq!(
                a.health_events, b.health_events,
                "seed {seed} health events not byte-identical"
            );
            assert!(
                !a.health_events.is_empty(),
                "seed {seed} monitor recorded no events at all"
            );
            // Every line is valid JSON under the strict hand parser.
            for line in a.health_events.lines() {
                scaddar_obs::try_parse_json_values(line)
                    .unwrap_or_else(|e| panic!("seed {seed} bad event line {line:?}: {e}"));
            }
        }
    }

    #[test]
    fn clean_runs_raise_no_conformance_alerts() {
        for seed in [3u64, 17, 404] {
            let scenario = Scenario::generate(seed);
            let outcome = execute(&scenario, Mutation::None);
            assert!(outcome.passed(), "seed {seed} failed:\n{}", outcome.trace);
            for line in outcome.health_events.lines() {
                let quiet = !line.contains("\"probe\": \"ro1\"")
                    && !line.contains("\"probe\": \"ro2\"")
                    || line.contains("\"severity\": \"ok\"");
                assert!(quiet, "seed {seed} clean run alerted: {line}");
            }
        }
    }

    #[test]
    fn planted_misplacement_is_caught_by_the_monitor() {
        let scenario = Scenario::generate(3);
        let outcome = execute(&scenario, Mutation::MisplaceBlock);
        // Detection means the health invariant *passes* (the monitor did
        // its job) and the alert is in the event log.
        assert!(
            outcome.passed(),
            "monitor missed the planted misplacement:\n{}",
            outcome.trace
        );
        assert!(
            outcome
                .health_events
                .lines()
                .any(|l| l.contains("ro2-misplacement") && !l.contains("\"severity\": \"ok\"")),
            "no ro2-misplacement alert in:\n{}",
            outcome.health_events
        );
        assert!(outcome.health_alerts >= 1);
        assert!(outcome.trace.contains("mutation: misplaced"));
    }

    #[test]
    fn a_monitor_blind_to_the_rot_would_fail_the_run() {
        // Companion negative check: the detection invariant itself.
        let err = crate::invariants::check_health_detects_misplacement(&[]).unwrap_err();
        assert_eq!(err.invariant, "health-detects-misplacement");
    }

    /// The mid-churn compaction acceptance: seeded scenarios containing
    /// a kill-during-compaction step must pass the whole invariant
    /// catalog (no lost block, budget refilled, byte-identical traces).
    #[test]
    fn kill_during_compaction_scenarios_pass_with_identical_traces() {
        let mut found = 0;
        for seed in 0..200u64 {
            let scenario = Scenario::generate(seed);
            let has_kill = scenario
                .steps
                .iter()
                .any(|s| matches!(s, Step::Compact { kill: Some(_) }));
            if !has_kill {
                continue;
            }
            let a = execute(&scenario, Mutation::None);
            assert!(a.passed(), "seed {seed} failed:\n{}", a.trace);
            assert!(
                a.trace.contains("fault kill-during-compaction")
                    || a.trace.contains("compact skipped"),
                "seed {seed} trace missing the kill:\n{}",
                a.trace
            );
            let b = execute(&scenario, Mutation::None);
            assert_eq!(a.trace, b.trace, "seed {seed} trace not reproducible");
            if a.trace.contains("fault kill-during-compaction") {
                found += 1;
            }
            if found >= 2 {
                return;
            }
        }
        assert!(found > 0, "no seed in 0..200 exercised a compaction kill");
    }

    /// Compaction lifecycle events land in the health log, and the trace
    /// records the generation flip with the collapsed chain's effects
    /// visible to the budget invariant (checked inside the executor).
    #[test]
    fn compaction_steps_log_lifecycle_events() {
        for seed in 0..200u64 {
            let scenario = Scenario::generate(seed);
            if !scenario
                .steps
                .iter()
                .any(|s| matches!(s, Step::Compact { .. }))
            {
                continue;
            }
            let outcome = execute(&scenario, Mutation::None);
            assert!(outcome.passed(), "seed {seed} failed:\n{}", outcome.trace);
            if !outcome.trace.contains("compact generation") {
                continue; // every compact step in this seed was refused
            }
            assert!(
                outcome.health_events.contains("compaction-active"),
                "seed {seed} missing start event:\n{}",
                outcome.health_events
            );
            assert!(
                outcome.health_events.contains("compaction-complete"),
                "seed {seed} missing completion event:\n{}",
                outcome.health_events
            );
            return;
        }
        panic!("no seed in 0..200 executed a compaction step");
    }

    #[test]
    fn normalize_op_respects_band() {
        assert_eq!(
            normalize_op(&ScalingOp::Add { count: 3 }, 63),
            Some(ScalingOp::Add { count: 1 })
        );
        assert_eq!(normalize_op(&ScalingOp::Add { count: 3 }, 64), None);
        assert_eq!(
            normalize_op(&ScalingOp::Remove { disks: vec![9, 14] }, 5),
            Some(ScalingOp::Remove { disks: vec![4] })
        );
        assert_eq!(normalize_op(&ScalingOp::Remove { disks: vec![0] }, 2), None);
    }
}
