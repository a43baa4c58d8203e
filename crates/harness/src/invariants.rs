//! The invariant catalog: every check the harness runs after each step.
//!
//! Each checker is a pure function from observed state to
//! `Result<(), Failure>`. A [`Failure`] names the invariant (stable
//! identifiers, listed in `TESTING.md`) and carries a human-readable
//! detail string; the executor turns the first failure into a trace
//! entry and the shrinker minimizes the scenario that produced it.

use crate::model::Model;
use scaddar_analysis::uniformity::{chi_square_uniform, max_relative_deviation};
use scaddar_core::{locate, plan_last_op, MovePlan, ObjectId, Scaddar, ScalingOp};
use scaddar_monitor::{HealthEvent, HealthMonitor};
use scaddar_obs::{ProfileSnapshot, Registry, RegistrySnapshot, SpanRecord, VirtualClock};
use std::sync::Arc;

/// A named invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Stable invariant identifier (e.g. `"ro1-model"`).
    pub invariant: &'static str,
    /// What was observed vs expected.
    pub detail: String,
}

impl Failure {
    fn new(invariant: &'static str, detail: String) -> Failure {
        Failure { invariant, detail }
    }
}

/// Shorthand used by every checker.
pub type Check = Result<(), Failure>;

/// Threshold below which the chi-square RO2 check fires. Over the CI
/// fleet (~32 seeds × ~10 checks each) the false-positive probability
/// at `1e-9` is negligible, while genuine skew (e.g. a wrong remap)
/// collapses the p-value to ~0 within a few thousand blocks.
pub const CHI_SQUARE_P_FLOOR: f64 = 1e-9;

/// **`ro1-exact`** — no extraneous movement (the exact half of RO1).
///
/// For a removal, every migrated block must come *from* a removed disk
/// (survivors never move). For an addition, every migrated block must
/// land *on* a fresh disk (`to >= N_{j-1}`); no block shuffles between
/// old disks. These hold with probability 1, not just in expectation.
pub fn check_ro1_exact(plan: &MovePlan, op: &ScalingOp, n_prev: u32) -> Check {
    match op {
        ScalingOp::Add { .. } => {
            for m in &plan.moves {
                if m.to.0 < n_prev {
                    return Err(Failure::new(
                        "ro1-exact",
                        format!(
                            "addition moved {:?} to old disk {} (< N_prev={n_prev})",
                            m.block, m.to.0
                        ),
                    ));
                }
            }
        }
        ScalingOp::Remove { disks } => {
            for m in &plan.moves {
                if !disks.contains(&m.from.0) {
                    return Err(Failure::new(
                        "ro1-exact",
                        format!(
                            "removal moved survivor block {:?} off disk {}",
                            m.block, m.from.0
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// **`oracle-plan`** — the plan `Scaddar::scale` returned (the X-cache
/// planner, `O(B)`) equals the stateless reference `RF()`
/// ([`plan_last_op`], `O(B·j)` from `X_0`) over the engine's post-op
/// catalog and log: same moves in the same order, same census.
pub fn check_oracle_plan(plan: &MovePlan, engine: &Scaddar) -> Check {
    let oracle = plan_last_op(engine.catalog(), engine.log());
    if *plan == oracle {
        return Ok(());
    }
    Err(Failure::new(
        "oracle-plan",
        format!(
            "scale() plan diverges from plan_last_op: {} vs {} moves over {} vs {} blocks",
            plan.moves.len(),
            oracle.moves.len(),
            plan.total_blocks,
            oracle.total_blocks
        ),
    ))
}

/// **`ro1-fraction`** — the moved fraction tracks the optimal `z_j`.
///
/// The realized fraction is a binomial sample around the optimum, so
/// the check allows six standard deviations plus a small absolute
/// epsilon — loose enough to never fire on honest randomness, tight
/// enough to flag a remap that moves a constant factor too much.
pub fn check_ro1_fraction(plan: &MovePlan) -> Check {
    if plan.total_blocks == 0 {
        return Ok(());
    }
    let p = plan.optimal_fraction;
    let n = plan.total_blocks as f64;
    let sigma = (p * (1.0 - p) / n).sqrt();
    let slack = 6.0 * sigma + 0.005;
    let observed = plan.moved_fraction();
    if (observed - p).abs() > slack {
        return Err(Failure::new(
            "ro1-fraction",
            format!(
                "moved fraction {observed:.4} vs optimal {p:.4} \
                 (slack {slack:.4}, {} blocks)",
                plan.total_blocks
            ),
        ));
    }
    Ok(())
}

/// **`ro2-uniform`** — placement stays statistically uniform.
///
/// Primary: chi-square goodness of fit on the per-disk census with
/// p-value floor [`CHI_SQUARE_P_FLOOR`]. Secondary: the max relative
/// deviation must stay within the tracked `C_v` unfairness bound plus
/// generous sampling slack (`10·sqrt(n/B)`), a belt-and-braces bound
/// that only catastrophic skew can exceed.
pub fn check_ro2(engine: &Scaddar) -> Check {
    let census = engine.load_distribution();
    let total: u64 = census.iter().sum();
    if total < 200 || census.len() < 2 {
        return Ok(()); // too few blocks for a meaningful test
    }
    let chi = chi_square_uniform(&census);
    if chi.p_value < CHI_SQUARE_P_FLOOR {
        return Err(Failure::new(
            "ro2-uniform",
            format!(
                "chi-square p={:.3e} < {CHI_SQUARE_P_FLOOR:.0e} \
                 (stat {:.2}, census {census:?})",
                chi.p_value, chi.statistic
            ),
        ));
    }
    let bound = engine.fairness().unfairness_bound;
    let sampling = 10.0 * (census.len() as f64 / total as f64).sqrt();
    let dev = max_relative_deviation(&census);
    if dev > bound + sampling + 0.01 {
        return Err(Failure::new(
            "ro2-uniform",
            format!(
                "max relative deviation {dev:.3} exceeds bound {bound:.3} \
                 + sampling slack {sampling:.3}"
            ),
        ));
    }
    Ok(())
}

/// **`oracle-agree`** — every locate path agrees with the reference
/// REMAP fold (AO1: no directory, one arithmetic answer).
///
/// Cross-checks, on a strided sample of blocks: the engine's cached
/// `locate`, the stateless per-block fold over the scaling log, and the
/// compiled pipeline fold (serial and batch).
pub fn check_oracle(engine: &Scaddar) -> Check {
    let log = engine.log();
    let pipeline = engine.pipeline();
    for obj in engine.catalog().objects() {
        let stride = (obj.blocks / 64).max(1) as usize;
        let sampled: Vec<u64> = (0..obj.blocks).step_by(stride).collect();
        let x0s: Vec<u64> = sampled
            .iter()
            .map(|&b| engine.catalog().x0(obj, b))
            .collect();
        let batch = pipeline.locate_batch(&x0s);
        for (i, (&blk, &x0)) in sampled.iter().zip(&x0s).enumerate() {
            let cached = engine.locate(obj.id, blk).map_err(|e| {
                Failure::new("oracle-agree", format!("locate({:?},{blk}): {e:?}", obj.id))
            })?;
            let reference = locate(x0, log);
            let folded = pipeline.locate(x0);
            if cached != reference || folded != reference || batch[i] != reference {
                return Err(Failure::new(
                    "oracle-agree",
                    format!(
                        "object {:?} block {blk}: cached={cached:?} \
                         pipeline={folded:?} batch={:?} reference={reference:?}",
                        obj.id, batch[i]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **`ro1-model`** — engine placement equals the independent model.
///
/// This is the deterministic net for remap arithmetic bugs: the model
/// evolves every `X_j` with its own copy of the paper's equations, so
/// any divergence (including the plantable [`crate::scenario::Mutation`])
/// is an exact, non-statistical failure on a specific block.
pub fn check_model(engine: &Scaddar, model: &Model) -> Check {
    if engine.disks() != model.disks() {
        return Err(Failure::new(
            "ro1-model",
            format!(
                "disk counts diverged: engine {} vs model {}",
                engine.disks(),
                model.disks()
            ),
        ));
    }
    for (id, expected) in model.placements() {
        let got = engine
            .locate_all(id)
            .map_err(|e| Failure::new("ro1-model", format!("locate_all({id:?}): {e:?}")))?;
        for (blk, (g, e)) in got.iter().zip(&expected).enumerate() {
            if g.0 != *e {
                return Err(Failure::new(
                    "ro1-model",
                    format!(
                        "object {id:?} block {blk}: engine disk {} vs model disk {e}",
                        g.0
                    ),
                ));
            }
        }
        if got.len() != expected.len() {
            return Err(Failure::new(
                "ro1-model",
                format!(
                    "object {id:?}: engine has {} blocks, model {}",
                    got.len(),
                    expected.len()
                ),
            ));
        }
    }
    Ok(())
}

/// **`derived-state`** — caches, pipeline, and fairness tracker are
/// exactly re-derivable from the durable state (catalog + log).
pub fn check_derived(engine: &Scaddar) -> Check {
    engine
        .verify_derived_state()
        .map_err(|e| Failure::new("derived-state", e))
}

/// **`health-quiet`** — on a fault-free clean run the health monitor
/// must not raise any RO1 or RO2 conformance alert.
///
/// Budget (`§4.3`) alerts are *not* failures: a scenario with many
/// scaling operations legitimately exhausts the unfairness budget, and
/// the monitor advising a rehash is exactly the behavior the paper
/// prescribes. Only the conformance probes — which assert the engine is
/// *correct*, not merely aging — must stay silent.
pub fn check_health_quiet(events: &[HealthEvent]) -> Check {
    for e in events {
        if e.severity.is_alert() && (e.probe == "ro1" || e.probe == "ro2") {
            return Err(Failure::new(
                "health-quiet",
                format!(
                    "clean run raised {}/{} {} (value {:.6} vs threshold {:.6}): {}",
                    e.probe,
                    e.kind,
                    e.severity.label(),
                    e.value,
                    e.threshold,
                    e.detail
                ),
            ));
        }
    }
    Ok(())
}

/// **`health-detects-misplacement`** — after silent data rot is planted
/// ([`crate::scenario::Mutation::MisplaceBlock`]), the monitor's exact
/// RO2 conformance probe must have raised an `ro2-misplacement` alert.
pub fn check_health_detects_misplacement(events: &[HealthEvent]) -> Check {
    if events
        .iter()
        .any(|e| e.kind == "ro2-misplacement" && e.severity.is_alert())
    {
        return Ok(());
    }
    Err(Failure::new(
        "health-detects-misplacement",
        format!(
            "planted misplacement raised no ro2-misplacement alert \
             ({} health events recorded)",
            events.len()
        ),
    ))
}

/// **`compaction-no-loss`** — a rehash compaction reorganizes but never
/// loses: the flipped engine serves exactly the pre-compaction catalog
/// (same objects, same block counts), every block locates onto a live
/// disk of the new generation, and the serving store's resident total
/// is unchanged (blocks migrate, they don't vanish or duplicate).
pub fn check_compaction_no_loss(
    engine: &Scaddar,
    pre_catalog: &[(ObjectId, u64)],
    pre_resident: u64,
    post_resident: u64,
) -> Check {
    let post: Vec<(ObjectId, u64)> = engine
        .catalog()
        .objects()
        .iter()
        .map(|o| (o.id, o.blocks))
        .collect();
    if post != pre_catalog {
        return Err(Failure::new(
            "compaction-no-loss",
            format!("catalog changed across the flip: {pre_catalog:?} -> {post:?}"),
        ));
    }
    for obj in engine.catalog().objects() {
        let disks = engine.locate_all(obj.id).map_err(|e| {
            Failure::new(
                "compaction-no-loss",
                format!("locate_all({:?}) after the flip: {e:?}", obj.id),
            )
        })?;
        if disks.len() != obj.blocks as usize {
            return Err(Failure::new(
                "compaction-no-loss",
                format!(
                    "object {:?}: {} blocks locatable after the flip, expected {}",
                    obj.id,
                    disks.len(),
                    obj.blocks
                ),
            ));
        }
        if let Some(d) = disks.iter().find(|d| d.0 >= engine.disks()) {
            return Err(Failure::new(
                "compaction-no-loss",
                format!(
                    "object {:?} placed on disk {} outside the {}-disk array",
                    obj.id,
                    d.0,
                    engine.disks()
                ),
            ));
        }
    }
    if post_resident != pre_resident {
        return Err(Failure::new(
            "compaction-no-loss",
            format!(
                "resident block total changed across compaction: \
                 {pre_resident} -> {post_resident}"
            ),
        ));
    }
    Ok(())
}

/// **`compaction-resets-budget`** — after a completed compaction the
/// REMAP chain is empty (locate is one mod, §4.2's fold has nothing to
/// fold) and the monitor's §4.3 budget probe reports the *full* fresh
/// allowance at the current disk count — the same number a monitor
/// built from scratch against the flipped engine computes.
pub fn check_compaction_resets_budget(engine: &Scaddar, budget_remaining: u32) -> Check {
    let chain = engine.log().epoch();
    if chain != 0 {
        return Err(Failure::new(
            "compaction-resets-budget",
            format!("REMAP chain still {chain} op(s) long after the flip"),
        ));
    }
    let fresh = HealthMonitor::for_engine(Arc::new(VirtualClock::new()), engine).budget_remaining();
    if budget_remaining != fresh {
        return Err(Failure::new(
            "compaction-resets-budget",
            format!(
                "budget probe reports {budget_remaining} safe op(s) remaining, \
                 a fresh monitor computes {fresh} at N={}",
                engine.disks()
            ),
        ));
    }
    Ok(())
}

/// **`cluster-routing-agree`** — every routed lookup landed on the
/// shard the independent jump-hash model names as owner.
///
/// `observed` is `(object, serving shard)` per completed lookup;
/// `expected` is the model's verdict for the same object (evolved with
/// its own copy of the jump-hash equations, so any divergence — client
/// routing, shard gate, or map plumbing — is an exact failure on a
/// specific object).
pub fn check_cluster_routing_agree(observed: &[(u64, u32, u32)]) -> Check {
    for &(object, served_by, expected) in observed {
        if served_by != expected {
            return Err(Failure::new(
                "cluster-routing-agree",
                format!(
                    "object {object} served by shard {served_by}, \
                     model routes it to shard {expected}"
                ),
            ));
        }
    }
    Ok(())
}

/// **`cluster-epoch-single`** — no object is served from two cluster
/// epochs at once: probing every shard directly, at most one may
/// answer a lookup (the others must redirect, declare themselves
/// stale, or error).
pub fn check_cluster_epoch_single(object: u64, serving: &[u32]) -> Check {
    if serving.len() > 1 {
        return Err(Failure::new(
            "cluster-epoch-single",
            format!("object {object} served by shards {serving:?} simultaneously"),
        ));
    }
    Ok(())
}

/// **`cluster-migration-delta`** — a topology change migrates *exactly*
/// the jump-hash delta (set equality against the independent model's
/// prediction), and the realized fraction stays within the analytic
/// expectation plus a 6σ binomial allowance.
pub fn check_cluster_migration_delta(
    moved: &[u64],
    predicted: &[u64],
    population: u64,
    expected_fraction: f64,
) -> Check {
    let mut moved_sorted = moved.to_vec();
    moved_sorted.sort_unstable();
    let mut predicted_sorted = predicted.to_vec();
    predicted_sorted.sort_unstable();
    if moved_sorted != predicted_sorted {
        let extra: Vec<u64> = moved_sorted
            .iter()
            .filter(|o| !predicted_sorted.contains(o))
            .copied()
            .collect();
        let missing: Vec<u64> = predicted_sorted
            .iter()
            .filter(|o| !moved_sorted.contains(o))
            .copied()
            .collect();
        return Err(Failure::new(
            "cluster-migration-delta",
            format!(
                "migrated set diverges from the model's jump-hash delta: \
                 {} moved vs {} predicted (extra {extra:?}, missing {missing:?})",
                moved_sorted.len(),
                predicted_sorted.len()
            ),
        ));
    }
    if population == 0 {
        return Ok(());
    }
    let fraction = moved.len() as f64 / population as f64;
    let sigma = (expected_fraction * (1.0 - expected_fraction) / population as f64).sqrt();
    let bound = expected_fraction + 6.0 * sigma;
    if fraction > bound {
        return Err(Failure::new(
            "cluster-migration-delta",
            format!(
                "migrated fraction {fraction:.4} exceeds expected \
                 {expected_fraction:.4} + 6σ bound {bound:.4} \
                 ({} of {population} objects)",
                moved.len()
            ),
        ));
    }
    Ok(())
}

/// **`trace-complete`** — every accepted request yields exactly one
/// root-complete distributed trace: among the spans gathered for
/// `trace_id` (client tracer plus every shard's flight recorder)
/// exactly one is a root (`parent_id == 0`), every non-root span's
/// parent is present (no orphans — a hop that recorded a span under a
/// parent that never recorded is a broken propagation chain), and at
/// least `min_spans` spans exist (`2` for a served lookup: the client
/// root plus the serving shard's continuation).
pub fn check_trace_complete(trace_id: u64, spans: &[SpanRecord], min_spans: usize) -> Check {
    if trace_id == 0 {
        return Err(Failure::new(
            "trace-complete",
            "trace id 0 marks an untraced span and can never be checked".to_string(),
        ));
    }
    let trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    let roots: Vec<&&SpanRecord> = trace.iter().filter(|s| s.parent_id == 0).collect();
    if roots.len() != 1 {
        return Err(Failure::new(
            "trace-complete",
            format!(
                "trace {trace_id:016x} has {} root spans ({:?}), expected exactly 1",
                roots.len(),
                roots.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
            ),
        ));
    }
    let present: std::collections::BTreeSet<u64> = trace.iter().map(|s| s.span_id).collect();
    for s in &trace {
        if s.parent_id != 0 && !present.contains(&s.parent_id) {
            return Err(Failure::new(
                "trace-complete",
                format!(
                    "trace {trace_id:016x}: span {:016x} ({}) is orphaned \
                     under absent parent {:016x}",
                    s.span_id, s.name, s.parent_id
                ),
            ));
        }
    }
    if trace.len() < min_spans {
        return Err(Failure::new(
            "trace-complete",
            format!(
                "trace {trace_id:016x} has {} spans, expected at least {min_spans} \
                 (client root plus every serving hop's continuation)",
                trace.len()
            ),
        ));
    }
    Ok(())
}

/// **`obs-federation-agree`** — the federated fleet registry agrees
/// with the sum of direct per-shard scrapes on every *serving* series:
/// per-endpoint request counters and latency histograms (bucket-wise
/// equal, not just same percentiles) plus the error counters. The
/// `scrape-stats` endpoint and the connection/byte-level series are
/// excluded — the scrapes themselves perturb those (observer effect),
/// so only the serving traffic is required to agree exactly. Every
/// shard must declare this build's bucket layout, or the aggregator
/// would skip its histograms.
pub fn check_federation_agreement(fleet: &RegistrySnapshot, directs: &[RegistrySnapshot]) -> Check {
    let serving_counter = |name: &str| {
        (name.starts_with("net_server_requests_total{") && !name.contains("scrape-stats"))
            || name == "net_server_errors_total"
            || name == "net_server_protocol_errors_total"
    };
    let serving_histogram =
        |name: &str| name.starts_with("net_server_request_ns{") && !name.contains("scrape-stats");
    // Fold the direct scrapes with the same absorb the aggregator uses,
    // so any divergence indicts the federation path, not the fold. A
    // shard that does not declare the bucket layout would have its
    // histograms skipped by the aggregator, so it fails here.
    let expect = Registry::new();
    let skipped: u64 = directs.iter().map(|d| expect.absorb_checked(d)).sum();
    if skipped > 0 {
        return Err(Failure::new(
            "obs-federation-agree",
            format!(
                "{skipped} histogram series skipped: a shard declares no or another bucket layout"
            ),
        ));
    }
    let expect = expect.snapshot();
    for c in expect.counters.iter().filter(|c| serving_counter(&c.name)) {
        let got = fleet.counter_value(&c.name);
        if got != Some(c.value) {
            return Err(Failure::new(
                "obs-federation-agree",
                format!(
                    "counter {}: federated {:?} vs direct sum {}",
                    c.name, got, c.value
                ),
            ));
        }
    }
    for h in expect
        .histograms
        .iter()
        .filter(|h| serving_histogram(&h.name))
    {
        match fleet.histogram(&h.name) {
            Some(got) if *got == h.snapshot => {}
            got => {
                return Err(Failure::new(
                    "obs-federation-agree",
                    format!(
                        "histogram {}: federated buckets diverge from the \
                         bucket-wise direct merge (count {:?} vs {})",
                        h.name,
                        got.map(|g| g.count),
                        h.snapshot.count
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **`profile-conserves`** — the cooperative profiler's residency
/// accounting is exact, not approximate: for every registered thread
/// the per-state counts sum to precisely the rounds that observed it
/// (sampling and snapshotting share one lock, so no round can be
/// half-attributed), and no thread reports more samples than the
/// profiler ran rounds. Holds for a single daemon's dump and for a
/// fleet-merged profile alike; under scripted `VirtualClock` driving,
/// the folded rendering is additionally byte-identical per seed
/// (pinned by the checker's unit tests).
pub fn check_profile_conserves(profile: &ProfileSnapshot) -> Check {
    for thread in &profile.threads {
        let total: u64 = thread.counts.iter().copied().sum();
        if total != thread.samples {
            return Err(Failure::new(
                "profile-conserves",
                format!(
                    "thread {}: residency counts sum to {total} but {} rounds \
                     observed it (counts {:?})",
                    thread.name, thread.samples, thread.counts
                ),
            ));
        }
        if thread.samples > profile.rounds {
            return Err(Failure::new(
                "profile-conserves",
                format!(
                    "thread {}: {} samples exceed the profiler's {} total rounds",
                    thread.name, thread.samples, profile.rounds
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mutation;
    use scaddar_core::ScaddarConfig;

    fn engine() -> Scaddar {
        let mut e = Scaddar::new(ScaddarConfig::new(5).with_catalog_seed(11)).unwrap();
        e.add_object(1_500);
        e.add_object(800);
        e
    }

    #[test]
    fn clean_engine_passes_every_checker() {
        let mut e = engine();
        let mut model = Model::new(5, Mutation::None);
        for obj in e.catalog().objects() {
            let x0s = (0..obj.blocks).map(|b| e.catalog().x0(obj, b)).collect();
            model.add_object(obj.id, x0s);
        }
        for op in [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(1),
            ScalingOp::Add { count: 1 },
        ] {
            let n_prev = e.disks();
            let plan = e.scale(op.clone()).unwrap();
            model.apply(&op);
            check_ro1_exact(&plan, &op, n_prev).unwrap();
            check_oracle_plan(&plan, &e).unwrap();
            check_ro1_fraction(&plan).unwrap();
            check_ro2(&e).unwrap();
            check_oracle(&e).unwrap();
            check_model(&e, &model).unwrap();
            check_derived(&e).unwrap();
        }
    }

    #[test]
    fn buggy_model_trips_the_model_check() {
        let mut e = engine();
        let mut model = Model::new(5, Mutation::Ro1AddOffByOne);
        for obj in e.catalog().objects() {
            let x0s = (0..obj.blocks).map(|b| e.catalog().x0(obj, b)).collect();
            model.add_object(obj.id, x0s);
        }
        // A couple of additions make the t == N_{j-1} boundary draw all
        // but certain to occur across 2300 blocks.
        let mut tripped = false;
        for op in [ScalingOp::Add { count: 1 }, ScalingOp::Add { count: 1 }] {
            e.scale(op.clone()).unwrap();
            model.apply(&op);
            if let Err(f) = check_model(&e, &model) {
                assert_eq!(f.invariant, "ro1-model");
                tripped = true;
                break;
            }
        }
        assert!(tripped, "planted off-by-one must be detected");
    }

    #[test]
    fn ro1_exact_flags_a_fabricated_extra_move() {
        let mut e = engine();
        let op = ScalingOp::Add { count: 1 };
        let n_prev = e.disks();
        let mut plan = e.scale(op.clone()).unwrap();
        check_ro1_exact(&plan, &op, n_prev).unwrap();
        // Forge a move between two *old* disks: must be rejected.
        if let Some(m) = plan.moves.first_mut() {
            m.to = scaddar_core::DiskIndex(0);
            m.from = scaddar_core::DiskIndex(1);
        }
        assert!(check_ro1_exact(&plan, &op, n_prev).is_err());
    }

    #[test]
    fn oracle_plan_flags_a_dropped_or_forged_move() {
        let mut e = engine();
        let mut plan = e.scale(ScalingOp::Add { count: 1 }).unwrap();
        check_oracle_plan(&plan, &e).unwrap();
        let dropped = plan
            .moves
            .pop()
            .expect("an addition over 2300 blocks moves some");
        let f = check_oracle_plan(&plan, &e).unwrap_err();
        assert_eq!(f.invariant, "oracle-plan");
        plan.moves.push(dropped);
        plan.moves[0].to = scaddar_core::DiskIndex(0);
        assert!(check_oracle_plan(&plan, &e).is_err());
    }

    #[test]
    fn compaction_no_loss_passes_a_real_flip_and_flags_fabricated_loss() {
        let mut e = engine();
        e.scale(ScalingOp::Add { count: 3 }).unwrap();
        e.scale(ScalingOp::remove_one(1)).unwrap();
        let pre: Vec<(scaddar_core::ObjectId, u64)> = e
            .catalog()
            .objects()
            .iter()
            .map(|o| (o.id, o.blocks))
            .collect();
        let resident = e.catalog().total_blocks();
        e.rehash_to_next_generation();
        check_compaction_no_loss(&e, &pre, resident, resident).unwrap();
        // A store that lost a block across the flip.
        let f = check_compaction_no_loss(&e, &pre, resident, resident - 1).unwrap_err();
        assert_eq!(f.invariant, "compaction-no-loss");
        assert!(f.detail.contains("resident block total"), "{}", f.detail);
        // A catalog that changed across the flip.
        let mut wrong = pre.clone();
        wrong[0].1 += 1;
        let f = check_compaction_no_loss(&e, &wrong, resident, resident).unwrap_err();
        assert!(f.detail.contains("catalog changed"), "{}", f.detail);
    }

    #[test]
    fn compaction_resets_budget_demands_empty_chain_and_full_allowance() {
        let mut e = engine();
        e.scale(ScalingOp::Add { count: 2 }).unwrap();
        // Chain not collapsed: a "compaction" that left ops behind.
        let f = check_compaction_resets_budget(&e, 99).unwrap_err();
        assert_eq!(f.invariant, "compaction-resets-budget");
        assert!(f.detail.contains("chain still 1"), "{}", f.detail);
        // A real flip with the fresh monitor's own number passes...
        e.rehash_to_next_generation();
        let fresh = HealthMonitor::for_engine(Arc::new(VirtualClock::new()), &e).budget_remaining();
        check_compaction_resets_budget(&e, fresh).unwrap();
        // ...but a budget probe that failed to refill does not.
        let f = check_compaction_resets_budget(&e, fresh - 1).unwrap_err();
        assert!(f.detail.contains("fresh monitor computes"), "{}", f.detail);
    }

    #[test]
    fn cluster_routing_agree_flags_the_divergent_object() {
        check_cluster_routing_agree(&[(3, 1, 1), (9, 0, 0)]).unwrap();
        let f = check_cluster_routing_agree(&[(3, 1, 1), (9, 2, 0)]).unwrap_err();
        assert_eq!(f.invariant, "cluster-routing-agree");
        assert!(f.detail.contains("object 9"));
    }

    #[test]
    fn cluster_epoch_single_allows_one_server_at_most() {
        check_cluster_epoch_single(7, &[]).unwrap();
        check_cluster_epoch_single(7, &[2]).unwrap();
        let f = check_cluster_epoch_single(7, &[1, 3]).unwrap_err();
        assert_eq!(f.invariant, "cluster-epoch-single");
    }

    #[test]
    fn cluster_migration_delta_demands_set_equality_and_the_bound() {
        check_cluster_migration_delta(&[4, 1], &[1, 4], 16, 0.25).unwrap();
        // Wrong set (same size): exact failure naming the divergence.
        let f = check_cluster_migration_delta(&[1, 5], &[1, 4], 16, 0.25).unwrap_err();
        assert_eq!(f.invariant, "cluster-migration-delta");
        assert!(f.detail.contains("extra [5]") && f.detail.contains("missing [4]"));
        // Fraction over the 6σ bound: predicted agrees but too much
        // moved (0.60 of 100 against an expected 0.25, bound ≈ 0.51).
        let moved: Vec<u64> = (0..60).collect();
        let f = check_cluster_migration_delta(&moved, &moved, 100, 0.25).unwrap_err();
        assert!(f.detail.contains("exceeds expected"));
    }

    fn span(name: &str, trace_id: u64, span_id: u64, parent_id: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            events: Vec::new(),
            trace_id,
            span_id,
            parent_id,
        }
    }

    #[test]
    fn trace_complete_demands_one_root_no_orphans_and_enough_spans() {
        let spans = vec![
            span("cluster.locate", 7, 10, 0),
            span("serve.locate", 7, 20, 10),
            span("serve.locate", 7, 30, 10),
            // Another trace's spans must not interfere.
            span("cluster.locate", 8, 11, 0),
        ];
        check_trace_complete(7, &spans, 3).unwrap();
        // Too few spans for the requested floor.
        let f = check_trace_complete(7, &spans, 4).unwrap_err();
        assert_eq!(f.invariant, "trace-complete");
        assert!(f.detail.contains("at least 4"));
        // No root at all.
        let f = check_trace_complete(7, &spans[1..3], 1).unwrap_err();
        assert!(f.detail.contains("0 root spans"));
        // Two roots.
        let two = vec![span("a", 7, 1, 0), span("b", 7, 2, 0)];
        assert!(check_trace_complete(7, &two, 1).is_err());
        // Orphan: a hop whose parent never recorded.
        let orphaned = vec![span("root", 7, 1, 0), span("hop", 7, 2, 99)];
        let f = check_trace_complete(7, &orphaned, 1).unwrap_err();
        assert!(f.detail.contains("orphaned"));
        // Trace id 0 is never checkable.
        assert!(check_trace_complete(0, &spans, 1).is_err());
    }

    #[test]
    fn profile_conserves_demands_exact_residency_accounting() {
        use scaddar_obs::ThreadProfile;
        let thread = |samples: u64, counts: Vec<u64>| ThreadProfile {
            name: "scaddard-worker-0".to_string(),
            samples,
            counts,
        };
        let ok = ProfileSnapshot {
            at_ns: 0,
            rounds: 10,
            threads: vec![thread(10, vec![3, 7]), thread(4, vec![4])],
        };
        check_profile_conserves(&ok).unwrap();
        // Counts that don't sum to the observed rounds: a lost or
        // double-attributed sample.
        let torn = ProfileSnapshot {
            at_ns: 0,
            rounds: 10,
            threads: vec![thread(10, vec![3, 6])],
        };
        let f = check_profile_conserves(&torn).unwrap_err();
        assert_eq!(f.invariant, "profile-conserves");
        assert!(f.detail.contains("sum to 9"), "{}", f.detail);
        // A thread claiming more observations than rounds ever ran.
        let inflated = ProfileSnapshot {
            at_ns: 0,
            rounds: 3,
            threads: vec![thread(5, vec![5])],
        };
        let f = check_profile_conserves(&inflated).unwrap_err();
        assert!(f.detail.contains("exceed"), "{}", f.detail);
    }

    /// The determinism half of `profile-conserves`: a seeded scripted
    /// drive of the profiler under a `VirtualClock` — the harness's
    /// sampling mode — must conserve *and* render byte-identical
    /// folded output run after run, for every seed.
    #[test]
    fn profile_conserves_is_byte_identical_per_seed() {
        use scaddar_obs::{Profiler, ThreadState, VirtualClock};
        use std::sync::Arc;
        let run = |seed: u64| {
            let profiler = Profiler::new(Arc::new(VirtualClock::new()));
            let workers: Vec<_> = (0..3)
                .map(|i| profiler.register(&format!("scaddard-worker-{i}")))
                .collect();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            for _ in 0..500 {
                for (i, w) in workers.iter().enumerate() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    w.set(ThreadState::from_u8(((state >> (8 * i)) % 8) as u8).unwrap());
                }
                profiler.sample_once();
            }
            let snap = profiler.snapshot();
            check_profile_conserves(&snap).unwrap();
            snap.render_folded()
        };
        for seed in [1u64, 42, 31_337] {
            assert_eq!(run(seed), run(seed), "seed {seed} diverged");
        }
        assert_ne!(run(1), run(2), "different seeds must script differently");
    }

    #[test]
    fn federation_agreement_flags_counter_and_bucket_divergence() {
        let shard = |requests: u64, latency: u64| {
            let r = Registry::new();
            r.mark_bucket_layout();
            let c = r.counter(
                "net_server_requests_total{endpoint=\"locate\"}",
                "Requests served, by endpoint",
            );
            let h = r.histogram(
                "net_server_request_ns{endpoint=\"locate\"}",
                "Server-side request handling latency, by endpoint",
            );
            for _ in 0..requests {
                c.inc();
                h.record(latency);
            }
            r.snapshot()
        };
        let directs = vec![shard(5, 100), shard(7, 9_000)];
        let fleet = Registry::new();
        for d in &directs {
            assert_eq!(fleet.absorb_checked(d), 0);
        }
        check_federation_agreement(&fleet.snapshot(), &directs).unwrap();

        // A fleet view that lost one shard's counts must be flagged.
        let partial = Registry::new();
        partial.absorb_checked(&directs[0]);
        let f = check_federation_agreement(&partial.snapshot(), &directs).unwrap_err();
        assert_eq!(f.invariant, "obs-federation-agree");

        // Same total count but wrong buckets (percentile-averaged
        // instead of bucket-merged) must also be flagged.
        let skewed = Registry::new();
        skewed.absorb_checked(&shard(12, 100));
        let f = check_federation_agreement(&skewed.snapshot(), &directs).unwrap_err();
        assert!(f.detail.contains("bucket-wise"));

        // A shard that declares no bucket layout must be flagged, even
        // when the fleet view is its plain sum.
        let mut unmarked = directs.clone();
        unmarked[1]
            .gauges
            .retain(|g| g.name != scaddar_obs::BUCKET_LAYOUT_GAUGE);
        let plain = Registry::new();
        for d in &unmarked {
            plain.absorb(d);
        }
        let f = check_federation_agreement(&plain.snapshot(), &unmarked).unwrap_err();
        assert!(f.detail.contains("skipped"), "{}", f.detail);
    }
}
