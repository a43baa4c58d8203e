//! One cmsim shard burns the §4.3 fairness budget until the health
//! monitor goes CRIT, then the auto-compaction policy fires and the
//! shard serves a seeded lookup workload through the whole
//! dual-generation cutover. No lookup may hiccup and no cataloged block
//! may go unplaceable before, halfway through, or after the cutover;
//! the flip must leave consistent residency, generation 1, an empty
//! REMAP chain and a refilled budget.
//!
//! The timing half of the cutover (post-flip locate within 1.2× of a
//! fresh engine) is the `compact_locate` bench group, gated in
//! `scaddar_bench::gate::GATES`.

use cmsim::{CmServer, ServerConfig};
use scaddar_compact::CompactionController;
use scaddar_core::{ObjectId, ScalingOp};
use scaddar_monitor::{HealthMonitor, MonitorConfig, Severity};
use scaddar_obs::VirtualClock;
use scaddar_prng::{Pcg64, SeededRng};
use std::sync::Arc;

/// The seed CI pinned for the compaction run.
const SEED: u64 = 6_073_421;
const OBJECTS: u64 = 24;
const BLOCKS: u64 = 2_000;
const DISKS: u32 = 8;
/// Lookups served between executor ticks while the migration drains.
const LOOKUPS_PER_ROUND: u64 = 32;

/// Full-catalog sweep through the generation-aware path; returns the
/// number of blocks that did not resolve to an in-range disk.
fn unknown_blocks(server: &CmServer) -> u64 {
    let disks = server.engine().disks();
    let mut unknown = 0;
    for obj in server.engine().catalog().objects() {
        for block in 0..obj.blocks {
            if !matches!(server.placement().locate(obj.id, block), Ok(d) if d.0 < disks) {
                unknown += 1;
            }
        }
    }
    unknown
}

#[test]
fn auto_compaction_serves_through_the_cutover() {
    let config = ServerConfig::new(DISKS)
        .with_catalog_seed(SEED)
        .with_auto_compact(Some(0));
    let mut server = CmServer::new(config).expect("server boot");
    for _ in 0..OBJECTS {
        server.add_object(BLOCKS).expect("add object");
    }
    let clock = Arc::new(VirtualClock::new());
    let mut monitor =
        HealthMonitor::for_engine(MonitorConfig::default(), clock.clone(), server.engine());
    let mut controller = CompactionController::from_config(&config);

    // Remove/add round-trips are the fastest budget spenders; each is
    // drained offline so the executor stays idle.
    while server.next_op_is_safe(&ScalingOp::remove_one(0)) {
        server
            .scale_offline(ScalingOp::remove_one(0))
            .expect("remove");
        server
            .scale_offline(ScalingOp::Add { count: 1 })
            .expect("add");
    }
    monitor.observe_engine(server.engine());
    assert_eq!(monitor.report().verdict(), Severity::Crit);
    assert_eq!(unknown_blocks(&server), 0, "before the cutover");

    // The auto policy fires on the first step (budget 0 ≤ threshold 0).
    let mut rng = Pcg64::from_seed(SEED ^ 0xC0_4A_C7);
    let mut midway_audited = false;
    let max_rounds = server.engine().catalog().total_blocks() + 10_000;
    let mut rounds = 0;
    loop {
        clock.advance(1_000);
        controller.step(&mut server, &mut monitor);
        if !server.compaction_active() && !controller.in_flight() {
            break;
        }
        for _ in 0..LOOKUPS_PER_ROUND {
            let object = ObjectId(rng.next_u64() % OBJECTS);
            let block = rng.next_u64() % BLOCKS;
            let disk = server.placement().locate(object, block);
            assert!(
                matches!(disk, Ok(d) if d.0 < server.engine().disks()),
                "hiccup in round {rounds}: {object:?}/{block} -> {disk:?}"
            );
        }
        // One full sweep while the migration is genuinely half done.
        if !midway_audited
            && server
                .compaction_progress()
                .is_some_and(|p| p.fraction() >= 0.5)
        {
            assert_eq!(unknown_blocks(&server), 0, "halfway through the cutover");
            midway_audited = true;
        }
        server.tick();
        rounds += 1;
        assert!(
            rounds <= max_rounds,
            "compaction wedged after {rounds} rounds"
        );
    }
    assert!(
        midway_audited,
        "the cutover never reached its midpoint sweep"
    );
    assert_eq!(unknown_blocks(&server), 0, "after the cutover");

    monitor.observe_engine(server.engine());
    assert!(server.residency_consistent());
    assert_eq!(server.generation(), 1);
    assert_eq!(server.engine().log().epoch(), 0, "flip left a REMAP chain");
    assert!(
        monitor.budget_remaining() > 0,
        "flip did not refill the budget"
    );
}
