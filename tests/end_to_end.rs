//! Cross-crate integration: the full simulated server driven through a
//! realistic life, with invariants checked at every stage.

use cmsim::{CmServer, ServerConfig, Simulation, WorkloadConfig};
use scaddar::prelude::*;

fn drained(server: &mut CmServer) -> u32 {
    let mut rounds = 0;
    while server.backlog() > 0 {
        server.tick();
        rounds += 1;
        assert!(rounds < 100_000, "drain diverged");
    }
    rounds
}

#[test]
fn server_lifetime_with_mixed_scaling_and_content_churn() {
    let mut server = CmServer::new(
        ServerConfig::new(6)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(8)
            .with_catalog_seed(1234),
    )
    .unwrap();

    // Content arrives over time.
    let first = server.add_object(8_000).unwrap();
    server.add_object(12_000).unwrap();
    assert!(server.residency_consistent());

    // Grow online.
    server.scale(ScalingOp::Add { count: 2 }).unwrap();
    drained(&mut server);
    assert!(server.residency_consistent());

    // More content lands on the *expanded* array.
    let third = server.add_object(10_000).unwrap();
    assert!(server.residency_consistent());

    // Old content retired; a disk too.
    server.remove_object(first).unwrap();
    server.scale(ScalingOp::remove_one(1)).unwrap();
    drained(&mut server);
    assert!(server.residency_consistent());

    // Final accounting.
    assert_eq!(server.store().len(), 22_000);
    let census = server.load_census();
    assert_eq!(census.len(), 7);
    assert_eq!(census.iter().sum::<u64>(), 22_000);
    let summary = scaddar::analysis::Summary::of_counts(&census);
    assert!(summary.cov < 0.05, "load became unbalanced: {census:?}");

    // Blocks of the remaining objects are all reachable.
    for blk in (0..10_000).step_by(997) {
        let d = server.placement().locate(third, blk).unwrap();
        assert!(d.0 < 7);
    }
}

#[test]
fn overlapping_online_scalings_converge() {
    let mut server = CmServer::new(
        ServerConfig::new(4)
            .with_redistribution_bandwidth(2)
            .with_catalog_seed(55),
    )
    .unwrap();
    server.add_object(30_000).unwrap();
    // Fire three additions without waiting for drains.
    server.scale(ScalingOp::Add { count: 1 }).unwrap();
    for _ in 0..3 {
        server.tick();
    }
    server.scale(ScalingOp::Add { count: 1 }).unwrap();
    for _ in 0..3 {
        server.tick();
    }
    server.scale(ScalingOp::Add { count: 2 }).unwrap();
    drained(&mut server);
    assert_eq!(server.placement().disks().disks(), 8);
    assert!(server.residency_consistent());
}

#[test]
fn simulation_under_continuous_churn_stays_clean() {
    let mut sim = Simulation::new(
        ServerConfig::new(8)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(4)
            .with_catalog_seed(9),
        WorkloadConfig::interactive(0.1),
        17,
        10,
        600,
    )
    .unwrap();
    sim.run(300);
    // Four maintenance events interleaved with service.
    for (i, op) in [
        ScalingOp::Add { count: 1 },
        ScalingOp::remove_one(2),
        ScalingOp::Add { count: 2 },
        ScalingOp::remove_one(7),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(sim.server().next_op_is_safe(&op), "op {i} exceeded budget");
        sim.server_mut().scale(op).unwrap();
        while sim.server().backlog() > 0 {
            sim.round();
        }
        assert!(sim.server().residency_consistent(), "after op {i}");
    }
    sim.run(200);
    assert_eq!(
        sim.server().metrics().total_hiccups(),
        0,
        "maintenance must be invisible at this load"
    );
    assert_eq!(sim.server().placement().disks().disks(), 9); // 8 +1 -1 +2 -1
}

#[test]
fn full_redistribution_endgame() {
    // Burn through the fairness budget, then fully redistribute as the
    // paper prescribes (§4.3; here a rehash to the next generation), and
    // keep operating.
    let mut engine = Scaddar::new(
        ScaddarConfig::new(8)
            .with_catalog_seed(31)
            .with_epsilon(0.05),
    )
    .unwrap();
    engine.add_object(50_000);
    let mut ops = 0;
    while engine.next_op_is_safe(8) {
        engine.scale(ScalingOp::remove_one(0)).unwrap();
        engine.scale(ScalingOp::Add { count: 1 }).unwrap();
        ops += 2;
        assert!(ops < 100);
    }
    let census_before = engine.load_distribution();
    let moved = engine.rehash_to_next_generation();
    assert!(moved > 30_000, "full redistribution is near-total: {moved}");
    assert_eq!(engine.epoch(), 0);
    let census_after = engine.load_distribution();
    let cov_after = scaddar::analysis::Summary::of_counts(&census_after).cov;
    let cov_before = scaddar::analysis::Summary::of_counts(&census_before).cov;
    assert!(
        cov_after <= cov_before + 0.01,
        "reset must not worsen balance"
    );
    assert!(engine.next_op_is_safe(8), "budget restored");
}
