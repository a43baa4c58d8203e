//! Cross-crate integration: the redundancy and integrity machinery
//! (mirroring, declustered parity, failures, scrubbing, snapshots)
//! working together over one server lifetime.

use cmsim::{availability_census, CmServer, DeclusteredParity, Scrubber, ServerConfig};
use scaddar_core::{DiskIndex, ScalingOp};

fn drained(server: &mut CmServer) {
    let mut rounds = 0;
    while server.backlog() > 0 {
        server.tick();
        rounds += 1;
        assert!(rounds < 100_000, "drain diverged");
    }
}

#[test]
fn mirror_and_parity_agree_on_single_failure_safety() {
    let mut server = CmServer::new(ServerConfig::new(10).with_catalog_seed(3)).unwrap();
    server.add_object(8_000).unwrap();
    let parity = DeclusteredParity::build(&server, 4).unwrap();
    for d in 0..10 {
        let failed = [DiskIndex(d)];
        let (_, mirror_lost) = availability_census(&server, &failed).unwrap();
        let (_, parity_lost) = parity.availability(&server, &failed).unwrap();
        assert_eq!(mirror_lost, 0, "mirroring lost data on disk {d}");
        assert_eq!(parity_lost, 0, "declustered parity lost data on disk {d}");
    }
}

#[test]
fn failure_scaling_scrub_snapshot_lifecycle() {
    let mut server = CmServer::new(
        ServerConfig::new(8)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(8)
            .with_catalog_seed(12),
    )
    .unwrap();
    let obj = server.add_object(10_000).unwrap();
    let mut parity = DeclusteredParity::build(&server, 5).unwrap();
    let mut scrubber = Scrubber::new();

    // Grow, repair parity, scrub clean.
    server.scale(ScalingOp::Add { count: 2 }).unwrap();
    drained(&mut server);
    parity.repair(&server).unwrap();
    assert_eq!(parity.conflicted_groups(&server).unwrap(), 0);
    loop {
        let r = scrubber.scrub(&server, 4_096);
        assert!(r.corrupt.is_empty(), "scrub found corruption after growth");
        if r.completed_pass {
            break;
        }
    }

    // A disk dies; the operator pulls it; parity regroups.
    let dead = server.fail_disk(DiskIndex(4));
    server.scale(ScalingOp::remove_one(4)).unwrap();
    drained(&mut server);
    assert_eq!(server.store().blocks_on(dead), 0);
    parity.repair(&server).unwrap();
    assert_eq!(parity.conflicted_groups(&server).unwrap(), 0);
    assert!(server.residency_consistent());

    // Single-failure safety holds on the reshaped array.
    for d in 0..server.placement().disks().disks() {
        let (_, lost) = parity.availability(&server, &[DiskIndex(d)]).unwrap();
        assert_eq!(lost, 0, "disk {d} after lifecycle");
    }

    // Snapshot, restore, and verify the restored server serves the same
    // placement and scrubs clean.
    let bytes = server.snapshot().unwrap();
    let restored = CmServer::restore(ServerConfig::new(8).with_catalog_seed(12), &bytes).unwrap();
    for blk in (0..10_000).step_by(503) {
        assert_eq!(
            restored.placement().locate(obj, blk).unwrap(),
            server.placement().locate(obj, blk).unwrap()
        );
    }
    let mut scrubber = Scrubber::new();
    loop {
        let r = scrubber.scrub(&restored, 4_096);
        assert!(r.corrupt.is_empty());
        assert_eq!(r.in_transit, 0);
        if r.completed_pass {
            break;
        }
    }
}

#[test]
fn double_failure_beyond_redundancy_is_detected_not_hidden() {
    // Mirror partners at N=6: disks 0 and 3.
    let mut server = CmServer::new(ServerConfig::new(6).with_catalog_seed(9)).unwrap();
    let obj = server.add_object(4_000).unwrap();
    let (_, lost) = availability_census(&server, &[DiskIndex(0), DiskIndex(3)]).unwrap();
    assert!(lost > 0, "the fatal pair must lose data");

    // Live server: fail both, streams on affected blocks stall rather
    // than silently reading garbage.
    for _ in 0..20 {
        server.open_stream(obj).unwrap();
    }
    server.fail_disk(DiskIndex(0));
    server.fail_disk(DiskIndex(3));
    for _ in 0..40 {
        server.tick();
    }
    assert!(server.metrics().total_hiccups() > 0);
    // Non-partner double failure on a fresh server: zero loss.
    let server2 = {
        let mut s = CmServer::new(ServerConfig::new(6).with_catalog_seed(9)).unwrap();
        s.add_object(4_000).unwrap();
        s
    };
    let (_, lost) = availability_census(&server2, &[DiskIndex(0), DiskIndex(2)]).unwrap();
    assert_eq!(lost, 0);
}
