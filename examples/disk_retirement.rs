//! Retiring a generation of disks with mirroring armed (§6): group
//! removal, draining, and what the `f(N) = N/2` mirror offset buys when
//! a disk dies *without* warning mid-retirement.
//!
//! Run with: `cargo run --release --example disk_retirement`

use cmsim::{availability_census, mirror_of, CmServer, ServerConfig};
use scaddar::prelude::*;
use scaddar_core::DiskIndex;

fn main() {
    // An aging 10-disk array, half of it from the old generation.
    let mut server = CmServer::new(
        ServerConfig::new(10)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(8)
            .with_catalog_seed(99),
    )
    .unwrap();
    for _ in 0..10 {
        server.add_object(10_000).unwrap();
    }
    println!(
        "array: 10 disks, {} blocks; old generation = disks 0..5",
        server.store().len()
    );

    // Mirror math: every block is also reachable at offset N/2.
    let sample = server.placement().locate(ObjectId(0), 0).unwrap();
    println!(
        "sample block: primary {sample}, mirror {} (offset {})",
        mirror_of(sample, 10),
        10 / 2
    );

    // Surprise failure before the retirement even starts.
    let (readable, lost) = availability_census(&server, &[DiskIndex(2)]).unwrap();
    println!("disk 2 dies unexpectedly: {readable} blocks readable, {lost} lost (mirroring holds)");
    assert_eq!(lost, 0);

    // Planned retirement of the old generation, two disks per window so
    // bandwidth stays available for viewers.
    println!("\nretiring the old generation (disks 0..5), two per window:");
    for window in 0..2 {
        // After renumbering, the oldest disks are always at the front.
        let op = ScalingOp::Remove { disks: vec![0, 1] };
        assert!(server.next_op_is_safe(&op), "fairness budget exhausted");
        let queued = server.scale(op).unwrap();
        let mut rounds = 0;
        while server.backlog() > 0 {
            server.tick();
            rounds += 1;
        }
        println!(
            "  window {window}: moved {queued} blocks over {rounds} rounds; now {} disks, draining {} left",
            server.placement().disks().disks(),
            server.draining_disks().len(),
        );
        assert!(server.residency_consistent());
    }

    // Final state: 6 disks, balanced, mirrors intact at the new offset.
    let census = server.load_census();
    let total: u64 = census.iter().sum();
    let mean = total as f64 / census.len() as f64;
    println!("\nfinal load census across {} disks:", census.len());
    for (d, &c) in census.iter().enumerate() {
        println!(
            "  disk {d}: {c} blocks ({:+.1}% vs mean)",
            (c as f64 - mean) / mean * 100.0
        );
    }
    let (readable, lost) = availability_census(&server, &[DiskIndex(0)]).unwrap();
    println!("single-failure check after retirement: {readable} readable, {lost} lost");
    assert_eq!(lost, 0);
    println!(
        "fairness: sigma={} after {} operations — {}",
        server.engine().fairness().sigma,
        server.engine().fairness().operations,
        if server.next_op_is_safe(&ScalingOp::Add { count: 1 }) {
            "budget remains for more scaling"
        } else {
            "schedule a full redistribution next"
        }
    );
}
