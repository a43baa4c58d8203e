//! A video-on-demand provider's year, compressed: the server grows from
//! 8 to 14 disks across three maintenance windows **while customers keep
//! watching** — the paper's §1 scenario end to end.
//!
//! Run with: `cargo run --release --example video_on_demand`

use scaddar::prelude::*;
use scaddar_core::ScalingOp;

fn main() {
    // A catalog of 20 titles, Zipf-popular, interactive viewers
    // (pause/resume/seek), ~40% utilization.
    let mut sim = Simulation::new(
        ServerConfig::new(8)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(4)
            .with_catalog_seed(7),
        WorkloadConfig::interactive(0.15),
        2026,
        20,
        800,
    )
    .expect("simulation builds");

    println!("quarter 0: 8 disks, filling with viewers...");
    sim.run(600);
    report(&sim, "steady state");

    // Maintenance window 1: demand grew, add a group of 2 disks.
    println!("\nquarter 1: adding a 2-disk group (online)...");
    let queued = sim.server_mut().scale(ScalingOp::Add { count: 2 }).unwrap();
    let drained = drain(&mut sim);
    println!("  queued {queued} block moves, drained in {drained} rounds of background copying");
    report(&sim, "after growth to 10 disks");

    // Maintenance window 2: one early disk shows SMART errors — retire it.
    println!("\nquarter 2: retiring suspect disk 3 (online)...");
    let queued = sim.server_mut().scale(ScalingOp::remove_one(3)).unwrap();
    let drained = drain(&mut sim);
    println!("  drained its {queued} blocks in {drained} rounds; disk unplugged");
    report(&sim, "after retirement to 9 disks");

    // Maintenance window 3: holiday season — a 5-disk group.
    println!("\nquarter 3: holiday capacity, adding 5 disks (online)...");
    let queued = sim.server_mut().scale(ScalingOp::Add { count: 5 }).unwrap();
    let drained = drain(&mut sim);
    println!("  queued {queued} moves, drained in {drained} rounds");
    sim.run(400);
    report(&sim, "year end, 14 disks");

    let m = sim.server().metrics();
    println!(
        "\nthe year in numbers: {} blocks served, {} hiccups ({:.4}% of requests), {} admission rejections",
        m.total_served(),
        m.total_hiccups(),
        m.hiccup_rate() * 100.0,
        sim.rejected(),
    );
    assert!(
        sim.server().residency_consistent(),
        "placement and residency must agree at year end"
    );
    let fairness = sim.server().engine().fairness();
    println!(
        "fairness budget used: sigma={} after {} ops; next op safe? {}",
        fairness.sigma,
        fairness.operations,
        sim.server().next_op_is_safe(&ScalingOp::Add { count: 1 }),
    );
}

/// Runs rounds until the redistribution backlog is empty; returns the
/// rounds that took, as the server's metrics count them.
fn drain(sim: &mut Simulation) -> usize {
    while sim.server().backlog() > 0 {
        sim.round();
    }
    *sim.server()
        .metrics()
        .drain_times()
        .last()
        .expect("a backlog drained")
}

fn report(sim: &Simulation, label: &str) {
    let census = sim.server().load_census();
    let total: u64 = census.iter().sum();
    let mean = total as f64 / census.len() as f64;
    let worst = census
        .iter()
        .map(|&c| ((c as f64 - mean) / mean).abs())
        .fold(0.0f64, f64::max);
    println!(
        "  [{label}] {} viewers, {} disks, {} blocks stored, worst disk deviation {:.1}%, hiccups so far: {}",
        sim.server().active_streams(),
        sim.server().placement().disks().disks(),
        total,
        worst * 100.0,
        sim.server().metrics().total_hiccups(),
    );
}
