//! E18 — declustered parity: buying back E13's losses with repair
//! traffic.
//!
//! Static consecutive parity groups lose blocks on single failures
//! (E13); declustering guarantees distinct-disk groups but must repair
//! its membership after every scaling operation. This experiment runs
//! the same schedule over both and tabulates, per operation:
//!
//! * data movement (identical — SCADDAR's z_j, shared by both schemes);
//! * the static scheme's expected single-failure loss after the op;
//! * the declustered scheme's conflicts, repair traffic (regrouped
//!   blocks + parity rewrites) and post-repair loss (always 0).
//!
//! Note on modelling: declustered availability treats parity disks as
//! distinct-by-construction (the same probe rule the static scheme uses
//! for its parity), so the comparison isolates the *data-member*
//! co-location effect that declustering actually addresses.

use cmsim::parity::parity_availability_census;
use cmsim::{CmServer, DeclusteredParity, ServerConfig};
use scaddar_analysis::{fmt_pct, Csv, Table};
use scaddar_core::{DiskIndex, ScalingOp};
use scaddar_experiments::{banner, write_csv};

const GROUP: u32 = 5;
const BLOCKS: u64 = 20_000;

/// Mean single-failure loss fraction over all current disks.
fn static_loss(server: &CmServer) -> f64 {
    let n = server.placement().disks().disks();
    let mut lost_total = 0u64;
    for d in 0..n {
        let (_, _, lost) = parity_availability_census(server, GROUP, &[DiskIndex(d)]).unwrap();
        lost_total += lost;
    }
    lost_total as f64 / (BLOCKS * u64::from(n)) as f64
}

fn declustered_loss(server: &CmServer, layer: &DeclusteredParity) -> f64 {
    let n = server.placement().disks().disks();
    let mut lost_total = 0u64;
    for d in 0..n {
        let (_, lost) = layer.availability(server, &[DiskIndex(d)]).unwrap();
        lost_total += lost;
    }
    lost_total as f64 / (BLOCKS * u64::from(n)) as f64
}

fn main() {
    banner(
        "E18",
        "declustered parity: repair traffic vs the static scheme's losses",
        "§6 future work, carried one step further than E13",
    );
    let mut server = CmServer::new(ServerConfig::new(10).with_catalog_seed(5)).unwrap();
    server.add_object(BLOCKS).unwrap();
    let mut layer = DeclusteredParity::build(&server, GROUP).unwrap();

    let schedule = [
        ScalingOp::Add { count: 2 },
        ScalingOp::remove_one(4),
        ScalingOp::Add { count: 1 },
        ScalingOp::Remove { disks: vec![0, 7] },
    ];

    let mut table = Table::new([
        "op",
        "data moved",
        "static: mean 1-failure loss",
        "declustered: conflicts",
        "declustered: regrouped",
        "parity rewrites",
        "declustered: loss after repair",
    ]);
    let mut csv = Csv::new([
        "op",
        "moved",
        "static_loss",
        "conflicts",
        "regrouped",
        "parity_rewrites",
        "declustered_loss",
    ]);

    println!(
        "initial: static loss {} vs declustered {} (both schemes share SCADDAR data movement)\n",
        fmt_pct(static_loss(&server)),
        fmt_pct(declustered_loss(&server, &layer)),
    );

    for (i, op) in schedule.iter().enumerate() {
        let moved = server.scale_offline(op.clone()).unwrap();
        let conflicts = layer.conflicted_groups(&server).unwrap();
        let stats = layer.repair(&server).unwrap();
        let s_loss = static_loss(&server);
        let d_loss = declustered_loss(&server, &layer);
        table.row([
            format!("{} ({op:?})", i + 1),
            moved.to_string(),
            fmt_pct(s_loss),
            conflicts.to_string(),
            stats.regrouped_blocks.to_string(),
            stats.parity_rewrites.to_string(),
            fmt_pct(d_loss),
        ]);
        csv.row([
            (i + 1).to_string(),
            moved.to_string(),
            format!("{s_loss:.6}"),
            conflicts.to_string(),
            stats.regrouped_blocks.to_string(),
            stats.parity_rewrites.to_string(),
            format!("{d_loss:.6}"),
        ]);
        assert_eq!(d_loss, 0.0, "declustering must restore 1-failure safety");
        assert!(s_loss > 0.0, "static scheme should keep losing blocks");
        assert!(
            stats.regrouped_blocks <= moved,
            "repair traffic exceeded data movement"
        );
    }
    println!("{table}");
    println!(
        "storage: declustered overhead {:.3}x (static {:.3}x), membership table {} KiB",
        layer.storage_overhead(&server),
        f64::from(GROUP) / f64::from(GROUP - 1),
        layer.table_bytes() / 1024,
    );
    println!("reading: declustering converts E13's permanent loss exposure into a bounded,");
    println!("per-operation repair cost (regrouped <= moved blocks) — at the price of the");
    println!("one thing SCADDAR was designed to avoid: per-block state.");
    let path = write_csv("e18_decluster.csv", &csv);
    println!("csv: {}", path.display());
}
