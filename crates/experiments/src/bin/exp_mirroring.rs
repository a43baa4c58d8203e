//! E10 — §6 fault tolerance by mirroring at offset `f(N_j) = N_j/2`.
//!
//! Measures block availability under every single-disk failure and every
//! disk-pair failure, before and after scaling operations (the offset is
//! a pure function of `N_j`, so mirrors stay locatable with no directory).
//!
//! Shape: single failures lose nothing; exactly the `N/2` "opposite"
//! pairs are fatal for the blocks they share (~`2/N` of all blocks);
//! the property is preserved across scaling.

use cmsim::{availability_census, mirror_offset, CmServer, ServerConfig};
use scaddar_analysis::{fmt_pct, Csv, Table};
use scaddar_core::{DiskIndex, ScalingOp};
use scaddar_experiments::{banner, write_csv};

fn pair_survey(server: &CmServer, total_blocks: u64, csv: &mut Csv, phase: &str) {
    let n = server.placement().disks().disks();
    let mut fatal_pairs = 0u32;
    let mut worst_loss = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            let (_, lost) = availability_census(server, &[DiskIndex(a), DiskIndex(b)]).unwrap();
            if lost > 0 {
                fatal_pairs += 1;
                worst_loss = worst_loss.max(lost);
            }
            csv.row([
                phase.to_string(),
                format!("{a}+{b}"),
                lost.to_string(),
                fmt_pct(lost as f64 / total_blocks as f64),
            ]);
        }
    }
    // Fatal pairs are {d, d+offset}: when the offset is self-inverse
    // (2*offset = 0 mod N, i.e. even N with offset N/2) the pairs pair
    // up and there are N/2 of them; otherwise each d yields a distinct
    // unordered pair, giving N (one side of each pair loses its blocks).
    let off = mirror_offset(n);
    let expected_fatal = if (2 * off).is_multiple_of(n) {
        n / 2
    } else {
        n
    };
    println!(
        "{phase}: N={n}, offset={}, fatal pairs {fatal_pairs}/{} (expected {expected_fatal}), worst pair loses {} blocks ({})",
        mirror_offset(n),
        n * (n - 1) / 2,
        worst_loss,
        fmt_pct(worst_loss as f64 / total_blocks as f64),
    );
    assert_eq!(fatal_pairs, expected_fatal, "fatal-pair count diverged");
}

fn main() {
    banner(
        "E10",
        "mirroring at offset f(N) = N/2: availability under failures",
        "§6 (fault tolerance by data mirroring)",
    );
    const BLOCKS: u64 = 30_000;
    let mut server = CmServer::new(ServerConfig::new(6).with_catalog_seed(8)).unwrap();
    server.add_object(BLOCKS).unwrap();

    // Single failures: never lose data.
    let mut table = Table::new(["failed disk", "readable", "lost"]);
    for d in 0..6 {
        let (readable, lost) = availability_census(&server, &[DiskIndex(d)]).unwrap();
        table.row([d.to_string(), readable.to_string(), lost.to_string()]);
        assert_eq!(lost, 0, "single failure lost data");
    }
    println!("single-disk failures (N=6):");
    println!("{table}");

    let mut csv = Csv::new(["phase", "failed_pair", "lost_blocks", "lost_fraction"]);
    pair_survey(&server, BLOCKS, &mut csv, "before scaling (N=6)");

    // Scale and re-survey: the offset function tracks N automatically.
    server.scale_offline(ScalingOp::Add { count: 2 }).unwrap();
    pair_survey(&server, BLOCKS, &mut csv, "after adding 2 (N=8)");
    server.scale_offline(ScalingOp::remove_one(3)).unwrap();
    pair_survey(&server, BLOCKS, &mut csv, "after removing 1 (N=7)");

    println!();
    println!(
        "storage overhead: mirroring {}x vs parity group of 5: {:.2}x (§6's future work)",
        cmsim::faults::mirroring_overhead(),
        cmsim::faults::parity_group_overhead(5)
    );
    let path = write_csv("e10_mirroring.csv", &csv);
    println!("csv: {}", path.display());
}
