//! # scaddar-bench — Criterion benchmark harness
//!
//! Benchmarks backing the paper's AO1 objective ("low complexity
//! computation ... inexpensive mod and div functions") and the
//! comparative cost claims:
//!
//! | bench target | measures | experiment |
//! |--------------|----------|------------|
//! | `access` | `AF()` ns/lookup vs epoch `j`, per RNG family | E8 |
//! | `remap` | raw `REMAP_j` throughput; `RF()` planning over 100k and 1M blocks | E8, E8c |
//! | `strategies` | `place()` cost across all strategies | E11 support |
//! | `server` | cmsim round throughput; scale, ingest and restore cost; post-compaction locate | E9 support, E24 |
//! | `persist` | snapshot encode/decode; bulk `locate_all` | E8 |
//! | `obs` | instrumented vs bare locate, plan and profiler paths | E8b |
//! | `monitor` | monitor-attached vs detached locate and tick | — |
//! | `net` | wire codec; loopback request and pipeline paths | E21 |
//!
//! Run with `cargo bench --workspace`. Shared fixtures live here, and
//! so does the gate table ([`gate::GATES`]) that CI checks the results
//! against with the `bench_gate` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use scaddar_core::{ScalingLog, ScalingOp};

/// Builds a scaling log of `ops` operations alternating removals and
/// additions around `disks` (the fixture every access bench uses).
pub fn churn_log(disks: u32, ops: usize) -> ScalingLog {
    let mut log = ScalingLog::new(disks).expect("positive disk count");
    for i in 0..ops {
        let op = if i % 2 == 0 {
            ScalingOp::remove_one(0)
        } else {
            ScalingOp::Add { count: 1 }
        };
        log.push(&op).expect("valid churn op");
    }
    log
}

/// Builds a log of `ops` single-disk additions starting from `disks`.
pub fn growth_log(disks: u32, ops: usize) -> ScalingLog {
    let mut log = ScalingLog::new(disks).expect("positive disk count");
    for _ in 0..ops {
        log.push(&ScalingOp::Add { count: 1 }).expect("valid add");
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_requested_depth() {
        assert_eq!(churn_log(8, 16).epoch(), 16);
        assert_eq!(churn_log(8, 16).current_disks(), 8);
        assert_eq!(growth_log(4, 10).current_disks(), 14);
    }
}
