//! The access function `AF()` — deriving a block's disk at any epoch.
//!
//! After `j` scaling operations, `AF()` folds the block's original random
//! number `X_0` through `REMAP_1 … REMAP_j` and returns
//! `D_j = X_j mod N_j` (§4). The cost is `O(j)` integer operations — the
//! paper's AO1 objective ("low complexity computation... inexpensive mod
//! and div functions instead of a disk-resident directory"). Benchmarked
//! in `crates/bench/benches/access.rs`.

use crate::log::{RecordAction, ScalingLog};
use crate::remap::{remap_add, remap_remove};
use std::fmt;

/// A logical disk index at some epoch (`0..N_j`).
///
/// Logical indices are dense and renumbered on removal; the simulator
/// layer maps them to stable physical identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskIndex(pub u32);

impl fmt::Display for DiskIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk {}", self.0)
    }
}

/// One step of a block's remap history, for tracing and the worked-example
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Epoch after the step (`0` = initial placement).
    pub epoch: usize,
    /// `X_e` at that epoch.
    pub x: u64,
    /// `N_e` at that epoch.
    pub disks: u32,
    /// `D_e = X_e mod N_e`.
    pub disk: DiskIndex,
    /// Did the step move the block? (`false` for epoch 0.)
    pub moved: bool,
}

/// Applies `REMAP_{e}` for the record at epoch `e` (1-based) to `x_prev`.
fn apply_record(x_prev: u64, record: &crate::log::ScalingRecord) -> crate::remap::Remapped {
    let n_prev = u64::from(record.disks_before());
    match record.action() {
        RecordAction::Added { .. } => remap_add(x_prev, n_prev, u64::from(record.disks_after())),
        RecordAction::Removed(set) => remap_remove(x_prev, n_prev, set),
    }
}

/// `X_j`: folds `x0` through every operation in the log.
pub fn x_at_current_epoch(x0: u64, log: &ScalingLog) -> u64 {
    x_at_epoch(x0, log, log.epoch())
}

/// `X_e` for an arbitrary epoch `e <= log.epoch()`.
///
/// # Panics
/// If `e` exceeds the log's epoch.
pub fn x_at_epoch(x0: u64, log: &ScalingLog, e: usize) -> u64 {
    assert!(e <= log.epoch(), "epoch {e} is in the future");
    log.records()[..e]
        .iter()
        .fold(x0, |x, record| apply_record(x, record).x)
}

/// `AF()`: the disk of a block with original random number `x0` at the
/// current epoch.
pub fn locate(x0: u64, log: &ScalingLog) -> DiskIndex {
    locate_at_epoch(x0, log, log.epoch())
}

/// `D_e` for an arbitrary epoch.
pub fn locate_at_epoch(x0: u64, log: &ScalingLog, e: usize) -> DiskIndex {
    let x = x_at_epoch(x0, log, e);
    let n = u64::from(log.disks_at(e));
    DiskIndex((x % n) as u32)
}

/// The full remap history of a block: `X_0 … X_j` with disks and move
/// flags. Powers the §4.2 worked-example reproduction and debugging.
pub fn trace(x0: u64, log: &ScalingLog) -> Vec<TraceStep> {
    let mut steps = Vec::with_capacity(log.epoch() + 1);
    let n0 = u64::from(log.initial_disks());
    steps.push(TraceStep {
        epoch: 0,
        x: x0,
        disks: log.initial_disks(),
        disk: DiskIndex((x0 % n0) as u32),
        moved: false,
    });
    let mut x = x0;
    for (idx, record) in log.records().iter().enumerate() {
        let out = apply_record(x, record);
        x = out.x;
        let n = u64::from(record.disks_after());
        steps.push(TraceStep {
            epoch: idx + 1,
            x,
            disks: record.disks_after(),
            disk: DiskIndex((x % n) as u32),
            moved: out.moved,
        });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScalingOp;

    fn log_with(initial: u32, ops: &[ScalingOp]) -> ScalingLog {
        let mut log = ScalingLog::new(initial).unwrap();
        for op in ops {
            log.push(op).unwrap();
        }
        log
    }

    #[test]
    fn epoch_zero_is_plain_mod() {
        let log = ScalingLog::new(4).unwrap();
        assert_eq!(locate(10, &log), DiskIndex(2));
        assert_eq!(locate(3, &log), DiskIndex(3));
    }

    #[test]
    fn trace_is_consistent_with_locate() {
        let log = log_with(
            4,
            &[
                ScalingOp::Add { count: 2 },
                ScalingOp::remove_one(1),
                ScalingOp::Add { count: 1 },
            ],
        );
        for x0 in [0u64, 7, 28, 41, 123_456_789, u64::MAX] {
            let steps = trace(x0, &log);
            assert_eq!(steps.len(), 4);
            for (e, step) in steps.iter().enumerate() {
                assert_eq!(step.epoch, e);
                assert_eq!(step.disk, locate_at_epoch(x0, &log, e));
                assert_eq!(step.x, x_at_epoch(x0, &log, e));
            }
        }
    }

    #[test]
    fn trace_moved_flags_match_disk_changes_for_additions() {
        // For pure additions there is no renumbering, so `moved` must
        // coincide exactly with a disk change between epochs.
        let log = log_with(
            4,
            &[ScalingOp::Add { count: 1 }, ScalingOp::Add { count: 2 }],
        );
        for x0 in 0..10_000u64 {
            let steps = trace(x0, &log);
            for w in steps.windows(2) {
                assert_eq!(w[1].moved, w[0].disk != w[1].disk, "x0={x0}");
            }
        }
    }

    #[test]
    fn paper_removal_example_via_access_function() {
        // One removal of disk 4 out of 6. X_{j-1}=28 lives on disk 4 and
        // must move to the 4th surviving disk; X=41 stays.
        let log = log_with(6, &[ScalingOp::remove_one(4)]);
        assert_eq!(locate(28, &log), DiskIndex(4));
        assert_eq!(x_at_current_epoch(28, &log), 4);
        assert_eq!(locate(41, &log), DiskIndex(4));
        assert_eq!(x_at_current_epoch(41, &log), 34);
    }

    #[test]
    fn residual_randomness_shrinks() {
        // The quotient q_j = X_j div N_j is the randomness left for
        // future operations (§4.3).
        let residual = |x0, log: &ScalingLog| {
            crate::remap::split_qr(x_at_current_epoch(x0, log), u64::from(log.current_disks())).0
        };
        let mut log = ScalingLog::new(4).unwrap();
        let x0 = u64::MAX - 12345;
        let q0 = residual(x0, &log);
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let q1 = residual(x0, &log);
        assert!(q1 < q0, "quotient should shrink: {q0} -> {q1}");
    }

    #[test]
    #[should_panic(expected = "future")]
    fn future_epoch_panics() {
        let log = ScalingLog::new(4).unwrap();
        let _ = locate_at_epoch(1, &log, 1);
    }
}
