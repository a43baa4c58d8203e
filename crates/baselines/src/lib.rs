//! # scaddar-baselines — every strategy SCADDAR is measured against
//!
//! The paper positions SCADDAR against a spectrum of alternatives; this
//! crate implements all of them behind one [`PlacementStrategy`] trait so
//! the experiment harness can drive them through identical schedules:
//!
//! | strategy | paper source | RO1 (movement) | RO2 (balance) | state |
//! |----------|--------------|----------------|---------------|-------|
//! | [`ScaddarStrategy`] | §4.2 | optimal | near-perfect for ≤k ops | scaling log |
//! | [`NaiveStrategy`] | §4.1 Eq. 2 | optimal | **broken after op 2** | op list |
//! | [`FullRedistStrategy`] | App. A | ~all blocks | perfect | disk count |
//! | [`DirectoryStrategy`] | App. A | optimal | perfect | O(B) directory |
//! | [`RoundRobinStrategy`] | §1, ref \[8\] | ~all blocks | perfect (deterministic) | disk count |
//! | [`ConsistentHashStrategy`] | modern comparator | near-optimal | ~1/√vnodes spread | ring |
//! | [`JumpHashStrategy`] | modern comparator | optimal-grow, tail-only shrink | excellent | disk count |
//!
//! The [`harness`] module runs schedules and measures movement against
//! *physical* disk identity (so renumbering is not miscounted) plus load
//! censuses for balance metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consistent_hash;
pub mod directory;
pub mod full;
pub mod harness;
pub mod jump_hash;
pub mod naive;
pub mod round_robin;
pub mod scaddar;
pub mod strategy;

pub use consistent_hash::ConsistentHashStrategy;
pub use directory::DirectoryStrategy;
pub use full::FullRedistStrategy;
pub use harness::{cov, optimal_fraction, run_schedule, synthetic_population, OpStats};
pub use jump_hash::JumpHashStrategy;
pub use naive::NaiveStrategy;
pub use round_robin::RoundRobinStrategy;
pub use scaddar::ScaddarStrategy;
pub use strategy::{BlockKey, PlacementStrategy, PlacementStrategyExt};

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::ScalingOp;

    /// Cross-strategy sanity: everyone places the same population within
    /// range, before and after a mixed schedule.
    #[test]
    fn all_strategies_stay_in_range() {
        let keys = synthetic_population(5_000, 3);
        let schedule = [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(1),
            ScalingOp::Add { count: 1 },
        ];
        let mut strategies: Vec<Box<dyn PlacementStrategy>> = vec![
            Box::new(ScaddarStrategy::new(4).unwrap()),
            Box::new(NaiveStrategy::new(4).unwrap()),
            Box::new(FullRedistStrategy::new(4).unwrap()),
            Box::new(RoundRobinStrategy::new(4).unwrap()),
            Box::new(ConsistentHashStrategy::new(4, 64).unwrap()),
            Box::new(JumpHashStrategy::new(4).unwrap()),
        ];
        let mut dir = DirectoryStrategy::new(4, 5).unwrap();
        dir.register(&keys);
        strategies.push(Box::new(dir));

        for s in &mut strategies {
            for op in &schedule {
                s.apply(op).unwrap();
            }
            assert_eq!(s.disks(), 6, "{}", s.name());
            for &k in &keys {
                assert!(s.place(k) < 6, "{} out of range", s.name());
            }
        }
    }

    /// The headline comparison in miniature: after one addition, SCADDAR,
    /// directory and jump-hash move ~z_j; full-redistribution and
    /// round-robin move ~everything.
    #[test]
    fn movement_ordering_is_as_published() {
        let keys = synthetic_population(30_000, 8);
        let schedule = [ScalingOp::Add { count: 1 }];
        let frac = |stats: Vec<OpStats>| stats[0].moved_fraction();

        let scaddar =
            frac(run_schedule(&mut ScaddarStrategy::new(4).unwrap(), &keys, &schedule).unwrap());
        let full =
            frac(run_schedule(&mut FullRedistStrategy::new(4).unwrap(), &keys, &schedule).unwrap());
        let rr =
            frac(run_schedule(&mut RoundRobinStrategy::new(4).unwrap(), &keys, &schedule).unwrap());
        let jump =
            frac(run_schedule(&mut JumpHashStrategy::new(4).unwrap(), &keys, &schedule).unwrap());

        assert!((scaddar - 0.2).abs() < 0.02);
        assert!((jump - 0.2).abs() < 0.02);
        assert!(full > 0.7);
        assert!(rr > 0.7);
    }
}
