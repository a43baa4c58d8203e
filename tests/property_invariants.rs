//! Property-based integration tests: random scaling schedules against
//! the algorithm's invariants, spanning core + baselines + analysis.

use proptest::prelude::*;
use scaddar::baselines::{run_schedule, synthetic_population, ScaddarStrategy};
use scaddar::cmsim::PhysicalMap;
use scaddar::prelude::*;

/// Generates a random valid schedule of up to `max_ops` operations,
/// tracking the disk count so removals are always legal and the array
/// never shrinks below 2 or grows above 64.
fn schedules(max_ops: usize) -> impl Strategy<Value = (u32, Vec<ScalingOp>)> {
    (
        2u32..12,
        proptest::collection::vec((0u32..4, any::<u64>()), 1..=max_ops),
    )
        .prop_map(|(initial, raw)| {
            let mut disks = initial;
            let mut ops = Vec::new();
            for (kind, pick) in raw {
                if kind == 0 && disks > 2 {
                    // Remove one pseudo-randomly chosen disk.
                    let victim = (pick % u64::from(disks)) as u32;
                    ops.push(ScalingOp::remove_one(victim));
                    disks -= 1;
                } else if kind == 1 && disks > 4 {
                    // Remove a small group.
                    let a = (pick % u64::from(disks)) as u32;
                    let b = (a + 1 + (pick >> 32) as u32 % (disks - 1)) % disks;
                    if a != b {
                        ops.push(ScalingOp::Remove { disks: vec![a, b] });
                        disks -= 2;
                    }
                } else {
                    let count = 1 + (pick % 3) as u32;
                    if disks + count <= 64 {
                        ops.push(ScalingOp::Add { count });
                        disks += count;
                    }
                }
            }
            (initial, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every block is always locatable on a live disk, at every epoch,
    /// for arbitrary valid schedules.
    #[test]
    fn locate_is_total_and_in_range((initial, ops) in schedules(10)) {
        let mut engine = Scaddar::new(ScaddarConfig::new(initial).with_catalog_seed(7)).unwrap();
        let obj = engine.add_object(2_000);
        for op in ops {
            engine.scale(op).unwrap();
            let n = engine.disks();
            for blk in (0..2_000).step_by(37) {
                let d = engine.locate(obj, blk).unwrap();
                prop_assert!(d.0 < n, "block {blk} out of range: {d} of {n}");
            }
        }
    }

    /// RO1 as a universal law: per operation, the observed physical
    /// movement matches the optimal fraction within binomial noise.
    #[test]
    fn movement_is_always_near_optimal((initial, ops) in schedules(8)) {
        prop_assume!(!ops.is_empty());
        let keys = synthetic_population(30_000, 99);
        let mut strategy = ScaddarStrategy::new(initial).unwrap();
        let stats = run_schedule(&mut strategy, &keys, &ops).unwrap();
        for s in &stats {
            // 4-sigma binomial tolerance around z_j.
            let z = s.optimal_fraction;
            let sigma = (z * (1.0 - z) / s.total_blocks as f64).sqrt();
            prop_assert!(
                (s.moved_fraction() - z).abs() < 4.0 * sigma + 1e-9,
                "op {}: moved {} vs z {z} (sigma {sigma})",
                s.op_index,
                s.moved_fraction()
            );
        }
    }

    /// Conservation: blocks are never lost or duplicated — every census
    /// sums to the population, at every step.
    #[test]
    fn census_conserves_blocks((initial, ops) in schedules(8)) {
        prop_assume!(!ops.is_empty());
        let keys = synthetic_population(10_000, 3);
        let mut strategy = ScaddarStrategy::new(initial).unwrap();
        let stats = run_schedule(&mut strategy, &keys, &ops).unwrap();
        for s in &stats {
            prop_assert_eq!(s.load_census.iter().sum::<u64>(), 10_000u64);
            prop_assert_eq!(s.load_census.len() as u32, s.disks_after);
        }
    }

    /// The physical map and the scaling log agree on disk counts for any
    /// schedule (cross-crate numbering consistency).
    #[test]
    fn physical_map_and_log_agree((initial, ops) in schedules(12)) {
        let mut map = PhysicalMap::new(initial);
        let mut log = ScalingLog::new(initial).unwrap();
        for op in &ops {
            map.apply(op).unwrap();
            log.push(op).unwrap();
            prop_assert_eq!(map.disks(), log.current_disks());
        }
    }

    /// Determinism: the same schedule and seeds yield bit-identical
    /// placements (the reproducibility SCADDAR's directory-freeness
    /// rests on).
    #[test]
    fn placement_is_deterministic((initial, ops) in schedules(6)) {
        let build = |_: ()| {
            let mut e = Scaddar::new(ScaddarConfig::new(initial).with_catalog_seed(5)).unwrap();
            let id = e.add_object(500);
            for op in &ops {
                e.scale(op.clone()).unwrap();
            }
            (0..500).map(|b| e.locate(id, b).unwrap().0).collect::<Vec<_>>()
        };
        prop_assert_eq!(build(()), build(()));
    }

    /// The fairness tracker's sigma matches a direct product over the
    /// log's disk counts, for any schedule.
    #[test]
    fn sigma_matches_direct_product((initial, ops) in schedules(12)) {
        let mut log = ScalingLog::new(initial).unwrap();
        for op in &ops {
            log.push(op).unwrap();
        }
        let tracker = FairnessTracker::from_log(Bits::B32, &log);
        let direct: u128 = log
            .disk_counts()
            .iter()
            .fold(1u128, |acc, &n| acc.saturating_mul(u128::from(n)));
        prop_assert_eq!(tracker.sigma(), direct);
    }
}
