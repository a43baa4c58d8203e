//! Property-based equivalence tests for the bulk location engine: the
//! compiled [`RemapPipeline`], the epoch-tagged X-cache behind
//! [`Scaddar::locate`], and the planner inside [`Scaddar::scale`] must
//! all agree with the stateless reference fold, for arbitrary valid
//! scaling histories.

use proptest::prelude::*;
use scaddar::core::address::x_at_current_epoch;
use scaddar::core::xcache::XCache;
use scaddar::prelude::*;

/// Random valid schedules (same shape as `property_invariants`): a mix
/// of single/group removals and additions, disk count kept in 2..=64.
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
                    let victim = (pick % u64::from(disks)) as u32;
                    ops.push(ScalingOp::remove_one(victim));
                    disks -= 1;
                } else if kind == 1 && disks > 4 {
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

    /// The compiled pipeline's fold is the reference fold, for arbitrary
    /// op sequences and arbitrary `X_0` — including incremental
    /// compilation via `extend_from` after every operation.
    #[test]
    fn pipeline_fold_equals_reference_fold(
        (initial, ops) in schedules(10),
        x0s in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let mut log = ScalingLog::new(initial).unwrap();
        let mut pipeline = RemapPipeline::compile(&log);
        for op in &ops {
            log.push(op).unwrap();
            pipeline.extend_from(&log);
            prop_assert_eq!(pipeline.epoch(), log.epoch());
            prop_assert_eq!(pipeline.current_disks(), log.current_disks());
            for &x0 in &x0s {
                prop_assert_eq!(
                    pipeline.fold(x0),
                    x_at_current_epoch(x0, &log),
                    "x0 {} at epoch {}", x0, log.epoch()
                );
                prop_assert_eq!(pipeline.locate(x0), locate(x0, &log));
            }
        }
        // One-shot compilation of the full log agrees with incremental.
        prop_assert_eq!(RemapPipeline::compile(&log), pipeline);
    }

    /// Every plan `Scaddar::scale` returns — the one pass that advances
    /// the X-cache from `X_{j-1}` — is *identical* to the stateless
    /// reference `RF()` over the post-op catalog and log: moves in the
    /// same order, same censuses, at both word widths and either side of
    /// each width's edge, for any history of additions and single or
    /// group removals, with objects admitted and deleted between
    /// operations.
    #[test]
    fn scale_plan_equals_reference_plan(
        (initial, ops) in schedules(8),
        churn in proptest::collection::vec((any::<bool>(), 1u64..900), 8),
        bits in (0usize..4).prop_map(|i| [17u8, 32, 33, 64][i]),
    ) {
        let mut engine = Scaddar::new(
            ScaddarConfig::new(initial)
                .with_catalog_seed(11)
                .with_bits(Bits::new(bits).unwrap()),
        ).unwrap();
        engine.add_object(1_500);
        engine.add_object(700);
        for (op, &(delete, blocks)) in ops.iter().zip(&churn) {
            let plan = engine.scale(op.clone()).unwrap();
            prop_assert_eq!(&plan, &plan_last_op(engine.catalog(), engine.log()), "b = {}", bits);
            // Churn after the op: the next plan runs over a cache that
            // admitted or evicted an object mid-history.
            let oldest = engine.catalog().objects()[0].id;
            if delete && engine.catalog().objects().len() > 1 {
                engine.remove_object(oldest).unwrap();
            } else {
                engine.add_object(blocks);
            }
        }
    }

    /// The engine's cached-X lookups agree with the stateless O(j)
    /// oracle at every epoch of a random history, through object churn.
    #[test]
    fn cached_locate_equals_oracle((initial, ops) in schedules(8)) {
        let mut engine = Scaddar::new(
            ScaddarConfig::new(initial).with_catalog_seed(13),
        ).unwrap();
        let first = engine.add_object(800);
        let second = engine.add_object(300);
        let mut removed_one = false;
        for (i, op) in ops.iter().enumerate() {
            engine.scale(op.clone()).unwrap();
            if i == 1 {
                // Mid-history churn: the cache must track both kinds.
                engine.remove_object(second).unwrap();
                removed_one = true;
                engine.add_object(200);
            }
            for &(id, blocks) in &[(first, 800u64), (second, 300)] {
                if id == second && removed_one {
                    prop_assert!(engine.locate(id, 0).is_err());
                    continue;
                }
                let obj = *engine.catalog().object(id).unwrap();
                let bulk = engine.locate_all(id).unwrap();
                for block in (0..blocks).step_by(53) {
                    let x0 = engine.catalog().x0(&obj, block);
                    let oracle = locate(x0, engine.log());
                    prop_assert_eq!(
                        engine.locate(id, block).unwrap(), oracle,
                        "{} block {} after op {}", id, block, i
                    );
                    prop_assert_eq!(bulk[block as usize], oracle);
                }
            }
        }
    }

    /// The X-cache advanced incrementally (one REMAP per epoch bump)
    /// matches a from-scratch rebuild at every epoch, and the plan each
    /// advance returns is the reference plan.
    #[test]
    fn incremental_cache_equals_rebuild((initial, ops) in schedules(8)) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 5);
        let id = catalog.add_object(600);
        let mut log = ScalingLog::new(initial).unwrap();
        let mut pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        for op in &ops {
            log.push(op).unwrap();
            pipeline.extend_from(&log);
            let plan = cache.advance(&catalog, &log, &pipeline);
            prop_assert_eq!(plan, plan_last_op(&catalog, &log));
            let rebuilt = XCache::rebuild(&catalog, &pipeline);
            prop_assert_eq!(cache.epoch(), rebuilt.epoch());
            prop_assert_eq!(cache.xs(id), rebuilt.xs(id));
        }
    }
}
