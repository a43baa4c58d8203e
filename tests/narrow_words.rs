//! Placement words at both widths: the X-cache stores `u32` words when
//! `b <= 32` and `u64` words otherwise, and block residency stores
//! 4-byte physical ids. Seeded histories of additions, removals, object
//! churn, a rehash-compaction flip and a snapshot restore run at
//! `b ∈ {17, 32, 33, 64}`, and after every step each block's placement
//! must equal the stateless fold from its `X_0`, no cached `X` may
//! exceed `2^b - 1`, and residency must agree with `AF()`.

use scaddar::cmsim::{PhysicalMap, ServerError};
use scaddar::core::address::x_at_current_epoch;
use scaddar::core::{ScaddarError, ScalingError, Xs};
use scaddar::prelude::*;

/// A SplitMix64 stream: the schedule generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every invariant of the narrowing, on an idle server.
fn check(s: &CmServer, bits: Bits, at: &str) {
    let engine = s.engine();
    let log = engine.log();
    let n = u64::from(engine.disks());
    for obj in engine.catalog().objects() {
        let xs = engine.cached_xs(obj.id).unwrap();
        assert_eq!(
            matches!(xs, Xs::Narrow(_)),
            bits.get() <= 32,
            "{bits} {at}: word width"
        );
        let seq = engine.catalog().randoms(obj);
        let oracle: Vec<u64> = (0..obj.blocks)
            .map(|b| x_at_current_epoch(seq.value_at(b), log))
            .collect();
        let cached: Vec<u64> = xs.iter().collect();
        assert_eq!(cached, oracle, "{bits} {at}: {:?} X values", obj.id);
        assert!(
            cached.iter().all(|&x| x <= bits.max_value()),
            "{bits} {at}: a cached X exceeds 2^b - 1"
        );
        let placements: Vec<u32> = engine.placements(obj.id).unwrap().map(|d| d.0).collect();
        let expected: Vec<u32> = oracle.iter().map(|&x| (x % n) as u32).collect();
        assert_eq!(placements, expected, "{bits} {at}: {:?} placements", obj.id);
        assert_eq!(
            engine.locate_all(obj.id).unwrap(),
            engine.placements(obj.id).unwrap().collect::<Vec<_>>()
        );
    }
    assert!(s.residency_consistent(), "{bits} {at}: residency");
}

fn drain(s: &mut CmServer) {
    let mut rounds = 0;
    while s.backlog() > 0 || s.compaction_active() {
        s.tick();
        rounds += 1;
        assert!(rounds < 200_000, "moves never drain");
    }
}

/// One seeded history at width `bits`.
fn run(bits: Bits, seed: u64) {
    let mut rng = Rng(seed);
    let config = ServerConfig::new(4 + rng.below(5) as u32)
        .with_bits(bits)
        .with_catalog_seed(seed);
    let mut s = CmServer::new(config).unwrap();
    for _ in 0..3 {
        s.add_object(500 + rng.below(2_000)).unwrap();
    }
    check(&s, bits, "ingest");
    let mut compacted = false;
    for step in 0..14 {
        let at = format!("seed {seed} step {step}");
        let disks = s.engine().disks();
        match rng.below(6) {
            0 | 1 if disks < 20 => {
                let count = 1 + rng.below(3) as u32;
                s.scale(ScalingOp::Add { count }).unwrap();
            }
            2 if disks > 3 => {
                let victim = rng.below(u64::from(disks)) as u32;
                s.scale(ScalingOp::remove_one(victim)).unwrap();
            }
            3 => {
                let objects = s.engine().catalog().objects().to_vec();
                if objects.len() > 1 {
                    let victim = objects[rng.below(objects.len() as u64) as usize].id;
                    s.remove_object(victim).unwrap();
                }
                s.add_object(1 + rng.below(3_000)).unwrap();
            }
            4 if !compacted => {
                s.begin_compaction().unwrap();
                // Churn mid-migration: the staging generation admits the
                // object at its own width too.
                s.add_object(1 + rng.below(700)).unwrap();
                compacted = true;
            }
            _ => {
                let bytes = s.snapshot().unwrap();
                s = CmServer::restore(*s.config(), &bytes).unwrap();
            }
        }
        drain(&mut s);
        check(&s, bits, &at);
    }
    // Always end through a flip and a restore.
    if !compacted {
        s.begin_compaction().unwrap();
        drain(&mut s);
        check(&s, bits, "final flip");
    }
    assert!(s.generation() >= 1);
    let bytes = s.snapshot().unwrap();
    let restored = CmServer::restore(*s.config(), &bytes).unwrap();
    check(&restored, bits, "final restore");
    for obj in s.engine().catalog().objects() {
        assert_eq!(
            s.engine().cached_xs(obj.id).unwrap(),
            restored.engine().cached_xs(obj.id).unwrap()
        );
    }
}

#[test]
fn placements_equal_the_stateless_fold_at_every_width() {
    for b in [17u8, 32, 33, 64] {
        let bits = Bits::new(b).unwrap();
        for seed in [1u64, 2, 3] {
            run(bits, seed.wrapping_mul(0x5EED) ^ u64::from(b));
        }
    }
}

#[test]
fn an_addition_past_the_id_ceiling_is_a_typed_error() {
    // Three ids minted, two removed: adding u32::MAX - 1 disks keeps the
    // live count within u32, but the ids would pass u32::MAX. The server
    // refuses before the engine or the disk table changes.
    let remove = ScalingOp::Remove { disks: vec![0, 1] };
    let add = ScalingOp::Add {
        count: u32::MAX - 1,
    };
    // The id table's own check first: were it broken, the server would
    // go on to mint ~4 billion ids.
    let mut map = PhysicalMap::new(3);
    map.apply(&remove).unwrap();
    assert_eq!(map.check(&add), Err(ScalingError::PhysicalIdsExhausted));
    let mut s = CmServer::new(ServerConfig::new(3)).unwrap();
    s.add_object(100).unwrap();
    s.scale_offline(remove.clone()).unwrap();
    let epoch = s.engine().epoch();
    let err = s.scale(add.clone());
    assert_eq!(
        err,
        Err(ScaddarError::Scaling(ScalingError::PhysicalIdsExhausted).into())
    );
    assert_eq!(s.engine().epoch(), epoch, "the engine did not commit");
    assert_eq!(s.disks().disks(), 1);
    assert!(s.residency_consistent());
    // A snapshot whose log passes the ceiling restores as an error,
    // not a panic.
    let mut engine = Scaddar::new(ScaddarConfig::new(3)).unwrap();
    engine.scale(remove).unwrap();
    engine.scale(add).unwrap();
    let restored = CmServer::restore(ServerConfig::new(3), &engine.snapshot());
    assert!(
        matches!(&restored, Err(ServerError::Snapshot(msg)) if msg.contains("u32::MAX")),
        "{:?}",
        restored.err()
    );
}
