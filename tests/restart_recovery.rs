//! Restart and recovery: the directory-freeness claim under the
//! operational lens. A CM server that crashes or restarts must relocate
//! every block from durable metadata alone — the object seeds and the
//! scaling log — and a rebuilt block store must agree with the old one.

use cmsim::{CmServer, ServerConfig};
use scaddar::prelude::*;

/// Replays a "persisted" description (config + object sizes + ops) into
/// a fresh server, as a restart would.
fn replay(config: ServerConfig, objects: &[u64], ops: &[ScalingOp]) -> CmServer {
    let mut server = CmServer::new(config).unwrap();
    for &blocks in objects {
        server.add_object(blocks).unwrap();
    }
    for op in ops {
        server.scale_offline(op.clone()).unwrap();
    }
    server
}

#[test]
fn restart_reconstructs_identical_placement() {
    let config = ServerConfig::new(5).with_catalog_seed(777);
    let objects = [4_000u64, 6_000, 2_000];
    let ops = [
        ScalingOp::Add { count: 2 },
        ScalingOp::remove_one(3),
        ScalingOp::Add { count: 1 },
    ];

    let a = replay(config, &objects, &ops);
    let b = replay(config, &objects, &ops);

    for (i, &blocks) in objects.iter().enumerate() {
        let id = ObjectId(i as u64);
        for blk in (0..blocks).step_by(101) {
            assert_eq!(
                a.placement().locate(id, blk).unwrap(),
                b.placement().locate(id, blk).unwrap(),
                "object {i} block {blk} diverged across restart"
            );
            assert_eq!(
                a.store().locate(BlockRef {
                    object: id,
                    block: blk
                }),
                b.store().locate(BlockRef {
                    object: id,
                    block: blk
                }),
            );
        }
    }
    assert_eq!(a.load_census(), b.load_census());
}

#[test]
fn restart_with_different_catalog_seed_diverges() {
    // Sanity check of the test itself: the seed genuinely drives
    // placement — a wrong seed would corrupt recovery.
    let objects = [4_000u64];
    let ops = [ScalingOp::Add { count: 1 }];
    let a = replay(ServerConfig::new(5).with_catalog_seed(1), &objects, &ops);
    let b = replay(ServerConfig::new(5).with_catalog_seed(2), &objects, &ops);
    let same = (0..4_000)
        .filter(|&blk| {
            a.placement().locate(ObjectId(0), blk).unwrap()
                == b.placement().locate(ObjectId(0), blk).unwrap()
        })
        .count();
    // ~1/6 agree by chance on 6 disks; identical placement would be 4000.
    assert!(same < 1_000, "placements should diverge, {same} matched");
}

/// A golden snapshot with some history: the corruption-fuzz target.
fn golden_engine() -> scaddar::core::Scaddar {
    let config = scaddar::core::ScaddarConfig::new(5).with_catalog_seed(99);
    let mut engine = scaddar::core::Scaddar::new(config).unwrap();
    engine.add_object(700);
    engine.add_object(300);
    engine.scale(ScalingOp::Add { count: 2 }).unwrap();
    engine
        .scale(ScalingOp::Remove { disks: vec![1, 4] })
        .unwrap();
    engine.scale(ScalingOp::add_one()).unwrap();
    engine
}

/// Placement fingerprint of an engine: every block's disk, in catalog
/// order. Two engines with equal fingerprints serve identical reads.
fn placement_of(engine: &scaddar::core::Scaddar) -> Vec<u32> {
    let mut out = Vec::new();
    for obj in engine.catalog().objects() {
        out.extend(engine.locate_all(obj.id).unwrap().iter().map(|d| d.0));
    }
    out
}

/// Corruption fuzz, truncation sweep: *every* proper prefix of a golden
/// snapshot must fail to decode. A truncation that decoded successfully
/// could silently recover an older epoch and serve every block from the
/// wrong disk — the worst failure a directory-free design admits.
#[test]
fn every_truncation_fails_to_decode() {
    let bytes = golden_engine().snapshot();
    for len in 0..bytes.len() {
        let decoded = scaddar::core::persist::decode(&bytes[..len]);
        assert!(
            decoded.is_err(),
            "truncation to {len}/{} bytes decoded successfully",
            bytes.len()
        );
        assert_eq!(
            scaddar::core::persist::validate(&bytes[..len]).is_err(),
            decoded.is_err(),
            "validate and decode disagree at {len}"
        );
    }
}

/// A snapshot that passes its checksum but lies: `objects` is the raw
/// catalog tail (`next_id | object count | objects`) after an empty log
/// on 4 disks. Such bytes can only come from a buggy or hostile writer.
fn hostile_snapshot(catalog: &[u64]) -> Vec<u8> {
    fn varint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
    // Magic, v2, generation 0, 4 disks, no records, SplitMix64, 32 bits.
    let mut buf = b"SCDR".to_vec();
    buf.extend_from_slice(&[2, 0, 4, 0, 0, 32]);
    buf.extend_from_slice(&7u64.to_le_bytes());
    for &field in catalog {
        varint(&mut buf, field);
    }
    let crc = scaddar::core::persist::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Checksum-valid hostile snapshots are refused by the engine and the
/// server alike, without a panic or an abort: a catalog that repeats an
/// object id, and an object count of 2^50 in a few dozen bytes.
#[test]
fn hostile_snapshots_are_refused_without_panicking() {
    // next_id 5; two objects, both id 0 (seed 8 bytes, blocks 10). The
    // seed is a fixed u64, so write it as 8 one-byte varint fields.
    let mut repeated = vec![5, 2];
    for _ in 0..2 {
        repeated.push(0);
        repeated.extend([0; 8]);
        repeated.push(10);
    }
    let huge_count = [0, 1 << 50];
    for (what, catalog) in [
        ("repeated id", &repeated[..]),
        ("2^50 objects", &huge_count),
    ] {
        let bytes = hostile_snapshot(catalog);
        assert!(
            scaddar::core::Scaddar::from_snapshot(&bytes, 0.05).is_err(),
            "{what}: engine accepted it"
        );
        assert!(
            CmServer::restore(ServerConfig::new(4), &bytes).is_err(),
            "{what}: server accepted it"
        );
    }
    // The same shape with ascending ids decodes, so the refusal above is
    // about the ids, not the encoding.
    let mut ascending = repeated.clone();
    ascending[12] = 1;
    let bytes = hostile_snapshot(&ascending);
    let server = CmServer::restore(ServerConfig::new(4), &bytes).expect("valid catalog");
    assert_eq!(server.store().len(), 20);
}

/// Corruption fuzz, bit-flip sweep: flipping any single bit anywhere in
/// the snapshot must yield a decode error — never a *wrong placement*.
/// The CRC32 trailer guarantees detection of all 1-bit errors, so a
/// clean decode of a flipped snapshot would be a checksum-coverage bug;
/// the placement comparison is belt and braces in case that guarantee
/// is ever weakened to "decode but identical".
#[test]
fn every_single_bit_flip_is_detected_or_harmless() {
    let engine = golden_engine();
    let bytes = engine.snapshot();
    let golden_placement = placement_of(&engine);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            match scaddar::core::Scaddar::from_snapshot(&corrupt, 0.05) {
                Err(_) => {}
                Ok(recovered) => {
                    assert_eq!(
                        placement_of(&recovered),
                        golden_placement,
                        "bit {bit} of byte {byte}: flipped snapshot decoded \
                         to a DIFFERENT placement"
                    );
                }
            }
        }
    }
}

#[test]
fn interrupted_redistribution_can_resume_after_replay() {
    // A crash mid-redistribution: on restart, the engine's AF() already
    // points at the new epoch; re-deriving the residual move set from
    // (AF target != current residency) and executing it converges to a
    // consistent state. We simulate the crash by replaying into a server
    // that has only *partially* executed the op's moves.
    let config = ServerConfig::new(4).with_catalog_seed(3);
    let mut server = CmServer::new(config).unwrap();
    server.add_object(10_000).unwrap();
    server.scale(ScalingOp::Add { count: 1 }).unwrap();
    // Execute only a few rounds, then "crash".
    for _ in 0..3 {
        server.tick();
    }
    assert!(server.backlog() > 0, "crash must interrupt mid-drain");
    // Recovery: keep draining (the queue in a real system is re-derived
    // by scanning residency vs AF(); here the executor state doubles as
    // that scan's result).
    while server.backlog() > 0 {
        server.tick();
    }
    assert!(server.residency_consistent());
}
