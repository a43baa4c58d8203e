//! Golden placements: an FNV-1a digest of every block's disk, pinned for
//! three catalogs through admission, an addition and a removal. The
//! digests were recorded before admission's fill and `mod N_j`
//! reduction were vectorised, so any change to either that moves a
//! single block fails here, whichever vector tier the host runs. Each
//! digest is read twice: block by block through `locate` (the scalar
//! reduction) and object by object through `locate_all` (the chunked,
//! vectorised one).

use scaddar::prelude::*;

/// FNV-1a, 64-bit, over each disk index as 4 little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn disk(&mut self, disk: DiskIndex) {
        for byte in disk.0.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The digest of every block's disk in catalog order, by both read
/// paths, which must agree.
fn digest(engine: &Scaddar) -> u64 {
    let (mut scalar, mut bulk) = (Fnv::new(), Fnv::new());
    for obj in engine.catalog().objects() {
        for block in 0..obj.blocks {
            scalar.disk(engine.locate(obj.id, block).unwrap());
        }
        for disk in engine.locate_all(obj.id).unwrap() {
            bulk.disk(disk);
        }
    }
    assert_eq!(scalar.0, bulk.0, "locate and locate_all disagree");
    scalar.0
}

/// Digests after admitting `objects × blocks` on 8 disks, after adding
/// 2 disks, and after removing disks 1 and 4.
fn history(config: ScaddarConfig, objects: u64, blocks: u64) -> [u64; 3] {
    let mut engine = Scaddar::new(config).unwrap();
    for _ in 0..objects {
        engine.add_object(blocks);
    }
    let admitted = digest(&engine);
    engine.scale(ScalingOp::Add { count: 2 }).unwrap();
    let added = digest(&engine);
    engine
        .scale(ScalingOp::Remove { disks: vec![1, 4] })
        .unwrap();
    [admitted, added, digest(&engine)]
}

#[test]
fn perfbench_shaped_catalog_places_every_block_as_before() {
    let config = ScaddarConfig::new(8).with_catalog_seed(21);
    assert_eq!(
        history(config, 64, 4096),
        [
            0x9d6c_d856_07ce_3a97,
            0xd27e_da02_6866_e8ac,
            0xb6b0_e4ed_fd24_c903
        ],
        "64 x 4096, SplitMix64, 32-bit, seed 21"
    );
}

#[test]
fn seventeen_bit_catalog_places_every_block_as_before() {
    let config = ScaddarConfig::new(8)
        .with_bits(Bits::new(17).unwrap())
        .with_catalog_seed(21);
    assert_eq!(
        history(config, 16, 1000),
        [
            0xbcf1_e85c_78f5_48b5,
            0xf465_e749_ffd0_0a51,
            0xb53d_d267_009c_1f23
        ],
        "16 x 1000, SplitMix64, 17-bit, seed 21"
    );
}

#[test]
fn philox_catalog_places_every_block_as_before() {
    let config = ScaddarConfig::new(8)
        .with_rng(RngKind::Philox4x32)
        .with_catalog_seed(21);
    assert_eq!(
        history(config, 16, 1000),
        [
            0x707a_d116_1cc6_08c6,
            0x4bdf_9bf7_6779_f212,
            0xcebb_2699_5b85_9ba3
        ],
        "16 x 1000, Philox4x32, 32-bit, seed 21"
    );
}
