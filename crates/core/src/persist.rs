//! Durable encoding of SCADDAR's metadata.
//!
//! The entire placement state of a server is the catalog (object seeds
//! and sizes) plus the scaling log — the paper's storage argument (§1,
//! Appendix A). For that argument to hold operationally, the metadata
//! must actually survive restarts, so this module defines a compact,
//! versioned, self-checking binary encoding for both.
//!
//! Format (little-endian, varint = LEB128):
//!
//! ```text
//! magic "SCDR" | version u8 | generation varint (v2+) |
//! log:     initial_disks varint | record count varint |
//!          per record: tag u8 (0=add, 1=remove) |
//!                      add: count varint
//!                      remove: k varint, k ascending varint indices
//! catalog: rng tag u8 | bits u8 | catalog_seed u64 | next_id varint |
//!          object count varint |
//!          per object: id varint | seed u64 | blocks varint
//! crc32 of everything above
//! ```
//!
//! Decoding validates structurally (every record is re-validated through
//! [`ScalingLog::push`], object ids must be strictly ascending below
//! `next_id`) and by checksum, so a truncated or bit-flipped snapshot is
//! rejected rather than silently mislocating every block. A count field
//! preallocates no more elements than there are bytes left, so a
//! checksum-valid hostile count fails as `Truncated` instead of
//! exhausting memory.
//!
//! Version history: v1 predates rehash compaction; v2 adds the placement
//! generation right after the version byte. v1 snapshots still decode
//! (as generation 0); encoding always writes v2.

use crate::error::ScalingError;
use crate::log::{RecordAction, ScalingLog};
use crate::object::{Catalog, CmObject, ObjectId};
use scaddar_prng::{Bits, RngKind};

/// Errors from decoding a metadata snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unknown format version.
    UnknownVersion(u8),
    /// Input ended mid-field.
    Truncated,
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// Unknown enum tag in the stream.
    BadTag(u8),
    /// Checksum mismatch (corruption).
    ChecksumMismatch,
    /// Trailing bytes after the checksum.
    TrailingBytes,
    /// The stream decoded structurally but described an invalid history.
    InvalidHistory(ScalingError),
    /// An invalid bit width.
    BadBits(u8),
    /// The catalog's object ids are not strictly ascending, or
    /// `next_id` is not past the last of them.
    UnorderedCatalog,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a SCADDAR metadata snapshot"),
            PersistError::UnknownVersion(v) => write!(f, "unknown snapshot version {v}"),
            PersistError::Truncated => write!(f, "snapshot truncated"),
            PersistError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            PersistError::BadTag(t) => write!(f, "unknown tag {t}"),
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch — snapshot corrupted"),
            PersistError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            PersistError::InvalidHistory(e) => write!(f, "snapshot describes invalid history: {e}"),
            PersistError::BadBits(b) => write!(f, "invalid bit width {b}"),
            PersistError::UnorderedCatalog => write!(
                f,
                "catalog object ids are not strictly ascending below next_id"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

const MAGIC: &[u8; 4] = b"SCDR";
const VERSION: u8 = 2;
/// The oldest format version [`decode`] still accepts.
const OLDEST_SUPPORTED_VERSION: u8 = 1;

/// A complete placement-metadata snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The scaling log.
    pub log: ScalingLog,
    /// The object catalog.
    pub catalog: Catalog,
    /// The placement generation (0 for pre-compaction v1 snapshots).
    pub generation: u64,
}

// --- primitives ---------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(PersistError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(PersistError::VarintOverflow);
        }
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let end = pos.checked_add(8).ok_or(PersistError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(PersistError::Truncated)?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, PersistError> {
    let &b = buf.get(*pos).ok_or(PersistError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// CRC-32 (IEEE 802.3, reflected), table-free bitwise variant — metadata
/// snapshots are small, so simplicity beats a 1 KiB table.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn rng_tag(kind: RngKind) -> u8 {
    match kind {
        RngKind::SplitMix64 => 0,
        RngKind::Lcg64 => 1,
        RngKind::Pcg64 => 2,
        RngKind::XorShift64Star => 3,
        RngKind::Philox4x32 => 4,
    }
}

fn rng_from_tag(tag: u8) -> Result<RngKind, PersistError> {
    Ok(match tag {
        0 => RngKind::SplitMix64,
        1 => RngKind::Lcg64,
        2 => RngKind::Pcg64,
        3 => RngKind::XorShift64Star,
        4 => RngKind::Philox4x32,
        t => return Err(PersistError::BadTag(t)),
    })
}

// --- encode --------------------------------------------------------------

/// Encodes a snapshot.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_varint(&mut buf, snapshot.generation);

    // Log.
    put_varint(&mut buf, u64::from(snapshot.log.initial_disks()));
    put_varint(&mut buf, snapshot.log.records().len() as u64);
    for record in snapshot.log.records() {
        match record.action() {
            RecordAction::Added { count } => {
                buf.push(0);
                put_varint(&mut buf, u64::from(*count));
            }
            RecordAction::Removed(set) => {
                buf.push(1);
                put_varint(&mut buf, set.indices().len() as u64);
                for &d in set.indices() {
                    put_varint(&mut buf, u64::from(d));
                }
            }
        }
    }

    // Catalog.
    buf.push(rng_tag(snapshot.catalog.rng_kind()));
    buf.push(snapshot.catalog.bits().get());
    put_u64(&mut buf, snapshot.catalog.catalog_seed());
    put_varint(&mut buf, snapshot.catalog.next_object_id());
    put_varint(&mut buf, snapshot.catalog.objects().len() as u64);
    for obj in snapshot.catalog.objects() {
        put_varint(&mut buf, obj.id.0);
        put_u64(&mut buf, obj.seed);
        put_varint(&mut buf, obj.blocks);
    }

    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

// --- decode --------------------------------------------------------------

/// A decoded element count, capped for preallocation by the bytes left
/// in `body`: every element takes at least one byte, so a hostile count
/// fails as `Truncated` instead of reserving memory it never fills.
fn capped(count: u64, body: &[u8], pos: usize) -> usize {
    usize::try_from(count)
        .unwrap_or(usize::MAX)
        .min(body.len().saturating_sub(pos))
}

/// Decodes and fully validates a snapshot.
pub fn decode(data: &[u8]) -> Result<Snapshot, PersistError> {
    if data.len() < 4 + 1 + 4 {
        return Err(if data.get(..4) == Some(MAGIC.as_slice()) {
            PersistError::Truncated
        } else {
            PersistError::BadMagic
        });
    }
    if &data[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(PersistError::ChecksumMismatch);
    }

    let mut pos = 4usize;
    let version = get_u8(body, &mut pos)?;
    if !(OLDEST_SUPPORTED_VERSION..=VERSION).contains(&version) {
        return Err(PersistError::UnknownVersion(version));
    }
    // v1 predates compaction: every v1 snapshot is generation 0.
    let generation = if version >= 2 {
        get_varint(body, &mut pos)?
    } else {
        0
    };

    // Log, re-validated operation by operation.
    let initial =
        u32::try_from(get_varint(body, &mut pos)?).map_err(|_| PersistError::VarintOverflow)?;
    let mut log = ScalingLog::new(initial).map_err(PersistError::InvalidHistory)?;
    let records = get_varint(body, &mut pos)?;
    for _ in 0..records {
        let tag = get_u8(body, &mut pos)?;
        let op = match tag {
            0 => {
                let count = u32::try_from(get_varint(body, &mut pos)?)
                    .map_err(|_| PersistError::VarintOverflow)?;
                crate::ops::ScalingOp::Add { count }
            }
            1 => {
                let k = get_varint(body, &mut pos)?;
                let mut disks = Vec::with_capacity(capped(k, body, pos));
                for _ in 0..k {
                    disks.push(
                        u32::try_from(get_varint(body, &mut pos)?)
                            .map_err(|_| PersistError::VarintOverflow)?,
                    );
                }
                crate::ops::ScalingOp::Remove { disks }
            }
            t => return Err(PersistError::BadTag(t)),
        };
        log.push(&op).map_err(PersistError::InvalidHistory)?;
    }

    // Catalog.
    let kind = rng_from_tag(get_u8(body, &mut pos)?)?;
    let bits_raw = get_u8(body, &mut pos)?;
    let bits = Bits::new(bits_raw).ok_or(PersistError::BadBits(bits_raw))?;
    let catalog_seed = get_u64(body, &mut pos)?;
    let next_id = get_varint(body, &mut pos)?;
    let objects = get_varint(body, &mut pos)?;
    let mut restored = Vec::with_capacity(capped(objects, body, pos));
    for _ in 0..objects {
        let id = ObjectId(get_varint(body, &mut pos)?);
        let seed = get_u64(body, &mut pos)?;
        let blocks = get_varint(body, &mut pos)?;
        restored.push(CmObject { id, seed, blocks });
    }
    let catalog = Catalog::restore(kind, bits, catalog_seed, restored, next_id)
        .ok_or(PersistError::UnorderedCatalog)?;

    if pos != body.len() {
        return Err(PersistError::TrailingBytes);
    }
    Ok(Snapshot {
        log,
        catalog,
        generation,
    })
}

/// Decode-and-discard: `Ok(())` iff `data` is a byte-exact valid
/// snapshot. The crash-recovery hook used to pick the latest valid
/// snapshot (e.g. by the simulation harness) without keeping the
/// decoded state.
pub fn validate(data: &[u8]) -> Result<(), PersistError> {
    decode(data).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScalingOp;
    use proptest::prelude::*;

    fn sample_snapshot() -> Snapshot {
        let mut log = ScalingLog::new(4).unwrap();
        log.push(&ScalingOp::Add { count: 2 }).unwrap();
        log.push(&ScalingOp::Remove { disks: vec![1, 4] }).unwrap();
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let mut catalog = Catalog::new(RngKind::Pcg64, Bits::B32, 0xFACE);
        catalog.add_object(10_000);
        catalog.add_object(25);
        let first = catalog.objects()[0].id;
        catalog.remove_object(first).unwrap();
        catalog.add_object(7);
        Snapshot {
            log,
            catalog,
            generation: 3,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.log, snap.log);
        assert_eq!(back.generation, snap.generation);
        assert_eq!(back.catalog.rng_kind(), snap.catalog.rng_kind());
        assert_eq!(back.catalog.bits(), snap.catalog.bits());
        assert_eq!(back.catalog.objects(), snap.catalog.objects());
        // Id allocation continues where it left off (no id reuse).
        let mut a = snap.catalog.clone();
        let mut b = back.catalog.clone();
        assert_eq!(a.add_object(1), b.add_object(1));
    }

    #[test]
    fn round_trip_preserves_placement() {
        let snap = sample_snapshot();
        let back = decode(&encode(&snap)).unwrap();
        for obj in snap.catalog.objects() {
            let restored = back.catalog.object(obj.id).unwrap();
            for blk in 0..obj.blocks.min(500) {
                let x_orig = snap.catalog.x0(obj, blk);
                let x_back = back.catalog.x0(restored, blk);
                assert_eq!(x_orig, x_back);
                assert_eq!(
                    crate::address::locate(x_orig, &snap.log),
                    crate::address::locate(x_back, &back.log)
                );
            }
        }
    }

    #[test]
    fn snapshot_is_compact() {
        let bytes = encode(&sample_snapshot());
        // 3 ops + 3 objects: well under 200 bytes.
        assert!(bytes.len() < 200, "snapshot is {} bytes", bytes.len());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            decode(b"NOPEnope-nope"),
            Err(PersistError::BadMagic)
        ));
        // Valid magic, bumped version.
        let mut bytes = encode(&sample_snapshot());
        bytes[4] = 99;
        let fixed_crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&fixed_crc.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnknownVersion(99))
        ));
    }

    /// Re-encodes `snap` as a v1 byte stream (no generation field) —
    /// what a pre-compaction build would have written.
    fn encode_as_v1(snap: &Snapshot) -> Vec<u8> {
        let mut bytes = encode(snap);
        // The generation varint of a generation-0 snapshot is the
        // single byte right after the version byte; drop it and rewrite
        // version + checksum.
        assert_eq!(snap.generation, 0, "v1 can only express generation 0");
        assert_eq!(bytes[5], 0);
        bytes.remove(5);
        bytes[4] = 1;
        let n = bytes.len();
        let fixed_crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&fixed_crc.to_le_bytes());
        bytes
    }

    #[test]
    fn decodes_legacy_v1_snapshots_as_generation_zero() {
        let mut snap = sample_snapshot();
        snap.generation = 0;
        let v1 = encode_as_v1(&snap);
        let back = decode(&v1).unwrap();
        assert_eq!(back.generation, 0);
        assert_eq!(back.log, snap.log);
        assert_eq!(back.catalog.objects(), snap.catalog.objects());
        // The v1 bytes still fail on corruption like any other stream.
        let mut bad = v1.clone();
        bad[8] ^= 0x10;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn rejects_corruption_everywhere() {
        let bytes = encode(&sample_snapshot());
        // Flip every single byte in turn: decode must never succeed with
        // different content, and must never panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode(&bad) {
                Err(_) => {}
                Ok(snap) => {
                    // A collision would require beating CRC32 with a
                    // 1-byte flip — impossible; any Ok must equal input.
                    let orig = decode(&bytes).unwrap();
                    assert_eq!(snap.log, orig.log, "silent corruption at byte {i}");
                }
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(&sample_snapshot());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "accepted truncation at {len}"
            );
        }
    }

    /// A checksum-valid v2 snapshot from raw log bytes and the catalog
    /// bytes after its seed (`next_id | object count | objects`).
    fn sealed(log: &[u8], catalog: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&[VERSION, 0]);
        buf.extend_from_slice(log);
        buf.extend_from_slice(&[rng_tag(RngKind::SplitMix64), 32]);
        put_u64(&mut buf, 0);
        buf.extend_from_slice(catalog);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Catalog bytes for objects with the given ids.
    fn objects(next_id: u64, ids: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, next_id);
        put_varint(&mut buf, ids.len() as u64);
        for &id in ids {
            put_varint(&mut buf, id);
            put_u64(&mut buf, id);
            put_varint(&mut buf, 10);
        }
        buf
    }

    #[test]
    fn rejects_unordered_object_ids() {
        let log = [4, 0];
        assert!(decode(&sealed(&log, &objects(3, &[0, 2]))).is_ok());
        for (next_id, ids) in [(5, &[0, 0][..]), (5, &[3, 1]), (2, &[0, 2]), (0, &[0])] {
            assert_eq!(
                decode(&sealed(&log, &objects(next_id, ids))).err(),
                Some(PersistError::UnorderedCatalog),
                "next_id {next_id}, ids {ids:?}"
            );
        }
    }

    #[test]
    fn hostile_counts_fail_without_preallocating() {
        let mut count = Vec::new();
        put_varint(&mut count, 1 << 50);
        // 2^50 objects.
        let mut catalog = vec![0];
        catalog.extend_from_slice(&count);
        let bytes = sealed(&[4, 0], &catalog);
        assert_eq!(decode(&bytes).err(), Some(PersistError::Truncated));
        // A removal of 2^50 disks.
        let mut log = vec![4, 1, 1];
        log.extend_from_slice(&count);
        let bytes = sealed(&log, &objects(0, &[]));
        assert_eq!(decode(&bytes).err(), Some(PersistError::Truncated));
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #[test]
        fn prop_varint_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }

        #[test]
        fn prop_random_histories_round_trip(
            initial in 1u32..16,
            adds in proptest::collection::vec(1u32..4, 0..6),
            seed in any::<u64>(),
        ) {
            let mut log = ScalingLog::new(initial).unwrap();
            for count in adds {
                log.push(&ScalingOp::Add { count }).unwrap();
            }
            let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B64, seed);
            catalog.add_object(seed % 1_000);
            let snap = Snapshot { log, catalog, generation: seed % 5 };
            let back = decode(&encode(&snap)).unwrap();
            prop_assert_eq!(back.log, snap.log);
            prop_assert_eq!(back.generation, snap.generation);
            prop_assert_eq!(back.catalog.objects(), snap.catalog.objects());
        }
    }
}
