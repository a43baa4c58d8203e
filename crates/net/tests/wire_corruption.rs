//! Corruption sweep for the wire decoder, mirroring the snapshot
//! sweep idiom in `scaddar-core`'s `persist` tests
//! (`rejects_corruption_everywhere` / `rejects_truncation_everywhere`):
//! every truncation point, every length-prefix class, every unknown
//! tag, and a bit-flip at every byte of every frame type must come back
//! as a typed [`FrameError`] (or a well-formed decode) — never a panic,
//! never an out-of-bounds read, never a silent desync.

use proptest::prelude::*;
use scaddar_core::ScalingOp;
use scaddar_net::wire::{
    decode_frame, decode_frame_limited, decode_frame_traced, ErrorCode, Frame, FrameError,
    FRAME_HEADER_LEN, HARD_MAX_FRAME_LEN, PROTOCOL_VERSION, TRACE_TRAILER_V1_LEN,
    TRACE_TRAILER_VERSION,
};
use scaddar_obs::{ProfileSnapshot, Registry, RegistrySnapshot, ThreadProfile, TraceContext};

/// A populated registry snapshot for the `StatsReply` exemplar, so the
/// corruption sweeps cover every section of the snapshot encoding.
fn sample_snapshot() -> RegistrySnapshot {
    let registry = Registry::new();
    registry
        .counter("net_requests_total", "requests accepted")
        .add(7);
    registry
        .counter("net_errors_total", "errored requests")
        .add(1);
    registry
        .gauge("net_active_connections", "open connections")
        .set(-2);
    let hist = registry.histogram("net_locate_ns", "locate latency");
    for v in [80, 900, 64_000, 3_000_000] {
        hist.record(v);
    }
    registry.snapshot()
}

/// One frame of every variant, with variable-length fields populated
/// (the in-crate unit tests have their own copy; integration tests
/// cannot see `#[cfg(test)]` items).
fn exemplars() -> Vec<Frame> {
    vec![
        Frame::Locate {
            object: 3,
            block: 77,
        },
        Frame::LocateBatch {
            object: 1,
            blocks: vec![0, 9, 1 << 40],
        },
        Frame::Scale {
            op: ScalingOp::Add { count: 2 },
        },
        Frame::Scale {
            op: ScalingOp::Remove {
                disks: vec![0, 3, 5],
            },
        },
        Frame::Tick { rounds: 16 },
        Frame::Health,
        Frame::Ping,
        Frame::Located {
            epoch: 4,
            disks: 6,
            disk: 5,
        },
        Frame::BatchLocated {
            epoch: 2,
            disks: 8,
            locations: vec![1, 2, 3],
        },
        Frame::Scaled {
            epoch: 9,
            disks: 12,
            queued: 4242,
        },
        Frame::Ticked {
            rounds: 3,
            backlog: 17,
        },
        Frame::HealthStatus {
            verdict: 1,
            alerts: 2,
            report: "health: WARN — ro2 drift".into(),
        },
        Frame::Pong { epoch: 5 },
        Frame::Error {
            code: ErrorCode::Busy,
            message: "server at connection limit".into(),
        },
        // Cluster frames: map fetch/propagation and the redirect pair.
        Frame::FetchMap { have_version: 3 },
        Frame::MapUpdate {
            version: 7,
            shards: vec![
                (0, "127.0.0.1:7411".into()),
                (2, "127.0.0.1:7412".into()),
                (5, "10.0.0.9:7413".into()),
            ],
        },
        Frame::MapUpdate {
            version: 1,
            shards: vec![],
        },
        Frame::WrongShard {
            map_version: 8,
            owner: 2,
        },
        Frame::StaleMap { map_version: 9 },
        // Federation frames: the stats scrape and its snapshot reply.
        Frame::ScrapeStats,
        Frame::StatsReply {
            epoch: 3,
            verdict: 1,
            snapshot: sample_snapshot(),
        },
        Frame::StatsReply {
            epoch: 0,
            verdict: 0,
            snapshot: RegistrySnapshot::default(),
        },
        // Profiler frames: the dump request and its residency reply.
        Frame::ProfileDump,
        Frame::ProfileReply {
            profile: ProfileSnapshot {
                at_ns: 42_000,
                rounds: 500,
                threads: vec![
                    ThreadProfile {
                        name: "scaddard-worker-0".into(),
                        samples: 500,
                        counts: vec![5, 400, 30, 20, 25, 10, 10, 0],
                    },
                    ThreadProfile {
                        name: "scaddard-op".into(),
                        samples: 120,
                        counts: vec![100, 0, 0, 0, 0, 0, 0, 20],
                    },
                ],
            },
        },
        Frame::ProfileReply {
            profile: ProfileSnapshot {
                at_ns: 0,
                rounds: 0,
                threads: vec![],
            },
        },
    ]
}

#[test]
fn every_truncation_point_is_retryable_incomplete() {
    for frame in exemplars() {
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Incomplete { needed }) => {
                    assert!(
                        needed > cut && needed <= bytes.len(),
                        "{frame:?} cut at {cut}: needed {needed} out of range"
                    );
                }
                other => panic!("{frame:?} cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
        // The uncut frame still round-trips.
        let (decoded, used) = decode_frame(&bytes).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
    }
}

/// Shrinks the length prefix so the frame *claims* to end mid-payload:
/// a complete-by-prefix frame whose payload runs out inside a field
/// must be a typed in-frame error, never `Incomplete` (the stream
/// offset is already decided) and never a panic.
#[test]
fn every_in_frame_truncation_is_a_typed_error() {
    for frame in exemplars() {
        let bytes = frame.to_bytes();
        let payload_len = bytes.len() - FRAME_HEADER_LEN;
        for keep in 0..payload_len {
            let mut cut = Vec::with_capacity(FRAME_HEADER_LEN + keep);
            cut.extend_from_slice(&(2 + keep as u32).to_le_bytes());
            cut.extend_from_slice(&bytes[4..FRAME_HEADER_LEN + keep]);
            match decode_frame(&cut) {
                Err(FrameError::Truncated { .. } | FrameError::Malformed { .. }) => {}
                other => panic!(
                    "{frame:?} with payload shrunk to {keep}/{payload_len}: \
                     expected Truncated/Malformed, got {other:?}"
                ),
            }
        }
    }
}

/// Grows the length prefix past the real payload (zero padding): the
/// decoder must notice the surplus, not mis-parse it into the next
/// frame's bytes.
#[test]
fn padded_frames_are_trailing_bytes_errors() {
    for frame in exemplars() {
        let mut bytes = frame.to_bytes();
        let padded_len = (bytes.len() - 4 + 3) as u32;
        bytes[..4].copy_from_slice(&padded_len.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0]);
        match decode_frame(&bytes) {
            // Fixed-layout frames report the surplus; variable-length
            // frames may instead read the pad as part of a count/string
            // and fail that field — both are typed, neither is a desync.
            Err(
                FrameError::TrailingBytes { .. }
                | FrameError::Truncated { .. }
                | FrameError::Malformed { .. },
            ) => {}
            other => panic!("{frame:?} padded: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn length_prefix_overflow_classes() {
    let header = |len: u32| {
        let mut b = len.to_le_bytes().to_vec();
        b.extend_from_slice(&[PROTOCOL_VERSION, 0x01]);
        b
    };
    // Over the hard ceiling, and over a configured cap.
    for len in [HARD_MAX_FRAME_LEN + 1, u32::MAX] {
        assert_eq!(
            decode_frame(&header(len)),
            Err(FrameError::Oversized {
                len,
                max: HARD_MAX_FRAME_LEN
            })
        );
    }
    assert_eq!(
        decode_frame_limited(&header(1024), 64),
        Err(FrameError::Oversized { len: 1024, max: 64 })
    );
    // Too short to hold version + tag.
    for len in [0u32, 1] {
        assert_eq!(
            decode_frame(&header(len)),
            Err(FrameError::Undersized { len })
        );
    }
}

#[test]
fn every_unknown_tag_and_version_byte_is_typed() {
    let known_requests = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x07, 0x08, 0x09, 0x0A, 0x0B];
    let known_responses = [
        0x81u8, 0x82, 0x83, 0x84, 0x85, 0x87, 0x88, 0x89, 0x8A, 0x8B, 0x8C, 0x8D, 0xFF,
    ];
    for tag in 0u8..=255 {
        let buf = [2u8, 0, 0, 0, PROTOCOL_VERSION, tag];
        match decode_frame(&buf) {
            Err(FrameError::UnknownTag { tag: got }) => {
                assert_eq!(got, tag);
                assert!(
                    !known_requests.contains(&tag) && !known_responses.contains(&tag),
                    "known tag {tag:#04x} rejected as unknown"
                );
            }
            // Known empty-payload frames (Health, Ping) decode; known
            // tags with payloads report truncation — never a panic.
            Ok(_) | Err(FrameError::Truncated { .. } | FrameError::Malformed { .. }) => {
                assert!(
                    known_requests.contains(&tag) || known_responses.contains(&tag),
                    "unknown tag {tag:#04x} was not rejected"
                );
            }
            other => panic!("tag {tag:#04x}: unexpected {other:?}"),
        }
    }
    for version in (0u8..=255).filter(|v| *v != PROTOCOL_VERSION) {
        assert_eq!(
            decode_frame(&[2, 0, 0, 0, version, 0x01]),
            Err(FrameError::VersionMismatch { got: version })
        );
    }
}

/// Flips one bit in every byte of every frame: the decoder must answer
/// with a typed error or a clean decode of the *whole* mutated frame —
/// never a panic, and never a decode that leaves the stream offset
/// inconsistent with the bytes consumed.
#[test]
fn single_bit_flips_never_panic_or_desync() {
    for frame in exemplars() {
        let bytes = frame.to_bytes();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                match decode_frame(&bad) {
                    Ok((_, used)) => {
                        assert!(
                            used <= bad.len(),
                            "{frame:?} flip {mask:#04x}@{i}: consumed {used} of {}",
                            bad.len()
                        );
                    }
                    Err(FrameError::Incomplete { needed }) => {
                        // Only a grown length prefix can make the frame
                        // incomplete — the flip must be in the prefix.
                        assert!(
                            i < 4,
                            "{frame:?} flip {mask:#04x}@{i}: Incomplete off-prefix"
                        );
                        assert!(needed > bad.len());
                    }
                    Err(_) => {} // typed rejection: the contract
                }
            }
        }
    }
}

/// A frame claiming a batch of `u32::MAX` elements must be rejected by
/// arithmetic, not by attempting the allocation. `0x88` (`MapUpdate`)
/// carries the hostile count as its shard-list length.
#[test]
fn hostile_counts_are_rejected_without_allocation() {
    for tag in [0x02u8, 0x82, 0x88] {
        let mut buf = Vec::new();
        // payload: object/epoch/version u64 + (disks u32 for 0x82) + count u32
        let payload_len = if tag == 0x82 { 8 + 4 + 4 } else { 8 + 4 };
        buf.extend_from_slice(&(2 + payload_len as u32).to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(tag);
        buf.extend_from_slice(&7u64.to_le_bytes());
        if tag == 0x82 {
            buf.extend_from_slice(&4u32.to_le_bytes());
        }
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(decode_frame(&buf), Err(FrameError::Malformed { .. })),
            "hostile count behind tag {tag:#04x} was not rejected"
        );
    }
}

/// Hostile `MapUpdate` payloads beyond the raw count: shard ids out of
/// order (which would silently scramble jump-hash buckets if accepted)
/// and an address string claiming to run past the payload. Both must be
/// typed rejections — a client never installs a malformed map.
#[test]
fn hostile_map_updates_are_typed_rejections() {
    let frame_bytes = |payload: &[u8]| {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        buf.extend_from_slice(&(2 + payload.len() as u32).to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(0x88);
        buf.extend_from_slice(payload);
        buf
    };
    let entry = |id: u32, addr: &str| {
        let mut e = id.to_le_bytes().to_vec();
        e.extend_from_slice(&(addr.len() as u32).to_le_bytes());
        e.extend_from_slice(addr.as_bytes());
        e
    };

    // Descending and duplicate ids: both break the sorted-bucket rule.
    for ids in [[3u32, 1], [2, 2]] {
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&2u32.to_le_bytes());
        for id in ids {
            payload.extend_from_slice(&entry(id, "127.0.0.1:1"));
        }
        assert!(
            matches!(
                decode_frame(&frame_bytes(&payload)),
                Err(FrameError::Malformed { .. })
            ),
            "unsorted shard ids {ids:?} were not rejected"
        );
    }

    // Address length prefix pointing past the end of the payload.
    let mut payload = 9u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // addr "length"
    assert!(
        matches!(
            decode_frame(&frame_bytes(&payload)),
            Err(FrameError::Truncated { .. } | FrameError::Malformed { .. })
        ),
        "runaway address length was not rejected"
    );
}

/// Trace trailers ride after every *request* payload. Sweep every
/// truncation boundary of every traced request: stream truncation must
/// stay retryable `Incomplete`, an in-frame cut through the trailer
/// must be a typed error, and the intact trailer must round-trip the
/// context exactly.
#[test]
fn trace_trailer_truncation_at_every_boundary_is_typed() {
    let ctx = TraceContext::root(0xC0FFEE, 1);
    for frame in exemplars().into_iter().filter(Frame::is_request) {
        let full = frame.to_bytes_traced(&ctx);
        let plain_len = frame.to_bytes().len();
        for cut in 0..full.len() {
            assert!(
                matches!(
                    decode_frame(&full[..cut]),
                    Err(FrameError::Incomplete { .. })
                ),
                "{frame:?} stream cut at {cut} was not retryable"
            );
        }
        // Shrink the length prefix so the frame *claims* to end inside
        // the trailer (cutting at `plain_len` exactly removes it — a
        // legal untraced frame).
        for cut in plain_len + 1..full.len() {
            let mut bytes = full[..cut].to_vec();
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_le_bytes());
            match decode_frame(&bytes) {
                Err(FrameError::TrailingBytes { .. } | FrameError::Malformed { .. }) => {}
                other => panic!("{frame:?} trailer cut at {cut}: {other:?}"),
            }
        }
        let (decoded, got, used) =
            decode_frame_traced(&full, HARD_MAX_FRAME_LEN).expect("intact traced frame");
        assert_eq!(decoded, frame);
        assert_eq!(got, Some(ctx), "{frame:?} lost its context");
        assert_eq!(used, full.len());
    }
}

/// Every (claimed length, actual length) mismatch across the trailer
/// length byte's full range: nothing panics, nothing desyncs, and only
/// a self-consistent trailer ever decodes.
#[test]
fn hostile_trailer_lengths_never_panic_or_desync() {
    let base = Frame::Ping.to_bytes();
    for claim in 0u8..=255 {
        for actual in [0usize, 1, 3, 16, 17, 18, 32, 255] {
            let mut bytes = base.clone();
            bytes.push(TRACE_TRAILER_VERSION);
            bytes.push(claim);
            bytes.extend(std::iter::repeat_n(0x5Au8, actual));
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_le_bytes());
            match decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN) {
                Ok((frame, ctx, used)) => {
                    // Only the self-consistent v1 trailer parses to a
                    // context (0x5A body → non-zero trace id).
                    assert_eq!(usize::from(claim), actual, "inconsistent trailer accepted");
                    assert_eq!(claim, TRACE_TRAILER_V1_LEN, "wrong v1 length accepted");
                    assert_eq!(frame, Frame::Ping);
                    assert!(ctx.is_some());
                    assert_eq!(used, bytes.len());
                }
                Err(FrameError::TrailingBytes { .. } | FrameError::Malformed { .. }) => {}
                other => panic!("claim {claim} actual {actual}: {other:?}"),
            }
        }
    }
}

/// A structurally sound trailer of any *future* version must be
/// skipped, not rejected: an old server keeps serving a newer client.
/// Only the length-consistency rule is enforced.
#[test]
fn unknown_trailer_versions_are_skipped_not_rejected() {
    for version in (0u8..=255).filter(|v| *v != TRACE_TRAILER_VERSION) {
        for body_len in [0usize, 1, 17, 64, 255] {
            let mut bytes = Frame::Tick { rounds: 3 }.to_bytes();
            bytes.push(version);
            bytes.push(body_len as u8);
            bytes.extend(std::iter::repeat_n(0xEEu8, body_len));
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_le_bytes());
            let (frame, ctx, used) = decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN)
                .unwrap_or_else(|e| {
                    panic!("future trailer v{version} ({body_len}B) rejected: {e:?}")
                });
            assert_eq!(frame, Frame::Tick { rounds: 3 });
            assert_eq!(ctx, None, "uninterpretable trailer produced a context");
            assert_eq!(used, bytes.len());
        }
    }
}

proptest! {
    /// Arbitrary profiler snapshots round-trip exactly through the
    /// `ProfileReply` encoding (names, samples, and every count), and
    /// re-encoding is byte-identical — the canonical-form property the
    /// harness `profile-conserves` byte-identity check leans on.
    #[test]
    fn arbitrary_profile_replies_round_trip(
        at_ns in any::<u64>(),
        rounds in any::<u64>(),
        threads in proptest::collection::vec(
            ("[a-z0-9-]{1,24}", any::<u64>(), proptest::collection::vec(any::<u64>(), 0..12)),
            0..6,
        ),
    ) {
        let profile = ProfileSnapshot {
            at_ns,
            rounds,
            threads: threads
                .into_iter()
                .map(|(name, samples, counts)| ThreadProfile { name, samples, counts })
                .collect(),
        };
        let frame = Frame::ProfileReply { profile };
        let bytes = frame.to_bytes();
        let (decoded, used) = decode_frame(&bytes).expect("round trip");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&decoded.to_bytes(), &bytes);
        prop_assert_eq!(decoded, frame);
    }

    /// Arbitrary byte soup: decode returns, never panics, and any
    /// successful decode consumes no more than the buffer.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((_, used)) = decode_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Byte soup stamped with a valid header prefix reaches the payload
    /// parsers; they too must never panic.
    #[test]
    fn framed_byte_soup_never_panics(
        tag in 0u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        buf.extend_from_slice(&(2 + payload.len() as u32).to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(tag);
        buf.extend_from_slice(&payload);
        match decode_frame(&buf) {
            Ok((_, used)) => prop_assert_eq!(used, buf.len()),
            Err(FrameError::Incomplete { .. }) => {
                prop_assert!(false, "complete frame reported Incomplete");
            }
            Err(_) => {}
        }
    }
}
