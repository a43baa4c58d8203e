//! The `scaddard` wire protocol: versioned, length-prefixed binary
//! frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! [len: u32 LE] [version: u8] [tag: u8] [payload: len-2 bytes]
//! ```
//!
//! where `len` counts everything after itself (version + tag +
//! payload). Integers are little-endian; strings and sequences are
//! length-prefixed (`u32` count, then elements). The version byte rides
//! in *every* frame rather than a handshake so a mixed-version pool is
//! rejected per-request with a typed error instead of a stream
//! desync.
//!
//! Two properties are contractual:
//!
//! * **The encoder is zero-copy**: [`Frame::encode`] appends straight
//!   into the caller's output buffer — no intermediate frame allocation,
//!   so a pipelining client can pack many requests into one write.
//! * **The decoder never panics**: [`decode_frame`] answers truncated,
//!   oversized, version-skewed, unknown-tag, and bit-flipped input with
//!   a typed [`FrameError`]. Garbage from the network is an error value,
//!   never a crash — the corruption sweep in `tests/wire_corruption.rs`
//!   holds this line for every cut point and every flipped byte.

use scaddar_core::ScalingOp;
use scaddar_obs::{
    CounterSample, GaugeSample, HistogramSample, HistogramSnapshot, ProfileSnapshot,
    RegistrySnapshot, ThreadProfile, TraceContext, HISTOGRAM_BUCKETS,
};

/// Most states-per-thread a decoder accepts in a [`Frame::ProfileReply`].
/// The current protocol defines `scaddar_obs::THREAD_STATES` (8); the
/// headroom lets a newer peer add states without a version bump while
/// still bounding hostile allocations.
pub const MAX_PROFILE_STATES: usize = 64;

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Version byte of the optional trace-context trailer a request frame
/// may carry after its payload (see [`Frame::encode_traced`]). The
/// trailer is its own versioned mini-format precisely so it can evolve
/// without bumping [`PROTOCOL_VERSION`]: a decoder that sees a
/// structurally valid trailer with an *unknown* version skips it
/// (requests still decode, just untraced) instead of rejecting the
/// frame.
pub const TRACE_TRAILER_VERSION: u8 = 1;

/// Body length of a v1 trace trailer: trace id + span id + flags.
pub const TRACE_TRAILER_V1_LEN: u8 = 17;

/// Hard ceiling a decoder enforces on `len` regardless of configuration
/// (16 MiB). Servers and clients usually configure a much smaller
/// [`max_frame_len`](crate::server::NetServerConfig::max_frame_len).
pub const HARD_MAX_FRAME_LEN: u32 = 16 << 20;

/// Bytes of framing before the payload: length prefix + version + tag.
pub const FRAME_HEADER_LEN: usize = 6;

/// Why a byte sequence failed to decode as a frame.
///
/// [`FrameError::Incomplete`] is the only *retryable* variant: a
/// streaming reader that has not yet received the whole frame keeps
/// reading. Every other variant is a protocol violation and poisons the
/// connection (the stream offset can no longer be trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does; `needed` total bytes
    /// would complete it (lower bound when the header itself is cut).
    Incomplete {
        /// Total buffer length that would allow another decode attempt.
        needed: usize,
    },
    /// The length prefix exceeds the decoder's limit — either the
    /// configured cap or [`HARD_MAX_FRAME_LEN`]. Catches both hostile
    /// lengths and desynced streams reading garbage as a prefix.
    Oversized {
        /// The claimed frame length.
        len: u32,
        /// The limit in force.
        max: u32,
    },
    /// The length prefix is shorter than version + tag — no frame this
    /// small exists.
    Undersized {
        /// The claimed frame length.
        len: u32,
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// The version byte received.
        got: u8,
    },
    /// The tag byte names no known frame type.
    UnknownTag {
        /// The tag byte received.
        tag: u8,
    },
    /// The payload ended before a field did (a truncation *inside* a
    /// frame whose length prefix survived).
    Truncated {
        /// The frame type being decoded.
        frame: &'static str,
        /// The field that ran out of bytes.
        field: &'static str,
    },
    /// The payload continues past the last field of the frame.
    TrailingBytes {
        /// The frame type decoded.
        frame: &'static str,
        /// Surplus byte count.
        extra: usize,
    },
    /// A field held an impossible value (bad enum discriminant, a
    /// count that cannot fit in the payload, invalid UTF-8, ...).
    Malformed {
        /// The frame type being decoded.
        frame: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { needed } => {
                write!(f, "incomplete frame: need {needed} bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (limit {max})")
            }
            FrameError::Undersized { len } => {
                write!(f, "undersized frame: length prefix {len} < 2")
            }
            FrameError::VersionMismatch { got } => {
                write!(f, "protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            FrameError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::Truncated { frame, field } => {
                write!(f, "truncated {frame} frame: payload ends inside `{field}`")
            }
            FrameError::TrailingBytes { frame, extra } => {
                write!(f, "{frame} frame carries {extra} trailing bytes")
            }
            FrameError::Malformed { frame, detail } => {
                write!(f, "malformed {frame} frame: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Error codes carried by [`Frame::Error`] responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The server's placement engine rejected the request.
    Engine = 0,
    /// The server is at its connection/backpressure limit.
    Busy = 1,
    /// The request decoded but made no sense (e.g. empty batch).
    BadRequest = 2,
    /// The server is draining for shutdown.
    ShuttingDown = 3,
    /// The client sent a frame the server could not decode; the reply
    /// echoes the [`FrameError`] text before the connection closes.
    Protocol = 4,
    /// Anything else.
    Internal = 5,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            0 => ErrorCode::Engine,
            1 => ErrorCode::Busy,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Protocol,
            5 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Stable lowercase label (metric/endpoint friendly).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::Engine => "engine",
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Internal => "internal",
        }
    }
}

/// One protocol frame — requests (client → server) and responses
/// (server → client) share the enum because both directions share the
/// codec (and the corruption sweep covers both in one pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    // ---- requests ----
    /// Locate one block of one object.
    Locate {
        /// Object id.
        object: u64,
        /// Block number within the object.
        block: u64,
    },
    /// Locate many blocks of one object under one epoch.
    LocateBatch {
        /// Object id.
        object: u64,
        /// Block numbers, answered in order.
        blocks: Vec<u64>,
    },
    /// Commit a scaling operation.
    Scale {
        /// The operation.
        op: ScalingOp,
    },
    /// Advance `rounds` service rounds (drains redistribution).
    Tick {
        /// Rounds to advance (0 is allowed and answers the backlog).
        rounds: u32,
    },
    /// One-shot health report request.
    Health,
    /// Liveness probe (also the pool's stale-connection check).
    Ping,
    /// Cluster-map fetch. `have_version` is the client's current map
    /// version; the server always answers with its full map (the field
    /// exists so servers can log/skip-count redundant fetches and so
    /// future versions can answer "unchanged" cheaply).
    FetchMap {
        /// The map version the client already holds (0 = none).
        have_version: u64,
    },
    /// Metrics-federation pull: ship back the shard's full structured
    /// registry snapshot (not rendered text — the aggregator needs the
    /// histogram *buckets* to merge fleet-wide without percentile
    /// averaging). Read-only and idempotent, so pool clients may retry
    /// it freely.
    ScrapeStats,
    /// Profiler pull: ship back the shard's cumulative state-residency
    /// profile (every registered thread's per-state sample counts).
    /// Read-only and idempotent; interval profiles are computed
    /// client-side by diffing two dumps.
    ProfileDump,
    /// Begin an online rehash compaction (or join the one already in
    /// flight — re-issuing mid-migration answers its progress rather
    /// than erroring). Answered by [`Frame::CompactStatus`], or
    /// [`Frame::Error`] when the server refuses (redistribution
    /// pending, failed disks present).
    Compact,

    // ---- responses ----
    /// Answer to [`Frame::Locate`]. Epoch-tagged: `disk` is valid for
    /// exactly this `(epoch, disks)` pair.
    Located {
        /// Scaling epoch the lookup was served at.
        epoch: u64,
        /// Disk count at that epoch.
        disks: u32,
        /// The block's *logical* disk index in `0..disks` (the engine's
        /// `LocateQuery::One` answer); only [`Frame::BatchLocated`]
        /// carries physical disk ids.
        disk: u64,
    },
    /// Answer to [`Frame::LocateBatch`] — the whole batch served at one
    /// epoch (no torn reads across a concurrent `Scale`).
    BatchLocated {
        /// Scaling epoch the whole batch was served at.
        epoch: u64,
        /// Disk count at that epoch.
        disks: u32,
        /// Physical disk per requested block, in request order.
        locations: Vec<u64>,
    },
    /// Answer to [`Frame::Scale`].
    Scaled {
        /// Epoch after the commit.
        epoch: u64,
        /// Disk count after the commit.
        disks: u32,
        /// Redistribution moves queued by the op.
        queued: u64,
    },
    /// Answer to [`Frame::Tick`].
    Ticked {
        /// Rounds actually advanced.
        rounds: u32,
        /// Redistribution backlog after the last round.
        backlog: u64,
    },
    /// Answer to [`Frame::Health`].
    HealthStatus {
        /// Worst probe severity: 0 ok, 1 warn, 2 crit.
        verdict: u8,
        /// Alerts emitted so far by the server's monitor.
        alerts: u64,
        /// The rendered operator report.
        report: String,
    },
    /// Answer to [`Frame::Ping`]; echoes the server's current epoch so
    /// even liveness checks are epoch-tagged.
    Pong {
        /// Current scaling epoch.
        epoch: u64,
    },
    /// Answer to [`Frame::FetchMap`]: the server's current cluster map.
    /// `version` doubles as the cluster epoch — every topology change
    /// (shard add/remove, restart re-address) bumps it by one.
    MapUpdate {
        /// Cluster-map version (the cluster epoch).
        version: u64,
        /// `(shard id, net address)` for every serving shard, sorted by
        /// id. Addresses are UTF-8 `host:port` strings.
        shards: Vec<(u32, String)>,
    },
    /// Routing rejection: per the answering shard's map, `owner` serves
    /// this object. Carries the shard's map version (the piggyback that
    /// tells a stale client to refresh before retrying).
    WrongShard {
        /// Map version the answering shard routed by.
        map_version: u64,
        /// Shard id the map names as the object's owner.
        owner: u32,
    },
    /// The answering shard is no longer in the serving set (drained
    /// after removal, or superseded after a restart re-address). The
    /// client must refetch the map from a live shard and retry.
    StaleMap {
        /// Map version the answering shard last held.
        map_version: u64,
    },
    /// Answer to [`Frame::ScrapeStats`]: the shard's scaling epoch,
    /// current health verdict, and structured registry snapshot
    /// (histograms as sparse non-zero bucket lists, mergeable
    /// bucket-wise by the fleet aggregator).
    StatsReply {
        /// Scaling epoch at snapshot time.
        epoch: u64,
        /// Worst probe severity: 0 ok, 1 warn, 2 crit.
        verdict: u8,
        /// The registry snapshot.
        snapshot: RegistrySnapshot,
    },
    /// Answer to [`Frame::ProfileDump`]: the shard's cumulative
    /// cooperative-profiler snapshot — per-thread state-residency
    /// sample counts plus the total sampling rounds run.
    ProfileReply {
        /// The profiler snapshot.
        profile: ProfileSnapshot,
    },
    /// Answer to [`Frame::Compact`]: the shard's compaction state.
    /// `active == 1` means a migration is draining from `generation`
    /// toward `target_generation`; `active == 0` means the shard serves
    /// a single generation (after an instant flip, `generation` is the
    /// already-bumped serving generation and the counters are zero).
    CompactStatus {
        /// 1 while a compaction migration is in flight, else 0.
        active: u8,
        /// The serving generation (the one being retired when active).
        generation: u64,
        /// The generation being migrated to (== `generation` when idle).
        target_generation: u64,
        /// Blocks already at their new-generation placement.
        migrated: u64,
        /// Blocks the compaction must account for.
        total: u64,
        /// Migration moves still queued in the executor.
        backlog: u64,
    },
    /// Typed failure response.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
}

// Tag bytes. Requests are 0x01.., responses 0x81.. — the high bit marks
// direction, which makes stream desyncs fail fast (a client reading a
// request tag knows immediately something is wrong). 0x06/0x86 (a
// server-rendered text stats pull, replaced by `ScrapeStats`) are
// retired: they decode as `UnknownTag` and are never reused.
const TAG_LOCATE: u8 = 0x01;
const TAG_LOCATE_BATCH: u8 = 0x02;
const TAG_SCALE: u8 = 0x03;
const TAG_TICK: u8 = 0x04;
const TAG_HEALTH: u8 = 0x05;
const TAG_PING: u8 = 0x07;
const TAG_FETCH_MAP: u8 = 0x08;
const TAG_SCRAPE_STATS: u8 = 0x09;
const TAG_PROFILE_DUMP: u8 = 0x0A;
const TAG_COMPACT: u8 = 0x0B;
const TAG_LOCATED: u8 = 0x81;
const TAG_BATCH_LOCATED: u8 = 0x82;
const TAG_SCALED: u8 = 0x83;
const TAG_TICKED: u8 = 0x84;
const TAG_HEALTH_STATUS: u8 = 0x85;
const TAG_PONG: u8 = 0x87;
const TAG_MAP_UPDATE: u8 = 0x88;
const TAG_WRONG_SHARD: u8 = 0x89;
const TAG_STALE_MAP: u8 = 0x8A;
const TAG_STATS_REPLY: u8 = 0x8B;
const TAG_PROFILE_REPLY: u8 = 0x8C;
const TAG_COMPACT_STATUS: u8 = 0x8D;
const TAG_ERROR: u8 = 0xFF;

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Locate { .. } => TAG_LOCATE,
            Frame::LocateBatch { .. } => TAG_LOCATE_BATCH,
            Frame::Scale { .. } => TAG_SCALE,
            Frame::Tick { .. } => TAG_TICK,
            Frame::Health => TAG_HEALTH,
            Frame::Ping => TAG_PING,
            Frame::FetchMap { .. } => TAG_FETCH_MAP,
            Frame::ScrapeStats => TAG_SCRAPE_STATS,
            Frame::ProfileDump => TAG_PROFILE_DUMP,
            Frame::Compact => TAG_COMPACT,
            Frame::Located { .. } => TAG_LOCATED,
            Frame::BatchLocated { .. } => TAG_BATCH_LOCATED,
            Frame::Scaled { .. } => TAG_SCALED,
            Frame::Ticked { .. } => TAG_TICKED,
            Frame::HealthStatus { .. } => TAG_HEALTH_STATUS,
            Frame::Pong { .. } => TAG_PONG,
            Frame::MapUpdate { .. } => TAG_MAP_UPDATE,
            Frame::WrongShard { .. } => TAG_WRONG_SHARD,
            Frame::StaleMap { .. } => TAG_STALE_MAP,
            Frame::StatsReply { .. } => TAG_STATS_REPLY,
            Frame::ProfileReply { .. } => TAG_PROFILE_REPLY,
            Frame::CompactStatus { .. } => TAG_COMPACT_STATUS,
            Frame::Error { .. } => TAG_ERROR,
        }
    }

    /// Stable name for telemetry (`net_server_requests_total{endpoint=...}`).
    pub fn endpoint(&self) -> &'static str {
        match self {
            Frame::Locate { .. } | Frame::Located { .. } => "locate",
            Frame::LocateBatch { .. } | Frame::BatchLocated { .. } => "locate-batch",
            Frame::Scale { .. } | Frame::Scaled { .. } => "scale",
            Frame::Tick { .. } | Frame::Ticked { .. } => "tick",
            Frame::Health | Frame::HealthStatus { .. } => "health",
            Frame::Ping | Frame::Pong { .. } => "ping",
            Frame::FetchMap { .. } | Frame::MapUpdate { .. } => "fetch-map",
            Frame::ScrapeStats | Frame::StatsReply { .. } => "scrape-stats",
            Frame::ProfileDump | Frame::ProfileReply { .. } => "profile",
            Frame::Compact | Frame::CompactStatus { .. } => "compact",
            Frame::WrongShard { .. } => "wrong-shard",
            Frame::StaleMap { .. } => "stale-map",
            Frame::Error { .. } => "error",
        }
    }

    /// True for client → server frames.
    pub fn is_request(&self) -> bool {
        self.tag() & 0x80 == 0
    }

    /// Appends the encoded frame to `buf` (header + payload in place —
    /// no intermediate allocation). Returns the encoded length.
    pub fn encode(&self, buf: &mut Vec<u8>) -> usize {
        let start = buf.len();
        buf.extend_from_slice(&[0, 0, 0, 0]); // length slot, patched below
        buf.push(PROTOCOL_VERSION);
        buf.push(self.tag());
        match self {
            Frame::Locate { object, block } => {
                put_u64(buf, *object);
                put_u64(buf, *block);
            }
            Frame::LocateBatch { object, blocks } => {
                put_u64(buf, *object);
                put_u32(buf, blocks.len() as u32);
                for b in blocks {
                    put_u64(buf, *b);
                }
            }
            Frame::Scale { op } => match op {
                ScalingOp::Add { count } => {
                    buf.push(0);
                    put_u32(buf, *count);
                }
                ScalingOp::Remove { disks } => {
                    buf.push(1);
                    put_u32(buf, disks.len() as u32);
                    for d in disks {
                        put_u32(buf, *d);
                    }
                }
            },
            Frame::Tick { rounds } => put_u32(buf, *rounds),
            Frame::Health
            | Frame::Ping
            | Frame::ScrapeStats
            | Frame::ProfileDump
            | Frame::Compact => {}
            Frame::FetchMap { have_version } => put_u64(buf, *have_version),
            Frame::Located { epoch, disks, disk } => {
                put_u64(buf, *epoch);
                put_u32(buf, *disks);
                put_u64(buf, *disk);
            }
            Frame::BatchLocated {
                epoch,
                disks,
                locations,
            } => {
                put_u64(buf, *epoch);
                put_u32(buf, *disks);
                put_u32(buf, locations.len() as u32);
                for d in locations {
                    put_u64(buf, *d);
                }
            }
            Frame::Scaled {
                epoch,
                disks,
                queued,
            } => {
                put_u64(buf, *epoch);
                put_u32(buf, *disks);
                put_u64(buf, *queued);
            }
            Frame::Ticked { rounds, backlog } => {
                put_u32(buf, *rounds);
                put_u64(buf, *backlog);
            }
            Frame::HealthStatus {
                verdict,
                alerts,
                report,
            } => {
                buf.push(*verdict);
                put_u64(buf, *alerts);
                put_str(buf, report);
            }
            Frame::Pong { epoch } => put_u64(buf, *epoch),
            Frame::MapUpdate { version, shards } => {
                put_u64(buf, *version);
                put_u32(buf, shards.len() as u32);
                for (id, addr) in shards {
                    put_u32(buf, *id);
                    put_str(buf, addr);
                }
            }
            Frame::WrongShard { map_version, owner } => {
                put_u64(buf, *map_version);
                put_u32(buf, *owner);
            }
            Frame::StaleMap { map_version } => put_u64(buf, *map_version),
            Frame::StatsReply {
                epoch,
                verdict,
                snapshot,
            } => {
                put_u64(buf, *epoch);
                buf.push(*verdict);
                put_snapshot(buf, snapshot);
            }
            Frame::ProfileReply { profile } => {
                put_u64(buf, profile.at_ns);
                put_u64(buf, profile.rounds);
                put_u32(buf, profile.threads.len() as u32);
                for t in &profile.threads {
                    put_str(buf, &t.name);
                    put_u64(buf, t.samples);
                    put_u32(buf, t.counts.len() as u32);
                    for &c in &t.counts {
                        put_u64(buf, c);
                    }
                }
            }
            Frame::CompactStatus {
                active,
                generation,
                target_generation,
                migrated,
                total,
                backlog,
            } => {
                buf.push(*active);
                put_u64(buf, *generation);
                put_u64(buf, *target_generation);
                put_u64(buf, *migrated);
                put_u64(buf, *total);
                put_u64(buf, *backlog);
            }
            Frame::Error { code, message } => {
                buf.push(*code as u8);
                put_str(buf, message);
            }
        }
        let len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf.len() - start
    }

    /// Encodes the frame with a trace-context trailer appended after
    /// the payload: `[version: u8] [len: u8] [trace_id: u64]
    /// [span_id: u64] [flags: u8]` (bit 0 of `flags` = sampled),
    /// covered by the frame's length prefix. Only meaningful on
    /// request frames — a traced decoder surfaces the context, a
    /// trace-unaware v1 decoder skips the trailer, and responses never
    /// carry one. Returns the encoded length.
    pub fn encode_traced(&self, buf: &mut Vec<u8>, ctx: &TraceContext) -> usize {
        debug_assert!(self.is_request(), "trace trailers ride on requests");
        let start = buf.len();
        self.encode(buf);
        buf.push(TRACE_TRAILER_VERSION);
        buf.push(TRACE_TRAILER_V1_LEN);
        put_u64(buf, ctx.trace_id);
        put_u64(buf, ctx.span_id);
        buf.push(u8::from(ctx.sampled));
        let len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf.len() - start
    }

    /// Convenience: the frame encoded into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + 16);
        self.encode(&mut buf);
        buf
    }

    /// Convenience: [`Frame::encode_traced`] into a fresh buffer.
    pub fn to_bytes_traced(&self, ctx: &TraceContext) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + 40);
        self.encode_traced(&mut buf, ctx);
        buf
    }
}

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Serializes a registry snapshot: three counted sections (counters,
/// gauges, histograms), names and help as length-prefixed strings,
/// histograms as `count`/`sum`/`max` plus a sparse list of non-zero
/// `(bucket index: u32, count: u64)` pairs in strictly ascending index
/// order — canonical, so encode∘decode is byte-identical.
fn put_snapshot(buf: &mut Vec<u8>, snap: &RegistrySnapshot) {
    put_u32(buf, snap.counters.len() as u32);
    for c in &snap.counters {
        put_str(buf, &c.name);
        put_str(buf, &c.help);
        put_u64(buf, c.value);
    }
    put_u32(buf, snap.gauges.len() as u32);
    for g in &snap.gauges {
        put_str(buf, &g.name);
        put_str(buf, &g.help);
        put_u64(buf, g.value as u64);
    }
    put_u32(buf, snap.histograms.len() as u32);
    for h in &snap.histograms {
        put_str(buf, &h.name);
        put_str(buf, &h.help);
        put_u64(buf, h.snapshot.count);
        put_u64(buf, h.snapshot.sum);
        put_u64(buf, h.snapshot.max);
        let nonzero: Vec<(usize, u64)> = h
            .snapshot
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        put_u32(buf, nonzero.len() as u32);
        for (i, n) in nonzero {
            put_u32(buf, i as u32);
            put_u64(buf, n);
        }
    }
}

/// A cursor over one frame's payload; every read is bounds-checked and
/// answers truncation with a typed error.
struct Payload<'a> {
    bytes: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.pos < n {
            return Err(FrameError::Truncated {
                frame: self.frame,
                field,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, field)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, field)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32` count whose elements occupy `elem_len` bytes each; the
    /// count is validated against the *remaining payload* before any
    /// allocation, so a hostile count cannot balloon memory.
    fn count(&mut self, elem_len: usize, field: &'static str) -> Result<usize, FrameError> {
        let n = self.u32(field)? as usize;
        let remaining = self.bytes.len() - self.pos;
        match n.checked_mul(elem_len) {
            Some(need) if need <= remaining => Ok(n),
            _ => Err(FrameError::Malformed {
                frame: self.frame,
                detail: format!("count {n} x {elem_len}B exceeds {remaining}B of payload"),
            }),
        }
    }

    fn string(&mut self, field: &'static str) -> Result<String, FrameError> {
        let n = self.count(1, field)?;
        let bytes = self.take(n, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed {
            frame: self.frame,
            detail: format!("`{field}` is not UTF-8"),
        })
    }
}

/// Decodes the first frame in `buf` with the default
/// [`HARD_MAX_FRAME_LEN`] cap. See [`decode_frame_limited`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    decode_frame_limited(buf, HARD_MAX_FRAME_LEN)
}

/// Decodes the first frame in `buf`, returning the frame and the bytes
/// consumed. `max_len` caps the accepted length prefix (clamped to
/// [`HARD_MAX_FRAME_LEN`]). Any trace trailer is validated and
/// discarded — use [`decode_frame_traced`] to surface it.
///
/// Never panics: any malformed input maps to a [`FrameError`].
/// [`FrameError::Incomplete`] means "read more and retry".
pub fn decode_frame_limited(buf: &[u8], max_len: u32) -> Result<(Frame, usize), FrameError> {
    decode_frame_traced(buf, max_len).map(|(frame, _ctx, used)| (frame, used))
}

/// [`decode_frame_limited`] plus the request's trace context, when a
/// valid current-version trace trailer rides after the payload.
/// `None` on untraced frames *and* on structurally valid trailers of
/// an unknown version (skip-don't-reject: an old server must keep
/// serving a newer client's requests). Arbitrary padding that does not
/// parse as a trailer is still a [`FrameError::TrailingBytes`] error,
/// and responses never carry trailers.
pub fn decode_frame_traced(
    buf: &[u8],
    max_len: u32,
) -> Result<(Frame, Option<TraceContext>, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Incomplete { needed: 4 });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let max = max_len.min(HARD_MAX_FRAME_LEN);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    if len < 2 {
        return Err(FrameError::Undersized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Err(FrameError::Incomplete { needed: total });
    }
    let version = buf[4];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch { got: version });
    }
    let tag = buf[5];
    let payload = &buf[6..total];
    let name = tag_name(tag)?;
    let (frame, used) = decode_payload(tag, name, payload)?;
    let ctx = decode_trailer(&frame, name, &payload[used..])?;
    Ok((frame, ctx, total))
}

/// How many complete frames `buf` starts with, counting at most
/// `limit`: a walk over the length prefixes that decodes nothing.
pub(crate) fn complete_frames(mut buf: &[u8], limit: usize) -> usize {
    let mut frames = 0;
    while frames < limit && buf.len() >= 4 {
        let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        let Some(rest) = buf.get(len.saturating_add(4)..) else {
            break;
        };
        buf = rest;
        frames += 1;
    }
    frames
}

fn tag_name(tag: u8) -> Result<&'static str, FrameError> {
    Ok(match tag {
        TAG_LOCATE => "Locate",
        TAG_LOCATE_BATCH => "LocateBatch",
        TAG_SCALE => "Scale",
        TAG_TICK => "Tick",
        TAG_HEALTH => "Health",
        TAG_PING => "Ping",
        TAG_FETCH_MAP => "FetchMap",
        TAG_SCRAPE_STATS => "ScrapeStats",
        TAG_PROFILE_DUMP => "ProfileDump",
        TAG_COMPACT => "Compact",
        TAG_LOCATED => "Located",
        TAG_BATCH_LOCATED => "BatchLocated",
        TAG_SCALED => "Scaled",
        TAG_TICKED => "Ticked",
        TAG_HEALTH_STATUS => "HealthStatus",
        TAG_PONG => "Pong",
        TAG_MAP_UPDATE => "MapUpdate",
        TAG_WRONG_SHARD => "WrongShard",
        TAG_STALE_MAP => "StaleMap",
        TAG_STATS_REPLY => "StatsReply",
        TAG_PROFILE_REPLY => "ProfileReply",
        TAG_COMPACT_STATUS => "CompactStatus",
        TAG_ERROR => "Error",
        other => return Err(FrameError::UnknownTag { tag: other }),
    })
}

/// Parses the bytes left after a frame's payload. Empty → no trailer.
/// A well-formed trailer (`[version][len][len bytes]`, exactly filling
/// the remainder, on a *request*) yields the context for the current
/// version and `None` for unknown versions; anything else is the same
/// trailing-bytes rejection v1 always made.
fn decode_trailer(
    frame: &Frame,
    name: &'static str,
    rest: &[u8],
) -> Result<Option<TraceContext>, FrameError> {
    if rest.is_empty() {
        return Ok(None);
    }
    let reject = Err(FrameError::TrailingBytes {
        frame: name,
        extra: rest.len(),
    });
    if !frame.is_request() || rest.len() < 2 {
        return reject;
    }
    let (version, len) = (rest[0], rest[1] as usize);
    if rest.len() - 2 != len {
        return reject;
    }
    if version != TRACE_TRAILER_VERSION {
        return Ok(None); // future trailer version: skip, don't reject
    }
    if len != TRACE_TRAILER_V1_LEN as usize {
        return Err(FrameError::Malformed {
            frame: name,
            detail: format!(
                "trace trailer v1 carries {len} bytes, expected {TRACE_TRAILER_V1_LEN}"
            ),
        });
    }
    let trace_id = u64::from_le_bytes(rest[2..10].try_into().expect("8 bytes"));
    let span_id = u64::from_le_bytes(rest[10..18].try_into().expect("8 bytes"));
    if trace_id == 0 {
        return Err(FrameError::Malformed {
            frame: name,
            detail: "trace trailer with trace id 0".to_string(),
        });
    }
    Ok(Some(TraceContext {
        trace_id,
        span_id,
        sampled: rest[18] & 1 != 0,
    }))
}

fn decode_payload(
    tag: u8,
    name: &'static str,
    payload: &[u8],
) -> Result<(Frame, usize), FrameError> {
    let mut p = Payload {
        bytes: payload,
        pos: 0,
        frame: name,
    };
    let frame = match tag {
        TAG_LOCATE => Frame::Locate {
            object: p.u64("object")?,
            block: p.u64("block")?,
        },
        TAG_LOCATE_BATCH => {
            let object = p.u64("object")?;
            let n = p.count(8, "blocks.len")?;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(p.u64("blocks[]")?);
            }
            Frame::LocateBatch { object, blocks }
        }
        TAG_SCALE => {
            let kind = p.u8("op.kind")?;
            let op = match kind {
                0 => ScalingOp::Add {
                    count: p.u32("op.count")?,
                },
                1 => {
                    let n = p.count(4, "op.disks.len")?;
                    let mut disks = Vec::with_capacity(n);
                    for _ in 0..n {
                        disks.push(p.u32("op.disks[]")?);
                    }
                    ScalingOp::Remove { disks }
                }
                other => {
                    return Err(FrameError::Malformed {
                        frame: name,
                        detail: format!("unknown scaling-op kind {other}"),
                    })
                }
            };
            Frame::Scale { op }
        }
        TAG_TICK => Frame::Tick {
            rounds: p.u32("rounds")?,
        },
        TAG_HEALTH => Frame::Health,
        TAG_PING => Frame::Ping,
        TAG_FETCH_MAP => Frame::FetchMap {
            have_version: p.u64("have_version")?,
        },
        TAG_SCRAPE_STATS => Frame::ScrapeStats,
        TAG_PROFILE_DUMP => Frame::ProfileDump,
        TAG_COMPACT => Frame::Compact,
        TAG_LOCATED => Frame::Located {
            epoch: p.u64("epoch")?,
            disks: p.u32("disks")?,
            disk: p.u64("disk")?,
        },
        TAG_BATCH_LOCATED => {
            let epoch = p.u64("epoch")?;
            let disks = p.u32("disks")?;
            let n = p.count(8, "locations.len")?;
            let mut locations = Vec::with_capacity(n);
            for _ in 0..n {
                locations.push(p.u64("locations[]")?);
            }
            Frame::BatchLocated {
                epoch,
                disks,
                locations,
            }
        }
        TAG_SCALED => Frame::Scaled {
            epoch: p.u64("epoch")?,
            disks: p.u32("disks")?,
            queued: p.u64("queued")?,
        },
        TAG_TICKED => Frame::Ticked {
            rounds: p.u32("rounds")?,
            backlog: p.u64("backlog")?,
        },
        TAG_HEALTH_STATUS => {
            let verdict = p.u8("verdict")?;
            if verdict > 2 {
                return Err(FrameError::Malformed {
                    frame: name,
                    detail: format!("verdict {verdict} out of range"),
                });
            }
            Frame::HealthStatus {
                verdict,
                alerts: p.u64("alerts")?,
                report: p.string("report")?,
            }
        }
        TAG_PONG => Frame::Pong {
            epoch: p.u64("epoch")?,
        },
        TAG_MAP_UPDATE => {
            let version = p.u64("version")?;
            // Each entry is at least id (4B) + addr length prefix (4B):
            // a hostile shard count is rejected before any allocation.
            let n = p.count(8, "shards.len")?;
            let mut shards = Vec::with_capacity(n);
            let mut last_id: Option<u32> = None;
            for _ in 0..n {
                let id = p.u32("shards[].id")?;
                if last_id.is_some_and(|prev| prev >= id) {
                    return Err(FrameError::Malformed {
                        frame: name,
                        detail: format!("shard ids not strictly ascending at {id}"),
                    });
                }
                last_id = Some(id);
                shards.push((id, p.string("shards[].addr")?));
            }
            Frame::MapUpdate { version, shards }
        }
        TAG_WRONG_SHARD => Frame::WrongShard {
            map_version: p.u64("map_version")?,
            owner: p.u32("owner")?,
        },
        TAG_STALE_MAP => Frame::StaleMap {
            map_version: p.u64("map_version")?,
        },
        TAG_STATS_REPLY => {
            let epoch = p.u64("epoch")?;
            let verdict = p.u8("verdict")?;
            if verdict > 2 {
                return Err(FrameError::Malformed {
                    frame: name,
                    detail: format!("verdict {verdict} out of range"),
                });
            }
            Frame::StatsReply {
                epoch,
                verdict,
                snapshot: get_snapshot(&mut p)?,
            }
        }
        TAG_PROFILE_REPLY => {
            let at_ns = p.u64("at_ns")?;
            let rounds = p.u64("rounds")?;
            // Each thread is at least a name length prefix (4B), its
            // samples (8B), and a counts length prefix (4B).
            let n = p.count(16, "threads.len")?;
            let mut threads = Vec::with_capacity(n);
            for _ in 0..n {
                let thread_name = p.string("threads[].name")?;
                let samples = p.u64("threads[].samples")?;
                let states = p.count(8, "threads[].counts.len")?;
                if states > MAX_PROFILE_STATES {
                    return Err(FrameError::Malformed {
                        frame: name,
                        detail: format!(
                            "profile thread claims {states} states (max {MAX_PROFILE_STATES})"
                        ),
                    });
                }
                let mut counts = Vec::with_capacity(states);
                for _ in 0..states {
                    counts.push(p.u64("threads[].counts[]")?);
                }
                threads.push(ThreadProfile {
                    name: thread_name,
                    samples,
                    counts,
                });
            }
            Frame::ProfileReply {
                profile: ProfileSnapshot {
                    at_ns,
                    rounds,
                    threads,
                },
            }
        }
        TAG_COMPACT_STATUS => {
            let active = p.u8("active")?;
            if active > 1 {
                return Err(FrameError::Malformed {
                    frame: name,
                    detail: format!("active flag {active} out of range"),
                });
            }
            Frame::CompactStatus {
                active,
                generation: p.u64("generation")?,
                target_generation: p.u64("target_generation")?,
                migrated: p.u64("migrated")?,
                total: p.u64("total")?,
                backlog: p.u64("backlog")?,
            }
        }
        TAG_ERROR => {
            let code_byte = p.u8("code")?;
            let code = ErrorCode::from_u8(code_byte).ok_or_else(|| FrameError::Malformed {
                frame: name,
                detail: format!("unknown error code {code_byte}"),
            })?;
            Frame::Error {
                code,
                message: p.string("message")?,
            }
        }
        _ => unreachable!("tag validated above"),
    };
    Ok((frame, p.pos))
}

/// Decodes one [`RegistrySnapshot`] (see [`put_snapshot`] for the
/// layout). Hostile counts are bounded before allocation via the
/// minimum on-wire size of each element, bucket indices must be in
/// range and strictly ascending (the canonical form `put_snapshot`
/// emits — so encode∘decode is byte-identical), and everything else is
/// a typed [`FrameError`].
fn get_snapshot(p: &mut Payload) -> Result<RegistrySnapshot, FrameError> {
    // Counter/gauge: two string length prefixes (4+4) + value (8).
    let n = p.count(16, "counters.len")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(CounterSample {
            name: p.string("counters[].name")?,
            help: p.string("counters[].help")?,
            value: p.u64("counters[].value")?,
        });
    }
    let n = p.count(16, "gauges.len")?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push(GaugeSample {
            name: p.string("gauges[].name")?,
            help: p.string("gauges[].help")?,
            value: p.u64("gauges[].value")? as i64,
        });
    }
    // Histogram: prefixes (4+4) + count/sum/max (24) + pair count (4).
    let n = p.count(36, "histograms.len")?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = p.string("histograms[].name")?;
        let help = p.string("histograms[].help")?;
        let mut snapshot = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: p.u64("histograms[].count")?,
            sum: p.u64("histograms[].sum")?,
            max: p.u64("histograms[].max")?,
        };
        let pairs = p.count(12, "histograms[].buckets.len")?;
        let mut last: Option<u32> = None;
        for _ in 0..pairs {
            let index = p.u32("histograms[].buckets[].index")?;
            if index as usize >= HISTOGRAM_BUCKETS {
                return Err(FrameError::Malformed {
                    frame: p.frame,
                    detail: format!("histogram bucket index {index} out of range"),
                });
            }
            if last.is_some_and(|prev| prev >= index) {
                return Err(FrameError::Malformed {
                    frame: p.frame,
                    detail: format!("histogram bucket indices not strictly ascending at {index}"),
                });
            }
            last = Some(index);
            let count = p.u64("histograms[].buckets[].count")?;
            if count == 0 {
                return Err(FrameError::Malformed {
                    frame: p.frame,
                    detail: format!("histogram bucket {index} encoded with zero count"),
                });
            }
            snapshot.buckets[index as usize] = count;
        }
        histograms.push(HistogramSample {
            name,
            help,
            snapshot,
        });
    }
    Ok(RegistrySnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A representative registry snapshot: counters, a negative gauge,
    /// and a histogram spanning several octaves.
    pub(crate) fn sample_snapshot() -> RegistrySnapshot {
        let registry = scaddar_obs::Registry::new();
        registry
            .counter("net_requests_total", "requests accepted")
            .add(41);
        registry
            .gauge("net_active_connections", "open connections")
            .set(-3);
        let hist = registry.histogram("net_locate_ns", "locate latency");
        for v in [90, 450, 90_000, 2_000_000] {
            hist.record(v);
        }
        registry.snapshot()
    }

    /// A representative profiler snapshot: two workers plus an offload
    /// thread, residency spread over several states.
    pub(crate) fn sample_profile() -> ProfileSnapshot {
        ProfileSnapshot {
            at_ns: 1_234_567,
            rounds: 1_000,
            threads: vec![
                ThreadProfile {
                    name: "scaddard-op".to_string(),
                    samples: 400,
                    counts: vec![300, 0, 0, 0, 0, 0, 0, 100],
                },
                ThreadProfile {
                    name: "scaddard-worker-0".to_string(),
                    samples: 1_000,
                    counts: vec![10, 700, 90, 40, 100, 20, 40, 0],
                },
                ThreadProfile {
                    name: "scaddard-worker-1".to_string(),
                    samples: 1_000,
                    counts: vec![0, 900, 50, 10, 30, 5, 5, 0],
                },
            ],
        }
    }

    /// One exemplar of every frame type (shared with the corruption
    /// sweep in `tests/wire_corruption.rs`).
    pub(crate) fn exemplars() -> Vec<Frame> {
        vec![
            Frame::Locate {
                object: 7,
                block: 31_337,
            },
            Frame::LocateBatch {
                object: 1,
                blocks: vec![0, 5, 999, u64::MAX],
            },
            Frame::Scale {
                op: ScalingOp::Add { count: 2 },
            },
            Frame::Scale {
                op: ScalingOp::Remove {
                    disks: vec![0, 3, 7],
                },
            },
            Frame::Tick { rounds: 4 },
            Frame::Health,
            Frame::Ping,
            Frame::FetchMap { have_version: 3 },
            Frame::ScrapeStats,
            Frame::ProfileDump,
            Frame::Compact,
            Frame::MapUpdate {
                version: 4,
                shards: vec![
                    (0, "127.0.0.1:9000".to_string()),
                    (1, "127.0.0.1:9001".to_string()),
                    (5, "127.0.0.1:9005".to_string()),
                ],
            },
            Frame::WrongShard {
                map_version: 4,
                owner: 2,
            },
            Frame::StaleMap { map_version: 9 },
            Frame::Located {
                epoch: 3,
                disks: 8,
                disk: 5,
            },
            Frame::BatchLocated {
                epoch: 2,
                disks: 6,
                locations: vec![0, 1, 5],
            },
            Frame::Scaled {
                epoch: 4,
                disks: 9,
                queued: 12_345,
            },
            Frame::Ticked {
                rounds: 3,
                backlog: 17,
            },
            Frame::HealthStatus {
                verdict: 1,
                alerts: 2,
                report: "health: WARN (2 alerts emitted)\n".to_string(),
            },
            Frame::Pong { epoch: 11 },
            Frame::StatsReply {
                epoch: 6,
                verdict: 1,
                snapshot: sample_snapshot(),
            },
            Frame::StatsReply {
                epoch: 0,
                verdict: 0,
                snapshot: RegistrySnapshot::default(),
            },
            Frame::ProfileReply {
                profile: sample_profile(),
            },
            Frame::ProfileReply {
                profile: ProfileSnapshot {
                    at_ns: 0,
                    rounds: 0,
                    threads: Vec::new(),
                },
            },
            Frame::CompactStatus {
                active: 1,
                generation: 2,
                target_generation: 3,
                migrated: 4_120,
                total: 10_000,
                backlog: 5_880,
            },
            Frame::CompactStatus {
                active: 0,
                generation: 3,
                target_generation: 3,
                migrated: 0,
                total: 0,
                backlog: 0,
            },
            Frame::Error {
                code: ErrorCode::Busy,
                message: "128 connections".to_string(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in exemplars() {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = decode_frame(&bytes).expect("round trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn frames_concatenate_and_decode_in_sequence() {
        let frames = exemplars();
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf);
        }
        let mut offset = 0;
        for expect in &frames {
            let (got, used) = decode_frame(&buf[offset..]).expect("stream decode");
            assert_eq!(&got, expect);
            offset += used;
        }
        assert_eq!(offset, buf.len());
        // The length-prefix walk counts what the decoder would decode.
        let n = frames.len();
        assert_eq!(complete_frames(&buf, usize::MAX), n);
        assert_eq!(complete_frames(&buf[..buf.len() - 1], usize::MAX), n - 1);
        assert_eq!(complete_frames(&buf, 2), 2);
    }

    #[test]
    fn incomplete_prefix_reports_needed_bytes() {
        let bytes = Frame::Ping.to_bytes();
        assert_eq!(
            decode_frame(&bytes[..3]),
            Err(FrameError::Incomplete { needed: 4 })
        );
        assert_eq!(
            decode_frame(&bytes[..5]),
            Err(FrameError::Incomplete {
                needed: bytes.len()
            })
        );
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected() {
        let mut bytes = Frame::Ping.to_bytes();
        bytes[..4].copy_from_slice(&(HARD_MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { .. })
        ));
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes[..5]),
            Err(FrameError::Undersized { len: 1 })
        );
        // A configured cap below the frame length also rejects.
        let big = Frame::LocateBatch {
            object: 0,
            blocks: vec![0; 100],
        }
        .to_bytes();
        assert!(matches!(
            decode_frame_limited(&big, 64),
            Err(FrameError::Oversized { max: 64, .. })
        ));
    }

    #[test]
    fn version_skew_and_unknown_tags_are_typed_errors() {
        let mut bytes = Frame::Ping.to_bytes();
        bytes[4] = 9;
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::VersionMismatch { got: 9 })
        );
        // 0x06/0x86 are the retired text-stats request/response tags.
        for tag in [0x60, 0x06, 0x86] {
            let mut bytes = Frame::Ping.to_bytes();
            bytes[5] = tag;
            assert_eq!(decode_frame(&bytes), Err(FrameError::UnknownTag { tag }));
        }
    }

    #[test]
    fn hostile_counts_cannot_balloon_memory() {
        // A LocateBatch claiming u32::MAX blocks in a 12-byte payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&[0, 0, 0, 0]);
        buf.push(PROTOCOL_VERSION);
        buf.push(TAG_LOCATE_BATCH);
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&buf),
            Err(FrameError::Malformed {
                frame: "LocateBatch",
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::Tick { rounds: 1 }.to_bytes();
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::TrailingBytes {
                frame: "Tick",
                extra: 1
            })
        );
    }

    #[test]
    fn request_response_direction_bit() {
        for f in exemplars() {
            assert_eq!(f.is_request(), f.tag() & 0x80 == 0, "{f:?}");
        }
        assert!(Frame::Locate {
            object: 0,
            block: 0
        }
        .is_request());
        assert!(!Frame::Pong { epoch: 0 }.is_request());
    }

    #[test]
    fn stats_reply_snapshot_round_trips_byte_identically() {
        let frame = Frame::StatsReply {
            epoch: 9,
            verdict: 2,
            snapshot: sample_snapshot(),
        };
        let bytes = frame.to_bytes();
        let (decoded, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        // Canonical encoding: re-encoding the decoded frame reproduces
        // the original bytes exactly (the federation-agreement
        // invariant leans on this).
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded, frame);
    }

    #[test]
    fn hostile_snapshots_are_typed_errors() {
        let malformed = |bytes: &[u8]| {
            assert!(
                matches!(
                    decode_frame(bytes),
                    Err(FrameError::Malformed {
                        frame: "StatsReply",
                        ..
                    })
                ),
                "expected Malformed, got {:?}",
                decode_frame(bytes)
            );
        };
        let reply = |tail: &[u8]| {
            let mut buf = vec![0, 0, 0, 0, PROTOCOL_VERSION, TAG_STATS_REPLY];
            buf.extend_from_slice(&1u64.to_le_bytes()); // epoch
            buf.push(0); // verdict
            buf.extend_from_slice(tail);
            let len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&len.to_le_bytes());
            buf
        };
        // A hostile counter count cannot balloon memory.
        malformed(&reply(&u32::MAX.to_le_bytes()));
        // Bucket index out of range.
        let mut tail = Vec::new();
        put_u32(&mut tail, 0); // counters
        put_u32(&mut tail, 0); // gauges
        put_u32(&mut tail, 1); // one histogram
        put_str(&mut tail, "h");
        put_str(&mut tail, "help");
        put_u64(&mut tail, 1); // count
        put_u64(&mut tail, 5); // sum
        put_u64(&mut tail, 5); // max
        put_u32(&mut tail, 1); // one bucket pair
        put_u32(&mut tail, HISTOGRAM_BUCKETS as u32); // first invalid index
        put_u64(&mut tail, 1);
        malformed(&reply(&tail));
        // Non-ascending bucket indices.
        let pair_count_at = tail.len() - 16;
        tail[pair_count_at..pair_count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        let idx_at = tail.len() - 12;
        tail[idx_at..idx_at + 4].copy_from_slice(&3u32.to_le_bytes());
        put_u32(&mut tail, 3);
        put_u64(&mut tail, 1);
        malformed(&reply(&tail));
        // Zero-count bucket pairs are non-canonical.
        let mut tail = Vec::new();
        put_u32(&mut tail, 0);
        put_u32(&mut tail, 0);
        put_u32(&mut tail, 1);
        put_str(&mut tail, "h");
        put_str(&mut tail, "help");
        put_u64(&mut tail, 0);
        put_u64(&mut tail, 0);
        put_u64(&mut tail, 0);
        put_u32(&mut tail, 1);
        put_u32(&mut tail, 4);
        put_u64(&mut tail, 0);
        malformed(&reply(&tail));
        // An out-of-range health verdict.
        let mut buf = vec![0, 0, 0, 0, PROTOCOL_VERSION, TAG_STATS_REPLY];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(3);
        for _ in 0..3 {
            put_u32(&mut buf, 0);
        }
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        malformed(&buf);
    }

    #[test]
    fn profile_reply_round_trips_byte_identically() {
        let frame = Frame::ProfileReply {
            profile: sample_profile(),
        };
        let bytes = frame.to_bytes();
        let (decoded, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        // Canonical: re-encoding reproduces the exact bytes, so the
        // harness can assert byte-identical dumps per seed.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded, frame);
    }

    #[test]
    fn hostile_profile_replies_are_typed_errors() {
        let reply = |tail: &[u8]| {
            let mut buf = vec![0, 0, 0, 0, PROTOCOL_VERSION, TAG_PROFILE_REPLY];
            buf.extend_from_slice(&9u64.to_le_bytes()); // at_ns
            buf.extend_from_slice(&5u64.to_le_bytes()); // rounds
            buf.extend_from_slice(tail);
            let len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&len.to_le_bytes());
            buf
        };
        let malformed = |bytes: &[u8]| {
            assert!(
                matches!(
                    decode_frame(bytes),
                    Err(FrameError::Malformed {
                        frame: "ProfileReply",
                        ..
                    })
                ),
                "expected Malformed, got {:?}",
                decode_frame(bytes)
            );
        };
        // A hostile thread count cannot balloon memory.
        malformed(&reply(&u32::MAX.to_le_bytes()));
        // A per-thread state count past the protocol ceiling.
        let mut tail = Vec::new();
        put_u32(&mut tail, 1); // one thread
        put_str(&mut tail, "w");
        put_u64(&mut tail, 0); // samples
        put_u32(&mut tail, (MAX_PROFILE_STATES + 1) as u32);
        for _ in 0..MAX_PROFILE_STATES + 1 {
            put_u64(&mut tail, 0);
        }
        malformed(&reply(&tail));
        // A state count lying about the remaining payload.
        let mut tail = Vec::new();
        put_u32(&mut tail, 1);
        put_str(&mut tail, "w");
        put_u64(&mut tail, 3);
        put_u32(&mut tail, 8); // claims 8 counts, provides none
        malformed(&reply(&tail));
        // Truncation inside a thread name is a typed error too.
        let mut tail = Vec::new();
        put_u32(&mut tail, 1);
        put_u32(&mut tail, 40); // name length past the payload end
        malformed(&reply(&tail));
    }

    fn ctx() -> TraceContext {
        TraceContext::root(0xFEED_FACE, 7)
    }

    #[test]
    fn traced_requests_round_trip_the_context() {
        let frame = Frame::Locate {
            object: 3,
            block: 99,
        };
        let bytes = frame.to_bytes_traced(&ctx());
        let (decoded, got, used) =
            decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN).expect("traced decode");
        assert_eq!(decoded, frame);
        assert_eq!(got, Some(ctx()));
        assert_eq!(used, bytes.len());
        // The un-traced decoders tolerate (and discard) the trailer,
        // so an old server keeps serving a tracing client.
        assert_eq!(decode_frame(&bytes), Ok((frame, bytes.len())));
    }

    #[test]
    fn every_request_exemplar_carries_a_trailer() {
        for frame in exemplars().into_iter().filter(Frame::is_request) {
            let bytes = frame.to_bytes_traced(&ctx());
            let (decoded, got, _) =
                decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN).expect("traced decode");
            assert_eq!(decoded, frame);
            assert_eq!(got, Some(ctx()), "{frame:?}");
        }
    }

    #[test]
    fn untraced_frames_decode_with_no_context() {
        for frame in exemplars() {
            let bytes = frame.to_bytes();
            let (_, got, _) = decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN).expect("decode");
            assert_eq!(got, None);
        }
    }

    #[test]
    fn unknown_trailer_versions_are_skipped_not_rejected() {
        // A v2 trailer from some future client: structurally sound
        // (version, len, len bytes), so the frame still decodes — with
        // no context, because we cannot interpret it.
        let mut bytes = Frame::Ping.to_bytes();
        bytes.push(TRACE_TRAILER_VERSION + 1);
        bytes.push(3);
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let (frame, got, _) =
            decode_frame_traced(&bytes, HARD_MAX_FRAME_LEN).expect("skip unknown version");
        assert_eq!(frame, Frame::Ping);
        assert_eq!(got, None);
    }

    #[test]
    fn trailer_truncation_at_every_boundary_is_rejected() {
        let frame = Frame::Tick { rounds: 2 };
        let full = frame.to_bytes_traced(&ctx());
        let plain = frame.to_bytes().len();
        // Cutting at `plain` exactly removes the whole trailer (legal);
        // every partial trailer in between must be a typed error.
        for cut in plain + 1..full.len() {
            let mut bytes = full[..cut].to_vec();
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_le_bytes());
            let result = decode_frame(&bytes);
            assert!(
                matches!(
                    result,
                    Err(FrameError::TrailingBytes { .. } | FrameError::Malformed { .. })
                ),
                "cut at {cut}: {result:?}"
            );
        }
    }

    #[test]
    fn hostile_trailer_lengths_are_typed_errors() {
        // Version byte right, length byte lying about the remainder.
        let mut bytes = Frame::Ping.to_bytes();
        bytes.push(TRACE_TRAILER_VERSION);
        bytes.push(200);
        bytes.extend_from_slice(&[0; 17]);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::TrailingBytes { frame: "Ping", .. })
        ));
        // Consistent length that is wrong for v1: malformed, since we
        // do understand version 1 and it must be 17 bytes.
        let mut bytes = Frame::Ping.to_bytes();
        bytes.push(TRACE_TRAILER_VERSION);
        bytes.push(3);
        bytes.extend_from_slice(&[1, 2, 3]);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Malformed { frame: "Ping", .. })
        ));
        // A v1 trailer claiming trace id 0 (the "untraced" sentinel).
        let mut bytes = Frame::Ping.to_bytes();
        bytes.push(TRACE_TRAILER_VERSION);
        bytes.push(TRACE_TRAILER_V1_LEN);
        bytes.extend_from_slice(&[0; 17]);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Malformed { frame: "Ping", .. })
        ));
    }

    #[test]
    fn responses_never_carry_trailers() {
        // A trailer-shaped suffix on a *response* frame is plain
        // trailing garbage: tracing context only flows client → server.
        let mut bytes = Frame::Pong { epoch: 1 }.to_bytes();
        bytes.push(TRACE_TRAILER_VERSION);
        bytes.push(TRACE_TRAILER_V1_LEN);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.push(1);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::TrailingBytes {
                frame: "Pong",
                extra: 19
            })
        );
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Engine,
            ErrorCode::Busy,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::Protocol,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
            assert!(!code.label().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(200), None);
    }
}
