//! The `scaddard` client: pooled connections, pipelining, and
//! deadline-aware retry.
//!
//! A [`NetClient`] owns a small pool of TCP connections to one server.
//! Each request checks a connection out, uses it, and returns it on
//! success; failed connections are dropped, never pooled. A pooled
//! connection that has sat idle past
//! [`idle_probe_after`](ClientConfig::idle_probe_after) is
//! **keepalive-probed** (one `Ping`/`Pong` round-trip) at checkout;
//! probe failures silently discard the stale connection and fall
//! through to the next pooled one or a fresh dial — so even
//! *non-retryable* mutations never land on a connection the server
//! already closed. Retry policy:
//!
//! * **Read-only requests** (`Locate`, `LocateBatch`, `Health`,
//!   `ScrapeStats`, `Ping`) are idempotent and retry on any I/O failure on a
//!   *fresh* connection, as long as the request deadline has not
//!   passed — the classic stale-pooled-connection recovery.
//! * **Mutating requests** (`Scale`, `Tick`) retry only when the
//!   failure happened before any request byte was written (a dead
//!   pooled connection detected at write time, or a connect failure).
//!   Once bytes are on the wire the server may have committed, so the
//!   error surfaces to the caller instead of risking a double-apply.
//!
//! [`NetClient::pipeline`] writes a whole slice of requests in one
//! buffer and then reads the responses back in order — the throughput
//! path the load generator uses. Pipelines are never retried.

use crate::wire::{decode_frame, Frame, FrameError};
use scaddar_core::ScalingOp;
use scaddar_obs::{ProfileSnapshot, RegistrySnapshot, TraceContext};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// TCP connect deadline (capped by what is left of the request's).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs for [`NetClient`]. Responses are accepted up to the
/// decoder's hard frame ceiling ([`decode_frame`]).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// End-to-end deadline per request (write + read, all retries).
    pub request_timeout: Duration,
    /// Idle connections kept for reuse.
    pub max_pool: usize,
    /// Extra attempts after the first (see the module retry policy).
    pub retries: u32,
    /// Pooled connections idle for at least this long are `Ping`-probed
    /// before reuse (dead ones are discarded, not handed to requests).
    pub idle_probe_after: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: Duration::from_secs(5),
            max_pool: 4,
            retries: 2,
            idle_probe_after: Duration::from_secs(10),
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (after any permitted retries).
    Io(std::io::Error),
    /// The response failed to decode.
    Frame(FrameError),
    /// The server answered with a typed `Error` frame.
    Remote {
        /// The server's error class.
        code: crate::wire::ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The request deadline passed before a response arrived.
    DeadlineExceeded,
    /// The server answered with a well-formed frame of the wrong type.
    UnexpectedResponse {
        /// Endpoint of the frame that arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "protocol: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error [{}]: {message}", code.label())
            }
            ClientError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ClientError::UnexpectedResponse { got } => {
                write!(f, "unexpected response frame `{got}`")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One pooled connection with its partial-read buffer.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Bytes read past the last decoded frame (response pipelining).
    buf: Vec<u8>,
    /// When the connection went back into the pool (or was dialed).
    idle_since: Instant,
}

/// A pooled, pipelining client for one `scaddard` server.
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    pool: Mutex<Vec<Conn>>,
}

impl NetClient {
    /// A client for the server at `addr` with default tuning.
    pub fn connect(addr: SocketAddr) -> NetClient {
        NetClient::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit tuning.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> NetClient {
        NetClient {
            addr,
            config,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self, deadline: Instant) -> Result<Conn, ClientError> {
        loop {
            let Some(mut conn) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() else {
                break;
            };
            let needs_probe = conn.idle_since.elapsed() >= self.config.idle_probe_after;
            if !needs_probe || self.probe(&mut conn, deadline) {
                return Ok(conn);
            }
            // Stale pooled connection: drop it and try the next.
        }
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(ClientError::DeadlineExceeded)?;
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT.min(remaining))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            buf: Vec::new(),
            idle_since: Instant::now(),
        })
    }

    /// Keepalive probe: one `Ping` round-trip. `false` means the
    /// connection is dead (server closed it, half-open, or desynced)
    /// and must be discarded.
    fn probe(&self, conn: &mut Conn, deadline: Instant) -> bool {
        conn.buf.is_empty()
            && conn.stream.write_all(&Frame::Ping.to_bytes()).is_ok()
            && matches!(self.read_frame(conn, deadline), Ok(Frame::Pong { .. }))
    }

    fn checkin(&self, mut conn: Conn) {
        conn.idle_since = Instant::now();
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.config.max_pool {
            pool.push(conn);
        }
    }

    /// Reads one frame from `conn`, respecting `deadline`.
    fn read_frame(&self, conn: &mut Conn, deadline: Instant) -> Result<Frame, ClientError> {
        let mut chunk = [0u8; 4096];
        loop {
            match decode_frame(&conn.buf) {
                Ok((frame, used)) => {
                    conn.buf.drain(..used);
                    return Ok(frame);
                }
                Err(FrameError::Incomplete { .. }) => {}
                Err(e) => return Err(e.into()),
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(ClientError::DeadlineExceeded)?;
            conn.stream.set_read_timeout(Some(remaining))?;
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(ClientError::DeadlineExceeded)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Sends one request and returns the server's response frame
    /// (`Error` frames surface as [`ClientError::Remote`]).
    pub fn request(&self, request: &Frame) -> Result<Frame, ClientError> {
        self.request_traced(request, None)
    }

    /// [`request`](Self::request) carrying a distributed-trace context
    /// in the frame's trailer, so the server can continue the trace in
    /// its own flight recorder. Retries re-send the same context (same
    /// logical hop, so the same span identity).
    pub fn request_traced(
        &self,
        request: &Frame,
        ctx: Option<&TraceContext>,
    ) -> Result<Frame, ClientError> {
        let deadline = Instant::now() + self.config.request_timeout;
        // Mutations may only be retried while nothing has hit the wire.
        let idempotent = !matches!(request, Frame::Scale { .. } | Frame::Tick { .. });
        let bytes = match ctx {
            Some(ctx) => request.to_bytes_traced(ctx),
            None => request.to_bytes(),
        };
        let mut last_err: Option<ClientError> = None;
        for _attempt in 0..=self.config.retries {
            if Instant::now() >= deadline {
                return Err(last_err.unwrap_or(ClientError::DeadlineExceeded));
            }
            let mut conn = match self.checkout(deadline) {
                Ok(conn) => conn,
                Err(e @ ClientError::DeadlineExceeded) => {
                    return Err(last_err.unwrap_or(e));
                }
                Err(e) => {
                    // Connect failures are always retryable.
                    last_err = Some(e);
                    continue;
                }
            };
            // A pooled connection must not answer before we ask; stale
            // bytes would desync request/response pairing.
            if !conn.buf.is_empty() {
                last_err = Some(ClientError::Frame(FrameError::TrailingBytes {
                    frame: "pool",
                    extra: conn.buf.len(),
                }));
                continue; // drop the poisoned connection
            }
            if let Err(e) = conn.stream.write_all(&bytes) {
                // Write failed: a stale pooled connection. The server
                // may or may not have seen bytes; only idempotent
                // requests (or an instantly-failed write on a fresh
                // dial) retry.
                last_err = Some(ClientError::Io(e));
                if idempotent {
                    continue;
                }
                return Err(last_err.expect("just set"));
            }
            match self.read_frame(&mut conn, deadline) {
                Ok(Frame::Error { code, message }) => {
                    self.checkin(conn);
                    return Err(ClientError::Remote { code, message });
                }
                Ok(frame) => {
                    self.checkin(conn);
                    return Ok(frame);
                }
                Err(ClientError::DeadlineExceeded) => {
                    return Err(ClientError::DeadlineExceeded);
                }
                Err(e) => {
                    last_err = Some(e);
                    if idempotent {
                        continue;
                    }
                    return Err(last_err.expect("just set"));
                }
            }
        }
        Err(last_err.unwrap_or(ClientError::DeadlineExceeded))
    }

    /// Writes every request in one buffer on one connection, then reads
    /// the responses back in order. `Error` frames come back in-band
    /// (position preserved) rather than aborting the pipeline.
    /// Pipelines are never retried: on an I/O error partway, the caller
    /// cannot know which requests executed.
    pub fn pipeline(&self, requests: &[Frame]) -> Result<Vec<Frame>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + self.config.request_timeout;
        let mut conn = self.checkout(deadline)?;
        if !conn.buf.is_empty() {
            return Err(ClientError::Frame(FrameError::TrailingBytes {
                frame: "pool",
                extra: conn.buf.len(),
            }));
        }
        let mut buf = Vec::with_capacity(requests.len() * 32);
        for r in requests {
            r.encode(&mut buf);
        }
        conn.stream.write_all(&buf)?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            responses.push(self.read_frame(&mut conn, deadline)?);
        }
        self.checkin(conn);
        Ok(responses)
    }

    // ---- typed convenience wrappers ----

    fn unexpected(frame: Frame) -> ClientError {
        ClientError::UnexpectedResponse {
            got: frame.endpoint(),
        }
    }

    /// Locates one block: `(epoch, disks, disk)`.
    pub fn locate(&self, object: u64, block: u64) -> Result<(u64, u32, u64), ClientError> {
        match self.request(&Frame::Locate { object, block })? {
            Frame::Located { epoch, disks, disk } => Ok((epoch, disks, disk)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Locates a batch under one epoch: `(epoch, disks, locations)`.
    pub fn locate_batch(
        &self,
        object: u64,
        blocks: &[u64],
    ) -> Result<(u64, u32, Vec<u64>), ClientError> {
        match self.request(&Frame::LocateBatch {
            object,
            blocks: blocks.to_vec(),
        })? {
            Frame::BatchLocated {
                epoch,
                disks,
                locations,
            } => Ok((epoch, disks, locations)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Commits a scaling operation: `(epoch, disks, queued_moves)`.
    pub fn scale(&self, op: ScalingOp) -> Result<(u64, u32, u64), ClientError> {
        match self.request(&Frame::Scale { op })? {
            Frame::Scaled {
                epoch,
                disks,
                queued,
            } => Ok((epoch, disks, queued)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Advances service rounds: returns the remaining backlog.
    pub fn tick(&self, rounds: u32) -> Result<u64, ClientError> {
        match self.request(&Frame::Tick { rounds })? {
            Frame::Ticked { backlog, .. } => Ok(backlog),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetches the health report: `(verdict 0|1|2, alerts, rendered)`.
    pub fn health(&self) -> Result<(u8, u64, String), ClientError> {
        match self.request(&Frame::Health)? {
            Frame::HealthStatus {
                verdict,
                alerts,
                report,
            } => Ok((verdict, alerts, report)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Liveness probe: returns the server's current epoch.
    pub fn ping(&self) -> Result<u64, ClientError> {
        match self.request(&Frame::Ping)? {
            Frame::Pong { epoch } => Ok(epoch),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Scrapes the server's structured metrics snapshot for
    /// federation: `(epoch, health verdict 0|1|2, snapshot)`.
    pub fn scrape_stats(&self) -> Result<(u64, u8, RegistrySnapshot), ClientError> {
        match self.request(&Frame::ScrapeStats)? {
            Frame::StatsReply {
                epoch,
                verdict,
                snapshot,
            } => Ok((epoch, verdict, snapshot)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetches the daemon's cumulative profiler snapshot. Two dumps
    /// N seconds apart diffed with [`ProfileSnapshot::since`] give an
    /// interval profile without any server-side blocking.
    pub fn profile_dump(&self) -> Result<ProfileSnapshot, ClientError> {
        match self.request(&Frame::ProfileDump)? {
            Frame::ProfileReply { profile } => Ok(profile),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Begins an online rehash compaction (or joins the one already in
    /// flight) and returns the server's compaction status. The server
    /// answers an error when it must refuse — redistribution still
    /// draining, or failed disks present.
    pub fn compact(&self) -> Result<CompactionStatus, ClientError> {
        match self.request(&Frame::Compact)? {
            Frame::CompactStatus {
                active,
                generation,
                target_generation,
                migrated,
                total,
                backlog,
            } => Ok(CompactionStatus {
                active: active == 1,
                generation,
                target_generation,
                migrated,
                total,
                backlog,
            }),
            other => Err(Self::unexpected(other)),
        }
    }
}

/// A shard's compaction state as answered by [`NetClient::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStatus {
    /// True while a compaction migration is in flight.
    pub active: bool,
    /// The serving generation (the one being retired when active).
    pub generation: u64,
    /// The generation being migrated to (== `generation` when idle).
    pub target_generation: u64,
    /// Blocks already at their new-generation placement.
    pub migrated: u64,
    /// Blocks the compaction must account for.
    pub total: u64,
    /// Migration moves still queued in the executor.
    pub backlog: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServerConfig, Scaddard};
    use cmsim::{CmServer, ServerConfig, SharedServer};
    use scaddar_obs::{MonotonicClock, Registry, Tracer};
    use std::sync::Arc;

    fn boot() -> (Scaddard, NetClient) {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .unwrap();
        let client = NetClient::connect(daemon.local_addr());
        (daemon, client)
    }

    #[test]
    fn profile_dump_diffs_into_interval_profiles() {
        let (daemon, client) = boot();
        for block in 0..100 {
            client.locate(0, block).unwrap();
        }
        let first = client.profile_dump().unwrap();
        assert!(first.threads.iter().all(|t| t.conserves()));
        for block in 100..200 {
            client.locate(0, block).unwrap();
        }
        let second = client.profile_dump().unwrap();
        let interval = second.since(&first);
        assert_eq!(interval.rounds, second.rounds - first.rounds);
        assert!(interval.threads.iter().all(|t| t.conserves()));
        // Cumulative dumps never run backwards.
        assert!(second.rounds >= first.rounds);
        daemon.shutdown();
    }

    #[test]
    fn typed_wrappers_round_trip() {
        let (daemon, client) = boot();
        assert_eq!(client.ping().unwrap(), 0);
        let (epoch, disks, disk) = client.locate(0, 42).unwrap();
        assert_eq!((epoch, disks), (0, 4));
        assert!(disk < 4);
        let (epoch, disks, queued) = client.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert_eq!((epoch, disks), (1, 5));
        assert!(queued > 0);
        assert_eq!(client.tick(10_000).unwrap(), 0);
        let (verdict, _alerts, report) = client.health().unwrap();
        assert_eq!(verdict, 0, "{report}");
        let (_, _, snapshot) = client.scrape_stats().unwrap();
        assert!(snapshot
            .counter_value("net_server_requests_total{endpoint=\"health\"}")
            .is_some_and(|n| n >= 1));
        daemon.shutdown();
    }

    #[test]
    fn compact_drives_a_generation_flip_over_the_wire() {
        let (daemon, client) = boot();
        let status = client.compact().unwrap();
        assert!(status.active);
        assert_eq!(status.generation, 0);
        assert_eq!(status.target_generation, 1);
        assert!(status.backlog > 0);
        let mut rounds = 0;
        while client.tick(8).unwrap() > 0 {
            // Lookups keep answering mid-cutover.
            let (_, _, disk) = client.locate(0, 42).unwrap();
            assert!(disk < 4);
            rounds += 1;
            assert!(rounds < 10_000, "migration never drains");
        }
        // A second `compact` starting from generation 1 is the proof
        // the first one flipped.
        let next = client.compact().unwrap();
        assert!(next.active);
        assert_eq!(next.generation, 1);
        assert_eq!(next.target_generation, 2);
        daemon.shutdown();
    }

    #[test]
    fn compact_refuses_while_redistribution_drains() {
        let (daemon, client) = boot();
        let (_, _, queued) = client.scale(ScalingOp::Add { count: 1 }).unwrap();
        assert!(queued > 0);
        let err = client.compact().unwrap_err();
        assert!(
            matches!(
                &err,
                ClientError::Remote {
                    code: crate::wire::ErrorCode::Engine,
                    ..
                }
            ),
            "{err}"
        );
        daemon.shutdown();
    }

    #[test]
    fn remote_engine_errors_surface_typed() {
        let (daemon, client) = boot();
        let err = client.locate(404, 0).unwrap_err();
        assert!(
            matches!(
                &err,
                ClientError::Remote {
                    code: crate::wire::ErrorCode::Engine,
                    ..
                }
            ),
            "{err}"
        );
        // The connection survives an in-band error and is reused.
        assert_eq!(client.ping().unwrap(), 0);
        daemon.shutdown();
    }

    #[test]
    fn pipeline_preserves_order_and_interleaves_errors() {
        let (daemon, client) = boot();
        let requests = vec![
            Frame::Locate {
                object: 0,
                block: 1,
            },
            Frame::Locate {
                object: 404,
                block: 0,
            }, // engine error in-band
            Frame::Ping,
        ];
        let responses = client.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], Frame::Located { .. }));
        assert!(matches!(responses[1], Frame::Error { .. }));
        assert!(matches!(responses[2], Frame::Pong { .. }));
        assert!(client.pipeline(&[]).unwrap().is_empty());
        daemon.shutdown();
    }

    #[test]
    fn stale_pooled_connections_recover_on_idempotent_requests() {
        let (daemon, client) = boot();
        assert_eq!(client.ping().unwrap(), 0); // pools one connection
        let addr = daemon.local_addr();
        daemon.shutdown(); // kills the pooled connection server-side

        // Re-boot a fresh server on the same address.
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon2 = Scaddard::bind(
            addr,
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .expect("rebind the same port");
        // The pooled connection is dead; the idempotent request must
        // reconnect transparently.
        assert_eq!(client.ping().unwrap(), 0);
        daemon2.shutdown();
    }

    #[test]
    fn idle_probe_lets_mutations_survive_a_stale_pool() {
        // Mutations never retry once bytes hit the wire — without the
        // keepalive probe, a `scale` after a server bounce would fail
        // on the dead pooled connection. With `idle_probe_after` at
        // zero, checkout probes first and dials fresh instead.
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .unwrap();
        let addr = daemon.local_addr();
        let client = NetClient::with_config(
            addr,
            ClientConfig {
                idle_probe_after: Duration::ZERO,
                retries: 0,
                ..ClientConfig::default()
            },
        );
        assert_eq!(client.ping().unwrap(), 0); // pools one connection
        daemon.shutdown(); // kills it server-side

        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon2 = Scaddard::bind(
            addr,
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .expect("rebind the same port");
        let (epoch, disks, _) = client
            .scale(ScalingOp::Add { count: 1 })
            .expect("probe must discard the dead connection before the mutation");
        assert_eq!((epoch, disks), (1, 5));
        daemon2.shutdown();
    }

    #[test]
    fn idle_probe_keeps_live_connections_pooled() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .unwrap();
        let client = NetClient::with_config(
            daemon.local_addr(),
            ClientConfig {
                idle_probe_after: Duration::ZERO,
                ..ClientConfig::default()
            },
        );
        // Every request after the first probes the pooled connection;
        // a healthy one passes the probe and is reused, not re-dialed.
        for _ in 0..4 {
            assert_eq!(client.ping().unwrap(), 0);
        }
        let (_, _, snapshot) = client.scrape_stats().unwrap();
        // One client connection (+ this scrape may reuse it too).
        assert!(
            !snapshot.counters.is_empty(),
            "scrape-stats endpoint must answer on a probed connection"
        );
        daemon.shutdown();
    }

    #[test]
    fn scrape_stats_returns_a_structured_snapshot() {
        let (daemon, client) = boot();
        client.ping().unwrap();
        let (epoch, verdict, snapshot) = client.scrape_stats().unwrap();
        assert_eq!(epoch, 0);
        assert!(verdict <= 2);
        assert!(
            snapshot
                .counter_value("net_server_requests_total{endpoint=\"ping\"}")
                .unwrap_or(0)
                >= 1,
            "scraped snapshot missing the ping counter"
        );
        daemon.shutdown();
    }

    #[test]
    fn traced_requests_continue_the_trace_server_side() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
        server.add_object(10_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig {
                workers: 1,
                ..NetServerConfig::default()
            },
            &registry,
            tracer.clone(),
        )
        .unwrap();
        let client = NetClient::connect(daemon.local_addr());
        // Traced lookups take the coalesced path that untraced ones take,
        // so the 1-in-SAMPLE_EVERY phase sample finds them too.
        for sequence in 0..=crate::seam::SAMPLE_EVERY as u64 {
            let ctx = TraceContext::root(43, sequence);
            let response = client
                .request_traced(
                    &Frame::Locate {
                        object: 0,
                        block: sequence,
                    },
                    Some(&ctx),
                )
                .unwrap();
            assert!(matches!(response, Frame::Located { .. }));
            let spans = tracer.spans_for_trace(ctx.trace_id);
            assert_eq!(spans.len(), 1, "server recorded one continuation span");
            assert_eq!(spans[0].name, "serve.locate");
            assert_eq!(spans[0].parent_id, ctx.span_id);
            assert_eq!(spans[0].span_id, ctx.child(0).span_id);
        }
        // An unsampled context propagates ids but records no span.
        let quiet = TraceContext {
            sampled: false,
            ..TraceContext::root(42, 1)
        };
        client
            .request_traced(
                &Frame::Locate {
                    object: 0,
                    block: 2,
                },
                Some(&quiet),
            )
            .unwrap();
        assert!(tracer.spans_for_trace(quiet.trace_id).is_empty());
        daemon.shutdown();
        // The worker has stopped: every phase it closed is recorded.
        let engine_samples: u64 = crate::seam::ENGINE_DEPTH_BUCKETS
            .iter()
            .map(|depth| {
                let name = format!("net_phase_ns{{phase=\"engine\",depth=\"{depth}\"}}");
                registry.snapshot().histogram(&name).map_or(0, |h| h.count)
            })
            .sum();
        assert!(
            engine_samples >= 1,
            "a traced lookup timed its engine phase"
        );
    }

    #[test]
    fn deadline_exceeded_when_no_server_listens() {
        // Bind a listener and never accept: connects succeed (backlog)
        // but no response ever arrives.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = NetClient::with_config(
            listener.local_addr().unwrap(),
            ClientConfig {
                request_timeout: Duration::from_millis(200),
                retries: 0,
                ..ClientConfig::default()
            },
        );
        let err = client.ping().unwrap_err();
        assert!(matches!(err, ClientError::DeadlineExceeded), "{err}");
    }
}
