//! `scaddard`: the serving daemon, in either of two cores.
//!
//! [`ServerMode::EventLoop`] (the default) drives nonblocking sockets
//! from a few readiness-polled worker threads — see [`crate::reactor`].
//! [`ServerMode::Threaded`] is the PR 5 reference core kept for A/B
//! benchmarking and differential testing: one blocking accept thread,
//! one handler thread per connection. Both share a [`cmsim::SharedServer`]
//! — reads take its shared lock, `Scale`/`Tick` its exclusive lock, so
//! the epoch-consistency guarantee the in-process tests pin down holds
//! unchanged for remote clients in either mode.
//!
//! Backpressure and robustness policy:
//!
//! * **Bounded accept**: at most
//!   [`max_connections`](NetServerConfig::max_connections) handler
//!   threads; a connection over the limit receives one
//!   `Error{Busy}` frame and is closed (counted in
//!   `net_server_connections_rejected_total`).
//! * **Per-request deadlines**: once the first byte of a request
//!   arrives, the rest must arrive within
//!   [`read_timeout`](NetServerConfig::read_timeout); responses must
//!   flush within [`write_timeout`](NetServerConfig::write_timeout).
//!   Idle connections may sit forever (they poll the shutdown flag).
//! * **Accept errors**: an interrupted `accept` is retried and an
//!   aborted peer skipped; any other error (descriptor exhaustion, say)
//!   is counted in `net_server_accept_errors_total` and pauses
//!   accepting for 10 ms instead of spinning on a backlog it cannot
//!   take.
//! * **Graceful drain**: [`Scaddard::shutdown`] stops accepting, lets
//!   in-flight requests finish, and joins every handler; idle handlers
//!   notice the flag within one poll tick.
//! * **Hostile input**: an undecodable frame earns a typed
//!   `Error{Protocol}` reply (best effort) and a close — the decoder
//!   never panics, so neither does the server.

use crate::cluster::{RouteDecision, ShardRuntime};
use crate::seam::{Phase, Sample, Seam};
use crate::wire::{decode_frame_traced, ErrorCode, Frame, FrameError, FRAME_HEADER_LEN};
use cmsim::{LocateAnswer, LocateQuery, SharedServer};
use scaddar_compact::CompactionController;
use scaddar_core::ObjectId;
use scaddar_monitor::{HealthMonitor, MonitorConfig, Severity};
use scaddar_obs::{
    Counter, Gauge, Histogram, Profiler, Registry, SpanGuard, StateHandle, TraceContext, Tracer,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked reads wake to poll the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Which serving core drives accepted connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// Readiness-based event loop: a few poller-driven worker threads
    /// (epoll on Linux, poll(2) elsewhere), the first of which also
    /// accepts, with cross-connection request coalescing. The default.
    #[default]
    EventLoop,
    /// One handler thread per connection — the PR 5 reference core,
    /// kept for A/B benchmarking and differential testing.
    Threaded,
}

/// Tuning knobs for [`Scaddard`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Serving core; see [`ServerMode`].
    pub mode: ServerMode,
    /// Event-loop worker threads; `0` means one per available core.
    /// Ignored in [`ServerMode::Threaded`].
    pub workers: usize,
    /// Connection ceiling (handler threads in [`ServerMode::Threaded`],
    /// registered sockets in [`ServerMode::EventLoop`]); connections
    /// beyond it are rejected with `Error{Busy}`.
    pub max_connections: usize,
    /// Deadline for the remainder of a request once its first byte has
    /// arrived.
    pub read_timeout: Duration,
    /// Deadline for flushing a response.
    pub write_timeout: Duration,
    /// Largest accepted frame (both directions).
    pub max_frame_len: u32,
    /// When false, per-request histograms/spans and the 1-in-64 phase
    /// timing ([`crate::seam`]) are skipped — the bare baseline the
    /// `net_locate_overhead` gate ratio divides by.
    pub instrument: bool,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            mode: ServerMode::default(),
            workers: 0,
            max_connections: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame_len: 1 << 20,
            instrument: true,
        }
    }
}

impl NetServerConfig {
    /// This config with the given serving core.
    pub fn with_mode(mut self, mode: ServerMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Per-endpoint request counters/latency histograms plus the
/// connection- and byte-level counters, all registered against the
/// composition root's [`Registry`] (`net_server_*` namespace).
#[derive(Debug)]
pub struct NetStats {
    requests: BTreeMap<&'static str, Counter>,
    request_ns: BTreeMap<&'static str, Histogram>,
    /// Requests answered with an `Error` frame.
    pub errors: Counter,
    /// Frames that failed to decode (connection then closed).
    pub protocol_errors: Counter,
    /// Connections accepted into a handler thread.
    pub conns_opened: Counter,
    /// Connections turned away by the backpressure limit.
    pub conns_rejected: Counter,
    /// `accept` errors that paused accepting (descriptor or memory
    /// exhaustion).
    pub accept_errors: Counter,
    /// Handler threads exited (peer close, error, or drain).
    pub conns_closed: Counter,
    /// Live handler threads.
    pub connections: Gauge,
    /// Request bytes read off sockets.
    pub bytes_rx: Counter,
    /// Response bytes written to sockets.
    pub bytes_tx: Counter,
}

/// The endpoints with dedicated request counters/histograms.
pub const ENDPOINTS: [&str; 10] = [
    "locate",
    "locate-batch",
    "scale",
    "tick",
    "health",
    "ping",
    "fetch-map",
    "scrape-stats",
    "profile",
    "compact",
];

impl NetStats {
    /// Registers every `net_server_*` metric against `registry`.
    pub fn register(registry: &Registry) -> Arc<NetStats> {
        let mut requests = BTreeMap::new();
        let mut request_ns = BTreeMap::new();
        for ep in ENDPOINTS {
            requests.insert(
                ep,
                registry.counter(
                    &format!("net_server_requests_total{{endpoint=\"{ep}\"}}"),
                    "Requests served, by endpoint",
                ),
            );
            request_ns.insert(
                ep,
                registry.histogram(
                    &format!("net_server_request_ns{{endpoint=\"{ep}\"}}"),
                    "Server-side request handling latency, by endpoint",
                ),
            );
        }
        Arc::new(NetStats {
            requests,
            request_ns,
            errors: registry.counter(
                "net_server_errors_total",
                "Requests answered with an Error frame",
            ),
            protocol_errors: registry.counter(
                "net_server_protocol_errors_total",
                "Frames that failed to decode",
            ),
            conns_opened: registry.counter(
                "net_server_connections_opened_total",
                "Connections accepted into a handler thread",
            ),
            conns_rejected: registry.counter(
                "net_server_connections_rejected_total",
                "Connections rejected by the backpressure limit",
            ),
            accept_errors: registry.counter(
                "net_server_accept_errors_total",
                "accept errors that paused accepting",
            ),
            conns_closed: registry.counter(
                "net_server_connections_closed_total",
                "Handler threads exited",
            ),
            connections: registry.gauge("net_server_connections", "Live handler threads"),
            bytes_rx: registry.counter("net_server_bytes_rx_total", "Request bytes read"),
            bytes_tx: registry.counter("net_server_bytes_tx_total", "Response bytes written"),
        })
    }

    fn record(&self, endpoint: &str, ns: u64, instrument: bool) {
        if let Some(c) = self.requests.get(endpoint) {
            c.inc();
        }
        if instrument {
            if let Some(h) = self.request_ns.get(endpoint) {
                h.record(ns);
            }
        }
    }
}

/// Everything the serving threads share, in either mode.
pub(crate) struct Shared {
    pub(crate) server: Arc<SharedServer>,
    pub(crate) config: NetServerConfig,
    pub(crate) stats: Arc<NetStats>,
    pub(crate) tracer: Tracer,
    pub(crate) monitor: Mutex<HealthMonitor>,
    /// The generation manager: fires the engine-config auto-compaction
    /// policy on the tick path and serves manual `Compact` requests.
    pub(crate) controller: Mutex<CompactionController>,
    pub(crate) registry: Registry,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    /// Cluster-mode routing state; `None` for a standalone daemon.
    pub(crate) shard: Option<Arc<ShardRuntime>>,
    /// The always-on cooperative profiler; reactor workers and offload
    /// threads register state words against it, `ProfileDump` reads it.
    pub(crate) profiler: Arc<Profiler>,
    /// Shared state word for the offloaded ops, whichever pooled threads
    /// run them (one `scaddard-op` row; concurrent ops share it, which
    /// is the documented approximation).
    pub(crate) op_state: StateHandle,
}

/// How long accepting stops after an `accept` error that an immediate
/// retry would only repeat (descriptor or memory exhaustion). The
/// listener stays readable while a peer waits in its backlog, so
/// retrying at once would spin a core until something frees up.
pub(crate) const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// One `accept` call, after the drain and backpressure policy.
pub(crate) enum Accept {
    /// Admitted and counted open.
    Open(TcpStream),
    /// Nothing to hand on, accept again: the peer was turned away with
    /// `Error{Busy}`, the call was interrupted, or the peer aborted
    /// before it was taken.
    Again,
    /// No connection pending (nonblocking listener).
    Empty,
    /// Any other error, counted in `net_server_accept_errors_total`:
    /// stop accepting for [`ACCEPT_PAUSE`].
    Pause,
    /// The daemon is draining.
    Stop,
}

impl Shared {
    /// Takes one connection off `listener` and applies the accept
    /// policy both cores share: a peer over
    /// [`max_connections`](NetServerConfig::max_connections) or
    /// arriving during drain gets one typed `Error` frame and a close;
    /// an admitted one is counted open.
    pub(crate) fn accept(&self, listener: &TcpListener) -> Accept {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if self.shutdown.load(Ordering::SeqCst) => return Accept::Stop,
            Err(e) => {
                return match e.kind() {
                    ErrorKind::WouldBlock => Accept::Empty,
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => Accept::Again,
                    _ => {
                        self.stats.accept_errors.inc();
                        Accept::Pause
                    }
                }
            }
        };
        let (code, message) = if self.shutdown.load(Ordering::SeqCst) {
            // The threaded core's wake-up connection, or a late arrival.
            (ErrorCode::ShuttingDown, "draining".to_string())
        } else if self.active.load(Ordering::Relaxed) >= self.config.max_connections {
            self.stats.conns_rejected.inc();
            let limit = self.config.max_connections;
            (ErrorCode::Busy, format!("{limit} connections"))
        } else {
            self.active.fetch_add(1, Ordering::Relaxed);
            self.stats.conns_opened.inc();
            self.stats.connections.add(1);
            return Accept::Open(stream);
        };
        // Some platforms hand out a nonblocking listener's sockets
        // nonblocking; the rejection is a blocking write under
        // `write_timeout`.
        let _ = stream.set_nonblocking(false);
        flush(&stream, self, &Frame::Error { code, message }.to_bytes());
        if code == ErrorCode::ShuttingDown {
            Accept::Stop
        } else {
            Accept::Again
        }
    }

    /// Counts an accepted connection closed.
    pub(crate) fn release(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.stats.conns_closed.inc();
        self.stats.connections.add(-1);
    }

    /// The health monitor, fed the engine's current state and census.
    fn observed_monitor(&self) -> std::sync::MutexGuard<'_, HealthMonitor> {
        let mut monitor = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
        self.server.with_read(|s| {
            monitor.observe_engine(s.engine());
            monitor.observe_census(&s.load_census());
        });
        monitor
    }
}

/// The `scaddard` daemon: a bound listener and the core serving it.
///
/// ```no_run
/// use std::sync::Arc;
/// use cmsim::{CmServer, ServerConfig, SharedServer};
/// use scaddar_net::{NetServerConfig, Scaddard};
/// use scaddar_obs::{MonotonicClock, Registry, Tracer};
///
/// let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(7)).unwrap();
/// server.add_object(100_000).unwrap();
/// let registry = Registry::new();
/// let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
/// let daemon = Scaddard::bind(
///     "127.0.0.1:0",
///     Arc::new(SharedServer::new(server)),
///     NetServerConfig::default(),
///     &registry,
///     tracer,
/// )
/// .unwrap();
/// println!("serving on {}", daemon.local_addr());
/// daemon.shutdown();
/// ```
pub struct Scaddard {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    core: Core,
}

/// Mode-specific serving machinery behind a bound [`Scaddard`].
enum Core {
    Threaded {
        accept_handle: Option<std::thread::JoinHandle<()>>,
        conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    },
    EventLoop(crate::reactor::Reactor),
}

impl std::fmt::Debug for Scaddard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scaddard")
            .field("local_addr", &self.local_addr)
            .field("active", &self.shared.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl Scaddard {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// starts the serving core. The health monitor is seeded from the
    /// engine's current state and mirrored into `registry` alongside
    /// the `net_server_*` metrics.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
    ) -> std::io::Result<Scaddard> {
        Scaddard::bind_inner(addr, server, config, registry, tracer, None)
    }

    /// Binds a **cluster shard**: identical to [`bind`](Self::bind),
    /// plus a [`ShardRuntime`] every `Locate`/`LocateBatch` consults
    /// before touching the engine. Requests for objects the map routes
    /// elsewhere answer `WrongShard`; requests landing on a drained
    /// shard answer `StaleMap`; `FetchMap` serves the shard's current
    /// map.
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
        shard: Arc<ShardRuntime>,
    ) -> std::io::Result<Scaddard> {
        Scaddard::bind_inner(addr, server, config, registry, tracer, Some(shard))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
        shard: Option<Arc<ShardRuntime>>,
    ) -> std::io::Result<Scaddard> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let monitor = server.with_read(|s| {
            let mut m = HealthMonitor::for_engine(
                MonitorConfig::default(),
                tracer.clock().clone(),
                s.engine(),
            );
            m.attach_registry(registry);
            m.evaluate_budget();
            m
        });
        let controller = server.with_read(|s| CompactionController::from_config(s.config()));
        let stats = NetStats::register(registry);
        // Stamp the bucket-layout fingerprint so fleet aggregation can
        // refuse to merge histograms from a peer built with different
        // bucket boundaries.
        registry.mark_bucket_layout();
        let profiler = Profiler::new(tracer.clock().clone());
        let op_state = profiler.register("scaddard-op");
        let shared = Arc::new(Shared {
            server,
            config,
            stats,
            tracer,
            monitor: Mutex::new(monitor),
            controller: Mutex::new(controller),
            registry: registry.clone(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            shard,
            profiler: Arc::clone(&profiler),
            op_state,
        });
        let core = match shared.config.mode {
            ServerMode::Threaded => {
                let conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
                    Arc::new(Mutex::new(Vec::new()));
                let accept_shared = Arc::clone(&shared);
                let accept_conns = Arc::clone(&conn_handles);
                let accept_handle = std::thread::Builder::new()
                    .name("scaddard-accept".into())
                    .spawn(move || accept_loop(listener, accept_shared, accept_conns))
                    .expect("spawn accept thread");
                Core::Threaded {
                    accept_handle: Some(accept_handle),
                    conn_handles,
                }
            }
            ServerMode::EventLoop => Core::EventLoop(crate::reactor::Reactor::start(
                listener,
                Arc::clone(&shared),
            )?),
        };
        // The process's ~1 kHz sampler samples this profiler until the
        // daemon drops it; tests and the harness that need determinism
        // drive `Profiler::sample_once` directly instead.
        profiler.sample_in_background();
        Ok(Scaddard {
            local_addr,
            shared,
            core,
        })
    }

    /// The bound address (the ephemeral port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live handler threads right now.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// The server's metric handles (benches read these directly).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.shared.stats
    }

    /// Severity of the server's current health report — what
    /// `serve --check` maps to an exit code.
    pub fn health_verdict(&self) -> Severity {
        self.shared.observed_monitor().report().verdict()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// and return once every serving thread has stopped serving this
    /// daemon (the threaded core's are joined; the reactor's workers
    /// drop their state and park). Idempotent-by-construction (consumes
    /// self).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match &mut self.core {
            Core::Threaded {
                accept_handle,
                conn_handles,
            } => {
                // Wake the blocking accept with a throwaway connection.
                let _ = TcpStream::connect(self.local_addr);
                if let Some(handle) = accept_handle.take() {
                    let _ = handle.join();
                }
                let handles: Vec<_> = {
                    let mut guard = conn_handles.lock().unwrap_or_else(|e| e.into_inner());
                    guard.drain(..).collect()
                };
                for handle in handles {
                    let _ = handle.join();
                }
            }
            Core::EventLoop(reactor) => reactor.shutdown(),
        }
    }

    fn is_shut_down(&self) -> bool {
        match &self.core {
            Core::Threaded { accept_handle, .. } => accept_handle.is_none(),
            Core::EventLoop(reactor) => reactor.is_shut_down(),
        }
    }
}

impl Drop for Scaddard {
    fn drop(&mut self) {
        if !self.is_shut_down() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let stream = match shared.accept(&listener) {
            Accept::Open(stream) => stream,
            Accept::Again | Accept::Empty => continue,
            Accept::Pause => {
                std::thread::sleep(ACCEPT_PAUSE);
                continue;
            }
            Accept::Stop => return,
        };
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("scaddard-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.release();
            })
            .expect("spawn handler thread");
        conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        // Opportunistically reap finished handlers so a long-lived
        // daemon doesn't accumulate unbounded JoinHandles.
        let mut guard = conn_handles.lock().unwrap_or_else(|e| e.into_inner());
        guard.retain(|h| !h.is_finished());
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    let instrument = shared.config.instrument;
    let mut span = instrument.then(|| shared.tracer.span("net.conn"));
    let mut served = 0u64;
    let mut buf: Vec<u8> = Vec::with_capacity(FRAME_HEADER_LEN + 64);
    let mut chunk = [0u8; 4096];
    // Deadline for completing the frame currently being read; armed by
    // its first byte, disarmed when the buffer empties.
    let mut frame_deadline: Option<Instant> = None;
    let mut out = Vec::with_capacity(256);
    loop {
        // Drain every complete frame already buffered (pipelining:
        // responses for all of them go out in one write).
        out.clear();
        loop {
            match decode_frame_traced(&buf, shared.config.max_frame_len) {
                Ok((frame, ctx, used)) => {
                    buf.drain(..used);
                    if !handle_request(frame, shared, &mut out, ctx) {
                        flush(&stream, shared, &out);
                        return;
                    }
                    served += 1;
                }
                Err(FrameError::Incomplete { .. }) => break,
                Err(err) => {
                    shared.stats.protocol_errors.inc();
                    Frame::Error {
                        code: ErrorCode::Protocol,
                        message: err.to_string(),
                    }
                    .encode(&mut out);
                    flush(&stream, shared, &out);
                    if let Some(span) = span.as_mut() {
                        span.event("protocol-error", err);
                    }
                    return;
                }
            }
        }
        if !out.is_empty() && !flush(&stream, shared, &out) {
            return;
        }
        frame_deadline = if buf.is_empty() {
            None
        } else {
            // A partial frame is pending; (re-)arm the deadline when it
            // first appears.
            Some(frame_deadline.unwrap_or_else(|| Instant::now() + shared.config.read_timeout))
        };
        // Read more, waking every POLL_TICK to check shutdown/deadline.
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                shared.stats.bytes_rx.add(n as u64);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    break; // idle connection during drain
                }
                if let Some(deadline) = frame_deadline {
                    if Instant::now() >= deadline {
                        let mut err = Vec::new();
                        Frame::Error {
                            code: ErrorCode::BadRequest,
                            message: "request read deadline exceeded".into(),
                        }
                        .encode(&mut err);
                        flush(&stream, shared, &err);
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    if let Some(span) = span.as_mut() {
        span.event("requests", served);
    }
}

/// Writes `out` under the write deadline, counting the bytes; false on
/// failure (connection dead).
pub(crate) fn flush(mut stream: &TcpStream, shared: &Shared, out: &[u8]) -> bool {
    if out.is_empty() {
        return true;
    }
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    if stream.write_all(out).is_err() {
        return false;
    }
    shared.stats.bytes_tx.add(out.len() as u64);
    true
}

/// A decoded request: the frame, the trace context that rode in on its
/// trailer, the reactor connection slot its answer goes to (0 on the
/// other paths) and its seam sample (`coalesce-wait` open when sampled).
pub(crate) struct Request {
    pub(crate) slot: usize,
    pub(crate) frame: Frame,
    pub(crate) ctx: Option<TraceContext>,
    pub(crate) sample: Sample,
}

/// `Locate` and `LocateBatch`: the frames [`answer_lookups`] serves.
pub(crate) fn is_lookup(frame: &Frame) -> bool {
    matches!(frame, Frame::Locate { .. } | Frame::LocateBatch { .. })
}

/// Dispatches one request, appending the response to `out`. Returns
/// false when the connection must close (a response frame arrived where
/// a request belongs — direction violation). A lookup is answered as a
/// one-frame run of [`answer_lookups`], so it is never coalesced with
/// the requests pipelined behind it.
pub(crate) fn handle_request(
    frame: Frame,
    shared: &Shared,
    out: &mut Vec<u8>,
    ctx: Option<TraceContext>,
) -> bool {
    if !frame.is_request() {
        shared.stats.protocol_errors.inc();
        Frame::Error {
            code: ErrorCode::BadRequest,
            message: format!("{} is a response frame", frame.endpoint()),
        }
        .encode(out);
        return false;
    }
    if is_lookup(&frame) {
        let run = [Request {
            slot: 0,
            frame,
            ctx,
            sample: Sample::default(),
        }];
        answer_lookups(shared, &run, None, |_, response| {
            response.encode(out);
        });
        return true;
    }
    let endpoint = frame.endpoint();
    let span = continue_trace(shared, endpoint, ctx.as_ref());
    let clock = shared.tracer.clock();
    let start = shared.config.instrument.then(|| clock.now_ns());
    let response = dispatch(frame, shared);
    let ns = start.map_or(0, |s| clock.now_ns().saturating_sub(s));
    record(shared, endpoint, ns, span, &response);
    response.encode(out);
    true
}

/// The continuation span of a request that carried a sampled
/// [`TraceContext`]: a child span (salted with the shard id, so sibling
/// shards touched by one client hop stay distinct) recorded in this
/// process's flight recorder, parented to the client's span.
fn continue_trace(
    shared: &Shared,
    endpoint: &str,
    ctx: Option<&TraceContext>,
) -> Option<SpanGuard> {
    let ctx = ctx.filter(|c| shared.config.instrument && c.sampled)?;
    let salt = shared.shard.as_ref().map_or(0, |s| u64::from(s.self_id()));
    let name = format!("serve.{endpoint}");
    Some(shared.tracer.span_in(&name, &ctx.child(salt), ctx.span_id))
}

/// Books one answered request: its per-endpoint count and latency, an
/// `Error` answer in the error count, and its continuation span's
/// `critical-path-ns` (the server-side cost, a wave's share for a
/// lookup) and routing verdict.
fn record(shared: &Shared, endpoint: &str, ns: u64, span: Option<SpanGuard>, response: &Frame) {
    shared.stats.record(endpoint, ns, shared.config.instrument);
    if matches!(response, Frame::Error { .. }) {
        shared.stats.errors.inc();
    }
    if let Some(mut span) = span {
        span.event("critical-path-ns", ns);
        match response {
            Frame::WrongShard { owner, .. } => span.event("wrong-shard", owner),
            Frame::StaleMap { map_version } => span.event("stale-map", map_version),
            Frame::Error { code, .. } => span.event("error", code.label()),
            _ => {}
        }
    }
}

/// Answers a run of lookups: the one place in the serving layer where a
/// `Locate` or `LocateBatch` reaches the engine.
///
/// A frame whose answer needs no engine is decided first: an empty
/// batch is a `BadRequest`, and in cluster mode the routing gate's
/// `WrongShard`, `StaleMap` or unknown-object answer goes back as is.
/// The rest are answered by one
/// [`SharedServer::locate_coalesced_with`] call, under one shared-lock
/// acquisition and so at one epoch; none is made when every frame was
/// decided. `emit` receives every response in run order, and [`record`]
/// books each frame with the run's time to its answers split evenly.
///
/// `seam` is the reactor worker's: the run's start closes each sampled
/// member's `coalesce-wait` and opens `lock-wait`, the lock acquisition
/// opens `engine`, the answers open `encode`, and the last response
/// hands the worker back to `decode`.
pub(crate) fn answer_lookups(
    shared: &Shared,
    run: &[Request],
    mut seam: Option<&mut Seam>,
    mut emit: impl FnMut(&Request, &Frame),
) {
    let mut edge = |next: Phase, sample: &mut Sample, now: Option<u64>| {
        if let Some(seam) = seam.as_deref_mut() {
            seam.edge(next, sample, now);
        }
    };
    let clock = shared.tracer.clock();
    let start = shared.config.instrument.then(|| clock.now_ns());
    let mut sample = Sample::default();
    for req in run {
        let mut member = req.sample;
        edge(Phase::LockWait, &mut member, start);
        sample.carry(member);
    }
    edge(Phase::LockWait, &mut sample, start);
    // Traced and decided frames are rare: both lists stay unallocated
    // on an ordinary run.
    let mut spans = Vec::new();
    let mut decided = Vec::new();
    let mut queries = Vec::with_capacity(run.len());
    for (k, req) in run.iter().enumerate() {
        if let Some(span) = continue_trace(shared, req.frame.endpoint(), req.ctx.as_ref()) {
            spans.push((k, span));
        }
        let query = match &req.frame {
            Frame::LocateBatch { blocks, .. } if blocks.is_empty() => Err(Frame::Error {
                code: ErrorCode::BadRequest,
                message: "empty batch".into(),
            }),
            Frame::Locate { object, block } => {
                shard_gate(shared, *object).map(|local| LocateQuery::One {
                    object: ObjectId(local),
                    block: *block,
                })
            }
            Frame::LocateBatch { object, blocks } => {
                shard_gate(shared, *object).map(|local| LocateQuery::Many {
                    object: ObjectId(local),
                    blocks,
                })
            }
            _ => unreachable!("a lookup run holds only lookup frames"),
        };
        match query {
            Ok(query) => queries.push(query),
            Err(response) => decided.push((k, response)),
        }
    }
    let read = (!queries.is_empty()).then(|| {
        shared
            .server
            .locate_coalesced_with(&queries, || edge(Phase::Engine, &mut sample, None))
    });
    let (epoch, disks, answers) =
        read.map_or((0, 0, Vec::new()), |r| (r.epoch as u64, r.disks, r.answers));
    sample.at_epoch(epoch);
    let answered = shared.config.instrument.then(|| clock.now_ns());
    edge(Phase::Encode, &mut sample, answered);
    let ns = start
        .zip(answered)
        .map_or(0, |(t0, t1)| t1.saturating_sub(t0) / run.len() as u64);
    let mut answers = answers.into_iter();
    let mut decided = decided.into_iter().peekable();
    let mut spans = spans.into_iter().peekable();
    for (k, req) in run.iter().enumerate() {
        let response = match decided.next_if(|&(at, _)| at == k) {
            Some((_, response)) => response,
            None => match answers.next().expect("one answer per query") {
                Ok(LocateAnswer::One(disk)) => Frame::Located {
                    epoch,
                    disks,
                    disk: disk.0 as u64,
                },
                Ok(LocateAnswer::Many(locations)) => Frame::BatchLocated {
                    epoch,
                    disks,
                    locations: locations.into_iter().map(|d| d.0).collect(),
                },
                Err(e) => engine_error(e),
            },
        };
        let span = spans.next_if(|&(at, _)| at == k).map(|(_, span)| span);
        record(shared, req.frame.endpoint(), ns, span, &response);
        emit(req, &response);
    }
    edge(Phase::Decode, &mut sample, None);
}

fn engine_error(e: impl std::fmt::Display) -> Frame {
    Frame::Error {
        code: ErrorCode::Engine,
        message: e.to_string(),
    }
}

/// Cluster routing gate: `Ok` carries the engine-facing object id (the
/// shard-local translation in cluster mode, the wire id standalone);
/// `Err` is the routing response that must go back instead of touching
/// the engine.
fn shard_gate(shared: &Shared, object: u64) -> Result<u64, Frame> {
    let Some(shard) = &shared.shard else {
        return Ok(object);
    };
    match shard.decide(object) {
        RouteDecision::Serve(local) => Ok(local),
        RouteDecision::WrongShard { map_version, owner } => {
            Err(Frame::WrongShard { map_version, owner })
        }
        RouteDecision::StaleMap { map_version } => Err(Frame::StaleMap { map_version }),
        RouteDecision::UnknownObject => Err(engine_error(format!(
            "unknown object {object} (owned by this shard)"
        ))),
    }
}

/// Answers one request that is neither a lookup nor a response frame.
fn dispatch(frame: Frame, shared: &Shared) -> Frame {
    match frame {
        Frame::Scale { op } => {
            let mut span = shared
                .config
                .instrument
                .then(|| shared.tracer.span("net.scale"));
            let result = shared.server.scale_read(op);
            match result {
                Ok((epoch, disks, queued)) => {
                    if let Some(span) = span.as_mut() {
                        span.event("epoch", epoch);
                        span.event("queued", queued);
                    }
                    // Feed the monitor the op's movement data (RO1 +
                    // budget probes). The census is deliberately NOT
                    // observed here: redistribution is asynchronous, so
                    // the post-commit census is transiently unbalanced
                    // by design — it is sampled when an operator asks
                    // for `Health`, where it reflects current reality.
                    let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
                    shared
                        .server
                        .with_read(|s| monitor.observe_engine(s.engine()));
                    Frame::Scaled {
                        epoch: epoch as u64,
                        disks,
                        queued,
                    }
                }
                Err(e) => engine_error(e),
            }
        }
        Frame::Tick { rounds } => {
            for _ in 0..rounds {
                shared.server.tick();
            }
            // The generation manager rides the tick path: it syncs the
            // monitor's budget probe, fires the engine-config auto
            // policy when the §4.3 budget runs dry, and notes the
            // compaction-complete event after a flip.
            {
                let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
                let mut controller = shared.controller.lock().unwrap_or_else(|e| e.into_inner());
                controller.step_shared(&shared.server, &mut monitor);
            }
            Frame::Ticked {
                rounds,
                backlog: shared.server.backlog(),
            }
        }
        Frame::Compact => {
            let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
            let mut controller = shared.controller.lock().unwrap_or_else(|e| e.into_inner());
            // Re-issuing `compact` mid-migration joins the in-flight
            // compaction (answers its progress) instead of queueing a
            // second one behind it.
            if !shared.server.with_read(|s| s.compaction_active()) {
                controller.request();
            }
            let events = controller.step_shared(&shared.server, &mut monitor);
            let deferred = events.iter().find_map(|e| match e {
                scaddar_compact::ControllerEvent::Deferred { reason } => Some(reason.clone()),
                _ => None,
            });
            if let Some(reason) = deferred {
                return engine_error(reason);
            }
            shared.server.with_read(|s| match s.compaction_progress() {
                Some(p) => Frame::CompactStatus {
                    active: 1,
                    generation: p.from_generation,
                    target_generation: p.to_generation,
                    migrated: p.migrated_blocks,
                    total: p.total_blocks,
                    backlog: p.backlog,
                },
                None => Frame::CompactStatus {
                    active: 0,
                    generation: s.generation(),
                    target_generation: s.generation(),
                    migrated: 0,
                    total: 0,
                    backlog: 0,
                },
            })
        }
        Frame::Health => {
            let monitor = shared.observed_monitor();
            let report = monitor.report();
            Frame::HealthStatus {
                // The wire verdict is the ordered severity: 0 OK, 1 WARN, 2 CRIT.
                verdict: report.verdict() as u8,
                alerts: monitor.alerts_emitted() as u64,
                report: report.render(),
            }
        }
        Frame::Ping => Frame::Pong {
            epoch: shared.server.epoch_view().0 as u64,
        },
        Frame::ScrapeStats => {
            // One RPC carries everything the fleet aggregator needs:
            // the structured registry snapshot plus the epoch and the
            // health verdict it would otherwise fetch separately.
            let verdict = shared.observed_monitor().report().verdict() as u8;
            Frame::StatsReply {
                epoch: shared.server.epoch_view().0 as u64,
                verdict,
                snapshot: shared.registry.snapshot(),
            }
        }
        Frame::ProfileDump => {
            // Mirror the tallies into the registry (so plain scrapes
            // see them too), then ship the structured snapshot.
            shared.profiler.publish(&shared.registry);
            Frame::ProfileReply {
                profile: shared.profiler.snapshot(),
            }
        }
        Frame::FetchMap { have_version: _ } => match &shared.shard {
            Some(shard) => shard.map().to_frame(),
            None => Frame::Error {
                code: ErrorCode::BadRequest,
                message: "standalone daemon: no cluster map".into(),
            },
        },
        // handle_request filtered responses and lookups out first.
        _ => unreachable!("dispatch only sees non-lookup request frames"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmsim::{CmServer, ServerConfig};
    use scaddar_core::ScalingOp;
    use scaddar_obs::MonotonicClock;

    fn boot(blocks: u64) -> (Scaddard, Registry) {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(11)).unwrap();
        server.add_object(blocks).unwrap();
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
        (daemon, registry)
    }

    fn roundtrip(addr: SocketAddr, request: &Frame) -> Frame {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&request.to_bytes()).unwrap();
        read_one(&mut stream)
    }

    fn read_one(stream: &mut TcpStream) -> Frame {
        read_buffered(stream, &mut Vec::new())
    }

    /// Reads one frame, keeping bytes past it in `buf` — pipelined
    /// responses can land in a single `read`, so the buffer must
    /// persist across calls.
    fn read_buffered(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Frame {
        let mut chunk = [0u8; 1024];
        loop {
            match crate::wire::decode_frame(buf) {
                Ok((frame, used)) => {
                    buf.drain(..used);
                    return frame;
                }
                Err(FrameError::Incomplete { .. }) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "server closed mid-frame");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("bad response: {e}"),
            }
        }
    }

    #[test]
    fn locate_scale_tick_health_roundtrip() {
        let (daemon, _registry) = boot(5_000);
        let addr = daemon.local_addr();

        let located = roundtrip(
            addr,
            &Frame::Locate {
                object: 0,
                block: 7,
            },
        );
        let Frame::Located { epoch, disks, disk } = located else {
            panic!("expected Located, got {located:?}");
        };
        assert_eq!((epoch, disks), (0, 4));
        assert!(disk < 4);

        let scaled = roundtrip(
            addr,
            &Frame::Scale {
                op: ScalingOp::Add { count: 2 },
            },
        );
        let Frame::Scaled { epoch, disks, .. } = scaled else {
            panic!("expected Scaled, got {scaled:?}");
        };
        assert_eq!((epoch, disks), (1, 6));

        let ticked = roundtrip(addr, &Frame::Tick { rounds: 1_000 });
        assert!(matches!(ticked, Frame::Ticked { backlog: 0, .. }));

        let health = roundtrip(addr, &Frame::Health);
        let Frame::HealthStatus {
            verdict, report, ..
        } = health
        else {
            panic!("expected HealthStatus, got {health:?}");
        };
        assert_eq!(verdict, 0, "{report}");
        assert!(report.starts_with("health: OK"), "{report}");
        daemon.shutdown();
    }

    #[test]
    fn batches_are_served_at_one_epoch_and_stats_render() {
        let (daemon, _registry) = boot(2_000);
        let addr = daemon.local_addr();
        let batch = roundtrip(
            addr,
            &Frame::LocateBatch {
                object: 0,
                blocks: (0..64).collect(),
            },
        );
        let Frame::BatchLocated {
            epoch,
            disks,
            locations,
        } = batch
        else {
            panic!("expected BatchLocated, got {batch:?}");
        };
        assert_eq!(epoch, 0);
        assert_eq!(locations.len(), 64);
        assert!(locations.iter().all(|d| *d < disks as u64));

        // Telemetry is pulled structured and rendered client-side.
        let stats = roundtrip(addr, &Frame::ScrapeStats);
        let Frame::StatsReply { snapshot, .. } = stats else {
            panic!("expected StatsReply, got {stats:?}");
        };
        let rendered = Registry::new();
        rendered.absorb(&snapshot);
        let text = rendered.render_prometheus();
        assert!(text.contains("net_server_requests_total{endpoint=\"locate-batch\"} 1"));
        assert!(text.contains("# TYPE net_server_connections gauge"));
        daemon.shutdown();
    }

    #[test]
    fn garbage_earns_a_protocol_error_and_a_close() {
        let (daemon, registry) = boot(100);
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        // A valid header claiming an unknown tag.
        stream.write_all(&[4, 0, 0, 0, 1, 0x42, 0, 0]).unwrap();
        let response = read_one(&mut stream);
        assert!(
            matches!(
                &response,
                Frame::Error { code: ErrorCode::Protocol, message } if message.contains("0x42")
            ),
            "{response:?}"
        );
        // Connection is closed afterwards.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty());
        daemon.shutdown();
        assert!(matches!(
            registry.value("net_server_protocol_errors_total"),
            Some(scaddar_obs::MetricValue::Counter(1))
        ));
    }

    #[test]
    fn empty_batches_and_bad_objects_are_typed_errors() {
        let (daemon, _registry) = boot(100);
        let addr = daemon.local_addr();
        let empty = roundtrip(
            addr,
            &Frame::LocateBatch {
                object: 0,
                blocks: vec![],
            },
        );
        assert!(matches!(
            empty,
            Frame::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        let missing = roundtrip(
            addr,
            &Frame::Locate {
                object: 99,
                block: 0,
            },
        );
        assert!(matches!(
            missing,
            Frame::Error {
                code: ErrorCode::Engine,
                ..
            }
        ));
        daemon.shutdown();
    }

    #[test]
    fn connection_limit_rejects_with_busy() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(3)).unwrap();
        server.add_object(100).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 16);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig {
                max_connections: 1,
                ..NetServerConfig::default()
            },
            &registry,
            tracer,
        )
        .unwrap();
        let addr = daemon.local_addr();
        // First connection occupies the only slot...
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(&Frame::Ping.to_bytes()).unwrap();
        assert!(matches!(read_one(&mut first), Frame::Pong { .. }));
        // ...so the second is turned away with Busy.
        let mut second = TcpStream::connect(addr).unwrap();
        let rejection = read_one(&mut second);
        assert!(
            matches!(
                rejection,
                Frame::Error {
                    code: ErrorCode::Busy,
                    ..
                }
            ),
            "{rejection:?}"
        );
        drop(first);
        drop(second);
        daemon.shutdown();
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        let (daemon, _registry) = boot(1_000);
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut batch = Vec::new();
        for block in [1u64, 2, 3] {
            Frame::Locate { object: 0, block }.encode(&mut batch);
        }
        Frame::Ping.encode(&mut batch);
        stream.write_all(&batch).unwrap();
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(matches!(
                read_buffered(&mut stream, &mut buf),
                Frame::Located { .. }
            ));
        }
        assert!(matches!(
            read_buffered(&mut stream, &mut buf),
            Frame::Pong { epoch: 0 }
        ));
        // A heavy op runs off the worker; the frames behind it wait for
        // it and still answer in order.
        let mut batch = Vec::new();
        Frame::Locate {
            object: 0,
            block: 4,
        }
        .encode(&mut batch);
        Frame::Compact.encode(&mut batch);
        Frame::Locate {
            object: 0,
            block: 5,
        }
        .encode(&mut batch);
        Frame::Ping.encode(&mut batch);
        stream.write_all(&batch).unwrap();
        let answers: Vec<Frame> = (0..4)
            .map(|_| read_buffered(&mut stream, &mut buf))
            .collect();
        assert!(
            matches!(
                answers.as_slice(),
                [
                    Frame::Located { .. },
                    Frame::CompactStatus { .. },
                    Frame::Located { .. },
                    Frame::Pong { .. },
                ]
            ),
            "{answers:?}"
        );
        daemon.shutdown();
    }

    #[test]
    fn profile_dump_and_phase_histograms_cover_the_anatomy() {
        let (daemon, registry) = boot(5_000);
        let addr = daemon.local_addr();
        // N pipelined lookups on one connection (so one worker decodes
        // them all, in order): waves form and every phase fires. Seven
        // in flight puts most sampled requests mid-batch.
        const ROUNDS: u64 = 60;
        const PIPELINE: u64 = 7;
        let n = ROUNDS * PIPELINE;
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        for round in 0..ROUNDS {
            let mut batch = Vec::new();
            for block in 0..PIPELINE {
                Frame::Locate {
                    object: 0,
                    block: round * PIPELINE + block,
                }
                .encode(&mut batch);
            }
            stream.write_all(&batch).unwrap();
            for _ in 0..PIPELINE {
                assert!(matches!(
                    read_buffered(&mut stream, &mut buf),
                    Frame::Located { .. }
                ));
            }
        }
        // The worker records a wakeup's phases after its flushes; a Ping
        // on the same connection (decision n, unsampled) waits them out.
        stream.write_all(&Frame::Ping.to_bytes()).unwrap();
        assert!(matches!(
            read_buffered(&mut stream, &mut buf),
            Frame::Pong { .. }
        ));
        // Snapshot before any other request takes a sampling decision.
        let snap = registry.snapshot();
        assert_eq!(
            registry.value("net_phase_decisions_total"),
            Some(scaddar_obs::MetricValue::Counter(n + 1))
        );
        let sampled = n.div_ceil(crate::seam::SAMPLE_EVERY as u64);
        let phase = |name: &str| {
            snap.histogram(&format!("net_phase_ns{{phase=\"{name}\"}}"))
                .unwrap_or_else(|| panic!("missing phase histogram {name}"))
        };
        // Epoch 0: every lookup walks a chain of depth 0.
        let engine = snap
            .histogram("net_phase_ns{phase=\"engine\",depth=\"0\"}")
            .expect("missing engine depth-0 histogram");
        assert_eq!(engine.count, sampled, "engine");
        for name in ["decode", "coalesce-wait", "lock-wait", "encode"] {
            assert_eq!(phase(name).count, sampled, "phase {name}");
        }
        let flushes = phase("write-flush").count;
        assert!(flushes > 0 && flushes <= sampled, "write-flush {flushes}");
        // Sum-consistency: medians are not additive across distinct
        // histograms, but the serve-side phases (lock-wait + engine +
        // encode, which together span one wave) cannot collectively
        // dwarf the end-to-end latency. The envelope is deliberately
        // generous — 10× the per-request p50 (a wave of up to 7 frames
        // splits its wall time 7 ways) plus 100 µs of scheduling noise
        // and log-bucket overshoot.
        let e2e = snap
            .histogram("net_server_request_ns{endpoint=\"locate\"}")
            .expect("missing locate histogram");
        let phase_sum = phase("lock-wait").quantile(0.5).unwrap()
            + engine.quantile(0.5).unwrap()
            + phase("encode").quantile(0.5).unwrap();
        let envelope = 10 * e2e.quantile(0.5).unwrap() + 100_000;
        assert!(
            phase_sum <= envelope,
            "phase p50 sum {phase_sum}ns exceeds envelope {envelope}ns"
        );
        // ProfileDump over the wire: worker rows present, conservation
        // invariant exact, and the ~1 kHz sampler has run.
        let mut profile = None;
        for _ in 0..200 {
            let reply = roundtrip(addr, &Frame::ProfileDump);
            let Frame::ProfileReply { profile: p } = reply else {
                panic!("expected ProfileReply, got {reply:?}");
            };
            if p.rounds > 0 {
                profile = Some(p);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let profile = profile.expect("sampler never ran");
        assert!(profile
            .threads
            .iter()
            .any(|t| t.name.starts_with("scaddard-worker-")));
        assert!(profile.threads.iter().any(|t| t.name == "scaddard-op"));
        assert!(profile.threads.iter().all(|t| t.conserves()), "{profile:?}");
        // The dump also mirrored the tallies into the registry.
        assert!(registry
            .render_prometheus()
            .contains("# TYPE profiler_rounds gauge"));
        daemon.shutdown();
    }

    #[test]
    fn shutdown_drains_idle_connections() {
        let (daemon, registry) = boot(100);
        let stream = TcpStream::connect(daemon.local_addr()).unwrap();
        // Give the core a moment to accept the connection.
        while daemon.active_connections() == 0 {
            std::thread::yield_now();
        }
        daemon.shutdown(); // joins the idle handler within a poll tick
        drop(stream);
        assert!(matches!(
            registry.value("net_server_connections"),
            Some(scaddar_obs::MetricValue::Gauge(0))
        ));
    }
}
