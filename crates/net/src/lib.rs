//! # scaddar-net — the networked serving layer
//!
//! The paper's deployment target is a continuous-media *server*
//! answering block-location queries for many concurrent clients while
//! scaling operations commit online (§1, AO1). Everything below this
//! crate — [`cmsim::SharedServer`], the CLI, the harness — is
//! in-process; this crate puts the lookup path behind a real socket
//! with real backpressure, deadlines, and per-endpoint telemetry:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol
//!   ([`Frame`], [`FrameError`]): a zero-copy encoder and a hardened
//!   decoder that answers truncated/oversized/garbage input with typed
//!   errors, never a panic.
//! * [`server`] — `scaddard` ([`Scaddard`]): the serving daemon over a
//!   [`cmsim::SharedServer`] with a bounded accept policy (max
//!   connections, per-request read/write deadlines, graceful drain on
//!   shutdown) and per-endpoint `obs` counters/latency histograms plus
//!   `net.*` spans. Two cores behind one bind call ([`ServerMode`]):
//!   the default readiness-based event loop and the thread-per-
//!   connection reference kept for A/B runs.
//!   Every `Locate` and `LocateBatch` on either core, traced, routed or
//!   plain, is answered on one lookup path: a run of lookup frames
//!   served by one [`cmsim::SharedServer::locate_coalesced_with`] call.
//! * [`reactor`] — the event-loop core: nonblocking sockets driven by
//!   epoll/poll(2) (via the vendored `polling` shim), a slab of
//!   per-connection states with reusable buffers, cross-connection
//!   coalescing of lookups into one wave per wakeup on that path,
//!   batched writes with graceful EAGAIN handling, and the threaded
//!   core's deadline/backpressure policy preserved. Its workers and
//!   offloaded heavy ops run on a process-wide cache of parked threads
//!   that outlive their daemon, so a boot wakes threads instead of
//!   spawning them.
//! * [`seam`] — the reactor's one instrumentation seam: each edge
//!   publishes the worker's profiler state word and, for the 1-in-64
//!   sampled requests, times the phase it closes into `net_phase_ns`.
//! * [`client`] — [`NetClient`]: connection pooling, request
//!   pipelining, and deadline-aware retry-on-reconnect.
//! * [`load`] — a deterministic loopback load generator (seeded
//!   closed-loop and pipelined workloads) whose measurements feed the
//!   `net_load` rows of the bench gate table via `scaddard-load`.
//! * [`cluster`] — the sharded-topology layer: the versioned
//!   [`ClusterMap`] with jump-consistent-hash object routing, the
//!   server-side [`ShardRuntime`] handoff gates, and the shard-aware
//!   [`ClusterClient`] that chases `WrongShard`/`StaleMap` redirects by
//!   refreshing the map.
//!
//! The crate is std-only (`std::net` + threads), consistent with the
//! workspace's vendored-shim policy: no async runtime, no serde.
//!
//! ## The invariant that crosses the wire
//!
//! Every response that depends on placement carries the scaling epoch
//! it was served at (`Located`, `BatchLocated`, `Scaled`, even `Pong`),
//! and every batch is served under **one** lock acquisition
//! ([`cmsim::SharedServer::locate_coalesced_with`]) — so a remote client
//! observes the same "entirely pre-op or entirely post-op, never torn"
//! guarantee that `cmsim`'s in-process tests pin down, now across the
//! socket boundary (`tests/loopback_concurrent.rs` holds the line with
//! 64 concurrent clients through mid-run `Scale` commits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod load;
pub mod reactor;
pub mod seam;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, CompactionStatus, NetClient};
pub use cluster::{
    fetch_map, jump_hash, ClusterAnswer, ClusterClient, ClusterClientStats, ClusterMap,
    RouteDecision, ShardRuntime,
};
pub use load::{run_load, LatencySummary, LoadConfig, LoadReport, LoopMode};
pub use seam::ENGINE_DEPTH_BUCKETS;
pub use server::{NetServerConfig, Scaddard, ServerMode};
pub use wire::{
    decode_frame, decode_frame_limited, ErrorCode, Frame, FrameError, MAX_PROFILE_STATES,
};
