//! Cluster routing: the versioned [`ClusterMap`], jump-consistent-hash
//! object routing, the server-side per-shard state ([`ShardRuntime`]),
//! and the shard-aware [`ClusterClient`].
//!
//! A cluster is N `scaddard` shards, each running its own engine,
//! scaling log, and monitor over a *partition* of the object catalog.
//! Which shard owns which object is a pure function of the
//! [`ClusterMap`]: objects route by jump consistent hash (Lamping &
//! Veach) over the map's sorted shard list, so the map is the only
//! state a client needs — no per-object directory, no rebalancing
//! metadata. Adding a shard (always with a fresh highest id, hence the
//! last jump bucket) moves an expected `1/(n+1)` of objects, the
//! cluster-level analogue of the paper's low-`z_j` reorganization
//! guarantee; removing the *newest* shard moves exactly its own
//! residents, while removing an older shard also reshuffles every
//! later bucket (the map's [`expected_move_fraction`] is the honest
//! analytic cost either way, and the `cluster-migration-delta`
//! invariant holds the orchestrator to it).
//!
//! The map is versioned, and the version doubles as the **cluster
//! epoch**: every topology change bumps it. Shards answer requests for
//! objects they do not own with [`Frame::WrongShard`] carrying their
//! map version — the piggyback that tells a stale client to refresh
//! ([`Frame::FetchMap`]) before retrying. A shard that has been drained
//! out of the serving set answers [`Frame::StaleMap`].
//!
//! During a handoff both the old and the new owner are alive, and the
//! protocol keeps service single-homed per object:
//!
//! 1. The new map (version `v+1`) is installed everywhere with the
//!    moving objects marked `handoff_out` on the source and
//!    `pending_in` on the target.
//! 2. The source keeps serving a `handoff_out` object even though the
//!    map no longer names it; the target answers `WrongShard{owner:
//!    source}` for a `pending_in` object even though the map *does*
//!    name it.
//! 3. Per migrated object the flip is source-first: the source stops
//!    serving (drops `handoff_out` + its engine entry) strictly before
//!    the target starts (drops `pending_in`). At no instant do two
//!    shards serve the same object — the `cluster-epoch-single`
//!    invariant. A request landing in the flip window bounces with
//!    `WrongShard` and succeeds on retry.
//!
//! [`expected_move_fraction`]: ClusterMap::expected_move_fraction

use crate::client::{ClientConfig, ClientError, NetClient};
use crate::wire::Frame;
use scaddar_obs::{SpanGuard, TraceContext, Tracer};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Jump consistent hash (Lamping & Veach, 2014), the shard router: the
/// sorted shard index an object id lands on. `scaddar-prng` holds the
/// one implementation, which the E11 placement comparator calls too.
pub use scaddar_prng::jump_consistent_hash as jump_hash;

/// The versioned shard topology: who serves, where, and since when.
///
/// `version` doubles as the cluster epoch — every topology change
/// (shard add/remove, restart re-address) produces a *new* map with
/// `version + 1`; maps are never mutated in place. Shard entries are
/// `(id, "host:port")`, kept sorted by id; the sorted *index* is the
/// jump-hash bucket, so routing is stable under address changes and
/// only topology changes move objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Map version — the cluster epoch.
    pub version: u64,
    /// `(shard id, net address)`, strictly ascending by id.
    pub shards: Vec<(u32, String)>,
}

impl ClusterMap {
    /// A version-1 map over `shards` (sorted by id; ids must be
    /// unique).
    pub fn new(shards: Vec<(u32, String)>) -> ClusterMap {
        let mut shards = shards;
        shards.sort_by_key(|(id, _)| *id);
        assert!(
            shards.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate shard ids"
        );
        ClusterMap { version: 1, shards }
    }

    /// Number of serving shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard serves (routing is impossible).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard id that owns `object`, by jump hash over the sorted
    /// shard list. `None` on an empty map.
    pub fn route(&self, object: u64) -> Option<u32> {
        if self.shards.is_empty() {
            return None;
        }
        let idx = jump_hash(object, self.shards.len() as u32) as usize;
        Some(self.shards[idx].0)
    }

    /// The net address of `shard`, if it serves.
    pub fn addr_of(&self, shard: u32) -> Option<&str> {
        self.shards
            .iter()
            .find(|(id, _)| *id == shard)
            .map(|(_, addr)| addr.as_str())
    }

    /// The next map after adding a shard. `id` must exceed every
    /// current id — new shards always take the last jump bucket, which
    /// is what keeps the expected migration delta at `1/(n+1)`.
    pub fn add_shard(&self, id: u32, addr: String) -> ClusterMap {
        assert!(
            self.shards.last().is_none_or(|(last, _)| *last < id),
            "shard ids must grow monotonically (got {id})"
        );
        let mut shards = self.shards.clone();
        shards.push((id, addr));
        ClusterMap {
            version: self.version + 1,
            shards,
        }
    }

    /// The next map after removing `shard`.
    pub fn remove_shard(&self, shard: u32) -> ClusterMap {
        let shards: Vec<_> = self
            .shards
            .iter()
            .filter(|(id, _)| *id != shard)
            .cloned()
            .collect();
        assert!(shards.len() < self.shards.len(), "shard {shard} not in map");
        ClusterMap {
            version: self.version + 1,
            shards,
        }
    }

    /// The next map after a shard restarts on a new address. Routing is
    /// id-based so no objects move, but the version still bumps — every
    /// client must learn the new address through the same refresh path.
    pub fn readdress(&self, shard: u32, addr: String) -> ClusterMap {
        let mut shards = self.shards.clone();
        let entry = shards
            .iter_mut()
            .find(|(id, _)| *id == shard)
            .unwrap_or_else(|| panic!("shard {shard} not in map"));
        entry.1 = addr;
        ClusterMap {
            version: self.version + 1,
            shards,
        }
    }

    /// Expected fraction of objects whose route changes between `self`
    /// and `next` (analytic, not sampled). Adding a shard costs
    /// `1/(n+1)`; removing the shard in sorted bucket `i` of `n`
    /// re-routes everything in buckets `i..n` — `(n-i)/n` — because
    /// every later bucket shifts down by one. Address-only changes cost
    /// nothing.
    pub fn expected_move_fraction(&self, next: &ClusterMap) -> f64 {
        let old: Vec<u32> = self.shards.iter().map(|(id, _)| *id).collect();
        let new: Vec<u32> = next.shards.iter().map(|(id, _)| *id).collect();
        if old == new {
            return 0.0;
        }
        if new.len() == old.len() + 1 && new[..old.len()] == old[..] {
            return 1.0 / new.len() as f64;
        }
        if old.len() == new.len() + 1 {
            if let Some(i) = (0..old.len()).find(|&i| !new.contains(&old[i])) {
                if old.iter().filter(|id| **id != old[i]).eq(new.iter()) {
                    return (old.len() - i) as f64 / old.len() as f64;
                }
            }
        }
        // Arbitrary topology change: no closed form, assume the worst.
        1.0
    }

    /// This map as its wire frame.
    pub fn to_frame(&self) -> Frame {
        Frame::MapUpdate {
            version: self.version,
            shards: self.shards.clone(),
        }
    }
}

/// What a sharded server should do with a request for `object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// This shard serves the object; the value is the shard-local
    /// object id to hand the engine.
    Serve(u64),
    /// Another shard owns it (or is still authoritative mid-handoff).
    WrongShard {
        /// This shard's map version (the refresh piggyback).
        map_version: u64,
        /// The shard currently authoritative for the object.
        owner: u32,
    },
    /// This shard is retired from the serving set.
    StaleMap {
        /// The last map version this shard held.
        map_version: u64,
    },
    /// This shard owns the route but has no such object.
    UnknownObject,
}

/// Per-shard cluster state a sharded [`Scaddard`](crate::Scaddard)
/// consults on every lookup: the shard's current map, the global→local
/// object-id table, and the handoff gates.
///
/// The orchestrator (`scaddar-cluster`) mutates this from outside the
/// serving threads; every method takes one short mutex hold, so the
/// data plane never blocks behind a migration batch.
#[derive(Debug)]
pub struct ShardRuntime {
    self_id: u32,
    inner: Mutex<ShardView>,
}

#[derive(Debug)]
struct ShardView {
    map: ClusterMap,
    /// Global object id → shard-local engine object id.
    objects: HashMap<u64, u64>,
    /// Objects this shard keeps serving although the map routes them
    /// elsewhere (it is the still-authoritative handoff source).
    handoff_out: HashSet<u64>,
    /// Objects the map routes here but whose listed source shard is
    /// still authoritative (copied, not yet flipped).
    pending_in: HashMap<u64, u32>,
    /// Forwarding pointers for objects this shard handed off: a shard
    /// whose (possibly stale) map still names it owner answers
    /// `WrongShard{owner: target}` instead of "unknown object", so a
    /// client that routed here by the same stale map still converges.
    /// Pruned on every newer map install (once the map itself routes
    /// the object elsewhere the pointer is redundant).
    departed: HashMap<u64, u32>,
    /// True once the shard has been drained out of the serving set.
    retired: bool,
}

impl ShardRuntime {
    /// Fresh runtime for shard `self_id` holding `map`.
    pub fn new(self_id: u32, map: ClusterMap) -> ShardRuntime {
        ShardRuntime {
            self_id,
            inner: Mutex::new(ShardView {
                map,
                objects: HashMap::new(),
                handoff_out: HashSet::new(),
                pending_in: HashMap::new(),
                departed: HashMap::new(),
                retired: false,
            }),
        }
    }

    /// This shard's id.
    pub fn self_id(&self) -> u32 {
        self.self_id
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardView> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Routes one global object id. The serving threads call this for
    /// every `Locate`/`LocateBatch` before touching the engine.
    pub fn decide(&self, object: u64) -> RouteDecision {
        let v = self.lock();
        if v.retired {
            return RouteDecision::StaleMap {
                map_version: v.map.version,
            };
        }
        let Some(owner) = v.map.route(object) else {
            return RouteDecision::StaleMap {
                map_version: v.map.version,
            };
        };
        if owner == self.self_id {
            if let Some(&source) = v.pending_in.get(&object) {
                // Mid-handoff: the listed source still serves.
                return RouteDecision::WrongShard {
                    map_version: v.map.version,
                    owner: source,
                };
            }
            match v.objects.get(&object) {
                Some(&local) => RouteDecision::Serve(local),
                // A stale map can name this shard owner of an object it
                // already handed off — forward to where it went.
                None => match v.departed.get(&object) {
                    Some(&target) => RouteDecision::WrongShard {
                        map_version: v.map.version,
                        owner: target,
                    },
                    None => RouteDecision::UnknownObject,
                },
            }
        } else if v.handoff_out.contains(&object) {
            match v.objects.get(&object) {
                Some(&local) => RouteDecision::Serve(local),
                None => RouteDecision::UnknownObject,
            }
        } else {
            RouteDecision::WrongShard {
                map_version: v.map.version,
                owner,
            }
        }
    }

    /// A clone of the current map (what `FetchMap` answers with).
    pub fn map(&self) -> ClusterMap {
        self.lock().map.clone()
    }

    /// Current map version.
    pub fn map_version(&self) -> u64 {
        self.lock().map.version
    }

    /// Installs `map` if it is newer than the held one; returns whether
    /// it was adopted (a partitioned shard simply never receives the
    /// call and keeps routing by its stale map).
    pub fn install_map(&self, map: ClusterMap) -> bool {
        let mut v = self.lock();
        if map.version > v.map.version {
            v.map = map;
            // Forwarding pointers are only needed while the map still
            // (wrongly) routes the object here.
            let departed = std::mem::take(&mut v.departed);
            v.departed = departed
                .into_iter()
                .filter(|(object, _)| v.map.route(*object) == Some(self.self_id))
                .collect();
            true
        } else {
            false
        }
    }

    /// Registers a global→local object binding (ingest or migration
    /// copy-in).
    pub fn register_object(&self, object: u64, local: u64) {
        let mut v = self.lock();
        v.departed.remove(&object);
        v.objects.insert(object, local);
    }

    /// Marks `objects` as still-served-here through the handoff,
    /// although the (new) map routes them elsewhere.
    pub fn begin_handoff_out(&self, objects: impl IntoIterator<Item = u64>) {
        let mut v = self.lock();
        v.handoff_out.extend(objects);
    }

    /// Marks incoming `objects` (with their still-authoritative source
    /// shard) as not-yet-served here.
    pub fn begin_pending_in(&self, objects: impl IntoIterator<Item = (u64, u32)>) {
        let mut v = self.lock();
        v.pending_in.extend(objects);
    }

    /// Source side of the per-object flip: stop serving `object`,
    /// keeping a forwarding pointer to `target` for clients (or this
    /// shard's own stale map) that still route here. Returns the local
    /// engine id to evict, if the object was resident.
    pub fn complete_handoff_out(&self, object: u64, target: u32) -> Option<u64> {
        let mut v = self.lock();
        v.handoff_out.remove(&object);
        v.departed.insert(object, target);
        v.objects.remove(&object)
    }

    /// Target side of the flip: start serving `object`. Must run after
    /// [`complete_handoff_out`](Self::complete_handoff_out) on the
    /// source — the ordering is the `cluster-epoch-single` guarantee.
    pub fn activate_pending(&self, object: u64) {
        self.lock().pending_in.remove(&object);
    }

    /// Marks the shard drained: every future request answers
    /// `StaleMap`.
    pub fn retire(&self) {
        self.lock().retired = true;
    }

    /// `(resident objects, handoff_out, pending_in)` counts, for
    /// status displays and invariant probes.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let v = self.lock();
        (v.objects.len(), v.handoff_out.len(), v.pending_in.len())
    }

    /// Sorted global object ids resident on this shard.
    pub fn resident_objects(&self) -> Vec<u64> {
        let v = self.lock();
        let mut ids: Vec<u64> = v.objects.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The shard-local id bound to global `object`, if resident.
    pub fn local_id(&self, object: u64) -> Option<u64> {
        self.lock().objects.get(&object).copied()
    }
}

/// Cumulative [`ClusterClient`] routing counters — the load harness and
/// the CI gate read these to assert "zero routing errors".
#[derive(Debug, Default)]
pub struct ClusterClientStats {
    /// Requests answered by the first shard tried.
    pub direct_hits: AtomicU64,
    /// `WrongShard` bounces followed (each one retried at the named
    /// owner).
    pub wrong_shard_bounces: AtomicU64,
    /// `StaleMap` answers absorbed (each one forced a map refresh).
    pub stale_map_hits: AtomicU64,
    /// Map refreshes performed (fetches that adopted a newer version).
    pub map_refreshes: AtomicU64,
    /// Requests that exhausted their routing retries — the routing
    /// errors the cluster routing test requires to be zero.
    pub routing_errors: AtomicU64,
}

impl ClusterClientStats {
    fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.direct_hits.load(Ordering::Relaxed),
            self.wrong_shard_bounces.load(Ordering::Relaxed),
            self.stale_map_hits.load(Ordering::Relaxed),
            self.map_refreshes.load(Ordering::Relaxed),
            self.routing_errors.load(Ordering::Relaxed),
        )
    }
}

/// One successful cluster lookup, tagged with both epochs that scope
/// it: the shard's scaling epoch and the cluster map version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterAnswer {
    /// Shard-local scaling epoch the lookup was served at.
    pub epoch: u64,
    /// Disk count on the answering shard at that epoch.
    pub disks: u32,
    /// The block's physical disk on the answering shard.
    pub disk: u64,
    /// The shard that answered.
    pub shard: u32,
    /// The client's map version when the answer landed.
    pub map_version: u64,
}

/// Shard-aware client: routes per object by the cluster map and chases
/// `WrongShard`/`StaleMap` answers by refreshing the map and retrying.
#[derive(Debug)]
pub struct ClusterClient {
    config: ClientConfig,
    /// Routing retries per request (each bounce or refresh consumes
    /// one).
    max_hops: u32,
    state: Mutex<ClientMapState>,
    /// Routing counters (monotone; safe to read concurrently).
    pub stats: ClusterClientStats,
    tracing: Option<ClientTracing>,
}

/// Client-side distributed-trace state: the flight recorder the root
/// spans land in, plus the deterministic id stream. Trace ids are
/// `TraceContext::root(seed, sequence)` draws, so two runs with the
/// same seed issue identical traces — the harness's byte-identity
/// invariant leans on this.
#[derive(Debug)]
struct ClientTracing {
    tracer: Tracer,
    seed: u64,
    sequence: AtomicU64,
}

#[derive(Debug)]
struct ClientMapState {
    map: ClusterMap,
    clients: HashMap<u32, NetClient>,
}

impl ClusterClient {
    /// Connects by fetching the cluster map from the first responsive
    /// seed address.
    pub fn connect(seeds: &[SocketAddr]) -> Result<ClusterClient, ClientError> {
        ClusterClient::with_config(seeds, ClientConfig::default(), 8)
    }

    /// Connects with explicit per-shard client tuning and a routing
    /// retry budget.
    pub fn with_config(
        seeds: &[SocketAddr],
        config: ClientConfig,
        max_hops: u32,
    ) -> Result<ClusterClient, ClientError> {
        let mut last_err: Option<ClientError> = None;
        for seed in seeds {
            let probe = NetClient::with_config(*seed, config.clone());
            match fetch_map(&probe, 0) {
                Ok(map) => {
                    return Ok(ClusterClient {
                        config,
                        max_hops,
                        state: Mutex::new(ClientMapState {
                            map,
                            clients: HashMap::new(),
                        }),
                        stats: ClusterClientStats::default(),
                        tracing: None,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::DeadlineExceeded))
    }

    /// Turns on distributed tracing: every subsequent
    /// [`locate`](Self::locate) opens a root span in `tracer`, and every hop it sends carries
    /// the trace context in the request trailer, so the shards'
    /// continuation spans stitch into one tree with this client's root.
    /// Root ids are deterministic draws from `seed`.
    pub fn enable_tracing(&mut self, tracer: Tracer, seed: u64) {
        self.tracing = Some(ClientTracing {
            tracer,
            seed,
            sequence: AtomicU64::new(0),
        });
    }

    /// The client-side tracer, when tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracing.as_ref().map(|t| &t.tracer)
    }

    /// Opens the root span for one cluster request; `None` when
    /// tracing is off. The returned context is what every hop of the
    /// request sends on the wire.
    fn open_root(&self, name: &str) -> Option<(TraceContext, SpanGuard)> {
        let t = self.tracing.as_ref()?;
        let sequence = t.sequence.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceContext::root(t.seed, sequence);
        Some((ctx, t.tracer.span_in(name, &ctx, 0)))
    }

    /// The client's current map version.
    pub fn map_version(&self) -> u64 {
        self.lock_state().map.version
    }

    /// A clone of the client's current map.
    pub fn map(&self) -> ClusterMap {
        self.lock_state().map.clone()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ClientMapState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adopts `map` if newer; prunes clients for departed shards.
    fn adopt(&self, map: ClusterMap) -> bool {
        let mut state = self.lock_state();
        if map.version <= state.map.version {
            return false;
        }
        state
            .clients
            .retain(|id, c| map.addr_of(*id).and_then(|a| a.parse().ok()) == Some(c.addr()));
        state.map = map;
        self.stats.map_refreshes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Fetches the map from every known shard until one answers with a
    /// newer version than we hold; adopts it.
    fn refresh(&self) -> Result<(), ClientError> {
        let (have, candidates): (u64, Vec<(u32, String)>) = {
            let state = self.lock_state();
            (state.map.version, state.map.shards.clone())
        };
        let mut last_err: Option<ClientError> = None;
        for (shard, addr) in candidates {
            let Ok(sock) = addr.parse::<SocketAddr>() else {
                continue;
            };
            let _ = shard;
            let probe = NetClient::with_config(sock, self.config.clone());
            match fetch_map(&probe, have) {
                Ok(map) => {
                    if self.adopt(map) {
                        return Ok(());
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            // Every shard answered but none had a newer map: the view
            // is as fresh as the cluster's.
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Runs `op` against the client for `shard`, dialing on demand.
    fn with_shard<T>(
        &self,
        shard: u32,
        op: impl FnOnce(&NetClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let client = {
            let mut state = self.lock_state();
            let Some(addr) = state.map.addr_of(shard) else {
                return Err(ClientError::UnexpectedResponse { got: "wrong-shard" });
            };
            let sock: SocketAddr = addr.parse().map_err(|_| {
                ClientError::Io(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    format!("bad shard address `{addr}`"),
                ))
            })?;
            match state.clients.get(&shard) {
                Some(existing) if existing.addr() == sock => {}
                _ => {
                    let fresh = NetClient::with_config(sock, self.config.clone());
                    state.clients.insert(shard, fresh);
                }
            }
            // NetClient is internally synchronized but we cannot hand a
            // reference out of the mutex; requests go through a
            // per-call clone of the handle state instead. Rebuilding a
            // client is cheap (the pool is inside), so take it out,
            // call, put it back.
            state.clients.remove(&shard).expect("just inserted")
        };
        let result = op(&client);
        let mut state = self.lock_state();
        if state.map.addr_of(shard).and_then(|a| a.parse().ok()) == Some(client.addr()) {
            state.clients.insert(shard, client);
        }
        result
    }

    /// Locates one block of global object `object`, chasing routing
    /// redirects up to the hop budget.
    pub fn locate(&self, object: u64, block: u64) -> Result<ClusterAnswer, ClientError> {
        let traced = self.open_root("cluster.locate");
        let ctx = traced.as_ref().map(|(ctx, _)| *ctx);
        let mut span = traced.map(|(_, span)| span);
        if let Some(span) = span.as_mut() {
            span.event("object", object);
        }
        let mut target: Option<u32> = None;
        let mut last_err: Option<ClientError> = None;
        for hop in 0..self.max_hops {
            let (shard, version) = {
                let state = self.lock_state();
                let Some(owner) = target.take().or_else(|| state.map.route(object)) else {
                    return Err(ClientError::UnexpectedResponse { got: "stale-map" });
                };
                (owner, state.map.version)
            };
            let outcome = self.with_shard(shard, |c| {
                c.request_traced(&Frame::Locate { object, block }, ctx.as_ref())
            });
            match outcome {
                Ok(Frame::Located { epoch, disks, disk }) => {
                    if hop == 0 {
                        self.stats.direct_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(span) = span.as_mut() {
                        span.event("served-by", shard);
                        span.event("hops", hop + 1);
                    }
                    return Ok(ClusterAnswer {
                        epoch,
                        disks,
                        disk,
                        shard,
                        map_version: version,
                    });
                }
                Ok(Frame::WrongShard { map_version, owner }) => {
                    self.stats
                        .wrong_shard_bounces
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(span) = span.as_mut() {
                        span.event("wrong-shard", format!("{shard}->{owner}"));
                    }
                    if map_version > version {
                        let _ = self.refresh();
                    }
                    target = Some(owner);
                }
                Ok(Frame::StaleMap { .. }) => {
                    self.stats.stale_map_hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(span) = span.as_mut() {
                        span.event("stale-map", shard);
                    }
                    self.refresh()?;
                }
                Ok(other) => {
                    return Err(ClientError::UnexpectedResponse {
                        got: other.endpoint(),
                    })
                }
                Err(e @ ClientError::Remote { .. }) => return Err(e),
                Err(e) => {
                    // Shard unreachable (killed/restarting): a newer map
                    // may re-address it.
                    if let Some(span) = span.as_mut() {
                        span.event("unreachable", shard);
                    }
                    last_err = Some(e);
                    let _ = self.refresh();
                }
            }
        }
        self.stats.routing_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(span) = span.as_mut() {
            span.event("routing-error", self.max_hops);
        }
        Err(last_err.unwrap_or(ClientError::DeadlineExceeded))
    }

    /// `(direct, bounces, stale, refreshes, routing_errors)` counters.
    pub fn stats_snapshot(&self) -> (u64, u64, u64, u64, u64) {
        self.stats.snapshot()
    }
}

use std::io::ErrorKind;

/// Typed `FetchMap` round-trip against one shard.
pub fn fetch_map(client: &NetClient, have_version: u64) -> Result<ClusterMap, ClientError> {
    match client.request(&Frame::FetchMap { have_version })? {
        Frame::MapUpdate { version, shards } => Ok(ClusterMap { version, shards }),
        other => Err(ClientError::UnexpectedResponse {
            got: other.endpoint(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_routing_and_evolution() {
        let map = ClusterMap::new(vec![
            (0, "a:1".into()),
            (1, "b:1".into()),
            (2, "c:1".into()),
        ]);
        assert_eq!(map.version, 1);
        assert_eq!(map.len(), 3);
        for object in 0..1000u64 {
            let owner = map.route(object).unwrap();
            assert!(map.addr_of(owner).is_some());
        }
        let grown = map.add_shard(3, "d:1".into());
        assert_eq!(grown.version, 2);
        // Adding a shard only moves objects INTO the new shard.
        let mut moved = 0u64;
        for object in 0..10_000u64 {
            let before = map.route(object).unwrap();
            let after = grown.route(object).unwrap();
            if before != after {
                assert_eq!(after, 3);
                moved += 1;
            }
        }
        let frac = moved as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "moved {frac}");
        assert!((map.expected_move_fraction(&grown) - 0.25).abs() < 1e-12);

        // Removing the newest shard reverses exactly that delta.
        let shrunk = grown.remove_shard(3);
        assert_eq!(shrunk.version, 3);
        for object in 0..10_000u64 {
            assert_eq!(shrunk.route(object), map.route(object));
        }
        assert!((grown.expected_move_fraction(&shrunk) - 0.25).abs() < 1e-12);

        // Removing a middle shard re-routes every later bucket.
        let mid = map.remove_shard(1);
        let expect = map.expected_move_fraction(&mid);
        assert!((expect - 2.0 / 3.0).abs() < 1e-12);
        let moved = (0..10_000u64)
            .filter(|&o| map.route(o) != mid.route(o))
            .count();
        assert!(
            (moved as f64 / 10_000.0) <= expect + 0.03,
            "moved {moved} expected <= {expect}"
        );

        let readdr = map.readdress(1, "b:2".into());
        assert_eq!(readdr.version, 2);
        assert_eq!(map.expected_move_fraction(&readdr), 0.0);
        for object in 0..1000u64 {
            assert_eq!(readdr.route(object), map.route(object));
        }
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn reusing_a_shard_id_panics() {
        let map = ClusterMap::new(vec![(0, "a:1".into()), (5, "b:1".into())]);
        let _ = map.add_shard(3, "c:1".into());
    }

    #[test]
    fn shard_runtime_decisions_cover_the_handoff_protocol() {
        let map = ClusterMap::new(vec![(0, "a:1".into()), (1, "b:1".into())]);
        // Find an object each shard owns.
        let owned_by_0 = (0..).find(|&o| map.route(o) == Some(0)).unwrap();
        let owned_by_1 = (0..).find(|&o| map.route(o) == Some(1)).unwrap();

        let shard0 = ShardRuntime::new(0, map.clone());
        shard0.register_object(owned_by_0, 7);
        assert_eq!(shard0.decide(owned_by_0), RouteDecision::Serve(7));
        assert_eq!(
            shard0.decide(owned_by_1),
            RouteDecision::WrongShard {
                map_version: 1,
                owner: 1
            }
        );

        // Owned-but-unknown: typed as UnknownObject, not a misroute.
        let other_owned_by_0 = (owned_by_0 + 1..)
            .find(|&o| map.route(o) == Some(0))
            .unwrap();
        assert_eq!(
            shard0.decide(other_owned_by_0),
            RouteDecision::UnknownObject
        );

        // Handoff: a new shard 2 takes some of shard 0's objects.
        let grown = map.add_shard(2, "c:1".into());
        let moving = (0..5_000u64)
            .find(|&o| map.route(o) == Some(0) && grown.route(o) == Some(2))
            .unwrap();
        shard0.register_object(moving, 9);
        let shard2 = ShardRuntime::new(2, map.clone());
        assert!(shard0.install_map(grown.clone()));
        assert!(shard2.install_map(grown.clone()));
        assert!(!shard2.install_map(map.clone()), "older maps are refused");
        shard0.begin_handoff_out([moving]);
        shard2.register_object(moving, 0);
        shard2.begin_pending_in([(moving, 0u32)]);

        // Mid-handoff: source serves, target redirects to source.
        assert_eq!(shard0.decide(moving), RouteDecision::Serve(9));
        assert_eq!(
            shard2.decide(moving),
            RouteDecision::WrongShard {
                map_version: 2,
                owner: 0
            }
        );

        // Flip, source first.
        assert_eq!(shard0.complete_handoff_out(moving, 2), Some(9));
        assert_eq!(
            shard0.decide(moving),
            RouteDecision::WrongShard {
                map_version: 2,
                owner: 2
            }
        );
        shard2.activate_pending(moving);
        assert_eq!(shard2.decide(moving), RouteDecision::Serve(0));

        // A source whose map never advanced (partitioned through the
        // handoff) must forward via its departure pointer, not claim
        // the object is unknown.
        let stale_source = ShardRuntime::new(0, map.clone());
        stale_source.register_object(moving, 9);
        stale_source.begin_handoff_out([moving]);
        assert_eq!(stale_source.complete_handoff_out(moving, 2), Some(9));
        assert_eq!(
            stale_source.decide(moving),
            RouteDecision::WrongShard {
                map_version: map.version,
                owner: 2
            }
        );
        // Once a newer map routes the object elsewhere the pointer is
        // pruned but the answer stays WrongShard (now from the map).
        assert!(stale_source.install_map(grown.clone()));
        assert_eq!(
            stale_source.decide(moving),
            RouteDecision::WrongShard {
                map_version: grown.version,
                owner: 2
            }
        );

        // Retirement: everything answers StaleMap.
        shard0.retire();
        assert_eq!(
            shard0.decide(owned_by_0),
            RouteDecision::StaleMap { map_version: 2 }
        );
    }

    #[test]
    fn expected_move_fraction_worst_cases() {
        let a = ClusterMap::new(vec![(0, "a:1".into()), (1, "b:1".into())]);
        let b = ClusterMap::new(vec![(5, "x:1".into())]);
        assert_eq!(a.expected_move_fraction(&b), 1.0);
        assert_eq!(a.expected_move_fraction(&a), 0.0);
        // Removing the first bucket of n re-routes everything.
        let removed = a.remove_shard(0);
        assert_eq!(a.expected_move_fraction(&removed), 1.0);
    }
}
