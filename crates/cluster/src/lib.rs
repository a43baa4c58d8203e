//! # scaddar-cluster — N scaddard shards behind one ClusterMap
//!
//! A single `scaddard` process is the scaling ceiling: one engine, one
//! REMAP chain, one box. This crate turns capacity into a topology
//! question by partitioning the object catalog across N shards — each
//! with its **own** engine, scaling log, and health monitor — routed by
//! jump consistent hash over a versioned [`ClusterMap`]
//! (`scaddar_net::cluster`). The [`Cluster`] orchestrator here is the
//! control plane:
//!
//! * **Boot**: N in-process [`Scaddard`] shards on loopback, each bound
//!   via `bind_sharded` with a [`ShardRuntime`] routing gate.
//! * **Ingest**: objects get global ids; each lands on the shard the
//!   map names, with the global→local id binding registered in the
//!   shard's runtime. A killed owner refuses the object
//!   ([`IngestError::OwnerDown`]) until it restarts.
//! * **Scale out/in**: [`Cluster::add_shard`] / [`Cluster::remove_shard`]
//!   migrate exactly the jump-hash delta — copy-in gated by
//!   `pending_in`, old owner serving through `handoff_out`, then a
//!   source-first flip per object, rate-limited in batches with
//!   `cmsim`'s online executor ticking between batches. Both owners are
//!   alive throughout; no object is ever served from two cluster
//!   epochs at once.
//! * **Faults**: [`Cluster::kill`] (quiesce, snapshot, drop the
//!   daemon), [`Cluster::restart`] (restore from snapshot, rebind on a
//!   fresh port, publish a re-addressed map), and
//!   [`Cluster::partition`] (the shard stops receiving map installs —
//!   its data plane keeps serving by its stale map, which is exactly
//!   the stale-client retry-storm scenario).
//!
//! Every step appends to an [`EventLog`] stamped by the injected
//! [`Clock`], so a harness run under a virtual clock produces
//! byte-identical JSONL per seed. Per-shard facts are mirrored into a
//! cluster [`Registry`] as inline-labeled series
//! (`cluster_shard_objects{shard="2"}`), read back with
//! `gauges_with_prefix`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federate;

pub use federate::{FleetAggregator, FleetSnapshot, ShardCompaction, ShardScrape};

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_monitor::Severity;
use scaddar_net::{ClusterMap, Frame, NetClient, NetServerConfig, Scaddard, ShardRuntime};
use scaddar_obs::{Clock, EventLog, Gauge, MonotonicClock, Registry, Tracer};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Tuning for [`Cluster::boot`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial shard count.
    pub shards: u32,
    /// Disks per shard engine (`N_0` for each shard's own REMAP chain).
    pub disks_per_shard: u32,
    /// Blocks per ingested object.
    pub blocks_per_object: u64,
    /// Base catalog seed; shard `i` uses `seed + i` so placements
    /// differ per shard while staying deterministic.
    pub catalog_seed: u64,
    /// Objects flipped per migration batch; the executor ticks every
    /// shard between batches, which is what rate-limits a scale-out to
    /// the paper's online discipline instead of a stop-the-world copy.
    pub migration_batch: usize,
    /// Net tuning for every shard daemon.
    pub net: NetServerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 3,
            disks_per_shard: 4,
            blocks_per_object: 2_000,
            catalog_seed: 42,
            migration_batch: 8,
            net: NetServerConfig::default(),
        }
    }
}

/// What one shard answered when probed directly (bypassing routing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeResult {
    /// The shard served the lookup: `(epoch, disks, disk)`.
    Served(u64, u32, u64),
    /// The shard redirected to `owner` at `map_version`.
    WrongShard {
        /// Piggybacked map version.
        map_version: u64,
        /// The shard it named as owner.
        owner: u32,
    },
    /// The shard declared itself out of the serving set.
    Stale,
    /// A typed server error (e.g. unknown object on the owner).
    Error(String),
    /// The shard did not answer (killed, draining, or unreachable).
    Unreachable,
}

/// Why [`Cluster::add_object`] ingested nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The owning shard is killed and not yet restarted.
    OwnerDown(u32),
    /// Any other failure: an empty map or the engine's refusal.
    Failed(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::OwnerDown(owner) => write!(f, "owner shard {owner} is down"),
            IngestError::Failed(why) => f.write_str(why),
        }
    }
}

/// One completed topology change and exactly what it moved — the
/// record the `cluster-migration-delta` invariant audits.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Map before the change.
    pub from: ClusterMap,
    /// Map after the change.
    pub to: ClusterMap,
    /// `(object, source shard, target shard)` for every migrated
    /// object, in migration order.
    pub moved: Vec<(u64, u32, u32)>,
    /// Global objects resident when the change began.
    pub population: u64,
}

struct Shard {
    id: u32,
    daemon: Option<Scaddard>,
    server: Arc<SharedServer>,
    runtime: Arc<ShardRuntime>,
    addr: SocketAddr,
    tracer: Tracer,
    partitioned: bool,
    objects_gauge: Gauge,
}

/// The in-process cluster orchestrator: N loopback shards, the
/// authoritative map, and the migration/fault machinery.
pub struct Cluster {
    config: ClusterConfig,
    map: ClusterMap,
    shards: BTreeMap<u32, Shard>,
    /// Retired shards kept bound so stale clients get `StaleMap`.
    retired: Vec<Shard>,
    /// Global object id → block count.
    objects: BTreeMap<u64, u64>,
    next_shard_id: u32,
    next_object_id: u64,
    clock: Arc<dyn Clock>,
    registry: Registry,
    events: EventLog,
    migrations: Vec<MigrationRecord>,
    map_version_gauge: Gauge,
}

impl Cluster {
    /// Boots `config.shards` shards on loopback and publishes the
    /// version-1 map to all of them.
    pub fn boot(config: ClusterConfig) -> Result<Cluster, String> {
        Cluster::boot_with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// [`boot`](Self::boot) with an injected clock — a virtual clock
    /// makes the event log byte-identical per seed.
    pub fn boot_with_clock(
        config: ClusterConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Cluster, String> {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let registry = Registry::new();
        let events = EventLog::new(clock.clone());
        let mut cluster = Cluster {
            map: ClusterMap {
                version: 0,
                shards: Vec::new(),
            },
            shards: BTreeMap::new(),
            retired: Vec::new(),
            objects: BTreeMap::new(),
            next_shard_id: 0,
            next_object_id: 0,
            clock,
            map_version_gauge: registry.gauge(
                "cluster_map_version",
                "Current cluster map version (the cluster epoch)",
            ),
            registry,
            events,
            migrations: Vec::new(),
            config,
        };
        // Boot every initial shard with a placeholder map, then publish
        // the real version-1 map once all addresses are known.
        let mut entries = Vec::new();
        for _ in 0..cluster.config.shards {
            let id = cluster.next_shard_id;
            cluster.next_shard_id += 1;
            let shard = cluster.boot_shard(
                id,
                ClusterMap {
                    version: 0,
                    shards: Vec::new(),
                },
            )?;
            entries.push((id, shard.addr.to_string()));
            cluster.shards.insert(id, shard);
        }
        cluster.map = ClusterMap::new(entries);
        cluster.publish_map();
        cluster.events.emit(
            "cluster-boot",
            [
                ("shards", cluster.config.shards.to_string()),
                ("map_version", cluster.map.version.to_string()),
            ],
        );
        Ok(cluster)
    }

    fn boot_shard(&self, id: u32, map: ClusterMap) -> Result<Shard, String> {
        let server = CmServer::new(
            ServerConfig::new(self.config.disks_per_shard)
                .with_catalog_seed(self.config.catalog_seed + u64::from(id)),
        )
        .map_err(|e| format!("shard {id}: {e}"))?;
        self.bind_shard(id, Arc::new(SharedServer::new(server)), map)
    }

    fn bind_shard(
        &self,
        id: u32,
        server: Arc<SharedServer>,
        map: ClusterMap,
    ) -> Result<Shard, String> {
        let runtime = Arc::new(ShardRuntime::new(id, map));
        self.bind_shard_with_runtime(id, server, runtime)
    }

    fn bind_shard_with_runtime(
        &self,
        id: u32,
        server: Arc<SharedServer>,
        runtime: Arc<ShardRuntime>,
    ) -> Result<Shard, String> {
        let registry = Registry::new();
        // 256 spans: enough that one harness load step (≤ 24 lookups ×
        // the 8-hop budget) cannot evict its own trace before the
        // trace-complete check reads it back.
        let tracer = Tracer::new(self.clock.clone(), 256);
        let daemon = Scaddard::bind_sharded(
            "127.0.0.1:0",
            Arc::clone(&server),
            self.config.net.clone(),
            &registry,
            tracer.clone(),
            Arc::clone(&runtime),
        )
        .map_err(|e| format!("shard {id} bind: {e}"))?;
        let addr = daemon.local_addr();
        let objects_gauge = self.registry.gauge(
            &format!("cluster_shard_objects{{shard=\"{id}\"}}"),
            "Objects resident per shard",
        );
        Ok(Shard {
            id,
            daemon: Some(daemon),
            server,
            runtime,
            addr,
            tracer,
            partitioned: false,
            objects_gauge,
        })
    }

    /// Installs the orchestrator's current map on every live,
    /// non-partitioned shard (the propagation step a partition blocks).
    fn publish_map(&mut self) {
        self.map_version_gauge.set(self.map.version as i64);
        for shard in self.shards.values() {
            if shard.partitioned || shard.daemon.is_none() {
                continue;
            }
            shard.runtime.install_map(self.map.clone());
        }
    }

    fn sync_occupancy_gauges(&self) {
        for shard in self.shards.values() {
            let (objects, _, _) = shard.runtime.occupancy();
            shard.objects_gauge.set(objects as i64);
        }
    }

    // ---- read-side accessors ----

    /// The orchestrator's authoritative map.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    /// The cluster-level registry (per-shard labeled series).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Every completed migration, oldest first.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Live (bound, non-retired) shard ids.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.keys().copied().collect()
    }

    /// The bound address of `shard`, if it is up.
    pub fn addr(&self, shard: u32) -> Option<SocketAddr> {
        let s = self.shards.get(&shard)?;
        s.daemon.is_some().then_some(s.addr)
    }

    /// Seed addresses for a [`scaddar_net::ClusterClient`].
    pub fn seeds(&self) -> Vec<SocketAddr> {
        self.shards
            .values()
            .filter(|s| s.daemon.is_some() && !s.partitioned)
            .map(|s| s.addr)
            .collect()
    }

    /// Global ids of every resident object, ascending.
    pub fn object_ids(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    /// Block count of `object`, if resident.
    pub fn object_blocks(&self, object: u64) -> Option<u64> {
        self.objects.get(&object).copied()
    }

    /// Worst health verdict across every live shard's monitor.
    pub fn health_verdict(&self) -> Severity {
        Severity::worst(
            self.shards
                .values()
                .filter_map(|s| s.daemon.as_ref().map(|d| d.health_verdict())),
        )
    }

    /// One human-readable status line per shard.
    pub fn status(&self) -> String {
        let mut out = format!(
            "cluster: map v{} | {} shards | {} objects\n",
            self.map.version,
            self.shards.len(),
            self.objects.len()
        );
        for shard in self.shards.values() {
            let (objects, handoff, pending) = shard.runtime.occupancy();
            let state = if shard.daemon.is_none() {
                "down"
            } else if shard.partitioned {
                "partitioned"
            } else {
                "up"
            };
            out.push_str(&format!(
                "  shard {} @ {} [{state}] map v{} objects={objects} handoff={handoff} pending={pending}\n",
                shard.id,
                shard.addr,
                shard.runtime.map_version(),
            ));
        }
        out
    }

    // ---- data plane ----

    /// Ingests one object of `blocks` blocks on the shard the map
    /// names; returns its global id. A killed owner refuses it, and the
    /// id stays free for the next attempt: the restart restores the
    /// kill-time snapshot, which would not hold the object.
    pub fn add_object(&mut self, blocks: u64) -> Result<u64, IngestError> {
        let gid = self.next_object_id;
        let owner = self
            .map
            .route(gid)
            .ok_or_else(|| IngestError::Failed("empty cluster map".into()))?;
        let shard = self
            .shards
            .get(&owner)
            .ok_or_else(|| IngestError::Failed(format!("owner shard {owner} missing")))?;
        if shard.daemon.is_none() {
            return Err(IngestError::OwnerDown(owner));
        }
        let local = shard
            .server
            .add_object(blocks)
            .map_err(|e| IngestError::Failed(format!("shard {owner}: {e}")))?;
        shard.runtime.register_object(gid, local.0);
        self.next_object_id += 1;
        self.objects.insert(gid, blocks);
        self.sync_occupancy_gauges();
        Ok(gid)
    }

    /// Ingests `count` objects of the configured size.
    pub fn populate(&mut self, count: u64) -> Result<(), String> {
        for _ in 0..count {
            self.add_object(self.config.blocks_per_object)
                .map_err(|e| e.to_string())?;
        }
        self.events.emit(
            "populate",
            [
                ("objects", count.to_string()),
                ("total", self.objects.len().to_string()),
            ],
        );
        Ok(())
    }

    /// Advances `rounds` service rounds on every live shard (drains
    /// redistribution backlogs).
    pub fn tick_all(&self, rounds: u32) {
        for shard in self.shards.values() {
            if shard.daemon.is_some() {
                for _ in 0..rounds {
                    shard.server.tick();
                }
            }
        }
    }

    /// Probes every live shard directly for `(object, block)` —
    /// bypassing client routing — and reports what each answered. The
    /// `cluster-epoch-single` invariant asserts at most one `Served`.
    pub fn probe_object(&self, object: u64, block: u64) -> Vec<(u32, ProbeResult)> {
        let mut results = Vec::new();
        for shard in self.shards.values().chain(self.retired.iter()) {
            if shard.daemon.is_none() {
                results.push((shard.id, ProbeResult::Unreachable));
                continue;
            }
            let client = NetClient::connect(shard.addr);
            let result = match client.request(&Frame::Locate { object, block }) {
                Ok(Frame::Located { epoch, disks, disk }) => {
                    ProbeResult::Served(epoch, disks, disk)
                }
                Ok(Frame::WrongShard { map_version, owner }) => {
                    ProbeResult::WrongShard { map_version, owner }
                }
                Ok(Frame::StaleMap { .. }) => ProbeResult::Stale,
                Ok(other) => ProbeResult::Error(format!("unexpected {}", other.endpoint())),
                Err(scaddar_net::ClientError::Remote { code, message }) => {
                    let _ = code;
                    ProbeResult::Error(message)
                }
                Err(_) => ProbeResult::Unreachable,
            };
            results.push((shard.id, result));
        }
        results
    }

    // ---- topology changes ----

    /// The jump-hash delta between two maps over the current catalog:
    /// `(object, old owner, new owner)` per re-routed object.
    fn route_delta(&self, from: &ClusterMap, to: &ClusterMap) -> Vec<(u64, u32, u32)> {
        self.objects
            .keys()
            .filter_map(|&gid| {
                let old = from.route(gid)?;
                let new = to.route(gid)?;
                (old != new).then_some((gid, old, new))
            })
            .collect()
    }

    /// Executes a map transition: copies the delta in (gated), marks
    /// handoffs, publishes the new map, then flips object-by-object in
    /// rate-limited batches, ticking every shard between batches.
    fn migrate_to(&mut self, next: ClusterMap) -> Result<MigrationRecord, String> {
        let from = self.map.clone();
        let delta = self.route_delta(&from, &next);
        let population = self.objects.len() as u64;

        // Phase 1: copy every moving object into its new owner, gated
        // by `pending_in` (the target refuses to serve it), and mark
        // the source still-authoritative via `handoff_out`. All before
        // any shard sees the new map.
        for &(gid, source, target) in &delta {
            let blocks = self.objects[&gid];
            let t = self
                .shards
                .get(&target)
                .ok_or_else(|| format!("target shard {target} missing"))?;
            let local = t
                .server
                .add_object(blocks)
                .map_err(|e| format!("copy {gid} -> shard {target}: {e}"))?;
            t.runtime.register_object(gid, local.0);
            t.runtime.begin_pending_in([(gid, source)]);
            if let Some(s) = self.shards.get(&source) {
                s.runtime.begin_handoff_out([gid]);
            }
        }

        // Phase 2: publish. From here clients route by the new map;
        // moving objects bounce `WrongShard{owner: source}` off the
        // target until their flip below.
        self.map = next.clone();
        self.publish_map();
        self.events.emit(
            "map-published",
            [
                ("map_version", next.version.to_string()),
                ("delta", delta.len().to_string()),
            ],
        );

        // Phase 3: flip in batches, source strictly first per object,
        // with the online executor draining between batches — the
        // rate limit that keeps migration from starving service.
        let mut moved = Vec::with_capacity(delta.len());
        for batch in delta.chunks(self.config.migration_batch.max(1)) {
            for &(gid, source, target) in batch {
                if let Some(s) = self.shards.get(&source) {
                    if let Some(local) = s.runtime.complete_handoff_out(gid, target) {
                        s.server
                            .remove_object(scaddar_core::ObjectId(local))
                            .map_err(|e| format!("evict {gid} from shard {source}: {e}"))?;
                    }
                }
                if let Some(t) = self.shards.get(&target) {
                    t.runtime.activate_pending(gid);
                }
                moved.push((gid, source, target));
            }
            self.tick_all(1);
            self.events.emit(
                "migration-batch",
                [
                    ("flipped", batch.len().to_string()),
                    ("total", moved.len().to_string()),
                ],
            );
        }
        let record = MigrationRecord {
            from,
            to: next,
            moved,
            population,
        };
        self.migrations.push(record.clone());
        self.sync_occupancy_gauges();
        Ok(record)
    }

    /// Scales out: boots a fresh shard (next id, last jump bucket) and
    /// migrates exactly the jump-hash delta onto it. Returns the new
    /// shard id and the migration record.
    pub fn add_shard(&mut self) -> Result<(u32, MigrationRecord), String> {
        let id = self.next_shard_id;
        self.next_shard_id += 1;
        let shard = self.boot_shard(id, self.map.clone())?;
        let next = self.map.add_shard(id, shard.addr.to_string());
        self.shards.insert(id, shard);
        self.events.emit(
            "shard-add",
            [
                ("shard", id.to_string()),
                ("map_version", next.version.to_string()),
            ],
        );
        let record = self.migrate_to(next)?;
        Ok((id, record))
    }

    /// Scales in: drains `shard` (migrating its residents — and any
    /// bucket-shifted objects — to their new owners), retires it so
    /// stale clients get `StaleMap`, and keeps it bound until
    /// [`shutdown`](Self::shutdown).
    pub fn remove_shard(&mut self, shard: u32) -> Result<MigrationRecord, String> {
        if !self.shards.contains_key(&shard) {
            return Err(format!("shard {shard} not in cluster"));
        }
        if self.shards.len() <= 1 {
            return Err("cannot remove the last shard".to_string());
        }
        let next = self.map.remove_shard(shard);
        self.events.emit(
            "shard-remove",
            [
                ("shard", shard.to_string()),
                ("map_version", next.version.to_string()),
            ],
        );
        let record = self.migrate_to(next)?;
        let drained = self.shards.remove(&shard).expect("checked above");
        drained.runtime.install_map(self.map.clone());
        drained.runtime.retire();
        self.retired.push(drained);
        Ok(record)
    }

    // ---- faults ----

    /// Kills `shard`: quiesces its executor, snapshots placement
    /// metadata, and drops the daemon (connections die). Returns the
    /// snapshot [`restart`](Self::restart) rejoins from.
    pub fn kill(&mut self, shard: u32) -> Result<Vec<u8>, String> {
        let s = self
            .shards
            .get_mut(&shard)
            .ok_or_else(|| format!("shard {shard} not in cluster"))?;
        let daemon = s
            .daemon
            .take()
            .ok_or_else(|| format!("shard {shard} already down"))?;
        // Quiesce: a snapshot mid-redistribution would teleport
        // in-transit blocks on restore.
        while s.server.backlog() > 0 {
            s.server.tick();
        }
        let snapshot = s
            .server
            .with_read(|srv| srv.snapshot())
            .map_err(|e| format!("shard {shard} snapshot: {e}"))?;
        daemon.shutdown();
        self.events.emit(
            "shard-kill",
            [
                ("shard", shard.to_string()),
                ("snapshot_bytes", snapshot.len().to_string()),
            ],
        );
        Ok(snapshot)
    }

    /// Restarts a killed shard from its snapshot on a **fresh** port,
    /// publishes the re-addressed map (version bump), and leaves the
    /// shard serving exactly what it served before the kill.
    pub fn restart(&mut self, shard: u32, snapshot: &[u8]) -> Result<(), String> {
        let s = self
            .shards
            .get(&shard)
            .ok_or_else(|| format!("shard {shard} not in cluster"))?;
        if s.daemon.is_some() {
            return Err(format!("shard {shard} is already up"));
        }
        let server = CmServer::restore(
            ServerConfig::new(self.config.disks_per_shard)
                .with_catalog_seed(self.config.catalog_seed + u64::from(shard)),
            snapshot,
        )
        .map_err(|e| format!("shard {shard} restore: {e}"))?;
        let runtime = Arc::clone(&s.runtime);
        let fresh =
            self.bind_shard_with_runtime(shard, Arc::new(SharedServer::new(server)), runtime)?;
        let addr = fresh.addr;
        let partitioned = s.partitioned;
        let mut fresh = fresh;
        fresh.partitioned = partitioned;
        self.shards.insert(shard, fresh);
        self.map = self.map.readdress(shard, addr.to_string());
        self.publish_map();
        self.events.emit(
            "shard-restart",
            [
                ("shard", shard.to_string()),
                ("map_version", self.map.version.to_string()),
            ],
        );
        Ok(())
    }

    /// Partitions `shard` from the control plane: it keeps serving by
    /// whatever map it holds, but receives no further installs.
    pub fn partition(&mut self, shard: u32) -> Result<(), String> {
        let s = self
            .shards
            .get_mut(&shard)
            .ok_or_else(|| format!("shard {shard} not in cluster"))?;
        s.partitioned = true;
        self.events
            .emit("shard-partition", [("shard", shard.to_string())]);
        Ok(())
    }

    /// Heals a partition: the shard rejoins the control plane and
    /// immediately receives the current map.
    pub fn heal(&mut self, shard: u32) -> Result<(), String> {
        let s = self
            .shards
            .get_mut(&shard)
            .ok_or_else(|| format!("shard {shard} not in cluster"))?;
        s.partitioned = false;
        if s.daemon.is_some() {
            s.runtime.install_map(self.map.clone());
        }
        self.events
            .emit("shard-heal", [("shard", shard.to_string())]);
        Ok(())
    }

    /// Per-shard span flight recorders — each shard daemon's
    /// continuation spans land here. Concatenate
    /// [`Tracer::spans_for_trace`] across shards (plus the client's
    /// tracer) to stitch one distributed trace.
    pub fn shard_tracer(&self, shard: u32) -> Option<&Tracer> {
        self.shards.get(&shard).map(|s| &s.tracer)
    }

    /// The injected clock every shard (and the event log) reads.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// `(shard id, net address)` scrape targets for a
    /// [`federate::FleetAggregator`] — every live shard, partitioned
    /// ones included (a partition blocks map installs, not the data
    /// plane, and the aggregator must see the stale shard's stats).
    pub fn scrape_targets(&self) -> Vec<(u32, SocketAddr)> {
        self.shards
            .values()
            .filter(|s| s.daemon.is_some())
            .map(|s| (s.id, s.addr))
            .collect()
    }

    /// Consistency audit: every shard's runtime bindings resolve in its
    /// engine, and every global object is resident exactly once across
    /// live shards (handoff gates counted as single residency).
    pub fn residency_consistent(&self) -> Result<(), String> {
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for shard in self.shards.values() {
            for gid in shard.runtime.resident_objects() {
                let local = shard.runtime.local_id(gid).expect("just listed");
                shard
                    .server
                    .with_read(|s| {
                        s.placement()
                            .locate_batch(scaddar_core::ObjectId(local), &[0])
                            .map(|_| ())
                    })
                    .map_err(|e| format!("shard {} object {gid}: {e}", shard.id))?;
                // An object may be resident on two shards only while
                // one side is gated (pending_in on the target or
                // handoff_out on the source).
                if let Some(prev) = seen.insert(gid, shard.id) {
                    let (_, handoff, pending) = shard.runtime.occupancy();
                    if handoff == 0 && pending == 0 {
                        return Err(format!(
                            "object {gid} resident on shards {prev} and {} with no handoff gate",
                            shard.id
                        ));
                    }
                }
            }
        }
        for &gid in self.objects.keys() {
            if !seen.contains_key(&gid) {
                return Err(format!("object {gid} resident nowhere"));
            }
        }
        Ok(())
    }

    /// Graceful teardown of every live and retired shard.
    pub fn shutdown(mut self) {
        for (_, mut shard) in std::mem::take(&mut self.shards) {
            if let Some(daemon) = shard.daemon.take() {
                daemon.shutdown();
            }
        }
        for mut shard in std::mem::take(&mut self.retired) {
            if let Some(daemon) = shard.daemon.take() {
                daemon.shutdown();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for shard in self.shards.values_mut().chain(self.retired.iter_mut()) {
            if let Some(daemon) = shard.daemon.take() {
                daemon.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_net::ClusterClient;

    fn small() -> ClusterConfig {
        ClusterConfig {
            shards: 3,
            blocks_per_object: 200,
            migration_batch: 4,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn boot_populate_and_route() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(30).unwrap();
        assert_eq!(cluster.map().version, 1);
        cluster.residency_consistent().unwrap();

        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            let answer = client.locate(gid, 0).unwrap();
            assert_eq!(Some(answer.shard), cluster.map().route(gid));
            assert!(answer.disk < u64::from(answer.disks));
        }
        let (_, bounces, stale, _, errors) = client.stats_snapshot();
        assert_eq!((bounces, stale, errors), (0, 0, 0));
        cluster.shutdown();
    }

    #[test]
    fn add_shard_migrates_only_the_jump_delta() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(60).unwrap();
        let before = cluster.map().clone();
        let (id, record) = cluster.add_shard().unwrap();
        assert_eq!(id, 3);
        assert_eq!(record.to.version, 2);
        // Every moved object landed on the new shard, and the moved set
        // is exactly the jump-hash delta.
        for &(gid, _, target) in &record.moved {
            assert_eq!(target, id);
            assert_ne!(before.route(gid), record.to.route(gid));
        }
        let predicted: Vec<u64> = cluster
            .object_ids()
            .into_iter()
            .filter(|&gid| before.route(gid) != record.to.route(gid))
            .collect();
        let mut moved: Vec<u64> = record.moved.iter().map(|m| m.0).collect();
        moved.sort_unstable();
        assert_eq!(moved, predicted);
        cluster.residency_consistent().unwrap();

        // And the cluster still serves everything, routed to the new
        // owners.
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            let answer = client.locate(gid, 1).unwrap();
            assert_eq!(Some(answer.shard), cluster.map().route(gid));
        }
        cluster.shutdown();
    }

    #[test]
    fn remove_shard_drains_and_retires() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(40).unwrap();
        let victim = 2;
        let before = cluster.map().clone();
        let record = cluster.remove_shard(victim).unwrap();
        assert!(record
            .moved
            .iter()
            .all(|&(gid, _, to)| before.route(gid) != record.to.route(gid) && to != victim));
        cluster.residency_consistent().unwrap();
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            let answer = client.locate(gid, 0).unwrap();
            assert_ne!(answer.shard, victim);
        }
        cluster.shutdown();
    }

    #[test]
    fn kill_restart_rejoins_with_identical_placement() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(24).unwrap();
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        let victim = 1;
        let victims: Vec<u64> = cluster
            .object_ids()
            .into_iter()
            .filter(|&gid| cluster.map().route(gid) == Some(victim))
            .collect();
        assert!(!victims.is_empty());
        let before: Vec<_> = victims
            .iter()
            .map(|&gid| client.locate(gid, 3).unwrap())
            .collect();

        let snapshot = cluster.kill(victim).unwrap();
        assert!(cluster.addr(victim).is_none());
        cluster.restart(victim, &snapshot).unwrap();
        assert_eq!(cluster.map().version, 2, "restart re-addresses the map");

        // Same placements after the rejoin: snapshot/restore preserved
        // the shard's REMAP chain, and the client chased the re-address
        // through a map refresh.
        for (gid, old) in victims.iter().zip(before) {
            let new = client.locate(*gid, 3).unwrap();
            assert_eq!(
                (new.epoch, new.disks, new.disk),
                (old.epoch, old.disks, old.disk)
            );
            assert_eq!(new.shard, victim);
        }
        let (_, _, _, refreshes, errors) = client.stats_snapshot();
        assert!(refreshes >= 1, "rejoin must be discovered via refresh");
        assert_eq!(errors, 0);
        cluster.shutdown();
    }

    #[test]
    fn a_killed_owner_refuses_ingest_and_keeps_the_id_free() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(12).unwrap();
        let next = cluster.object_ids().len() as u64;
        let owner = cluster.map().route(next).unwrap();
        let snapshot = cluster.kill(owner).unwrap();
        assert_eq!(cluster.add_object(200), Err(IngestError::OwnerDown(owner)));
        assert_eq!(cluster.object_ids().len() as u64, next, "no id consumed");
        cluster.restart(owner, &snapshot).unwrap();
        cluster.residency_consistent().unwrap();
        assert_eq!(cluster.add_object(200), Ok(next));
        cluster.residency_consistent().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn epoch_single_holds_during_migration_probes() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(40).unwrap();
        let (_, record) = cluster.add_shard().unwrap();
        // Post-migration, every moved object is served by exactly one
        // shard; the old owner redirects.
        for &(gid, source, target) in record.moved.iter().take(10) {
            let probes = cluster.probe_object(gid, 0);
            let served: Vec<u32> = probes
                .iter()
                .filter(|(_, r)| matches!(r, ProbeResult::Served(..)))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(served, vec![target], "object {gid} (was on {source})");
        }
        cluster.shutdown();
    }

    #[test]
    fn partitioned_shard_keeps_its_stale_map() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(30).unwrap();
        cluster.partition(0).unwrap();
        let v_before = cluster.shards[&0].runtime.map_version();
        let (_, _record) = cluster.add_shard().unwrap();
        assert_eq!(
            cluster.shards[&0].runtime.map_version(),
            v_before,
            "partitioned shard must not learn the new map"
        );
        assert!(cluster.map().version > v_before);
        cluster.heal(0).unwrap();
        assert_eq!(
            cluster.shards[&0].runtime.map_version(),
            cluster.map().version
        );
        cluster.shutdown();
    }
}
