//! Metrics federation: one aggregator pulling every shard's registry
//! over the wire, folded into a fleet-wide view.
//!
//! Each shard answers `ScrapeStats` with a [`RegistrySnapshot`] of its
//! whole registry plus its scaling epoch and health verdict — one RPC
//! carries everything a fleet dashboard needs. The
//! [`FleetAggregator`] here dials each target, keeps the **last
//! successful** scrape per shard (an unreachable shard stays visible,
//! marked stale, instead of vanishing from the fleet view), and folds
//! the snapshots into a fleet [`Registry`] with
//! [`Registry::absorb`]: counters and gauges sum, histograms merge
//! **bucket-wise** — so fleet percentiles are computed over the merged
//! distribution, never averaged across shards' percentiles.
//!
//! The aggregator is also the fleet's SLO feed: scrape-to-scrape
//! counter deltas (requests / errors / slower-than-objective, the last
//! via [`HistogramSnapshot::count_over`] on the merged buckets) go
//! into a [`SloTracker`] and through the hysteresis rule engine in
//! `scaddar-monitor`, so burn-rate alerts fire from federated data —
//! the same numbers the dashboard shows.
//!
//! [`HistogramSnapshot::count_over`]: scaddar_obs::HistogramSnapshot::count_over
//! [`SloTracker`]: scaddar_obs::slo::SloTracker

use scaddar_monitor::{HealthEvent, Severity, SloMonitor};
use scaddar_net::{ClientConfig, NetClient};
use scaddar_obs::slo::SloTracker;
use scaddar_obs::{Clock, EventLog, ProfileSnapshot, Registry, RegistrySnapshot, Tracer};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// The aggregator's record of one shard: the last snapshot it managed
/// to pull, and whether the most recent round reached the shard.
#[derive(Debug, Clone)]
pub struct ShardScrape {
    /// Shard id (from the cluster map).
    pub shard: u32,
    /// Address the scrape dialed.
    pub addr: SocketAddr,
    /// Whether the most recent scrape round reached the shard.
    pub reachable: bool,
    /// Shard scaling epoch at the last successful scrape.
    pub epoch: u64,
    /// Shard health verdict at the last successful scrape
    /// (0 ok / 1 warn / 2 crit).
    pub verdict: u8,
    /// The last successfully pulled registry snapshot (empty if the
    /// shard has never answered).
    pub snapshot: RegistrySnapshot,
    /// Clock reading of the last successful scrape; 0 = never.
    pub scraped_at_ns: u64,
}

impl ShardScrape {
    /// How old this shard's data is as of `now` — 0 for a shard that
    /// answered the latest round, `now` for one that never answered.
    pub fn staleness_ns(&self, now: u64) -> u64 {
        now.saturating_sub(self.scraped_at_ns)
    }

    /// Sum of per-endpoint request counters in the snapshot.
    pub fn requests_total(&self) -> u64 {
        self.snapshot
            .counters
            .iter()
            .filter(|c| c.name.starts_with("net_server_requests_total{"))
            .map(|c| c.value)
            .sum()
    }

    /// p99 over the bucket-wise merge of the shard's per-endpoint
    /// request latency histograms.
    pub fn request_p99(&self) -> Option<u64> {
        merged_request_p99(&self.snapshot)
    }

    /// The shard's rehash-compaction state per its last snapshot —
    /// `None` for shards that never exported the compaction gauges
    /// (engines without stats attached).
    pub fn compaction(&self) -> Option<ShardCompaction> {
        let gauge = |name: &str| self.snapshot.gauge_value(name).map(|v| v.max(0) as u64);
        Some(ShardCompaction {
            active: gauge("cmsim_compaction_active")? == 1,
            generation: gauge("cmsim_compaction_generation")?,
            target_generation: gauge("cmsim_compaction_target_generation")?,
            remaining_blocks: gauge("cmsim_compaction_remaining_blocks")?,
            total_blocks: gauge("cmsim_compaction_total_blocks")?,
        })
    }
}

/// One shard's rehash-compaction state, decoded from the
/// `cmsim_compaction_*` gauges in its scraped snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCompaction {
    /// True while a compaction migration is in flight on the shard.
    pub active: bool,
    /// The shard's serving placement generation.
    pub generation: u64,
    /// The generation an in-flight compaction is migrating toward.
    pub target_generation: u64,
    /// Blocks the in-flight compaction has not yet migrated.
    pub remaining_blocks: u64,
    /// Blocks the in-flight compaction must account for.
    pub total_blocks: u64,
}

impl ShardCompaction {
    /// Migrated fraction in `[0, 1]` (1.0 when idle or empty).
    pub fn fraction(&self) -> f64 {
        if !self.active || self.total_blocks == 0 {
            1.0
        } else {
            1.0 - self.remaining_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Renders like `gen 2 compacting ->3 41%` or `gen 2` when idle.
    pub fn render(&self) -> String {
        if self.active {
            format!(
                "gen {} compacting ->{} {:.0}%",
                self.generation,
                self.target_generation,
                self.fraction() * 100.0
            )
        } else {
            format!("gen {}", self.generation)
        }
    }
}

/// One federation round's fleet view: every known shard's last scrape,
/// stamped with the round's clock reading.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Clock reading when the round finished.
    pub at_ns: u64,
    /// Per-shard scrapes, ascending by shard id.
    pub shards: Vec<ShardScrape>,
}

impl FleetSnapshot {
    /// The scrape record for `shard`, if known.
    pub fn shard(&self, shard: u32) -> Option<&ShardScrape> {
        self.shards.iter().find(|s| s.shard == shard)
    }

    /// Shards the latest round failed to reach, ascending.
    pub fn unreachable_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .filter(|s| !s.reachable)
            .map(|s| s.shard)
            .collect()
    }

    /// Folds every shard's last snapshot into one fleet registry:
    /// counters and gauges sum across shards, histograms merge
    /// bucket-wise. Per-shard `fleet_shard_*` gauges (up, epoch,
    /// verdict, staleness) ride along so one scrape of the aggregator
    /// exposes both the fleet totals and each member's liveness.
    pub fn fleet_registry(&self) -> Registry {
        let fleet = Registry::new();
        // Histograms merge bucket-wise, which is only sound when both
        // sides agree on the bucket boundaries. A shard built with a
        // different layout (its snapshot carries a mismatched — or no —
        // `obs_bucket_layout` fingerprint) still folds its counters and
        // gauges, but its histogram series are skipped and counted.
        let mut skipped = 0u64;
        for s in &self.shards {
            if s.scraped_at_ns > 0 {
                skipped += fleet.absorb_checked(&s.snapshot);
            }
            let shard = s.shard;
            fleet
                .gauge(
                    &format!("fleet_shard_up{{shard=\"{shard}\"}}"),
                    "1 when the latest federation round reached the shard",
                )
                .set(i64::from(s.reachable));
            fleet
                .gauge(
                    &format!("fleet_shard_epoch{{shard=\"{shard}\"}}"),
                    "Shard scaling epoch at its last successful scrape",
                )
                .set(s.epoch as i64);
            fleet
                .gauge(
                    &format!("fleet_shard_verdict{{shard=\"{shard}\"}}"),
                    "Shard health verdict at its last successful scrape",
                )
                .set(i64::from(s.verdict));
            fleet
                .gauge(
                    &format!("fleet_shard_staleness_ns{{shard=\"{shard}\"}}"),
                    "Age of the shard's data as of the latest round",
                )
                .set(s.staleness_ns(self.at_ns).min(i64::MAX as u64) as i64);
        }
        fleet
            .counter(
                "fleet_merge_skipped_total",
                "Histogram series skipped for mismatched bucket layouts",
            )
            .add(skipped);
        fleet
            .gauge("fleet_shards", "Shards known to the aggregator")
            .set(self.shards.len() as i64);
        fleet
            .gauge("fleet_shards_unreachable", "Shards the latest round missed")
            .set(self.unreachable_shards().len() as i64);
        fleet
    }

    /// The fleet view in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.fleet_registry().render_prometheus()
    }
}

/// p99 over the bucket-wise merge of every per-endpoint request
/// latency histogram in `snapshot`.
fn merged_request_p99(snapshot: &RegistrySnapshot) -> Option<u64> {
    let mut merged: Option<scaddar_obs::HistogramSnapshot> = None;
    for h in snapshot
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("net_server_request_ns{"))
    {
        match merged.as_mut() {
            Some(m) => m.merge(&h.snapshot),
            None => merged = Some(h.snapshot.clone()),
        }
    }
    merged.and_then(|m| m.quantile(0.99))
}

/// `(requests, errors, slower-than-objective)` totals in one shard
/// snapshot — the monotone counters whose scrape-to-scrape deltas feed
/// the fleet SLO. The `scrape-stats` and `profile` endpoints are
/// excluded: the aggregator's own polling must not register as serving
/// traffic, or every idle federation round would feed (and eventually
/// dilute) the SLO with its own observer effect.
fn request_totals(snapshot: &RegistrySnapshot, objective_ns: u64) -> (u64, u64, u64) {
    let serving = |name: &str, prefix: &str| {
        name.starts_with(prefix)
            && !name.contains("scrape-stats")
            && !name.contains("endpoint=\"profile\"")
    };
    let total = snapshot
        .counters
        .iter()
        .filter(|c| serving(&c.name, "net_server_requests_total{"))
        .map(|c| c.value)
        .sum();
    let errors = snapshot
        .counter_value("net_server_errors_total")
        .unwrap_or(0);
    let slow = snapshot
        .histograms
        .iter()
        .filter(|h| serving(&h.name, "net_server_request_ns{"))
        .map(|h| h.snapshot.count_over(objective_ns))
        .sum();
    (total, errors, slow)
}

struct FleetSlo {
    monitor: SloMonitor,
    objective_ns: u64,
    /// Per-shard `(requests, errors, slow)` totals at the last feed —
    /// the baseline the next round's deltas subtract from.
    fed: BTreeMap<u32, (u64, u64, u64)>,
}

/// Pull-based fleet aggregator: scrapes every target's registry over
/// `ScrapeStats`, remembers the last good answer per shard, and
/// (optionally) feeds the fleet SLO from scrape deltas.
pub struct FleetAggregator {
    config: ClientConfig,
    clock: Arc<dyn Clock>,
    last: BTreeMap<u32, ShardScrape>,
    slo: Option<FleetSlo>,
}

impl FleetAggregator {
    /// An aggregator with default client tuning, stamping scrapes from
    /// `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> FleetAggregator {
        FleetAggregator::with_config(clock, ClientConfig::default())
    }

    /// [`new`](Self::new) with explicit per-scrape client tuning
    /// (timeouts bound how long an unreachable shard stalls a round).
    pub fn with_config(clock: Arc<dyn Clock>, config: ClientConfig) -> FleetAggregator {
        FleetAggregator {
            config,
            clock,
            last: BTreeMap::new(),
            slo: None,
        }
    }

    /// Attaches fleet SLO tracking: every subsequent
    /// [`scrape`](Self::scrape) feeds per-shard counter deltas into a
    /// [`SloTracker`], counting a request slower than `objective_ns`
    /// as slow, and [`evaluate_slo`](Self::evaluate_slo) runs them
    /// through the hysteresis rules, emitting health events into `log`.
    pub fn enable_slo(&mut self, objective_ns: u64, log: EventLog) {
        let tracker = SloTracker::new(self.clock.clone());
        self.slo = Some(FleetSlo {
            monitor: SloMonitor::new(tracker, log),
            objective_ns,
            fed: BTreeMap::new(),
        });
    }

    /// Worst current SLO severity, once SLO tracking is on.
    pub fn slo_severity(&self) -> Option<Severity> {
        self.slo.as_ref().map(|s| s.monitor.severity())
    }

    /// The fleet SLO monitor, once SLO tracking is on.
    pub fn slo_monitor(&self) -> Option<&SloMonitor> {
        self.slo.as_ref().map(|s| &s.monitor)
    }

    /// One federation round: dials every target, pulls its snapshot,
    /// marks the ones that did not answer as unreachable (keeping
    /// their last-known data), drops shards no longer in `targets`,
    /// and — when SLO tracking is on — feeds each reachable shard's
    /// counter deltas into the fleet tracker. Returns the fleet view.
    pub fn scrape(&mut self, targets: &[(u32, SocketAddr)]) -> FleetSnapshot {
        let live: Vec<u32> = targets.iter().map(|(id, _)| *id).collect();
        self.last.retain(|id, _| live.contains(id));
        if let Some(slo) = self.slo.as_mut() {
            slo.fed.retain(|id, _| live.contains(id));
        }
        for &(shard, addr) in targets {
            let client = NetClient::with_config(addr, self.config.clone());
            let entry = self.last.entry(shard).or_insert_with(|| ShardScrape {
                shard,
                addr,
                reachable: false,
                epoch: 0,
                verdict: 0,
                snapshot: RegistrySnapshot::default(),
                scraped_at_ns: 0,
            });
            entry.addr = addr;
            match client.scrape_stats() {
                Ok((epoch, verdict, snapshot)) => {
                    entry.reachable = true;
                    entry.epoch = epoch;
                    entry.verdict = verdict;
                    entry.snapshot = snapshot;
                    entry.scraped_at_ns = self.clock.now_ns();
                    if let Some(slo) = self.slo.as_mut() {
                        let now = request_totals(&entry.snapshot, slo.objective_ns);
                        let prev = slo.fed.insert(shard, now).unwrap_or((0, 0, 0));
                        // A restarted shard resets its counters; the
                        // saturating delta treats the reset as zero new
                        // traffic instead of underflowing.
                        slo.monitor.tracker().record_batch(
                            now.0.saturating_sub(prev.0),
                            now.1.saturating_sub(prev.1),
                            now.2.saturating_sub(prev.2),
                        );
                    }
                }
                Err(_) => entry.reachable = false,
            }
        }
        FleetSnapshot {
            at_ns: self.clock.now_ns(),
            shards: self.last.values().cloned().collect(),
        }
    }

    /// Pulls every target's cumulative profiler snapshot
    /// (`ProfileDump`) and merges them into one fleet-wide
    /// [`ProfileSnapshot`]: each shard's thread rows are re-rooted
    /// under a `shard<id>` frame (so the folded rendering yields
    /// `shard0;scaddard-worker-1;engine 42` — a ready-made fleet
    /// flamegraph), sorted for deterministic output. `rounds` sums
    /// across shards; unreachable shards are skipped (their absence is
    /// visible as a missing `shard<id>` root, and the regular scrape
    /// round already reports them unreachable).
    pub fn scrape_profiles(&self, targets: &[(u32, SocketAddr)]) -> ProfileSnapshot {
        let mut merged = ProfileSnapshot {
            at_ns: self.clock.now_ns(),
            rounds: 0,
            threads: Vec::new(),
        };
        for &(shard, addr) in targets {
            let client = NetClient::with_config(addr, self.config.clone());
            let Ok(profile) = client.profile_dump() else {
                continue;
            };
            merged.rounds += profile.rounds;
            for mut thread in profile.threads {
                thread.name = format!("shard{shard};{}", thread.name);
                merged.threads.push(thread);
            }
        }
        merged.threads.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }

    /// Evaluates the fleet SLO rules once (after a
    /// [`scrape`](Self::scrape) fed them), emitting due health events;
    /// on a transition into CRIT the `flight` recorder is captured
    /// into the event log. Empty when SLO tracking is off.
    pub fn evaluate_slo(&mut self, flight: Option<&Tracer>) -> Vec<HealthEvent> {
        match self.slo.as_mut() {
            Some(slo) => slo.monitor.evaluate(flight),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use scaddar_net::ClusterClient;
    use scaddar_obs::VirtualClock;

    fn small() -> ClusterConfig {
        ClusterConfig {
            shards: 3,
            blocks_per_object: 200,
            migration_batch: 4,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn federated_totals_equal_direct_scrape_sums() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(24).unwrap();
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            client.locate(gid, 0).unwrap();
        }
        let mut aggregator = FleetAggregator::new(cluster.clock().clone());
        let fleet = aggregator.scrape(&cluster.scrape_targets());
        assert!(fleet.unreachable_shards().is_empty());

        // Quiesced cluster: the federated locate counter must equal
        // the sum of per-shard direct scrapes, and the merged locate
        // histogram count must match it.
        let mut direct_sum = 0u64;
        for (shard, addr) in cluster.scrape_targets() {
            let (_, _, snap) = NetClient::connect(addr).scrape_stats().unwrap();
            let served = snap
                .counter_value("net_server_requests_total{endpoint=\"locate\"}")
                .unwrap_or(0);
            direct_sum += served;
            // Per-shard view inside the fleet snapshot matches too.
            assert_eq!(
                fleet
                    .shard(shard)
                    .unwrap()
                    .snapshot
                    .counter_value("net_server_requests_total{endpoint=\"locate\"}")
                    .unwrap_or(0),
                served,
                "shard {shard}"
            );
        }
        let registry = fleet.fleet_registry();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("net_server_requests_total{endpoint=\"locate\"}"),
            Some(direct_sum)
        );
        assert_eq!(
            snap.histogram("net_server_request_ns{endpoint=\"locate\"}")
                .unwrap()
                .count,
            direct_sum,
            "histograms must merge bucket-wise, preserving total count"
        );
        assert_eq!(direct_sum, cluster.object_ids().len() as u64);

        let prom = fleet.render_prometheus();
        assert!(prom.contains("fleet_shards 3"));
        assert!(prom.contains("fleet_shards_unreachable 0"));
        assert!(prom.contains("fleet_shard_up{shard=\"0\"} 1"));
        cluster.shutdown();
    }

    #[test]
    fn killed_shards_stay_visible_as_stale_and_unreachable() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(6).unwrap();
        let mut aggregator = FleetAggregator::new(cluster.clock().clone());
        let first = aggregator.scrape(&cluster.scrape_targets());
        assert!(first.unreachable_shards().is_empty());
        let before = first.shard(1).unwrap().clone();
        assert!(before.scraped_at_ns > 0);

        let _snapshot = cluster.kill(1).unwrap();
        // The dead shard is still a target (it is still in the map);
        // scrape it at its old address.
        let mut targets = cluster.scrape_targets();
        targets.push((1, before.addr));
        targets.sort_by_key(|(id, _)| *id);
        let fleet = aggregator.scrape(&targets);
        assert_eq!(fleet.unreachable_shards(), vec![1]);
        let stale = fleet.shard(1).unwrap();
        assert!(!stale.reachable);
        assert_eq!(
            stale.snapshot, before.snapshot,
            "last-known data survives unreachability"
        );
        let prom = fleet.render_prometheus();
        assert!(prom.contains("fleet_shards_unreachable 1"));
        assert!(prom.contains("fleet_shard_up{shard=\"1\"} 0"));
        cluster.shutdown();
    }

    #[test]
    fn compaction_gauges_surface_per_shard_in_the_fleet_view() {
        let scrape = |shard: u32, snapshot: RegistrySnapshot| ShardScrape {
            shard,
            addr: "127.0.0.1:1".parse().unwrap(),
            reachable: true,
            epoch: 0,
            verdict: 0,
            snapshot,
            scraped_at_ns: 1,
        };
        // Shard 0: mid-compaction. Shard 1: idle at generation 3.
        // Shard 2: an engine without stats (no gauges at all).
        let busy = Registry::new();
        busy.gauge("cmsim_compaction_active", "").set(1);
        busy.gauge("cmsim_compaction_generation", "").set(2);
        busy.gauge("cmsim_compaction_target_generation", "").set(3);
        busy.gauge("cmsim_compaction_remaining_blocks", "").set(600);
        busy.gauge("cmsim_compaction_total_blocks", "").set(1000);
        let idle = Registry::new();
        idle.gauge("cmsim_compaction_active", "").set(0);
        idle.gauge("cmsim_compaction_generation", "").set(3);
        idle.gauge("cmsim_compaction_target_generation", "").set(3);
        idle.gauge("cmsim_compaction_remaining_blocks", "").set(0);
        idle.gauge("cmsim_compaction_total_blocks", "").set(0);
        let fleet = FleetSnapshot {
            at_ns: 2,
            shards: vec![
                scrape(0, busy.snapshot()),
                scrape(1, idle.snapshot()),
                scrape(2, RegistrySnapshot::default()),
            ],
        };
        let c0 = fleet.shard(0).unwrap().compaction().unwrap();
        assert!(c0.active);
        assert_eq!((c0.generation, c0.target_generation), (2, 3));
        assert!((c0.fraction() - 0.4).abs() < 1e-9);
        let c1 = fleet.shard(1).unwrap().compaction().unwrap();
        assert!(!c1.active);
        assert_eq!(c0.render(), "gen 2 compacting ->3 40%");
        assert_eq!(c1.render(), "gen 3");
        assert_eq!(fleet.shard(2).unwrap().compaction(), None);
    }

    #[test]
    fn mismatched_bucket_layouts_are_skipped_not_merged() {
        let scrape = |shard: u32, snapshot: RegistrySnapshot| ShardScrape {
            shard,
            addr: "127.0.0.1:1".parse().unwrap(),
            reachable: true,
            epoch: 0,
            verdict: 0,
            snapshot,
            scraped_at_ns: 1,
        };
        // A foreign shard whose snapshot carries no bucket-layout
        // fingerprint (e.g. a build predating the marker, or one with
        // different bucket boundaries).
        let foreign = Registry::new();
        foreign
            .histogram("net_server_request_ns{endpoint=\"locate\"}", "latency")
            .record(5);
        foreign.counter("net_server_errors_total", "errors").inc();
        // A current-build shard with the marker stamped.
        let native = Registry::new();
        native.mark_bucket_layout();
        native
            .histogram("net_server_request_ns{endpoint=\"locate\"}", "latency")
            .record(7);
        let fleet = FleetSnapshot {
            at_ns: 2,
            shards: vec![scrape(0, foreign.snapshot()), scrape(1, native.snapshot())],
        };
        let snap = fleet.fleet_registry().snapshot();
        // Only the layout-compatible shard's histogram merged...
        assert_eq!(
            snap.histogram("net_server_request_ns{endpoint=\"locate\"}")
                .unwrap()
                .count,
            1
        );
        // ...the incompatible series was counted, not silently dropped...
        assert_eq!(snap.counter_value("fleet_merge_skipped_total"), Some(1));
        // ...and the foreign shard's counters still folded in.
        assert_eq!(snap.counter_value("net_server_errors_total"), Some(1));
    }

    #[test]
    fn fleet_profiles_merge_under_shard_roots() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(6).unwrap();
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            client.locate(gid, 0).unwrap();
        }
        let aggregator = FleetAggregator::new(cluster.clock().clone());
        let profile = aggregator.scrape_profiles(&cluster.scrape_targets());
        // Every shard contributes rows, re-rooted under its shard id.
        for shard in 0..3u32 {
            assert!(
                profile
                    .threads
                    .iter()
                    .any(|t| t.name.starts_with(&format!("shard{shard};"))),
                "missing shard {shard} rows"
            );
        }
        assert!(profile.threads.iter().all(|t| t.conserves()));
        // The folded rendering is a three-deep stack per line.
        for line in profile.render_folded().lines() {
            let (stack, _count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "{line}");
        }
        cluster.shutdown();
    }

    #[test]
    fn scrape_deltas_feed_the_fleet_slo() {
        let clock = Arc::new(VirtualClock::new());
        let log = EventLog::new(clock.clone());
        let mut aggregator = FleetAggregator::new(clock.clone());
        aggregator.enable_slo(100_000, log);

        // Hand-feed the tracker through the same path scrape() uses:
        // totals-at-scrape minus totals-at-previous-scrape.
        let slo = aggregator.slo.as_mut().unwrap();
        let reg = Registry::new();
        let requests = reg.counter(
            "net_server_requests_total{endpoint=\"locate\"}",
            "Requests served, by endpoint",
        );
        let latency = reg.histogram(
            "net_server_request_ns{endpoint=\"locate\"}",
            "Server-side request handling latency, by endpoint",
        );
        for _ in 0..10_000 {
            requests.inc();
            latency.record(40_000);
        }
        // 2% of traffic past the 100 µs objective: burn 20 ≥ crit 10.
        for _ in 0..200 {
            requests.inc();
            latency.record(2_000_000);
        }
        let snap = reg.snapshot();
        let (total, errors, slow) = request_totals(&snap, slo.objective_ns);
        assert_eq!((total, errors, slow), (10_200, 0, 200));
        slo.monitor.tracker().record_batch(total, errors, slow);
        let events = aggregator.evaluate_slo(None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "latency-p999-burn");
        assert_eq!(events[0].severity, Severity::Crit);
        assert_eq!(aggregator.slo_severity(), Some(Severity::Crit));
    }

    #[test]
    fn repeated_scrapes_feed_only_the_delta() {
        let mut cluster = Cluster::boot(small()).unwrap();
        cluster.populate(8).unwrap();
        let client = ClusterClient::connect(&cluster.seeds()).unwrap();
        for gid in cluster.object_ids() {
            client.locate(gid, 0).unwrap();
        }
        let log = EventLog::new(cluster.clock().clone());
        let mut aggregator = FleetAggregator::new(cluster.clock().clone());
        aggregator.enable_slo(100_000, log);
        aggregator.scrape(&cluster.scrape_targets());
        // One failed request on top of the warm-up traffic: its
        // availability burn is diluted by every success the tracker
        // holds, so re-fed totals would lower it.
        aggregator
            .slo_monitor()
            .unwrap()
            .tracker()
            .record_batch(1, 1, 0);
        let burns = |a: &FleetAggregator| a.slo_monitor().unwrap().tracker().burn_rates();
        let before = burns(&aggregator);
        assert!(before.availability.long > 0.0, "the failure counts");
        // No new traffic: the second round's delta is zero.
        aggregator.scrape(&cluster.scrape_targets());
        assert_eq!(burns(&aggregator), before, "idle scrape must feed nothing");
        assert!(
            before.availability.long < 1.0 / (1.0 - scaddar_obs::slo::AVAILABILITY_TARGET),
            "first scrape fed the warm-up traffic"
        );
        cluster.shutdown();
    }
}
