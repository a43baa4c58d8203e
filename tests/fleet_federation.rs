//! A 3-shard loopback cluster under a seeded, traced locate workload,
//! scraped through one `FleetAggregator` round:
//!
//! * the aggregator reaches every live shard, and the exposition says so;
//! * federated serving sums equal the direct per-shard scrapes;
//! * a planted 100 ns latency objective, which no loopback request can
//!   beat, trips the latency burn rule and captures the span flight
//!   recorder into the event log;
//! * the last lookup's trace stitches the client root to a serving hop.

use scaddar_cluster::{Cluster, ClusterConfig, FleetAggregator};
use scaddar_monitor::{Severity, SloRules};
use scaddar_net::{ClusterClient, NetClient};
use scaddar_obs::slo::SloConfig;
use scaddar_obs::{EventLog, RegistrySnapshot, Tracer};
use scaddar_prng::{Pcg64, SeededRng};

/// The seed CI pinned for the federation run.
const SEED: u64 = 6_073_421;
const OBJECTS: u64 = 48;
const REQUESTS: u64 = 400;
const BLOCKS_PER_OBJECT: u64 = 1_000;

/// Serving series only: the aggregator's own polling increments the
/// `scrape-stats` endpoint, so it is excluded from agreement checks.
fn serving(name: &str, prefix: &str) -> bool {
    name.starts_with(prefix) && !name.contains("scrape-stats")
}

fn serving_requests(snapshot: &RegistrySnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| serving(&c.name, "net_server_requests_total{"))
        .map(|c| c.value)
        .sum()
}

fn serving_histogram_count(snapshot: &RegistrySnapshot) -> u64 {
    snapshot
        .histograms
        .iter()
        .filter(|h| serving(&h.name, "net_server_request_ns{"))
        .map(|h| h.snapshot.count)
        .sum()
}

#[test]
fn federated_scrape_burn_alarm_and_stitched_trace() {
    let mut cluster = Cluster::boot(ClusterConfig {
        shards: 3,
        blocks_per_object: BLOCKS_PER_OBJECT,
        catalog_seed: SEED,
        ..ClusterConfig::default()
    })
    .expect("cluster boot");
    cluster.populate(OBJECTS).expect("populate");

    let mut client = ClusterClient::connect(&cluster.seeds()).expect("client connect");
    client.enable_tracing(Tracer::new(cluster.clock().clone(), 4096), SEED);
    let mut rng = Pcg64::from_seed(SEED ^ 0xFED0_0FED);
    for _ in 0..REQUESTS {
        let gid = rng.next_u64() % OBJECTS;
        let block = rng.next_u64() % BLOCKS_PER_OBJECT;
        let answer = client
            .locate(gid, block)
            .unwrap_or_else(|e| panic!("locate {gid}/{block}: {e}"));
        assert_eq!(
            Some(answer.shard),
            cluster.map().route(gid),
            "object {gid} served off the map"
        );
    }

    let log = EventLog::new(cluster.clock().clone());
    let mut aggregator = FleetAggregator::new(cluster.clock().clone());
    aggregator.enable_slo(
        SloConfig {
            latency_objective_ns: 100,
            ..SloConfig::default()
        },
        SloRules::default(),
        log.clone(),
    );
    let targets = cluster.scrape_targets();
    let fleet = aggregator.scrape(&targets);
    assert!(
        fleet.unreachable_shards().is_empty(),
        "aggregator missed shards {:?}",
        fleet.unreachable_shards()
    );
    let exposition = fleet.render_prometheus();
    for line in ["fleet_shards 3", "fleet_shards_unreachable 0"] {
        assert!(
            exposition.lines().any(|l| l == line),
            "exposition lacks `{line}`:\n{exposition}"
        );
    }

    // Direct per-shard scrapes on the quiesced cluster agree with the
    // federated registry.
    let (mut direct_requests, mut direct_histogram) = (0, 0);
    for (shard, addr) in &targets {
        let (_, _, snap) = NetClient::connect(*addr)
            .scrape_stats()
            .unwrap_or_else(|e| panic!("direct scrape of shard {shard}: {e}"));
        direct_requests += serving_requests(&snap);
        direct_histogram += serving_histogram_count(&snap);
    }
    let fleet_snapshot = fleet.fleet_registry().snapshot();
    assert_eq!(serving_requests(&fleet_snapshot), direct_requests);
    assert_eq!(serving_histogram_count(&fleet_snapshot), direct_histogram);

    let events = aggregator.evaluate_slo(client.tracer());
    assert!(
        events
            .iter()
            .any(|e| e.kind == "latency-p999-burn" && e.severity >= Severity::Warn),
        "the planted objective never tripped the burn rule: {events:?}"
    );
    assert!(
        log.events().iter().any(|e| e.kind == "span-capture"),
        "the CRIT transition did not capture the flight recorder"
    );

    let tracer = client.tracer().expect("tracing enabled");
    let root = tracer.recent(1).pop().expect("at least one root span");
    let mut spans = tracer.spans_for_trace(root.trace_id);
    for id in cluster.shard_ids() {
        if let Some(t) = cluster.shard_tracer(id) {
            spans.extend(t.spans_for_trace(root.trace_id));
        }
    }
    assert!(
        spans.len() >= 2,
        "trace {:016x} did not stitch to a serving span",
        root.trace_id
    );
    cluster.shutdown();
}
