//! A 3-shard loopback cluster under a seeded locate workload: a shard
//! is killed and restarted mid-run, then the cluster scales out to 4
//! shards. Every answer must come from the shard the authoritative map
//! names, no object may be served by two shards, and the scale-out may
//! move at most the jump-hash fraction `1/(n+1)` plus a 6σ binomial
//! allowance.

use scaddar_cluster::{Cluster, ClusterConfig, ProbeResult};
use scaddar_net::ClusterClient;
use scaddar_obs::VirtualClock;
use scaddar_prng::{Pcg64, SeededRng};
use std::sync::Arc;

/// The seed CI pinned for the cluster run; replays are byte-identical.
const SEED: u64 = 6_073_421;
const OBJECTS: u64 = 96;
const REQUESTS: u64 = 600;
const BLOCKS_PER_OBJECT: u64 = 1_000;

#[test]
fn routing_survives_kill_restart_and_scale_out() {
    let clock = Arc::new(VirtualClock::new());
    let mut cluster = Cluster::boot_with_clock(
        ClusterConfig {
            shards: 3,
            blocks_per_object: BLOCKS_PER_OBJECT,
            catalog_seed: SEED,
            ..ClusterConfig::default()
        },
        clock.clone(),
    )
    .expect("cluster boot");
    cluster.populate(OBJECTS).expect("populate");
    let client = ClusterClient::connect(&cluster.seeds()).expect("client connect");
    let mut rng = Pcg64::from_seed(SEED ^ 0xC1_05_7E_12);
    let mut routing_errors = Vec::new();

    // Closed-loop load with a kill/restart injected mid-run; every
    // answer is checked against the authoritative map.
    let victim = 1u32;
    let mut snapshot = None;
    for i in 0..REQUESTS {
        clock.advance(1_000);
        if i == REQUESTS / 3 {
            snapshot = Some(cluster.kill(victim).expect("kill"));
        }
        if i == 2 * REQUESTS / 3 {
            let bytes = snapshot.take().expect("snapshot taken");
            cluster.restart(victim, &bytes).expect("restart");
        }
        let gid = rng.next_u64() % OBJECTS;
        let owner = cluster.map().route(gid).expect("routable");
        // While the victim is down its objects are unreachable: the
        // client erroring there is the fault model working, not a
        // routing error.
        if cluster.addr(owner).is_none() {
            continue;
        }
        let block = rng.next_u64() % BLOCKS_PER_OBJECT;
        match client.locate(gid, block) {
            Ok(answer) if answer.shard == owner => {}
            Ok(answer) => routing_errors.push(format!(
                "request {i}: object {gid} served by shard {} but owned by {owner}",
                answer.shard
            )),
            Err(e) => routing_errors.push(format!("request {i}: locate {gid}/{block}: {e}")),
        }
    }

    // Scale out to 4 shards and audit the delta.
    let before = cluster.map().clone();
    let expected = before.expected_move_fraction(&before.add_shard(u32::MAX, String::new()));
    let (_, record) = cluster.add_shard().expect("add shard");
    let population = record.population.max(1) as f64;
    let fraction = record.moved.len() as f64 / population;
    let bound = expected + 6.0 * (expected * (1.0 - expected) / population).sqrt();
    assert!(
        fraction <= bound,
        "scale-out moved {fraction:.4} of objects, over the 6σ bound {bound:.4} \
         (expected {expected:.4})"
    );

    // After the scale-out everything must route to the 4-shard map.
    for _ in 0..REQUESTS / 4 {
        clock.advance(1_000);
        let gid = rng.next_u64() % OBJECTS;
        let block = rng.next_u64() % BLOCKS_PER_OBJECT;
        match client.locate(gid, block) {
            Ok(answer) if Some(answer.shard) == cluster.map().route(gid) => {}
            other => routing_errors.push(format!("after scale-out: object {gid}: {other:?}")),
        }
    }
    assert!(
        routing_errors.is_empty(),
        "routing errors: {routing_errors:#?}"
    );

    // Probe every object on every shard directly: at most one serves it.
    for gid in cluster.object_ids() {
        let serving: Vec<u32> = cluster
            .probe_object(gid, 0)
            .into_iter()
            .filter(|(_, r)| matches!(r, ProbeResult::Served(..)))
            .map(|(id, _)| id)
            .collect();
        assert!(
            serving.len() <= 1,
            "object {gid} served by shards {serving:?}"
        );
    }
    cluster
        .residency_consistent()
        .expect("residency consistent after the scale-out");
    cluster.shutdown();
}
