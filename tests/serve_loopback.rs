//! One loopback serve round-trip: `scaddard` on 127.0.0.1 answering
//! pipelined, seeded `Locate`/`LocateBatch` requests after an online
//! scale-out, checked against the in-process engine it serves, its
//! reactor phase histograms, and its profiler's conservation invariant.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar::prelude::*;
use scaddar::prng::{SeededRng, SplitMix64};
use scaddar_net::{seam, ClientError, ErrorCode, Frame, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCKS: u64 = 4_096;

/// `rounds` pipelines of `depth` seeded lookups (every fourth a batch).
fn seeded_requests(seed: u64, rounds: usize, depth: usize) -> Vec<Vec<Frame>> {
    let mut rng = SplitMix64::from_seed(seed);
    (0..rounds)
        .map(|_| {
            (0..depth)
                .map(|_| {
                    let object = rng.next_u64() % 2;
                    match rng.next_u64() % 4 {
                        0 => Frame::LocateBatch {
                            object,
                            blocks: (0..8).map(|_| rng.next_u64() % BLOCKS).collect(),
                        },
                        _ => Frame::Locate {
                            object,
                            block: rng.next_u64() % BLOCKS,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// The answer the engine gives in-process: `(epoch, disks, disks hit)`.
fn expected(server: &SharedServer, object: u64, blocks: &[u64]) -> (u64, u32, Vec<u64>) {
    let reads: Vec<_> = blocks
        .iter()
        .map(|&block| server.locate(ObjectId(object), block).expect("known block"))
        .collect();
    let disks = reads.iter().map(|r| r.disk.0 as u64).collect();
    (reads[0].epoch as u64, reads[0].disks, disks)
}

#[test]
fn pipelined_lookups_match_the_engine_and_fill_every_phase() {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(21)).unwrap();
    server.add_object(BLOCKS).unwrap();
    server.add_object(BLOCKS).unwrap();
    let shared = Arc::new(SharedServer::new(server));
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        NetServerConfig::default(),
        &registry,
        tracer,
    )
    .unwrap();
    let client = NetClient::connect(daemon.local_addr());
    // A REMAP chain of one, fully drained, so lookups walk it.
    client.scale(ScalingOp::Add { count: 2 }).unwrap();
    while client.tick(1_000).unwrap() > 0 {}

    for requests in seeded_requests(7, 40, 32) {
        let responses = client.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(responses) {
            let got = match (request, response) {
                (Frame::Locate { .. }, Frame::Located { epoch, disks, disk }) => {
                    (epoch, disks, vec![disk])
                }
                (
                    Frame::LocateBatch { .. },
                    Frame::BatchLocated {
                        epoch,
                        disks,
                        locations,
                    },
                ) => (epoch, disks, locations),
                (request, response) => panic!("{request:?} answered {response:?}"),
            };
            let want = match request {
                Frame::Locate { object, block } => expected(&shared, *object, &[*block]),
                Frame::LocateBatch { object, blocks } => expected(&shared, *object, blocks),
                _ => unreachable!(),
            };
            assert_eq!(got, want, "{request:?}");
        }
    }

    // Every profiler row conserves once the sampler has run; the dump
    // rides the same pooled connection, so the lookups' flushes are
    // recorded by the time it is answered.
    let deadline = Instant::now() + Duration::from_secs(5);
    let profile = loop {
        let profile = client.profile_dump().unwrap();
        if profile.rounds > 0 || Instant::now() > deadline {
            break profile;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(profile.rounds > 0, "profiler sampler never ran");
    assert!(profile
        .threads
        .iter()
        .any(|t| t.name.starts_with("scaddard-worker-")));
    for thread in &profile.threads {
        assert!(thread.conserves(), "{thread:?}");
    }

    let snap = registry.snapshot();
    for (_, _, label) in seam::TABLE {
        let Some(label) = label else { continue };
        let samples: u64 = snap
            .histograms
            .iter()
            .filter(|h| {
                h.name
                    .starts_with(&format!("net_phase_ns{{phase=\"{label}\""))
            })
            .map(|h| h.snapshot.count)
            .sum();
        assert!(samples > 0, "phase {label} recorded no sample");
    }
    daemon.shutdown();
}

/// A client asking for a million more disks gets a typed `Error` frame
/// before the server allocates anything, and the daemon goes on
/// answering lookups at the epoch it had.
#[test]
fn a_hostile_addition_is_refused_and_lookups_still_answer() {
    let mut server = CmServer::new(ServerConfig::new(8).with_catalog_seed(21)).unwrap();
    server.add_object(BLOCKS).unwrap();
    let shared = Arc::new(SharedServer::new(server));
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        NetServerConfig::default(),
        &Registry::new(),
        Tracer::new(Arc::new(MonotonicClock::new()), 16),
    )
    .unwrap();
    let client = NetClient::connect(daemon.local_addr());
    // The client turns the daemon's `Error` frame into `Remote`.
    match client.scale(ScalingOp::Add { count: 1 << 20 }) {
        Err(ClientError::Remote {
            code: ErrorCode::Engine,
            message,
        }) => assert!(message.contains("65536 live disks"), "{message}"),
        other => panic!("a hostile Add answered {other:?}"),
    }
    assert_eq!(shared.with_read(|s| s.placement().disks().disks()), 8);
    for block in [0, 31, BLOCKS - 1] {
        let located = client.locate(0, block).unwrap();
        let (epoch, disks, want) = expected(&shared, 0, &[block]);
        assert_eq!(located, (epoch, disks, want[0]), "block {block}");
        assert_eq!((epoch, disks), (0, 8), "nothing committed");
    }
    daemon.shutdown();
}
