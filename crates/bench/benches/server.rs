//! E9 support — simulator throughput: service rounds per second under
//! load, the cost of committing a scaling operation (plan + queue)
//! versus executing it offline, the cost of building block residency
//! (ingesting an object, restoring from a snapshot), and of opening
//! streams up to the admission limit.
//!
//! E24 — `compact_locate`: a shard whose §4.3 budget was burned and
//! then rehash-compacted must locate as fast as a fresh chain-length-0
//! shard over the same catalog. The gate table
//! (`scaddar_bench::gate::GATES`) holds `post_flip / fresh` to 1.2.

use cmsim::{CmServer, ServerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scaddar_core::{DiskIndex, ObjectId, ScalingOp};
use scaddar_prng::{Pcg64, SeededRng};
use std::hint::black_box;

fn config() -> ServerConfig {
    ServerConfig::new(8).with_bandwidth(32).with_catalog_seed(9)
}

fn loaded_server(streams: u32) -> CmServer {
    let mut s = CmServer::new(config()).expect("server builds");
    let obj = s.add_object(100_000).expect("ingest");
    for _ in 0..streams {
        let id = s.open_stream(obj).expect("admitted");
        // Spread positions so the round isn't a single-disk convoy.
        let pos = id.0 * 97 % 100_000;
        s.stream_mut(id).expect("live").seek(pos);
    }
    s
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_tick");
    for streams in [10u32, 100, 200] {
        group.throughput(Throughput::Elements(u64::from(streams)));
        group.bench_with_input(BenchmarkId::from_parameter(streams), &streams, |b, &n| {
            let mut server = loaded_server(n);
            b.iter(|| {
                server.tick();
                black_box(server.metrics().len())
            });
        });
    }
    group.finish();
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_scale_100k_blocks");
    group.bench_function("plan_and_queue_online", |b| {
        b.iter_batched(
            || loaded_server(0),
            |mut s| black_box(s.scale(ScalingOp::Add { count: 1 }).expect("scale")),
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("execute_offline", |b| {
        b.iter_batched(
            || loaded_server(0),
            |mut s| black_box(s.scale_offline(ScalingOp::Add { count: 1 }).expect("scale")),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_ingest");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("add_object_100k", |b| {
        b.iter_batched(
            || CmServer::new(config()).expect("server builds"),
            |mut s| black_box(s.add_object(100_000).expect("ingest")),
            criterion::BatchSize::SmallInput,
        );
    });
    let snapshot = loaded_server(0).snapshot().expect("quiet server");
    group.bench_function("restore_100k", |b| {
        b.iter(|| black_box(CmServer::restore(config(), &snapshot).expect("restore")));
    });
    // perfbench's two catalog shapes (the lookup workloads' and
    // reorganize's): mid-sized objects admitted one by one into a fresh
    // server.
    for (objects, blocks) in [(64u64, 4096u64), (32, 2048)] {
        group.throughput(Throughput::Elements(objects * blocks));
        group.bench_function(format!("add_object_{objects}x{blocks}"), |b| {
            b.iter_batched(
                || CmServer::new(config()).expect("server builds"),
                |mut s| {
                    for _ in 0..objects {
                        black_box(s.add_object(blocks).expect("ingest"));
                    }
                    s
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// perfbench's stream admission on `reorganize`: streams opened on a
/// fresh 8-disk server (32 blocks per round each) until admission
/// refuses one, each sought into its object — 204 streams.
fn bench_streams(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_streams");
    group.throughput(Throughput::Elements(204));
    group.bench_function("open_to_limit", |b| {
        b.iter_batched(
            || {
                let mut s = CmServer::new(config()).expect("server builds");
                let obj = s.add_object(2_048).expect("ingest");
                (s, obj)
            },
            |(mut s, obj)| {
                while let Ok(id) = s.open_stream(obj) {
                    s.stream_mut(id).expect("live").seek(id.0 * 7 % 512);
                }
                s
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// 24 objects of 2 000 blocks on 8 disks, seeded like E24's run.
fn compaction_catalog() -> CmServer {
    let mut s = CmServer::new(ServerConfig::new(8).with_catalog_seed(6_073_421)).expect("boot");
    for _ in 0..24 {
        s.add_object(2_000).expect("ingest");
    }
    s
}

/// Cycles through `lookups` against `server`, one locate per call.
fn lookup_loop<'a>(
    server: &'a CmServer,
    lookups: &'a [(ObjectId, u64)],
) -> impl FnMut() -> DiskIndex + 'a {
    let mut i = 0;
    move || {
        let (object, block) = lookups[i % lookups.len()];
        i += 1;
        black_box(server.locate_current(object, block).expect("catalog block"))
    }
}

fn bench_compact_locate(c: &mut Criterion) {
    // Burn the budget with remove/add round-trips, then compact through
    // the server's own API until the generation flips.
    let mut compacted = compaction_catalog();
    while compacted.next_op_is_safe(&ScalingOp::remove_one(0)) {
        compacted
            .scale_offline(ScalingOp::remove_one(0))
            .expect("remove");
        compacted
            .scale_offline(ScalingOp::Add { count: 1 })
            .expect("add");
    }
    compacted.begin_compaction().expect("idle executor");
    for _ in 0..1_000_000 {
        if !compacted.compaction_active() {
            break;
        }
        compacted.tick();
    }
    assert_eq!(compacted.generation(), 1, "compaction never flipped");
    let fresh = compaction_catalog();

    let mut rng = Pcg64::from_seed(0xBEAC);
    let lookups: Vec<(ObjectId, u64)> = (0..4096)
        .map(|_| (ObjectId(rng.next_u64() % 24), rng.next_u64() % 2_000))
        .collect();
    let mut group = c.benchmark_group("compact_locate");
    group.bench_pair(
        "post_flip",
        lookup_loop(&compacted, &lookups),
        "fresh",
        lookup_loop(&fresh, &lookups),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_tick,
    bench_scale,
    bench_ingest,
    bench_streams,
    bench_compact_locate
);
criterion_main!(benches);
