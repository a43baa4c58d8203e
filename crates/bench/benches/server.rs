//! E9 support — simulator throughput: service rounds per second under
//! load, the cost of committing a scaling operation (plan + queue)
//! versus executing it offline, and the cost of building block
//! residency (ingesting an object, restoring from a snapshot).

use cmsim::{CmServer, ServerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scaddar_core::ScalingOp;
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
    // perfbench's catalog shape: many mid-sized objects admitted one by
    // one into a fresh server.
    group.throughput(Throughput::Elements(64 * 4096));
    group.bench_function("add_object_64x4096", |b| {
        b.iter_batched(
            || CmServer::new(config()).expect("server builds"),
            |mut s| {
                for _ in 0..64 {
                    black_box(s.add_object(4096).expect("ingest"));
                }
                s
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_tick, bench_scale, bench_ingest);
criterion_main!(benches);
