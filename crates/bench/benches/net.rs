//! E21 — the price of the socket: wire codec throughput and the
//! loopback request path.
//!
//! Three layers, so a regression is attributable:
//!
//! 1. `net_codec` — encode/decode of the hot frames in isolation (the
//!    pure CPU cost a request pays before/after the kernel);
//! 2. `net_request` — one `locate` round-trip over a real loopback
//!    socket through `scaddard` (syscalls + framing + dispatch);
//! 3. `net_pipeline` — 16 pipelined locates per wakeup, the client
//!    library's batching path (amortizes the per-write syscall cost);
//! 4. `net_boot` — a daemon's boot: `bind` plus the first `Pong` on a
//!    fresh connection (the serving share of perfbench's `setup_s`),
//!    with the engine built beforehand and the shutdown off the clock.
//!
//! The gated end-to-end percentile and overhead numbers come from the
//! seeded load generator (`scaddard-load`), not from here; these groups
//! exist for profiling the components and no gate reads them.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use scaddar_net::{decode_frame, Frame, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_codec");
    let locate = Frame::Locate {
        object: 3,
        block: 31_337,
    };
    let batch = Frame::BatchLocated {
        epoch: 4,
        disks: 10,
        locations: (0..64).map(|i| i % 10).collect(),
    };
    group.bench_function(BenchmarkId::from_parameter("encode_locate"), |b| {
        let mut buf = Vec::with_capacity(64);
        b.iter(|| {
            buf.clear();
            black_box(locate.encode(&mut buf))
        });
    });
    group.bench_function(BenchmarkId::from_parameter("encode_batch64"), |b| {
        let mut buf = Vec::with_capacity(1024);
        b.iter(|| {
            buf.clear();
            black_box(batch.encode(&mut buf))
        });
    });
    let locate_bytes = locate.to_bytes();
    let batch_bytes = batch.to_bytes();
    group.bench_function(BenchmarkId::from_parameter("decode_locate"), |b| {
        b.iter(|| black_box(decode_frame(black_box(&locate_bytes)).unwrap()));
    });
    group.bench_function(BenchmarkId::from_parameter("decode_batch64"), |b| {
        b.iter(|| black_box(decode_frame(black_box(&batch_bytes)).unwrap()));
    });
    group.finish();
}

fn engine() -> Arc<cmsim::SharedServer> {
    let mut server =
        cmsim::CmServer::new(cmsim::ServerConfig::new(4).with_catalog_seed(0xBE)).unwrap();
    server.add_object(10_000).unwrap();
    Arc::new(cmsim::SharedServer::new(server))
}

fn boot_over(server: Arc<cmsim::SharedServer>, registry: &Registry) -> Scaddard {
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
    Scaddard::bind(
        "127.0.0.1:0",
        server,
        NetServerConfig::default(),
        registry,
        tracer,
    )
    .unwrap()
}

/// Each iteration binds a daemon over the same engine and waits for the
/// first `Pong`; the next set-up shuts the previous daemon down.
fn bench_boot(c: &mut Criterion) {
    let server = engine();
    let running: RefCell<Option<(Scaddard, NetClient)>> = RefCell::new(None);
    let stop = || {
        if let Some((daemon, client)) = running.borrow_mut().take() {
            drop(client);
            daemon.shutdown();
        }
    };
    let mut group = c.benchmark_group("net_boot");
    group.bench_function(BenchmarkId::from_parameter("bind_first_pong"), |b| {
        b.iter_batched(
            || {
                stop();
                Registry::new()
            },
            |registry| {
                let daemon = boot_over(Arc::clone(&server), &registry);
                let client = NetClient::connect(daemon.local_addr());
                client.ping().expect("ping");
                *running.borrow_mut() = Some((daemon, client));
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
    stop();
}

fn bench_request_path(c: &mut Criterion) {
    let daemon = boot_over(engine(), &Registry::new());
    let client = NetClient::connect(daemon.local_addr());
    let mut group = c.benchmark_group("net_request");
    group.bench_function(BenchmarkId::from_parameter("locate_roundtrip"), |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            black_box(client.locate(0, black_box(i)).expect("locate"))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("net_pipeline");
    let requests: Vec<Frame> = (0..16)
        .map(|i| Frame::Locate {
            object: 0,
            block: i * 131,
        })
        .collect();
    group.bench_function(BenchmarkId::from_parameter("locate_x16"), |b| {
        b.iter(|| black_box(client.pipeline(black_box(&requests)).expect("pipeline")));
    });
    group.finish();
    drop(client);
    daemon.shutdown();
}

criterion_group!(benches, bench_codec, bench_request_path, bench_boot);
criterion_main!(benches);
