//! E10 — the price of health: monitor-attached vs detached hot paths.
//!
//! The health monitor is a *polled* layer: the serving loop runs
//! uninstrumented, and an operator-frequency poll (here one poll every
//! 64k locates, i.e. roughly once a minute at realistic request rates)
//! pays for the RO1 audit-trail sweep, the census chi-square, and the
//! §4.3 budget simulation. The amortized overhead on the hot path must
//! stay within 10%; the gate table (`scaddar_bench::gate::GATES`) holds
//! the locate ratio to 1.10.

use cmsim::{CmServer, ServerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scaddar_core::{Scaddar, ScaddarConfig, ScalingOp};
use scaddar_monitor::{HealthMonitor, MonitorConfig};
use scaddar_obs::VirtualClock;
use std::hint::black_box;
use std::sync::Arc;

/// A churned engine: 8 disks, one 10k-block object, `ops` scale ops.
fn churned_engine(ops: usize) -> Scaddar {
    let mut engine = Scaddar::new(ScaddarConfig::new(8).with_catalog_seed(42)).unwrap();
    engine.add_object(10_000);
    for i in 0..ops {
        let op = if i % 2 == 0 {
            ScalingOp::remove_one(0)
        } else {
            ScalingOp::Add { count: 1 }
        };
        engine.scale(op).expect("valid churn op");
    }
    engine
}

/// A monitor riding a virtual clock, synced to `engine`.
fn monitor_for(engine: &Scaddar) -> HealthMonitor {
    HealthMonitor::for_engine(
        MonitorConfig::default(),
        Arc::new(VirtualClock::new()),
        engine,
    )
}

/// Locate polls are amortized over this many lookups — the monitor is
/// an operator-cadence observer, not a per-request tax.
const LOCATE_POLL_INTERVAL: u64 = 65_536;

/// Tick polls ride the cheap O(disks) server census, so they can afford
/// a much tighter cadence.
const TICK_POLL_INTERVAL: u64 = 1_024;

/// The headline comparison: the same cached lookup loop with and
/// without a health monitor polling it. The attached loop pays, every
/// [`LOCATE_POLL_INTERVAL`] lookups, one full observation round: the
/// engine's RO1 movement sweep, an O(blocks) census derivation, the
/// streaming chi-square, and the budget simulation.
fn bench_locate_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_locate_overhead");
    {
        let engine = churned_engine(8);
        let id = engine.catalog().objects()[0].id;
        group.bench_with_input(BenchmarkId::from_parameter("detached"), &(), |b, _| {
            let mut n = 0u64;
            b.iter(|| {
                n += 1;
                black_box(engine.locate(id, black_box(n % 10_000)).expect("valid"))
            });
        });
    }
    {
        let engine = churned_engine(8);
        let id = engine.catalog().objects()[0].id;
        let mut monitor = monitor_for(&engine);
        group.bench_with_input(BenchmarkId::from_parameter("attached"), &(), |b, _| {
            let mut n = 0u64;
            b.iter(|| {
                n += 1;
                if n.is_multiple_of(LOCATE_POLL_INTERVAL) {
                    monitor.observe_engine(&engine);
                    monitor.observe_census(&engine.load_distribution());
                }
                black_box(engine.locate(id, black_box(n % 10_000)).expect("valid"))
            });
        });
    }
    group.finish();
}

/// Service-round overhead: an idle server's `tick` with and without the
/// monitor polling the store census (an O(disks) read) each
/// [`TICK_POLL_INTERVAL`] rounds.
fn bench_tick_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_tick_overhead");
    let server_with_load = || {
        let mut server = CmServer::new(ServerConfig::new(8).with_catalog_seed(42)).unwrap();
        server.add_object(5_000).expect("capacity for one object");
        server
    };
    {
        let mut server = server_with_load();
        group.bench_with_input(BenchmarkId::from_parameter("detached"), &(), |b, _| {
            b.iter(|| {
                server.tick();
                black_box(server.backlog())
            });
        });
    }
    {
        let mut server = server_with_load();
        let mut monitor = monitor_for(server.engine());
        group.bench_with_input(BenchmarkId::from_parameter("attached"), &(), |b, _| {
            let mut n = 0u64;
            b.iter(|| {
                n += 1;
                server.tick();
                if n.is_multiple_of(TICK_POLL_INTERVAL) {
                    monitor.observe_census(&server.load_census());
                }
                black_box(server.backlog())
            });
        });
    }
    group.finish();
}

/// The raw poll primitives, un-amortized, for the budget table in
/// `DESIGN.md` §10: one census observation (ring push + mean +
/// chi-square + rule update), one full engine observation (movement
/// sweep + tracker sync + budget simulation), and one report render.
fn bench_poll_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_primitives");
    let engine = churned_engine(8);
    let census = engine.load_distribution();
    let mut monitor = monitor_for(&engine);
    group.bench_function(BenchmarkId::from_parameter("observe_census"), |b| {
        b.iter(|| monitor.observe_census(black_box(&census)));
    });
    group.bench_function(BenchmarkId::from_parameter("observe_engine"), |b| {
        b.iter(|| monitor.observe_engine(black_box(&engine)));
    });
    group.bench_function(BenchmarkId::from_parameter("report_render"), |b| {
        b.iter(|| black_box(monitor.report().render()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_locate_overhead,
    bench_tick_overhead,
    bench_poll_primitives
);
criterion_main!(benches);
