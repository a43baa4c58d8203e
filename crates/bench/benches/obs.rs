//! E9 — the price of watching: instrumented vs bare hot paths.
//!
//! The observability layer budgets one weak counter increment (a
//! relaxed load + store pair, no locked read-modify-write) per
//! `locate`; the counter doubles as the 1-in-1024 latency sampling
//! basis. The instrumented engine must stay within a few percent of
//! bare. The gate table (`scaddar_bench::gate::GATES`) fails CI if the
//! locate or armed-profiler overhead ratio exceeds 1.10.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scaddar_core::{
    plan_last_op_parallel, plan_last_op_parallel_instrumented, EngineStats, Scaddar, ScaddarConfig,
    ScalingOp,
};
use scaddar_net::seam::{Phase, Seam};
use scaddar_obs::{
    Counter, Histogram, MonotonicClock, Profiler, Registry, StateHandle, Tracer, VirtualClock,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// The headline comparison: the same cached lookup with and without
/// metric handles attached. `bare` pays one predicted-not-taken branch;
/// `instrumented` adds a weak counter increment (and, every 1024th
/// call, two clock reads plus a histogram record).
fn bench_locate_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_locate_overhead");
    for (label, instrument) in [("bare", false), ("instrumented", true)] {
        let mut engine = churned_engine(8);
        if instrument {
            let registry = Registry::new();
            engine.attach_stats(EngineStats::register_monotonic(&registry));
        }
        let id = engine.catalog().objects()[0].id;
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 10_000;
                black_box(engine.locate(id, black_box(i)).expect("valid block"))
            });
        });
    }
    group.finish();
}

/// Planning is a cold path, so it takes full timing (per-op and
/// per-chunk histograms); the ratio should still be ~1.0 because the
/// recording cost is amortized over thousands of blocks.
fn bench_plan_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_plan_overhead");
    let engine = churned_engine(4);
    let threads = 2;
    let registry = Registry::new();
    let stats = EngineStats::register_monotonic(&registry);
    group.bench_function(BenchmarkId::from_parameter("bare"), |b| {
        b.iter(|| {
            black_box(plan_last_op_parallel(
                engine.catalog(),
                engine.log(),
                threads,
            ))
        });
    });
    group.bench_function(BenchmarkId::from_parameter("instrumented"), |b| {
        b.iter(|| {
            black_box(plan_last_op_parallel_instrumented(
                engine.catalog(),
                engine.log(),
                threads,
                &stats,
            ))
        });
    });
    group.finish();
}

/// The armed-profiler tax on the serving hot path: both sides run the
/// fully instrumented locate loop and bracket every call with the
/// reactor's seam edges — one sampling decision, `engine` on entry,
/// `decode` on exit, and phase timing on 1 in 64 calls. `bare`
/// publishes to a detached state word with no sampler; `instrumented`
/// registers with a live [`Profiler`] whose 1 kHz sampler thread runs
/// for the whole measurement — so the ratio is exactly what arming the
/// profiler costs a worker. The gate table holds this ratio to 1.10.
fn bench_profile_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_profile_overhead");
    let run = |b: &mut criterion::Bencher, handle: &StateHandle| {
        let mut engine = churned_engine(8);
        let registry = Registry::new();
        engine.attach_stats(EngineStats::register_monotonic(&registry));
        let clock = Arc::new(MonotonicClock::new());
        let mut seam = Seam::new(handle.clone(), &registry, clock, true);
        let id = engine.catalog().objects()[0].id;
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            let mut sample = seam.decoded(seam.readable(|_| 1));
            seam.edge(Phase::Engine, &mut sample, None);
            let located = engine.locate(id, black_box(i)).expect("valid block");
            seam.edge(Phase::Decode, &mut sample, None);
            seam.record();
            black_box(located)
        });
    };
    let detached = StateHandle::detached();
    group.bench_with_input(BenchmarkId::from_parameter("bare"), &(), |b, ()| {
        run(b, &detached)
    });
    let profiler = Profiler::new(Arc::new(MonotonicClock::new()));
    let registered = profiler.register("bench-worker");
    let shutdown = Arc::new(AtomicBool::new(false));
    let sampler = profiler.spawn_sampler(Duration::from_millis(1), shutdown.clone());
    group.bench_with_input(BenchmarkId::from_parameter("instrumented"), &(), |b, ()| {
        run(b, &registered)
    });
    shutdown.store(true, Ordering::SeqCst);
    sampler.join().expect("sampler joins");
    assert!(profiler.rounds() > 0, "sampler never ran during the bench");
    group.finish();
}

/// The raw primitives, for the overhead budget table in `DESIGN.md` §9:
/// a relaxed counter increment, a histogram record (bucket index +
/// three relaxed atomics), and a full span open/event/drop cycle
/// against a virtual clock (two reads + one mutex push).
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    let counter = Counter::new();
    group.bench_function(BenchmarkId::from_parameter("counter_inc"), |b| {
        b.iter(|| black_box(counter.inc_and_get()));
    });
    group.bench_function(BenchmarkId::from_parameter("counter_inc_weak"), |b| {
        b.iter(|| black_box(counter.inc_weak()));
    });
    let histogram = Histogram::new();
    group.bench_function(BenchmarkId::from_parameter("histogram_record"), |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(black_box(v >> 40));
        });
    });
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(clock.clone(), 64);
    group.bench_function(BenchmarkId::from_parameter("span_cycle"), |b| {
        b.iter(|| {
            let mut span = tracer.span("bench");
            clock.advance(1);
            span.event("k", 1u64);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_locate_overhead,
    bench_plan_overhead,
    bench_profile_overhead,
    bench_primitives
);
criterion_main!(benches);
