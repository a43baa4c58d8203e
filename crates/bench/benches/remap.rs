//! E8 support — raw `REMAP_j` throughput, whole-operation `RF()`
//! planning cost, and the bulk-engine comparisons: compiled
//! [`RemapPipeline`] fold vs the record-by-record reference fold, and
//! the reference planner vs the X-cache planner over a million-block
//! catalog.
//!
//! `remap_add`/`remap_remove` are a handful of integer divisions; expect
//! a few ns each. Planning a scaling operation over a 100k-block catalog
//! is `O(B·j)`; expect single-digit milliseconds at `j = 8`. The gate
//! table (`scaddar_bench::gate::GATES`) holds serial/cached 1M-block
//! planning to at least 1.5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scaddar_bench::churn_log;
use scaddar_core::address::x_at_current_epoch;
use scaddar_core::remap::{remap_add, remap_remove};
use scaddar_core::{
    plan_last_op, plan_last_op_with_x, Catalog, RemapPipeline, RemovedSet, ScalingLog, ScalingOp,
    XCache,
};
use scaddar_prng::{Bits, RngKind};
use std::hint::black_box;

fn bench_remap_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("remap_primitive");
    group.throughput(Throughput::Elements(1));
    group.bench_function("add", |b| {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(remap_add(black_box(x), 8, 9))
        });
    });
    let removed = RemovedSet::new(&[3], 8).expect("valid removal");
    group.bench_function("remove", |b| {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(remap_remove(black_box(x), 8, &removed))
        });
    });
    group.finish();
}

fn catalog_100k() -> Catalog {
    let mut c = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
    for _ in 0..20 {
        c.add_object(5_000);
    }
    c
}

fn bench_plan_operation(c: &mut Criterion) {
    let mut group = c.benchmark_group("rf_plan_100k_blocks");
    group.throughput(Throughput::Elements(100_000));
    let catalog = catalog_100k();
    for prior_ops in [0usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("addition_after", prior_ops),
            &prior_ops,
            |b, &prior| {
                b.iter_batched(
                    || {
                        let mut log = churn_log(8, prior);
                        log.push(&ScalingOp::Add { count: 1 }).expect("valid add");
                        log
                    },
                    |log: ScalingLog| black_box(plan_last_op(&catalog, &log)),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Compiled pipeline vs record-by-record reference fold: a 256-block
/// batch folded `X_0 → X_j` at increasing log depth. Same work, same
/// answers. The record path walks each block through the log one record
/// at a time (enum dispatch + a hardware division per mod/div); the
/// pipeline batch-folds step-outer with precomputed reciprocals, so the
/// per-block multiply chains overlap instead of serializing on `div`
/// latency.
fn bench_pipeline_vs_fold(c: &mut Criterion) {
    const BATCH: usize = 256;
    let mut group = c.benchmark_group("x_fold");
    group.throughput(Throughput::Elements(BATCH as u64));
    let x0s: Vec<u64> = (0..BATCH as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for j in [8usize, 16, 32] {
        let log = churn_log(8, j);
        let pipeline = RemapPipeline::compile(&log);
        group.bench_with_input(BenchmarkId::new("records", j), &j, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &x0 in &x0s {
                    acc = acc.wrapping_add(x_at_current_epoch(black_box(x0), &log));
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("pipeline", j), &j, |b, _| {
            b.iter_batched(
                || x0s.clone(),
                |mut xs| {
                    pipeline.fold_batch(&mut xs);
                    black_box(xs)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn catalog_1m() -> Catalog {
    let mut c = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
    for _ in 0..20 {
        c.add_object(50_000);
    }
    c
}

/// The reference oracle vs the planner `Scaddar::scale` runs, over a
/// 1M-block catalog at `j = 9` (8 churn ops + the planned addition).
/// `serial` is [`plan_last_op`]'s `O(B·j)` record fold from `X_0`;
/// `cached` is exactly the call `scale` makes — [`plan_last_op_with_x`]
/// over an X-cache holding `X_{j-1}`, which is built once, off the clock.
fn bench_plan_serial_vs_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("rf_plan_1m_blocks");
    group.throughput(Throughput::Elements(1_000_000));
    group.sample_size(10);
    let catalog = catalog_1m();
    let mut log = churn_log(8, 8);
    let cache = XCache::rebuild(&catalog, &RemapPipeline::compile(&log));
    log.push(&ScalingOp::Add { count: 1 }).expect("valid add");
    group.bench_pair(
        "serial",
        || black_box(plan_last_op(&catalog, &log)),
        "cached",
        || black_box(plan_last_op_with_x(cache.blocks_with_x(&catalog), &log)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_remap_primitives,
    bench_plan_operation,
    bench_pipeline_vs_fold,
    bench_plan_serial_vs_cached
);
criterion_main!(benches);
