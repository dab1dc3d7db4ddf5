//! Cost model of the content-addressed result cache on the Table I flow:
//! what a cold miss adds over the uncached run (hashing + encoding +
//! insertion), what a warm in-memory hit saves (the whole replay), and
//! where the disk tier lands in between (read + decode + promotion).
//! Snapshot: `BENCH_cache.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use scanpower_bench::{bench_options, BENCH_SCALE};
use scanpower_cache::ResultCache;
use scanpower_core::experiment::{run_table1_partial, ExperimentOptions, ResultCacheHandle};
use scanpower_netlist::generator::CircuitFamily;

fn cache_specs() -> Vec<CircuitFamily> {
    ["s344", "s641"]
        .iter()
        .map(|name| CircuitFamily::iscas89_like(name).expect("known circuit"))
        .collect()
}

fn with_cache(cache: &Arc<ResultCache>) -> ExperimentOptions {
    let mut options = bench_options();
    options.result_cache = ResultCacheHandle::new(Arc::clone(cache));
    options
}

fn result_cache(c: &mut Criterion) {
    let specs = cache_specs();
    let scale = Some(BENCH_SCALE);

    let mut group = c.benchmark_group("result_cache");
    group.sample_size(10);

    // Baseline: the flow with the cache left off entirely.
    let uncached = bench_options();
    group.bench_function("table1_2_circuits_uncached", |b| {
        b.iter(|| run_table1_partial(&specs, &uncached, scale, 1));
    });

    // Cold miss: a fresh cache every iteration, so each run pays the full
    // flow plus key hashing, wire encoding and insertion.
    group.bench_function("table1_2_circuits_cold_miss", |b| {
        b.iter(|| {
            let cache = Arc::new(ResultCache::in_memory());
            run_table1_partial(&specs, &with_cache(&cache), scale, 1)
        });
    });

    // Warm hit: the cache is filled once outside the timing loop; every
    // iteration is served row-by-row from memory, skipping the replay.
    let warm = Arc::new(ResultCache::in_memory());
    let warm_options = with_cache(&warm);
    let filled = run_table1_partial(&specs, &warm_options, scale, 1);
    assert!(filled.is_complete());
    group.bench_function("table1_2_circuits_warm_hit", |b| {
        b.iter(|| {
            let served = run_table1_partial(&specs, &warm_options, scale, 1);
            assert_eq!(served, filled);
            served
        });
    });

    // Disk-tier hit: the directory is filled once; every iteration opens a
    // *fresh* cache instance over it (a new process, in effect), so each
    // row is a disk read + decode + promotion into the empty memory tier.
    let dir = std::env::temp_dir().join(format!("scanpower-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fill = Arc::new(ResultCache::with_disk(&dir));
    let _ = run_table1_partial(&specs, &with_cache(&fill), scale, 1);
    drop(fill);
    group.bench_function("table1_2_circuits_disk_hit", |b| {
        b.iter(|| {
            let cache = Arc::new(ResultCache::with_disk(&dir));
            let served = run_table1_partial(&specs, &with_cache(&cache), scale, 1);
            assert_eq!(served, filled);
            served
        });
    });
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, result_cache);
criterion_main!(benches);
