//! Identity and observability tests for the content-addressed result
//! cache: cached runs must be **bit-identical** to uncached ones — across
//! thread counts, warm or cold, memory or disk tier — and
//! the cache's counters must prove that warm runs skipped the replay
//! rather than recomputing. The named `cache_identity` CI step runs exactly
//! this file.

use std::sync::Arc;

use scanpower_suite::cache::{CacheStats, ResultCache};
use scanpower_suite::core::experiment::{
    run_table1_partial, ExperimentOptions, ResultCacheHandle, Table1Outcome, Table1Report,
};
use scanpower_suite::netlist::generator::CircuitFamily;

fn specs() -> Vec<CircuitFamily> {
    vec![
        CircuitFamily::iscas89_like("s344").unwrap(),
        CircuitFamily::iscas89_like("s382").unwrap(),
        CircuitFamily::iscas89_like("s444").unwrap(),
    ]
}

const SCALE: Option<f64> = Some(0.3);
const SEED: u64 = 1;

/// The all-or-nothing report of a run that must complete.
fn report(options: &ExperimentOptions) -> Table1Report {
    run_table1_partial(&specs(), options, SCALE, SEED)
        .into_report()
        .expect("every circuit survives")
}

fn options(threads: usize, cache: Option<&Arc<ResultCache>>) -> ExperimentOptions {
    ExperimentOptions {
        threads,
        result_cache: match cache {
            Some(cache) => ResultCacheHandle::new(Arc::clone(cache)),
            None => ResultCacheHandle::disabled(),
        },
        ..ExperimentOptions::fast()
    }
}

/// The `cache_identity` matrix: cache-on and cache-off produce bit-identical
/// `Table1Outcome`s at every thread count {1, 3, auto}, with ONE cache
/// shared across the whole matrix — after the first cached run fills it,
/// every later cell is served from entries computed under a different
/// configuration.
#[test]
fn cache_identity_across_thread_counts() {
    let specs = specs();
    let reference = run_table1_partial(&specs, &options(1, None), SCALE, SEED);
    assert!(reference.is_complete());

    let cache = Arc::new(ResultCache::in_memory());
    let mut cached_runs = 0u64;
    for threads in [1usize, 3, 0] {
        let uncached = run_table1_partial(&specs, &options(threads, None), SCALE, SEED);
        assert_eq!(uncached, reference, "uncached, threads {threads}");
        let cached = run_table1_partial(&specs, &options(threads, Some(&cache)), SCALE, SEED);
        assert_eq!(cached, reference, "cached, threads {threads}");
        cached_runs += 1;
    }
    // Every cached run after the first was served row-by-row from entries
    // the very first configuration computed: one row-level hit per circuit
    // per warm run, nothing re-inserted.
    let stats = cache.stats();
    assert_eq!(
        stats.hits,
        (cached_runs - 1) * specs.len() as u64,
        "{stats:?}"
    );
    let first_run_insertions = stats.insertions;
    assert!(first_run_insertions > 0);
    let again = run_table1_partial(&specs, &options(0, Some(&cache)), SCALE, SEED);
    assert_eq!(again, reference);
    assert_eq!(
        cache.stats().insertions,
        first_run_insertions,
        "warm runs insert nothing"
    );
}

/// A warm in-process rerun returns byte-identical rows with the replay
/// provably skipped: a cold run stores exactly one entry (the row) per
/// circuit, and the hit counter then advances by exactly the circuit count.
#[test]
fn warm_rerun_is_served_entirely_from_the_cache() {
    let specs = specs();
    let cache = Arc::new(ResultCache::in_memory());
    let opts = options(1, Some(&cache));

    let cold = report(&opts);
    let after_cold: CacheStats = cache.stats();
    assert_eq!(after_cold.hits, 0, "nothing to hit on a cold cache");
    assert_eq!(
        after_cold.insertions,
        specs.len() as u64,
        "one row stored per circuit"
    );
    assert_eq!(after_cold.entries, specs.len(), "one entry per circuit");

    let warm = report(&opts);
    assert_eq!(warm, cold, "warm rows are byte-identical");
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.hits,
        specs.len() as u64,
        "exactly one row-level hit per circuit — the replay never ran"
    );
    assert_eq!(
        after_warm.insertions, after_cold.insertions,
        "a fully warm run stores nothing new"
    );
    assert_eq!(after_warm.misses, after_cold.misses, "no warm misses");
}

/// The disk tier hands results to a *fresh process* (modelled as a fresh
/// cache instance over the same directory): the second instance serves the
/// identical rows out of `<key>.wire` files, counted as disk hits.
#[test]
fn disk_tier_serves_a_fresh_cache_instance() {
    let dir = std::env::temp_dir().join(format!("scanpower-cache-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = specs();

    let first = Arc::new(ResultCache::with_disk(&dir));
    let cold = report(&options(1, Some(&first)));

    let second = Arc::new(ResultCache::with_disk(&dir));
    let warm = report(&options(3, Some(&second)));
    assert_eq!(warm, cold, "disk-served rows are byte-identical");
    let stats = second.stats();
    assert_eq!(
        stats.disk_hits,
        specs.len() as u64,
        "one disk hit per circuit: {stats:?}"
    );
    assert_eq!(stats.hits, 0, "this instance's memory started cold");
    assert_eq!(stats.misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded slots compose with the cache: a resource ceiling that refuses
/// one circuit produces the identical `Table1Outcome` with the cache on,
/// and cached rows cannot launder the refused circuit past its ceiling.
#[test]
fn cache_respects_partial_failure_slots() {
    let specs = specs();
    let gate_counts: Vec<usize> = specs
        .iter()
        .map(|spec| spec.scaled(0.3).generate(SEED).gate_count())
        .collect();
    let ceiling = *gate_counts.iter().max().unwrap() - 1;

    let limited = |cache: Option<&Arc<ResultCache>>| ExperimentOptions {
        limits: scanpower_suite::core::experiment::ResourceLimits {
            max_gates: Some(ceiling),
            ..Default::default()
        },
        ..options(1, cache)
    };
    let reference: Table1Outcome = run_table1_partial(&specs, &limited(None), SCALE, SEED);
    assert!(!reference.is_complete());

    let cache = Arc::new(ResultCache::in_memory());
    // Warm the cache with an unlimited run first — the oversized circuit's
    // row is now cached, and must STILL be refused under the ceiling.
    let _ = report(&options(1, Some(&cache)));
    let cached = run_table1_partial(&specs, &limited(Some(&cache)), SCALE, SEED);
    assert_eq!(cached, reference, "ceilings hold even against a warm cache");
}
