//! Regenerates Table I of the paper: dynamic and static scan power of the
//! traditional scan structure, the input-control structure \[8\] and the
//! proposed structure, for the twelve ISCAS89-sized circuits.
//!
//! Run with `cargo run --release --example table1_report`.
//!
//! The circuits are sharded across worker threads (one `BlockDriver` job
//! per circuit) and replayed on the packed 64-pattern scan-shift simulator;
//! the report is bit-identical for any thread count.
//!
//! Flags:
//!
//! * `--cache` — attach the content-addressed result cache and run the
//!   table twice: the cold pass fills the cache, the warm pass is served
//!   entirely from it (the reported hit count equals the circuit count).
//!   Both passes print the cache's hit/miss counters.
//! * `--cache-dir <path>` — like `--cache`, but also persist entries to
//!   `<path>` as `<key>.wire` files, so a *later process* starts warm.
//!
//! Environment knobs:
//!
//! * `SCANPOWER_CIRCUITS` — comma-separated circuit names (default: all 12);
//! * `SCANPOWER_SCALE`    — shrink factor for the synthetic circuits, e.g.
//!   `0.25` for a quick smoke run (default: 1.0);
//! * `SCANPOWER_PATTERNS` — cap on the number of scan test patterns
//!   (default: 32);
//! * `SCANPOWER_SEED`     — synthetic-netlist seed (default: 1);
//! * `SCANPOWER_THREADS`  — worker threads for the multi-circuit sharding
//!   (default: one per hardware thread).

use std::sync::Arc;

use scanpower_suite::cache::ResultCache;
use scanpower_suite::core::experiment::{run_table1_partial, ExperimentOptions, ResultCacheHandle};
use scanpower_suite::netlist::generator::{CircuitFamily, TABLE1_CIRCUITS};
use scanpower_suite::sim::BlockDriver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cache_enabled = false;
    let mut cache_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => cache_enabled = true,
            "--cache-dir" => {
                cache_enabled = true;
                cache_dir = Some(args.next().ok_or("--cache-dir needs a path")?);
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    let circuits: Vec<String> = std::env::var("SCANPOWER_CIRCUITS")
        .map(|s| s.split(',').map(|c| c.trim().to_owned()).collect())
        .unwrap_or_else(|_| TABLE1_CIRCUITS.iter().map(|&c| c.to_owned()).collect());
    let scale: f64 = std::env::var("SCANPOWER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let max_patterns: usize = std::env::var("SCANPOWER_PATTERNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let seed: u64 = std::env::var("SCANPOWER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let specs = circuits
        .iter()
        .map(|name| CircuitFamily::iscas89_like(name))
        .collect::<Result<Vec<_>, _>>()?;

    let mut options = ExperimentOptions::fast();
    options.max_patterns = Some(max_patterns);
    let cache = cache_enabled.then(|| {
        let cache = Arc::new(match &cache_dir {
            Some(dir) => ResultCache::with_disk(dir),
            None => ResultCache::in_memory(),
        });
        options.result_cache = ResultCacheHandle::new(Arc::clone(&cache));
        cache
    });

    eprintln!(
        "running Table I reproduction: {} circuits, scale {scale}, {max_patterns} patterns, \
         seed {seed}, {} worker thread(s), packed scan replay, cache {}",
        specs.len(),
        BlockDriver::new(options.threads).threads(),
        match (&cache, &cache_dir) {
            (Some(_), Some(dir)) => format!("on (disk tier: {dir})"),
            (Some(_), None) => "on (memory only)".to_owned(),
            (None, _) => "off".to_owned(),
        }
    );
    let scale = if (scale - 1.0).abs() < f64::EPSILON {
        None
    } else {
        Some(scale)
    };
    let report = run_table1_partial(&specs, &options, scale, seed).into_report()?;
    if let Some(cache) = &cache {
        let stats = cache.stats();
        eprintln!(
            "cache after cold pass: {} hits, {} disk hits, {} misses, {} entries ({} bytes)",
            stats.hits, stats.disk_hits, stats.misses, stats.entries, stats.bytes
        );
        // A warm pass over the same inputs is served entirely from the
        // cache — one row-level hit per circuit, the replay skipped.
        let warm = run_table1_partial(&specs, &options, scale, seed).into_report()?;
        assert_eq!(warm, report, "cached rows are byte-identical");
        let stats = cache.stats();
        eprintln!(
            "cache after warm pass: {} hits, {} disk hits, {} misses ({} circuits)",
            stats.hits,
            stats.disk_hits,
            stats.misses,
            specs.len()
        );
    }
    for row in &report.rows {
        eprintln!(
            "{:<8} dyn(/f): {:.3e} -> {:.3e} uW/Hz ({:+.1}%)   static: {:.2} -> {:.2} uW ({:+.1}%)",
            row.circuit,
            row.traditional.dynamic_per_hz_uw,
            row.proposed.dynamic_per_hz_uw,
            -row.dynamic_improvement_vs_traditional(),
            row.traditional.static_uw,
            row.proposed.static_uw,
            -row.static_improvement_vs_traditional(),
        );
    }
    println!("{}", report.to_table_string());
    println!(
        "average improvement vs traditional scan: dynamic {:.1}%, static {:.1}%",
        report.average_dynamic_improvement(),
        report.average_static_improvement()
    );
    Ok(())
}
