//! Shared fixtures for the `scanpower` benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a Criterion bench in
//! `benches/`:
//!
//! | Paper artefact | Bench target | What it measures / prints |
//! |---|---|---|
//! | Table I | `table1` | per-circuit dynamic & static scan power of the three structures (printed), plus the runtime of the full per-circuit flow |
//! | Figure 2 | `figure2` | the NAND2 leakage table (printed) and the cost of leakage-table / circuit-leakage queries |
//! | Ablation A | `ablation_directive` | leakage-observability-directed vs undirected pattern search |
//! | Ablation B | `ablation_reorder` | effect and cost of gate input reordering |
//! | Ablation C | `ablation_mux_coverage` | power vs fraction of multiplexed scan cells |
//! | — | `parallel_blocks` | block-parallel driver speed-up (sequential vs auto threads) on the IVC search and sampled observability |
//! | — | `scan_shift` | scalar vs packed 64-pattern scan-shift replay, and the multi-circuit Table I sharding at 1 vs auto threads (snapshot: `BENCH_scan_shift.json`) |
//! | — | `atpg` | the ATPG deterministic (PODEM) phase and the whole two-phase flow on full-size s1196 (default profile) and s1494 (`fast()`) (snapshot: `BENCH_atpg.json`) |
//! | — | `result_cache` | content-addressed result cache on the Table I flow: uncached baseline vs cold miss vs warm in-memory hit vs disk-tier hit (snapshot: `BENCH_cache.json`) |
//!
//! The benches intentionally run on *scaled* synthetic circuits so that
//! `cargo bench --workspace` finishes in minutes; the full-size Table I
//! numbers are produced by `cargo run --release --example table1_report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scanpower_core::experiment::{CircuitExperiment, CircuitRow, ExperimentOptions};
use scanpower_core::ProposedOptions;
use scanpower_netlist::generator::CircuitFamily;
use scanpower_netlist::Netlist;

/// Circuits used by the benches, scaled to keep Criterion runs affordable.
pub const BENCH_CIRCUITS: &[&str] = &["s344", "s641", "s1238"];

/// Scale factor applied to the synthetic circuits in the benches.
pub const BENCH_SCALE: f64 = 0.5;

/// Generates the scaled benchmark circuit for `name`.
///
/// # Panics
///
/// Panics if `name` is not an ISCAS89 circuit name.
#[must_use]
pub fn bench_circuit(name: &str) -> Netlist {
    CircuitFamily::iscas89_like(name)
        .expect("known circuit")
        .scaled(BENCH_SCALE)
        .generate(1)
}

/// Experiment options used by the benches (fast ATPG, small pattern budget).
#[must_use]
pub fn bench_options() -> ExperimentOptions {
    ExperimentOptions::fast()
}

/// Experiment options with a customised proposed-flow configuration.
#[must_use]
pub fn bench_options_with(proposed: ProposedOptions) -> ExperimentOptions {
    let mut options = ExperimentOptions::fast();
    options.proposed = proposed;
    options
}

/// Runs the three-structure comparison for one circuit with the bench
/// options (used both to print the reproduced rows and as the benched body).
#[must_use]
pub fn run_comparison(netlist: &Netlist, options: &ExperimentOptions) -> CircuitRow {
    CircuitExperiment::new(options.clone()).run(netlist)
}
