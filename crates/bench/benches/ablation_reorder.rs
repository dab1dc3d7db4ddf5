//! Ablation B: the contribution and the cost of the leakage-driven gate
//! input reordering step (the "01 vs 10" optimisation of Figure 2).

use criterion::{criterion_group, criterion_main, Criterion};

use scanpower_bench::{bench_circuit, bench_options_with, run_comparison};
use scanpower_core::ProposedOptions;
use scanpower_power::{reorder, LeakageLibrary};
use scanpower_sim::{Logic, SimKernel};

fn ablation_reorder(c: &mut Criterion) {
    let circuit = bench_circuit("s1238");

    let with = run_comparison(
        &circuit,
        &bench_options_with(ProposedOptions {
            reorder_inputs: true,
            ..ProposedOptions::default()
        }),
    );
    let without = run_comparison(
        &circuit,
        &bench_options_with(ProposedOptions {
            reorder_inputs: false,
            ..ProposedOptions::default()
        }),
    );
    println!(
        "\nAblation B (gate input reordering), scaled s1238:\n  with reordering    static {:.2} uW\n  without reordering static {:.2} uW\n",
        with.proposed.static_uw, without.proposed.static_uw
    );

    // Bench the reordering pass itself on a fixed circuit state.
    let library = LeakageLibrary::cmos45();
    let mut kernel = SimKernel::<Logic>::new(&circuit);
    let values = kernel.evaluate(&circuit, &vec![Logic::Zero; kernel.inputs().len()]);
    let mut group = c.benchmark_group("ablation_reorder");
    group.sample_size(20);
    group.bench_function("reorder_pass", |b| {
        b.iter_batched(
            || circuit.clone(),
            |mut netlist| reorder::optimize(&mut netlist, &library, values),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, ablation_reorder);
criterion_main!(benches);
