//! Figure 2 reproduction bench: prints the 45 nm NAND2 leakage table and
//! measures the cost of the leakage queries the algorithms perform millions
//! of times (per-gate table lookup and whole-circuit leakage estimation).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use scanpower_bench::bench_circuit;
use scanpower_netlist::GateKind;
use scanpower_power::{LeakageEstimator, LeakageLibrary};
use scanpower_sim::{Logic, SimKernel};

fn figure2(c: &mut Criterion) {
    let library = LeakageLibrary::cmos45();

    println!("\nFigure 2 — NAND2 leakage (nA) at 45 nm / 0.9 V");
    println!("  A B | leakage");
    for state in 0..4u32 {
        println!(
            "  {} {} | {:6.1}",
            state & 1,
            (state >> 1) & 1,
            library.gate_leakage(GateKind::Nand, 2, state)
        );
    }
    println!();

    c.bench_function("figure2/nand2_table", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for state in 0..4u32 {
                total += library.gate_leakage(black_box(GateKind::Nand), 2, state);
            }
            total
        });
    });

    let circuit = bench_circuit("s641");
    let estimator = LeakageEstimator::new(&circuit, &library);
    let mut kernel = SimKernel::<Logic>::new(&circuit);
    let values = kernel.evaluate(&circuit, &vec![Logic::Zero; kernel.inputs().len()]);
    c.bench_function("figure2/circuit_leakage_s641", |b| {
        b.iter(|| estimator.circuit_leakage(black_box(&circuit), black_box(values)));
    });
}

criterion_group!(benches, figure2);
criterion_main!(benches);
