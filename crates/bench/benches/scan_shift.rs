//! Scan-shift replay bench: the scalar event-driven `ScanShiftSim` vs the
//! packed 64-pattern `PackedScanShiftSim` on the raw replay (transition
//! counting only) and with the static-power observer attached, the packed
//! event-driven replay ± observer on a high-activity traditional config and
//! a low-activity held-PI/forced-chain config (`event_driven` group), plus
//! the multi-circuit Table I harness at 1 worker thread vs the automatic
//! count. Every packed replay is bit-identical to the scalar one —
//! asserted once before timing — so the bench measures speed only. A
//! snapshot of the measured means lives in `BENCH_scan_shift.json` at the
//! repository root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use scanpower_bench::{bench_circuit, bench_options};
use scanpower_core::experiment::{run_table1_partial, ExperimentOptions};
use scanpower_netlist::generator::CircuitFamily;
use scanpower_power::{LeakageAverage, LeakageEstimator, LeakageLibrary, PackedShiftLeakage};
use scanpower_sim::patterns::random_bool_patterns;
use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig, ShiftPhase};
use scanpower_sim::{BlockDriver, Logic, PackedScanShiftSim, ShiftCycle};

fn replay_patterns(
    circuit: &scanpower_netlist::Netlist,
    count: usize,
    seed: u64,
) -> Vec<ScanPattern> {
    let pi = circuit.primary_inputs().len();
    let ff = circuit.dff_count();
    random_bool_patterns(pi + ff, count, seed)
        .into_iter()
        .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
        .collect()
}

fn scan_shift(c: &mut Criterion) {
    let circuit = bench_circuit("s1238");
    let patterns = replay_patterns(&circuit, 128, 7);
    let config = ShiftConfig::traditional(circuit.dff_count());
    let scalar = ScanShiftSim::new(&circuit);
    let packed = PackedScanShiftSim::new(&circuit);
    // The bare packed replay: no cancel flag, so it never fails.
    let packed_run = |circuit, config| {
        packed
            .run(circuit, &patterns, config, None, |_| {})
            .expect("no cancel flag")
    };
    assert_eq!(
        scalar.run(&circuit, &patterns, &config),
        packed_run(&circuit, &config),
        "packed replay must be bit-identical to the scalar replay"
    );

    let mut group = c.benchmark_group("scan_shift");
    group.sample_size(10);
    group.bench_function("replay_128_scalar", |b| {
        b.iter(|| scalar.run(black_box(&circuit), &patterns, &config));
    });
    group.bench_function("replay_128_packed", |b| {
        b.iter(|| packed_run(black_box(&circuit), &config));
    });

    // With the leakage observer attached (the Table I configuration).
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(&circuit, &library);
    group.bench_function("replay_128_scalar_with_leakage", |b| {
        b.iter(|| {
            let mut average = LeakageAverage::new();
            let stats = scalar.run_with_observer(
                black_box(&circuit),
                &patterns,
                &config,
                |phase, values| {
                    if phase == ShiftPhase::Shift {
                        average.add(estimator.circuit_leakage(&circuit, values));
                    }
                },
            );
            (stats, average)
        });
    });
    // The packed row measures the observer without the changed-net delta,
    // so every shift state takes its full gather.
    group.bench_function("replay_128_packed_with_leakage", |b| {
        b.iter(|| {
            let mut observer = PackedShiftLeakage::new(&circuit, &estimator);
            let stats = packed.run(black_box(&circuit), &patterns, &config, None, |cycle| {
                observer.observe_cycle(&ShiftCycle {
                    changed: None,
                    ..*cycle
                })
            });
            (stats, observer.into_average())
        });
    });
    group.finish();

    // The event-driven packed cycles, bare and observer-attached.
    // `traditional` ripples random patterns through an unforced chain —
    // with 64 lanes per word nearly every net moves every cycle, so the
    // dirty worklist re-evaluates almost everything there. `low_activity`
    // holds the PIs and forces two thirds of the chain (the shape the
    // paper's proposed structure engineers): most cones are quiet and the
    // dirty worklist skips them.
    let low_activity = {
        let mut config = ShiftConfig::with_pi_control(
            circuit.dff_count(),
            (0..circuit.primary_inputs().len())
                .map(|i| Logic::from_bool(i % 2 == 0))
                .collect(),
        );
        for (cell, forced) in config.forced_pseudo.iter_mut().enumerate() {
            if cell % 3 != 0 {
                *forced = Some(Logic::from_bool(cell % 2 == 0));
            }
        }
        config
    };
    let mut group = c.benchmark_group("event_driven");
    group.sample_size(10);
    for (label, config) in [("traditional", &config), ("low_activity", &low_activity)] {
        assert_eq!(
            packed_run(&circuit, config),
            scalar.run(&circuit, &patterns, config),
            "packed replay must be bit-identical to the scalar replay ({label})"
        );
        group.bench_function(format!("replay_128_event_driven_{label}"), |b| {
            b.iter(|| packed_run(black_box(&circuit), config));
        });
        group.bench_function(format!("observer_128_event_driven_{label}"), |b| {
            b.iter(|| {
                let mut observer = PackedShiftLeakage::new(&circuit, &estimator);
                let stats = packed.run(black_box(&circuit), &patterns, config, None, |cycle| {
                    observer.observe_cycle(cycle)
                });
                (stats, observer.into_average())
            });
        });
    }
    group.finish();

    // Multi-circuit Table I sharding: 1 thread vs automatic.
    let specs: Vec<CircuitFamily> = ["s344", "s382", "s444", "s510"]
        .iter()
        .map(|name| CircuitFamily::iscas89_like(name).expect("known circuit"))
        .collect();
    let sequential = ExperimentOptions {
        threads: 1,
        ..bench_options()
    };
    let automatic = ExperimentOptions {
        threads: 0,
        ..bench_options()
    };
    let reference = run_table1_partial(&specs, &sequential, Some(0.3), 1);
    assert!(reference.is_complete());
    assert_eq!(
        reference,
        run_table1_partial(&specs, &automatic, Some(0.3), 1),
        "thread count must never change the report"
    );
    println!(
        "\nscan_shift — auto driver uses {} worker thread(s)",
        BlockDriver::auto().threads()
    );

    let mut group = c.benchmark_group("scan_shift");
    group.sample_size(10);
    group.bench_function("table1_4_circuits_1_thread", |b| {
        b.iter(|| run_table1_partial(black_box(&specs), &sequential, Some(0.3), 1));
    });
    group.bench_function("table1_4_circuits_auto_threads", |b| {
        b.iter(|| run_table1_partial(black_box(&specs), &automatic, Some(0.3), 1));
    });
    group.finish();
}

criterion_group!(benches, scan_shift);
criterion_main!(benches);
