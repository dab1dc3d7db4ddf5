//! Scan-shift replay bench: the scalar event-driven `ScanShiftSim` vs the
//! packed 64-pattern `PackedScanShiftSim` on the raw replay (transition
//! counting only) and with the static-power observer attached (lane-parallel
//! ternary-table lookup and the scalar-lookup cross-check), the
//! leakage-lookup seam in isolation (scalar vs lane-parallel, ± X density),
//! the packed propagation seam (`event_driven` group: full-sweep vs
//! event-driven cycles, ± observer, on a high-activity traditional config
//! and a low-activity held-PI/forced-chain config), plus the multi-circuit
//! Table I harness at 1 worker thread vs the automatic count. All
//! comparisons are bit-identical by construction — asserted once before
//! timing — so the bench measures speed only. A snapshot of the measured
//! means lives in `BENCH_scan_shift.json` at the repository root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use scanpower_bench::{bench_circuit, bench_options};
use scanpower_core::experiment::{run_table1_partial, ExperimentOptions};
use scanpower_netlist::generator::CircuitFamily;
use scanpower_power::{
    LeakageAverage, LeakageEstimator, LeakageLibrary, LeakageLookup, PackedShiftLeakage,
};
use scanpower_sim::kernel::pack_logic_patterns;
use scanpower_sim::patterns::random_bool_patterns;
use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig, ShiftPhase};
use scanpower_sim::{
    BlockDriver, Logic, PackedScanShiftSim, PackedWord, Propagation, ShiftCycle, SimKernel,
};

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
    let packed_run = |circuit, config, propagation| {
        packed
            .run(circuit, &patterns, config, propagation, None, |_| {})
            .expect("no cancel flag")
    };
    assert_eq!(
        scalar.run(&circuit, &patterns, &config),
        packed_run(&circuit, &config, Propagation::default()),
        "packed replay must be bit-identical to the scalar replay"
    );

    let mut group = c.benchmark_group("scan_shift");
    group.sample_size(10);
    group.bench_function("replay_128_scalar", |b| {
        b.iter(|| scalar.run(black_box(&circuit), &patterns, &config));
    });
    group.bench_function("replay_128_packed", |b| {
        b.iter(|| packed_run(black_box(&circuit), &config, Propagation::default()));
    });

    // With the leakage observer attached (the Table I configuration).
    // `estimator` gathers from the precomputed ternary tables (the
    // default); `scalar_lookup` re-runs the per-gate-per-lane subset
    // enumeration — the pre-precompute observer path, kept measurable.
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(&circuit, &library);
    let scalar_lookup = LeakageEstimator::with_lookup(&circuit, &library, LeakageLookup::Scalar);
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
    // Both packed rows measure the observer without the changed-net delta,
    // so every shift state takes its full gather.
    let packed_with_leakage = |estimator| {
        let mut observer = PackedShiftLeakage::new(&circuit, estimator);
        let stats = packed.run(
            black_box(&circuit),
            &patterns,
            &config,
            Propagation::EventDriven,
            None,
            |cycle| {
                observer.observe_cycle(&ShiftCycle {
                    changed: None,
                    ..*cycle
                })
            },
        );
        (stats, observer.into_average())
    };
    group.bench_function("replay_128_packed_with_leakage", |b| {
        b.iter(|| packed_with_leakage(&estimator));
    });
    group.bench_function("replay_128_packed_with_leakage_scalar_lookup", |b| {
        b.iter(|| packed_with_leakage(&scalar_lookup));
    });
    group.finish();

    // The leakage-lookup seam in isolation: one 64-lane circuit_leakage_lanes
    // sweep per iteration, scalar subset-enumeration lookup vs the
    // lane-parallel ternary-table gather, without X and at 20% X density
    // (X completions are what the scalar lookup re-enumerates per lane).
    let mut kernel = SimKernel::<PackedWord>::new(&circuit);
    let width = kernel.inputs().len();
    let mut group = c.benchmark_group("leakage_lookup");
    group.sample_size(10);
    for (label, x_density) in [("no_x", 0.0f64), ("x20", 0.2)] {
        let patterns: Vec<Vec<Logic>> = random_bool_patterns(width, 64, 11)
            .iter()
            .enumerate()
            .map(|(p, bits)| {
                bits.iter()
                    .enumerate()
                    .map(|(i, &bit)| {
                        // Deterministic sprinkle at the requested density.
                        if x_density > 0.0
                            && (p * width + i).is_multiple_of((1.0 / x_density) as usize)
                        {
                            Logic::X
                        } else {
                            Logic::from_bool(bit)
                        }
                    })
                    .collect()
            })
            .collect();
        let values = kernel
            .evaluate(&circuit, &pack_logic_patterns(&patterns))
            .to_vec();
        let fast = estimator.circuit_leakage_lanes(&circuit, &values, 64);
        let slow = scalar_lookup.circuit_leakage_lanes(&circuit, &values, 64);
        assert!(
            fast.iter()
                .zip(&slow)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "both lookups must be bit-identical"
        );
        let mut totals = Vec::new();
        group.bench_function(format!("lanes_64_scalar_lookup_{label}"), |b| {
            b.iter(|| {
                scalar_lookup.circuit_leakage_lanes_into(
                    black_box(&circuit),
                    &values,
                    64,
                    &mut totals,
                );
            });
        });
        group.bench_function(format!("lanes_64_lane_parallel_{label}"), |b| {
            b.iter(|| {
                estimator.circuit_leakage_lanes_into(black_box(&circuit), &values, 64, &mut totals);
            });
        });
    }
    group.finish();

    // The propagation seam: full-sweep vs event-driven packed cycles, bare
    // and observer-attached. `traditional` ripples random patterns through
    // an unforced chain — with 64 lanes per word nearly every net moves
    // every cycle, so event-driven ≈ full sweep there. `low_activity` holds
    // the PIs and forces two thirds of the chain (the shape the paper's
    // proposed structure engineers): most cones are quiet and the dirty
    // worklist skips them.
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
            packed_run(&circuit, config, Propagation::EventDriven),
            packed_run(&circuit, config, Propagation::FullSweep),
            "propagation modes must be bit-identical ({label})"
        );
        for (mode_label, propagation) in [
            ("full_sweep", Propagation::FullSweep),
            ("event_driven", Propagation::EventDriven),
        ] {
            group.bench_function(format!("replay_128_{mode_label}_{label}"), |b| {
                b.iter(|| packed_run(black_box(&circuit), config, propagation));
            });
            group.bench_function(format!("observer_128_{mode_label}_{label}"), |b| {
                b.iter(|| {
                    let mut observer = PackedShiftLeakage::new(&circuit, &estimator);
                    let stats = packed.run(
                        black_box(&circuit),
                        &patterns,
                        config,
                        propagation,
                        None,
                        |cycle| observer.observe_cycle(cycle),
                    );
                    (stats, observer.into_average())
                });
            });
        }
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
