//! Suite-level agreement of the production scan-shift replay with its
//! reference, and of the multi-circuit Table I sharding across thread
//! counts.
//!
//! The production replay is one engine: the packed 64-pattern kernel,
//! event-driven propagation, the lane-parallel leakage lookup and the
//! `LintFacts` static-gate skip. Its reference is the scalar
//! pattern-at-a-time replay with the scalar leakage observer; the packed
//! replay with and without the facts skip is composed here directly from
//! the sim and power crates. The acceptance bar is **bit-identity**:
//! every `ShiftStats` counter is an integer and the static-power average is
//! accumulated in the exact scalar order, so the tests assert plain
//! equality (and `f64::to_bits` equality of the power numbers) — on real
//! ATPG pattern sets, on ternary (X-carrying) pattern sets with partial
//! final blocks, under forced pseudo-inputs, PI control values and
//! `count_capture`, and for the whole `run_table1_partial` report across
//! thread counts {1, 2, 3, 8, auto}.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::atpg::{AtpgConfig, AtpgFlow};
use scanpower_suite::core::baseline::{traditional_shift_config, InputControlBaseline};
use scanpower_suite::core::experiment::{
    run_table1_partial, CircuitExperiment, ExperimentOptions, SchemePower,
};
use scanpower_suite::core::ProposedMethod;
use scanpower_suite::lint::LintFacts;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::Netlist;
use scanpower_suite::power::{
    DynamicPower, LeakageAverage, LeakageEstimator, LeakageLibrary, PackedShiftLeakage,
};
use scanpower_suite::sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig, ShiftPhase, ShiftStats};
use scanpower_suite::sim::{Logic, PackedScanShiftSim};

fn generated_circuit() -> Netlist {
    CircuitFamily::iscas89_like("s344")
        .unwrap()
        .scaled(0.5)
        .generate(5)
}

fn ternary_patterns(netlist: &Netlist, count: usize, seed: u64) -> Vec<ScanPattern> {
    let pi = netlist.primary_inputs().len();
    let ff = netlist.dff_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut draw = |width: usize| -> Vec<Logic> {
                (0..width)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            Logic::X
                        } else {
                            Logic::from_bool(rng.gen_bool(0.5))
                        }
                    })
                    .collect()
            };
            ScanPattern {
                pi: draw(pi),
                scan: draw(ff),
            }
        })
        .collect()
}

fn assert_replay_agreement(netlist: &Netlist, patterns: &[ScanPattern], config: &ShiftConfig) {
    let scalar = ScanShiftSim::new(netlist).run(netlist, patterns, config);
    let packed = PackedScanShiftSim::new(netlist)
        .run(netlist, patterns, config, None, |_| {})
        .expect("no cancel flag");
    assert_eq!(packed, scalar);
}

/// Real ATPG patterns through all three Table I structures: the packed
/// replay reproduces the scalar `ShiftStats` exactly, adapted proposed
/// structure included.
#[test]
fn packed_replay_matches_scalar_on_all_three_structures() {
    let circuit = generated_circuit();
    let test_set = AtpgFlow::new(AtpgConfig::fast()).run(&circuit);
    let mut patterns = test_set.to_scan_patterns(&circuit);
    patterns.truncate(70); // full 64-lane block + partial tail when possible
    assert!(!patterns.is_empty());

    // Traditional scan.
    assert_replay_agreement(&circuit, &patterns, &traditional_shift_config(&circuit));

    // Input control [8].
    let baseline = InputControlBaseline::new();
    let plan = baseline.plan(&circuit);
    assert_replay_agreement(&circuit, &patterns, &baseline.shift_config(&circuit, &plan));

    // Proposed structure (modified netlist, forced pseudo-inputs, PI
    // control values).
    let proposed = ProposedMethod::default().apply(&circuit).unwrap();
    let adapted = proposed.structure.adapt_patterns(&patterns);
    let config = proposed.structure.shift_config(&proposed.scan_mode_pi);
    assert_replay_agreement(proposed.structure.netlist(), &adapted, &config);
}

/// Ternary patterns (X rippling through the chain), partial final block,
/// forced pseudo-inputs, PI control values and `count_capture` on/off.
#[test]
fn packed_replay_matches_scalar_with_x_and_every_config_knob() {
    let circuit = generated_circuit();
    let ff = circuit.dff_count();
    let pi = circuit.primary_inputs().len();
    let patterns = ternary_patterns(&circuit, 130, 0xacc);
    assert_eq!(patterns.len() % 64, 2, "partial final block");

    for count_capture in [false, true] {
        // Traditional, with and without capture counting.
        let mut config = ShiftConfig::traditional(ff);
        config.count_capture = count_capture;
        assert_replay_agreement(&circuit, &patterns, &config);

        // PI control values plus a mix of forced pseudo-inputs.
        let mut config = ShiftConfig::with_pi_control(
            ff,
            (0..pi).map(|i| Logic::from_bool(i % 3 == 0)).collect(),
        );
        for (cell, forced) in config.forced_pseudo.iter_mut().enumerate() {
            *forced = match cell % 3 {
                0 => Some(Logic::Zero),
                1 => Some(Logic::One),
                _ => None,
            };
        }
        config.count_capture = count_capture;
        assert_replay_agreement(&circuit, &patterns, &config);
    }
}

/// One reference replay of a scheme, reduced to what
/// `try_evaluate_scheme_stats` reports.
struct Replayed {
    label: String,
    stats: ShiftStats,
    power: SchemePower,
}

fn replayed(
    label: String,
    netlist: &Netlist,
    library: &LeakageLibrary,
    stats: ShiftStats,
    leakage: &LeakageAverage,
) -> Replayed {
    let power = SchemePower {
        dynamic_per_hz_uw: DynamicPower::new().report(netlist, &stats).per_hz_uw,
        static_uw: leakage.average_uw(library),
        total_toggles: stats.total_toggles,
        shift_cycles: stats.shift_cycles,
    };
    Replayed {
        label,
        stats,
        power,
    }
}

/// The scalar pattern-at-a-time reference replay with the per-cycle
/// scalar leakage observer.
fn scalar_replay(netlist: &Netlist, patterns: &[ScanPattern], config: &ShiftConfig) -> Replayed {
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(netlist, &library);
    let mut leakage = LeakageAverage::new();
    let stats =
        ScanShiftSim::new(netlist).run_with_observer(netlist, patterns, config, |phase, values| {
            if phase == ShiftPhase::Shift {
                leakage.add(estimator.circuit_leakage(netlist, values));
            }
        });
    replayed("scalar replay".into(), netlist, &library, stats, &leakage)
}

/// The reference replays, composed directly from the sim and power layers:
/// the scalar replay, then the packed replay with and without the facts
/// skip.
fn reference_replays(
    netlist: &Netlist,
    patterns: &[ScanPattern],
    config: &ShiftConfig,
) -> Vec<Replayed> {
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(netlist, &library);
    let facts = LintFacts::analyze_shift(netlist, config);
    let mut references = vec![scalar_replay(netlist, patterns, config)];

    let sim = PackedScanShiftSim::new(netlist);
    for skip in [true, false] {
        let mut observer = if skip {
            PackedShiftLeakage::with_facts(netlist, &estimator, &facts)
        } else {
            PackedShiftLeakage::new(netlist, &estimator)
        };
        let stats = sim
            .run(netlist, patterns, config, None, |cycle| {
                observer.observe_cycle(cycle);
            })
            .expect("no cancel flag");
        references.push(replayed(
            format!("packed / facts skip {skip}"),
            netlist,
            &library,
            stats,
            &observer.into_average(),
        ));
    }
    references
}

/// The replay identity differential test: on every reduced-scale Table I
/// family, for each of the three scan structures and for an ATPG test set,
/// a ternary (X-carrying) set and a set ending in a partial final block,
/// the production replay (`try_evaluate_scheme_stats`) is bit-identical —
/// `ShiftStats` and `f64::to_bits` of both power numbers — to every
/// replay in `reference_replays`. The `replay_identity` CI step
/// runs this file.
#[test]
fn experiment_scheme_evaluation_is_bit_identical_between_replays() {
    let experiment = CircuitExperiment::new(ExperimentOptions::fast());
    // The facts skip must actually act somewhere, or the facts/no-facts
    // references would agree vacuously.
    let mut frozen_gates = 0;
    for spec in CircuitFamily::table1() {
        let circuit = spec.scaled(0.1).generate(3);
        let name = circuit.name().to_owned();
        let mut atpg = AtpgFlow::new(AtpgConfig::fast())
            .run(&circuit)
            .to_scan_patterns(&circuit);
        atpg.truncate(70);
        let pattern_sets = [
            ("atpg", atpg),
            ("ternary", ternary_patterns(&circuit, 64, 0x7e57)),
            ("partial", ternary_patterns(&circuit, 65, 0x9a27)),
        ];

        let baseline = InputControlBaseline::new();
        let input_control = baseline.shift_config(&circuit, &baseline.plan(&circuit));
        let proposed = ProposedMethod::new(ExperimentOptions::fast().proposed)
            .apply(&circuit)
            .unwrap();
        let proposed_config = proposed.structure.shift_config(&proposed.scan_mode_pi);

        for (set, patterns) in &pattern_sets {
            let adapted = proposed.structure.adapt_patterns(patterns);
            let schemes = [
                (
                    "traditional",
                    &circuit,
                    patterns,
                    traditional_shift_config(&circuit),
                ),
                ("input control", &circuit, patterns, input_control.clone()),
                (
                    "proposed",
                    proposed.structure.netlist(),
                    &adapted,
                    proposed_config.clone(),
                ),
            ];
            for (scheme, netlist, patterns, config) in &schemes {
                let (power, stats) = experiment
                    .try_evaluate_scheme_stats(netlist, patterns, config)
                    .unwrap();
                assert!(stats.shift_cycles > 0, "{name} / {scheme} / {set}: empty");
                frozen_gates += LintFacts::analyze_shift(netlist, config).static_gate_count();
                for reference in reference_replays(netlist, patterns, config) {
                    let at = format!("{name} / {scheme} / {set} / {}", reference.label);
                    assert_eq!(stats, reference.stats, "{at}: stats");
                    assert_eq!(
                        power.dynamic_per_hz_uw.to_bits(),
                        reference.power.dynamic_per_hz_uw.to_bits(),
                        "{at}: dynamic"
                    );
                    assert_eq!(
                        power.static_uw.to_bits(),
                        reference.power.static_uw.to_bits(),
                        "{at}: static"
                    );
                    assert_eq!(power, reference.power, "{at}: scheme power");
                }
            }
        }
    }
    assert!(frozen_gates > 0, "no scheme froze a gate");
}

/// The full multi-circuit harness: one circuit per driver job, merged in
/// circuit order — bit-identical for thread counts {1, 2, 3, 8, auto}, and
/// each row's traditional and input-control cells identical to scalar
/// replays of the same ATPG patterns.
#[test]
fn run_table1_is_bit_identical_across_thread_counts_and_replays() {
    let specs = vec![
        CircuitFamily::iscas89_like("s344").unwrap(),
        CircuitFamily::iscas89_like("s382").unwrap(),
        CircuitFamily::iscas89_like("s444").unwrap(),
        CircuitFamily::iscas89_like("s510").unwrap(),
    ];
    let reference = run_table1_partial(
        &specs,
        &ExperimentOptions {
            threads: 1,
            ..ExperimentOptions::fast()
        },
        Some(0.3),
        2,
    )
    .into_report()
    .unwrap();
    assert_eq!(reference.rows.len(), specs.len());
    for (row, spec) in reference.rows.iter().zip(&specs) {
        assert_eq!(row.circuit, spec.name(), "rows merged in circuit order");
    }

    for threads in [2, 3, 8, 0] {
        let parallel = run_table1_partial(
            &specs,
            &ExperimentOptions {
                threads,
                ..ExperimentOptions::fast()
            },
            Some(0.3),
            2,
        )
        .into_report()
        .unwrap();
        assert_eq!(parallel, reference, "threads {threads}");
    }

    let options = ExperimentOptions::fast();
    let baseline = InputControlBaseline::new();
    for (row, spec) in reference.rows.iter().zip(&specs) {
        let circuit = spec.scaled(0.3).generate(2);
        let mut patterns = AtpgFlow::new(options.atpg.clone())
            .run(&circuit)
            .to_scan_patterns(&circuit);
        patterns.truncate(options.max_patterns.expect("fast() caps the patterns"));
        assert_eq!(row.patterns, patterns.len(), "{}", row.circuit);
        let traditional = scalar_replay(&circuit, &patterns, &traditional_shift_config(&circuit));
        assert_eq!(row.traditional, traditional.power, "{}", row.circuit);
        let plan = baseline.plan(&circuit);
        let input_control =
            scalar_replay(&circuit, &patterns, &baseline.shift_config(&circuit, &plan));
        assert_eq!(row.input_control, input_control.power, "{}", row.circuit);
    }
}
