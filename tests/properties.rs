//! Property-based tests over the core data structures and invariants.
//!
//! The offline container has no proptest, so properties are exercised with
//! an explicit seeded-random harness: every test draws many random cases
//! from a [`ChaCha8Rng`] and asserts the invariant on each; failures print
//! the offending seed so a case can be replayed by hand.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::{bench, techmap::TechMapper, GateKind, Netlist};
use scanpower_suite::power::{reorder, LeakageEstimator, LeakageLibrary, LeakageObservability};
use scanpower_suite::sim::kernel::pack_logic_patterns;
use scanpower_suite::sim::{Logic, PackedWord, SimKernel};
use scanpower_suite::timing::Sta;

const CASES: usize = 48;

/// Builds a small random combinational netlist (NAND/NOR/NOT/AND/OR over a
/// growing pool of nets) — the same construction the proptest version used.
fn random_netlist(rng: &mut ChaCha8Rng, max_gates: usize, inputs: usize) -> Netlist {
    let mut netlist = Netlist::new("prop");
    let mut pool = Vec::new();
    for i in 0..inputs {
        pool.push(netlist.add_input(&format!("i{i}")));
    }
    let gates = 1 + rng.gen_range(0..max_gates);
    for index in 0..gates {
        let kind = match rng.gen_range(0..5u32) {
            0 => GateKind::Nand,
            1 => GateKind::Nor,
            2 => GateKind::Not,
            3 => GateKind::And,
            _ => GateKind::Or,
        };
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let gate_inputs: Vec<_> = if kind == GateKind::Not || a == b {
            vec![a]
        } else {
            vec![a, b]
        };
        let gate = netlist.add_gate(kind, &gate_inputs, &format!("g{index}"));
        pool.push(gate.output);
    }
    let last = *pool.last().unwrap();
    netlist.mark_output(last);
    netlist
}

fn random_assignment(rng: &mut ChaCha8Rng, width: usize) -> Vec<Logic> {
    (0..width)
        .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
        .collect()
}

/// Random netlists are structurally valid and acyclic by construction.
#[test]
fn generated_random_netlists_validate() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = 1 + rng.gen_range(0..5);
        let netlist = random_netlist(&mut rng, 40, inputs);
        assert!(netlist.validate().is_ok(), "seed {seed}");
    }
}

/// The `.bench` writer and parser round-trip preserves structure.
#[test]
fn bench_round_trip() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0be7 ^ seed);
        let inputs = 1 + rng.gen_range(0..5);
        let netlist = random_netlist(&mut rng, 30, inputs);
        let text = bench::to_bench(&netlist);
        let reparsed = bench::parse(&text, netlist.name()).unwrap();
        assert_eq!(reparsed.gate_count(), netlist.gate_count(), "seed {seed}");
        assert_eq!(
            reparsed.primary_inputs().len(),
            netlist.primary_inputs().len(),
            "seed {seed}"
        );
        assert_eq!(
            reparsed.primary_outputs().len(),
            netlist.primary_outputs().len(),
            "seed {seed}"
        );
    }
}

/// Technology mapping preserves the boolean function of every output.
#[test]
fn techmap_preserves_function() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7ec4 ^ seed);
        let inputs = 1 + rng.gen_range(0..4);
        let netlist = random_netlist(&mut rng, 20, inputs);
        let mapped = TechMapper::new().map(&netlist).unwrap();
        let mut ev_a = SimKernel::<Logic>::new(&netlist);
        let mut ev_b = SimKernel::<Logic>::new(&mapped);
        for _ in 0..8 {
            let assignment = random_assignment(&mut rng, inputs);
            let a = ev_a.evaluate(&netlist, &assignment);
            let b = ev_b.evaluate(&mapped, &assignment);
            for (pa, pb) in netlist
                .primary_outputs()
                .iter()
                .zip(mapped.primary_outputs())
            {
                assert_eq!(a[pa.index()], b[pb.index()], "seed {seed}");
            }
        }
    }
}

/// Draws a three-valued pattern: mostly known values with a controllable
/// share of `X` positions.
fn random_ternary(rng: &mut ChaCha8Rng, width: usize, x_share: f64) -> Vec<Logic> {
    (0..width)
        .map(|_| {
            if rng.gen_bool(x_share) {
                Logic::X
            } else {
                Logic::from_bool(rng.gen_bool(0.5))
            }
        })
        .collect()
}

/// The packed 64-wide kernel agrees with the scalar kernel lane by lane
/// on synthetic circuits from the generator, including `X` propagation.
#[test]
fn packed_kernel_agrees_with_scalar_on_generated_circuits() {
    for (name, x_share) in [("s27", 0.0), ("s344", 0.25), ("s382", 0.5), ("s510", 0.9)] {
        for seed in 0..3u64 {
            let circuit = CircuitFamily::iscas89_like(name)
                .unwrap()
                .scaled(0.4)
                .generate(seed);
            let mut scalar = SimKernel::<Logic>::new(&circuit);
            let mut packed = SimKernel::<PackedWord>::new(&circuit);
            let width = scalar.inputs().len();

            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37);
            let block: Vec<Vec<Logic>> = (0..64)
                .map(|_| random_ternary(&mut rng, width, x_share))
                .collect();
            let packed_values = packed
                .evaluate(&circuit, &pack_logic_patterns(&block))
                .to_vec();
            for (lane, pattern) in block.iter().enumerate() {
                let reference = scalar.evaluate(&circuit, pattern);
                for net in circuit.net_ids() {
                    assert_eq!(
                        packed_values[net.index()].lane(lane),
                        reference[net.index()],
                        "{name} seed {seed} lane {lane} net {}",
                        circuit.net(net).name
                    );
                }
            }
        }
    }
}

/// On random netlists over the full gate alphabet (including AND/OR trees
/// the generator does not emit), every lane of the packed kernel matches
/// scalar evaluation.
#[test]
fn packed_kernel_agrees_with_scalar_on_random_netlists() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x009a_c4ed ^ seed);
        let inputs = 1 + rng.gen_range(0..5);
        let netlist = random_netlist(&mut rng, 30, inputs);
        let mut scalar = SimKernel::<Logic>::new(&netlist);
        let mut packed = SimKernel::<PackedWord>::new(&netlist);
        let block: Vec<Vec<Logic>> = (0..32)
            .map(|_| random_ternary(&mut rng, inputs, 0.3))
            .collect();
        let packed_values = packed
            .evaluate(&netlist, &pack_logic_patterns(&block))
            .to_vec();
        for (lane, pattern) in block.iter().enumerate() {
            let reference = scalar.evaluate(&netlist, pattern);
            for net in netlist.net_ids() {
                assert_eq!(
                    packed_values[net.index()].lane(lane),
                    reference[net.index()],
                    "seed {seed} lane {lane}"
                );
            }
        }
    }
}

/// Exhaustive equivalence of original and mapped circuits over every input
/// assignment (moved here from the netlist unit tests so the check can go
/// through the shared simulation kernel).
#[test]
fn techmap_exhaustive_equivalence() {
    fn eval_all(netlist: &Netlist, assignment: u32) -> Vec<Logic> {
        let width = netlist.combinational_inputs().len();
        let inputs: Vec<Logic> = (0..width)
            .map(|bit| Logic::from_bool((assignment >> bit) & 1 == 1))
            .collect();
        SimKernel::<Logic>::new(netlist)
            .evaluate(netlist, &inputs)
            .to_vec()
    }

    fn assert_equivalent(original: &Netlist, mapped: &Netlist) {
        let width = original.combinational_inputs().len();
        assert_eq!(width, mapped.combinational_inputs().len());
        assert!(width <= 12, "exhaustive check only for small circuits");
        for assignment in 0u32..(1 << width) {
            let a = eval_all(original, assignment);
            let b = eval_all(mapped, assignment);
            for (pa, pb) in original
                .primary_outputs()
                .iter()
                .zip(mapped.primary_outputs())
            {
                assert_eq!(a[pa.index()], b[pb.index()], "PO under {assignment:b}");
            }
            for (da, db) in original.dffs().iter().zip(mapped.dffs()) {
                assert_eq!(a[da.d.index()], b[db.d.index()], "D under {assignment:b}");
            }
        }
    }

    // The real s27 benchmark.
    let s27 = bench::parse(bench::S27_BENCH, "s27").unwrap();
    assert_equivalent(&s27, &TechMapper::new().map(&s27).unwrap());

    // A wide AND split under a fanin limit.
    let mut wide = Netlist::new("wide");
    let inputs: Vec<_> = (0..7).map(|i| wide.add_input(&format!("i{i}"))).collect();
    let g = wide.add_gate(GateKind::And, &inputs, "out");
    wide.mark_output(g.output);
    assert_equivalent(
        &wide,
        &TechMapper::new().with_max_fanin(3).map(&wide).unwrap(),
    );

    // XOR/XNOR trees and a MUX.
    let mut parity = Netlist::new("parity");
    let a = parity.add_input("a");
    let b = parity.add_input("b");
    let c = parity.add_input("c");
    let x = parity.add_gate(GateKind::Xor, &[a, b, c], "x");
    let y = parity.add_gate(GateKind::Xnor, &[a, b], "y");
    let m = parity.add_gate(GateKind::Mux, &[a, x.output, y.output], "m");
    parity.mark_output(m.output);
    assert_equivalent(&parity, &TechMapper::new().map(&parity).unwrap());
}

/// Incremental (event-driven) simulation always agrees with full
/// re-evaluation, whatever sequence of input changes is applied.
#[test]
fn incremental_simulation_matches_full_evaluation() {
    let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let mut reference = SimKernel::<Logic>::new(&netlist);
    let kernel = SimKernel::<Logic>::new(&netlist);
    let mut worklist = kernel.make_worklist();
    let width = kernel.inputs().len();
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1c4e ^ seed);
        let mut current = random_assignment(&mut rng, width);
        let mut values = reference.evaluate(&netlist, &current).to_vec();
        for _ in 0..40 {
            let index = rng.gen_range(0..width);
            current[index] = Logic::from_bool(rng.gen_bool(0.5));
            let net = kernel.inputs()[index];
            if values[net.index()] != current[index] {
                values[net.index()] = current[index];
                kernel.mark_net_changed(net, &mut worklist);
            }
            kernel.propagate_from(&netlist, &mut values, &mut worklist, |_, _, _| {});
            let full = reference.evaluate(&netlist, &current);
            assert_eq!(values, full, "seed {seed}");
        }
    }
}

/// Leakage estimates are positive and averaging over unknowns is bounded by
/// the extremes over completions.
#[test]
fn leakage_with_unknowns_is_bounded_by_completions() {
    let mut netlist = Netlist::new("nand");
    let ia = netlist.add_input("a");
    let ib = netlist.add_input("b");
    let g = netlist.add_gate(GateKind::Nand, &[ia, ib], "g");
    netlist.mark_output(g.output);
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(&netlist, &library);
    let table: Vec<f64> = (0..4)
        .map(|s| library.gate_leakage(GateKind::Nand, 2, s))
        .collect();
    let min = table.iter().cloned().fold(f64::MAX, f64::min);
    let max = table.iter().cloned().fold(f64::MIN, f64::max);
    for a in [Logic::Zero, Logic::One, Logic::X] {
        for b in [Logic::Zero, Logic::One, Logic::X] {
            let mut values = vec![Logic::X; netlist.net_count()];
            values[ia.index()] = a;
            values[ib.index()] = b;
            let estimate = estimator.gate_leakage(&netlist, g.gate, &values);
            assert!(estimate >= min - 1e-9 && estimate <= max + 1e-9, "{a}{b}");
            assert!(estimate > 0.0);
        }
    }
}

/// Gate input reordering never changes the logic function and never
/// increases the leakage of the optimised state.
#[test]
fn reordering_is_function_preserving_and_non_worsening() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x2e0d ^ seed);
        let inputs = 2 + rng.gen_range(0..3);
        let mut netlist = random_netlist(&mut rng, 20, inputs);
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&netlist, &library);
        let mut kernel = SimKernel::<Logic>::new(&netlist);
        let assignment = random_assignment(&mut rng, inputs);
        let values = kernel.evaluate(&netlist, &assignment).to_vec();
        let before = estimator.circuit_leakage(&netlist, &values);
        let reference: Vec<Vec<Logic>> = (0..(1u32 << inputs))
            .map(|bits| {
                let vector: Vec<Logic> = (0..inputs)
                    .map(|i| Logic::from_bool((bits >> i) & 1 == 1))
                    .collect();
                kernel.evaluate(&netlist, &vector).to_vec()
            })
            .collect();

        let report = reorder::optimize(&mut netlist, &library, &values);
        assert!(netlist.validate().is_ok(), "seed {seed}");
        assert!(
            report.leakage_after_na <= report.leakage_before_na + 1e-9,
            "seed {seed}"
        );

        let mut kernel_after = SimKernel::<Logic>::new(&netlist);
        let estimator_after = LeakageEstimator::new(&netlist, &library);
        let values_after = kernel_after.evaluate(&netlist, &assignment);
        assert!(
            estimator_after.circuit_leakage(&netlist, values_after) <= before + 1e-9,
            "seed {seed}"
        );
        for (bits, reference_values) in reference.iter().enumerate() {
            let vector: Vec<Logic> = (0..inputs)
                .map(|i| Logic::from_bool((bits >> i) & 1 == 1))
                .collect();
            let after = kernel_after.evaluate(&netlist, &vector);
            for &po in netlist.primary_outputs() {
                assert_eq!(
                    after[po.index()],
                    reference_values[po.index()],
                    "seed {seed}"
                );
            }
        }
    }
}

/// Static timing analysis invariants: non-negative slacks and arrival +
/// departure bounded by the critical delay.
#[test]
fn sta_slack_invariants() {
    for seed in 0..8u64 {
        let circuit = CircuitFamily::iscas89_like("s382")
            .unwrap()
            .scaled(0.3)
            .generate(seed);
        let report = Sta::default().analyze(&circuit).unwrap();
        for net in circuit.net_ids() {
            assert!(report.slack(net) >= -1e-6, "seed {seed}");
            assert!(
                report.arrival(net) + report.departure(net) <= report.critical_delay() + 1e-6,
                "seed {seed}"
            );
        }
    }
}

/// Leakage observability of a line that feeds nothing is exactly zero, and
/// signal probabilities stay in [0, 1].
#[test]
fn observability_sanity() {
    for seed in 0..8u64 {
        let circuit = CircuitFamily::iscas89_like("s344")
            .unwrap()
            .scaled(0.2)
            .generate(seed);
        let library = LeakageLibrary::cmos45();
        let observability = LeakageObservability::compute(&circuit, &library);
        for net in circuit.net_ids() {
            let p = observability.probability(net);
            assert!((0.0..=1.0).contains(&p), "seed {seed}");
            if circuit.net(net).fanout() == 0 {
                assert!(observability.of(net).abs() < 1e-12, "seed {seed}");
            }
        }
    }
}
