//! Cross-crate integration tests: netlist generation → timing → ATPG →
//! proposed scan structure → power evaluation.

use scanpower_suite::atpg::{AtpgConfig, AtpgFlow};
use scanpower_suite::core::experiment::{CircuitExperiment, ExperimentOptions};
use scanpower_suite::core::{ProposedMethod, ProposedOptions};
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::{bench, techmap::TechMapper};
use scanpower_suite::power::{LeakageEstimator, LeakageLibrary};
use scanpower_suite::sim::{Logic, SimKernel};
use scanpower_suite::timing::Sta;

#[test]
fn proposed_structure_reduces_dynamic_power_on_table_sized_circuit() {
    let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(1);
    let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&circuit);
    assert!(
        row.dynamic_improvement_vs_traditional() > 20.0,
        "dynamic improvement only {:.1}%",
        row.dynamic_improvement_vs_traditional()
    );
    assert!(
        row.static_improvement_vs_traditional() > 0.0,
        "static improvement {:.1}% should be positive",
        row.static_improvement_vs_traditional()
    );
    assert!(row.proposed.total_toggles < row.traditional.total_toggles);
}

#[test]
fn proposed_structure_beats_input_control_on_dynamic_power() {
    let circuit = CircuitFamily::iscas89_like("s444").unwrap().generate(2);
    let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&circuit);
    assert!(
        row.proposed.dynamic_per_hz_uw <= row.input_control.dynamic_per_hz_uw * 1.02,
        "proposed {} vs input control {}",
        row.proposed.dynamic_per_hz_uw,
        row.input_control.dynamic_per_hz_uw
    );
}

#[test]
fn normal_mode_behaviour_is_preserved_end_to_end() {
    // Generate, apply the full proposed flow (including reordering), then
    // check that primary outputs and next-state functions are unchanged in
    // normal mode (Shift Enable = 0) for a set of random vectors.
    let circuit = CircuitFamily::iscas89_like("s382").unwrap().generate(3);
    let result = ProposedMethod::default().apply(&circuit).unwrap();
    let modified = result.structure.netlist();

    let mut ev_before = SimKernel::<Logic>::new(&circuit);
    let mut ev_after = SimKernel::<Logic>::new(modified);
    let pi = circuit.primary_inputs().len();
    let patterns =
        scanpower_suite::sim::patterns::random_logic_patterns(ev_before.inputs().len(), 64, 9);
    for pattern in patterns {
        let before = ev_before.evaluate(&circuit, &pattern);
        let mut adapted = pattern[..pi].to_vec();
        adapted.push(Logic::Zero); // Shift Enable off.
        adapted.extend_from_slice(&pattern[pi..]);
        let after = ev_after.evaluate(modified, &adapted);
        for (a, b) in circuit
            .primary_outputs()
            .iter()
            .zip(modified.primary_outputs())
        {
            assert_eq!(before[a.index()], after[b.index()]);
        }
        for (a, b) in circuit
            .pseudo_outputs()
            .iter()
            .zip(modified.pseudo_outputs())
        {
            assert_eq!(before[a.index()], after[b.index()]);
        }
    }
}

#[test]
fn critical_path_is_never_lengthened_by_the_flow() {
    for (name, seed) in [("s344", 1), ("s510", 2), ("s641", 3)] {
        let circuit = CircuitFamily::iscas89_like(name).unwrap().generate(seed);
        let result = ProposedMethod::default().apply(&circuit).unwrap();
        let sta = Sta::default();
        let before = sta.analyze(&circuit).unwrap().critical_delay();
        let after = sta
            .analyze(result.structure.netlist())
            .unwrap()
            .critical_delay();
        assert!(
            after <= before + 1e-9,
            "{name}: critical path grew from {before} to {after}"
        );
    }
}

#[test]
fn technology_mapped_circuit_goes_through_the_whole_flow() {
    // Parse s27, map it to NAND/NOR/INV, and run the experiment on the
    // mapped netlist: the flow must work on mapped circuits exactly as the
    // paper describes.
    let original = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let mapped = TechMapper::new().map(&original).unwrap();
    assert!(mapped.gates().iter().all(|g| g.kind.in_target_library()));
    let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&mapped);
    assert!(row.traditional.dynamic_per_hz_uw > 0.0);
    assert!(row.proposed.dynamic_per_hz_uw <= row.traditional.dynamic_per_hz_uw);
}

#[test]
fn atpg_patterns_keep_their_coverage_on_the_modified_structure() {
    // Fault coverage of the original test set must not be affected by the
    // structural modification (the paper: "Fault coverage is not affected by
    // this method"), because in normal mode the MUXes are transparent.
    use scanpower_suite::sim::fault::{all_net_faults, FaultSim};
    let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(5);
    let test_set = AtpgFlow::new(AtpgConfig::fast()).run(&circuit);

    let faults = all_net_faults(&circuit);
    let sim = FaultSim::new(&circuit);
    let coverage_before = sim.coverage(&circuit, &faults, &test_set.patterns);

    let result = ProposedMethod::new(ProposedOptions {
        reorder_inputs: true,
        ..ProposedOptions::default()
    })
    .apply(&circuit)
    .unwrap();
    let modified = result.structure.netlist();
    // Same faults on the original nets, observed through the modified
    // netlist with Shift Enable = 0 appended to every pattern.
    let pi = circuit.primary_inputs().len();
    let adapted: Vec<Vec<bool>> = test_set
        .patterns
        .iter()
        .map(|p| {
            let mut v = p[..pi].to_vec();
            v.push(false);
            v.extend_from_slice(&p[pi..]);
            v
        })
        .collect();
    let sim_after = FaultSim::new(modified);
    let coverage_after = sim_after.coverage(modified, &faults, &adapted);
    assert!(
        coverage_after >= coverage_before - 1e-9,
        "coverage dropped from {coverage_before} to {coverage_after}"
    );
}

#[test]
fn leakage_directed_pattern_is_no_worse_than_undirected() {
    // Ablation A of DESIGN.md: with the leakage-observability directive the
    // scan-mode leakage of the chosen vector must not be worse than the
    // undirected variant (it is usually strictly better).
    let circuit = CircuitFamily::iscas89_like("s641").unwrap().generate(4);
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(&circuit, &library);
    let directed = ProposedMethod::new(ProposedOptions {
        leakage_directed: true,
        reorder_inputs: false,
        ..ProposedOptions::default()
    })
    .apply(&circuit)
    .unwrap();
    let undirected = ProposedMethod::new(ProposedOptions {
        leakage_directed: false,
        reorder_inputs: false,
        ..ProposedOptions::default()
    })
    .apply(&circuit)
    .unwrap();
    let _ = &estimator;
    assert!(
        directed.scan_mode_leakage_na <= undirected.scan_mode_leakage_na * 1.05,
        "directed {} nA vs undirected {} nA",
        directed.scan_mode_leakage_na,
        undirected.scan_mode_leakage_na
    );
}
