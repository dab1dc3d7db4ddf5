//! Smoke test of the benchmark: every workload at a tiny size, traced and
//! untraced, must pass its gate and print every named metric with its
//! unit; the gate must reject a row with one column altered.

use scanpower_perfbench::gate::{check_digests, check_same_columns, row_digest_hex};
use scanpower_perfbench::report::{END_TO_END, PER_LAYER};
use scanpower_perfbench::{run, Config, WORKLOADS};
use scanpower_suite::core::experiment::{CircuitExperiment, ExperimentOptions};
use scanpower_suite::netlist::generator::CircuitFamily;

fn tiny(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0,
        trace,
        tiny: true,
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let config = tiny(workload, trace);
            let outcome = run(&config).expect("known workload");
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.failures
            );
            let line = outcome.result_line(&config);
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalogue {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&field)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let rest = &line[at..];
                let end = rest.find('}').expect("closed metric");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            assert!(
                outcome.report_line(&config).contains("\"nproc\""),
                "the report line records the environment"
            );
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is not listed in BENCHMARK.json"
        );
    }
    for workload in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{workload}\"")));
    }
}

#[test]
fn gate_rejects_a_row_with_one_column_altered() {
    let netlist = CircuitFamily::iscas89_like("s344")
        .expect("Table I circuit")
        .scaled(0.3)
        .generate(1);
    let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&netlist);
    let pins = vec![(row.circuit.clone(), row_digest_hex(&row))];
    assert!(check_digests("pinned", &pins, std::slice::from_ref(&row)).is_ok());
    assert!(check_same_columns(
        "same",
        std::slice::from_ref(&row),
        std::slice::from_ref(&row)
    )
    .is_ok());

    let mut altered = row.clone();
    altered.proposed.static_uw += 1e-9;
    assert!(check_digests("pinned", &pins, std::slice::from_ref(&altered)).is_err());
    assert!(check_same_columns(
        "staged",
        std::slice::from_ref(&row),
        std::slice::from_ref(&altered)
    )
    .is_err());

    // Fault coverage is deliberately outside the digest.
    let mut recovered = row.clone();
    recovered.fault_coverage = 1.0;
    assert!(check_digests("pinned", &pins, std::slice::from_ref(&recovered)).is_ok());
}
