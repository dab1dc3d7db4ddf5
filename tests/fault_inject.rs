//! Deterministic fault-injection drills for the experiment pipeline.
//!
//! Built only with `--features fault-inject` (see `crates/suite/Cargo.toml`:
//! the target is gated by `required-features`). Every test here injects a
//! failure into a named failpoint — the supervised per-circuit jobs of
//! [`run_table1_partial`], the packed replay's block loop, or the leakage
//! observer — and then checks the robustness contract:
//!
//! 1. the process survives (the panic is isolated into the failed
//!    circuit's slot as [`ExperimentError::WorkerFailed`]),
//! 2. every surviving circuit's row is **bit-identical** to a clean run,
//!    at every thread count, and
//! 3. the failed slot's error is identical on every run — failures are
//!    part of the deterministic report, not a flake.
//!
//! Fault triggers are keyed (job index, block index, hit ordinal), never
//! wall-clock based, so nothing here depends on timing or scheduling.
//! The process-global failpoint registry is serialized through
//! [`failpoint::scope`]; each test holds the scope guard for its whole
//! body and starts from an empty registry.

use std::time::Duration;

use scanpower_suite::core::experiment::{run_table1_partial, ExperimentOptions, Table1Report};
use scanpower_suite::core::ExperimentError;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::sim::failpoint::{self, Fault};

const SCALE: Option<f64> = Some(0.3);
const SEED: u64 = 1;

fn specs() -> Vec<CircuitFamily> {
    vec![
        CircuitFamily::iscas89_like("s344").unwrap(),
        CircuitFamily::iscas89_like("s382").unwrap(),
        CircuitFamily::iscas89_like("s444").unwrap(),
    ]
}

fn options(threads: usize) -> ExperimentOptions {
    ExperimentOptions {
        threads,
        ..ExperimentOptions::fast()
    }
}

/// A clean (no faults armed) single-threaded reference run.
fn clean_reference(specs: &[CircuitFamily]) -> Table1Report {
    run_table1_partial(specs, &options(1), SCALE, SEED)
        .into_report()
        .expect("clean run")
}

/// A panic injected into one circuit's supervised job is isolated into
/// that circuit's slot; the siblings stay bit-identical to a clean run at
/// every thread count, and repeated runs produce the identical outcome.
#[test]
fn injected_circuit_panic_degrades_only_that_slot() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    // Keyed on the job index, so the trigger is the same under any
    // thread scheduling; unlimited `times` so every run re-fires.
    failpoint::configure("core::experiment::circuit", Fault::panic().for_key(1));

    for threads in [1, 3, 0] {
        for run in 0..2 {
            let outcome = run_table1_partial(&specs, &options(threads), SCALE, SEED);
            assert!(!outcome.is_complete());
            assert_eq!(
                outcome.failures().len(),
                1,
                "threads {threads} run {run}: exactly one slot fails"
            );
            for (index, slot) in outcome.outcomes.iter().enumerate() {
                if index == 1 {
                    assert_eq!(
                        slot.as_ref().expect_err("the injected panic"),
                        &ExperimentError::WorkerFailed {
                            circuit: specs[1].name().to_owned(),
                            message: "injected fault at failpoint `core::experiment::circuit`"
                                .into(),
                            attempts: 1,
                        },
                        "threads {threads} run {run}: deterministic error slot"
                    );
                } else {
                    assert_eq!(
                        slot.as_ref().expect("sibling survived"),
                        &clean.rows[index],
                        "threads {threads} run {run}: sibling bit-identical"
                    );
                }
            }
            assert_eq!(outcome.report().rows.len(), specs.len() - 1);
        }
    }
    assert_eq!(failpoint::fired_count("core::experiment::circuit"), 6);
}

/// An Error-action fault at the same failpoint surfaces through the typed
/// channel (no unwinding at all) with the same deterministic message.
#[test]
fn injected_circuit_error_takes_the_typed_channel() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    failpoint::configure("core::experiment::circuit", Fault::error().for_key(2));
    let outcome = run_table1_partial(&specs, &options(3), SCALE, SEED);
    assert_eq!(
        outcome.outcomes[2]
            .as_ref()
            .expect_err("the injected error"),
        &ExperimentError::WorkerFailed {
            circuit: specs[2].name().to_owned(),
            message: "injected fault at failpoint `core::experiment::circuit`".into(),
            attempts: 1,
        }
    );
    assert_eq!(outcome.outcomes[0].as_ref().unwrap(), &clean.rows[0]);
    assert_eq!(outcome.outcomes[1].as_ref().unwrap(), &clean.rows[1]);
    assert!(outcome.clone().into_report().is_err());
}

/// A single transient panic (`times(1)`) inside the supervised attempt is
/// absorbed by a one-retry budget: the full report comes back equal to the
/// clean run, and the fault demonstrably fired.
#[test]
fn one_retry_absorbs_a_transient_fault() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    failpoint::configure("sim::driver::job", Fault::panic().for_key(1).times(1));
    let outcome = run_table1_partial(
        &specs,
        &ExperimentOptions {
            retries: 1,
            ..options(1)
        },
        SCALE,
        SEED,
    );
    assert_eq!(failpoint::fired_count("sim::driver::job"), 1);
    assert!(outcome.is_complete());
    assert_eq!(
        outcome.into_report().expect("all circuits recovered"),
        clean,
        "the retried run is bit-identical to the clean run"
    );
}

/// Without a retry budget the same transient fault consumes the slot —
/// and a second, fully clean run in the same process is unaffected.
#[test]
fn exhausted_retry_budget_reports_the_panic_and_the_process_recovers() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    failpoint::configure("sim::driver::job", Fault::panic().for_key(0).times(1));
    let outcome = run_table1_partial(&specs, &options(1), SCALE, SEED);
    let error = outcome.outcomes[0].as_ref().expect_err("no retry budget");
    assert_eq!(
        error,
        &ExperimentError::WorkerFailed {
            circuit: specs[0].name().to_owned(),
            message: "injected fault at failpoint `sim::driver::job`".into(),
            attempts: 1,
        }
    );

    // The registry entry is spent (`times(1)`); the next run is clean.
    let recovered = run_table1_partial(&specs, &options(1), SCALE, SEED);
    assert_eq!(recovered.into_report().expect("fault spent"), clean);
}

/// A panic injected into the packed replay's block loop — deep inside a
/// worker, several layers below the supervisor — is still isolated into
/// the owning circuit's slot, and the sibling circuits are untouched.
#[test]
fn replay_block_panic_is_contained_by_the_supervisor() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    // Unkeyed single shot: with one thread the first replay to reach
    // block 0 is circuit 0's, deterministically.
    failpoint::configure("sim::replay::block", Fault::panic().on_nth(1));
    let outcome = run_table1_partial(&specs, &options(1), SCALE, SEED);
    assert_eq!(
        outcome.outcomes[0].as_ref().expect_err("replay panicked"),
        &ExperimentError::WorkerFailed {
            circuit: specs[0].name().to_owned(),
            message: "injected fault at failpoint `sim::replay::block`".into(),
            attempts: 1,
        }
    );
    for index in 1..specs.len() {
        assert_eq!(
            outcome.outcomes[index].as_ref().unwrap(),
            &clean.rows[index]
        );
    }
}

/// Same drill one layer further down: the leakage observer's per-shift
/// failpoint, exercised through the whole pipeline.
#[test]
fn observer_cycle_panic_is_contained_by_the_supervisor() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    failpoint::configure("power::observer::cycle", Fault::panic().on_nth(1));
    let outcome = run_table1_partial(&specs, &options(1), SCALE, SEED);
    assert_eq!(
        outcome.outcomes[0].as_ref().expect_err("observer panicked"),
        &ExperimentError::WorkerFailed {
            circuit: specs[0].name().to_owned(),
            message: "injected fault at failpoint `power::observer::cycle`".into(),
            attempts: 1,
        }
    );
    for index in 1..specs.len() {
        assert_eq!(
            outcome.outcomes[index].as_ref().unwrap(),
            &clean.rows[index]
        );
    }
}

/// Delay faults slow a worker down without changing anything it computes:
/// the report stays bit-identical to the clean run at every thread count
/// (the merge is slot-ordered, so a slow job cannot reorder results).
#[test]
fn delay_faults_never_perturb_the_report() {
    let _scope = failpoint::scope();
    let specs = specs();
    let clean = clean_reference(&specs);

    failpoint::configure(
        "core::experiment::circuit",
        Fault::delay(Duration::from_millis(20)).for_key(0),
    );
    for threads in [1, 3, 0] {
        let outcome = run_table1_partial(&specs, &options(threads), SCALE, SEED);
        assert_eq!(
            outcome.into_report().expect("delays are not failures"),
            clean,
            "threads {threads}"
        );
    }
    assert_eq!(failpoint::fired_count("core::experiment::circuit"), 3);
}

/// The streaming callback under an injected panic: the panicked slot is
/// delivered at end of run (the panic escapes the job before an outcome
/// exists), yet every slot still streams exactly once, in spec order,
/// with outcomes identical to the returned batch — at every thread count.
#[test]
fn injected_panic_does_not_break_streamed_delivery_order() {
    use std::sync::Mutex;

    use scanpower_suite::core::experiment::run_table1_partial_streamed;

    let _scope = failpoint::scope();
    let specs = specs();
    failpoint::configure("core::experiment::circuit", Fault::panic().for_key(1));

    for threads in [1, 3, 0] {
        let streamed = Mutex::new(Vec::new());
        let outcome = run_table1_partial_streamed(
            &specs,
            &options(threads),
            SCALE,
            SEED,
            None,
            &|index, row| streamed.lock().unwrap().push((index, row.clone())),
        );
        let streamed = streamed.into_inner().unwrap();
        let indices: Vec<usize> = streamed.iter().map(|(index, _)| *index).collect();
        assert_eq!(indices, vec![0, 1, 2], "threads {threads}: spec order");
        for (index, row) in streamed {
            assert_eq!(
                row, outcome.outcomes[index],
                "threads {threads}: streamed == batch"
            );
        }
        assert!(matches!(
            outcome.outcomes[1]
                .as_ref()
                .expect_err("the injected panic"),
            ExperimentError::WorkerFailed { .. }
        ));
    }
}
