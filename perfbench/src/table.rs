//! The table workloads: `table1_capped`, `table1_full` and `given_testset`.
//!
//! The untraced run times the library's own entry point
//! (`run_table1_partial_streamed`) for the ATPG-backed tables. The traced run
//! composes the same row stage by stage, in `try_run`'s order, with a span
//! around every call, and the gate checks that the composition and the
//! end-to-end row agree. `given_testset` has no library entry point (it
//! replays a given test set instead of an ATPG one), so both runs time the
//! composition from stage 4 on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scanpower_suite::atpg::{AtpgFlow, TestSet};
use scanpower_suite::core::baseline::{traditional_shift_config, InputControlBaseline};
use scanpower_suite::core::experiment::{
    run_table1_partial_streamed, CircuitExperiment, CircuitRow, ExperimentOptions, SchemePower,
    Table1Report,
};
use scanpower_suite::core::{ExperimentError, ExperimentResult, ProposedMethod};
use scanpower_suite::lint::lint_netlist;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::Netlist;
use scanpower_suite::sim::patterns::random_bool_patterns;
use scanpower_suite::sim::scan::ScanPattern;

use crate::gate;
use crate::report::{self, median, Metrics};
use crate::trace::{self, Span, Tracer};
use crate::{Config, Outcome, SETUP_REPEATS};

/// One table workload: circuits (already scaled) and harness options.
#[derive(Debug, Clone)]
pub struct TableWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The circuits, in row order.
    pub circuits: Vec<CircuitFamily>,
    /// Harness options (every thread knob pinned to 1).
    pub options: ExperimentOptions,
    /// Seed the circuits are generated from.
    pub netlist_seed: u64,
    /// `Some(n)`: replay a seeded, fully specified `n`-pattern test set
    /// instead of running ATPG.
    pub given_patterns: Option<usize>,
}

fn family(name: &str, scale: f64) -> CircuitFamily {
    let spec = CircuitFamily::iscas89_like(name).expect("Table I circuit");
    if (scale - 1.0).abs() < f64::EPSILON {
        spec
    } else {
        spec.scaled(scale)
    }
}

pub(crate) fn single_threaded(mut options: ExperimentOptions) -> ExperimentOptions {
    options.threads = 1;
    options.atpg.threads = 1;
    options.proposed.threads = 1;
    options
}

/// Netlist generation seed of every table workload: the published Table I
/// circuits as `table1_report` generates them.
pub const NETLIST_SEED: u64 = 1;

/// Folds the workload seed into the flow's own seeds: the ATPG random
/// phase and the proposed flow's don't-care fill. Seed 0 keeps the library
/// defaults, so it reproduces `table1_report`.
pub(crate) fn seeded(mut options: ExperimentOptions, seed: u64) -> ExperimentOptions {
    options.atpg.seed ^= seed;
    options.proposed.seed ^= seed;
    options
}

/// The named table workload at `seed`; `tiny` shrinks it to a smoke-test
/// size.
#[must_use]
pub fn workload(name: &str, seed: u64, tiny: bool) -> Option<TableWorkload> {
    let circuits = |list: &[(&str, f64)]| -> Vec<CircuitFamily> {
        list.iter().map(|&(n, s)| family(n, s)).collect()
    };
    let (name, circuits, options, given_patterns) = match name {
        "table1_capped" => {
            let list: &[(&str, f64)] = if tiny {
                &[("s344", 0.3), ("s5378", 0.05)]
            } else {
                &[
                    ("s344", 1.0),
                    ("s382", 1.0),
                    ("s444", 1.0),
                    ("s510", 1.0),
                    ("s641", 1.0),
                    ("s713", 1.0),
                    ("s1196", 1.0),
                    ("s1238", 1.0),
                    ("s1423", 1.0),
                    ("s1494", 1.0),
                    ("s5378", 0.5),
                    ("s9234", 0.25),
                ]
            };
            let mut options = ExperimentOptions::fast();
            options.max_patterns = Some(if tiny { 8 } else { 32 });
            ("table1_capped", circuits(list), options, None)
        }
        "table1_full" => {
            let list: &[(&str, f64)] = if tiny {
                &[("s641", 0.2)]
            } else {
                &[
                    ("s641", 1.0),
                    ("s1196", 1.0),
                    ("s1238", 1.0),
                    ("s1423", 1.0),
                    ("s1494", 1.0),
                ]
            };
            (
                "table1_full",
                circuits(list),
                ExperimentOptions::default(),
                None,
            )
        }
        "given_testset" => {
            let list: &[(&str, f64)] = if tiny {
                &[("s1423", 0.2)]
            } else {
                &[("s1423", 1.0), ("s5378", 1.0)]
            };
            let patterns = if tiny { 64 } else { 1024 };
            (
                "given_testset",
                circuits(list),
                ExperimentOptions::default(),
                Some(patterns),
            )
        }
        _ => return None,
    };
    Some(TableWorkload {
        name,
        circuits,
        options: single_threaded(seeded(options, seed)),
        netlist_seed: NETLIST_SEED,
        given_patterns,
    })
}

/// The inputs set-up builds: validated netlists and, for `given_testset`,
/// the seeded test sets.
struct Inputs {
    netlists: Vec<Netlist>,
    patterns: Vec<Vec<ScanPattern>>,
}

/// Seed of the given test set, distinct from the netlist seed.
fn pattern_seed(seed: u64) -> u64 {
    seed ^ 0x7e57_5e70_0000_0001
}

fn build_inputs(w: &TableWorkload, seed: u64) -> Result<Inputs, String> {
    let mut netlists = Vec::with_capacity(w.circuits.len());
    let mut patterns = Vec::new();
    for spec in &w.circuits {
        let netlist = spec.generate(w.netlist_seed);
        if netlist.dff_count() == 0 || lint_netlist(&netlist).has_errors() {
            return Err(format!(
                "{}: generated input is not a lint-clean full-scan circuit",
                spec.name()
            ));
        }
        if let Some(count) = w.given_patterns {
            let pi = netlist.primary_inputs().len();
            let width = netlist.combinational_inputs().len();
            patterns.push(
                random_bool_patterns(width, count, pattern_seed(seed))
                    .iter()
                    .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
                    .collect(),
            );
        }
        netlists.push(netlist);
    }
    Ok(Inputs { netlists, patterns })
}

/// What the staged composition learns about one row besides the row.
#[derive(Debug, Clone, Default)]
struct RowFacts {
    gates: usize,
    test_set: Option<TestSet>,
    replayed: usize,
    shift_cycles: usize,
    toggles: u64,
}

/// Stages 4–9 of `try_run`: the three replays, the input-control plan and
/// the proposed structure, each a separate call with its own span.
fn compose_row(
    experiment: &CircuitExperiment,
    netlist: &Netlist,
    patterns: &[ScanPattern],
    fault_coverage: f64,
    tracer: &mut Tracer,
    facts: &mut RowFacts,
) -> ExperimentResult<CircuitRow> {
    let subject = netlist.name();
    let mut replay = |tracer: &mut Tracer,
                      name: &'static str,
                      netlist: &Netlist,
                      patterns: &[ScanPattern],
                      config|
     -> ExperimentResult<SchemePower> {
        let (power, _) = tracer.span("replay", name, subject, || {
            experiment.try_evaluate_scheme_stats(netlist, patterns, &config)
        })?;
        facts.shift_cycles += power.shift_cycles;
        facts.toggles += power.total_toggles;
        Ok(power)
    };
    let traditional = replay(
        tracer,
        "try_evaluate_scheme_stats(traditional)",
        netlist,
        patterns,
        traditional_shift_config(netlist),
    )?;
    let baseline = InputControlBaseline::new();
    let plan = tracer.span("core", "InputControlBaseline::plan", subject, || {
        baseline.plan(netlist)
    });
    let input_control = replay(
        tracer,
        "try_evaluate_scheme_stats(input_control)",
        netlist,
        patterns,
        baseline.shift_config(netlist, &plan),
    )?;
    let proposed = tracer.span("core", "ProposedMethod::apply", subject, || {
        ProposedMethod::new(experiment.options().proposed.clone()).apply(netlist)
    })?;
    let adapted = tracer.span("core", "ScanStructure::adapt_patterns", subject, || {
        proposed.structure.adapt_patterns(patterns)
    });
    let proposed_power = replay(
        tracer,
        "try_evaluate_scheme_stats(proposed)",
        proposed.structure.netlist(),
        &adapted,
        proposed.structure.shift_config(&proposed.scan_mode_pi),
    )?;
    facts.gates = netlist.gate_count();
    facts.replayed = patterns.len();
    Ok(CircuitRow {
        circuit: netlist.name().to_owned(),
        gates: netlist.gate_count(),
        flip_flops: netlist.dff_count(),
        patterns: patterns.len(),
        fault_coverage,
        mux_coverage: proposed.mux_coverage(),
        traditional,
        input_control,
        proposed: proposed_power,
    })
}

/// The whole row in `try_run`'s order: generate, lint, ATPG and truncate,
/// then [`compose_row`].
fn staged_row(
    experiment: &CircuitExperiment,
    spec: &CircuitFamily,
    netlist_seed: u64,
    tracer: &mut Tracer,
) -> ExperimentResult<(CircuitRow, RowFacts)> {
    let subject = spec.name();
    let row_span = tracer.begin("harness", "row", subject);
    let netlist = tracer.span("netlist", "CircuitFamily::generate", subject, || {
        spec.generate(netlist_seed)
    });
    if netlist.dff_count() == 0 {
        tracer.end(row_span);
        return Err(ExperimentError::NoScanCells {
            circuit: subject.to_owned(),
        });
    }
    let lint = tracer.span("lint", "lint_netlist", subject, || lint_netlist(&netlist));
    if lint.has_errors() {
        tracer.end(row_span);
        return Err(lint.into());
    }
    let test_set = tracer.span("atpg", "AtpgFlow::run", subject, || {
        AtpgFlow::new(experiment.options().atpg.clone()).run(&netlist)
    });
    let mut patterns = test_set.to_scan_patterns(&netlist);
    if let Some(limit) = experiment.options().max_patterns {
        patterns.truncate(limit);
    }
    let mut facts = RowFacts::default();
    let row = compose_row(
        experiment,
        &netlist,
        &patterns,
        test_set.fault_coverage,
        tracer,
        &mut facts,
    );
    facts.test_set = Some(test_set);
    tracer.end(row_span);
    row.map(|row| (row, facts))
}

/// One pass over every circuit: rows (or their errors) and per-row
/// completion times since the pass started.
struct Pass {
    outcomes: Vec<ExperimentResult<CircuitRow>>,
    facts: Vec<RowFacts>,
    row_done: Vec<Duration>,
    wall: Duration,
}

impl Pass {
    fn rows(&self) -> Vec<CircuitRow> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().cloned())
            .collect()
    }

    fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }

    /// Seconds each row took, in row order.
    fn row_seconds(&self) -> Vec<f64> {
        let mut previous = Duration::ZERO;
        self.row_done
            .iter()
            .map(|&done| {
                let took = done.saturating_sub(previous);
                previous = done;
                took.as_secs_f64()
            })
            .collect()
    }
}

fn panic_error(circuit: &str, payload: &(dyn std::any::Any + Send)) -> ExperimentError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    ExperimentError::WorkerFailed {
        circuit: circuit.to_owned(),
        message,
        attempts: 1,
    }
}

/// The end-to-end pass: the library's harness entry point for ATPG-backed
/// tables, the untraced composition for `given_testset`.
fn end_to_end_pass(w: &TableWorkload, inputs: &Inputs) -> Pass {
    if w.given_patterns.is_some() {
        let mut tracer = Tracer::new(false, Instant::now());
        return staged_pass(w, inputs, &mut tracer);
    }
    let done = Mutex::new(Vec::with_capacity(w.circuits.len()));
    let start = Instant::now();
    let outcomes = catch_unwind(AssertUnwindSafe(|| {
        run_table1_partial_streamed(
            &w.circuits,
            &w.options,
            None,
            w.netlist_seed,
            None,
            &|_, _| {
                done.lock().expect("row clock").push(start.elapsed());
            },
        )
        .outcomes
    }))
    .unwrap_or_else(|payload| {
        let error = panic_error(w.name, payload.as_ref());
        w.circuits.iter().map(|_| Err(error.clone())).collect()
    });
    let wall = start.elapsed();
    Pass {
        outcomes,
        facts: Vec::new(),
        row_done: done.into_inner().expect("row clock"),
        wall,
    }
}

/// The staged composition over every circuit, spans into `tracer`.
fn staged_pass(w: &TableWorkload, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let experiment = CircuitExperiment::new(w.options.clone());
    let start = Instant::now();
    let mut pass = Pass {
        outcomes: Vec::new(),
        facts: Vec::new(),
        row_done: Vec::new(),
        wall: Duration::ZERO,
    };
    for (index, spec) in w.circuits.iter().enumerate() {
        let attempt = catch_unwind(AssertUnwindSafe(|| match w.given_patterns {
            Some(_) => {
                let netlist = &inputs.netlists[index];
                let row_span = tracer.begin("harness", "row", netlist.name());
                let mut facts = RowFacts::default();
                let row = compose_row(
                    &experiment,
                    netlist,
                    &inputs.patterns[index],
                    0.0,
                    tracer,
                    &mut facts,
                );
                tracer.end(row_span);
                row.map(|row| (row, facts))
            }
            None => staged_row(&experiment, spec, w.netlist_seed, tracer),
        }))
        .unwrap_or_else(|payload| Err(panic_error(spec.name(), payload.as_ref())));
        match attempt {
            Ok((row, facts)) => {
                pass.outcomes.push(Ok(row));
                pass.facts.push(facts);
            }
            Err(error) => pass.outcomes.push(Err(error)),
        }
        pass.row_done.push(start.elapsed());
    }
    pass.wall = start.elapsed();
    pass
}

/// Runs a table workload.
#[must_use]
pub fn run(config: &Config, w: &TableWorkload) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up: generate and lint every circuit, build the given test sets.
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = build_inputs(w, config.seed);
        setup_times.push(start.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = match inputs.expect("at least one set-up") {
        Ok(inputs) => inputs,
        Err(message) => {
            outcome.fail(message);
            return outcome;
        }
    };
    outcome.metrics.insert("setup_s", median(&setup_times));
    outcome.note_str("setup_times_s", &format!("{setup_times:?}"));

    if config.trace {
        traced(config, w, &inputs, &mut outcome);
    } else {
        untraced(config, w, &inputs, &mut outcome);
    }
    outcome
}

fn count_pass(outcome: &mut Outcome, pass: &Pass) {
    outcome.attempted += pass.outcomes.len() as u64;
    outcome.failed += pass.failures() as u64;
    for (index, failure) in pass.outcomes.iter().enumerate() {
        if let Err(error) = failure {
            outcome.fail(format!("row {index}: {error}"));
        }
    }
}

fn untraced(config: &Config, w: &TableWorkload, inputs: &Inputs, outcome: &mut Outcome) {
    let budget = Duration::from_secs(config.seconds);
    let timed = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || timed.elapsed() < budget {
        passes.push(end_to_end_pass(w, inputs));
    }
    let timed = timed.elapsed().as_secs_f64();
    outcome.metrics.insert("peak_rss_mb", report::peak_rss_mb());

    for pass in &passes {
        count_pass(outcome, pass);
    }
    // One job is one table: the user asks for the table and waits for
    // every row of it.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    outcome.metrics.insert("table_s", median(&walls));
    outcome.record_latencies(&walls_ms);
    outcome
        .metrics
        .insert("jobs_per_s", passes.len() as f64 / timed);
    outcome.note_num("passes", passes.len() as f64);
    outcome.note_str("pass_s", &format!("{walls:?}"));
    outcome.note_str(
        "first_pass_row_s",
        &format!("{:?}", passes[0].row_seconds()),
    );

    let rows = passes[0].rows();
    record_reductions(outcome, &rows);
    outcome.note_digests(&rows);
    for pass in &passes[1..] {
        if let Err(message) = gate::check_same_columns("repeat pass", &rows, &pass.rows()) {
            outcome.fail(message);
        }
    }
    // The gate: pinned digests when this seed has them, otherwise an
    // independent stage-by-stage recomputation of every row.
    match pinned_check(config, w, &rows) {
        Ok(true) => outcome.note_str("gate", "pinned digests"),
        Ok(false) => {
            outcome.note_str("gate", "unpinned seed: staged recomputation");
            let mut tracer = Tracer::new(false, Instant::now());
            let staged = staged_pass(w, inputs, &mut tracer);
            if let Err(message) =
                gate::check_same_columns("staged composition", &rows, &staged.rows())
            {
                outcome.fail(message);
            }
        }
        Err(message) => outcome.fail(message),
    }
}

/// The pinned-digest gate; pins describe full-size workloads only.
fn pinned_check(config: &Config, w: &TableWorkload, rows: &[CircuitRow]) -> Result<bool, String> {
    if config.tiny {
        Ok(false)
    } else {
        gate::check_pins(w.name, config.seed, rows)
    }
}

fn record_reductions(outcome: &mut Outcome, rows: &[CircuitRow]) {
    let report = Table1Report {
        rows: rows.to_vec(),
    };
    outcome.metrics.insert(
        "avg_dynamic_reduction_pct",
        report.average_dynamic_improvement(),
    );
    outcome.metrics.insert(
        "avg_static_reduction_pct",
        report.average_static_improvement(),
    );
}

fn traced(config: &Config, w: &TableWorkload, inputs: &Inputs, outcome: &mut Outcome) {
    let plain = end_to_end_pass(w, inputs);
    count_pass(outcome, &plain);
    let mut tracer = Tracer::new(true, Instant::now());
    let staged = staged_pass(w, inputs, &mut tracer);
    count_pass(outcome, &staged);
    let rows = plain.rows();
    outcome.note_digests(&rows);
    if let Err(message) = gate::check_same_columns("traced composition", &rows, &staged.rows()) {
        outcome.fail(message);
    }
    if let Err(message) = pinned_check(config, w, &rows) {
        outcome.fail(message);
    }

    let spans = tracer.take();
    let m = &mut outcome.metrics;
    m.insert("trace.table_s_untraced", plain.wall.as_secs_f64());
    m.insert("trace.table_s_traced", staged.wall.as_secs_f64());
    m.insert(
        "trace.overhead_ratio",
        staged.wall.as_secs_f64() / plain.wall.as_secs_f64(),
    );
    stage_metrics(m, &spans, &staged);
    crate::layer_shares(m, &spans);
    outcome.keep_spans(0, spans);
}

/// The traced staged composition of one service job's circuits (the
/// service's cold path, run in-process): its stage metrics go into
/// `outcome`, its rows are returned for the gate.
pub(crate) fn staged_job_metrics(
    w: &TableWorkload,
    outcome: &mut Outcome,
) -> Result<Vec<CircuitRow>, String> {
    let inputs = build_inputs(w, 0)?;
    let mut tracer = Tracer::new(true, Instant::now());
    let pass = staged_pass(w, &inputs, &mut tracer);
    if let Some(Err(error)) = pass.outcomes.iter().find(|o| o.is_err()) {
        return Err(format!(
            "staged composition at seed {}: {error}",
            w.netlist_seed
        ));
    }
    let spans = tracer.take();
    stage_metrics(&mut outcome.metrics, &spans, &pass);
    outcome.keep_spans(crate::serve::CLIENTS, spans);
    Ok(pass.rows())
}

/// Per-layer metrics of one staged pass: stage times from the spans, work
/// counts from the row facts.
fn stage_metrics(m: &mut Metrics, spans: &[Span], pass: &Pass) {
    let total = |name| trace::total_seconds(spans, name);
    m.insert("netlist.generate_s", total("CircuitFamily::generate"));
    m.insert("lint.preflight_s", total("lint_netlist"));
    m.insert("atpg.flow_s", total("AtpgFlow::run"));
    m.insert(
        "core.input_control_plan_s",
        total("InputControlBaseline::plan"),
    );
    m.insert("core.proposed_apply_s", total("ProposedMethod::apply"));
    let replays = [
        (
            "replay.traditional_s",
            "try_evaluate_scheme_stats(traditional)",
        ),
        (
            "replay.input_control_s",
            "try_evaluate_scheme_stats(input_control)",
        ),
        ("replay.proposed_s", "try_evaluate_scheme_stats(proposed)"),
    ];
    let mut replay_s = 0.0;
    for (metric, span) in replays {
        replay_s += total(span);
        m.insert(metric, total(span));
    }

    let facts = &pass.facts;
    let sum = |f: &dyn Fn(&RowFacts) -> f64| -> f64 { facts.iter().map(f).sum() };
    let atpg = |f: &dyn Fn(&TestSet) -> usize| -> f64 {
        sum(&|r: &RowFacts| r.test_set.as_ref().map_or(0.0, |t| f(t) as f64))
    };
    let generated = atpg(&|t| t.patterns.len());
    m.insert("atpg.patterns_generated", generated);
    if generated > 0.0 {
        m.insert(
            "atpg.patterns_replayed_ratio",
            sum(&|r| r.replayed as f64) / generated,
        );
    }
    m.insert("atpg.random_patterns", atpg(&|t| t.random_patterns));
    m.insert(
        "atpg.deterministic_patterns",
        atpg(&|t| t.deterministic_patterns),
    );
    m.insert("atpg.aborted_faults", atpg(&|t| t.aborted_faults));
    m.insert("atpg.untestable_faults", atpg(&|t| t.untestable_faults));
    m.insert("atpg.random_sim_passes", atpg(&|t| t.random_sim_passes));
    let rows = pass.rows();
    let mean = |f: &dyn Fn(&CircuitRow) -> f64| -> f64 {
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        }
    };
    if generated > 0.0 {
        m.insert("atpg.fault_coverage", mean(&|r| r.fault_coverage));
    }
    m.insert("core.mux_coverage", mean(&|r| r.mux_coverage));
    let cycles = sum(&|r| r.shift_cycles as f64);
    m.insert("replay.shift_cycles", cycles);
    m.insert("replay.toggles", sum(&|r| r.toggles as f64));
    if cycles > 0.0 {
        m.insert("replay.ns_per_shift_cycle", replay_s * 1e9 / cycles);
    }
    m.insert("netlist.gates", sum(&|r| r.gates as f64));
}
