//! The evaluation harness that regenerates Table I of the paper.
//!
//! For every circuit the harness generates a test set (the ATOM substitute),
//! replays the scan-shift process under the three structures — traditional
//! scan, input control \[8\], and the proposed structure — and reports
//! dynamic power per hertz (Equation (1)) and average static power
//! (Equation (5)) of the combinational part during scan, plus the
//! improvement percentages of the proposed structure over both baselines.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use scanpower_atpg::{AtpgConfig, AtpgFlow};
use scanpower_cache::{CacheKey, KeyBuilder, ResultCache};
use scanpower_lint::lint_netlist;
use scanpower_netlist::generator::CircuitFamily;
use scanpower_netlist::Netlist;
use scanpower_power::{DynamicPower, LeakageEstimator, LeakageLibrary, PackedShiftLeakage};
use scanpower_sim::failpoint;
use scanpower_sim::scan::{ScanPattern, ShiftConfig, ShiftStats};
use scanpower_sim::{BlockDriver, CancelFlag, Canceled, JobFailure, JobPolicy, PackedScanShiftSim};
use scanpower_wire::Wire;

use crate::baseline::{traditional_shift_config, InputControlBaseline};
use crate::error::{ExperimentError, ExperimentResult};
use crate::proposed::{ProposedMethod, ProposedOptions};

/// Dynamic and static scan power of one structure (one cell of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemePower {
    /// Dynamic power per hertz of scan clock (µW/Hz) — "Dynamic (/f)".
    pub dynamic_per_hz_uw: f64,
    /// Average static power during shift (µW) — "Static".
    pub static_uw: f64,
    /// Total transitions counted during shift.
    pub total_toggles: u64,
    /// Number of shift cycles simulated.
    pub shift_cycles: usize,
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitRow {
    /// Circuit name.
    pub circuit: String,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of scan cells.
    pub flip_flops: usize,
    /// Number of scan test patterns applied.
    pub patterns: usize,
    /// Stuck-at fault coverage of the test set.
    pub fault_coverage: f64,
    /// Fraction of scan cells that received a MUX in the proposed structure.
    pub mux_coverage: f64,
    /// Traditional scan structure.
    pub traditional: SchemePower,
    /// Input-control structure \[8\].
    pub input_control: SchemePower,
    /// Proposed structure.
    pub proposed: SchemePower,
}

impl CircuitRow {
    /// Dynamic improvement of the proposed structure over traditional scan
    /// (percent).
    #[must_use]
    pub fn dynamic_improvement_vs_traditional(&self) -> f64 {
        improvement(
            self.traditional.dynamic_per_hz_uw,
            self.proposed.dynamic_per_hz_uw,
        )
    }

    /// Static improvement of the proposed structure over traditional scan
    /// (percent).
    #[must_use]
    pub fn static_improvement_vs_traditional(&self) -> f64 {
        improvement(self.traditional.static_uw, self.proposed.static_uw)
    }

    /// Dynamic improvement of the proposed structure over input control
    /// (percent).
    #[must_use]
    pub fn dynamic_improvement_vs_input_control(&self) -> f64 {
        improvement(
            self.input_control.dynamic_per_hz_uw,
            self.proposed.dynamic_per_hz_uw,
        )
    }

    /// Static improvement of the proposed structure over input control
    /// (percent).
    #[must_use]
    pub fn static_improvement_vs_input_control(&self) -> f64 {
        improvement(self.input_control.static_uw, self.proposed.static_uw)
    }
}

fn improvement(reference: f64, improved: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (reference - improved) / reference * 100.0
    }
}

/// Resource ceilings checked **before** a circuit's experiment dispatches
/// any simulation work. A circuit over a ceiling is refused with a
/// deterministic [`ExperimentError::ResourceLimit`] — the supervision
/// story's guard against one oversized submission starving every sibling
/// job. `None` (the default) means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceLimits {
    /// Refuse circuits with more than this many combinational gates
    /// (checked before ATPG runs).
    #[serde(default)]
    pub max_gates: Option<usize>,
    /// Refuse experiments whose replayed pattern count exceeds this
    /// ceiling (checked after ATPG has run to the
    /// [`ExperimentOptions::max_patterns`] budget, before any replay).
    /// Unlike `max_patterns` — which silently *caps* the workload — this is
    /// a hard refusal.
    #[serde(default)]
    pub max_replayed_patterns: Option<usize>,
}

/// A shareable, optional reference to a [`ResultCache`] — the form in which
/// the experiment harness carries its cache through [`ExperimentOptions`].
///
/// The handle is runtime state, not configuration: it is skipped by the
/// canonical wire encoding and by serde, it compares by *identity* (two
/// handles are equal when they point at the same cache instance, or are
/// both disabled), and the default is disabled — caching is strictly
/// opt-in. Cloning the options clones the handle cheaply (an [`Arc`]
/// bump), so every worker thread of a sharded run shares one cache.
///
/// Each handle built by [`ResultCacheHandle::new`] also owns a row-hit
/// counter, shared by its clones: [`row_hits`](ResultCacheHandle::row_hits)
/// counts the rows served from the memory or disk tier through this
/// handle only, however many other handles share the cache.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ResultCacheHandle {
    #[serde(skip)]
    cache: Option<Arc<ResultCache>>,
    #[serde(skip)]
    row_hits: Arc<AtomicU64>,
}

impl ResultCacheHandle {
    /// The disabled handle (the default): every lookup misses statically
    /// and nothing is stored.
    #[must_use]
    pub fn disabled() -> ResultCacheHandle {
        ResultCacheHandle::default()
    }

    /// Wraps a shared cache, with a fresh row-hit counter.
    #[must_use]
    pub fn new(cache: Arc<ResultCache>) -> ResultCacheHandle {
        ResultCacheHandle {
            cache: Some(cache),
            row_hits: Arc::default(),
        }
    }

    /// The cache, when enabled.
    #[must_use]
    pub fn get(&self) -> Option<&ResultCache> {
        self.cache.as_deref()
    }

    /// Rows served from the cache (memory or disk tier) through this
    /// handle and its clones.
    #[must_use]
    pub fn row_hits(&self) -> u64 {
        self.row_hits.load(Ordering::Relaxed)
    }
}

impl From<Arc<ResultCache>> for ResultCacheHandle {
    fn from(cache: Arc<ResultCache>) -> ResultCacheHandle {
        ResultCacheHandle::new(cache)
    }
}

impl PartialEq for ResultCacheHandle {
    fn eq(&self, other: &ResultCacheHandle) -> bool {
        match (&self.cache, &other.cache) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl fmt::Debug for ResultCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cache {
            Some(cache) => f.debug_tuple("ResultCacheHandle").field(cache).finish(),
            None => f.write_str("ResultCacheHandle(disabled)"),
        }
    }
}

/// Options of the per-circuit experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOptions {
    /// ATPG configuration used to generate the test set.
    pub atpg: AtpgConfig,
    /// Pattern budget of the test set (None = all ATPG generates). ATPG
    /// stops once this many patterns are kept
    /// ([`AtpgFlow::run_with_budget`]), so the replayed patterns are the
    /// first `max_patterns` of the unbudgeted set, and the row's
    /// `fault_coverage` is the coverage of exactly the replayed patterns.
    pub max_patterns: Option<usize>,
    /// Options of the proposed flow.
    pub proposed: ProposedOptions,
    /// Worker threads for the multi-circuit sharding of
    /// [`run_table1_partial`] (one circuit per [`BlockDriver`] job): `0` =
    /// automatic (one per hardware thread, overridable with
    /// `SCANPOWER_THREADS` — the shared
    /// [`resolve_worker_threads`](scanpower_sim::parallel::resolve_worker_threads)
    /// policy), `1` = the sequential fallback. The report is bit-identical
    /// whatever the count.
    #[serde(default)]
    pub threads: usize,
    /// Resource ceilings checked before any simulation work dispatches —
    /// see [`ResourceLimits`]. Unlimited by default.
    #[serde(default)]
    pub limits: ResourceLimits,
    /// Extra attempts [`run_table1_partial`] grants a circuit job whose
    /// attempt **panicked** (the transient-failure model; typed errors are
    /// deterministic and never retried). `0` (the default) fails fast.
    #[serde(default)]
    pub retries: u32,
    /// Per-attempt deadline for [`run_table1_partial`] circuit jobs, in
    /// milliseconds. The deadline is cooperative: the replay polls a
    /// [`CancelFlag`] once per packed block and the job winds down with a
    /// deterministic [`ExperimentError::Canceled`] row. `None` (the
    /// default) never cancels. Note that a deadline makes *whether* a row
    /// survives timing-dependent — surviving rows are still bit-identical.
    #[serde(default)]
    pub job_deadline_ms: Option<u64>,
    /// Content-addressed result cache, disabled by default. When a cache is
    /// attached, [`CircuitExperiment::try_run`] looks each circuit's
    /// finished [`CircuitRow`] up by a key over the canonical wire bytes of
    /// (netlist, semantic options) before running ATPG; a hit returns the
    /// stored row with ATPG and all three replays skipped. The row is the
    /// only thing the cache stores. Keys deliberately *exclude* `threads`
    /// (every thread count is pinned byte-identical), so a warm cache
    /// serves across thread counts; see [`semantic_options_bytes`]. Cached
    /// rows are byte-identical to recomputed ones because the experiments
    /// are deterministic — the `cache_identity` CI step pins exactly that.
    #[serde(default, skip)]
    pub result_cache: ResultCacheHandle,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            atpg: AtpgConfig::default(),
            max_patterns: None,
            proposed: ProposedOptions::default(),
            threads: 0,
            limits: ResourceLimits::default(),
            retries: 0,
            job_deadline_ms: None,
            result_cache: ResultCacheHandle::disabled(),
        }
    }
}

/// The canonical bytes of the options that *semantically* determine an
/// experiment's result — the result-cache key material.
///
/// Included: the ATPG configuration and the proposed-flow options (each
/// with its `threads` knob zeroed — both flows are bit-identical for any
/// thread count, and [`run_table1_partial`] rewrites those knobs for inner
/// thread budgeting), and `max_patterns` (the ATPG pattern budget: it
/// decides the replayed patterns and the reported coverage).
///
/// Excluded, with the invariant that justifies each exclusion:
///
/// * `threads` — every thread count produces byte-identical rows (pinned
///   across {1, 3, auto} by the suite).
/// * `limits.max_gates` — enforced *before* the cache lookup (like the
///   lint preflight, which always runs), so a refused circuit never
///   reaches the cache.
/// * `limits.max_replayed_patterns` — enforced *on* cache hits against the
///   stored row's pattern count, exactly like a fresh run enforces it
///   against the budgeted test set.
/// * `retries` and `job_deadline_ms` — supervision policy; a surviving
///   row is bit-identical whatever policy produced it.
/// * `result_cache` itself — runtime state.
#[must_use]
pub fn semantic_options_bytes(options: &ExperimentOptions) -> Vec<u8> {
    let mut atpg = options.atpg.clone();
    atpg.threads = 0;
    let mut proposed = options.proposed.clone();
    proposed.threads = 0;
    (atpg, options.max_patterns, proposed).to_wire_bytes()
}

/// The result-cache key of one circuit's finished [`CircuitRow`].
fn row_cache_key(netlist_bytes: &[u8], options: &ExperimentOptions) -> CacheKey {
    KeyBuilder::new("scanpower/table1-row/v2")
        .part(env!("CARGO_PKG_VERSION").as_bytes())
        .part(netlist_bytes)
        .part(&semantic_options_bytes(options))
        .finish()
}

impl ExperimentOptions {
    /// A cheap profile for unit tests and smoke runs: fast ATPG and a small
    /// pattern budget.
    #[must_use]
    pub fn fast() -> ExperimentOptions {
        ExperimentOptions {
            atpg: AtpgConfig::fast(),
            max_patterns: Some(16),
            proposed: ProposedOptions {
                ivc_samples: 32,
                ..ProposedOptions::default()
            },
            ..ExperimentOptions::default()
        }
    }
}

/// Runs the three-structure comparison for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitExperiment {
    options: ExperimentOptions,
    library: LeakageLibrary,
    dynamic: DynamicPower,
}

impl CircuitExperiment {
    /// Creates the experiment harness.
    #[must_use]
    pub fn new(options: ExperimentOptions) -> CircuitExperiment {
        CircuitExperiment {
            options,
            library: LeakageLibrary::cmos45(),
            dynamic: DynamicPower::new(),
        }
    }

    /// The options of this experiment.
    #[must_use]
    pub fn options(&self) -> &ExperimentOptions {
        &self.options
    }

    /// Measures dynamic and static scan power of one structure, with the
    /// full per-net [`ShiftStats`] of the replay.
    ///
    /// The replay runs on the packed 64-pattern simulator
    /// ([`PackedScanShiftSim`]), propagating each shift cycle event-driven
    /// so only what the cycle's changed nets reach is re-evaluated and
    /// re-gathered. The static-power observer ([`PackedShiftLeakage`])
    /// gathers per-gate leakage lane-parallel from the estimator's shared
    /// ternary tables, re-deriving only the gates that read a changed net,
    /// and accumulates each block's lane leakages in the scalar
    /// pattern-major order — so stats *and* power numbers are
    /// bit-identical to the scalar pattern-at-a-time replay
    /// ([`ScanShiftSim`](scanpower_sim::scan::ScanShiftSim)). The suite's
    /// `replay_identity` differential test pins that against the scalar
    /// replay and the packed replay composed from the sim and power crates.
    ///
    /// # Errors
    ///
    /// None today: the replay has no failure mode without a cancellation
    /// flag. The `Result` keeps the signature stable for callers.
    pub fn try_evaluate_scheme_stats(
        &self,
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
    ) -> ExperimentResult<(SchemePower, ShiftStats)> {
        self.scheme_stats(netlist, patterns, config, None)
    }

    /// The cancellable scheme replay behind the public entry point: one
    /// packed pass per 64 patterns, with the lane-aware static-power
    /// observer riding the per-cycle delta. The replay polls `cancel` once
    /// per block ([`PackedScanShiftSim::run`]).
    fn scheme_stats(
        &self,
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
        cancel: Option<&CancelFlag>,
    ) -> ExperimentResult<(SchemePower, ShiftStats)> {
        let estimator = LeakageEstimator::new(netlist, &self.library);
        let mut leakage = PackedShiftLeakage::new(netlist, &estimator);
        let stats = PackedScanShiftSim::new(netlist)
            .run(netlist, patterns, config, cancel, |cycle| {
                leakage.observe_cycle(cycle)
            })
            .map_err(|Canceled| ExperimentError::Canceled {
                circuit: netlist.name().to_owned(),
            })?;
        let dynamic = self.dynamic.report(netlist, &stats);
        let power = SchemePower {
            dynamic_per_hz_uw: dynamic.per_hz_uw,
            static_uw: leakage.into_average().average_uw(&self.library),
            total_toggles: stats.total_toggles,
            shift_cycles: stats.shift_cycles,
        };
        Ok((power, stats))
    }

    /// Runs the full Table I comparison for `netlist`.
    ///
    /// # Panics
    ///
    /// The thin panicking wrapper over [`CircuitExperiment::try_run`]
    /// without a cancellation flag: any [`ExperimentError`] — no scan
    /// cells, a lint-preflight rejection (the panic message carries the
    /// full report), a resource ceiling, a netlist validation failure —
    /// panics with the error's deterministic `Display` message.
    #[must_use]
    pub fn run(&self, netlist: &Netlist) -> CircuitRow {
        self.try_run(netlist, None)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Runs the static-analysis preflight and refuses — with the full lint
    /// report as [`ExperimentError::Lint`] — any circuit carrying an
    /// Error-severity finding. [`CircuitExperiment::try_run`] always calls
    /// this before any simulation; it is public so services can validate a
    /// submission without paying for an experiment.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Lint`] carrying the full [`LintReport`]
    /// when the report [has errors][`LintReport::has_errors`].
    ///
    /// [`LintReport`]: scanpower_lint::LintReport
    /// [`LintReport::has_errors`]: scanpower_lint::LintReport::has_errors
    pub fn lint_preflight(&self, netlist: &Netlist) -> ExperimentResult<()> {
        let report = lint_netlist(netlist);
        if report.has_errors() {
            Err(report.into())
        } else {
            Ok(())
        }
    }

    /// Checks the [`ResourceLimits`] ceilings that are knowable before any
    /// work dispatches.
    fn check_gate_limit(&self, netlist: &Netlist) -> ExperimentResult<()> {
        if let Some(limit) = self.options.limits.max_gates {
            let actual = netlist.gate_count();
            if actual > limit {
                return Err(ExperimentError::ResourceLimit {
                    circuit: netlist.name().to_owned(),
                    resource: "gates",
                    limit,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Runs the full Table I comparison for `netlist`, with every failure
    /// mode as a typed [`ExperimentError`]. A `cancel` flag is polled at
    /// every scheme boundary and — in the packed replay — at every
    /// ≤64-pattern block boundary, wound down as a deterministic
    /// [`ExperimentError::Canceled`]; `None` never cancels.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::NoScanCells`] for circuits without scan
    /// cells, [`ExperimentError::ResourceLimit`] when a
    /// [`ResourceLimits`] ceiling refuses the circuit,
    /// [`ExperimentError::Lint`] when the preflight finds Error-severity
    /// diagnostics, [`ExperimentError::Netlist`] when a transformation
    /// step fails, and [`ExperimentError::Canceled`] once `cancel` trips.
    pub fn try_run(
        &self,
        netlist: &Netlist,
        cancel: Option<&CancelFlag>,
    ) -> ExperimentResult<CircuitRow> {
        let canceled = || ExperimentError::Canceled {
            circuit: netlist.name().to_owned(),
        };
        let checkpoint = || -> ExperimentResult<()> {
            match cancel {
                Some(flag) => flag.checkpoint().map_err(|Canceled| canceled()),
                None => Ok(()),
            }
        };

        if netlist.dff_count() == 0 {
            return Err(ExperimentError::NoScanCells {
                circuit: netlist.name().to_owned(),
            });
        }
        self.check_gate_limit(netlist)?;
        self.lint_preflight(netlist)?;
        checkpoint()?;

        // Content-addressed shortcut, consulted only after the preflight
        // gates above so a cache can never launder a circuit past them. A
        // hit skips ATPG and all three replays; the stored row is
        // byte-identical to a recomputed one because the whole flow is
        // deterministic. The replayed-pattern ceiling is re-enforced
        // against the stored row — `max_replayed_patterns` is deliberately
        // not part of the key.
        let row_key = self.options.result_cache.get().map(|cache| {
            let key = row_cache_key(&netlist.to_wire_bytes(), &self.options);
            (cache, key)
        });
        if let Some((cache, key)) = &row_key {
            if let Some(row) = cache.get_decoded::<CircuitRow>(*key) {
                if let Some(limit) = self.options.limits.max_replayed_patterns {
                    if row.patterns > limit {
                        return Err(ExperimentError::ResourceLimit {
                            circuit: netlist.name().to_owned(),
                            resource: "patterns",
                            limit,
                            actual: row.patterns,
                        });
                    }
                }
                self.options
                    .result_cache
                    .row_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(row);
            }
        }

        // Test set (the ATOM substitute), generated up to the pattern
        // budget only: the budgeted set is the prefix of the full set that
        // a truncation would keep, and its coverage is the replayed set's.
        // No test-vector or scan-cell reordering is applied, exactly like
        // the paper's experiments.
        let test_set = AtpgFlow::new(self.options.atpg.clone())
            .run_with_budget(netlist, self.options.max_patterns);
        let patterns = test_set.to_scan_patterns(netlist);
        if let Some(limit) = self.options.limits.max_replayed_patterns {
            if patterns.len() > limit {
                return Err(ExperimentError::ResourceLimit {
                    circuit: netlist.name().to_owned(),
                    resource: "patterns",
                    limit,
                    actual: patterns.len(),
                });
            }
        }
        checkpoint()?;

        // Traditional scan.
        let (traditional, _) = self.scheme_stats(
            netlist,
            &patterns,
            &traditional_shift_config(netlist),
            cancel,
        )?;

        // Input control [8].
        let baseline = InputControlBaseline::new();
        let input_control_plan = baseline.plan(netlist);
        let (input_control, _) = self.scheme_stats(
            netlist,
            &patterns,
            &baseline.shift_config(netlist, &input_control_plan),
            cancel,
        )?;
        checkpoint()?;

        // Proposed structure.
        let proposed_result = ProposedMethod::new(self.options.proposed.clone()).apply(netlist)?;
        let adapted = proposed_result.structure.adapt_patterns(&patterns);
        let proposed_config = proposed_result
            .structure
            .shift_config(&proposed_result.scan_mode_pi);
        let (proposed, _) = self.scheme_stats(
            proposed_result.structure.netlist(),
            &adapted,
            &proposed_config,
            cancel,
        )?;

        let row = CircuitRow {
            circuit: netlist.name().to_owned(),
            gates: netlist.gate_count(),
            flip_flops: netlist.dff_count(),
            patterns: patterns.len(),
            fault_coverage: test_set.fault_coverage,
            mux_coverage: proposed_result.mux_coverage(),
            traditional,
            input_control,
            proposed,
        };
        if let Some((cache, key)) = row_key {
            cache.insert_encoded(key, &row);
        }
        Ok(row)
    }
}

/// A complete Table I reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    /// One row per circuit, in the order they were run.
    pub rows: Vec<CircuitRow>,
}

impl Table1Report {
    /// Formats the report like the paper's Table I (fixed-width text).
    #[must_use]
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>14} {:>10} {:>14} {:>10} {:>14} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
            "Circuit",
            "Trad dyn(/f)",
            "Trad stat",
            "IC dyn(/f)",
            "IC stat",
            "Prop dyn(/f)",
            "Prop stat",
            "dyn%vsT",
            "stat%vsT",
            "dyn%vsIC",
            "stat%vsIC"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>14.3e} {:>10.2} {:>14.3e} {:>10.2} {:>14.3e} {:>10.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
                row.circuit,
                row.traditional.dynamic_per_hz_uw,
                row.traditional.static_uw,
                row.input_control.dynamic_per_hz_uw,
                row.input_control.static_uw,
                row.proposed.dynamic_per_hz_uw,
                row.proposed.static_uw,
                row.dynamic_improvement_vs_traditional(),
                row.static_improvement_vs_traditional(),
                row.dynamic_improvement_vs_input_control(),
                row.static_improvement_vs_input_control(),
            ));
        }
        out
    }

    /// Average dynamic improvement over traditional scan across all rows
    /// (percent).
    #[must_use]
    pub fn average_dynamic_improvement(&self) -> f64 {
        average(
            self.rows
                .iter()
                .map(CircuitRow::dynamic_improvement_vs_traditional),
        )
    }

    /// Average static improvement over traditional scan across all rows
    /// (percent).
    #[must_use]
    pub fn average_static_improvement(&self) -> f64 {
        average(
            self.rows
                .iter()
                .map(CircuitRow::static_improvement_vs_traditional),
        )
    }
}

fn average(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

/// The partial-results Table I run: one outcome per circuit spec, in spec
/// order — surviving circuits hold their [`CircuitRow`], failed circuits
/// hold their [`ExperimentError`] in the same deterministic slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Outcome {
    /// One outcome per circuit specification, in specification order.
    pub outcomes: Vec<ExperimentResult<CircuitRow>>,
}

impl Table1Outcome {
    /// `true` when every circuit survived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }

    /// The surviving rows, in specification order — the degraded report a
    /// partial failure leaves behind. Surviving rows are bit-identical to
    /// the same circuits' rows in a fault-free run.
    #[must_use]
    pub fn report(&self) -> Table1Report {
        Table1Report {
            rows: self
                .outcomes
                .iter()
                .filter_map(|outcome| outcome.as_ref().ok().cloned())
                .collect(),
        }
    }

    /// The failed slots: `(spec_index, error)` pairs in specification
    /// order.
    #[must_use]
    pub fn failures(&self) -> Vec<(usize, &ExperimentError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(index, outcome)| outcome.as_ref().err().map(|error| (index, error)))
            .collect()
    }

    /// All-or-nothing view: the full report when every circuit survived,
    /// otherwise the **first** (lowest spec index) failure — the
    /// deterministic choice whatever order the failures happened in.
    ///
    /// # Errors
    ///
    /// Returns the lowest-spec-index [`ExperimentError`] when any circuit
    /// failed.
    pub fn into_report(self) -> ExperimentResult<Table1Report> {
        let mut rows = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            rows.push(outcome?);
        }
        Ok(Table1Report { rows })
    }
}

/// Runs the Table I experiment over the given circuit specifications, one
/// outcome per circuit; [`Table1Outcome::into_report`] gives the
/// all-or-nothing view.
///
/// `scale` optionally shrinks the synthetic circuits (gate and flip-flop
/// counts) to make smoke runs affordable; `seed` controls the synthetic
/// netlist generation.
///
/// Each circuit's generate → ATPG → replay → power flow is independent and
/// deterministic, so the circuits are sharded across worker threads as one
/// [`BlockDriver`] job per circuit ([`ExperimentOptions::threads`]; `0` =
/// automatic, `1` = strictly sequential) and the outcomes are merged back
/// in specification order — bit-identical for any thread count.
///
/// When the outer sharding is active, the per-circuit 64-wide consumers
/// (`AtpgConfig::threads`, `ProposedOptions::threads`) that are left on
/// automatic get the remaining thread budget (at least the sequential
/// fallback) instead of each resolving to a full hardware-thread count —
/// without this, a 12-circuit run on an N-core host would contend with up
/// to N² workers. Explicit non-zero inner counts are respected, and the
/// budgeting cannot change the outcome: every inner consumer is
/// bit-identical for any thread count.
///
/// Each circuit runs as a *supervised* [`BlockDriver`] job
/// ([`BlockDriver::map_supervised`]), so failures degrade per circuit
/// instead of tearing the run down. Per job, the supervision applies
/// [`ExperimentOptions`]' robustness knobs: panicking attempts are
/// isolated with `catch_unwind` and retried up to
/// [`retries`](ExperimentOptions::retries) extra times; a
/// [`job_deadline_ms`](ExperimentOptions::job_deadline_ms) deadline is
/// polled cooperatively at the replay's block boundaries; the
/// [`limits`](ExperimentOptions::limits) ceilings refuse oversized
/// circuits before any simulation dispatches. Surviving circuits return
/// rows **bit-identical** to a fault-free run — in spec order, at any
/// thread count, whatever subset of siblings failed — and a deterministic
/// failure produces the same [`ExperimentError`] in the same slot on every
/// run.
///
/// The `core::experiment::circuit` failpoint (keyed by spec index) fires
/// inside each supervised attempt, before the circuit's experiment — the
/// fault-injection seam the partial-failure suite drives.
#[must_use]
pub fn run_table1_partial(
    specs: &[CircuitFamily],
    options: &ExperimentOptions,
    scale: Option<f64>,
    seed: u64,
) -> Table1Outcome {
    run_table1_partial_streamed(specs, options, scale, seed, None, &|_, _| {})
}

/// A per-circuit completion callback for the streamed harness entry
/// points: invoked once per circuit, in **spec order**, with the slot
/// index and that circuit's final outcome, as soon as every earlier slot
/// has also completed.
///
/// The callback runs under the stream's internal lock, so it is never
/// invoked concurrently with itself and must not call back into the
/// harness.
pub type RowCallback<'a> = &'a (dyn Fn(usize, &ExperimentResult<CircuitRow>) + Sync);

/// The streaming form of [`run_table1_partial`]: identical sharding,
/// budgeting and bit-identity, but each circuit's outcome is additionally
/// delivered through `on_row` as soon as it — and every earlier spec —
/// has completed. Circuits finish out of order under parallel dispatch;
/// the stream buffers early finishers so delivery is strictly in spec
/// order, exactly once per slot. A job whose final attempt panics is
/// delivered at end of run (as [`ExperimentError::WorkerFailed`]), since
/// the panic escapes the job before an outcome exists.
///
/// `cancel` threads an *external* cancellation parent through the run:
/// each attempt polls a [`CancelFlag::child`] of it, so tripping the
/// parent (e.g. a service `CancelJob`) winds every in-flight circuit down
/// as a deterministic [`ExperimentError::Canceled`] within one replay
/// block, while per-attempt deadlines still apply.
#[must_use]
pub fn run_table1_partial_streamed(
    specs: &[CircuitFamily],
    options: &ExperimentOptions,
    scale: Option<f64>,
    seed: u64,
    cancel: Option<&CancelFlag>,
    on_row: RowCallback<'_>,
) -> Table1Outcome {
    let names: Vec<String> = specs.iter().map(|spec| spec.name().to_owned()).collect();
    run_streamed(&names, options, cancel, on_row, &|job| {
        let spec = match scale {
            Some(factor) => specs[job].scaled(factor),
            None => specs[job].clone(),
        };
        spec.generate(seed)
    })
}

/// The streamed harness over pre-built netlists — the entry point for
/// callers that receive circuits as canonical wire bytes (the
/// `scanpower-serve` job service) rather than as generator specs. Same
/// supervision, budgeting, per-circuit degradation and spec-order
/// streaming as [`run_table1_partial_streamed`]; slot `i` runs
/// `netlists[i]`.
#[must_use]
pub fn run_netlists_streamed(
    netlists: &[Netlist],
    options: &ExperimentOptions,
    cancel: Option<&CancelFlag>,
    on_row: RowCallback<'_>,
) -> Table1Outcome {
    let names: Vec<String> = netlists.iter().map(|n| n.name().to_owned()).collect();
    run_streamed(&names, options, cancel, on_row, &|job| {
        netlists[job].clone()
    })
}

/// Spec-order streaming buffer: completed slots are held until every
/// earlier slot has completed, then flushed through the callback in
/// index order, exactly once each.
struct RowStream<'a> {
    on_row: RowCallback<'a>,
    slots: Vec<Option<ExperimentResult<CircuitRow>>>,
    next: usize,
}

impl RowStream<'_> {
    fn push(&mut self, index: usize, outcome: ExperimentResult<CircuitRow>) {
        debug_assert!(self.slots[index].is_none(), "slot {index} streamed twice");
        self.slots[index] = Some(outcome);
        while let Some(Some(ready)) = self.slots.get(self.next) {
            (self.on_row)(self.next, ready);
            self.next += 1;
        }
    }
}

/// The shared supervised fan-out behind both streamed entry points:
/// `make(job)` materialises slot `job`'s netlist inside the supervised
/// attempt (so generation panics are isolated per circuit too).
fn run_streamed(
    names: &[String],
    options: &ExperimentOptions,
    cancel: Option<&CancelFlag>,
    on_row: RowCallback<'_>,
    make: &(dyn Fn(usize) -> Netlist + Sync),
) -> Table1Outcome {
    let driver = BlockDriver::new(options.threads);
    let mut options = options.clone();
    let workers = driver.threads().min(names.len());
    if workers > 1 {
        let inner_budget = (driver.threads() / workers).max(1);
        if options.atpg.threads == 0 {
            options.atpg.threads = inner_budget;
        }
        if options.proposed.threads == 0 {
            options.proposed.threads = inner_budget;
        }
    }
    let mut policy = JobPolicy::default().with_retries(options.retries);
    let deadline = options.job_deadline_ms.map(Duration::from_millis);
    if let Some(deadline) = deadline {
        policy = policy.with_deadline(deadline);
    }
    let experiment = CircuitExperiment::new(options);
    let stream = Mutex::new(RowStream {
        on_row,
        slots: vec![None; names.len()],
        next: 0,
    });
    let outcomes = driver.map_supervised(names.len(), policy, |context| {
        let job = context.job();
        let circuit = make(job);
        let outcome = failpoint::hit("core::experiment::circuit", job as u64)
            .map_err(|fault| ExperimentError::WorkerFailed {
                circuit: circuit.name().to_owned(),
                message: fault.to_string(),
                attempts: context.attempt(),
            })
            .and_then(|()| {
                // An external parent shares its tripped state with the
                // attempt's flag (so a service-side cancel reaches the
                // replay's block-boundary checkpoints) while the
                // per-attempt deadline budget still starts now.
                let flag = match cancel {
                    Some(parent) => parent.child(deadline),
                    None => context.cancel_flag().clone(),
                };
                experiment.try_run(&circuit, Some(&flag))
            });
        // Typed errors are final (panics are the only retried failures,
        // and they escape before this point), so the outcome can stream
        // immediately.
        stream
            .lock()
            .expect("row stream poisoned")
            .push(job, outcome.clone());
        outcome
    });
    let outcomes: Vec<ExperimentResult<CircuitRow>> = outcomes
        .into_iter()
        .zip(names)
        .map(|(outcome, name)| {
            outcome.map_err(|job_error| match job_error.failure {
                JobFailure::Error(error) => error,
                JobFailure::Panicked { message } => ExperimentError::WorkerFailed {
                    circuit: name.clone(),
                    message,
                    attempts: job_error.attempts,
                },
            })
        })
        .collect();
    // Jobs whose final attempt panicked never reached the in-closure
    // push; deliver their converted failures now so every slot streams
    // exactly once, still in spec order.
    let mut stream = stream.into_inner().expect("row stream poisoned");
    for (index, outcome) in outcomes.iter().enumerate() {
        if stream.slots[index].is_none() {
            stream.push(index, outcome.clone());
        }
    }
    debug_assert_eq!(stream.next, outcomes.len(), "stream did not drain");
    Table1Outcome { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::bench;
    use scanpower_power::LeakageAverage;

    #[test]
    fn s27_row_shows_reductions() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&n);
        assert_eq!(row.circuit, "s27");
        assert!(row.traditional.dynamic_per_hz_uw > 0.0);
        assert!(row.traditional.static_uw > 0.0);
        assert!(row.proposed.dynamic_per_hz_uw <= row.traditional.dynamic_per_hz_uw);
        // s27 has only 10 gates, so the leakage of the inserted MUX cells is
        // not negligible relative to the circuit itself; the static power
        // must still stay in the same ballpark. The Table I sized circuits
        // show a net static reduction (see the integration tests/benches).
        assert!(row.proposed.static_uw <= row.traditional.static_uw * 2.0);
        assert!(row.patterns > 0);
    }

    #[test]
    fn small_table_runs_and_formats() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
        ];
        let report = run_table1_partial(&specs, &ExperimentOptions::fast(), Some(0.5), 1)
            .into_report()
            .unwrap();
        assert_eq!(report.rows.len(), 2);
        let text = report.to_table_string();
        assert!(text.contains("s344"));
        assert!(text.contains("s382"));
        for row in &report.rows {
            assert!(
                row.dynamic_improvement_vs_traditional() > 0.0,
                "{}: proposed must reduce dynamic power",
                row.circuit
            );
        }
        assert!(report.average_dynamic_improvement() > 0.0);
    }

    #[test]
    fn improvement_helper_handles_zero_reference() {
        assert_eq!(improvement(0.0, 1.0), 0.0);
        assert!((improvement(4.0, 1.0) - 75.0).abs() < 1e-12);
    }

    /// The scalar pattern-at-a-time reference replay of one scheme, with
    /// the per-cycle scalar leakage observer.
    fn scalar_scheme_stats(
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
    ) -> (SchemePower, ShiftStats) {
        use scanpower_sim::scan::{ScanShiftSim, ShiftPhase};
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(netlist, &library);
        let mut leakage = LeakageAverage::new();
        let stats = ScanShiftSim::new(netlist).run_with_observer(
            netlist,
            patterns,
            config,
            |phase, values| {
                if phase == ShiftPhase::Shift {
                    leakage.add(estimator.circuit_leakage(netlist, values));
                }
            },
        );
        let power = SchemePower {
            dynamic_per_hz_uw: DynamicPower::new().report(netlist, &stats).per_hz_uw,
            static_uw: leakage.average_uw(&library),
            total_toggles: stats.total_toggles,
            shift_cycles: stats.shift_cycles,
        };
        (power, stats)
    }

    /// A whole Table I row equals the row assembled from scalar
    /// pattern-at-a-time replays of the same three schemes: the production
    /// packed replay changes no bit anywhere in the pipeline.
    #[test]
    fn packed_and_scalar_replay_produce_identical_rows() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let options = ExperimentOptions::fast();
        let row = CircuitExperiment::new(options.clone()).run(&n);

        let mut patterns = AtpgFlow::new(options.atpg.clone())
            .run(&n)
            .to_scan_patterns(&n);
        patterns.truncate(options.max_patterns.expect("fast() caps the patterns"));
        assert_eq!(row.patterns, patterns.len());
        let traditional = scalar_scheme_stats(&n, &patterns, &traditional_shift_config(&n)).0;
        assert_eq!(row.traditional, traditional);

        let baseline = InputControlBaseline::new();
        let plan = baseline.plan(&n);
        let input_control = scalar_scheme_stats(&n, &patterns, &baseline.shift_config(&n, &plan)).0;
        assert_eq!(row.input_control, input_control);

        let proposed = ProposedMethod::new(options.proposed).apply(&n).unwrap();
        let proposed_power = scalar_scheme_stats(
            proposed.structure.netlist(),
            &proposed.structure.adapt_patterns(&patterns),
            &proposed.structure.shift_config(&proposed.scan_mode_pi),
        )
        .0;
        assert_eq!(row.proposed, proposed_power);
    }

    /// A budgeted row replays exactly what running ATPG to the end and
    /// truncating its test set replays: every replayed column equals the
    /// row composed from the truncated unbudgeted set, and
    /// `fault_coverage` is the coverage of the replayed patterns.
    #[test]
    fn budgeted_rows_equal_truncated_rows_in_every_replayed_column() {
        use scanpower_sim::fault::{all_net_faults, FaultSim};
        for name in ["s344", "s641", "s1494"] {
            let family = CircuitFamily::iscas89_like(name).unwrap();
            let n = family.scaled(100.0 / family.gates() as f64).generate(1);
            let full = AtpgFlow::new(AtpgConfig::fast()).run(&n);
            let generated = full.patterns.len();
            assert!(generated > 2, "{name}: nothing to truncate");
            for budget in [1, generated / 2, generated, generated + 1] {
                let experiment = CircuitExperiment::new(ExperimentOptions {
                    max_patterns: Some(budget),
                    ..ExperimentOptions::fast()
                });
                let row = experiment.run(&n);

                let kept = budget.min(generated);
                let patterns = &full.to_scan_patterns(&n)[..kept];
                let replay = |netlist: &Netlist, patterns: &[ScanPattern], config: ShiftConfig| {
                    experiment
                        .try_evaluate_scheme_stats(netlist, patterns, &config)
                        .unwrap()
                        .0
                };
                let baseline = InputControlBaseline::new();
                let plan = baseline.plan(&n);
                let proposed = ProposedMethod::new(experiment.options().proposed.clone())
                    .apply(&n)
                    .unwrap();
                let expected = CircuitRow {
                    circuit: n.name().to_owned(),
                    gates: n.gate_count(),
                    flip_flops: n.dff_count(),
                    patterns: patterns.len(),
                    fault_coverage: FaultSim::new(&n).coverage(
                        &n,
                        &all_net_faults(&n),
                        &full.patterns[..kept],
                    ),
                    mux_coverage: proposed.mux_coverage(),
                    traditional: replay(&n, patterns, traditional_shift_config(&n)),
                    input_control: replay(&n, patterns, baseline.shift_config(&n, &plan)),
                    proposed: replay(
                        proposed.structure.netlist(),
                        &proposed.structure.adapt_patterns(patterns),
                        proposed.structure.shift_config(&proposed.scan_mode_pi),
                    ),
                };
                assert_eq!(row, expected, "{name}, budget {budget}");
            }
        }
    }

    /// Per-scheme `ShiftStats` and power from the production replay equal
    /// the scalar reference replay exactly, including the per-net toggle
    /// counts and the bits of both power numbers.
    #[test]
    fn evaluate_scheme_stats_agree_between_replays() {
        use scanpower_sim::patterns::random_bool_patterns;
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 21)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let config = traditional_shift_config(&n);
        let (power, stats) = CircuitExperiment::new(ExperimentOptions::fast())
            .try_evaluate_scheme_stats(&n, &patterns, &config)
            .unwrap();
        let (scalar_power, scalar_stats) = scalar_scheme_stats(&n, &patterns, &config);
        assert_eq!(stats, scalar_stats);
        assert_eq!(power.static_uw.to_bits(), scalar_power.static_uw.to_bits());
        assert_eq!(
            power.dynamic_per_hz_uw.to_bits(),
            scalar_power.dynamic_per_hz_uw.to_bits()
        );
        assert!(stats.total_toggles > 0);
    }

    /// The lint preflight refuses circuits with Error-severity findings
    /// before any simulation runs.
    #[test]
    #[should_panic(expected = "lint preflight rejected")]
    fn lint_preflight_rejects_undriven_nets() {
        use scanpower_netlist::GateKind;
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let hole = n.ensure_net("hole");
        let g = n.add_gate(GateKind::And, &[a, hole], "g");
        n.add_dff(g.output, "q");
        n.mark_output(g.output);
        let _ = CircuitExperiment::new(ExperimentOptions::fast()).run(&n);
    }

    /// The fallible entry point returns the same rejection as a typed
    /// error carrying the full report instead of panicking.
    #[test]
    fn try_run_returns_the_lint_report_as_a_typed_error() {
        use scanpower_netlist::GateKind;
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let hole = n.ensure_net("hole");
        let g = n.add_gate(GateKind::And, &[a, hole], "g");
        n.add_dff(g.output, "q");
        n.mark_output(g.output);
        let experiment = CircuitExperiment::new(ExperimentOptions::fast());
        let error = experiment
            .try_run(&n, None)
            .expect_err("preflight must refuse");
        let ExperimentError::Lint(report) = &error else {
            panic!("expected a lint error, got {error:?}");
        };
        assert!(report.has_errors());
        assert!(error.to_string().contains("lint preflight rejected"));
        // `lint_preflight` is the same check, callable on its own.
        assert_eq!(experiment.lint_preflight(&n), Err(error));
    }

    /// A gate one pin wider than the fanin bound is refused by the
    /// preflight with SPL006, before the leakage estimator would size a
    /// `2^fanin` table for it.
    #[test]
    fn try_run_refuses_a_gate_over_the_fanin_bound_with_spl006() {
        use scanpower_lint::LintCode;
        use scanpower_netlist::GateKind;
        let mut n = Netlist::new("wide");
        let inputs: Vec<_> = (0..=crate::LEAKAGE_PIN_LIMIT)
            .map(|pin| n.add_input(&format!("i{pin}")))
            .collect();
        assert_eq!(inputs.len(), 17);
        let g = n.add_gate(GateKind::And, &inputs, "wide");
        let q = n.add_dff(g.output, "q");
        n.mark_output(q);
        let error = CircuitExperiment::new(ExperimentOptions::fast())
            .try_run(&n, None)
            .expect_err("preflight must refuse");
        let ExperimentError::Lint(report) = &error else {
            panic!("expected a lint error, got {error:?}");
        };
        let diag = report.with_code(LintCode::OverPinLimit).next().unwrap();
        assert_eq!(diag.code.code(), "SPL006");
        assert!(report.has_errors());
    }

    /// A circuit without scan cells is a typed refusal, and the panicking
    /// wrapper preserves the historical message.
    #[test]
    fn circuits_without_scan_cells_are_refused() {
        use scanpower_netlist::GateKind;
        let mut n = Netlist::new("comb_only");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b], "g");
        n.mark_output(g.output);
        let error = CircuitExperiment::new(ExperimentOptions::fast())
            .try_run(&n, None)
            .expect_err("no scan cells");
        assert_eq!(
            error,
            ExperimentError::NoScanCells {
                circuit: "comb_only".into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "full-scan circuit required")]
    fn run_panics_on_circuits_without_scan_cells() {
        use scanpower_netlist::GateKind;
        let mut n = Netlist::new("comb_only");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b], "g");
        n.mark_output(g.output);
        let _ = CircuitExperiment::new(ExperimentOptions::fast()).run(&n);
    }

    /// Resource ceilings refuse a circuit deterministically before any
    /// simulation dispatches — gates before ATPG, replayed patterns after
    /// ATPG has run to the `max_patterns` budget.
    #[test]
    fn resource_limits_refuse_oversized_circuits() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let gates = n.gate_count();

        let gate_limited = CircuitExperiment::new(ExperimentOptions {
            limits: ResourceLimits {
                max_gates: Some(gates - 1),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        });
        assert_eq!(
            gate_limited
                .try_run(&n, None)
                .expect_err("over the gate ceiling"),
            ExperimentError::ResourceLimit {
                circuit: "s27".into(),
                resource: "gates",
                limit: gates - 1,
                actual: gates,
            }
        );

        let pattern_limited = CircuitExperiment::new(ExperimentOptions {
            limits: ResourceLimits {
                max_replayed_patterns: Some(1),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        });
        let error = pattern_limited
            .try_run(&n, None)
            .expect_err("over the pattern ceiling");
        let ExperimentError::ResourceLimit {
            resource, limit, ..
        } = &error
        else {
            panic!("expected a resource limit, got {error:?}");
        };
        assert_eq!((*resource, *limit), ("patterns", 1));

        // At the ceiling exactly, the experiment runs.
        let at_limit = CircuitExperiment::new(ExperimentOptions {
            limits: ResourceLimits {
                max_gates: Some(gates),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        });
        assert_eq!(
            at_limit
                .try_run(&n, None)
                .expect("at the ceiling is allowed"),
            CircuitExperiment::new(ExperimentOptions::fast()).run(&n),
            "limits must not perturb surviving rows"
        );
    }

    /// An already-expired deadline cancels deterministically at the first
    /// checkpoint, through both the direct API and the supervised sharding.
    #[test]
    fn zero_deadline_cancels_every_circuit_deterministically() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let experiment = CircuitExperiment::new(ExperimentOptions::fast());
        let expired = CancelFlag::with_deadline(Duration::ZERO);
        assert_eq!(
            experiment
                .try_run(&n, Some(&expired))
                .expect_err("expired before the first checkpoint"),
            ExperimentError::Canceled {
                circuit: "s27".into()
            }
        );

        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
        ];
        for threads in [1, 3] {
            let outcome = run_table1_partial(
                &specs,
                &ExperimentOptions {
                    threads,
                    job_deadline_ms: Some(0),
                    ..ExperimentOptions::fast()
                },
                Some(0.3),
                1,
            );
            assert!(!outcome.is_complete());
            assert!(outcome.report().rows.is_empty());
            for (spec, outcome) in specs.iter().zip(&outcome.outcomes) {
                assert_eq!(
                    outcome.as_ref().expect_err("deadline already expired"),
                    &ExperimentError::Canceled {
                        circuit: spec.name().to_owned()
                    },
                    "threads {threads}"
                );
            }
        }
    }

    /// Partial-results mode, driven without any fault injection: a
    /// mid-pack gate ceiling fails exactly one circuit; the survivors are
    /// bit-identical to a clean run in their spec slots across thread
    /// counts {1, 3, auto}, and the error slot carries the identical
    /// `ExperimentError` on every run.
    #[test]
    fn run_table1_partial_degrades_per_circuit() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
            CircuitFamily::iscas89_like("s444").unwrap(),
        ];
        let scale = Some(0.3);
        let gate_counts: Vec<usize> = specs
            .iter()
            .map(|spec| spec.scaled(0.3).generate(1).gate_count())
            .collect();
        let largest = gate_counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &gates)| gates)
            .map(|(index, _)| index)
            .unwrap();
        let ceiling = *gate_counts.iter().max().unwrap() - 1;
        assert!(
            gate_counts
                .iter()
                .enumerate()
                .all(|(index, &gates)| index == largest || gates <= ceiling),
            "the ceiling must single out one circuit: {gate_counts:?}"
        );

        let clean = run_table1_partial(
            &specs,
            &ExperimentOptions {
                threads: 1,
                ..ExperimentOptions::fast()
            },
            scale,
            1,
        )
        .into_report()
        .unwrap();

        let options = |threads: usize| ExperimentOptions {
            threads,
            limits: ResourceLimits {
                max_gates: Some(ceiling),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        };
        let reference = run_table1_partial(&specs, &options(1), scale, 1);
        for threads in [1, 3, 0] {
            let outcome = run_table1_partial(&specs, &options(threads), scale, 1);
            assert_eq!(outcome, reference, "threads {threads}: deterministic");
            assert!(!outcome.is_complete());
            assert_eq!(outcome.failures().len(), 1);
            assert_eq!(outcome.failures()[0].0, largest);
            for (index, slot) in outcome.outcomes.iter().enumerate() {
                if index == largest {
                    assert_eq!(
                        slot.as_ref().expect_err("over the ceiling"),
                        &ExperimentError::ResourceLimit {
                            circuit: specs[largest].name().to_owned(),
                            resource: "gates",
                            limit: ceiling,
                            actual: gate_counts[largest],
                        },
                        "threads {threads}"
                    );
                } else {
                    assert_eq!(
                        slot.as_ref().expect("survivor"),
                        &clean.rows[index],
                        "threads {threads}: survivors bit-identical to the clean run"
                    );
                }
            }
            // The degraded report holds exactly the surviving rows, and
            // the all-or-nothing view surfaces the one failure.
            assert_eq!(outcome.report().rows.len(), specs.len() - 1);
            assert!(outcome.clone().into_report().is_err());
        }
    }

    /// The streaming callback sees every slot exactly once, in strict
    /// spec order, with outcomes identical to the returned batch — at
    /// every worker count, including out-of-order parallel completion.
    #[test]
    fn streamed_delivery_is_in_spec_order_and_matches_batch() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
            CircuitFamily::iscas89_like("s444").unwrap(),
        ];
        let reference = run_table1_partial(&specs, &ExperimentOptions::fast(), Some(0.3), 1);
        for threads in [1, 3, 0] {
            let streamed = Mutex::new(Vec::new());
            let outcome = run_table1_partial_streamed(
                &specs,
                &ExperimentOptions {
                    threads,
                    ..ExperimentOptions::fast()
                },
                Some(0.3),
                1,
                None,
                &|index, row| streamed.lock().unwrap().push((index, row.clone())),
            );
            assert_eq!(outcome, reference, "threads {threads}");
            let streamed = streamed.into_inner().unwrap();
            let indices: Vec<usize> = streamed.iter().map(|(index, _)| *index).collect();
            assert_eq!(indices, vec![0, 1, 2], "threads {threads}: spec order");
            for (index, row) in streamed {
                assert_eq!(row, outcome.outcomes[index], "threads {threads}");
            }
        }
    }

    /// The pre-built-netlist entry point produces the same rows as the
    /// spec-driven harness for the same circuits.
    #[test]
    fn run_netlists_streamed_matches_the_spec_harness() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
        ];
        let reference = run_table1_partial(&specs, &ExperimentOptions::fast(), Some(0.3), 1);
        let netlists: Vec<Netlist> = specs
            .iter()
            .map(|spec| spec.scaled(0.3).generate(1))
            .collect();
        let streamed = Mutex::new(Vec::new());
        let outcome =
            run_netlists_streamed(&netlists, &ExperimentOptions::fast(), None, &|i, r| {
                streamed.lock().unwrap().push((i, r.clone()));
            });
        assert_eq!(outcome, reference);
        assert_eq!(streamed.into_inner().unwrap().len(), specs.len());
    }

    /// A pre-tripped external parent flag cancels every circuit at its
    /// first checkpoint — the seam a service `CancelJob` drives — and the
    /// canceled outcomes still stream in spec order.
    #[test]
    fn external_cancel_parent_reaches_every_streamed_circuit() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
        ];
        let parent = CancelFlag::new();
        parent.cancel();
        let streamed = Mutex::new(Vec::new());
        let outcome = run_table1_partial_streamed(
            &specs,
            &ExperimentOptions::fast(),
            Some(0.3),
            1,
            Some(&parent),
            &|index, row| streamed.lock().unwrap().push((index, row.clone())),
        );
        let indices: Vec<usize> = streamed
            .into_inner()
            .unwrap()
            .iter()
            .map(|(index, _)| *index)
            .collect();
        assert_eq!(indices, vec![0, 1]);
        for (spec, slot) in specs.iter().zip(&outcome.outcomes) {
            assert_eq!(
                slot.as_ref().expect_err("parent already tripped"),
                &ExperimentError::Canceled {
                    circuit: spec.name().to_owned()
                }
            );
        }
    }

    /// Rows served from the result cache are byte-identical to recomputed
    /// ones, and the hit counter proves the replay was actually skipped.
    #[test]
    fn result_cache_serves_identical_rows_and_counts_hits() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let uncached = CircuitExperiment::new(ExperimentOptions::fast()).run(&n);

        let cache = Arc::new(ResultCache::in_memory());
        let cached_options = ExperimentOptions {
            result_cache: ResultCacheHandle::new(Arc::clone(&cache)),
            ..ExperimentOptions::fast()
        };
        let experiment = CircuitExperiment::new(cached_options);
        let cold = experiment.run(&n);
        assert_eq!(cold, uncached, "a cold cached run matches uncached");
        assert_eq!(cache.stats().hits, 0);
        let insertions_after_cold = cache.stats().insertions;
        assert_eq!(insertions_after_cold, 1, "the row is the only entry stored");

        let warm = experiment.run(&n);
        assert_eq!(warm, uncached, "a warm run serves the identical row");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "exactly the row-level hit, replay skipped");
        assert_eq!(
            stats.insertions, insertions_after_cold,
            "nothing recomputed, nothing re-stored"
        );
    }

    /// The cache key excludes the knobs that cannot change a row: a row
    /// computed at one (thread count, supervision policy) configuration is
    /// a warm hit at every other.
    #[test]
    fn result_cache_serves_across_bit_identity_knobs() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let cache = Arc::new(ResultCache::in_memory());
        let with_cache = |options: ExperimentOptions| ExperimentOptions {
            result_cache: ResultCacheHandle::new(Arc::clone(&cache)),
            ..options
        };
        let seed = CircuitExperiment::new(with_cache(ExperimentOptions::fast())).run(&n);
        let mut inner_threads = ExperimentOptions::fast();
        inner_threads.atpg.threads = 2;
        inner_threads.proposed.threads = 3;
        let variants = [
            ExperimentOptions {
                threads: 3,
                ..ExperimentOptions::fast()
            },
            inner_threads,
            ExperimentOptions {
                retries: 2,
                job_deadline_ms: Some(60_000),
                ..ExperimentOptions::fast()
            },
        ];
        for (index, variant) in variants.into_iter().enumerate() {
            let row = CircuitExperiment::new(with_cache(variant)).run(&n);
            assert_eq!(row, seed, "variant {index}");
            assert_eq!(
                cache.stats().hits,
                (index + 1) as u64,
                "variant {index} was a warm hit"
            );
        }
    }

    /// A semantic knob (the ATPG seed) must change the key: no false hits.
    #[test]
    fn result_cache_misses_on_semantic_changes() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let cache = Arc::new(ResultCache::in_memory());
        let options = |seed: u64| ExperimentOptions {
            atpg: AtpgConfig {
                seed,
                ..AtpgConfig::fast()
            },
            result_cache: ResultCacheHandle::new(Arc::clone(&cache)),
            ..ExperimentOptions::fast()
        };
        let _ = CircuitExperiment::new(options(1)).run(&n);
        let _ = CircuitExperiment::new(options(2)).run(&n);
        assert_eq!(cache.stats().hits, 0, "different seeds share no entries");
    }

    /// The replayed-pattern ceiling is enforced on cache hits exactly like
    /// on fresh runs — a cached row cannot launder a refusal.
    #[test]
    fn result_cache_hits_still_enforce_the_pattern_ceiling() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let cache = Arc::new(ResultCache::in_memory());
        let warm = CircuitExperiment::new(ExperimentOptions {
            result_cache: ResultCacheHandle::new(Arc::clone(&cache)),
            ..ExperimentOptions::fast()
        });
        let row = warm.run(&n);
        assert!(row.patterns > 1);

        let limited = CircuitExperiment::new(ExperimentOptions {
            result_cache: ResultCacheHandle::new(Arc::clone(&cache)),
            limits: ResourceLimits {
                max_replayed_patterns: Some(1),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        });
        assert_eq!(
            limited
                .try_run(&n, None)
                .expect_err("ceiling applies to hits"),
            ExperimentError::ResourceLimit {
                circuit: "s27".into(),
                resource: "patterns",
                limit: 1,
                actual: row.patterns,
            }
        );
    }

    /// One circuit per driver job: the whole report is bit-identical for
    /// every thread count (including more threads than circuits).
    #[test]
    fn run_table1_is_identical_across_thread_counts() {
        let specs = vec![
            CircuitFamily::iscas89_like("s344").unwrap(),
            CircuitFamily::iscas89_like("s382").unwrap(),
            CircuitFamily::iscas89_like("s444").unwrap(),
        ];
        let sequential = run_table1_partial(
            &specs,
            &ExperimentOptions {
                threads: 1,
                ..ExperimentOptions::fast()
            },
            Some(0.3),
            1,
        )
        .into_report()
        .unwrap();
        assert_eq!(sequential.rows.len(), 3);
        for threads in [0, 2, 3, 8] {
            let parallel = run_table1_partial(
                &specs,
                &ExperimentOptions {
                    threads,
                    ..ExperimentOptions::fast()
                },
                Some(0.3),
                1,
            )
            .into_report()
            .unwrap();
            assert_eq!(parallel, sequential, "threads {threads}");
        }
    }
}
