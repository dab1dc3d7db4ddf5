//! End-to-end and per-layer benchmark of the scan-power Table I pipeline.
//!
//! One process runs one workload: it sets the workload up several times
//! (the median is `setup_s`), runs it closed-loop for the requested
//! seconds, checks every output against the correctness gate, and prints a
//! report line (environment, gate verdict, sample counts) followed by the
//! result line the metrics are read from. `--trace 1` runs the workload
//! again with a span around every call into a layer and prints the
//! per-layer metrics instead. `README.md` beside this file explains the
//! workloads and the metrics.

use std::time::Instant;

pub mod gate;
pub mod report;
pub mod serve;
pub mod table;
pub mod trace;

use scanpower_suite::core::experiment::CircuitRow;

use report::{JsonObject, Metrics, Tail};
use trace::Span;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "table1_capped",
    "table1_full",
    "given_testset",
    "serve_mixed",
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Shrink every workload to a smoke-test size.
    pub tiny: bool,
}

/// What a run found: gate verdict, operation counts, metrics and the
/// report fields printed before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every failure the gate or the workload recorded.
    pub failures: Vec<String>,
    /// Operations attempted (rows on table workloads, jobs on the service).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    notes: JsonObject,
    spans: Vec<(usize, Span)>,
}

impl Outcome {
    /// Records a gate failure.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether every check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Adds a numeric report field.
    pub fn note_num(&mut self, key: &str, value: f64) {
        self.notes = std::mem::take(&mut self.notes).num(key, value);
    }

    /// Adds a string report field.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.notes = std::mem::take(&mut self.notes).str(key, value);
    }

    /// Reports the replayed-column digest of each row.
    pub fn note_digests(&mut self, rows: &[CircuitRow]) {
        let list: Vec<String> = rows
            .iter()
            .map(|row| format!("\"{} {}\"", row.circuit, gate::row_digest_hex(row)))
            .collect();
        self.notes =
            std::mem::take(&mut self.notes).raw("row_digests", &format!("[{}]", list.join(", ")));
    }

    /// Sets `job_p50_ms` / `job_tail_ms` from per-job latencies and reports
    /// which percentile the tail is.
    pub fn record_latencies(&mut self, latencies_ms: &[f64]) {
        let Tail {
            value,
            percentile,
            samples,
        } = report::tail(latencies_ms);
        self.metrics
            .insert("job_p50_ms", report::median(latencies_ms));
        self.metrics.insert("job_tail_ms", value);
        self.note_num("job_tail_percentile", percentile);
        self.note_num("job_samples", samples as f64);
    }

    /// Keeps a thread's spans for the trace file.
    pub fn keep_spans(&mut self, thread: usize, spans: Vec<Span>) {
        self.metrics.insert(
            "trace.spans",
            self.metrics.get("trace.spans").copied().unwrap_or(0.0) + spans.len() as f64,
        );
        self.spans
            .extend(spans.into_iter().map(|span| (thread, span)));
    }

    /// The recorded spans, tagged by thread.
    #[must_use]
    pub fn spans(&self) -> &[(usize, Span)] {
        &self.spans
    }

    /// The report line printed before the result line.
    #[must_use]
    pub fn report_line(&self, config: &Config) -> String {
        let failed_ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", report::escape(f)))
            .collect();
        JsonObject::new()
            .raw("environment", &environment(config).render())
            .raw(
                "gate",
                &JsonObject::new()
                    .raw("correct", if self.correct() { "true" } else { "false" })
                    .num("attempted", self.attempted as f64)
                    .num("failed", self.failed as f64)
                    .num("failed_ratio", failed_ratio)
                    .raw("failures", &format!("[{}]", failures.join(", ")))
                    .render(),
            )
            .raw("run", &self.notes.render())
            .render()
    }

    /// The result line (the last line of standard output).
    #[must_use]
    pub fn result_line(&self, config: &Config) -> String {
        let catalogue = if config.trace {
            report::PER_LAYER
        } else {
            report::END_TO_END
        };
        report::result_line(
            self.correct(),
            self.attempted.max(1),
            self.failed,
            catalogue,
            &self.metrics,
        )
    }
}

/// What the run ran on: host parallelism, source revision, build profile,
/// seed and thread counts. Every figure is only comparable to figures with
/// the same environment.
#[must_use]
pub fn environment(config: &Config) -> JsonObject {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    JsonObject::new()
        .num("nproc", nproc as f64)
        .str("commit", &commit())
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .str("workload", &config.workload)
        .num("seed", config.seed as f64)
        .num("seconds", config.seconds as f64)
        .raw("trace", if config.trace { "true" } else { "false" })
        .raw("tiny", if config.tiny { "true" } else { "false" })
        .raw(
            "threads",
            &JsonObject::new()
                .num("harness", 1.0)
                .num("atpg", 1.0)
                .num("proposed", 1.0)
                .num("serve_workers", f64::from(serve::WORKERS as u32))
                .num("serve_clients", f64::from(serve::CLIENTS as u32))
                .render(),
        )
}

/// The source revision: `HEAD` of the repository the benchmark sits in,
/// or `unknown` outside a git checkout.
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = std::path::Path::new(root).join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|id| id.trim().to_owned())
            .or_else(|_| {
                let packed = std::fs::read_to_string(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next())
                    .map(str::to_owned)
                    .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The span layers and the metric each one's self time is reported as.
const SELF_TIMES: &[(&str, &str)] = &[
    ("netlist", "self.netlist_s"),
    ("lint", "self.lint_s"),
    ("atpg", "self.atpg_s"),
    ("replay", "self.replay_s"),
    ("core", "self.core_s"),
    ("client", "self.client_s"),
    ("server", "self.server_s"),
    ("harness", "self.harness_s"),
];

/// Self time per layer and the shares of the traced wall time.
pub fn layer_shares(m: &mut Metrics, spans: &[Span]) {
    let by_layer = trace::self_seconds_by_layer(spans);
    let own = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    for &(layer, metric) in SELF_TIMES {
        m.insert(metric, own(layer));
    }
    let traced: f64 = spans
        .iter()
        .filter(|span| span.parent.is_none())
        .map(Span::seconds)
        .sum();
    if traced > 0.0 {
        let share = |seconds: f64| seconds / traced * 100.0;
        m.insert("share.atpg_pct", share(own("atpg")));
        m.insert("share.replay_pct", share(own("replay")));
        m.insert("share.core_pct", share(own("core")));
        m.insert(
            "share.netlist_lint_pct",
            share(own("netlist") + own("lint")),
        );
        m.insert("share.serve_pct", share(own("client") + own("server")));
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut outcome = if config.workload == "serve_mixed" {
        serve::run(config)
    } else {
        let w = table::workload(&config.workload, config.seed, config.tiny).ok_or_else(|| {
            format!(
                "unknown workload `{}` (known: {})",
                config.workload,
                WORKLOADS.join(", ")
            )
        })?;
        table::run(config, &w)
    };
    outcome.note_num("run_wall_s", start.elapsed().as_secs_f64());
    Ok(outcome)
}
