//! Metric catalogue, summary statistics and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("table_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("avg_dynamic_reduction_pct", "%"),
    ("avg_static_reduction_pct", "%"),
];

/// Per-layer metrics, printed by every traced run. Layers a workload does
/// not reach report 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("atpg.flow_s", "s"),
    ("atpg.patterns_generated", "count"),
    ("atpg.patterns_replayed_ratio", "ratio"),
    ("atpg.random_patterns", "count"),
    ("atpg.deterministic_patterns", "count"),
    ("atpg.aborted_faults", "count"),
    ("atpg.untestable_faults", "count"),
    ("atpg.random_sim_passes", "count"),
    ("atpg.fault_coverage", "ratio"),
    ("core.input_control_plan_s", "s"),
    ("core.proposed_apply_s", "s"),
    ("core.mux_coverage", "ratio"),
    ("replay.traditional_s", "s"),
    ("replay.input_control_s", "s"),
    ("replay.proposed_s", "s"),
    ("replay.shift_cycles", "count"),
    ("replay.toggles", "count"),
    ("replay.ns_per_shift_cycle", "ns"),
    ("netlist.generate_s", "s"),
    ("netlist.gates", "count"),
    ("lint.preflight_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.empty_polls_per_job", "count"),
    ("serve.busy_refusals", "count"),
    ("wire.request_bytes_per_job", "bytes"),
    ("wire.response_bytes_per_job", "bytes"),
    ("self.netlist_s", "s"),
    ("self.lint_s", "s"),
    ("self.atpg_s", "s"),
    ("self.replay_s", "s"),
    ("self.core_s", "s"),
    ("self.client_s", "s"),
    ("self.server_s", "s"),
    ("self.harness_s", "s"),
    ("share.atpg_pct", "%"),
    ("share.replay_pct", "%"),
    ("share.core_pct", "%"),
    ("share.netlist_lint_pct", "%"),
    ("share.serve_pct", "%"),
    ("trace.table_s_untraced", "s"),
    ("trace.table_s_traced", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// keeps at least ten samples above it, but never below the median. With
/// fewer than twenty samples no such percentile exists and the tail is the
/// maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Which percentile it is.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// See [`Tail`].
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Rank k (1-based) leaves n - k samples above it.
    let rank = if n >= 20 { n - 10 } else { n };
    Tail {
        value: sorted[rank - 1],
        percentile: rank as f64 / n as f64 * 100.0,
        samples: n,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// JSON string escaping for the few strings the benchmark prints.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number as JSON (non-finite values, which JSON cannot carry, as 0).
#[must_use]
pub fn number(value: f64) -> String {
    if value.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", value + 0.0)
    } else {
        "0".to_owned()
    }
}

/// A flat JSON object built field by field.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.fields
            .push(format!("\"{}\": \"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds a number field.
    #[must_use]
    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        self.fields
            .push(format!("\"{}\": {}", escape(key), number(value)));
        self
    }

    /// Adds a field whose value is already JSON.
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> JsonObject {
        self.fields.push(format!("\"{}\": {json}", escape(key)));
        self
    }

    /// The object's text.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// The result line: every metric of `catalogue`, in catalogue order, with
/// its unit; metrics the run did not set print as 0.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[MetricDef],
    metrics: &Metrics,
) -> String {
    let mut body = JsonObject::new();
    for &(name, unit) in catalogue {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        body = body.raw(
            name,
            &JsonObject::new()
                .num("value", value)
                .str("unit", unit)
                .render(),
        );
    }
    JsonObject::new()
        .raw("correct", if correct { "true" } else { "false" })
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .raw("metrics", &body.render())
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).value, 12.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
