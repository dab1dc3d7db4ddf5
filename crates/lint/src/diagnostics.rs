//! The diagnostics framework: stable lint codes, severities, net/gate
//! locations and a machine-readable report type.
//!
//! Lint codes are part of the crate's public contract: once a code ships it
//! keeps its meaning forever, so downstream tooling (CI gates, waiver lists)
//! can match on the `SPL0xx` string without tracking enum evolution.

use std::fmt;

use scanpower_netlist::{GateId, NetId};
use serde::{Deserialize, Serialize};

/// How serious a finding is.
///
/// Ordered so that `Note < Warning < Error`, which lets callers gate on
/// `severity >= Severity::Warning` style thresholds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing (e.g. provably
    /// constant nets).
    #[default]
    Note,
    /// Suspicious structure that simulates fine but usually indicates a
    /// netlist preparation mistake.
    Warning,
    /// The netlist cannot be simulated faithfully (or at all); the
    /// experiment preflight refuses to run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifiers for every check the analyzer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// `SPL001`: a used net (gate/DFF input or primary output) has no driver.
    UndrivenNet,
    /// `SPL002`: a driven net has no loads and is not a primary output.
    FloatingNet,
    /// `SPL003`: a net is driven by more than one gate/DFF/input declaration.
    MultiplyDrivenNet,
    /// `SPL004`: a gate cannot reach any primary output or flip-flop D pin.
    DanglingGate,
    /// `SPL005`: the combinational part contains a cycle.
    CombinationalLoop,
    /// `SPL006`: a gate exceeds the 16-pin leakage-model limit
    /// ([`LEAKAGE_PIN_LIMIT`](crate::LEAKAGE_PIN_LIMIT)).
    OverPinLimit,
    /// `SPL007`: a scan cell is wired suspiciously (unused Q, D tied to own Q).
    ScanChainIntegrity,
    /// `SPL008`: two gates compute the identical function of identical nets.
    DuplicateGate,
    /// `SPL009`: the `.bench` source text could not be parsed.
    ParseError,
    /// `SPL010`: a net is provably constant for every input pattern.
    ConstantNet,
    /// `SPL011`: summary of which nets can ever carry an unknown (X) value.
    XReachability,
}

impl LintCode {
    /// Every code the analyzer can emit, in `SPL0xx` order.
    pub const ALL: [LintCode; 11] = [
        LintCode::UndrivenNet,
        LintCode::FloatingNet,
        LintCode::MultiplyDrivenNet,
        LintCode::DanglingGate,
        LintCode::CombinationalLoop,
        LintCode::OverPinLimit,
        LintCode::ScanChainIntegrity,
        LintCode::DuplicateGate,
        LintCode::ParseError,
        LintCode::ConstantNet,
        LintCode::XReachability,
    ];

    /// The stable `SPL0xx` string for this code.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UndrivenNet => "SPL001",
            LintCode::FloatingNet => "SPL002",
            LintCode::MultiplyDrivenNet => "SPL003",
            LintCode::DanglingGate => "SPL004",
            LintCode::CombinationalLoop => "SPL005",
            LintCode::OverPinLimit => "SPL006",
            LintCode::ScanChainIntegrity => "SPL007",
            LintCode::DuplicateGate => "SPL008",
            LintCode::ParseError => "SPL009",
            LintCode::ConstantNet => "SPL010",
            LintCode::XReachability => "SPL011",
        }
    }

    /// The severity this code is reported at.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::UndrivenNet
            | LintCode::MultiplyDrivenNet
            | LintCode::CombinationalLoop
            | LintCode::OverPinLimit
            | LintCode::ParseError => Severity::Error,
            LintCode::ScanChainIntegrity => Severity::Warning,
            // Floating nets and dangling gates simulate fine and appear
            // legitimately in synthetic netlists (leftover cones the sink
            // sampling did not consume), so they inform rather than warn.
            LintCode::FloatingNet
            | LintCode::DanglingGate
            | LintCode::DuplicateGate
            | LintCode::ConstantNet
            | LintCode::XReachability => Severity::Note,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A net location attached to a diagnostic: the id plus the name it had in
/// the source, so reports stay readable after the netlist is dropped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetRef {
    /// Net id inside the linted netlist.
    pub id: NetId,
    /// Source-level net name.
    pub name: String,
}

/// A gate location attached to a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GateRef {
    /// Gate id inside the linted netlist.
    pub id: GateId,
    /// Gate name (the name of its output net).
    pub name: String,
}

/// One finding: a code, a severity, a human-readable message and the
/// locations (nets/gates/source line) it applies to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity (normally [`LintCode::default_severity`]).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Nets this finding is anchored to.
    pub nets: Vec<NetRef>,
    /// Gates this finding is anchored to.
    pub gates: Vec<GateRef>,
    /// 1-based `.bench` source line, when the finding came from the parser.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    #[must_use]
    pub fn new(code: LintCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            line: None,
        }
    }

    /// Attaches a net location.
    #[must_use]
    pub fn with_net(mut self, id: NetId, name: impl Into<String>) -> Diagnostic {
        self.nets.push(NetRef {
            id,
            name: name.into(),
        });
        self
    }

    /// Attaches a gate location.
    #[must_use]
    pub fn with_gate(mut self, id: GateId, name: impl Into<String>) -> Diagnostic {
        self.gates.push(GateRef {
            id,
            name: name.into(),
        });
        self
    }

    /// Attaches a 1-based source line.
    #[must_use]
    pub fn with_line(mut self, line: usize) -> Diagnostic {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        Ok(())
    }
}

/// The machine-readable result of linting one circuit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LintReport {
    /// Name of the linted circuit.
    pub circuit: String,
    /// Findings in deterministic pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates an empty report for `circuit`.
    #[must_use]
    pub fn new(circuit: impl Into<String>) -> LintReport {
        LintReport {
            circuit: circuit.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True if the report carries no errors and no warnings (notes allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity < Severity::Warning)
    }

    /// True if at least one finding has the given code.
    #[must_use]
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The findings with the given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders the report as human-readable text, one finding per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lint report for `{}`: {} error(s), {} warning(s), {} note(s)\n",
            self.circuit,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        for diagnostic in &self.diagnostics {
            out.push_str(&format!("  {diagnostic}\n"));
        }
        out
    }

    /// Renders the report as JSON.
    ///
    /// The vendored `serde` stand-in has no wire format, so the report writes
    /// its own: a stable, minimal schema (`circuit`, `diagnostics[]` with
    /// `code`, `severity`, `message`, `nets`, `gates`, `line`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"circuit\":{},", json_string(&self.circuit)));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"message\":{},\"nets\":[{}],\"gates\":[{}],\"line\":{}}}",
                json_string(d.code.code()),
                json_string(&d.severity.to_string()),
                json_string(&d.message),
                d.nets
                    .iter()
                    .map(|n| json_string(&n.name))
                    .collect::<Vec<_>>()
                    .join(","),
                d.gates
                    .iter()
                    .map(|g| json_string(&g.name))
                    .collect::<Vec<_>>()
                    .join(","),
                d.line.map_or("null".to_owned(), |l| l.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_ordered() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            [
                "SPL001", "SPL002", "SPL003", "SPL004", "SPL005", "SPL006", "SPL007", "SPL008",
                "SPL009", "SPL010", "SPL011"
            ]
        );
    }

    #[test]
    fn severity_ordering_gates_thresholds() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counting_and_cleanliness() {
        let mut report = LintReport::new("t");
        assert!(report.is_clean() && !report.has_errors());
        report.push(Diagnostic::new(LintCode::ConstantNet, "n is 0"));
        assert!(report.is_clean());
        report.push(Diagnostic::new(LintCode::ScanChainIntegrity, "q unused"));
        assert!(!report.is_clean() && !report.has_errors());
        report.push(Diagnostic::new(LintCode::UndrivenNet, "n undriven"));
        assert!(report.has_errors());
        assert_eq!(report.count(Severity::Error), 1);
        assert!(report.has_code(LintCode::ScanChainIntegrity));
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut report = LintReport::new("weird\"name");
        report.push(
            Diagnostic::new(LintCode::ParseError, "bad\ttoken")
                .with_line(7)
                .with_net(NetId::from_index(0), "n\\0"),
        );
        let json = report.to_json();
        assert!(json.contains("\"weird\\\"name\""));
        assert!(json.contains("\"bad\\ttoken\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"n\\\\0\""));
        assert!(json.contains("\"SPL009\""));
    }
}
