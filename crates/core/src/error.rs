//! The typed error taxonomy of the experiment pipeline.
//!
//! Every way one circuit's job of
//! [`run_table1_partial`](crate::experiment::run_table1_partial) can fail is
//! a variant of [`ExperimentError`]: invalid inputs (netlist validation,
//! the lint preflight, configuration), refused inputs (resource ceilings),
//! cancellation, and supervised worker failures (an isolated panic or an
//! injected fault). The `Display` renderings are **deterministic** — the
//! same failure produces the same message on every run, thread count and
//! scheduling — because failed rows are part of the partial-results report
//! and inherit the bit-identity discipline of the surviving rows.

use std::fmt;

use scanpower_lint::LintReport;
use scanpower_netlist::NetlistError;

/// Convenience alias for experiment-pipeline results.
pub type ExperimentResult<T> = Result<T, ExperimentError>;

/// Why one circuit's experiment failed (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The netlist failed structural validation or a transformation step.
    Netlist(NetlistError),
    /// The static-analysis preflight found Error-severity diagnostics; the
    /// full report is carried along.
    Lint(Box<LintReport>),
    /// The circuit has no scan cells — the scan-power experiment requires
    /// a full-scan circuit.
    NoScanCells {
        /// The rejected circuit's name.
        circuit: String,
    },
    /// A resource ceiling (`ResourceLimits`) refused the circuit before
    /// dispatch.
    ResourceLimit {
        /// The rejected circuit's name.
        circuit: String,
        /// Which ceiling fired (`"gates"` or `"patterns"`; the job
        /// service also refuses `"fanin"` at submit).
        resource: &'static str,
        /// The configured ceiling.
        limit: usize,
        /// The circuit's actual count.
        actual: usize,
    },
    /// The circuit's job observed its cancellation flag (explicit trip or
    /// an expired deadline) and wound down at a block boundary.
    Canceled {
        /// The canceled circuit's name.
        circuit: String,
    },
    /// The circuit's supervised worker job failed: its final attempt
    /// panicked (or hit an injected fault) and was isolated — the process
    /// and every sibling circuit survived.
    WorkerFailed {
        /// The failed circuit's name.
        circuit: String,
        /// The isolated panic's message.
        message: String,
        /// Attempts consumed, counting the first.
        attempts: u32,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Netlist(error) => write!(f, "netlist error: {error}"),
            ExperimentError::Lint(report) => write!(
                f,
                "lint preflight rejected the circuit:\n{}",
                report.to_text()
            ),
            ExperimentError::NoScanCells { circuit } => {
                write!(f, "full-scan circuit required: `{circuit}` has no scan cells")
            }
            ExperimentError::ResourceLimit {
                circuit,
                resource,
                limit,
                actual,
            } => write!(
                f,
                "resource limit exceeded for `{circuit}`: {actual} {resource} over the ceiling of {limit}"
            ),
            ExperimentError::Canceled { circuit } => write!(
                f,
                "`{circuit}`: job canceled (cancellation flag tripped or deadline exceeded)"
            ),
            ExperimentError::WorkerFailed {
                circuit,
                message,
                attempts,
            } => write!(
                f,
                "`{circuit}`: worker failed after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Netlist(error) => Some(error),
            _ => None,
        }
    }
}

impl From<NetlistError> for ExperimentError {
    fn from(error: NetlistError) -> ExperimentError {
        ExperimentError::Netlist(error)
    }
}

impl From<LintReport> for ExperimentError {
    fn from(report: LintReport) -> ExperimentError {
        ExperimentError::Lint(Box::new(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_deterministic_and_carry_the_key_substrings() {
        // The panicking wrappers forward these messages, and existing
        // `should_panic(expected = ...)` tests pin the substrings.
        assert_eq!(
            ExperimentError::NoScanCells {
                circuit: "c17".into()
            }
            .to_string(),
            "full-scan circuit required: `c17` has no scan cells"
        );
        assert_eq!(
            ExperimentError::ResourceLimit {
                circuit: "s344".into(),
                resource: "gates",
                limit: 10,
                actual: 160,
            }
            .to_string(),
            "resource limit exceeded for `s344`: 160 gates over the ceiling of 10"
        );
        assert_eq!(
            ExperimentError::Canceled {
                circuit: "s344".into()
            }
            .to_string(),
            "`s344`: job canceled (cancellation flag tripped or deadline exceeded)"
        );
        assert_eq!(
            ExperimentError::WorkerFailed {
                circuit: "s344".into(),
                message: "boom".into(),
                attempts: 2,
            }
            .to_string(),
            "`s344`: worker failed after 2 attempt(s): boom"
        );
    }

    #[test]
    fn netlist_errors_convert_and_expose_their_source() {
        use std::error::Error;
        let error: ExperimentError =
            NetlistError::Validation("cyclic combinational part".into()).into();
        assert!(matches!(error, ExperimentError::Netlist(_)));
        assert!(error.to_string().starts_with("netlist error: "));
        assert!(error.source().is_some());
    }
}
