//! Simultaneous reduction of dynamic and static power in scan structures.
//!
//! This crate implements the proposed method of the DATE 2005 paper on top
//! of the `scanpower` substrates:
//!
//! 1. [`AddMux`] — identifies the scan-cell outputs (pseudo-inputs) that are
//!    **not** on a critical path and can therefore be multiplexed to a fixed
//!    value during scan mode without affecting the normal-mode clock period
//!    (the paper's `AddMUX()` procedure).
//! 2. [`ControlPatternFinder`] — the `FindControlledInputPattern()`
//!    procedure: a C-algorithm/PODEM-like search over the controlled inputs
//!    (primary inputs plus multiplexed pseudo-inputs) that blocks the
//!    transitions still originating from the non-multiplexed scan cells as
//!    close to their source as possible, with every decision directed by
//!    leakage observability so that a low-leakage blocking vector is chosen.
//! 3. [`ProposedMethod`] — the complete flow: MUX planning, pattern search,
//!    minimum-leakage filling of the remaining don't-cares, physical MUX
//!    insertion ([`ScanStructure`]), and leakage-driven gate input
//!    reordering.
//! 4. Baselines — the traditional scan structure and the input-control
//!    technique of Huang & Lee \[8\] ([`baseline`]).
//! 5. [`experiment`] — the evaluation harness that regenerates Table I
//!    (dynamic and static scan power for all three structures) and the
//!    associated improvement percentages.
//!
//! # Examples
//!
//! ```
//! use scanpower_core::experiment::{CircuitExperiment, ExperimentOptions};
//! use scanpower_netlist::bench;
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let row = CircuitExperiment::new(ExperimentOptions::fast()).run(&circuit);
//! assert!(row.proposed.dynamic_per_hz_uw <= row.traditional.dynamic_per_hz_uw);
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addmux;
pub mod baseline;
pub mod error;
pub mod experiment;
mod justify;
mod pattern;
mod proposed;
mod structure;
mod wire_impls;
mod worklist;

pub use addmux::{AddMux, MuxPlan};
pub use error::{ExperimentError, ExperimentResult};
pub use justify::{Directive, Justifier, JustifyOutcome};
pub use pattern::{ControlPattern, ControlPatternFinder, PatternStats};
pub use proposed::{ProposedMethod, ProposedOptions, ProposedResult};
/// The widest gate the experiment preflight admits (SPL006 above it).
pub use scanpower_lint::LEAKAGE_PIN_LIMIT;
pub use structure::ScanStructure;
pub use worklist::TransitionWorklist;
