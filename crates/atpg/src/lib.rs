//! Stuck-at test pattern generation for the `scanpower` workspace.
//!
//! The paper drives its experiments with test sets produced by the ATOM
//! test generator \[18\]. ATOM is not available here, so this crate provides
//! a functionally equivalent substitute (see `DESIGN.md` §4): a classic
//! two-phase full-scan ATPG consisting of
//!
//! 1. a **random phase** — blocks of random patterns are fault-simulated
//!    with fault dropping and kept only when they detect new faults, and
//! 2. a **deterministic phase** — a PODEM implementation targets each
//!    remaining undetected fault directly.
//!
//! The output is a compact [`TestSet`] of fully-specified scan patterns plus
//! the achieved fault coverage. Only the statistical structure of the
//! vectors matters for the paper's shift-power experiments, which is exactly
//! what this flow reproduces.
//!
//! # Examples
//!
//! ```
//! use scanpower_netlist::bench;
//! use scanpower_atpg::{AtpgConfig, AtpgFlow};
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let test_set = AtpgFlow::new(AtpgConfig::default()).run(&circuit);
//! assert!(test_set.fault_coverage > 0.9);
//! assert!(!test_set.patterns.is_empty());
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod podem;

pub use flow::{AtpgConfig, AtpgFlow, TestSet};
pub use podem::{FaultSearch, Podem, PodemOutcome};
