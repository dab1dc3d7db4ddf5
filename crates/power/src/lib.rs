//! Power models for the `scanpower` workspace.
//!
//! The paper reduces **both** components of test power:
//!
//! * dynamic power — Equation (1): `P_dyn = f · ½ · V_DD² · Σ α_i · C_Li`,
//!   estimated here from scan-shift transition counts and the capacitance
//!   model of `scanpower-timing` ([`DynamicPower`]);
//! * static power — per-gate leakage that depends strongly on the input
//!   state of each gate (Figure 2 of the paper). The paper characterises
//!   gates with HSPICE/BSIM4 at 45 nm and stores the results in tables; this
//!   crate reproduces that with an analytic subthreshold + gate-tunnelling
//!   approximation ([`model`]) calibrated so the NAND2 table matches
//!   Figure 2 exactly, and exposes the result as a [`LeakageLibrary`].
//!
//! On top of the models this crate implements the two leakage-oriented
//! algorithms the proposed method relies on:
//!
//! * [`LeakageObservability`] — the observability attribute of
//!   Johnson/Somasekhar/Roy extended from primary inputs to **every** line,
//!   used to direct the controlled-input pattern search;
//! * [`InputVectorControl`] — simulation-based minimum-leakage vector search
//!   used to fill the don't-care controlled inputs;
//! * [`reorder`] — leakage-driven gate input reordering (the "01 vs 10"
//!   optimisation of Figure 2).
//!
//! # Examples
//!
//! ```
//! use scanpower_power::LeakageLibrary;
//! use scanpower_netlist::GateKind;
//!
//! let library = LeakageLibrary::cmos45();
//! // Figure 2 of the paper: NAND2 leakage in nA per input state.
//! assert!((library.gate_leakage(GateKind::Nand, 2, 0b00) - 78.0).abs() < 1e-6);
//! assert!((library.gate_leakage(GateKind::Nand, 2, 0b11) - 408.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod ivc;
mod leakage;
pub mod model;
mod observability;
pub mod reorder;

pub use dynamic::{DynamicPower, DynamicPowerReport};
pub use ivc::{InputVectorControl, IvcResult};
pub use leakage::{LeakageAverage, LeakageEstimator, LeakageLibrary, PackedShiftLeakage};
pub use observability::LeakageObservability;
