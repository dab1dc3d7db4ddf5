//! Logic simulation for the `scanpower` workspace.
//!
//! The power numbers of the paper are produced by simulating the circuit
//! while test vectors are shifted through the scan chain. This crate
//! provides the simulation machinery, all of it built on one shared
//! evaluation layer:
//!
//! * [`kernel`] — the [`SimKernel`]: cached topological order, input
//!   mapping and per-net buffers, generic over [`LogicWord`] — one circuit
//!   state per pass ([`Logic`]) or sixty-four ([`PackedWord`], a two-word
//!   three-valued bit-parallel encoding, the one lane type of the packed
//!   replay and leakage paths). This module contains the single
//!   gate-evaluation implementation of the workspace.
//!   Callers either evaluate from a full input assignment
//!   ([`SimKernel::evaluate`]) or re-settle a buffer after some source nets
//!   changed ([`SimKernel::propagate_from`] over a [`DirtyWorklist`]).
//! * [`Logic`] — three-valued (0/1/X) logic with Kleene semantics.
//! * [`scan`] — test-per-scan shift simulation ([`scan::ScanShiftSim`]) with
//!   per-net transition counts and per-cycle state observation.
//! * [`scan_packed`] — the packed multi-pattern scan-shift replay
//!   ([`scan_packed::PackedScanShiftSim`]): each shift cycle settles a
//!   block of 64 patterns' circuit states at once, event-driven —
//!   re-evaluating only the fanout cones of the nets the cycle actually
//!   changed — with popcount-based transition counting and a lane-aware
//!   observer; bit-identical [`scan::ShiftStats`] and lane states to the
//!   scalar replay, its one reference.
//! * [`fault`] — 64-pattern-per-pass stuck-at fault simulation used by the
//!   ATPG substitute.
//! * [`parallel`] — the [`BlockDriver`]: deterministic sharding of
//!   independent ≤64-lane blocks across scoped threads (sequential fallback
//!   at one thread), with results merged in block order so every reduction is
//!   bit-identical to the sequential loop. Panicking jobs are isolated
//!   per job; [`BlockDriver::map_supervised`] adds typed per-job failures,
//!   a bounded retry budget and cooperative cancellation ([`CancelFlag`]).
//! * [`patterns`] — deterministic random pattern generation.
//! * [`failpoint`] — deterministic fault injection: named failpoints in
//!   the replay, observer and driver hot paths, compiled to no-ops unless
//!   the `fault-inject` feature is enabled.
//!
//! # Examples
//!
//! ```
//! use scanpower_netlist::bench;
//! use scanpower_sim::{Logic, SimKernel};
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let mut kernel = SimKernel::<Logic>::new(&circuit);
//! let inputs = vec![Logic::Zero; kernel.inputs().len()];
//! let values = kernel.evaluate(&circuit, &inputs);
//! assert_eq!(values.len(), circuit.net_count());
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```
//!
//! Evaluating 64 circuit states in one pass:
//!
//! ```
//! use scanpower_netlist::bench;
//! use scanpower_sim::kernel::{pack_bool_patterns, PackedWord, SimKernel};
//! use scanpower_sim::patterns::random_bool_patterns;
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let mut kernel = SimKernel::<PackedWord>::new(&circuit);
//! let block = random_bool_patterns(kernel.inputs().len(), 64, 1);
//! let inputs = pack_bool_patterns(&block);
//! let values = kernel.evaluate(&circuit, &inputs);
//! assert_eq!(values.len(), circuit.net_count());
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failpoint;
pub mod fault;
pub mod kernel;
mod logic;
pub mod parallel;
pub mod patterns;
pub mod scan;
pub mod scan_packed;
mod wire_impls;

pub use kernel::{DirtyWorklist, LogicWord, PackedWord, SimKernel};
pub use logic::Logic;
pub use parallel::{
    BlockDriver, CancelFlag, Canceled, JobContext, JobError, JobFailure, JobPolicy,
};
pub use scan_packed::{PackedScanShiftSim, ShiftCycle};
