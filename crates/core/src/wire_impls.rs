//! Canonical wire encodings ([`Wire`]) of the experiment-layer types:
//! per-scheme power cells, Table I rows, and the full experiment options.
//! These encodings feed two consumers — snapshot round-trips and the
//! content-addressed result cache — so the byte layout is part of the
//! frozen wire format: fields are written in declaration order, floats as
//! IEEE-754 bit patterns, and new fields must be appended behind a version
//! bump, never inserted.
//!
//! [`ScanStructure`](crate::ScanStructure)'s encoding lives in
//! `structure.rs` (private fields).

use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::experiment::{CircuitRow, ExperimentOptions, ResourceLimits, SchemePower};
use crate::proposed::ProposedOptions;

impl Wire for SchemePower {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.dynamic_per_hz_uw.encode_into(writer);
        self.static_uw.encode_into(writer);
        self.total_toggles.encode_into(writer);
        self.shift_cycles.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SchemePower {
            dynamic_per_hz_uw: f64::decode_from(reader)?,
            static_uw: f64::decode_from(reader)?,
            total_toggles: u64::decode_from(reader)?,
            shift_cycles: usize::decode_from(reader)?,
        })
    }
}

impl Wire for CircuitRow {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.circuit.encode_into(writer);
        self.gates.encode_into(writer);
        self.flip_flops.encode_into(writer);
        self.patterns.encode_into(writer);
        self.fault_coverage.encode_into(writer);
        self.mux_coverage.encode_into(writer);
        self.traditional.encode_into(writer);
        self.input_control.encode_into(writer);
        self.proposed.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CircuitRow {
            circuit: String::decode_from(reader)?,
            gates: usize::decode_from(reader)?,
            flip_flops: usize::decode_from(reader)?,
            patterns: usize::decode_from(reader)?,
            fault_coverage: f64::decode_from(reader)?,
            mux_coverage: f64::decode_from(reader)?,
            traditional: SchemePower::decode_from(reader)?,
            input_control: SchemePower::decode_from(reader)?,
            proposed: SchemePower::decode_from(reader)?,
        })
    }
}

impl Wire for ResourceLimits {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.max_gates.encode_into(writer);
        self.max_replayed_patterns.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ResourceLimits {
            max_gates: Option::decode_from(reader)?,
            max_replayed_patterns: Option::decode_from(reader)?,
        })
    }
}

impl Wire for ProposedOptions {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.leakage_directed.encode_into(writer);
        self.reorder_inputs.encode_into(writer);
        self.ivc_samples.encode_into(writer);
        self.delay_model.encode_into(writer);
        self.mux_fraction.encode_into(writer);
        self.sampled_observability.encode_into(writer);
        self.seed.encode_into(writer);
        self.threads.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ProposedOptions {
            leakage_directed: bool::decode_from(reader)?,
            reorder_inputs: bool::decode_from(reader)?,
            ivc_samples: usize::decode_from(reader)?,
            delay_model: Wire::decode_from(reader)?,
            mux_fraction: Option::decode_from(reader)?,
            sampled_observability: Option::decode_from(reader)?,
            seed: u64::decode_from(reader)?,
            threads: usize::decode_from(reader)?,
        })
    }
}

/// Every knob is encoded, in declaration order — including the knobs
/// (`threads`, `retries`, …) that the result cache deliberately *excludes*
/// from its key (see
/// [`semantic_options_bytes`](crate::experiment::semantic_options_bytes)).
/// The [`result_cache`](ExperimentOptions::result_cache) handle is runtime
/// state, not configuration: it is skipped on encode and comes back
/// disabled on decode.
impl Wire for ExperimentOptions {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.atpg.encode_into(writer);
        self.max_patterns.encode_into(writer);
        self.proposed.encode_into(writer);
        self.threads.encode_into(writer);
        self.limits.encode_into(writer);
        self.retries.encode_into(writer);
        self.job_deadline_ms.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ExperimentOptions {
            atpg: Wire::decode_from(reader)?,
            max_patterns: Option::decode_from(reader)?,
            proposed: ProposedOptions::decode_from(reader)?,
            threads: usize::decode_from(reader)?,
            limits: ResourceLimits::decode_from(reader)?,
            retries: u32::decode_from(reader)?,
            job_deadline_ms: Option::decode_from(reader)?,
            result_cache: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_wire::{decode_message, encode_message};

    #[test]
    fn scheme_power_round_trip_preserves_float_bits() {
        let power = SchemePower {
            dynamic_per_hz_uw: 1.234e-6,
            static_uw: -0.0,
            total_toggles: u64::MAX,
            shift_cycles: 96,
        };
        let decoded = decode_message::<SchemePower>(&encode_message(&power)).unwrap();
        assert_eq!(decoded, power);
        assert_eq!(decoded.static_uw.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn circuit_row_round_trip() {
        let cell = SchemePower {
            dynamic_per_hz_uw: 0.5,
            static_uw: 2.0,
            total_toggles: 7,
            shift_cycles: 3,
        };
        let row = CircuitRow {
            circuit: "s27".to_owned(),
            gates: 10,
            flip_flops: 3,
            patterns: 16,
            fault_coverage: 0.98,
            mux_coverage: 2.0 / 3.0,
            traditional: cell,
            input_control: cell,
            proposed: SchemePower {
                dynamic_per_hz_uw: 0.25,
                ..cell
            },
        };
        assert_eq!(
            decode_message::<CircuitRow>(&encode_message(&row)).unwrap(),
            row
        );
    }

    #[test]
    fn experiment_options_round_trip_every_knob() {
        let options = ExperimentOptions {
            max_patterns: Some(17),
            threads: 5,
            limits: ResourceLimits {
                max_gates: Some(1000),
                max_replayed_patterns: Some(64),
            },
            retries: 3,
            job_deadline_ms: Some(250),
            proposed: ProposedOptions {
                leakage_directed: false,
                mux_fraction: Some(0.5),
                sampled_observability: Some(4),
                threads: 2,
                ..ProposedOptions::default()
            },
            ..ExperimentOptions::default()
        };
        assert_eq!(
            decode_message::<ExperimentOptions>(&encode_message(&options)).unwrap(),
            options
        );
    }
}
