use scanpower_netlist::{GateKind, NetId, Netlist};
use scanpower_sim::scan::{ScanPattern, ShiftConfig};
use scanpower_sim::Logic;
use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::addmux::MuxPlan;

/// The proposed scan structure (Figure 1 of the paper): the original circuit
/// plus a 2:1 multiplexer at every non-critical pseudo-input.
///
/// Each inserted MUX selects between the scan-cell output (normal mode,
/// Shift Enable = 0) and a fixed constant (scan mode, Shift Enable = 1). The
/// select line is the Shift Enable signal that every scan design already
/// routes to its scan cells, so no extra control signal is needed; the
/// constants are local `V_cc`/`Gnd` ties, so there is no routing overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanStructure {
    netlist: Netlist,
    scan_enable: NetId,
    mux_constants: Vec<Option<Logic>>,
    original_pi_count: usize,
}

impl ScanStructure {
    /// Builds the structure by physically inserting the multiplexers.
    ///
    /// `constants[i]` gives the value multiplexed onto scan cell `i` during
    /// scan mode; cells whose entry is `None` (or that the plan marks as
    /// non-muxable) keep their direct connection. An entry of
    /// `Some(Logic::X)` is treated as logic 0.
    ///
    /// # Panics
    ///
    /// Panics if `constants` does not have one entry per scan cell.
    #[must_use]
    pub fn build(original: &Netlist, plan: &MuxPlan, constants: &[Option<Logic>]) -> ScanStructure {
        assert_eq!(
            constants.len(),
            original.dff_count(),
            "one constant entry per scan cell required"
        );
        let mut netlist = original.clone();
        netlist.set_name(format!("{}_proposed", original.name()));
        let original_pi_count = netlist.primary_inputs().len();
        let scan_enable = netlist.add_input("scan_enable");

        // Shared constant sources, created lazily.
        let mut const_zero: Option<NetId> = None;
        let mut const_one: Option<NetId> = None;
        let mut mux_constants = vec![None; original.dff_count()];

        for (index, (&muxable, constant)) in plan.muxable.iter().zip(constants).enumerate() {
            let Some(constant) = constant else { continue };
            if !muxable {
                continue;
            }
            let value = constant.to_bool().unwrap_or(false);
            let constant_net = if value {
                *const_one.get_or_insert_with(|| {
                    netlist
                        .add_gate(GateKind::Const1, &[], "scan_tie_one")
                        .output
                })
            } else {
                *const_zero.get_or_insert_with(|| {
                    netlist
                        .add_gate(GateKind::Const0, &[], "scan_tie_zero")
                        .output
                })
            };
            let q = netlist.dff(index).q;
            let mux_name = format!("{}_psmux", netlist.net(q).name);
            let mux = netlist.add_gate(GateKind::Mux, &[scan_enable, q, constant_net], &mux_name);
            netlist.move_loads(q, mux.output, Some(mux.gate));
            mux_constants[index] = Some(Logic::from_bool(value));
        }

        debug_assert!(netlist.validate().is_ok());
        ScanStructure {
            netlist,
            scan_enable,
            mux_constants,
            original_pi_count,
        }
    }

    /// The modified netlist (original logic + MUXes + constant ties).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the modified netlist (used by the gate
    /// input-reordering step).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// The Shift Enable net added as a primary input of the modified
    /// netlist.
    #[must_use]
    pub fn scan_enable(&self) -> NetId {
        self.scan_enable
    }

    /// Scan-mode constant per scan cell (`None` for cells without a MUX).
    #[must_use]
    pub fn mux_constants(&self) -> &[Option<Logic>] {
        &self.mux_constants
    }

    /// Number of inserted multiplexers.
    #[must_use]
    pub fn muxed_count(&self) -> usize {
        self.mux_constants.iter().filter(|c| c.is_some()).count()
    }

    /// Number of primary inputs of the original circuit (the modified
    /// netlist has one more: Shift Enable).
    #[must_use]
    pub fn original_pi_count(&self) -> usize {
        self.original_pi_count
    }

    /// Adapts test patterns of the original circuit to the modified netlist
    /// by appending the Shift Enable value (0 — normal/capture mode) to the
    /// primary-input part.
    #[must_use]
    pub fn adapt_patterns(&self, patterns: &[ScanPattern]) -> Vec<ScanPattern> {
        patterns
            .iter()
            .map(|pattern| {
                let mut pi = pattern.pi.clone();
                pi.push(Logic::Zero);
                ScanPattern {
                    pi,
                    scan: pattern.scan.clone(),
                }
            })
            .collect()
    }

    /// Builds the shift configuration for the modified netlist: the original
    /// primary inputs are held at `control_pi` (don't-cares become 0), and
    /// Shift Enable is held at 1 so every MUX presents its constant.
    ///
    /// # Panics
    ///
    /// Panics if `control_pi` does not have one entry per original primary
    /// input.
    #[must_use]
    pub fn shift_config(&self, control_pi: &[Logic]) -> ShiftConfig {
        assert_eq!(
            control_pi.len(),
            self.original_pi_count,
            "one control value per original primary input"
        );
        let mut values: Vec<Logic> = control_pi
            .iter()
            .map(|&v| if v.is_known() { v } else { Logic::Zero })
            .collect();
        values.push(Logic::One); // scan_enable
        ShiftConfig {
            shift_pi_values: Some(values),
            forced_pseudo: vec![None; self.netlist.dff_count()],
            count_capture: false,
        }
    }
}

/// Canonical wire encoding: the modified netlist, the Shift Enable net, the
/// per-cell scan-mode constants and the original primary-input count, in
/// that order. Decoding re-validates the cross-references the constructor
/// guarantees — the Shift Enable net must be a primary input of the decoded
/// netlist, the constants vector must have one entry per scan cell, and the
/// original PI count can be at most one less than the modified netlist's
/// (the structure adds exactly the Shift Enable input).
impl Wire for ScanStructure {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.netlist.encode_into(writer);
        self.scan_enable.encode_into(writer);
        self.mux_constants.encode_into(writer);
        self.original_pi_count.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let netlist = Netlist::decode_from(reader)?;
        let scan_enable = NetId::decode_from(reader)?;
        let mux_constants = Vec::<Option<Logic>>::decode_from(reader)?;
        let original_pi_count = usize::decode_from(reader)?;
        if !netlist.primary_inputs().contains(&scan_enable) {
            return Err(WireError::Invalid(format!(
                "scan structure snapshot: scan_enable net {} is not a primary input",
                scan_enable.index()
            )));
        }
        if mux_constants.len() != netlist.dff_count() {
            return Err(WireError::Invalid(format!(
                "scan structure snapshot: {} mux constants for {} scan cells",
                mux_constants.len(),
                netlist.dff_count()
            )));
        }
        if original_pi_count >= netlist.primary_inputs().len() {
            return Err(WireError::Invalid(format!(
                "scan structure snapshot: original_pi_count {} must be below the \
                 modified netlist's {} primary inputs",
                original_pi_count,
                netlist.primary_inputs().len()
            )));
        }
        Ok(ScanStructure {
            netlist,
            scan_enable,
            mux_constants,
            original_pi_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addmux::AddMux;
    use scanpower_netlist::bench;
    use scanpower_sim::{Logic, SimKernel};
    use scanpower_timing::Sta;

    fn build_s27() -> (Netlist, ScanStructure) {
        let original = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let plan = AddMux::default().plan(&original).unwrap();
        let constants: Vec<Option<Logic>> = plan
            .muxable
            .iter()
            .map(|&m| if m { Some(Logic::Zero) } else { None })
            .collect();
        let structure = ScanStructure::build(&original, &plan, &constants);
        (original, structure)
    }

    #[test]
    fn build_inserts_one_mux_per_muxable_cell() {
        let (original, structure) = build_s27();
        let plan = AddMux::default().plan(&original).unwrap();
        assert_eq!(structure.muxed_count(), plan.muxed_count());
        let mux_gates = structure
            .netlist()
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Mux)
            .count();
        assert_eq!(mux_gates, plan.muxed_count());
        assert!(structure.netlist().validate().is_ok());
    }

    #[test]
    fn normal_mode_function_is_preserved() {
        let (original, structure) = build_s27();
        let mut ev_orig = SimKernel::<Logic>::new(&original);
        let mut ev_new = SimKernel::<Logic>::new(structure.netlist());
        // With Shift Enable = 0 the modified circuit must compute the same
        // primary outputs and next-state functions for every input vector.
        let width = ev_orig.inputs().len();
        for assignment in 0..(1u32 << width) {
            let inputs: Vec<Logic> = (0..width)
                .map(|i| Logic::from_bool((assignment >> i) & 1 == 1))
                .collect();
            // Modified circuit input order: original PIs, scan_enable, then
            // the same pseudo-inputs.
            let pi = original.primary_inputs().len();
            let mut modified_inputs = inputs[..pi].to_vec();
            modified_inputs.push(Logic::Zero);
            modified_inputs.extend_from_slice(&inputs[pi..]);
            let original_values = ev_orig.evaluate(&original, &inputs);
            let new_values = ev_new.evaluate(structure.netlist(), &modified_inputs);
            for (po_a, po_b) in original
                .primary_outputs()
                .iter()
                .zip(structure.netlist().primary_outputs())
            {
                assert_eq!(original_values[po_a.index()], new_values[po_b.index()]);
            }
            for (da, db) in original
                .pseudo_outputs()
                .iter()
                .zip(structure.netlist().pseudo_outputs())
            {
                assert_eq!(original_values[da.index()], new_values[db.index()]);
            }
        }
    }

    #[test]
    fn critical_path_is_not_lengthened() {
        let (original, structure) = build_s27();
        let sta = Sta::default();
        let before = sta.analyze(&original).unwrap().critical_delay();
        let after = sta.analyze(structure.netlist()).unwrap().critical_delay();
        assert!(
            after <= before + 1e-9,
            "critical path grew: {before} -> {after}"
        );
    }

    #[test]
    fn scan_mode_isolates_muxed_cells() {
        let (original, structure) = build_s27();
        let mut ev = SimKernel::<Logic>::new(structure.netlist());
        // Scan enable = 1: the MUX outputs must equal their constants no
        // matter what the scan cells hold.
        let pi = original.primary_inputs().len();
        let mut inputs = vec![Logic::Zero; ev.inputs().len()];
        inputs[pi] = Logic::One; // scan_enable
        for (i, slot) in inputs.iter_mut().enumerate().skip(pi + 1) {
            *slot = Logic::from_bool(i % 2 == 0);
        }
        let values = ev.evaluate(structure.netlist(), &inputs);
        for gate in structure.netlist().gates() {
            if gate.kind == GateKind::Mux {
                assert_eq!(values[gate.output.index()], Logic::Zero);
            }
        }
    }

    #[test]
    fn wire_round_trip_preserves_the_structure() {
        use scanpower_wire::{decode_message, encode_message, Wire, WireError};
        let (_, structure) = build_s27();
        let bytes = encode_message(&structure);
        let decoded = decode_message::<ScanStructure>(&bytes).unwrap();
        assert_eq!(decoded, structure);

        // Decode-side validation: a constants vector that does not match
        // the scan-cell count is refused, not silently accepted.
        let mut writer = scanpower_wire::WireWriter::new();
        structure.netlist.encode_into(&mut writer);
        structure.scan_enable.encode_into(&mut writer);
        let short_constants = &structure.mux_constants[1..];
        short_constants.to_vec().encode_into(&mut writer);
        structure.original_pi_count.encode_into(&mut writer);
        let mut reader = scanpower_wire::WireReader::new(writer.as_bytes());
        let error = ScanStructure::decode_from(&mut reader).unwrap_err();
        assert!(matches!(error, WireError::Invalid(_)), "{error:?}");
    }

    #[test]
    fn adapt_patterns_appends_shift_enable() {
        let (original, structure) = build_s27();
        let pattern = ScanPattern::from_bools(&[true, false, true, true], &[false, true, false]);
        let adapted = structure.adapt_patterns(std::slice::from_ref(&pattern));
        assert_eq!(adapted[0].pi.len(), original.primary_inputs().len() + 1);
        assert_eq!(*adapted[0].pi.last().unwrap(), Logic::Zero);
        assert_eq!(adapted[0].scan, pattern.scan);
        let config = structure.shift_config(&vec![Logic::X; original.primary_inputs().len()]);
        let shift_values = config.shift_pi_values.unwrap();
        assert_eq!(*shift_values.last().unwrap(), Logic::One);
    }
}
