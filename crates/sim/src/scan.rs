//! Test-per-scan shift simulation with transition counting.
//!
//! During scan mode the contents of the scan chain ripple by one position
//! every clock cycle; each intermediate chain state is presented to the
//! combinational logic through the scan-cell outputs (pseudo-inputs). The
//! [`ScanShiftSim`] replays that process for a sequence of test patterns,
//! counts how often every net toggles, and can hand each visited circuit
//! state to an observer (the leakage estimator uses this to average static
//! power over the scan operation).

use serde::{Deserialize, Serialize};

use scanpower_netlist::{NetId, Netlist};

use crate::kernel::{DirtyWorklist, SimKernel};
use crate::logic::Logic;

/// One scan test pattern: the primary-input part applied at capture and the
/// value destined for every scan cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanPattern {
    /// Primary-input values applied when the test is launched (capture
    /// cycle), one per primary input in netlist order.
    pub pi: Vec<Logic>,
    /// Stimulus destined for each scan cell, one per flip-flop in netlist
    /// (scan-chain) order.
    pub scan: Vec<Logic>,
}

impl ScanPattern {
    /// Creates a pattern from boolean PI and scan parts.
    #[must_use]
    pub fn from_bools(pi: &[bool], scan: &[bool]) -> ScanPattern {
        ScanPattern {
            pi: pi.iter().copied().map(Logic::from_bool).collect(),
            scan: scan.iter().copied().map(Logic::from_bool).collect(),
        }
    }
}

/// How the circuit inputs are driven while the chain is shifting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftConfig {
    /// Values held on the primary inputs during shift. `None` keeps the
    /// primary inputs at the pattern's own PI values (the traditional scan
    /// structure, which has no way to repurpose the PIs during shift).
    pub shift_pi_values: Option<Vec<Logic>>,
    /// Per scan cell (netlist flip-flop order): `Some(value)` when the
    /// pseudo-input is multiplexed to a constant during shift (the proposed
    /// structure), `None` when the rippling scan-cell output drives the
    /// logic directly.
    pub forced_pseudo: Vec<Option<Logic>>,
    /// Whether capture-cycle transitions are added to the counts. The paper
    /// measures power during scan operations only, so this defaults to
    /// `false`.
    pub count_capture: bool,
}

impl ShiftConfig {
    /// Configuration of the traditional scan structure for a circuit with
    /// `flip_flops` scan cells: nothing is forced, the PIs hold the pattern
    /// values.
    #[must_use]
    pub fn traditional(flip_flops: usize) -> ShiftConfig {
        ShiftConfig {
            shift_pi_values: None,
            forced_pseudo: vec![None; flip_flops],
            count_capture: false,
        }
    }

    /// Configuration that drives the primary inputs with a dedicated control
    /// pattern during shift (the input-control technique of Huang & Lee).
    #[must_use]
    pub fn with_pi_control(flip_flops: usize, pi_values: Vec<Logic>) -> ShiftConfig {
        ShiftConfig {
            shift_pi_values: Some(pi_values),
            forced_pseudo: vec![None; flip_flops],
            count_capture: false,
        }
    }
}

/// Which phase of the scan protocol an observed state belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShiftPhase {
    /// A shift cycle: the chain moved by one position.
    Shift,
    /// The capture cycle: the pattern is applied and the response loaded.
    Capture,
}

/// Per-net transition counts accumulated over a scan simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftStats {
    /// Number of test patterns simulated.
    pub patterns: usize,
    /// Number of shift cycles simulated (patterns × chain length).
    pub shift_cycles: usize,
    /// Number of toggles observed on each net, indexed by [`NetId::index`].
    pub toggles: Vec<u64>,
    /// Sum of all per-net toggles.
    pub total_toggles: u64,
}

impl ShiftStats {
    /// Toggle count of one net.
    #[must_use]
    pub fn toggles_of(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// Average toggles per shift cycle across the whole circuit.
    #[must_use]
    pub fn average_toggles_per_cycle(&self) -> f64 {
        if self.shift_cycles == 0 {
            0.0
        } else {
            self.total_toggles as f64 / self.shift_cycles as f64
        }
    }
}

/// Test-per-scan shift simulator.
#[derive(Debug, Clone)]
pub struct ScanShiftSim {
    pi_nets: Vec<NetId>,
    pseudo_nets: Vec<NetId>,
    d_nets: Vec<NetId>,
}

impl ScanShiftSim {
    /// Builds a simulator for `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> ScanShiftSim {
        ScanShiftSim {
            pi_nets: netlist.primary_inputs().to_vec(),
            pseudo_nets: netlist.pseudo_inputs(),
            d_nets: netlist.pseudo_outputs(),
        }
    }

    /// Runs the scan protocol over `patterns` and returns transition counts.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's widths or the configuration's widths do not
    /// match the circuit.
    #[must_use]
    pub fn run(
        &self,
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
    ) -> ShiftStats {
        self.run_with_observer(netlist, patterns, config, |_, _| {})
    }

    /// Runs the scan protocol, handing every visited circuit state (one per
    /// shift cycle, plus the capture states) to `observer`.
    ///
    /// The observer receives the phase and the value of every net
    /// (indexed by [`NetId::index`]) *after* the cycle's changes settled.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's widths or the configuration's widths do not
    /// match the circuit.
    pub fn run_with_observer<F>(
        &self,
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
        mut observer: F,
    ) -> ShiftStats
    where
        F: FnMut(ShiftPhase, &[Logic]),
    {
        let chain_len = self.pseudo_nets.len();
        assert_eq!(
            config.forced_pseudo.len(),
            chain_len,
            "forced_pseudo must have one entry per scan cell"
        );
        if let Some(values) = &config.shift_pi_values {
            assert_eq!(
                values.len(),
                self.pi_nets.len(),
                "shift_pi_values must have one entry per primary input"
            );
        }

        let mut toggles = vec![0u64; netlist.net_count()];
        let mut total: u64 = 0;
        let mut shift_cycles = 0usize;

        // Scan chain contents, reset to all zero before the first pattern.
        let mut chain: Vec<Logic> = vec![Logic::Zero; chain_len];

        // Initial circuit state: first pattern's shift conditions.
        let initial_pi = patterns
            .first()
            .map(|p| self.shift_pi(config, p))
            .unwrap_or_else(|| vec![Logic::Zero; self.pi_nets.len()]);
        let mut inputs = vec![Logic::Zero; self.pi_nets.len() + chain_len];
        inputs[..self.pi_nets.len()].copy_from_slice(&initial_pi);
        for (slot, presented) in inputs[self.pi_nets.len()..]
            .iter_mut()
            .zip(self.presented(config, &chain))
        {
            *slot = presented;
        }
        let mut kernel = SimKernel::<Logic>::new(netlist);
        let mut values = kernel.evaluate(netlist, &inputs).to_vec();
        let mut worklist = kernel.make_worklist();

        for pattern in patterns {
            assert_eq!(pattern.pi.len(), self.pi_nets.len(), "pattern PI width");
            assert_eq!(pattern.scan.len(), chain_len, "pattern scan width");
            let shift_pi = self.shift_pi(config, pattern);

            // Shift the pattern in, one cell per cycle. The bit injected at
            // cycle `c` ends up in cell `chain_len - 1 - c`, so inject in
            // reverse order to land `pattern.scan[i]` in cell `i`.
            for cycle in 0..chain_len {
                let incoming = pattern.scan[chain_len - 1 - cycle];
                for i in (1..chain_len).rev() {
                    chain[i] = chain[i - 1];
                }
                chain[0] = incoming;

                let changes = self
                    .pi_nets
                    .iter()
                    .copied()
                    .zip(shift_pi.iter().copied())
                    .chain(
                        self.pseudo_nets
                            .iter()
                            .copied()
                            .zip(self.presented(config, &chain)),
                    );
                let toggled = apply(&kernel, netlist, &mut values, &mut worklist, changes);
                total += toggled.len() as u64;
                for net in toggled {
                    toggles[net.index()] += 1;
                }
                shift_cycles += 1;
                observer(ShiftPhase::Shift, &values);
            }

            // Capture: multiplexers return to normal mode, the pattern's PI
            // values are applied and the response is loaded into the chain.
            let changes = self
                .pi_nets
                .iter()
                .copied()
                .zip(pattern.pi.iter().copied())
                .chain(self.pseudo_nets.iter().copied().zip(chain.iter().copied()));
            let toggled = apply(&kernel, netlist, &mut values, &mut worklist, changes);
            if config.count_capture {
                total += toggled.len() as u64;
                for net in toggled {
                    toggles[net.index()] += 1;
                }
            }
            observer(ShiftPhase::Capture, &values);

            // The captured response becomes the chain contents that will be
            // shifted out while the next pattern shifts in.
            for (slot, &d) in chain.iter_mut().zip(&self.d_nets) {
                *slot = values[d.index()];
            }
        }

        ShiftStats {
            patterns: patterns.len(),
            shift_cycles,
            toggles,
            total_toggles: total,
        }
    }

    fn shift_pi(&self, config: &ShiftConfig, pattern: &ScanPattern) -> Vec<Logic> {
        config
            .shift_pi_values
            .clone()
            .unwrap_or_else(|| pattern.pi.clone())
    }

    fn presented<'a>(
        &'a self,
        config: &'a ShiftConfig,
        chain: &'a [Logic],
    ) -> impl Iterator<Item = Logic> + 'a {
        chain
            .iter()
            .zip(&config.forced_pseudo)
            .map(|(&cell, forced)| forced.unwrap_or(cell))
    }
}

/// Writes `changes` into the source nets of the settled buffer `values` and
/// re-settles it through the kernel's event-driven
/// [`SimKernel::propagate_from`]. Returns every net whose value changed (the
/// changed sources first), each listed once.
fn apply(
    kernel: &SimKernel<Logic>,
    netlist: &Netlist,
    values: &mut [Logic],
    worklist: &mut DirtyWorklist,
    changes: impl Iterator<Item = (NetId, Logic)>,
) -> Vec<NetId> {
    let mut toggled = Vec::new();
    for (net, value) in changes {
        if values[net.index()] != value {
            values[net.index()] = value;
            toggled.push(net);
            kernel.mark_net_changed(net, worklist);
        }
    }
    kernel.propagate_from(netlist, values, worklist, |net, _, _| toggled.push(net));
    toggled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::random_bool_patterns;
    use scanpower_netlist::{bench, GateKind};

    fn s27() -> Netlist {
        bench::parse(bench::S27_BENCH, "s27").unwrap()
    }

    fn patterns_for(netlist: &Netlist, count: usize, seed: u64) -> Vec<ScanPattern> {
        let pi = netlist.primary_inputs().len();
        let ff = netlist.dff_count();
        random_bool_patterns(pi + ff, count, seed)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect()
    }

    /// Runs [`apply`] on a freshly settled buffer, returning the toggled nets.
    struct Applier {
        kernel: SimKernel<Logic>,
        values: Vec<Logic>,
        worklist: DirtyWorklist,
    }

    impl Applier {
        fn new(netlist: &Netlist, inputs: &[Logic]) -> Applier {
            let mut kernel = SimKernel::<Logic>::new(netlist);
            let values = kernel.evaluate(netlist, inputs).to_vec();
            let worklist = kernel.make_worklist();
            Applier {
                kernel,
                values,
                worklist,
            }
        }

        fn apply(&mut self, netlist: &Netlist, changes: &[(NetId, Logic)]) -> Vec<NetId> {
            apply(
                &self.kernel,
                netlist,
                &mut self.values,
                &mut self.worklist,
                changes.iter().copied(),
            )
        }
    }

    #[test]
    fn incremental_matches_full_evaluation() {
        let n = s27();
        let mut reference = SimKernel::<Logic>::new(&n);
        let inputs = reference.inputs().to_vec();
        let mut current: Vec<Logic> = random_bool_patterns(inputs.len(), 1, 42)[0]
            .iter()
            .copied()
            .map(Logic::from_bool)
            .collect();
        let mut sim = Applier::new(&n, &current);
        for flips in random_bool_patterns(inputs.len(), 200, 43) {
            // Flip a random subset of inputs.
            let mut changes = Vec::new();
            for ((value, &net), flip) in current.iter_mut().zip(&inputs).zip(flips) {
                if flip {
                    *value = value.not();
                    changes.push((net, *value));
                }
            }
            let toggled = sim.apply(&n, &changes);
            let full = reference.evaluate(&n, &current);
            assert_eq!(sim.values, full);
            // Each toggled net is listed once.
            let mut sorted = toggled.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), toggled.len());
        }
    }

    #[test]
    fn toggled_nets_are_exactly_the_differences() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        let h = n.add_gate(GateKind::Not, &[g.output], "h");
        n.mark_output(h.output);
        let mut sim = Applier::new(&n, &[Logic::Zero, Logic::One]);
        // a: 0 -> 1 makes the NAND go 1 -> 0 and the NOT 0 -> 1.
        let toggled = sim.apply(&n, &[(a, Logic::One)]);
        assert_eq!(toggled, vec![a, g.output, h.output]);
        // Applying the same value again toggles nothing.
        let toggled = sim.apply(&n, &[(a, Logic::One)]);
        assert!(toggled.is_empty());
    }

    #[test]
    fn blocked_transition_does_not_propagate() {
        // With one NAND input at the controlling value 0, toggling the other
        // input must not propagate past the gate — this is precisely the
        // blocking effect the paper's method engineers.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let mut sim = Applier::new(&n, &[Logic::Zero, Logic::Zero]);
        let toggled = sim.apply(&n, &[(b, Logic::One)]);
        assert_eq!(toggled, vec![b]);
    }

    #[test]
    fn shift_cycle_count_is_patterns_times_chain_length() {
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let patterns = patterns_for(&n, 5, 1);
        let stats = sim.run(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
        assert_eq!(stats.patterns, 5);
        assert_eq!(stats.shift_cycles, 5 * n.dff_count());
        assert!(stats.total_toggles > 0);
    }

    #[test]
    fn forcing_all_pseudo_inputs_blocks_combinational_activity() {
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let patterns = patterns_for(&n, 8, 2);

        let traditional = sim.run(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));

        // Force every pseudo-input to 0 and hold the PIs constant: the only
        // activity left during shift is on the forced nets themselves (none)
        // — the combinational part must be completely quiet.
        let frozen = ShiftConfig {
            shift_pi_values: Some(vec![Logic::Zero; n.primary_inputs().len()]),
            forced_pseudo: vec![Some(Logic::Zero); n.dff_count()],
            count_capture: false,
        };
        let quiet = sim.run(&n, &patterns, &frozen);
        assert!(quiet.total_toggles < traditional.total_toggles);
        // During shift the combinational part only moves when the circuit
        // re-enters scan mode after a capture: at most one toggle per gate
        // per pattern, instead of up to one per shift cycle.
        for gate in n.gates() {
            assert!(
                quiet.toggles_of(gate.output) <= patterns.len() as u64,
                "gate output toggled more than once per pattern"
            );
        }
    }

    #[test]
    fn observer_sees_every_cycle() {
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let patterns = patterns_for(&n, 3, 3);
        let mut shift_states = 0usize;
        let mut capture_states = 0usize;
        sim.run_with_observer(
            &n,
            &patterns,
            &ShiftConfig::traditional(n.dff_count()),
            |phase, values| {
                assert_eq!(values.len(), n.net_count());
                match phase {
                    ShiftPhase::Shift => shift_states += 1,
                    ShiftPhase::Capture => capture_states += 1,
                }
            },
        );
        assert_eq!(shift_states, 3 * n.dff_count());
        assert_eq!(capture_states, 3);
    }

    #[test]
    fn scanned_vector_lands_in_the_chain_in_order() {
        // After shifting one pattern, the captured state must be the
        // response to (pattern.pi, pattern.scan), which requires the scan
        // bits to land in the right cells.
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let pattern = ScanPattern::from_bools(&[true, false, true, false], &[true, false, true]);
        let mut last_capture: Vec<Logic> = Vec::new();
        sim.run_with_observer(
            &n,
            std::slice::from_ref(&pattern),
            &ShiftConfig::traditional(n.dff_count()),
            |phase, values| {
                if phase == ShiftPhase::Capture {
                    last_capture = values.to_vec();
                }
            },
        );
        // Reference: evaluate the combinational part directly.
        let mut kernel = SimKernel::<Logic>::new(&n);
        let mut inputs = pattern.pi.clone();
        inputs.extend(pattern.scan.iter().copied());
        let reference = kernel.evaluate(&n, &inputs);
        for &po in n.primary_outputs() {
            assert_eq!(last_capture[po.index()], reference[po.index()]);
        }
    }

    #[test]
    fn average_toggles_per_cycle_is_zero_for_empty_pattern_set() {
        // An empty pattern set simulates zero shift cycles; the average must
        // be a clean 0.0, not the NaN a bare division would produce.
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let stats = sim.run(&n, &[], &ShiftConfig::traditional(n.dff_count()));
        assert_eq!(stats.patterns, 0);
        assert_eq!(stats.shift_cycles, 0);
        assert_eq!(stats.average_toggles_per_cycle(), 0.0);
        assert!(!stats.average_toggles_per_cycle().is_nan());
    }

    #[test]
    fn capture_toggles_only_counted_when_requested() {
        let n = s27();
        let sim = ScanShiftSim::new(&n);
        let patterns = patterns_for(&n, 4, 7);
        let without = sim.run(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
        let mut config = ShiftConfig::traditional(n.dff_count());
        config.count_capture = true;
        let with = sim.run(&n, &patterns, &config);
        assert!(with.total_toggles >= without.total_toggles);
    }
}
