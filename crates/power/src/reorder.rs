//! Leakage-driven gate input reordering.
//!
//! The leakage of a cell depends not only on *how many* of its inputs carry
//! the controlling value but also on *which pins* carry it (Figure 2: a
//! NAND2 leaks 73 nA in the "01" state but 264 nA in "10"). For symmetric
//! gates (NAND, NOR, AND, OR, XOR, XNOR) the input pins can be permuted
//! without changing the logic function, so once the scan-mode circuit state
//! is known the pins can be rewired so that each gate sits in its cheapest
//! equivalent state. The paper applies this globally as the last step of the
//! proposed flow.

use serde::{Deserialize, Serialize};

use scanpower_netlist::{GateId, GateKind, Netlist};
use scanpower_sim::Logic;

use crate::leakage::LeakageLibrary;

/// Outcome of the reordering pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReorderReport {
    /// Number of gates whose pins were permuted.
    pub gates_changed: usize,
    /// Total leakage of the reordered gates before the pass (nA), evaluated
    /// in the supplied circuit state.
    pub leakage_before_na: f64,
    /// Total leakage of the reordered gates after the pass (nA).
    pub leakage_after_na: f64,
}

impl ReorderReport {
    /// Leakage saved by the pass (nA).
    #[must_use]
    pub fn saved_na(&self) -> f64 {
        self.leakage_before_na - self.leakage_after_na
    }
}

/// Returns `true` for gates whose inputs may be freely permuted.
#[must_use]
pub fn is_symmetric(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

/// Permutes the inputs of every symmetric gate so that, in the circuit state
/// described by `values` (one [`Logic`] per net — typically the scan-mode
/// state produced by the chosen controlled-input pattern), each gate sits in
/// its minimum-leakage equivalent input state.
///
/// Gates with any unknown input are left untouched. The netlist is modified
/// in place; the logic function of the circuit is unchanged because only
/// symmetric gates are touched.
pub fn optimize(
    netlist: &mut Netlist,
    library: &LeakageLibrary,
    values: &[Logic],
) -> ReorderReport {
    let mut report = ReorderReport {
        gates_changed: 0,
        leakage_before_na: 0.0,
        leakage_after_na: 0.0,
    };
    let gate_ids: Vec<GateId> = netlist.gate_ids().collect();
    for gate_id in gate_ids {
        let (kind, fanin) = {
            let gate = netlist.gate(gate_id);
            (gate.kind, gate.fanin())
        };
        if !is_symmetric(kind) || fanin < 2 {
            continue;
        }
        // Current per-pin values; skip gates with unknown inputs.
        let mut pin_values: Vec<bool> = Vec::with_capacity(fanin);
        let mut fully_known = true;
        for &input in &netlist.gate(gate_id).inputs {
            match values[input.index()] {
                Logic::One => pin_values.push(true),
                Logic::Zero => pin_values.push(false),
                Logic::X => {
                    fully_known = false;
                    break;
                }
            }
        }
        if !fully_known {
            continue;
        }
        let current_state = pack(&pin_values);
        let current_leakage = library.gate_leakage(kind, fanin, current_state);

        // Best achievable state with the same multiset of input values.
        let ones = pin_values.iter().filter(|&&v| v).count();
        let (best_state, best_leakage) = best_state_with_ones(library, kind, fanin, ones);
        report.leakage_before_na += current_leakage;
        if best_leakage + 1e-12 >= current_leakage {
            report.leakage_after_na += current_leakage;
            continue;
        }

        // Realise `best_state` by swapping pins greedily.
        let mut arrangement = pin_values.clone();
        for pin in 0..fanin {
            let wanted = (best_state >> pin) & 1 == 1;
            if arrangement[pin] == wanted {
                continue;
            }
            if let Some(donor) = (pin + 1..fanin).find(|&j| arrangement[j] == wanted) {
                arrangement.swap(pin, donor);
                netlist.swap_gate_inputs(gate_id, pin, donor);
            }
        }
        debug_assert_eq!(pack(&arrangement), best_state);
        report.gates_changed += 1;
        report.leakage_after_na += best_leakage;
    }
    report
}

fn pack(bits: &[bool]) -> u32 {
    bits.iter()
        .enumerate()
        .fold(0u32, |acc, (i, &b)| acc | (u32::from(b) << i))
}

fn best_state_with_ones(
    library: &LeakageLibrary,
    kind: GateKind,
    fanin: usize,
    ones: usize,
) -> (u32, f64) {
    let mut best = (0u32, f64::INFINITY);
    for state in 0..(1u32 << fanin) {
        if state.count_ones() as usize != ones {
            continue;
        }
        let leakage = library.gate_leakage(kind, fanin, state);
        if leakage < best.1 {
            best = (state, leakage);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{GateKind, Netlist};
    use scanpower_sim::{Logic, SimKernel};

    #[test]
    fn nand_in_expensive_state_gets_rewired() {
        // a=1, b=0: NAND2 state "10" (264 nA) should be rewired to "01"
        // (73 nA) by swapping the pins.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let mut ev = SimKernel::<Logic>::new(&n);
        let values = ev.evaluate(&n, &[Logic::One, Logic::Zero]);
        let report = optimize(&mut n, &library, values);
        assert_eq!(report.gates_changed, 1);
        assert!(report.saved_na() > 100.0);
        assert_eq!(n.gate(g.gate).inputs, vec![b, a]);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn gate_already_in_best_state_is_untouched() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let mut ev = SimKernel::<Logic>::new(&n);
        // a=0, b=1 is already the cheapest NAND2 state with one 1.
        let values = ev.evaluate(&n, &[Logic::Zero, Logic::One]);
        let report = optimize(&mut n, &library, values);
        assert_eq!(report.gates_changed, 0);
        assert_eq!(n.gate(g.gate).inputs, vec![a, b]);
    }

    #[test]
    fn unknown_inputs_prevent_reordering() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let mut values = vec![Logic::X; n.net_count()];
        values[a.index()] = Logic::One;
        let report = optimize(&mut n, &library, &values);
        assert_eq!(report.gates_changed, 0);
        assert_eq!(n.gate(g.gate).inputs, vec![a, b]);
    }

    #[test]
    fn reordering_preserves_logic_function() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::Nand, &[a, b, c], "g1");
        let g2 = n.add_gate(GateKind::Nor, &[g1.output, c], "g2");
        n.mark_output(g2.output);
        let library = LeakageLibrary::cmos45();
        let mut ev = SimKernel::<Logic>::new(&n);
        let reference: Vec<Vec<Logic>> = (0..8u32)
            .map(|bits| {
                let inputs: Vec<Logic> = (0..3)
                    .map(|i| Logic::from_bool((bits >> i) & 1 == 1))
                    .collect();
                ev.evaluate(&n, &inputs).to_vec()
            })
            .collect();

        let values = ev.evaluate(&n, &[Logic::One, Logic::Zero, Logic::One]);
        optimize(&mut n, &library, values);
        assert!(n.validate().is_ok());

        let mut ev_after = SimKernel::<Logic>::new(&n);
        for bits in 0..8u32 {
            let inputs: Vec<Logic> = (0..3)
                .map(|i| Logic::from_bool((bits >> i) & 1 == 1))
                .collect();
            let after = ev_after.evaluate(&n, &inputs);
            assert_eq!(
                after[g2.output.index()],
                reference[bits as usize][g2.output.index()]
            );
        }
    }

    #[test]
    fn mux_and_inverter_are_never_reordered() {
        assert!(!is_symmetric(GateKind::Mux));
        assert!(!is_symmetric(GateKind::Not));
        assert!(!is_symmetric(GateKind::Buf));
        assert!(is_symmetric(GateKind::Nand));
        assert!(is_symmetric(GateKind::Nor));
    }
}
