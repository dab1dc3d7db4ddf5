//! Dataflow analyses behind `lint_netlist`'s notes: ternary constant
//! propagation (SPL010) and X-reachability (SPL011).

use scanpower_netlist::{NetDriver, NetId, Netlist};
use scanpower_sim::{Logic, SimKernel};

/// Per-net facts produced by the dataflow analyses, indexed by
/// `NetId::index()`.
#[derive(Debug)]
pub(crate) struct LintFacts {
    /// Settled ternary value of every net with every input unconstrained.
    values: Vec<Logic>,
    /// Nets that can ever carry an `X`.
    maybe_x: Vec<bool>,
}

impl LintFacts {
    /// Analyzes `netlist` with every primary and pseudo input unconstrained.
    ///
    /// Constants can then only originate from `CONST0`/`CONST1` gates (and
    /// logic that masks its inputs, e.g. `AND(x, 0)` cones).
    ///
    /// # Panics
    ///
    /// Panics if the combinational part of `netlist` is cyclic; run the
    /// structural cycle check first (as [`crate::lint_netlist`] does).
    pub(crate) fn analyze(netlist: &Netlist) -> LintFacts {
        let mut kernel = SimKernel::<Logic>::new(netlist);
        let inputs = vec![Logic::X; kernel.inputs().len()];
        let values = kernel.evaluate(netlist, &inputs).to_vec();
        let maybe_x = x_reachability(netlist, &values);
        LintFacts { values, maybe_x }
    }

    /// The provable constant value of `net`, if any.
    pub(crate) fn net_constant(&self, net: NetId) -> Option<Logic> {
        match self.values[net.index()] {
            Logic::X => None,
            known => Some(known),
        }
    }

    /// Number of X-capable nets.
    pub(crate) fn x_capable_net_count(&self) -> usize {
        self.maybe_x.iter().filter(|&&capable| capable).count()
    }

    /// True if `net` can ever carry an `X`.
    #[cfg(test)]
    fn net_can_be_x(&self, net: NetId) -> bool {
        self.maybe_x[net.index()]
    }

    /// Number of provably-constant nets.
    #[cfg(test)]
    fn constant_net_count(&self) -> usize {
        self.values.iter().filter(|value| value.is_known()).count()
    }
}

/// Which nets can ever carry an `X`?
///
/// In a concrete simulation every pattern bit is `0`/`1`, so `X` can only
/// *enter* through undriven nets. From those sources it propagates forward
/// through gates (unless the gate output is provably constant — a constant
/// masks any X on the other pins) and circulates through the scan chain: an
/// X captured at any D pin can be shifted to any scan cell, so one
/// X-capable D pin makes every Q net X-capable.
fn x_reachability(netlist: &Netlist, values: &[Logic]) -> Vec<bool> {
    let mut capable: Vec<bool> = netlist
        .net_ids()
        .map(|id| matches!(netlist.net(id).driver, NetDriver::None))
        .collect();

    // Fixpoint over gate propagation plus the scan-chain coupling. Monotone
    // over a finite set, so this terminates; the loop count is bounded by the
    // sequential depth, which is tiny for full-scan circuits.
    loop {
        let mut changed = false;
        for gate_id in netlist.gate_ids() {
            let gate = netlist.gate(gate_id);
            let out = gate.output.index();
            if capable[out] || values[out].is_known() {
                continue;
            }
            if gate.inputs.iter().any(|&input| capable[input.index()]) {
                capable[out] = true;
                changed = true;
            }
        }
        if netlist.dffs().iter().any(|dff| capable[dff.d.index()]) {
            for dff in netlist.dffs() {
                if !capable[dff.q.index()] {
                    capable[dff.q.index()] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    capable
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::bench;
    use scanpower_netlist::GateKind;

    #[test]
    fn unconstrained_s27_has_no_constants_and_no_x_sources() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let facts = LintFacts::analyze(&n);
        assert_eq!(facts.constant_net_count(), 0);
        // Fully driven netlist with binary patterns: nothing can be X.
        assert_eq!(facts.x_capable_net_count(), 0);
    }

    #[test]
    fn tied_constants_propagate_and_mask() {
        // c0 = CONST0; m = AND(a, c0) is provably 0; n = OR(a, NOT(c0)) is 1.
        let mut n = Netlist::new("tied");
        let a = n.add_input("a");
        let c0 = n.add_gate(GateKind::Const0, &[], "c0").output;
        let m = n.add_gate(GateKind::And, &[a, c0], "m").output;
        let inv = n.add_gate(GateKind::Not, &[c0], "inv").output;
        let o = n.add_gate(GateKind::Or, &[a, inv], "o").output;
        n.mark_output(m);
        n.mark_output(o);
        let facts = LintFacts::analyze(&n);
        assert_eq!(facts.net_constant(m), Some(Logic::Zero));
        assert_eq!(facts.net_constant(inv), Some(Logic::One));
        assert_eq!(facts.net_constant(o), Some(Logic::One));
        assert_eq!(facts.net_constant(a), None);
        assert_eq!(facts.constant_net_count(), 4);
    }

    #[test]
    fn undriven_nets_are_x_sources() {
        let mut n = Netlist::new("floating");
        let a = n.add_input("a");
        let hole = n.ensure_net("hole");
        let g = n.add_gate(GateKind::And, &[a, hole], "g").output;
        n.mark_output(g);
        let facts = LintFacts::analyze(&n);
        assert!(facts.net_can_be_x(hole));
        assert!(facts.net_can_be_x(g));
        assert!(!facts.net_can_be_x(a));
    }

    #[test]
    fn undriven_x_reaches_the_chain_but_constants_mask() {
        // An undriven net reaches the D pin of `q1`; the chain then shifts
        // that X into every cell, `q2` included, although `q2`'s own D pin
        // reads only the primary input. AND(q2, 0) stays provably 0.
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let hole = n.ensure_net("hole");
        let d1 = n.add_gate(GateKind::Or, &[a, hole], "d1").output;
        let q1 = n.add_dff(d1, "q1");
        let q2 = n.add_dff(a, "q2");
        let c0 = n.add_gate(GateKind::Const0, &[], "c0").output;
        let masked = n.add_gate(GateKind::And, &[q2, c0], "masked").output;
        let o = n.add_gate(GateKind::Xor, &[q1, q2], "o").output;
        n.mark_output(masked);
        n.mark_output(o);
        let facts = LintFacts::analyze(&n);
        assert!(facts.net_can_be_x(d1));
        assert!(facts.net_can_be_x(q1));
        assert!(facts.net_can_be_x(q2), "X circulates through the chain");
        assert!(facts.net_can_be_x(o));
        assert!(!facts.net_can_be_x(a));
        assert!(!facts.net_can_be_x(masked), "a constant masks the X");
        assert_eq!(facts.net_constant(masked), Some(Logic::Zero));
    }
}
