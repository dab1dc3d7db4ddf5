//! Dataflow analyses: ternary constant propagation and X-reachability,
//! exported as [`LintFacts`] bitsets the power observer consumes.
//!
//! # Soundness of the constant facts
//!
//! The analysis evaluates the netlist once under the three-valued kernel with
//! every unconstrained input set to `X` (and every held/forced input set to
//! its configured value). Ternary evaluation is *monotone*: refining an `X`
//! input to a concrete `0`/`1` can only refine outputs, never flip a known
//! output. During replay every lane's inputs are exactly such a refinement of
//! the analysis assumption — held PIs and forced pseudo-inputs carry the same
//! splatted value the analysis used, and everything the analysis called `X`
//! carries some concrete pattern bit. Therefore any net the analysis settles
//! to `0`/`1` holds that value in **every lane of every shift cycle**, and a
//! gate whose inputs are all settled ("static") always contributes the same
//! leakage row. That is what lets `PackedShiftLeakage` skip static gates
//! without changing a single bit of the accumulated average.

use scanpower_netlist::{GateId, NetDriver, NetId, Netlist};
use scanpower_sim::scan::ShiftConfig;
use scanpower_sim::{Logic, SimKernel};

/// Bitset facts produced by the dataflow analyses.
///
/// All bitsets are indexed by `NetId::index()` / `GateId::index()` and stored
/// as packed `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFacts {
    net_count: usize,
    gate_count: usize,
    /// Settled ternary value of every net under the analysis assumption.
    values: Vec<Logic>,
    /// Nets provably `0` for every pattern.
    const0: Vec<u64>,
    /// Nets provably `1` for every pattern.
    const1: Vec<u64>,
    /// Nets that can ever carry an `X` (given the undriven nets and any
    /// explicitly-X held/forced inputs).
    maybe_x: Vec<u64>,
    /// Gates whose every input is provably constant.
    static_gates: Vec<u64>,
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
    #[must_use]
    pub fn analyze(netlist: &Netlist) -> LintFacts {
        LintFacts::analyze_with_inputs(netlist, None, &vec![None; netlist.dff_count()])
    }

    /// Analyzes `netlist` under the shift-phase input assumption of `config`:
    /// primary inputs held at `config.shift_pi_values` (or unconstrained),
    /// pseudo-inputs forced per `config.forced_pseudo` (or unconstrained).
    ///
    /// This mirrors exactly what the packed replay applies during shift
    /// cycles, so the resulting static-gate set is valid for every lane of
    /// every shift cycle of that configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.forced_pseudo` does not match the flip-flop count,
    /// if `config.shift_pi_values` does not match the primary-input count, or
    /// if the combinational part of `netlist` is cyclic.
    #[must_use]
    pub fn analyze_shift(netlist: &Netlist, config: &ShiftConfig) -> LintFacts {
        assert_eq!(
            config.forced_pseudo.len(),
            netlist.dff_count(),
            "forced_pseudo length must match the flip-flop count"
        );
        LintFacts::analyze_with_inputs(
            netlist,
            config.shift_pi_values.as_deref(),
            &config.forced_pseudo,
        )
    }

    fn analyze_with_inputs(
        netlist: &Netlist,
        pi_values: Option<&[Logic]>,
        forced_pseudo: &[Option<Logic>],
    ) -> LintFacts {
        if let Some(pi) = pi_values {
            assert_eq!(
                pi.len(),
                netlist.primary_inputs().len(),
                "held PI vector length must match the primary-input count"
            );
        }

        // Desired value per input net; everything else starts at X.
        let mut desired = vec![Logic::X; netlist.net_count()];
        if let Some(pi) = pi_values {
            for (&net, &value) in netlist.primary_inputs().iter().zip(pi) {
                desired[net.index()] = value;
            }
        }
        for (dff, forced) in netlist.dffs().iter().zip(forced_pseudo) {
            if let Some(value) = forced {
                desired[dff.q.index()] = *value;
            }
        }

        let mut kernel = SimKernel::<Logic>::new(netlist);
        let inputs: Vec<Logic> = kernel
            .inputs()
            .iter()
            .map(|&net| desired[net.index()])
            .collect();
        let values = kernel.evaluate(netlist, &inputs).to_vec();

        let words = net_words(netlist.net_count());
        let mut const0 = vec![0u64; words];
        let mut const1 = vec![0u64; words];
        for (index, value) in values.iter().enumerate() {
            match value {
                Logic::Zero => set_bit(&mut const0, index),
                Logic::One => set_bit(&mut const1, index),
                Logic::X => {}
            }
        }

        let maybe_x = x_reachability(netlist, &values, pi_values, forced_pseudo);

        let mut static_gates = vec![0u64; net_words(netlist.gate_count())];
        for gate_id in netlist.gate_ids() {
            let gate = netlist.gate(gate_id);
            if gate
                .inputs
                .iter()
                .all(|&input| values[input.index()].is_known())
            {
                set_bit(&mut static_gates, gate_id.index());
            }
        }

        LintFacts {
            net_count: netlist.net_count(),
            gate_count: netlist.gate_count(),
            values,
            const0,
            const1,
            maybe_x,
            static_gates,
        }
    }

    /// Number of nets the facts were computed for.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of gates the facts were computed for.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// The settled ternary value of every net (indexed by `NetId::index()`).
    #[must_use]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// The provable constant value of `net`, if any.
    #[must_use]
    pub fn net_constant(&self, net: NetId) -> Option<Logic> {
        match self.values[net.index()] {
            Logic::X => None,
            known => Some(known),
        }
    }

    /// True if `net` can ever carry an `X`.
    #[must_use]
    pub fn net_can_be_x(&self, net: NetId) -> bool {
        get_bit(&self.maybe_x, net.index())
    }

    /// True if every input of `gate` is provably constant — its leakage
    /// contribution is the same in every lane of every shift cycle.
    #[must_use]
    pub fn is_static_gate(&self, gate: GateId) -> bool {
        get_bit(&self.static_gates, gate.index())
    }

    /// Number of provably-constant nets.
    #[must_use]
    pub fn constant_net_count(&self) -> usize {
        count_bits(&self.const0) + count_bits(&self.const1)
    }

    /// Number of X-capable nets.
    #[must_use]
    pub fn x_capable_net_count(&self) -> usize {
        count_bits(&self.maybe_x)
    }

    /// Number of static gates.
    #[must_use]
    pub fn static_gate_count(&self) -> usize {
        count_bits(&self.static_gates)
    }
}

/// Which nets can ever carry an `X`?
///
/// In a concrete simulation every pattern bit is `0`/`1`, so `X` can only
/// *enter* through undriven nets and through inputs explicitly held/forced to
/// `X`. From those sources it propagates forward through gates (unless the
/// gate output is provably constant — a constant masks any X on the other
/// pins) and circulates through the scan chain: an X captured at any D pin
/// can be shifted to any unforced scan cell, so one X-capable D pin makes
/// every unforced Q net X-capable.
fn x_reachability(
    netlist: &Netlist,
    values: &[Logic],
    pi_values: Option<&[Logic]>,
    forced_pseudo: &[Option<Logic>],
) -> Vec<u64> {
    let mut capable = vec![false; netlist.net_count()];
    for id in netlist.net_ids() {
        if matches!(netlist.net(id).driver, NetDriver::None) {
            capable[id.index()] = true;
        }
    }
    if let Some(pi) = pi_values {
        for (&net, &value) in netlist.primary_inputs().iter().zip(pi) {
            if value == Logic::X {
                capable[net.index()] = true;
            }
        }
    }
    for (dff, forced) in netlist.dffs().iter().zip(forced_pseudo) {
        if *forced == Some(Logic::X) {
            capable[dff.q.index()] = true;
        }
    }

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
        let any_d_capable = netlist.dffs().iter().any(|dff| capable[dff.d.index()]);
        if any_d_capable {
            for (dff, forced) in netlist.dffs().iter().zip(forced_pseudo) {
                let q = dff.q.index();
                if forced.is_none() && !capable[q] && !values[q].is_known() {
                    capable[q] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut words = vec![0u64; net_words(netlist.net_count())];
    for (index, &flag) in capable.iter().enumerate() {
        if flag {
            set_bit(&mut words, index);
        }
    }
    words
}

fn net_words(count: usize) -> usize {
    count.div_ceil(64)
}

fn set_bit(words: &mut [u64], index: usize) {
    words[index / 64] |= 1 << (index % 64);
}

fn get_bit(words: &[u64], index: usize) -> bool {
    (words[index / 64] >> (index % 64)) & 1 == 1
}

fn count_bits(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
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
        assert_eq!(facts.static_gate_count(), 0);
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
        // AND(a, 0) and OR(a, 1) have a non-constant input: not static.
        // CONST0 and NOT(c0) are static.
        assert_eq!(facts.static_gate_count(), 2);
    }

    #[test]
    fn shift_forcing_creates_static_cones() {
        // s27 with every scan cell forced to 0 and all PIs held: the whole
        // combinational part becomes static.
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut config = ShiftConfig::with_pi_control(
            n.dff_count(),
            vec![Logic::Zero; n.primary_inputs().len()],
        );
        for forced in &mut config.forced_pseudo {
            *forced = Some(Logic::Zero);
        }
        let facts = LintFacts::analyze_shift(&n, &config);
        assert_eq!(facts.static_gate_count(), n.gate_count());
        assert_eq!(facts.constant_net_count(), n.net_count());
    }

    #[test]
    fn partial_forcing_is_partially_static() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut config = ShiftConfig::traditional(n.dff_count());
        config.forced_pseudo[0] = Some(Logic::Zero);
        let facts = LintFacts::analyze_shift(&n, &config);
        assert!(facts.static_gate_count() < n.gate_count());
        // Monotone: forcing more inputs can only grow the static set.
        let mut more = config.clone();
        more.forced_pseudo[1] = Some(Logic::One);
        let more_facts = LintFacts::analyze_shift(&n, &more);
        assert!(more_facts.static_gate_count() >= facts.static_gate_count());
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
    fn forced_x_reaches_the_chain_but_constants_mask() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut config = ShiftConfig::traditional(n.dff_count());
        config.forced_pseudo[0] = Some(Logic::X);
        let facts = LintFacts::analyze_shift(&n, &config);
        assert!(facts.x_capable_net_count() > 0);
        // The forced cell's own Q is an X source.
        assert!(facts.net_can_be_x(n.dffs()[0].q));
    }
}
