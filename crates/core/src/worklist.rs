use std::collections::BTreeSet;

use scanpower_netlist::{Gate, GateId, GateKind, NetId, Netlist};
use scanpower_sim::Logic;

/// The Transition Node Set / Transition Gate Set worklist of the paper.
///
/// A *transition node* (tn) is a line that may still carry transitions
/// originating from the non-multiplexed scan cells under the current partial
/// assignment of the controlled inputs. A *transition gate* (tg) is a gate
/// fed by a transition node whose output is not yet decided: it may still be
/// blocked by putting a controlling value on one of its other inputs.
///
/// [`TransitionWorklist::update`] implements the paper's `Update TNS, TGS`
/// procedure: transitions are forwarded unconditionally through inverters,
/// buffers, XOR/XNOR gates and fanout; a gate with a controlling value on
/// any side input blocks the transition; a gate whose side inputs are all at
/// non-controlling values propagates the transition to its output; anything
/// else stays in the TGS as a blocking opportunity.
#[derive(Debug, Clone)]
pub struct TransitionWorklist {
    transition_nodes: BTreeSet<NetId>,
    transition_gates: BTreeSet<GateId>,
    /// The values the pending edges were last classified under.
    snapshot: Vec<Logic>,
    /// Per net: whether it is in `transition_nodes`.
    is_node: Vec<bool>,
    /// Per gate pin: whether the transition node on it has a pending edge
    /// into the gate. Pin `p` of gate `g` is `pending[pin_start[g] + p]`.
    pending: Vec<bool>,
    pin_start: Vec<u32>,
    /// Transition nodes added since the last update, whose load edges are
    /// not classified yet.
    added: Vec<NetId>,
    /// Gates whose TGS membership the next update re-checks.
    touched: Vec<GateId>,
}

impl TransitionWorklist {
    /// Initialises the worklist with the given transition sources (the
    /// non-multiplexed pseudo-inputs) and performs the first update.
    #[must_use]
    pub fn new(netlist: &Netlist, sources: &[NetId], values: &[Logic]) -> TransitionWorklist {
        let mut pin_start = Vec::with_capacity(netlist.gate_count() + 1);
        let mut pins = 0;
        for gate in netlist.gate_ids() {
            pin_start.push(pins);
            pins += netlist.gate(gate).inputs.len() as u32;
        }
        pin_start.push(pins);
        let mut worklist = TransitionWorklist {
            transition_nodes: BTreeSet::new(),
            transition_gates: BTreeSet::new(),
            snapshot: values.to_vec(),
            is_node: vec![false; netlist.net_count()],
            pending: vec![false; pins as usize],
            pin_start,
            added: Vec::new(),
            touched: Vec::new(),
        };
        worklist.add_nodes(netlist, sources, values);
        worklist
    }

    /// The current transition node set.
    #[must_use]
    pub fn transition_nodes(&self) -> &BTreeSet<NetId> {
        &self.transition_nodes
    }

    /// The current transition gate set.
    #[must_use]
    pub fn transition_gates(&self) -> &BTreeSet<GateId> {
        &self.transition_gates
    }

    /// `true` when no blockable transition gate remains.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.transition_gates.is_empty()
    }

    /// Adds new transition nodes (the fan-out of a gate whose transition
    /// could not be blocked) and re-runs the update.
    pub fn add_nodes(&mut self, netlist: &Netlist, nodes: &[NetId], values: &[Logic]) {
        for &node in nodes {
            self.add_node(netlist, node);
        }
        self.update(netlist, values);
    }

    /// Re-checks a gate's TGS membership once its transition has been
    /// blocked, and re-runs the update with the latest values.
    pub fn resolve_gate(&mut self, netlist: &Netlist, gate: GateId, values: &[Logic]) {
        self.touched.push(gate);
        self.update(netlist, values);
    }

    /// The paper's `Update TNS, TGS` procedure, proportional to what changed
    /// since the previous update.
    ///
    /// The TNS is the transitive closure of transition propagation under the
    /// current values. The TGS is the gates reached by a *pending* edge
    /// (neither blocked nor propagating: a don't-care side input is still
    /// there to exploit) whose output is not a transition node. Between
    /// updates transition nodes are only added and values only go from X to
    /// known (a failed justification restores them), so a blocked or
    /// propagating edge never changes class. An update therefore diffs the
    /// values against the previous ones, re-classifies only the pending
    /// edges of the gates reading a changed net, classifies the load edges
    /// of the new transition nodes, and re-checks TGS membership only for
    /// the gates it touched. The result equals the full closure.
    pub fn update(&mut self, netlist: &Netlist, values: &[Logic]) {
        #[cfg(test)]
        let expected = tests::full_closure(netlist, &self.transition_nodes, values);
        for index in 0..values.len() {
            let (old, new) = (self.snapshot[index], values[index]);
            if old == new {
                continue;
            }
            debug_assert_eq!(old, Logic::X, "net {index}: values only go from X to known");
            self.snapshot[index] = new;
            for &(gate_id, _) in netlist.loads(NetId::from_index(index)) {
                let gate = netlist.gate(gate_id);
                let start = self.pin_start[gate_id.index()] as usize;
                let mut reclassified = false;
                for pin in 0..gate.inputs.len() {
                    if !self.pending[start + pin] {
                        continue;
                    }
                    reclassified = true;
                    match classify_edge(gate, pin, values) {
                        Edge::Pending => {}
                        Edge::Blocked => self.pending[start + pin] = false,
                        Edge::Propagates => {
                            self.pending[start + pin] = false;
                            self.add_node(netlist, gate.output);
                        }
                    }
                }
                if reclassified {
                    self.touched.push(gate_id);
                }
            }
        }
        while let Some(tn) = self.added.pop() {
            for &(gate_id, pin) in netlist.loads(tn) {
                let gate = netlist.gate(gate_id);
                match classify_edge(gate, pin, values) {
                    Edge::Propagates => self.add_node(netlist, gate.output),
                    Edge::Pending => {
                        self.pending[self.pin_start[gate_id.index()] as usize + pin] = true;
                        self.touched.push(gate_id);
                    }
                    Edge::Blocked => {}
                }
            }
        }
        for gate_id in std::mem::take(&mut self.touched) {
            let start = self.pin_start[gate_id.index()] as usize;
            let end = self.pin_start[gate_id.index() + 1] as usize;
            if self.pending[start..end].contains(&true)
                && !self.is_node[netlist.gate(gate_id).output.index()]
            {
                self.transition_gates.insert(gate_id);
            } else {
                self.transition_gates.remove(&gate_id);
            }
        }
        #[cfg(test)]
        tests::check_against(self, expected);
    }

    /// Makes `net` a transition node, queued for the next update; the gate
    /// driving it leaves the TGS there.
    fn add_node(&mut self, netlist: &Netlist, net: NetId) {
        if std::mem::replace(&mut self.is_node[net.index()], true) {
            return;
        }
        self.transition_nodes.insert(net);
        self.added.push(net);
        if let Some(gate) = netlist.driver_gate(net) {
            self.touched.push(gate);
        }
    }

    /// Picks the transition gate with the largest output load capacitance
    /// (`mc_tg` in the paper) together with one of the transition nodes
    /// feeding it (`mc_tn`). `output_load` holds every gate's output load,
    /// indexed by [`GateId::index`].
    #[must_use]
    pub fn most_capacitive_gate(
        &self,
        netlist: &Netlist,
        output_load: &[f64],
    ) -> Option<(GateId, NetId)> {
        let gate = self
            .transition_gates
            .iter()
            .copied()
            .max_by(|&a, &b| output_load[a.index()].total_cmp(&output_load[b.index()]))?;
        let tn = netlist
            .gate(gate)
            .inputs
            .iter()
            .copied()
            .find(|n| self.is_node[n.index()])?;
        Some((gate, tn))
    }
}

/// What a transition on one gate input does under the current values.
enum Edge {
    /// The transition reaches the gate output.
    Propagates,
    /// A side input carries the gate's controlling value.
    Blocked,
    /// No side input is controlling, but one is still unknown: the gate
    /// is a blocking opportunity.
    Pending,
}

/// Classifies the transition entering `gate` on input `pin`: inverters,
/// buffers, XOR/XNOR gates and multiplexers always propagate it; any other
/// gate blocks it when a side input carries the controlling value,
/// propagates it when every side input is known and non-controlling, and
/// leaves it pending otherwise.
fn classify_edge(gate: &Gate, pin: usize, values: &[Logic]) -> Edge {
    if gate.kind.always_propagates() || gate.kind == GateKind::Mux {
        return Edge::Propagates;
    }
    let Some(controlling) = gate.kind.controlling_value() else {
        // Constants have no inputs, so no transition enters them.
        return Edge::Blocked;
    };
    let controlling = Logic::from_bool(controlling);
    let mut unknown_side = false;
    for (i, &input) in gate.inputs.iter().enumerate() {
        if i == pin {
            continue;
        }
        let value = values[input.index()];
        if value == controlling {
            return Edge::Blocked;
        }
        unknown_side |= !value.is_known();
    }
    if unknown_side {
        Edge::Pending
    } else {
        Edge::Propagates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{GateKind, Netlist};
    use scanpower_sim::SimKernel;
    use scanpower_timing::CapacitanceModel;
    use std::cell::Cell;

    thread_local! {
        /// Updates checked against [`full_closure`] on this thread.
        static ORACLE_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    /// The full `Update TNS, TGS`: the transition closure of
    /// `nodes` under `values`, classifying each transition node's load edge
    /// once, and the TGS of the gates reached by a pending edge whose
    /// output did not become a transition node.
    pub(super) fn full_closure(
        netlist: &Netlist,
        nodes: &BTreeSet<NetId>,
        values: &[Logic],
    ) -> (BTreeSet<NetId>, BTreeSet<GateId>) {
        let mut nodes = nodes.clone();
        let mut queue: Vec<NetId> = nodes.iter().copied().collect();
        let mut pending: Vec<GateId> = Vec::new();
        while let Some(tn) = queue.pop() {
            for &(gate_id, pin) in netlist.loads(tn) {
                let gate = netlist.gate(gate_id);
                match classify_edge(gate, pin, values) {
                    Edge::Propagates => {
                        if nodes.insert(gate.output) {
                            queue.push(gate.output);
                        }
                    }
                    Edge::Pending => pending.push(gate_id),
                    Edge::Blocked => {}
                }
            }
        }
        let gates = pending
            .into_iter()
            .filter(|&gate| !nodes.contains(&netlist.gate(gate).output))
            .collect();
        (nodes, gates)
    }

    /// Asserts that an incremental update left the sets the full
    /// update computes.
    pub(super) fn check_against(
        worklist: &TransitionWorklist,
        (nodes, gates): (BTreeSet<NetId>, BTreeSet<GateId>),
    ) {
        assert_eq!(worklist.transition_nodes, nodes, "oracle TNS");
        assert_eq!(worklist.transition_gates, gates, "oracle TGS");
        ORACLE_CHECKS.with(|checks| checks.set(checks.get() + 1));
    }

    /// q (uncontrolled) -> NAND(q, a) -> NOT -> NOR(., b) -> out
    fn pipeline() -> (Netlist, NetId, NetId, NetId) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.ensure_net("q");
        let g1 = n.add_gate(GateKind::Nand, &[q, a], "g1");
        let g2 = n.add_gate(GateKind::Not, &[g1.output], "g2");
        let g3 = n.add_gate(GateKind::Nor, &[g2.output, b], "g3");
        n.mark_output(g3.output);
        n.try_add_dff_driving(g3.output, q).unwrap();
        (n, a, b, q)
    }

    fn values_for(netlist: &Netlist, a: Logic, b: Logic) -> Vec<Logic> {
        // inputs order: a, b, q — q stays unknown (it is the transition
        // source).
        SimKernel::<Logic>::new(netlist)
            .evaluate(netlist, &[a, b, Logic::X])
            .to_vec()
    }

    #[test]
    fn unassigned_side_inputs_leave_gate_in_tgs() {
        let (n, _a, _b, q) = pipeline();
        let values = values_for(&n, Logic::X, Logic::X);
        let worklist = TransitionWorklist::new(&n, &[q], &values);
        // g1 can still be blocked by setting a=0.
        assert_eq!(worklist.transition_gates().len(), 1);
        assert!(!worklist.is_done());
    }

    #[test]
    fn controlling_side_input_blocks_the_transition() {
        let (n, _a, _b, q) = pipeline();
        // a = 0 is the controlling value of the NAND: the transition from q
        // is blocked right at its origin and nothing else is reached.
        let values = values_for(&n, Logic::Zero, Logic::X);
        let worklist = TransitionWorklist::new(&n, &[q], &values);
        assert!(worklist.is_done());
        assert_eq!(worklist.transition_nodes().len(), 1);
    }

    #[test]
    fn non_controlling_side_input_propagates_through_gate_and_inverter() {
        let (n, _a, _b, q) = pipeline();
        // a = 1 lets the transition pass the NAND; the inverter forwards it
        // unconditionally; the NOR is then the next blocking opportunity.
        let values = values_for(&n, Logic::One, Logic::X);
        let worklist = TransitionWorklist::new(&n, &[q], &values);
        let g1 = n.net_by_name("g1").unwrap();
        let g2 = n.net_by_name("g2").unwrap();
        assert!(worklist.transition_nodes().contains(&g1));
        assert!(worklist.transition_nodes().contains(&g2));
        assert_eq!(worklist.transition_gates().len(), 1);
        let g3 = n.driver_gate(n.net_by_name("g3").unwrap()).unwrap();
        assert!(worklist.transition_gates().contains(&g3));
    }

    #[test]
    fn fully_propagating_transition_empties_tgs() {
        let (n, _a, _b, q) = pipeline();
        // a = 1 and b = 0 (non-controlling for the NOR): the transition
        // reaches the output and no blocking opportunity remains.
        let values = values_for(&n, Logic::One, Logic::Zero);
        let worklist = TransitionWorklist::new(&n, &[q], &values);
        assert!(worklist.is_done());
        let g3 = n.net_by_name("g3").unwrap();
        assert!(worklist.transition_nodes().contains(&g3));
    }

    /// The incremental update against the two-pass procedure (a closure
    /// loop, then a TGS rebuild that classifies every transition node's
    /// loads again), on a generated circuit under random partial
    /// assignments of its inputs: identical node and gate sets.
    #[test]
    fn one_pass_update_matches_two_pass_reference() {
        use scanpower_netlist::generator::CircuitFamily;
        use scanpower_sim::patterns::random_bool_patterns;

        fn reference(
            netlist: &Netlist,
            sources: &[NetId],
            values: &[Logic],
        ) -> (BTreeSet<NetId>, BTreeSet<GateId>) {
            let mut nodes: BTreeSet<NetId> = sources.iter().copied().collect();
            let side_values = |gate: &Gate, pin: usize| -> Vec<Logic> {
                let sides = gate
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(move |&(i, _)| i != pin);
                sides.map(|(_, &n)| values[n.index()]).collect()
            };
            let mut queue: Vec<NetId> = nodes.iter().copied().collect();
            while let Some(tn) = queue.pop() {
                for &(gate_id, pin) in netlist.loads(tn) {
                    let gate = netlist.gate(gate_id);
                    let passes = gate.kind.always_propagates()
                        || gate.kind == GateKind::Mux
                        || gate.kind.controlling_value().is_some_and(|c| {
                            let c = Logic::from_bool(c);
                            let sides = side_values(gate, pin);
                            !sides.contains(&c) && sides.iter().all(|v| v.is_known())
                        });
                    if passes && nodes.insert(gate.output) {
                        queue.push(gate.output);
                    }
                }
            }
            let mut gates = BTreeSet::new();
            for &tn in &nodes {
                for &(gate_id, pin) in netlist.loads(tn) {
                    let gate = netlist.gate(gate_id);
                    let Some(c) = gate.kind.controlling_value() else {
                        continue;
                    };
                    if gate.kind.always_propagates()
                        || gate.kind == GateKind::Mux
                        || nodes.contains(&gate.output)
                    {
                        continue;
                    }
                    if !side_values(gate, pin).contains(&Logic::from_bool(c)) {
                        gates.insert(gate_id);
                    }
                }
            }
            (nodes, gates)
        }

        let n = CircuitFamily::iscas89_like("s382")
            .unwrap()
            .scaled(0.5)
            .generate(4);
        let mut kernel = SimKernel::<Logic>::new(&n);
        let width = kernel.inputs().len();
        let pseudo = n.pseudo_inputs();
        let mut non_trivial = 0;
        for (round, bits) in random_bool_patterns(width, 24, 19).iter().enumerate() {
            // One input in five unknown; the pseudo-inputs of every other
            // scan cell are the transition sources.
            let inputs: Vec<Logic> = bits
                .iter()
                .enumerate()
                .map(|(i, &bit)| {
                    if (7 * i + round) % 5 == 0 {
                        Logic::X
                    } else {
                        Logic::from_bool(bit)
                    }
                })
                .collect();
            let values = kernel.evaluate(&n, &inputs).to_vec();
            let sources: Vec<NetId> = pseudo.iter().copied().skip(round % 2).step_by(2).collect();
            let worklist = TransitionWorklist::new(&n, &sources, &values);
            let (nodes, gates) = reference(&n, &sources, &values);
            assert_eq!(worklist.transition_nodes(), &nodes, "round {round}");
            assert_eq!(worklist.transition_gates(), &gates, "round {round}");
            non_trivial += usize::from(!worklist.is_done());
        }
        assert!(
            non_trivial > 0,
            "some round must leave a blocking opportunity"
        );
    }

    #[test]
    fn most_capacitive_gate_prefers_heavier_loads() {
        // Two uncontrolled sources feed two NANDs; one NAND output drives
        // three sinks, the other just one.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q1 = n.ensure_net("q1");
        let q2 = n.ensure_net("q2");
        let heavy = n.add_gate(GateKind::Nand, &[q1, a], "heavy");
        let light = n.add_gate(GateKind::Nand, &[q2, a], "light");
        for i in 0..3 {
            let s = n.add_gate(GateKind::Not, &[heavy.output], &format!("s{i}"));
            n.mark_output(s.output);
        }
        let t = n.add_gate(GateKind::Not, &[light.output], "t");
        n.mark_output(t.output);
        n.try_add_dff_driving(heavy.output, q1).unwrap();
        n.try_add_dff_driving(light.output, q2).unwrap();

        let mut ev = SimKernel::<Logic>::new(&n);
        let values = ev.evaluate(&n, &[Logic::X, Logic::X, Logic::X]);
        let worklist = TransitionWorklist::new(&n, &[q1, q2], values);
        let capacitance = CapacitanceModel::default();
        let loads: Vec<f64> = n
            .gate_ids()
            .map(|gate| capacitance.gate_output_load(&n, gate))
            .collect();
        let (gate, tn) = worklist.most_capacitive_gate(&n, &loads).unwrap();
        assert_eq!(gate, heavy.gate);
        assert_eq!(tn, q1);
    }

    /// `FindControlledInputPattern()` under both directives, on s27 and on
    /// every Table I family at reduced scale, with the input-control
    /// baseline's sources (the primary inputs controlled, every
    /// pseudo-input a transition source) and through
    /// `ProposedMethod::apply`: every incremental update in them equals the
    /// full closure (`update` checks itself against
    /// [`full_closure`] in test builds), and every update is checked.
    #[test]
    fn incremental_update_matches_the_full_closure_oracle() {
        use crate::justify::Directive;
        use crate::pattern::ControlPatternFinder;
        use crate::{ProposedMethod, ProposedOptions};
        use scanpower_netlist::bench;
        use scanpower_netlist::generator::CircuitFamily;
        use scanpower_power::{LeakageLibrary, LeakageObservability};

        let checks = || ORACLE_CHECKS.with(Cell::get);
        let mut circuits = vec![bench::parse(bench::S27_BENCH, "s27").unwrap()];
        circuits.extend(
            CircuitFamily::table1()
                .iter()
                .map(|family| family.scaled(0.5).generate(1)),
        );
        let mut blocked = 0;
        for n in &circuits {
            let observability = LeakageObservability::compute(n, &LeakageLibrary::cmos45());
            for directive in [Directive::LeakageObservability, Directive::FirstAvailable] {
                let before = checks();
                let pattern = ControlPatternFinder::new(directive).find(
                    n,
                    n.primary_inputs(),
                    &n.pseudo_inputs(),
                    &observability,
                );
                // One update when the worklist is built, one per visited
                // transition gate.
                let stats = &pattern.stats;
                assert_eq!(
                    checks() - before,
                    1 + stats.blocked_gates + stats.unblocked_gates,
                    "{}, {directive:?}: every update is checked",
                    n.name()
                );
                blocked += stats.blocked_gates;

                let before = checks();
                let options = ProposedOptions {
                    leakage_directed: directive == Directive::LeakageObservability,
                    ..ProposedOptions::default()
                };
                let proposed = ProposedMethod::new(options).apply(n).unwrap();
                let stats = &proposed.pattern.stats;
                assert_eq!(
                    checks() - before,
                    1 + stats.blocked_gates + stats.unblocked_gates,
                    "{}, {directive:?}: every proposed-flow update is checked",
                    n.name()
                );
            }
        }
        assert!(blocked > 0, "some run must block a transition gate");
    }
}
