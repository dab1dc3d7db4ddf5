use scanpower_netlist::{NetId, Netlist};
use scanpower_power::LeakageObservability;
use scanpower_sim::{DirtyWorklist, Logic, SimKernel};

/// Backtracks allowed per objective before a justification attempt gives up.
const BACKTRACK_LIMIT: usize = 64;

/// How ties between candidate lines are broken during justification and
/// candidate-input selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Directive {
    /// The paper's rule: when a line must be set to 1 choose the candidate
    /// with minimum leakage observability, when it must be set to 0 choose
    /// the one with maximum leakage observability.
    LeakageObservability,
    /// Take the first available candidate (the undirected C-algorithm of
    /// Huang & Lee \[8\]; also used by the ablation benches).
    FirstAvailable,
}

/// Outcome of one justification attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JustifyOutcome {
    /// The objective value was established; the decisions were kept.
    Satisfied,
    /// The objective could not be established; all decisions of this attempt
    /// were rolled back.
    Failed,
}

/// PODEM-like justification of internal objectives by assigning controlled
/// inputs only.
///
/// The justifier owns the current partial assignment of the combinational
/// inputs (controlled inputs may be 0/1/X, uncontrolled pseudo-inputs are
/// pinned to X because their value keeps changing during shift) and the
/// implied value of every net. Every decision, flip and undo re-settles the
/// implied values through the kernel's event-driven
/// [`SimKernel::propagate_from`], which leaves them exactly equal to a full
/// evaluation of the assignment.
#[derive(Debug, Clone)]
pub struct Justifier {
    kernel: SimKernel<Logic>,
    worklist: DirtyWorklist,
    assignment: Vec<Logic>,
    values: Vec<Logic>,
    controllable: Vec<bool>,
    input_position: Vec<Option<usize>>,
    directive: Directive,
    decisions: usize,
}

impl Justifier {
    /// Creates a justifier.
    ///
    /// `controlled` lists the nets whose value the search may assign
    /// (primary inputs plus multiplexed pseudo-inputs).
    #[must_use]
    pub fn new(netlist: &Netlist, controlled: &[NetId], directive: Directive) -> Justifier {
        let kernel = SimKernel::<Logic>::new(netlist);
        let width = kernel.inputs().len();
        let mut controllable = vec![false; width];
        let mut input_position = vec![None; netlist.net_count()];
        for (i, &net) in kernel.inputs().iter().enumerate() {
            input_position[net.index()] = Some(i);
        }
        for &net in controlled {
            if let Some(position) = input_position[net.index()] {
                controllable[position] = true;
            }
        }
        // Every input starts unknown, so a sweep over an all-X buffer is the
        // full evaluation of the initial assignment.
        let mut values = vec![Logic::X; kernel.net_count()];
        kernel.propagate(netlist, &mut values);
        Justifier {
            worklist: kernel.make_worklist(),
            kernel,
            assignment: vec![Logic::X; width],
            values,
            controllable,
            input_position,
            directive,
            decisions: 0,
        }
    }

    /// Current implied value of every net.
    #[must_use]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Current assignment of the combinational inputs (the order of
    /// [`SimKernel::inputs`]).
    #[must_use]
    pub fn assignment(&self) -> &[Logic] {
        &self.assignment
    }

    /// Number of input decisions made so far (kept ones only).
    #[must_use]
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Current implied value of one net.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Selects, among the don't-care side inputs of a gate, the candidate to
    /// set to the controlling value, following the directive.
    #[must_use]
    pub fn select_candidate(
        &self,
        candidates: &[NetId],
        target: bool,
        observability: &LeakageObservability,
    ) -> Option<NetId> {
        if candidates.is_empty() {
            return None;
        }
        match self.directive {
            Directive::FirstAvailable => candidates.first().copied(),
            Directive::LeakageObservability => {
                observability.preferred_candidate(candidates, target)
            }
        }
    }

    /// Tries to justify `value` on `objective` by assigning controlled
    /// inputs. On failure every decision made during this attempt is undone.
    pub fn justify(
        &mut self,
        netlist: &Netlist,
        objective: NetId,
        value: bool,
        observability: &LeakageObservability,
    ) -> JustifyOutcome {
        let snapshot = self.assignment.clone();
        let mut backtracks = 0usize;
        // Decision stack local to this objective.
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let target = Logic::from_bool(value);

        loop {
            if self.values[objective.index()] == target {
                self.decisions += stack.len();
                return JustifyOutcome::Satisfied;
            }
            let decision = if self.values[objective.index()] == Logic::X {
                self.backtrace(netlist, objective, value, observability)
            } else {
                // The objective is implied to the opposite value: conflict.
                None
            };
            match decision {
                Some((position, decided)) => {
                    self.set_input(position, Logic::from_bool(decided));
                    stack.push((position, decided, false));
                    self.settle(netlist);
                }
                None => loop {
                    match stack.pop() {
                        Some((position, decided, tried_both)) => {
                            if tried_both {
                                self.set_input(position, Logic::X);
                                continue;
                            }
                            backtracks += 1;
                            if backtracks > BACKTRACK_LIMIT {
                                self.restore(netlist, &snapshot);
                                return JustifyOutcome::Failed;
                            }
                            self.set_input(position, Logic::from_bool(!decided));
                            stack.push((position, !decided, true));
                            self.settle(netlist);
                            break;
                        }
                        None => {
                            self.restore(netlist, &snapshot);
                            return JustifyOutcome::Failed;
                        }
                    }
                },
            }
        }
    }

    /// Writes one combinational input and marks its readers dirty; the
    /// implied values catch up on the next [`Justifier::settle`].
    fn set_input(&mut self, position: usize, value: Logic) {
        self.assignment[position] = value;
        let net = self.kernel.inputs()[position];
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            self.kernel.mark_net_changed(net, &mut self.worklist);
        }
    }

    /// Re-settles the implied values after [`Justifier::set_input`] calls.
    fn settle(&mut self, netlist: &Netlist) {
        self.kernel
            .propagate_from(netlist, &mut self.values, &mut self.worklist, |_, _, _| {});
    }

    /// Rolls the assignment back to `snapshot`, re-marking only the inputs
    /// that differ from it.
    fn restore(&mut self, netlist: &Netlist, snapshot: &[Logic]) {
        for (position, &value) in snapshot.iter().enumerate() {
            self.set_input(position, value);
        }
        self.settle(netlist);
    }

    /// Maps an internal objective to a single controlled-input decision by
    /// walking backwards through unknown gate inputs (the paper's
    /// `Backtrace` procedure). Candidate selection at every gate follows the
    /// leakage-observability directive.
    fn backtrace(
        &self,
        netlist: &Netlist,
        objective: NetId,
        objective_value: bool,
        observability: &LeakageObservability,
    ) -> Option<(usize, bool)> {
        let mut net = objective;
        let mut value = objective_value;
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > netlist.net_count() + 1 {
                return None;
            }
            if let Some(position) = self.input_position[net.index()] {
                if !self.controllable[position] || self.assignment[position] != Logic::X {
                    return None;
                }
                return Some((position, value));
            }
            let driver = netlist.driver_gate(net)?;
            let gate = netlist.gate(driver);
            // Candidate inputs: unknown lines only.
            let unknown: Vec<NetId> = gate
                .inputs
                .iter()
                .copied()
                .filter(|&n| self.values[n.index()] == Logic::X)
                .collect();
            if unknown.is_empty() {
                return None;
            }
            let next_value = if gate.kind.is_inverting() {
                !value
            } else {
                value
            };
            let chosen = self
                .select_candidate(&unknown, next_value, observability)
                .unwrap_or(unknown[0]);
            net = chosen;
            value = next_value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{generator::CircuitFamily, GateKind, Netlist};
    use scanpower_power::LeakageLibrary;

    fn observability(netlist: &Netlist) -> LeakageObservability {
        LeakageObservability::compute(netlist, &LeakageLibrary::cmos45())
    }

    /// The event-driven settling must leave `values()` equal to a full
    /// evaluation of `assignment()` after every attempt, and a failed
    /// attempt must restore the assignment it started from.
    #[test]
    fn incremental_values_match_full_evaluation() {
        let (mut satisfied, mut failed) = (0usize, 0usize);
        for family in CircuitFamily::table1() {
            let n = family.scaled(0.1).generate(1);
            let obs = observability(&n);
            // Primary inputs plus every other scan cell are controlled; the
            // rest stay unknown and make some objectives unjustifiable.
            let mut controlled = n.primary_inputs().to_vec();
            controlled.extend(n.pseudo_inputs().into_iter().step_by(2));
            let mut kernel = SimKernel::<Logic>::new(&n);
            for directive in [Directive::LeakageObservability, Directive::FirstAvailable] {
                let mut justifier = Justifier::new(&n, &controlled, directive);
                let step = (n.gate_count() / 40).max(1);
                for (i, gate) in n.gates().iter().enumerate().step_by(step) {
                    let before = justifier.assignment().to_vec();
                    let outcome = justifier.justify(&n, gate.output, i % 3 != 0, &obs);
                    let full = kernel.evaluate(&n, justifier.assignment());
                    assert_eq!(
                        justifier.values(),
                        full,
                        "{} {directive:?} objective {i}",
                        n.name()
                    );
                    if outcome == JustifyOutcome::Failed {
                        assert_eq!(justifier.assignment(), before.as_slice());
                        failed += 1;
                    } else {
                        satisfied += 1;
                    }
                }
            }
        }
        assert!(
            satisfied > 0 && failed > 0,
            "{satisfied} satisfied, {failed} failed"
        );
    }

    /// An XOR over eight controlled inputs and one uncontrolled scan cell
    /// stays unknown under every decision, so the search runs out of
    /// backtracks with decisions still on its stack; rolling them back must
    /// also re-settle the gates they feed.
    #[test]
    fn backtrack_limit_failure_restores_implied_values() {
        let mut n = Netlist::new("t");
        let controlled: Vec<NetId> = (0..8).map(|i| n.add_input(&format!("a{i}"))).collect();
        let q = n.ensure_net("q");
        let mut operands = controlled.clone();
        operands.push(q);
        let x = n.add_gate(GateKind::Xor, &operands, "x");
        let h = n.add_gate(GateKind::And, &controlled[..2], "h");
        n.mark_output(x.output);
        n.mark_output(h.output);
        n.try_add_dff_driving(x.output, q).unwrap();
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &controlled, Directive::FirstAvailable);
        let outcome = justifier.justify(&n, x.output, true, &obs);
        assert_eq!(outcome, JustifyOutcome::Failed);
        assert!(justifier.assignment().iter().all(|&v| v == Logic::X));
        assert_eq!(justifier.value(h.output), Logic::X);
        let full = SimKernel::<Logic>::new(&n)
            .evaluate(&n, justifier.assignment())
            .to_vec();
        assert_eq!(justifier.values(), full.as_slice());
    }

    #[test]
    fn justifies_simple_objective() {
        // out = NAND(a, b): justify out = 0 requires a = b = 1.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability);
        let outcome = justifier.justify(&n, g.output, false, &obs);
        assert_eq!(outcome, JustifyOutcome::Satisfied);
        assert_eq!(justifier.value(g.output), Logic::Zero);
        assert_eq!(justifier.value(a), Logic::One);
        assert_eq!(justifier.value(b), Logic::One);
    }

    #[test]
    fn uncontrollable_inputs_are_never_assigned() {
        // out = NAND(a, q) where q is not controlled: out = 0 cannot be
        // justified (it needs q = 1).
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.ensure_net("q");
        let g = n.add_gate(GateKind::Nand, &[a, q], "g");
        n.mark_output(g.output);
        n.try_add_dff_driving(g.output, q).unwrap();
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a], Directive::LeakageObservability);
        let outcome = justifier.justify(&n, g.output, false, &obs);
        assert_eq!(outcome, JustifyOutcome::Failed);
        // The failed attempt must leave no residue.
        assert!(justifier.assignment().iter().all(|&v| v == Logic::X));
        // But out = 1 only needs a = 0, which is controlled.
        let outcome = justifier.justify(&n, g.output, true, &obs);
        assert_eq!(outcome, JustifyOutcome::Satisfied);
        assert_eq!(justifier.value(a), Logic::Zero);
    }

    #[test]
    fn failed_attempt_rolls_back_previous_successes_stay() {
        // Two independent objectives; the second is impossible.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.ensure_net("q");
        let g1 = n.add_gate(GateKind::Not, &[a], "g1");
        let g2 = n.add_gate(GateKind::Nand, &[b, q], "g2");
        n.mark_output(g1.output);
        n.mark_output(g2.output);
        n.try_add_dff_driving(g2.output, q).unwrap();
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability);
        assert_eq!(
            justifier.justify(&n, g1.output, false, &obs),
            JustifyOutcome::Satisfied
        );
        let kept = justifier.value(a);
        assert_eq!(
            justifier.justify(&n, g2.output, false, &obs),
            JustifyOutcome::Failed
        );
        assert_eq!(justifier.value(a), kept, "earlier decision must survive");
    }

    #[test]
    fn directive_changes_candidate_selection() {
        // Candidate with the lower observability must be chosen when the
        // target is 1.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        // Make `a` much more leakage-observable by fanning it out to big
        // gates.
        let g1 = n.add_gate(GateKind::Nand, &[a, b], "g1");
        let g2 = n.add_gate(GateKind::Nand, &[a, g1.output], "g2");
        let g3 = n.add_gate(GateKind::Nand, &[a, g2.output], "g3");
        n.mark_output(g3.output);
        let obs = observability(&n);
        let justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability);
        let chosen = justifier.select_candidate(&[a, b], true, &obs).unwrap();
        assert_eq!(chosen, if obs.of(a) < obs.of(b) { a } else { b });
        let first = Justifier::new(&n, &[a, b], Directive::FirstAvailable);
        assert_eq!(first.select_candidate(&[a, b], true, &obs), Some(a));
    }

    #[test]
    fn backtracking_recovers_from_a_bad_first_decision() {
        // out = NOR(AND(a, b), NOT(a)); justify out = 1 requires a = 1 and
        // b = 0 (so that both NOR inputs are 0). A naive first decision may
        // try the wrong value first and must recover by backtracking.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let and = n.add_gate(GateKind::And, &[a, b], "and");
        let inv = n.add_gate(GateKind::Not, &[a], "inv");
        let nor = n.add_gate(GateKind::Nor, &[and.output, inv.output], "nor");
        n.mark_output(nor.output);
        let obs = observability(&n);
        for directive in [Directive::LeakageObservability, Directive::FirstAvailable] {
            let mut justifier = Justifier::new(&n, &[a, b], directive);
            let outcome = justifier.justify(&n, nor.output, true, &obs);
            assert_eq!(outcome, JustifyOutcome::Satisfied, "{directive:?}");
            assert_eq!(justifier.value(a), Logic::One);
            assert_eq!(justifier.value(b), Logic::Zero);
        }
    }
}
