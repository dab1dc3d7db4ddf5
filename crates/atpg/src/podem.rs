//! PODEM (path-oriented decision making) deterministic test generation.
//!
//! The implementation follows the textbook algorithm: decisions are made
//! only on the combinational inputs (primary inputs and scan-cell outputs —
//! the circuit is full scan), each decision is followed by three-valued
//! forward implication of both the good and the faulty machine, and the
//! search backtracks when the fault can no longer be activated or its effect
//! can no longer reach an observation point.
//!
//! Both machines live in one [`PackedWord`] per net: lane 0 is the good
//! machine, lane 1 the faulty one (the remaining lanes mirror lane 0). The
//! faulty lane of the fault site is pinned to the stuck value through the
//! output hook of [`SimKernel::propagate_pinned`], so implication is the
//! kernel's event-driven worklist: every decision, flip or backtrack writes
//! only the inputs that changed and re-settles their fanout cones, instead
//! of re-sweeping the circuit from all-X.
//!
//! The same backtrace machinery is reused by the justification step of the
//! paper's `FindControlledInputPattern()` procedure (in `scanpower-core`),
//! which is PODEM-like but justifies internal objectives instead of
//! propagating fault effects.

use scanpower_netlist::{GateId, NetId, Netlist};
use scanpower_sim::fault::Fault;
use scanpower_sim::kernel::{DirtyWorklist, LogicWord, PackedWord};
use scanpower_sim::{Logic, SimKernel};

/// Result of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; the vector assigns every combinational input
    /// (don't-cares remain [`Logic::X`]).
    Test(Vec<Logic>),
    /// The search space was exhausted: the fault is untestable
    /// (combinationally redundant).
    Untestable,
    /// The backtrack limit was hit before a conclusion was reached.
    Aborted,
}

/// PODEM test generator for a fixed netlist.
///
/// Both machines (good and faulty) are implied through the shared
/// [`SimKernel`], so the generator carries no gate-evaluation logic of its
/// own. The per-fault scratch (value buffer, worklist, fanout cone) lives in
/// the generator and is reused across faults.
#[derive(Debug, Clone)]
pub struct Podem {
    kernel: SimKernel<PackedWord>,
    input_position: Vec<Option<usize>>,
    is_observation: Vec<bool>,
    backtrack_limit: usize,
    /// Settled values with every input unassigned: the start state of every
    /// fault before its site is pinned.
    unassigned: Vec<PackedWord>,
    /// Both machines of the fault under search (lane 0 good, lane 1 faulty).
    values: Vec<PackedWord>,
    worklist: DirtyWorklist,
    /// The fault's fanout cone in topological order — the only gates where
    /// the machines can differ, so the only D-frontier candidates.
    cone: Vec<GateId>,
    /// Observation points inside the cone (or at the site itself).
    cone_observed: Vec<NetId>,
    in_cone: Vec<bool>,
}

/// Lane 0 of a two-machine word: the good machine.
fn good(word: PackedWord) -> Logic {
    word.lane(0)
}

/// Lane 1 of a two-machine word: the faulty machine.
fn faulty(word: PackedWord) -> Logic {
    word.lane(1)
}

/// Both machines known and different: a fault effect (D or D̄).
fn has_effect(word: PackedWord) -> bool {
    let (good, faulty) = (good(word), faulty(word));
    good.is_known() && faulty.is_known() && good != faulty
}

/// The output hook that holds the faulty lane of the fault site at the
/// stuck value.
fn pin_site(fault: Fault) -> impl Fn(NetId, PackedWord) -> PackedWord {
    let stuck = Logic::from_bool(fault.stuck_at_one);
    move |net, mut word| {
        if net == fault.net {
            word.set_lane(1, stuck);
        }
        word
    }
}

impl Podem {
    /// Builds a generator with the given backtrack limit per fault.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part of the netlist is cyclic.
    #[must_use]
    pub fn new(netlist: &Netlist, backtrack_limit: usize) -> Podem {
        let mut kernel = SimKernel::new(netlist);
        let mut input_position = vec![None; netlist.net_count()];
        for (i, &net) in kernel.inputs().iter().enumerate() {
            input_position[net.index()] = Some(i);
        }
        let mut is_observation = vec![false; netlist.net_count()];
        for &net in netlist
            .primary_outputs()
            .iter()
            .chain(&netlist.pseudo_outputs())
        {
            is_observation[net.index()] = true;
        }
        let all_x = vec![PackedWord::splat(Logic::X); kernel.inputs().len()];
        let unassigned = kernel.evaluate(netlist, &all_x).to_vec();
        let worklist = kernel.make_worklist();
        Podem {
            input_position,
            is_observation,
            backtrack_limit,
            values: unassigned.clone(),
            unassigned,
            worklist,
            cone: Vec::new(),
            cone_observed: Vec::new(),
            in_cone: vec![false; netlist.gate_count()],
            kernel,
        }
    }

    /// Combinational inputs in decision order (primary inputs then
    /// pseudo-inputs).
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        self.kernel.inputs()
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&mut self, netlist: &Netlist, fault: Fault) -> PodemOutcome {
        let mut assignment: Vec<Logic> = vec![Logic::X; self.inputs().len()];
        self.start(netlist, fault);

        // Decision stack: (input index, value tried, second value tried?).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            if self.fault_detected() {
                return PodemOutcome::Test(assignment);
            }
            let objective = self.objective(netlist, fault);
            let decision = objective.and_then(|(net, value)| self.backtrace(netlist, net, value));

            match decision {
                Some((input_index, value)) => {
                    assignment[input_index] = Logic::from_bool(value);
                    stack.push((input_index, value, false));
                    self.assign(fault, input_index, assignment[input_index]);
                    self.settle(netlist, fault);
                }
                None => {
                    // No way forward: backtrack.
                    loop {
                        match stack.pop() {
                            Some((input_index, value, tried_both)) => {
                                if tried_both {
                                    assignment[input_index] = Logic::X;
                                    self.assign(fault, input_index, Logic::X);
                                    continue;
                                }
                                backtracks += 1;
                                if backtracks > self.backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                assignment[input_index] = Logic::from_bool(!value);
                                stack.push((input_index, !value, true));
                                self.assign(fault, input_index, assignment[input_index]);
                                self.settle(netlist, fault);
                                break;
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
            }
        }
    }

    /// Resets the scratch to the unassigned state with the fault site
    /// pinned, settles it, and collects the fault's fanout cone.
    fn start(&mut self, netlist: &Netlist, fault: Fault) {
        self.values.copy_from_slice(&self.unassigned);
        let site = &mut self.values[fault.net.index()];
        let pinned = pin_site(fault)(fault.net, *site);
        if pinned != *site {
            *site = pinned;
            self.kernel.mark_net_changed(fault.net, &mut self.worklist);
        }
        self.settle(netlist, fault);

        for gate in self.cone.drain(..) {
            self.in_cone[gate.index()] = false;
        }
        self.cone_observed.clear();
        if self.is_observation[fault.net.index()] {
            self.cone_observed.push(fault.net);
        }
        let mut frontier = vec![fault.net];
        while let Some(net) = frontier.pop() {
            for &(gate, _) in netlist.loads(net) {
                if !self.in_cone[gate.index()] {
                    self.in_cone[gate.index()] = true;
                    self.cone.push(gate);
                    let output = netlist.gate(gate).output;
                    if self.is_observation[output.index()] {
                        self.cone_observed.push(output);
                    }
                    frontier.push(output);
                }
            }
        }
        let kernel = &self.kernel;
        self.cone
            .sort_unstable_by_key(|&gate| kernel.position_of(gate));
    }

    /// Writes one combinational input (both machines; the faulty lane stays
    /// pinned if the input is the fault site) and marks its readers dirty.
    fn assign(&mut self, fault: Fault, input_index: usize, value: Logic) {
        let net = self.kernel.inputs()[input_index];
        let word = pin_site(fault)(net, PackedWord::splat(value));
        if self.values[net.index()] != word {
            self.values[net.index()] = word;
            self.kernel.mark_net_changed(net, &mut self.worklist);
        }
    }

    /// Forward three-valued implication of both machines: re-settles the
    /// fanout cones of the inputs written since the last call.
    fn settle(&mut self, netlist: &Netlist, fault: Fault) {
        self.kernel.propagate_pinned(
            netlist,
            &mut self.values,
            &mut self.worklist,
            pin_site(fault),
            |_, _, _| {},
        );
    }

    fn fault_detected(&self) -> bool {
        self.cone_observed
            .iter()
            .any(|&net| has_effect(self.values[net.index()]))
    }

    /// Picks the next objective `(net, value)`.
    fn objective(&self, netlist: &Netlist, fault: Fault) -> Option<(NetId, bool)> {
        // Phase 1: activate the fault.
        let site_good = good(self.values[fault.net.index()]);
        if site_good == Logic::X {
            return Some((fault.net, !fault.stuck_at_one));
        }
        if site_good == Logic::from_bool(fault.stuck_at_one) {
            // The fault site is pinned to the stuck value in the good
            // machine: activation is impossible under the current
            // assignment.
            return None;
        }
        // Phase 2: propagate — pick a gate from the D-frontier and set one
        // of its unknown inputs to the non-controlling value.
        let frontier_gate = self.d_frontier(netlist)?;
        let gate = netlist.gate(frontier_gate);
        let unknown = gate
            .inputs
            .iter()
            .copied()
            .find(|&n| good(self.values[n.index()]) == Logic::X)?;
        let non_controlling = match gate.kind.controlling_value() {
            Some(cv) => !cv,
            None => true,
        };
        Some((unknown, non_controlling))
    }

    /// First gate (in topological order) whose output does not yet carry a
    /// definite fault-effect status (at least one machine still evaluates it
    /// to X) but which has a fault effect (good ≠ faulty, both known) on at
    /// least one input. Only the fault's fanout cone is scanned: outside it
    /// the two machines agree on every net, so no gate there has an effect
    /// on an input and the first match is the same as over the full order.
    fn d_frontier(&self, netlist: &Netlist) -> Option<GateId> {
        self.cone.iter().copied().find(|&gate_id| {
            let gate = netlist.gate(gate_id);
            let out = self.values[gate.output.index()];
            !(good(out).is_known() && faulty(out).is_known())
                && gate
                    .inputs
                    .iter()
                    .any(|&n| has_effect(self.values[n.index()]))
        })
    }

    /// Maps an internal objective to a primary-input assignment by walking
    /// backwards through unknown gate inputs.
    fn backtrace(
        &self,
        netlist: &Netlist,
        objective_net: NetId,
        objective_value: bool,
    ) -> Option<(usize, bool)> {
        let mut net = objective_net;
        let mut value = objective_value;
        loop {
            if let Some(position) = self.input_position[net.index()] {
                // Don't re-assign an already decided input.
                if good(self.values[net.index()]) != Logic::X {
                    return None;
                }
                return Some((position, value));
            }
            let driver = netlist.driver_gate(net)?;
            let gate = netlist.gate(driver);
            let unknown_input = gate
                .inputs
                .iter()
                .copied()
                .find(|&n| good(self.values[n.index()]) == Logic::X)?;
            if gate.kind.is_inverting() {
                value = !value;
            }
            // For a MUX the "natural" choice is to justify through the data
            // input currently selected, but walking through any unknown
            // input is sound because the decision is re-implied afterwards.
            net = unknown_input;
        }
    }
}

/// The full-sweep PODEM this module replaced, kept verbatim as the
/// reference the event-driven generator is pinned against: two scalar
/// machines re-implied from all-X over the whole topological order after
/// every decision and backtrack, and a D-frontier scan over every gate.
#[cfg(test)]
pub(crate) mod oracle {
    use super::PodemOutcome;
    use scanpower_netlist::{GateId, NetId, Netlist};
    use scanpower_sim::fault::Fault;
    use scanpower_sim::{kernel, Logic, SimKernel};

    pub(crate) struct FullSweepPodem {
        kernel: SimKernel<Logic>,
        input_position: Vec<Option<usize>>,
        observation: Vec<NetId>,
        backtrack_limit: usize,
    }

    struct Machine {
        good: Vec<Logic>,
        faulty: Vec<Logic>,
    }

    impl FullSweepPodem {
        pub(crate) fn new(netlist: &Netlist, backtrack_limit: usize) -> FullSweepPodem {
            let kernel = SimKernel::new(netlist);
            let mut input_position = vec![None; netlist.net_count()];
            for (i, &net) in kernel.inputs().iter().enumerate() {
                input_position[net.index()] = Some(i);
            }
            let mut observation = netlist.primary_outputs().to_vec();
            observation.extend(netlist.pseudo_outputs());
            observation.sort_unstable();
            observation.dedup();
            FullSweepPodem {
                kernel,
                input_position,
                observation,
                backtrack_limit,
            }
        }

        fn inputs(&self) -> &[NetId] {
            self.kernel.inputs()
        }

        pub(crate) fn generate(&self, netlist: &Netlist, fault: Fault) -> PodemOutcome {
            let mut assignment: Vec<Logic> = vec![Logic::X; self.inputs().len()];
            let mut machine = Machine {
                good: vec![Logic::X; netlist.net_count()],
                faulty: vec![Logic::X; netlist.net_count()],
            };
            self.imply(netlist, &assignment, fault, &mut machine);
            let mut stack: Vec<(usize, bool, bool)> = Vec::new();
            let mut backtracks = 0usize;
            loop {
                if self.fault_detected(&machine) {
                    return PodemOutcome::Test(assignment);
                }
                let objective = self.objective(netlist, fault, &machine);
                let decision = objective
                    .and_then(|(net, value)| self.backtrace(netlist, &machine, net, value));
                match decision {
                    Some((input_index, value)) => {
                        assignment[input_index] = Logic::from_bool(value);
                        stack.push((input_index, value, false));
                        self.imply(netlist, &assignment, fault, &mut machine);
                    }
                    None => loop {
                        match stack.pop() {
                            Some((input_index, value, tried_both)) => {
                                if tried_both {
                                    assignment[input_index] = Logic::X;
                                    continue;
                                }
                                backtracks += 1;
                                if backtracks > self.backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                assignment[input_index] = Logic::from_bool(!value);
                                stack.push((input_index, !value, true));
                                self.imply(netlist, &assignment, fault, &mut machine);
                                break;
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    },
                }
            }
        }

        fn imply(
            &self,
            netlist: &Netlist,
            assignment: &[Logic],
            fault: Fault,
            machine: &mut Machine,
        ) {
            machine.good.fill(Logic::X);
            machine.faulty.fill(Logic::X);
            for (i, &net) in self.inputs().iter().enumerate() {
                machine.good[net.index()] = assignment[i];
                machine.faulty[net.index()] = assignment[i];
            }
            machine.faulty[fault.net.index()] = Logic::from_bool(fault.stuck_at_one);
            for &gate_id in self.kernel.order() {
                let gate = netlist.gate(gate_id);
                machine.good[gate.output.index()] =
                    kernel::eval_gate_at(gate.kind, &gate.inputs, &machine.good);
                let faulty_value = kernel::eval_gate_at(gate.kind, &gate.inputs, &machine.faulty);
                machine.faulty[gate.output.index()] = if gate.output == fault.net {
                    Logic::from_bool(fault.stuck_at_one)
                } else {
                    faulty_value
                };
            }
        }

        fn fault_detected(&self, machine: &Machine) -> bool {
            self.observation.iter().any(|&net| {
                let good = machine.good[net.index()];
                let faulty = machine.faulty[net.index()];
                good.is_known() && faulty.is_known() && good != faulty
            })
        }

        fn objective(
            &self,
            netlist: &Netlist,
            fault: Fault,
            machine: &Machine,
        ) -> Option<(NetId, bool)> {
            let site_good = machine.good[fault.net.index()];
            if site_good == Logic::X {
                return Some((fault.net, !fault.stuck_at_one));
            }
            if site_good == Logic::from_bool(fault.stuck_at_one) {
                return None;
            }
            let frontier_gate = self.d_frontier(netlist, machine)?;
            let gate = netlist.gate(frontier_gate);
            let unknown = gate
                .inputs
                .iter()
                .copied()
                .find(|&n| machine.good[n.index()] == Logic::X)?;
            let non_controlling = match gate.kind.controlling_value() {
                Some(cv) => !cv,
                None => true,
            };
            Some((unknown, non_controlling))
        }

        fn d_frontier(&self, netlist: &Netlist, machine: &Machine) -> Option<GateId> {
            for &gate_id in self.kernel.order() {
                let gate = netlist.gate(gate_id);
                let good_out = machine.good[gate.output.index()];
                let faulty_out = machine.faulty[gate.output.index()];
                if good_out.is_known() && faulty_out.is_known() {
                    continue;
                }
                let has_effect = gate.inputs.iter().any(|&n| {
                    let good = machine.good[n.index()];
                    let faulty = machine.faulty[n.index()];
                    good.is_known() && faulty.is_known() && good != faulty
                });
                if has_effect {
                    return Some(gate_id);
                }
            }
            None
        }

        fn backtrace(
            &self,
            netlist: &Netlist,
            machine: &Machine,
            objective_net: NetId,
            objective_value: bool,
        ) -> Option<(usize, bool)> {
            let mut net = objective_net;
            let mut value = objective_value;
            loop {
                if let Some(position) = self.input_position[net.index()] {
                    if machine.good[net.index()] != Logic::X {
                        return None;
                    }
                    return Some((position, value));
                }
                let driver = netlist.driver_gate(net)?;
                let gate = netlist.gate(driver);
                let unknown_input = gate
                    .inputs
                    .iter()
                    .copied()
                    .find(|&n| machine.good[n.index()] == Logic::X)?;
                if gate.kind.is_inverting() {
                    value = !value;
                }
                net = unknown_input;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::FullSweepPodem;
    use super::*;
    use scanpower_netlist::generator::CircuitFamily;
    use scanpower_netlist::{bench, GateKind, Netlist};
    use scanpower_sim::fault::{all_net_faults, FaultSim};

    fn check_test_detects(netlist: &Netlist, fault: Fault, test: &[Logic]) -> bool {
        // Fill X with 0 and fault-simulate the single pattern.
        let pattern: Vec<bool> = test.iter().map(|v| v.to_bool().unwrap_or(false)).collect();
        let sim = FaultSim::new(netlist);
        sim.detect(netlist, &[fault], &[pattern])[0]
    }

    #[test]
    fn generates_test_for_simple_fault() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let mut podem = Podem::new(&n, 100);
        let fault = Fault {
            net: g.output,
            stuck_at_one: false,
        };
        // Output stuck-at-0 requires output 1 => any input at 0.
        match podem.generate(&n, fault) {
            PodemOutcome::Test(test) => assert!(check_test_detects(&n, fault, &test)),
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_is_proved_untestable() {
        // out = OR(a, NOT(a)) = constant 1: out/sa1 is untestable.
        let mut n = Netlist::new("taut");
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a], "inv");
        let or = n.add_gate(GateKind::Or, &[a, inv.output], "out");
        n.mark_output(or.output);
        let mut podem = Podem::new(&n, 1000);
        let outcome = podem.generate(
            &n,
            Fault {
                net: or.output,
                stuck_at_one: true,
            },
        );
        assert_eq!(outcome, PodemOutcome::Untestable);
    }

    #[test]
    fn every_testable_fault_of_s27_gets_a_valid_test() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut podem = Podem::new(&n, 500);
        let faults = all_net_faults(&n);
        let mut found = 0usize;
        for fault in faults {
            match podem.generate(&n, fault) {
                PodemOutcome::Test(test) => {
                    assert!(
                        check_test_detects(&n, fault, &test),
                        "invalid test for {}",
                        fault.describe(&n)
                    );
                    found += 1;
                }
                PodemOutcome::Untestable => {}
                PodemOutcome::Aborted => panic!("s27 should not need many backtracks"),
            }
        }
        // s27 has 17 nets (34 net faults) and very few redundant ones;
        // almost everything must receive a test.
        assert!(found >= 28, "only {found} tests found");
    }

    #[test]
    fn fault_on_pseudo_input_is_testable_through_the_scan_chain() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut podem = Podem::new(&n, 500);
        let q = n.pseudo_inputs()[0];
        for stuck in [false, true] {
            let fault = Fault {
                net: q,
                stuck_at_one: stuck,
            };
            match podem.generate(&n, fault) {
                PodemOutcome::Test(test) => assert!(check_test_detects(&n, fault, &test)),
                other => panic!("expected test for scan-cell fault, got {other:?}"),
            }
        }
    }

    /// Every fault of `netlist`, in fault-list order on one reused
    /// generator, must get exactly the oracle's outcome — the test vector
    /// bit for bit, or the same untestable/aborted verdict.
    fn assert_outcomes_match_oracle(netlist: &Netlist, backtrack_limit: usize) -> [usize; 3] {
        let mut podem = Podem::new(netlist, backtrack_limit);
        let oracle = FullSweepPodem::new(netlist, backtrack_limit);
        let mut tally = [0usize; 3];
        for fault in all_net_faults(netlist) {
            let outcome = podem.generate(netlist, fault);
            assert_eq!(
                outcome,
                oracle.generate(netlist, fault),
                "{}: {}",
                netlist.name(),
                fault.describe(netlist)
            );
            tally[match outcome {
                PodemOutcome::Test(_) => 0,
                PodemOutcome::Untestable => 1,
                PodemOutcome::Aborted => 2,
            }] += 1;
        }
        tally
    }

    #[test]
    fn outcomes_match_oracle_on_s27() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        for limit in [0, 1, 500] {
            assert_outcomes_match_oracle(&n, limit);
        }
    }

    /// Reduced-scale generated circuits exercise all three outcomes
    /// (the small backtrack limit forces aborts).
    #[test]
    fn outcomes_match_oracle_on_generated_circuits() {
        let mut tally = [0usize; 3];
        for name in ["s344", "s510", "s641", "s1238", "s1494"] {
            let circuit = CircuitFamily::iscas89_like(name)
                .unwrap()
                .scaled(0.2)
                .generate(1);
            for limit in [3, 30] {
                let counts = assert_outcomes_match_oracle(&circuit, limit);
                for (total, count) in tally.iter_mut().zip(counts) {
                    *total += count;
                }
            }
        }
        assert!(tally.iter().all(|&count| count > 0), "outcomes {tally:?}");
    }
}
