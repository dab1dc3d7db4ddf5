//! PODEM (path-oriented decision making) deterministic test generation.
//!
//! The implementation follows the textbook algorithm: decisions are made
//! only on the combinational inputs (primary inputs and scan-cell outputs —
//! the circuit is full scan), each decision is followed by three-valued
//! forward implication of both the good and the faulty machine, and the
//! search backtracks when the fault can no longer be activated or its effect
//! can no longer reach an observation point.
//!
//! # Fault-parallel search
//!
//! [`Podem`] searches up to 32 faults at once in one [`PackedWord`] per
//! net. The fault in *pair* `k` keeps its good machine in lane `k` and its
//! faulty machine in lane `32 + k`. Gate evaluation is lane-wise, so the
//! pairs never interact. Each search step is:
//!
//! 1. one settle of every pair through [`SimKernel::propagate_pinned`],
//!    whose output hook holds the faulty lane of each fault site at its
//!    stuck value (per-net stuck-at-0 and stuck-at-1 lane masks);
//! 2. one word-wide detection check over the observation points and one
//!    word-wide D-frontier scan over the union of the faults' fanout cones;
//! 3. per pair, exactly the step the one-fault algorithm takes next: a
//!    decision, or a backtrack (undo pops and a flip), writing only the
//!    pair's lanes of the inputs that change.
//!
//! A pair whose fault is finished is reset to the cached all-X state and
//! refilled with the next fault. Settling re-evaluates a gate once for
//! every fault whose cone it is in, instead of once per fault.
//!
//! A fault's lanes evolve exactly as they would alone, so its
//! [`PodemOutcome`] does not depend on the faults that share the word.
//! [`FaultSearch::outcome`] hands outcomes out in fault-list order, so a
//! caller can consume them as if it had searched one fault at a time.
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

/// Faults searched at once: pair `k` uses lane `k` for the good machine
/// and lane `PAIRS + k` for the faulty one.
const PAIRS: usize = 32;

/// Both lanes of pair 0; shifted left by `k` for pair `k`.
const PAIR0: u64 = 1 | 1 << PAIRS;

/// The search state of one pair.
#[derive(Debug, Clone)]
struct Pair {
    /// Position of the fault in the searched fault list.
    index: usize,
    fault: Fault,
    assignment: Vec<Logic>,
    /// Decision stack: (input index, value tried, second value tried?).
    stack: Vec<(usize, bool, bool)>,
    backtracks: usize,
    /// Topological positions of the gates in the fault's fanout cone.
    cone: Vec<u32>,
    /// The cone's first position and one past its last.
    span: (usize, usize),
}

/// PODEM test generator for a fixed netlist, searching up to 32 faults at
/// once (see the module documentation).
///
/// Both machines of every fault are implied through the shared
/// [`SimKernel`], so the generator carries no gate-evaluation logic of its
/// own. Its scratch (value buffer, worklist, pin masks, cones) is reused
/// across faults and searches.
#[derive(Debug, Clone)]
pub struct Podem {
    kernel: SimKernel<PackedWord>,
    input_position: Vec<Option<usize>>,
    /// Primary and pseudo outputs, deduplicated.
    observation: Vec<NetId>,
    backtrack_limit: usize,
    /// Settled values with every input unassigned and nothing pinned: the
    /// state a pair is reset to.
    unassigned: Vec<PackedWord>,
    values: Vec<PackedWord>,
    worklist: DirtyWorklist,
    /// Per net: the faulty lanes held at 0 and the faulty lanes held at 1.
    pins: Vec<(u64, u64)>,
    /// Per topological position: the pairs whose fault's fanout cone holds
    /// the gate.
    cone_pairs: Vec<u32>,
    pairs: Vec<Pair>,
    /// Pairs searching a fault.
    active: u32,
    /// Nets still to visit in a cone walk.
    walk: Vec<NetId>,
}

/// Per pair: both machines known and different at `word` — a fault effect
/// (D or D̄).
fn effect(word: PackedWord) -> u32 {
    let known = word.known();
    let value = word.can1();
    // Truncation keeps the low (good-machine) half, aligned with the
    // shifted faulty half.
    (known & (known >> PAIRS) & (value ^ (value >> PAIRS))) as u32
}

/// Per pair: both machines known at `word`.
fn resolved(word: PackedWord) -> u32 {
    let known = word.known();
    (known & (known >> PAIRS)) as u32
}

/// `true` when the good machine of `pair` is unknown at `word`.
fn good_is_x(word: PackedWord, pair: usize) -> bool {
    word.unknown() >> pair & 1 == 1
}

/// `word` with the lanes in `stuck0` held at 0 and those in `stuck1` at 1.
fn pin(word: PackedWord, (stuck0, stuck1): (u64, u64)) -> PackedWord {
    if stuck0 | stuck1 == 0 {
        return word;
    }
    PackedWord::from_planes(
        (word.can0() | stuck0) & !stuck1,
        (word.can1() | stuck1) & !stuck0,
    )
}

/// The set bits of a pair mask, lowest first.
fn pairs_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pair = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pair
        })
    })
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
        let mut observation = netlist.primary_outputs().to_vec();
        observation.extend(netlist.pseudo_outputs());
        observation.sort_unstable();
        observation.dedup();
        let all_x = vec![PackedWord::splat(Logic::X); kernel.inputs().len()];
        let unassigned = kernel.evaluate(netlist, &all_x).to_vec();
        let worklist = kernel.make_worklist();
        let idle = Pair {
            index: 0,
            fault: Fault {
                net: NetId::from_index(0),
                stuck_at_one: false,
            },
            assignment: Vec::new(),
            stack: Vec::new(),
            backtracks: 0,
            cone: Vec::new(),
            span: (0, 0),
        };
        Podem {
            input_position,
            observation,
            backtrack_limit,
            values: unassigned.clone(),
            unassigned,
            worklist,
            pins: vec![(0, 0); netlist.net_count()],
            cone_pairs: vec![0; netlist.gate_count()],
            pairs: vec![idle; PAIRS],
            active: 0,
            walk: Vec::new(),
            kernel,
        }
    }

    /// Combinational inputs in decision order (primary inputs then
    /// pseudo-inputs).
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        self.kernel.inputs()
    }

    /// Attempts to generate a test for `fault`: a search of one fault.
    pub fn generate(&mut self, netlist: &Netlist, fault: Fault) -> PodemOutcome {
        self.search(netlist, std::slice::from_ref(&fault))
            .outcome(0, |_| true)
    }

    /// Starts a search over `faults`; ask for outcomes, in fault-list
    /// order, with [`FaultSearch::outcome`]. Faults still in flight when a
    /// previous search was dropped are abandoned.
    pub fn search<'a>(&'a mut self, netlist: &'a Netlist, faults: &'a [Fault]) -> FaultSearch<'a> {
        self.release(self.active);
        FaultSearch {
            podem: self,
            netlist,
            faults,
            next: 0,
            finished: vec![None; faults.len()],
            killed: 0,
        }
    }

    /// Puts fault `faults[index]` into the idle `pair`: pins its site,
    /// marks the site's readers and records its fanout cone.
    fn launch(&mut self, netlist: &Netlist, pair: usize, index: usize, fault: Fault) {
        let inputs = self.kernel.inputs().len();
        let state = &mut self.pairs[pair];
        state.index = index;
        state.fault = fault;
        state.assignment.clear();
        state.assignment.resize(inputs, Logic::X);
        state.stack.clear();
        state.backtracks = 0;

        let lane = 1u64 << (PAIRS + pair);
        let pins = &mut self.pins[fault.net.index()];
        if fault.stuck_at_one {
            pins.1 |= lane;
        } else {
            pins.0 |= lane;
        }
        let site = self.values[fault.net.index()];
        let pinned = pin(site, *pins);
        if pinned != site {
            self.values[fault.net.index()] = pinned;
            self.kernel.mark_net_changed(fault.net, &mut self.worklist);
        }

        let bit = 1u32 << pair;
        state.cone.clear();
        let (mut first, mut end) = (usize::MAX, 0);
        self.walk.push(fault.net);
        while let Some(net) = self.walk.pop() {
            for &(gate, _) in netlist.loads(net) {
                let position = self.kernel.position_of(gate);
                if self.cone_pairs[position] & bit == 0 {
                    self.cone_pairs[position] |= bit;
                    state.cone.push(position as u32);
                    first = first.min(position);
                    end = end.max(position + 1);
                    self.walk.push(netlist.gate(gate).output);
                }
            }
        }
        state.span = (first.min(end), end);
        self.active |= bit;
    }

    /// Frees `pairs`: unpins their sites, forgets their cones and resets
    /// their lanes of every net to the unassigned state.
    fn release(&mut self, pairs: u32) {
        if pairs == 0 {
            return;
        }
        let mut lanes = 0u64;
        for pair in pairs_of(pairs) {
            let state = &self.pairs[pair];
            let lane = 1u64 << (PAIRS + pair);
            let pins = &mut self.pins[state.fault.net.index()];
            pins.0 &= !lane;
            pins.1 &= !lane;
            for &position in &state.cone {
                self.cone_pairs[position as usize] &= !(1 << pair);
            }
            lanes |= PAIR0 << pair;
        }
        // The unassigned state is settled and unpinned, so the reset lanes
        // stay settled; pending marks of other pairs are unaffected.
        for (word, reset) in self.values.iter_mut().zip(&self.unassigned) {
            *word = PackedWord::from_planes(
                (word.can0() & !lanes) | (reset.can0() & lanes),
                (word.can1() & !lanes) | (reset.can1() & lanes),
            );
        }
        self.active &= !pairs;
    }

    /// One search step of every active pair; outcomes land in `finished`
    /// by fault-list position, and the finished pairs are freed.
    fn step(&mut self, netlist: &Netlist, finished: &mut [Option<PodemOutcome>]) {
        self.settle(netlist);
        let detected = self
            .observation
            .iter()
            .fold(0, |mask, &net| mask | effect(self.values[net.index()]))
            & self.active;
        // Pairs whose site carries the activating value look for a
        // D-frontier gate.
        let mut activated = 0u32;
        for pair in pairs_of(self.active & !detected) {
            let fault = self.pairs[pair].fault;
            if self.values[fault.net.index()].lane(pair) == Logic::from_bool(!fault.stuck_at_one) {
                activated |= 1 << pair;
            }
        }
        let frontier = self.d_frontier(netlist, activated);
        let mut done = 0u32;
        for pair in pairs_of(self.active) {
            let outcome = if detected >> pair & 1 == 1 {
                Some(PodemOutcome::Test(std::mem::take(
                    &mut self.pairs[pair].assignment,
                )))
            } else {
                self.advance(netlist, pair, frontier[pair])
            };
            if let Some(outcome) = outcome {
                finished[self.pairs[pair].index] = Some(outcome);
                done |= 1 << pair;
            }
        }
        self.release(done);
    }

    /// The one-fault algorithm's next move for `pair`: a decision, or a
    /// backtrack to the latest untried alternative. Returns the outcome
    /// once the fault is aborted or proved untestable.
    fn advance(
        &mut self,
        netlist: &Netlist,
        pair: usize,
        frontier: Option<GateId>,
    ) -> Option<PodemOutcome> {
        let decision = self
            .objective(netlist, pair, frontier)
            .and_then(|(net, value)| self.backtrace(netlist, pair, net, value));
        if let Some((input_index, value)) = decision {
            self.pairs[pair].stack.push((input_index, value, false));
            self.assign(pair, input_index, Logic::from_bool(value));
            return None;
        }
        // No way forward: backtrack.
        while let Some((input_index, value, tried_both)) = self.pairs[pair].stack.pop() {
            if tried_both {
                self.assign(pair, input_index, Logic::X);
                continue;
            }
            let state = &mut self.pairs[pair];
            state.backtracks += 1;
            if state.backtracks > self.backtrack_limit {
                return Some(PodemOutcome::Aborted);
            }
            state.stack.push((input_index, !value, true));
            self.assign(pair, input_index, Logic::from_bool(!value));
            return None;
        }
        Some(PodemOutcome::Untestable)
    }

    /// Writes one combinational input in both machines of `pair` (the
    /// faulty lane stays pinned if the input is a fault site) and marks
    /// its readers dirty.
    fn assign(&mut self, pair: usize, input_index: usize, value: Logic) {
        self.pairs[pair].assignment[input_index] = value;
        let net = self.kernel.inputs()[input_index];
        let lanes = PAIR0 << pair;
        let (can0, can1) = match value {
            Logic::Zero => (lanes, 0),
            Logic::One => (0, lanes),
            Logic::X => (lanes, lanes),
        };
        let old = self.values[net.index()];
        let word = pin(
            PackedWord::from_planes((old.can0() & !lanes) | can0, (old.can1() & !lanes) | can1),
            self.pins[net.index()],
        );
        if word != old {
            self.values[net.index()] = word;
            self.kernel.mark_net_changed(net, &mut self.worklist);
        }
    }

    /// Forward three-valued implication of every pair: re-settles the
    /// fanout cones of the nets written since the last call.
    fn settle(&mut self, netlist: &Netlist) {
        let pins = &self.pins;
        self.kernel.propagate_pinned(
            netlist,
            &mut self.values,
            &mut self.worklist,
            |net, word| pin(word, pins[net.index()]),
            |_, _, _| {},
        );
    }

    /// Picks the next objective `(net, value)` of `pair`, given its
    /// D-frontier gate.
    fn objective(
        &self,
        netlist: &Netlist,
        pair: usize,
        frontier: Option<GateId>,
    ) -> Option<(NetId, bool)> {
        // Phase 1: activate the fault.
        let fault = self.pairs[pair].fault;
        let site_good = self.values[fault.net.index()].lane(pair);
        if site_good == Logic::X {
            return Some((fault.net, !fault.stuck_at_one));
        }
        if site_good == Logic::from_bool(fault.stuck_at_one) {
            // The fault site is pinned to the stuck value in the good
            // machine: activation is impossible under the current
            // assignment.
            return None;
        }
        // Phase 2: propagate — take the D-frontier gate and set one of its
        // unknown inputs to the non-controlling value.
        let gate = netlist.gate(frontier?);
        let unknown = gate
            .inputs
            .iter()
            .copied()
            .find(|&n| good_is_x(self.values[n.index()], pair))?;
        let non_controlling = match gate.kind.controlling_value() {
            Some(cv) => !cv,
            None => true,
        };
        Some((unknown, non_controlling))
    }

    /// Per pair in `wanted`: the first gate (in topological order) whose
    /// output does not yet carry a definite fault-effect status (at least
    /// one machine still evaluates it to X) but which has a fault effect
    /// (good ≠ faulty, both known) on at least one input.
    ///
    /// One scan over the union of the wanted faults' fanout cones serves
    /// every pair. Outside a fault's cone its two machines agree on every
    /// net, so no gate there has an effect on an input, and the first match
    /// inside the cone is the first over the full order.
    fn d_frontier(&self, netlist: &Netlist, wanted: u32) -> [Option<GateId>; PAIRS] {
        let mut frontier = [None; PAIRS];
        if wanted == 0 {
            return frontier;
        }
        let (start, end) = pairs_of(wanted).fold((usize::MAX, 0), |(start, end), pair| {
            let span = self.pairs[pair].span;
            (start.min(span.0), end.max(span.1))
        });
        let gates = self.cone_pairs[start..end]
            .iter()
            .zip(&self.kernel.order()[start..end]);
        let mut pending = wanted;
        for (&cone, &gate_id) in gates {
            let candidates = cone & pending;
            if candidates == 0 {
                continue;
            }
            let gate = netlist.gate(gate_id);
            let open = candidates & !resolved(self.values[gate.output.index()]);
            if open == 0 {
                continue;
            }
            let hits = open
                & gate
                    .inputs
                    .iter()
                    .fold(0, |mask, &n| mask | effect(self.values[n.index()]));
            for pair in pairs_of(hits) {
                frontier[pair] = Some(gate_id);
            }
            pending &= !hits;
            if pending == 0 {
                break;
            }
        }
        frontier
    }

    /// Maps an internal objective of `pair` to a primary-input assignment
    /// by walking backwards through unknown gate inputs.
    fn backtrace(
        &self,
        netlist: &Netlist,
        pair: usize,
        objective_net: NetId,
        objective_value: bool,
    ) -> Option<(usize, bool)> {
        let mut net = objective_net;
        let mut value = objective_value;
        loop {
            if let Some(position) = self.input_position[net.index()] {
                // Don't re-assign an already decided input.
                if !good_is_x(self.values[net.index()], pair) {
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
                .find(|&n| good_is_x(self.values[n.index()], pair))?;
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

/// A fault-parallel search over one fault list, started by
/// [`Podem::search`].
///
/// The search keeps every pair busy with the next faults the caller still
/// wants, speculatively ahead of the fault it was asked for, and keeps
/// finished outcomes until they are asked for. Asking for outcomes in
/// increasing fault-list position therefore returns exactly what searching
/// each of those faults alone would have returned.
#[derive(Debug)]
pub struct FaultSearch<'a> {
    podem: &'a mut Podem,
    netlist: &'a Netlist,
    faults: &'a [Fault],
    /// Next fault-list position to consider for an idle pair.
    next: usize,
    /// Finished outcomes not yet asked for, by fault-list position.
    finished: Vec<Option<PodemOutcome>>,
    killed: usize,
}

impl FaultSearch<'_> {
    /// The outcome of `faults[index]`.
    ///
    /// `wanted(i)` says whether fault `i` still needs a search. It is
    /// checked before a fault is put into a pair, and again for every fault
    /// in flight when this method is called: an in-flight fault that is no
    /// longer wanted is stopped (see [`FaultSearch::killed`]). A fault that
    /// stops being wanted must stay unwanted, and `index` must be wanted.
    /// Ask for increasing positions; an outcome is handed out once.
    ///
    /// # Panics
    ///
    /// Panics if `faults[index]` is not searched: it was not wanted when
    /// its turn came, or its outcome was already handed out.
    pub fn outcome(&mut self, index: usize, wanted: impl Fn(usize) -> bool) -> PodemOutcome {
        let podem = &mut *self.podem;
        let unwanted = pairs_of(podem.active)
            .filter(|&pair| !wanted(podem.pairs[pair].index))
            .fold(0u32, |mask, pair| mask | 1 << pair);
        self.killed += unwanted.count_ones() as usize;
        podem.release(unwanted);
        loop {
            if let Some(outcome) = self.finished[index].take() {
                return outcome;
            }
            let mut idle = !podem.active;
            while idle != 0 && self.next < self.faults.len() {
                if wanted(self.next) {
                    let pair = idle.trailing_zeros() as usize;
                    podem.launch(self.netlist, pair, self.next, self.faults[self.next]);
                    idle &= idle - 1;
                }
                self.next += 1;
            }
            assert!(
                podem.active != 0,
                "fault {index} is not searched: it was not wanted, or its outcome was taken"
            );
            podem.step(self.netlist, &mut self.finished);
        }
    }

    /// Faults stopped in flight because they were no longer wanted.
    #[must_use]
    pub fn killed(&self) -> usize {
        self.killed
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

    /// Every fault of `netlist` must get exactly the oracle's outcome —
    /// the test vector bit for bit, or the same untestable/aborted verdict —
    /// whatever faults share its word: the fault list is searched in
    /// batches of 1, 2, 31, 32 and 33 faults on one reused generator (33
    /// refills a pair mid-batch).
    fn assert_outcomes_match_oracle(netlist: &Netlist, backtrack_limit: usize) -> [usize; 3] {
        let faults = all_net_faults(netlist);
        let oracle = FullSweepPodem::new(netlist, backtrack_limit);
        let expected: Vec<PodemOutcome> = faults
            .iter()
            .map(|&fault| oracle.generate(netlist, fault))
            .collect();
        let mut podem = Podem::new(netlist, backtrack_limit);
        for width in [1, 2, 31, 32, 33] {
            for (batch, expected) in faults.chunks(width).zip(expected.chunks(width)) {
                let mut search = podem.search(netlist, batch);
                for (index, expected) in expected.iter().enumerate() {
                    assert_eq!(
                        &search.outcome(index, |_| true),
                        expected,
                        "{}: {}, batch width {width}, limit {backtrack_limit}",
                        netlist.name(),
                        batch[index].describe(netlist)
                    );
                }
            }
        }
        let mut tally = [0usize; 3];
        for outcome in &expected {
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
        for limit in [0, 1, 3, 30, 500] {
            assert_outcomes_match_oracle(&n, limit);
        }
    }

    /// Reduced-scale generated circuits exercise all three outcomes
    /// (the small backtrack limits force aborts).
    #[test]
    fn outcomes_match_oracle_on_generated_circuits() {
        let mut tally = [0usize; 3];
        for name in ["s344", "s510", "s641", "s1238", "s1494"] {
            let circuit = CircuitFamily::iscas89_like(name)
                .unwrap()
                .scaled(0.2)
                .generate(1);
            for limit in [0, 1, 3, 30] {
                let counts = assert_outcomes_match_oracle(&circuit, limit);
                for (total, count) in tally.iter_mut().zip(counts) {
                    *total += count;
                }
            }
        }
        assert!(tally.iter().all(|&count| count > 0), "outcomes {tally:?}");
    }

    /// Faults that stop being wanted are stopped in flight or never
    /// started, an abandoned search leaves nothing behind, and the faults
    /// still asked for keep the oracle's outcome.
    #[test]
    fn fault_parallel_search_stops_unwanted_faults() {
        let circuit = CircuitFamily::iscas89_like("s641")
            .unwrap()
            .scaled(0.2)
            .generate(1);
        let faults = all_net_faults(&circuit);
        let oracle = FullSweepPodem::new(&circuit, 30);
        let mut podem = Podem::new(&circuit, 30);

        // Abandon a search with every pair busy.
        let mut search = podem.search(&circuit, &faults);
        assert_eq!(
            search.outcome(0, |_| true),
            oracle.generate(&circuit, faults[0])
        );
        drop(search);

        // After the first outcome, faults 1..=20 stop being wanted: the
        // ones still in flight are stopped, the others are never asked for.
        let cutoff = std::cell::Cell::new(0);
        let wanted = |index: usize| index == 0 || index > cutoff.get();
        let mut search = podem.search(&circuit, &faults);
        assert_eq!(
            search.outcome(0, wanted),
            oracle.generate(&circuit, faults[0])
        );
        cutoff.set(20);
        for (index, &fault) in faults.iter().enumerate().skip(21) {
            assert_eq!(
                search.outcome(index, wanted),
                oracle.generate(&circuit, fault),
                "{}",
                fault.describe(&circuit)
            );
        }
        assert!(search.killed() > 0, "no fault was stopped in flight");
        drop(search);

        // One-fault calls on the reused generator.
        for &fault in faults.iter().take(40) {
            assert_eq!(
                podem.generate(&circuit, fault),
                oracle.generate(&circuit, fault)
            );
        }
    }
}
