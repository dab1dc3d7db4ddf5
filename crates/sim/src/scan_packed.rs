//! Packed multi-pattern scan-shift replay, 64 patterns per pass.
//!
//! The scalar [`ScanShiftSim`](crate::scan::ScanShiftSim) replays one test
//! pattern at a time on the event-driven incremental simulator. Its packed
//! sibling here exploits the one structural fact that makes the replay
//! lane-parallelisable: after a full shift-in the chain holds *exactly* the
//! pattern's scan part, so every pattern's capture state — and therefore the
//! chain contents its successor starts shifting against — is a pure function of
//! that one pattern. One packed pass over the
//! [`SimKernel<PackedWord>`](crate::SimKernel) computes the capture states of
//! a whole ≤64-pattern block; shifting each capture word up by one lane
//! ([`PackedWord::shifted_lanes`]) then hands lane `k` the state pattern
//! `k − 1` left behind, and the per-cycle chain ripple of the whole block
//! proceeds in lock-step: one topological pass per shift cycle evaluates a
//! block's worth of circuit states at once.
//!
//! [`PackedScanShiftSim::run`] is the one replay entry point: it takes an
//! optional [`CancelFlag`] and a per-cycle [`ShiftCycle`] observer.
//!
//! Transition counting reduces to popcounts: two consecutive per-net words are
//! compared with [`PackedWord::count_differs`] (the lane-parallel `!=`
//! popcount over the active lanes, honouring `X` semantics) and the
//! result is added to the net's toggle counter. Every counter is an integer and
//! every lane reproduces the scalar simulator's settled values exactly, so the
//! resulting [`ShiftStats`] are **bit-identical** to [`ScanShiftSim::run`], and
//! the agreement is pinned by tests at both the crate and the suite level.
//!
//! On top of the lane parallelism the replay is **event-driven**:
//! consecutive shift cycles change only the rippled chain cells, so instead
//! of a full topological pass the replay seeds a dirty-gate worklist with
//! the inputs whose packed word actually moved and lets
//! [`SimKernel::propagate_from`] re-evaluate just their fanout cones.
//! Because change detection is whole-word, the settled state is *exactly*
//! a full topological pass's state in every lane (the tests compare every
//! lane of every observed state with the scalar replay), and
//! [`ShiftCycle::changed`] hands incremental observers the per-cycle delta.
//!
//! [`ScanShiftSim::run`]: crate::scan::ScanShiftSim::run

use scanpower_netlist::{NetId, Netlist};

use crate::failpoint;
use crate::kernel::{DirtyWorklist, LogicWord, PackedWord, SimKernel};
use crate::logic::Logic;
use crate::parallel::{CancelFlag, Canceled, BLOCK_LANES};
use crate::scan::{ScanPattern, ShiftConfig, ShiftPhase, ShiftStats};

/// One observed state of the packed scan replay, as handed to the
/// [`PackedScanShiftSim::run`] observer.
///
/// Lane `k` of every word in [`values`](ShiftCycle::values) is the state of
/// the block's pattern `k` at this cycle; lanes at or beyond
/// [`lanes`](ShiftCycle::lanes) are unspecified. Events arrive cycle-major
/// per ≤64-pattern block: `chain_len` [`ShiftPhase::Shift`] states
/// followed by exactly one [`ShiftPhase::Capture`] state, which also marks
/// the end of the block.
#[derive(Debug, Clone, Copy)]
pub struct ShiftCycle<'a> {
    /// Which phase of the scan protocol this state belongs to.
    pub phase: ShiftPhase,
    /// One settled packed word per net, indexed by [`NetId::index`].
    pub values: &'a [PackedWord],
    /// Number of active lanes (patterns) in the current block.
    pub lanes: usize,
    /// The nets whose packed word differs from the **previous
    /// [`ShiftPhase::Shift`] event** of the same replay, each listed once —
    /// `None` when that delta is not available (every
    /// [`ShiftPhase::Capture`] event, and the first shift cycle of each
    /// block, whose state is rebuilt from the block's capture pass rather
    /// than rippled from the previous block), in which case
    /// consumers must assume every net changed. Incremental observers (the
    /// static-power pin patch) update their per-gate state from this
    /// list.
    pub changed: Option<&'a [NetId]>,
}

/// Packed test-per-scan shift simulator: up to 64 patterns per pass.
///
/// Produces [`ShiftStats`] bit-identical to the scalar
/// [`ScanShiftSim`](crate::scan::ScanShiftSim) for any pattern count
/// (including partial final blocks), any [`ShiftConfig`] (forced
/// pseudo-inputs, PI control values, `count_capture`), patterns containing
/// [`Logic::X`].
#[derive(Debug, Clone)]
pub struct PackedScanShiftSim {
    pi_nets: Vec<NetId>,
    pseudo_nets: Vec<NetId>,
    d_nets: Vec<NetId>,
}

impl PackedScanShiftSim {
    /// Builds a packed simulator for `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> PackedScanShiftSim {
        PackedScanShiftSim {
            pi_nets: netlist.primary_inputs().to_vec(),
            pseudo_nets: netlist.pseudo_inputs(),
            d_nets: netlist.pseudo_outputs(),
        }
    }

    /// Runs the scan protocol over `patterns` and returns transition counts,
    /// handing every visited packed circuit state to `observer` as a
    /// [`ShiftCycle`] and polling a cooperative [`CancelFlag`] once per
    /// ≤64-pattern block.
    ///
    /// Each shift cycle re-evaluates only the fanout cones of the inputs
    /// that moved and carries the list of nets that changed since the
    /// previous shift event (see [`ShiftCycle::changed`]), which
    /// incremental observers such as `scanpower_power::PackedShiftLeakage`
    /// use to re-gather only the gates whose input state moved. The
    /// returned [`ShiftStats`] and every observed lane state are
    /// **bit-identical** to the scalar
    /// [`ScanShiftSim`](crate::scan::ScanShiftSim).
    ///
    /// Blocks arrive in pattern order, so an order-sensitive floating-point
    /// observer stays bit-identical to the scalar replay by buffering a
    /// block's per-cycle lane values and flushing them lane-first on the
    /// capture event.
    ///
    /// Cancellation is block-granular: the replay finishes the block in
    /// flight (so the observer always sees complete blocks) and returns
    /// [`Canceled`] at the next block boundary. With `cancel` `None` the
    /// replay never fails.
    ///
    /// The `sim::replay::block` failpoint (keyed by block index) fires at
    /// the start of every block and `sim::replay::cycle` (keyed by the
    /// replay-global kernel-pass ordinal) at every shift cycle — compiled
    /// to no-ops without the `fault-inject` feature.
    ///
    /// # Examples
    ///
    /// ```
    /// use scanpower_netlist::bench;
    /// use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};
    /// use scanpower_sim::PackedScanShiftSim;
    ///
    /// let circuit = bench::parse(bench::S27_BENCH, "s27")?;
    /// let patterns = vec![
    ///     ScanPattern::from_bools(&[true, false, true, false], &[true, false, true]),
    ///     ScanPattern::from_bools(&[false, true, false, true], &[false, true, true]),
    /// ];
    /// let config = ShiftConfig::traditional(circuit.dff_count());
    /// let stats = PackedScanShiftSim::new(&circuit).run(
    ///     &circuit,
    ///     &patterns,
    ///     &config,
    ///     None,
    ///     |_| {},
    /// )?;
    /// // Bit-identical to the scalar pattern-at-a-time replay.
    /// assert_eq!(stats, ScanShiftSim::new(&circuit).run(&circuit, &patterns, &config));
    /// assert_eq!(stats.shift_cycles, patterns.len() * circuit.dff_count());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Canceled`] when `cancel` reports cancellation at a block
    /// boundary. All partial work is discarded.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's widths or the configuration's widths do not
    /// match the circuit, or if the combinational part is cyclic.
    pub fn run<F>(
        &self,
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
        cancel: Option<&CancelFlag>,
        mut observer: F,
    ) -> Result<ShiftStats, Canceled>
    where
        F: FnMut(&ShiftCycle<'_>),
    {
        let chain_len = self.pseudo_nets.len();
        let pi_count = self.pi_nets.len();
        assert_eq!(
            config.forced_pseudo.len(),
            chain_len,
            "forced_pseudo must have one entry per scan cell"
        );
        if let Some(values) = &config.shift_pi_values {
            assert_eq!(
                values.len(),
                pi_count,
                "shift_pi_values must have one entry per primary input"
            );
        }

        let mut kernel = SimKernel::<PackedWord>::new(netlist);
        let width = kernel.inputs().len();
        debug_assert_eq!(width, pi_count + chain_len);
        let net_count = netlist.net_count();

        let mut toggles = vec![0u64; net_count];
        let mut total: u64 = 0;
        let mut shift_cycles = 0usize;

        // Lane-0 carries between blocks: the circuit state the scalar
        // simulator would hold before the block's first pattern starts
        // shifting, and the chain contents that pattern shifts against.
        // Initially: the first pattern's shift conditions over an all-zero
        // chain (the scalar simulator's initial state).
        let mut carry_chain: Vec<Logic> = vec![Logic::Zero; chain_len];
        let mut carry_prev: Vec<Logic> = {
            let mut inputs = vec![PackedWord::splat(Logic::X); width];
            let initial_pi = match (&config.shift_pi_values, patterns.first()) {
                (Some(values), _) => values.clone(),
                (None, Some(first)) => first.pi.clone(),
                (None, None) => vec![Logic::Zero; pi_count],
            };
            for (slot, value) in inputs[..pi_count].iter_mut().zip(&initial_pi) {
                *slot = PackedWord::splat(*value);
            }
            for (slot, forced) in inputs[pi_count..].iter_mut().zip(&config.forced_pseudo) {
                *slot = PackedWord::splat(forced.unwrap_or(Logic::Zero));
            }
            kernel
                .evaluate(netlist, &inputs)
                .iter()
                .map(|word| word.lane(0))
                .collect()
        };

        // Per-block scratch, reused across blocks.
        let mut prev = vec![PackedWord::splat(Logic::X); net_count];
        let mut shift_pi = vec![PackedWord::splat(Logic::X); pi_count];
        let forced: Vec<Option<PackedWord>> = config
            .forced_pseudo
            .iter()
            .map(|forced| forced.map(PackedWord::splat))
            .collect();
        // Event-driven scratch, reused across cycles and blocks.
        let mut worklist = kernel.make_worklist();
        let mut changed: Vec<NetId> = Vec::new();
        // Replay-global kernel-pass ordinal, the `sim::replay::cycle` key.
        let mut cycle_ordinal: u64 = 0;

        for (block, chunk) in patterns.chunks(BLOCK_LANES).enumerate() {
            if let Some(cancel) = cancel {
                cancel.checkpoint()?;
            }
            failpoint::strike("sim::replay::block", block as u64);
            let lanes = chunk.len();
            for pattern in chunk {
                assert_eq!(pattern.pi.len(), pi_count, "pattern PI width");
                assert_eq!(pattern.scan.len(), chain_len, "pattern scan width");
            }

            // Capture pass: lane k = Evaluate(pi_k, scan_k). A full shift-in
            // leaves the chain holding exactly the pattern's scan part, so
            // this one pass yields every pattern's capture state — and, via
            // the D inputs, the chain contents its successor starts from.
            let mut capture_inputs = vec![PackedWord::splat(Logic::X); width];
            for (lane, pattern) in chunk.iter().enumerate() {
                for (i, &value) in pattern.pi.iter().enumerate() {
                    capture_inputs[i].set_lane(lane, value);
                }
                for (cell, &value) in pattern.scan.iter().enumerate() {
                    capture_inputs[pi_count + cell].set_lane(lane, value);
                }
            }
            let capture_values = kernel.evaluate(netlist, &capture_inputs).to_vec();

            // Previous-state words: lane k starts from pattern k−1's capture
            // state; lane 0 from the carry (the previous block's last
            // capture, or the initial state).
            for ((slot, &capture), &carry) in prev.iter_mut().zip(&capture_values).zip(&carry_prev)
            {
                *slot = capture.shifted_lanes(carry);
            }

            // Chain start: lane k shifts against pattern k−1's captured
            // response (the D-input values of its capture state).
            let mut chain: Vec<PackedWord> = self
                .d_nets
                .iter()
                .zip(&carry_chain)
                .map(|(&d, &carry)| capture_values[d.index()].shifted_lanes(carry))
                .collect();

            // Primary inputs during shift: the control values (same for
            // every lane) or each lane's own pattern PI part.
            match &config.shift_pi_values {
                Some(values) => {
                    for (slot, &value) in shift_pi.iter_mut().zip(values) {
                        *slot = PackedWord::splat(value);
                    }
                }
                None => {
                    for slot in shift_pi.iter_mut() {
                        *slot = PackedWord::splat(Logic::X);
                    }
                    for (lane, pattern) in chunk.iter().enumerate() {
                        for (i, &value) in pattern.pi.iter().enumerate() {
                            shift_pi[i].set_lane(lane, value);
                        }
                    }
                }
            }

            // Shift the patterns in, one cell per cycle, all lanes in
            // lock-step. The bit injected at cycle `c` ends up in cell
            // `chain_len - 1 - c`, exactly like the scalar replay.
            for cycle in 0..chain_len {
                failpoint::strike("sim::replay::cycle", cycle_ordinal);
                cycle_ordinal += 1;
                let mut incoming = PackedWord::splat(Logic::X);
                for (lane, pattern) in chunk.iter().enumerate() {
                    incoming.set_lane(lane, pattern.scan[chain_len - 1 - cycle]);
                }
                for i in (1..chain_len).rev() {
                    chain[i] = chain[i - 1];
                }
                chain[0] = incoming;

                // `prev` is the settled previous state: seed only the inputs
                // whose word actually moved — the rippled (unforced) chain
                // cells, plus the primary inputs on the block's first cycle
                // (their words are per-block constants, so later cycles
                // cannot move them) — then let the kernel re-evaluate their
                // fanout cones.
                changed.clear();
                if cycle == 0 {
                    for (&net, &word) in self.pi_nets.iter().zip(&shift_pi) {
                        seed_changed_input(
                            &kernel,
                            net,
                            word,
                            lanes,
                            &mut prev,
                            &mut worklist,
                            &mut changed,
                            &mut toggles,
                            &mut total,
                        );
                    }
                }
                for ((&net, &cell), forced) in self.pseudo_nets.iter().zip(&chain).zip(&forced) {
                    let word = forced.unwrap_or(cell);
                    seed_changed_input(
                        &kernel,
                        net,
                        word,
                        lanes,
                        &mut prev,
                        &mut worklist,
                        &mut changed,
                        &mut toggles,
                        &mut total,
                    );
                }
                kernel.propagate_from(netlist, &mut prev, &mut worklist, |net, old, new| {
                    let count = u64::from(new.count_differs(old, lanes));
                    if count != 0 {
                        toggles[net.index()] += count;
                        total += count;
                    }
                    changed.push(net);
                });
                observer(&ShiftCycle {
                    phase: ShiftPhase::Shift,
                    values: &prev,
                    lanes,
                    // The first cycle's delta is relative to the block's
                    // rebuilt base state, not the previous shift event —
                    // observers must not trust it.
                    changed: if cycle == 0 { None } else { Some(&changed) },
                });
            }
            shift_cycles += lanes * chain_len;

            // Capture: the pattern's PI values are applied and the muxes
            // return to normal mode — the state computed up front.
            if config.count_capture {
                for (toggle, (&capture, &last)) in
                    toggles.iter_mut().zip(capture_values.iter().zip(&*prev))
                {
                    let count = u64::from(capture.count_differs(last, lanes));
                    if count != 0 {
                        *toggle += count;
                        total += count;
                    }
                }
            }
            observer(&ShiftCycle {
                phase: ShiftPhase::Capture,
                values: &capture_values,
                lanes,
                changed: None,
            });

            // Carries for the next block: the last pattern's capture state
            // and captured response.
            for (carry, &capture) in carry_prev.iter_mut().zip(&capture_values) {
                *carry = capture.lane(lanes - 1);
            }
            for (carry, &d) in carry_chain.iter_mut().zip(&self.d_nets) {
                *carry = capture_values[d.index()].lane(lanes - 1);
            }
        }

        Ok(ShiftStats {
            patterns: patterns.len(),
            shift_cycles,
            toggles,
            total_toggles: total,
        })
    }
}

/// Applies one computed input word to the event-driven replay state: counts
/// the active-lane toggle delta, overwrites the stored word, marks the
/// net's readers dirty and records the net in the cycle's changed list —
/// but only when the word actually differs (whole-word comparison, matching
/// the change detection of [`SimKernel::propagate_from`], so the state
/// buffer stays exactly equal to a full topological pass in every lane).
// Called per input per shift cycle from `run`, which is instantiated in the
// caller's crate; `#[inline]` keeps it inlinable there.
#[inline]
#[allow(clippy::too_many_arguments)]
fn seed_changed_input(
    kernel: &SimKernel<PackedWord>,
    net: NetId,
    word: PackedWord,
    lanes: usize,
    prev: &mut [PackedWord],
    worklist: &mut DirtyWorklist,
    changed: &mut Vec<NetId>,
    toggles: &mut [u64],
    total: &mut u64,
) {
    let old = prev[net.index()];
    if word == old {
        return;
    }
    let count = u64::from(word.count_differs(old, lanes));
    if count != 0 {
        toggles[net.index()] += count;
        *total += count;
    }
    prev[net.index()] = word;
    kernel.mark_net_changed(net, worklist);
    changed.push(net);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::random_bool_patterns;
    use crate::scan::ScanShiftSim;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use scanpower_netlist::bench;

    fn s27() -> Netlist {
        bench::parse(bench::S27_BENCH, "s27").unwrap()
    }

    fn bool_patterns_for(netlist: &Netlist, count: usize, seed: u64) -> Vec<ScanPattern> {
        let pi = netlist.primary_inputs().len();
        let ff = netlist.dff_count();
        random_bool_patterns(pi + ff, count, seed)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect()
    }

    fn ternary_patterns_for(netlist: &Netlist, count: usize, seed: u64) -> Vec<ScanPattern> {
        let pi = netlist.primary_inputs().len();
        let ff = netlist.dff_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut draw = |width: usize| -> Vec<Logic> {
                    (0..width)
                        .map(|_| {
                            if rng.gen_bool(0.25) {
                                Logic::X
                            } else {
                                Logic::from_bool(rng.gen_bool(0.5))
                            }
                        })
                        .collect()
                };
                ScanPattern {
                    pi: draw(pi),
                    scan: draw(ff),
                }
            })
            .collect()
    }

    /// The replay without a cancel flag, which never fails.
    fn replay(
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
        observer: impl FnMut(&ShiftCycle<'_>),
    ) -> ShiftStats {
        PackedScanShiftSim::new(netlist)
            .run(netlist, patterns, config, None, observer)
            .expect("a replay without a cancel flag never fails")
    }

    fn assert_agreement(netlist: &Netlist, patterns: &[ScanPattern], config: &ShiftConfig) {
        let scalar = ScanShiftSim::new(netlist).run(netlist, patterns, config);
        assert_eq!(replay(netlist, patterns, config, |_| {}), scalar);
    }

    /// Cooperative cancellation is block-granular and deterministic: a
    /// pre-tripped flag (or an expired zero deadline) cancels at the first
    /// block boundary before any observer event, while `None` — and an
    /// untripped flag — replay to completion with bit-identical stats.
    #[test]
    fn run_polls_the_cancel_flag_at_block_boundaries() {
        use crate::parallel::{CancelFlag, Canceled};
        let n = s27();
        let patterns = bool_patterns_for(&n, 150, 11);
        let config = ShiftConfig::traditional(n.dff_count());
        let sim = PackedScanShiftSim::new(&n);
        let run = |cancel: &CancelFlag, observer: &mut dyn FnMut(&ShiftCycle<'_>)| {
            sim.run(&n, &patterns, &config, Some(cancel), observer)
        };

        let tripped = CancelFlag::new();
        tripped.cancel();
        let mut events = 0usize;
        assert_eq!(run(&tripped, &mut |_| events += 1), Err(Canceled));
        assert_eq!(events, 0, "canceled before the first block's events");

        let expired = CancelFlag::with_deadline(std::time::Duration::ZERO);
        assert_eq!(run(&expired, &mut |_| {}), Err(Canceled));

        let stats = run(&CancelFlag::new(), &mut |_| {}).expect("untripped flag never cancels");
        assert_eq!(stats, replay(&n, &patterns, &config, |_| {}));
    }

    #[test]
    fn packed_matches_scalar_on_traditional_config() {
        let n = s27();
        // 5 patterns (single partial block) and 150 (two full blocks + a
        // 22-lane tail, exercising the cross-block carries).
        for count in [1, 5, 150] {
            let patterns = bool_patterns_for(&n, count, 11);
            assert_agreement(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
        }
    }

    #[test]
    fn packed_matches_scalar_with_x_patterns() {
        let n = s27();
        let patterns = ternary_patterns_for(&n, 130, 23);
        assert_agreement(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
    }

    #[test]
    fn packed_matches_scalar_with_forced_pseudo_inputs() {
        let n = s27();
        let patterns = bool_patterns_for(&n, 70, 3);
        // Force a mix: cell 0 to 1, cell 2 to 0, cell 1 rippling.
        let mut config = ShiftConfig::traditional(n.dff_count());
        config.forced_pseudo[0] = Some(Logic::One);
        config.forced_pseudo[2] = Some(Logic::Zero);
        assert_agreement(&n, &patterns, &config);
    }

    #[test]
    fn packed_matches_scalar_with_pi_control_values() {
        let n = s27();
        let patterns = bool_patterns_for(&n, 70, 5);
        let pi_values: Vec<Logic> = (0..n.primary_inputs().len())
            .map(|i| Logic::from_bool(i % 2 == 0))
            .collect();
        let config = ShiftConfig::with_pi_control(n.dff_count(), pi_values);
        assert_agreement(&n, &patterns, &config);
    }

    #[test]
    fn packed_matches_scalar_with_count_capture() {
        let n = s27();
        let patterns = ternary_patterns_for(&n, 90, 7);
        for count_capture in [false, true] {
            let mut config = ShiftConfig::traditional(n.dff_count());
            config.count_capture = count_capture;
            assert_agreement(&n, &patterns, &config);
        }
    }

    #[test]
    fn packed_handles_empty_pattern_set() {
        let n = s27();
        let config = ShiftConfig::traditional(n.dff_count());
        let stats = replay(&n, &[], &config, |_| {});
        assert_eq!(stats, ScanShiftSim::new(&n).run(&n, &[], &config));
        assert_eq!(stats.patterns, 0);
        assert_eq!(stats.shift_cycles, 0);
        assert_eq!(stats.total_toggles, 0);
        assert_eq!(stats.average_toggles_per_cycle(), 0.0);
    }

    /// The event-driven replay against the scalar replay: identical
    /// `ShiftStats`; `chain_len` shift events and one capture event per
    /// block; lane `k` of every observed state equal, net by net, to the
    /// scalar observer's state for the block's pattern `k` at the same
    /// cycle; and a `changed` list, when present, naming exactly the nets
    /// whose word moved since the previous shift event.
    fn assert_event_driven_agreement(
        netlist: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
    ) {
        let mut scalar_states: Vec<(ShiftPhase, Vec<Logic>)> = Vec::new();
        let scalar_stats = ScanShiftSim::new(netlist).run_with_observer(
            netlist,
            patterns,
            config,
            |phase, values| scalar_states.push((phase, values.to_vec())),
        );

        // Scalar order: per pattern, chain_len shifts then a capture.
        let chain_len = netlist.dff_count();
        let per_pattern = chain_len + 1;
        let mut block_start = 0usize;
        let mut cycle_in_block = 0usize;
        let mut index = 0usize;
        let mut last_shift: Option<Vec<PackedWord>> = None;
        let stats = replay(netlist, patterns, config, |cycle| {
            let expected_lanes = (patterns.len() - block_start).min(BLOCK_LANES);
            assert_eq!(cycle.lanes, expected_lanes, "event {index}: lanes");
            let step = match cycle.phase {
                ShiftPhase::Shift => cycle_in_block,
                ShiftPhase::Capture => chain_len,
            };
            for lane in 0..cycle.lanes {
                let pattern = block_start + lane;
                let (phase, values) = &scalar_states[pattern * per_pattern + step];
                assert_eq!(cycle.phase, *phase, "event {index}: phase");
                for net in netlist.net_ids() {
                    assert_eq!(
                        cycle.values[net.index()].lane(lane),
                        values[net.index()],
                        "event {index}: pattern {pattern} net {}",
                        netlist.net(net).name
                    );
                }
            }
            if let Some(changed) = cycle.changed {
                // The delta, when claimed, must cover exactly the nets
                // whose word moved since the previous shift event.
                let previous = last_shift.as_ref().expect("delta implies a prior shift");
                for net in netlist.net_ids() {
                    let moved = cycle.values[net.index()] != previous[net.index()];
                    assert_eq!(
                        changed.contains(&net),
                        moved,
                        "event {index}: net {} delta",
                        netlist.net(net).name
                    );
                }
            }
            match cycle.phase {
                ShiftPhase::Shift => {
                    last_shift = Some(cycle.values.to_vec());
                    cycle_in_block += 1;
                }
                ShiftPhase::Capture => {
                    assert_eq!(cycle_in_block, chain_len, "event {index}: shifts per block");
                    block_start += cycle.lanes;
                    cycle_in_block = 0;
                }
            }
            index += 1;
        });
        assert_eq!(block_start, patterns.len(), "every pattern observed");
        assert_eq!(
            index,
            patterns.len().div_ceil(BLOCK_LANES) * per_pattern,
            "chain_len shifts and one capture per block"
        );
        assert_eq!(stats, scalar_stats);
    }

    #[test]
    fn observer_lane_states_match_scalar_states() {
        let n = s27();
        let patterns = bool_patterns_for(&n, 70, 9);
        assert_event_driven_agreement(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
    }

    /// Zero-activity cycles: every pattern shifts the same constant through
    /// the chain under held PI control values, so after the first ripple
    /// settles nothing changes — the event-driven replay must still report
    /// the identical (all-zero-delta) states and stats.
    #[test]
    fn event_driven_handles_zero_activity_cycles() {
        let n = s27();
        let constant = ScanPattern {
            pi: vec![Logic::Zero; n.primary_inputs().len()],
            scan: vec![Logic::One; n.dff_count()],
        };
        let patterns = vec![constant; 70]; // full block + partial tail
        let config = ShiftConfig::with_pi_control(
            n.dff_count(),
            vec![Logic::Zero; n.primary_inputs().len()],
        );
        assert_event_driven_agreement(&n, &patterns, &config);

        // Fully forced chain: the combinational part sees no shift activity
        // at all; only the rippling pseudo-inputs themselves would toggle,
        // and even those are forced here.
        let mut frozen = config;
        frozen.forced_pseudo = vec![Some(Logic::Zero); n.dff_count()];
        assert_event_driven_agreement(&n, &patterns, &frozen);
    }

    /// All-lanes-change cycles: alternating all-zero / all-one scan parts
    /// flip every chain cell in every lane every cycle — the event-driven
    /// worklist degenerates to a full topological pass and must still
    /// agree.
    #[test]
    fn event_driven_handles_all_lanes_change_cycles() {
        let n = s27();
        let patterns: Vec<ScanPattern> = (0..66)
            .map(|index| {
                let bit = index % 2 == 0;
                ScanPattern {
                    pi: vec![Logic::from_bool(!bit); n.primary_inputs().len()],
                    scan: vec![Logic::from_bool(bit); n.dff_count()],
                }
            })
            .collect();
        assert_event_driven_agreement(&n, &patterns, &ShiftConfig::traditional(n.dff_count()));
    }

    /// X-churn: scan parts cycling 0 → X → 0 ripple X in and out of the
    /// chain, so nets repeatedly change between known and unknown without
    /// ever changing their known value — `differs` (X only equals X) must
    /// drive the worklist, not the known bits.
    #[test]
    fn event_driven_handles_x_churn() {
        let n = s27();
        let patterns: Vec<ScanPattern> = (0..67)
            .map(|index| {
                let value = match index % 3 {
                    0 => Logic::Zero,
                    1 => Logic::X,
                    _ => Logic::Zero,
                };
                ScanPattern {
                    pi: vec![Logic::Zero; n.primary_inputs().len()],
                    scan: vec![value; n.dff_count()],
                }
            })
            .collect();
        let config = ShiftConfig::with_pi_control(
            n.dff_count(),
            vec![Logic::Zero; n.primary_inputs().len()],
        );
        assert_event_driven_agreement(&n, &patterns, &config);
    }

    /// Partial final blocks: pattern counts straddling the 64-lane block
    /// size, with random ternary content, forced cells and capture
    /// counting — the masked toggle counts and the unmasked change
    /// detection must not disagree.
    #[test]
    fn event_driven_handles_partial_final_blocks() {
        let n = s27();
        for count in [1usize, 63, 64, 65, 129] {
            let patterns = ternary_patterns_for(&n, count, count as u64);
            let mut config = ShiftConfig::traditional(n.dff_count());
            config.forced_pseudo[1] = Some(Logic::One);
            config.count_capture = true;
            assert_event_driven_agreement(&n, &patterns, &config);
        }
    }

    /// The generated-circuit sweep: ternary patterns with a partial final
    /// block, a forced cell and capture counting.
    #[test]
    fn packed_matches_scalar_on_a_generated_circuit() {
        use scanpower_netlist::generator::CircuitFamily;
        let circuit = CircuitFamily::iscas89_like("s344")
            .unwrap()
            .scaled(0.4)
            .generate(2);
        let patterns = ternary_patterns_for(&circuit, 80, 31);
        let mut config = ShiftConfig::traditional(circuit.dff_count());
        config.forced_pseudo[1] = Some(Logic::Zero);
        config.count_capture = true;
        assert_event_driven_agreement(&circuit, &patterns, &config);
    }
}
