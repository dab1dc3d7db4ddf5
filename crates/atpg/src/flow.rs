use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scanpower_netlist::Netlist;
use scanpower_sim::fault::{all_net_faults, Fault, FaultSim};
use scanpower_sim::patterns::random_bool_patterns;
use scanpower_sim::scan::ScanPattern;
use scanpower_sim::{BlockDriver, Logic};
use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::podem::{Podem, PodemOutcome};

/// Configuration of the two-phase ATPG flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgConfig {
    /// Patterns generated per random block (each block is fault simulated
    /// and only kept if it detects new faults).
    pub random_block_size: usize,
    /// Stop the random phase after this many consecutive blocks without a
    /// new detection.
    pub random_stale_blocks: usize,
    /// Hard cap on the number of random blocks.
    pub random_max_blocks: usize,
    /// PODEM backtrack limit per fault in the deterministic phase.
    pub backtrack_limit: usize,
    /// Stop once this fault coverage has been reached (1.0 = complete).
    pub target_coverage: f64,
    /// RNG seed; the whole flow is deterministic for a given seed.
    pub seed: u64,
    /// Worker threads for the random phase's block-parallel fault
    /// simulation, resolved by the workspace-wide
    /// [`resolve_worker_threads`](scanpower_sim::parallel::resolve_worker_threads)
    /// policy: `0` = one per available hardware thread (`SCANPOWER_THREADS`
    /// overrides), `1` = the sequential fallback. The generated test set is
    /// bit-identical whatever the thread count.
    pub threads: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_block_size: 64,
            random_stale_blocks: 3,
            random_max_blocks: 32,
            backtrack_limit: 200,
            target_coverage: 0.995,
            seed: 0xa70a_70a7,
            threads: 0,
        }
    }
}

/// Canonical wire encoding: fields in declaration order. The ATPG
/// configuration is part of the result-cache key (with `threads` zeroed by
/// the caller, since the generated test set is thread-count invariant).
impl Wire for AtpgConfig {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.random_block_size.encode_into(writer);
        self.random_stale_blocks.encode_into(writer);
        self.random_max_blocks.encode_into(writer);
        self.backtrack_limit.encode_into(writer);
        self.target_coverage.encode_into(writer);
        self.seed.encode_into(writer);
        self.threads.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AtpgConfig {
            random_block_size: usize::decode_from(reader)?,
            random_stale_blocks: usize::decode_from(reader)?,
            random_max_blocks: usize::decode_from(reader)?,
            backtrack_limit: usize::decode_from(reader)?,
            target_coverage: f64::decode_from(reader)?,
            seed: u64::decode_from(reader)?,
            threads: usize::decode_from(reader)?,
        })
    }
}

impl AtpgConfig {
    /// A cheaper profile for very large circuits or fast test runs.
    #[must_use]
    pub fn fast() -> AtpgConfig {
        AtpgConfig {
            random_block_size: 64,
            random_stale_blocks: 2,
            random_max_blocks: 8,
            backtrack_limit: 30,
            target_coverage: 0.9,
            ..AtpgConfig::default()
        }
    }
}

/// A generated scan test set.
///
/// Coverage and counters describe the patterns the flow kept and the work
/// it did to keep them: under a pattern budget
/// ([`AtpgFlow::run_with_budget`]) that is the budgeted set, never the
/// longer set an unbudgeted run would have produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestSet {
    /// Fully-specified patterns over the combinational inputs (primary
    /// inputs followed by scan cells, the order of
    /// [`Netlist::combinational_inputs`]).
    pub patterns: Vec<Vec<bool>>,
    /// Single stuck-at fault coverage of `patterns` over the collapsed net
    /// fault list.
    pub fault_coverage: f64,
    /// Number of faults in the fault list.
    pub total_faults: usize,
    /// Number of faults `patterns` detect.
    pub detected_faults: usize,
    /// Patterns contributed by the random phase.
    pub random_patterns: usize,
    /// Patterns contributed by the deterministic (PODEM) phase.
    pub deterministic_patterns: usize,
    /// Faults proved untestable by PODEM before the flow stopped.
    pub untestable_faults: usize,
    /// Faults aborted (backtrack limit hit) before the flow stopped.
    pub aborted_faults: usize,
    /// Number of candidate patterns fault-simulated by the random phase.
    pub random_patterns_simulated: usize,
    /// Number of 64-wide fault-free simulation passes the random phase
    /// needed to simulate them (one per ≤64-pattern block; a scalar random
    /// phase would have needed one pass per candidate pattern).
    pub random_sim_passes: usize,
}

impl TestSet {
    /// Splits the flat patterns into [`ScanPattern`]s for the scan-shift
    /// simulator.
    #[must_use]
    pub fn to_scan_patterns(&self, netlist: &Netlist) -> Vec<ScanPattern> {
        let pi = netlist.primary_inputs().len();
        self.patterns
            .iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect()
    }
}

/// One speculatively fault-simulated candidate block of the random phase:
/// its generated patterns and, per ≤64-pattern chunk, the frozen-snapshot
/// detecting-lane masks from [`FaultSim::detect_block_lanes`].
type SimulatedBlock = (Vec<Vec<bool>>, Vec<Vec<(usize, u64)>>);

/// The two-phase (random + PODEM) ATPG flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgFlow {
    config: AtpgConfig,
}

impl AtpgFlow {
    /// Creates a flow with the given configuration.
    #[must_use]
    pub fn new(config: AtpgConfig) -> AtpgFlow {
        AtpgFlow { config }
    }

    /// The configuration of the flow.
    #[must_use]
    pub fn config(&self) -> &AtpgConfig {
        &self.config
    }

    /// Generates a compact test set for all single stuck-at net faults of
    /// `netlist`: [`AtpgFlow::run_with_budget`] without a budget.
    #[must_use]
    pub fn run(&self, netlist: &Netlist) -> TestSet {
        self.run_with_budget(netlist, None)
    }

    /// Generates a test set for all single stuck-at net faults of
    /// `netlist`, stopping once `budget` patterns have been kept (`None`:
    /// no budget, exactly [`AtpgFlow::run`]).
    ///
    /// The flow only ever appends patterns, and a kept pattern never
    /// depends on a later one, so the budgeted patterns are exactly the
    /// first `budget` patterns of the unbudgeted set. The budget is checked
    /// right after each kept random-phase pattern, before the next lane is
    /// credited, and before each PODEM target; past the stop no pattern is
    /// kept and no verdict is counted. Coverage and every [`TestSet`]
    /// counter describe the budgeted set and the work spent on it.
    #[must_use]
    pub fn run_with_budget(&self, netlist: &Netlist, budget: Option<usize>) -> TestSet {
        let faults = all_net_faults(netlist);
        let mut podem = Podem::new(netlist, self.config.backtrack_limit);
        let mut search = podem.search(netlist, &faults);
        self.run_with(netlist, &faults, budget, |index, wanted| {
            search.outcome(index, wanted)
        })
    }

    /// The flow over any deterministic-phase generator, stopping once
    /// `budget` patterns are kept. `outcome(index, wanted)` returns the
    /// PODEM outcome of `faults[index]`; `wanted(i)` says whether fault `i`
    /// still needs one. Production passes the fault-parallel
    /// [`FaultSearch`](crate::podem::FaultSearch), the identity tests the
    /// full-sweep oracle one fault at a time.
    fn run_with(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        budget: Option<usize>,
        mut outcome: impl FnMut(usize, &dyn Fn(usize) -> bool) -> PodemOutcome,
    ) -> TestSet {
        let sim = FaultSim::new(netlist);
        let width = netlist.combinational_inputs().len();
        let mut detected = vec![false; faults.len()];
        let mut patterns: Vec<Vec<bool>> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // Phase 1: random patterns with fault dropping, fault-simulated 64
        // patterns per pass through the shared packed kernel and sharded
        // across threads by the BlockDriver, one group of candidate blocks
        // per dispatch. Every ≤64-pattern chunk computes its per-fault
        // detecting-lane masks against a frozen snapshot of the detected
        // flags (fault effects are independent of each other, so the masks
        // cannot change while earlier chunks merge); the masks are then
        // merged strictly in pattern order with per-pattern first-detection
        // credit and a per-pattern target-coverage cutoff. The kept test
        // set — and every TestSet counter — is what a pattern-at-a-time
        // loop would have produced, whatever the thread count: speculative
        // chunks such a loop would never have reached are discarded unseen
        // and uncounted.
        let driver = BlockDriver::new(self.config.threads);
        let total_faults = faults.len();
        let target_met = |detected_count: usize| {
            total_faults == 0
                || detected_count as f64 / total_faults as f64 >= self.config.target_coverage
        };
        let budget_full = |kept: usize| budget.is_some_and(|limit| kept >= limit);
        let mut detected_count = 0usize;
        let mut stale = 0usize;
        let mut random_patterns = 0usize;
        let mut random_patterns_simulated = 0usize;
        let mut random_sim_passes = 0usize;
        let mut next_block = 0usize;
        // Dispatch groups ramp up 1 → 2 → 4 → … → threads: flows that meet
        // the target (or go stale) within the first block or two never pay
        // for a full thread-count group of speculative blocks, while
        // long-running phases quickly reach full-width dispatches. The
        // grouping only decides how much is speculated per dispatch — the
        // merge below is identical for any group size, so the output does
        // not depend on it.
        let mut group_ramp = 1usize;
        'random: while next_block < self.config.random_max_blocks {
            if target_met(detected_count) || budget_full(patterns.len()) {
                break;
            }
            let group_len = group_ramp
                .min(driver.threads())
                .min(self.config.random_max_blocks - next_block);
            group_ramp = group_ramp.saturating_mul(2);
            // One job per outer block: the job generates the block's
            // patterns (the seed depends only on the block index) and
            // fault-simulates its ≤64-pattern chunks, so no serial work is
            // left on the merge thread beyond the merge itself.
            let group: Vec<SimulatedBlock> = driver.map(group_len, |job| {
                let block_index = next_block + job;
                let block = random_bool_patterns(
                    width,
                    self.config.random_block_size,
                    self.config.seed ^ (block_index as u64 + 1).wrapping_mul(0x9e37_79b9),
                );
                let masks = block
                    .chunks(64)
                    .map(|chunk| sim.detect_block_lanes(netlist, faults, chunk, &detected))
                    .collect();
                (block, masks)
            });

            // Sequential merge, in pattern order.
            for (block, block_masks) in &group {
                let mut kept_any = false;
                for (chunk, masks) in block.chunks(64).zip(block_masks) {
                    if target_met(detected_count) {
                        // The pattern-at-a-time loop stops before this
                        // chunk; its (speculative) pass is not counted.
                        break 'random;
                    }
                    random_sim_passes += 1;
                    random_patterns_simulated += chunk.len();
                    // Bucket each still-active fault under the first lane
                    // that detects it; faults already credited to an
                    // earlier chunk of this group drop out here.
                    let mut newly_by_lane: Vec<Vec<usize>> = vec![Vec::new(); chunk.len()];
                    for &(fault, lanes) in masks {
                        if !detected[fault] {
                            newly_by_lane[lanes.trailing_zeros() as usize].push(fault);
                        }
                    }
                    for (lane, newly) in newly_by_lane.iter().enumerate() {
                        if target_met(detected_count) {
                            // Mid-chunk cutoff: patterns past this lane are
                            // neither credited nor kept, exactly like the
                            // pattern-at-a-time loop that breaks here.
                            break 'random;
                        }
                        for &fault in newly {
                            detected[fault] = true;
                            detected_count += 1;
                        }
                        if !newly.is_empty() {
                            patterns.push(chunk[lane].clone());
                            random_patterns += 1;
                            kept_any = true;
                            if budget_full(patterns.len()) {
                                // Budget stop: later lanes are neither
                                // credited nor kept, like the target
                                // cutoff above.
                                break 'random;
                            }
                        }
                    }
                }
                if kept_any {
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= self.config.random_stale_blocks {
                        break 'random;
                    }
                }
            }
            next_block += group_len;
        }

        // Phase 2: PODEM on the remaining faults, merged strictly in
        // fault-list order. `detected_count` stays the running number of
        // set flags, so the cutoff is the random phase's `target_met`
        // expression without a recount per target. A full budget ends the
        // phase before the next target. The generator may search later
        // faults ahead (the fault-parallel search does); a fault's outcome
        // depends on that fault alone, and one this loop skips or never
        // reaches is neither merged nor counted, so the test set is what
        // searching one fault at a time produces.
        let mut deterministic_patterns = 0usize;
        let mut untestable = 0usize;
        let mut aborted = 0usize;
        for index in 0..faults.len() {
            if budget_full(patterns.len()) {
                break;
            }
            if detected[index] || target_met(detected_count) {
                continue;
            }
            match outcome(index, &|i| !detected[i]) {
                PodemOutcome::Test(test) => {
                    let pattern: Vec<bool> = test
                        .iter()
                        .map(|v| match v {
                            Logic::One => true,
                            Logic::Zero => false,
                            // Fill don't-cares randomly, like ATOM's random
                            // fill; the choice only affects compaction.
                            Logic::X => rng.gen_bool(0.5),
                        })
                        .collect();
                    let newly = sim.detect_into(
                        netlist,
                        faults,
                        std::slice::from_ref(&pattern),
                        &mut detected,
                    );
                    detected_count += newly;
                    if newly > 0 {
                        patterns.push(pattern);
                        deterministic_patterns += 1;
                    }
                }
                PodemOutcome::Untestable => untestable += 1,
                PodemOutcome::Aborted => aborted += 1,
            }
        }

        TestSet {
            patterns,
            fault_coverage: if faults.is_empty() {
                1.0
            } else {
                detected_count as f64 / faults.len() as f64
            },
            total_faults: faults.len(),
            detected_faults: detected_count,
            random_patterns,
            deterministic_patterns,
            untestable_faults: untestable,
            aborted_faults: aborted,
            random_patterns_simulated,
            random_sim_passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::oracle::FullSweepPodem;
    use scanpower_netlist::bench;
    use scanpower_netlist::generator::CircuitFamily;

    /// With a target no flow can stop short of, every fault is accounted
    /// for (detected, proved untestable or aborted), and the reported
    /// detected count is what fault simulation of the kept patterns finds.
    #[test]
    fn s27_reaches_high_coverage() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let test_set = AtpgFlow::new(AtpgConfig {
            target_coverage: 1.0,
            ..AtpgConfig::default()
        })
        .run(&n);
        assert!(test_set.fault_coverage > 0.9, "{}", test_set.fault_coverage);
        assert!(!test_set.patterns.is_empty());
        let faults = all_net_faults(&n);
        assert_eq!(test_set.total_faults, faults.len());
        assert!(
            test_set.detected_faults + test_set.untestable_faults + test_set.aborted_faults
                >= test_set.total_faults,
            "{test_set:?}"
        );
        let flags = FaultSim::new(&n).detect(&n, &faults, &test_set.patterns);
        assert_eq!(
            test_set.detected_faults,
            flags.iter().filter(|&&d| d).count()
        );
    }

    #[test]
    fn flow_is_deterministic() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let a = AtpgFlow::new(AtpgConfig::default()).run(&n);
        let b = AtpgFlow::new(AtpgConfig::default()).run(&n);
        assert_eq!(a, b);
    }

    #[test]
    fn patterns_have_full_width_and_convert_to_scan_patterns() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let test_set = AtpgFlow::new(AtpgConfig::fast()).run(&n);
        let width = n.combinational_inputs().len();
        assert!(test_set.patterns.iter().all(|p| p.len() == width));
        let scan = test_set.to_scan_patterns(&n);
        assert_eq!(scan.len(), test_set.patterns.len());
        assert!(scan
            .iter()
            .all(|p| p.pi.len() == n.primary_inputs().len() && p.scan.len() == n.dff_count()));
    }

    #[test]
    fn synthetic_circuit_gets_reasonable_coverage() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(1);
        let test_set = AtpgFlow::new(AtpgConfig::fast()).run(&circuit);
        // Synthetic random logic contains genuinely redundant faults, so the
        // raw coverage is lower than on the real benchmark; what matters is
        // that the flow accounts for every fault (detected, proved
        // untestable, or explicitly aborted) and produces a compact set.
        assert!(
            test_set.fault_coverage > 0.6,
            "coverage {}",
            test_set.fault_coverage
        );
        let efficiency = (test_set.detected_faults + test_set.untestable_faults) as f64
            / test_set.total_faults as f64;
        assert!(efficiency > 0.75, "fault efficiency {efficiency}");
        assert!(test_set.patterns.len() < 400);
    }

    #[test]
    fn random_phase_amortises_simulation_passes() {
        // The random phase must evaluate ≥10× more candidate patterns than
        // it spends fault-free simulation passes — the point of routing it
        // through the 64-wide packed kernel.
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(1);
        let test_set = AtpgFlow::new(AtpgConfig::default()).run(&circuit);
        assert!(test_set.random_patterns_simulated >= 64);
        assert!(
            test_set.random_patterns_simulated >= 10 * test_set.random_sim_passes,
            "{} patterns in {} passes",
            test_set.random_patterns_simulated,
            test_set.random_sim_passes
        );
    }

    /// The documented Phase-1 contract, executed literally: one pattern at
    /// a time, coverage checked before every pattern, fault dropping,
    /// block-level staleness. The flow must reproduce this exactly.
    fn pattern_at_a_time_random_phase(netlist: &Netlist, config: &AtpgConfig) -> Vec<Vec<bool>> {
        let faults = all_net_faults(netlist);
        let sim = FaultSim::new(netlist);
        let width = netlist.combinational_inputs().len();
        let mut detected = vec![false; faults.len()];
        let coverage = |detected: &[bool]| {
            if detected.is_empty() {
                1.0
            } else {
                detected.iter().filter(|&&d| d).count() as f64 / detected.len() as f64
            }
        };
        let mut kept = Vec::new();
        let mut stale = 0usize;
        'outer: for block_index in 0..config.random_max_blocks {
            if coverage(&detected) >= config.target_coverage {
                break;
            }
            let block = random_bool_patterns(
                width,
                config.random_block_size,
                config.seed ^ (block_index as u64 + 1).wrapping_mul(0x9e37_79b9),
            );
            let mut kept_any = false;
            for pattern in &block {
                if coverage(&detected) >= config.target_coverage {
                    break 'outer;
                }
                let newly = sim.detect_into(
                    netlist,
                    &faults,
                    std::slice::from_ref(pattern),
                    &mut detected,
                );
                if newly > 0 {
                    kept.push(pattern.clone());
                    kept_any = true;
                }
            }
            if kept_any {
                stale = 0;
            } else {
                stale += 1;
                if stale >= config.random_stale_blocks {
                    break;
                }
            }
        }
        kept
    }

    /// Regression for the mid-block coverage overshoot: with a target the
    /// random phase reaches inside a 64-lane chunk, the kept pattern count
    /// is pinned to the pattern-at-a-time loop's — crediting stops at the
    /// exact pattern where the target is crossed.
    #[test]
    fn random_phase_stops_at_target_coverage_mid_chunk() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let config = AtpgConfig {
            target_coverage: 0.55,
            ..AtpgConfig::default()
        };
        let reference = pattern_at_a_time_random_phase(&n, &config);
        let test_set = AtpgFlow::new(config.clone()).run(&n);
        // The target is met mid-phase, so PODEM contributes nothing and the
        // test set is exactly the random-phase patterns.
        assert_eq!(test_set.deterministic_patterns, 0);
        assert_eq!(test_set.patterns, reference);
        assert_eq!(test_set.random_patterns, reference.len());
        // No overshoot: the target is reached, and dropping the last kept
        // pattern would fall below it again.
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        assert!(sim.coverage(&n, &faults, &test_set.patterns) >= config.target_coverage);
        assert!(
            sim.coverage(
                &n,
                &faults,
                &test_set.patterns[..test_set.patterns.len() - 1]
            ) < config.target_coverage
        );
    }

    /// Without a reachable target the (parallel) random phase must still
    /// match the pattern-at-a-time loop pattern for pattern.
    #[test]
    fn random_phase_matches_pattern_at_a_time_loop() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        for threads in [1, 2, 5] {
            let config = AtpgConfig {
                threads,
                ..AtpgConfig::default()
            };
            let reference = pattern_at_a_time_random_phase(&n, &config);
            let test_set = AtpgFlow::new(config).run(&n);
            assert_eq!(
                &test_set.patterns[..test_set.random_patterns],
                reference.as_slice(),
                "threads {threads}"
            );
        }
    }

    /// The whole flow — patterns, coverage, and every counter — is
    /// bit-identical across thread counts, including counts that do not
    /// divide the block count.
    #[test]
    fn flow_is_identical_across_thread_counts() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(1);
        for base in [AtpgConfig::fast(), AtpgConfig::default()] {
            let sequential = AtpgFlow::new(AtpgConfig {
                threads: 1,
                ..base.clone()
            })
            .run(&circuit);
            for threads in [0, 2, 3, 7] {
                let parallel = AtpgFlow::new(AtpgConfig {
                    threads,
                    ..base.clone()
                })
                .run(&circuit);
                assert_eq!(
                    parallel, sequential,
                    "threads {threads} diverged from sequential"
                );
            }
        }
    }

    /// The event-driven flow must produce exactly the test set of the
    /// full-sweep PODEM oracle on every Table I family (scaled to about a
    /// hundred gates), for both profiles and any thread count.
    #[test]
    fn test_sets_match_oracle_on_every_table1_family() {
        // PODEM patterns, untestable and aborted verdicts over the sweep.
        let mut podem_tally = [0usize; 3];
        for family in CircuitFamily::table1() {
            let circuit = family.scaled(100.0 / family.gates() as f64).generate(1);
            let faults = all_net_faults(&circuit);
            for base in [AtpgConfig::fast(), AtpgConfig::default()] {
                let oracle_podem = FullSweepPodem::new(&circuit, base.backtrack_limit);
                let oracle = AtpgFlow::new(AtpgConfig {
                    threads: 1,
                    ..base.clone()
                })
                .run_with(&circuit, &faults, None, |index, _| {
                    oracle_podem.generate(&circuit, faults[index])
                });
                for (total, count) in podem_tally.iter_mut().zip([
                    oracle.deterministic_patterns,
                    oracle.untestable_faults,
                    oracle.aborted_faults,
                ]) {
                    *total += count;
                }
                for threads in [1, 3, 0] {
                    let test_set = AtpgFlow::new(AtpgConfig {
                        threads,
                        ..base.clone()
                    })
                    .run(&circuit);
                    assert_eq!(
                        test_set,
                        oracle,
                        "{} (backtrack limit {}), threads {threads}",
                        family.name(),
                        base.backtrack_limit
                    );
                }
            }
        }
        assert!(
            podem_tally.iter().all(|&count| count > 0),
            "PODEM {podem_tally:?}"
        );
    }

    /// A pattern budget keeps exactly a prefix of the unbudgeted test set,
    /// and its coverage is what fault simulation of that prefix finds, on
    /// every Table I family (scaled to about a hundred gates), for both
    /// profiles and any thread count. A zero budget does no work; a budget
    /// the flow never reaches, and no budget at all, change nothing.
    #[test]
    fn budgeted_test_sets_are_prefixes_on_every_table1_family() {
        let mut stopped_in = [0usize; 2];
        for family in CircuitFamily::table1() {
            let circuit = family.scaled(100.0 / family.gates() as f64).generate(1);
            let faults = all_net_faults(&circuit);
            let sim = FaultSim::new(&circuit);
            for base in [AtpgConfig::fast(), AtpgConfig::default()] {
                let config = |threads| AtpgConfig {
                    threads,
                    ..base.clone()
                };
                let full = AtpgFlow::new(config(1)).run(&circuit);
                let generated = full.patterns.len();
                for threads in [1, 3, 0] {
                    let flow = AtpgFlow::new(config(threads));
                    assert_eq!(flow.run_with_budget(&circuit, None), full);
                    for budget in [0, 1, 16, 32, generated + 1] {
                        let label = format!(
                            "{} (backtrack limit {}), budget {budget}, threads {threads}",
                            family.name(),
                            base.backtrack_limit
                        );
                        let budgeted = flow.run_with_budget(&circuit, Some(budget));
                        let kept = budget.min(generated);
                        assert_eq!(budgeted.patterns, full.patterns[..kept], "{label}");
                        assert_eq!(
                            budgeted.random_patterns + budgeted.deterministic_patterns,
                            kept,
                            "{label}"
                        );
                        let detected = sim
                            .detect(&circuit, &faults, &budgeted.patterns)
                            .iter()
                            .filter(|&&d| d)
                            .count();
                        assert_eq!(budgeted.detected_faults, detected, "{label}");
                        assert_eq!(
                            budgeted.fault_coverage,
                            detected as f64 / faults.len() as f64,
                            "{label}"
                        );
                        if budget == 0 {
                            // Nothing kept, and no work done to keep it.
                            assert_eq!(
                                budgeted.random_sim_passes
                                    + budgeted.untestable_faults
                                    + budgeted.aborted_faults,
                                0,
                                "{label}"
                            );
                        } else if budget > generated {
                            assert_eq!(budgeted, full, "{label}");
                        } else if budget < generated {
                            stopped_in[usize::from(budget > full.random_patterns)] += 1;
                        }
                    }
                }
            }
        }
        // The sweep stops both phases: inside the random phase and inside
        // PODEM.
        assert!(stopped_in.iter().all(|&n| n > 0), "{stopped_in:?}");
    }

    /// With the random phase off, PODEM targets every fault, so a merged
    /// test detects faults that are still being searched ahead of it. The
    /// fault-parallel flow stops or discards those searches and must still
    /// produce exactly the test set, verdict counters included, of the
    /// full-sweep oracle merged one fault at a time.
    #[test]
    fn fault_parallel_kills_match_oracle_flow() {
        let mut circuits = vec![bench::parse(bench::S27_BENCH, "s27").unwrap()];
        for name in ["s344", "s641", "s1238", "s1494"] {
            let family = CircuitFamily::iscas89_like(name).unwrap();
            circuits.push(family.scaled(100.0 / family.gates() as f64).generate(1));
        }
        let mut killed = 0;
        for circuit in &circuits {
            let faults = all_net_faults(circuit);
            for backtrack_limit in [3, 30] {
                let flow = AtpgFlow::new(AtpgConfig {
                    random_max_blocks: 0,
                    target_coverage: 1.0,
                    backtrack_limit,
                    ..AtpgConfig::default()
                });
                let oracle_podem = FullSweepPodem::new(circuit, backtrack_limit);
                let oracle = flow.run_with(circuit, &faults, None, |index, _| {
                    oracle_podem.generate(circuit, faults[index])
                });
                let mut podem = Podem::new(circuit, backtrack_limit);
                let mut search = podem.search(circuit, &faults);
                let test_set = flow.run_with(circuit, &faults, None, |index, wanted| {
                    search.outcome(index, wanted)
                });
                killed += search.killed();
                let label = format!("{} (backtrack limit {backtrack_limit})", circuit.name());
                assert_eq!(test_set, oracle, "{label}");
                assert_eq!(flow.run(circuit), oracle, "{label}");
                assert!(
                    test_set.deterministic_patterns < test_set.detected_faults,
                    "{label}: no test detected a second fault"
                );
            }
        }
        assert!(killed > 0, "no search was stopped in flight");
    }

    #[test]
    fn coverage_verified_independently_by_fault_simulation() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let test_set = AtpgFlow::new(AtpgConfig::default()).run(&n);
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let coverage = sim.coverage(&n, &faults, &test_set.patterns);
        assert!((coverage - test_set.fault_coverage).abs() < 1e-9);
    }
}
