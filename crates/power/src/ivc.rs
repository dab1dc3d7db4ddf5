use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scanpower_netlist::Netlist;
use scanpower_sim::kernel::pack_logic_patterns;
use scanpower_sim::{BlockDriver, Logic, PackedWord, SimKernel};

use crate::leakage::LeakageEstimator;

/// Simulation-based minimum-leakage input vector search (input vector
/// control, Halter & Najm style).
///
/// The paper uses this twice: \[14\]/\[15\]-style IVC is the state of the art
/// it builds on, and the proposed flow uses the same random-sampling search
/// to assign the controlled inputs that are still don't-care after
/// `FindControlledInputPattern()` finishes ("the number of the required
/// simulations is far less than the total possible vectors").
///
/// The Monte-Carlo sampling runs on the 64-wide packed simulation kernel:
/// candidate vectors are evaluated in blocks of up to 64 per topological
/// pass ([`IvcResult::sim_passes`] counts the passes), so the search costs
/// ~64× fewer circuit evaluations than a scalar loop — and the per-block
/// leakage read-out rides the estimator's lane-parallel ternary-table
/// gather ([`LeakageEstimator::circuit_leakage_lanes`]), not a per-lane
/// scalar lookup. The blocks are
/// independent, so they are additionally sharded across threads by the
/// [`BlockDriver`] (one kernel clone per worker); the winning vector and
/// its leakage are bit-identical whatever the thread count, because block
/// results are reduced in block order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputVectorControl {
    /// Number of random completions to evaluate.
    pub samples: usize,
    /// RNG seed (the search is deterministic for a given seed).
    pub seed: u64,
    /// Worker threads for the block-parallel evaluation, resolved by the
    /// workspace-wide
    /// [`resolve_worker_threads`](scanpower_sim::parallel::resolve_worker_threads)
    /// policy: `0` = one per available hardware thread (`SCANPOWER_THREADS`
    /// overrides), `1` = the sequential fallback.
    pub threads: usize,
}

impl Default for InputVectorControl {
    fn default() -> Self {
        InputVectorControl {
            samples: 256,
            seed: 0x5ca9_90e5,
            threads: 0,
        }
    }
}

impl InputVectorControl {
    /// Creates a search with the default sample budget.
    #[must_use]
    pub fn new() -> InputVectorControl {
        InputVectorControl::default()
    }

    /// Creates a search with an explicit sample budget and seed.
    #[must_use]
    pub fn with_budget(samples: usize, seed: u64) -> InputVectorControl {
        InputVectorControl {
            samples,
            seed,
            ..InputVectorControl::default()
        }
    }

    /// Returns the search with an explicit worker thread count (`0` = one
    /// per available hardware thread, `1` = sequential). The result does
    /// not depend on the choice.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> InputVectorControl {
        self.threads = threads;
        self
    }

    /// Finds a low-leakage completion of `template`.
    ///
    /// `template` has one entry per combinational input (primary inputs then
    /// pseudo-inputs, the order of [`SimKernel::inputs`]); positions holding
    /// [`Logic::X`] are free and will be assigned, known positions are kept.
    /// Returns the best complete vector found and its leakage.
    ///
    /// [`SimKernel::inputs`]: scanpower_sim::SimKernel::inputs
    ///
    /// # Panics
    ///
    /// Panics if `template` has the wrong width.
    #[must_use]
    pub fn search(
        &self,
        netlist: &Netlist,
        estimator: &LeakageEstimator,
        template: &[Logic],
    ) -> IvcResult {
        let free: Vec<usize> = template
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_known())
            .map(|(i, _)| i)
            .collect();
        self.search_subset(netlist, estimator, template, &free)
    }

    /// Like [`InputVectorControl::search`], but only the listed positions are
    /// assigned; any other [`Logic::X`] position is left unknown (the leakage
    /// estimator averages over it). The proposed flow uses this to fill the
    /// don't-care *controlled* inputs while the non-multiplexed scan cells
    /// stay unknown.
    ///
    /// # Panics
    ///
    /// Panics if `template` has the wrong width.
    #[must_use]
    pub fn search_subset(
        &self,
        netlist: &Netlist,
        estimator: &LeakageEstimator,
        template: &[Logic],
        free: &[usize],
    ) -> IvcResult {
        let kernel = SimKernel::<PackedWord>::new(netlist);
        assert_eq!(
            template.len(),
            kernel.inputs().len(),
            "one template entry per combinational input"
        );
        let free: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| !template[i].is_known())
            .collect();

        // Candidate generation order matters for tie-breaking (the first
        // best vector wins): deterministic corner fills, then the random
        // completions.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut candidates: Vec<Vec<Logic>> = Vec::new();
        for fill in [Logic::Zero, Logic::One] {
            let mut candidate = template.to_vec();
            for &i in &free {
                candidate[i] = fill;
            }
            candidates.push(candidate);
        }
        let random_budget = self
            .samples
            .saturating_sub(2)
            .min(1usize << free.len().min(20));
        for _ in 0..random_budget {
            let mut candidate = template.to_vec();
            for &i in &free {
                candidate[i] = Logic::from_bool(rng.gen_bool(0.5));
            }
            candidates.push(candidate);
        }

        // Evaluate 64 candidates per kernel pass, blocks sharded across
        // threads (one kernel clone per worker); the min-reduction runs on
        // the calling thread in block order, so the winner (first best on
        // ties) is the sequential loop's winner exactly.
        let driver = BlockDriver::new(self.threads);
        let block_leakages = driver.map_blocks_with(
            &candidates,
            || kernel.clone(),
            |kernel, _block_index, block| {
                let packed_inputs = pack_logic_patterns(block);
                let values = kernel.evaluate(netlist, &packed_inputs);
                estimator.circuit_leakage_lanes(netlist, values, block.len())
            },
        );
        let mut best_index = 0usize;
        let mut best_leakage = f64::INFINITY;
        let mut sim_passes = 0usize;
        for (block_index, leakages) in block_leakages.into_iter().enumerate() {
            sim_passes += 1;
            for (lane, leakage) in leakages.into_iter().enumerate() {
                if leakage < best_leakage {
                    best_leakage = leakage;
                    best_index = block_index * 64 + lane;
                }
            }
        }

        let evaluated = candidates.len();
        IvcResult {
            pattern: candidates.swap_remove(best_index),
            leakage_na: best_leakage,
            evaluated,
            sim_passes,
        }
    }
}

/// Result of a minimum-leakage vector search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvcResult {
    /// The best (lowest-leakage) complete input vector found, in
    /// combinational-input order.
    pub pattern: Vec<Logic>,
    /// Leakage current of the circuit under that vector (nA).
    pub leakage_na: f64,
    /// Number of vectors simulated during the search.
    pub evaluated: usize,
    /// Number of 64-wide simulation passes the search needed (the scalar
    /// equivalent would have needed one pass per evaluated vector).
    pub sim_passes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::LeakageLibrary;
    use scanpower_netlist::bench;
    use scanpower_sim::SimKernel;

    #[test]
    fn search_respects_fixed_positions() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let mut template = vec![Logic::X; width];
        template[0] = Logic::One;
        template[3] = Logic::Zero;
        let result = InputVectorControl::with_budget(64, 1).search(&n, &estimator, &template);
        assert_eq!(result.pattern[0], Logic::One);
        assert_eq!(result.pattern[3], Logic::Zero);
        assert!(result.pattern.iter().all(|v| v.is_known()));
        assert!(result.leakage_na > 0.0);
    }

    #[test]
    fn search_is_no_worse_than_the_corner_vectors() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let mut kernel = SimKernel::<Logic>::new(&n);
        let zeros = estimator.circuit_leakage(&n, kernel.evaluate(&n, &vec![Logic::Zero; width]));
        let ones = estimator.circuit_leakage(&n, kernel.evaluate(&n, &vec![Logic::One; width]));
        let result =
            InputVectorControl::with_budget(128, 2).search(&n, &estimator, &vec![Logic::X; width]);
        assert!(result.leakage_na <= zeros.min(ones) + 1e-9);
    }

    #[test]
    fn more_samples_never_hurt() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let template = vec![Logic::X; width];
        let small = InputVectorControl::with_budget(8, 7).search(&n, &estimator, &template);
        let large = InputVectorControl::with_budget(512, 7).search(&n, &estimator, &template);
        assert!(large.leakage_na <= small.leakage_na + 1e-9);
        assert!(large.evaluated >= small.evaluated);
    }

    #[test]
    fn fully_specified_template_is_returned_unchanged() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let template = vec![Logic::One; width];
        let result = InputVectorControl::new().search(&n, &estimator, &template);
        assert_eq!(result.pattern, template);
    }

    #[test]
    fn reported_leakage_matches_scalar_recomputation() {
        // The packed search must report exactly the leakage the scalar
        // estimator assigns to the winning vector.
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let result =
            InputVectorControl::with_budget(96, 5).search(&n, &estimator, &vec![Logic::X; width]);
        let mut kernel = SimKernel::<Logic>::new(&n);
        let scalar = estimator.circuit_leakage(&n, kernel.evaluate(&n, &result.pattern));
        assert!((result.leakage_na - scalar).abs() < 1e-9);
    }

    /// The block-parallel search returns the same winning vector, leakage,
    /// and pass counters for every thread count — including candidate
    /// counts with a partial final block, and with unknowns left in the
    /// candidates (X propagation through the packed kernel).
    #[test]
    fn search_is_identical_across_thread_counts() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let mut template = vec![Logic::X; width];
        template[1] = Logic::One;
        // Only assign half the free positions: the rest stay X, so every
        // candidate block exercises unknown-lane propagation.
        let free: Vec<usize> = (0..width).filter(|i| i % 2 == 0 && *i != 1).collect();
        // 100 samples -> 2 corners + 100 random = 102 candidates: blocks of
        // 64 and 38.
        let base = InputVectorControl::with_budget(100, 9);
        let sequential = base
            .clone()
            .with_threads(1)
            .search_subset(&n, &estimator, &template, &free);
        assert!(sequential.pattern.iter().any(|v| !v.is_known()));
        for threads in [0, 2, 3, 8] {
            let parallel = base
                .clone()
                .with_threads(threads)
                .search_subset(&n, &estimator, &template, &free);
            assert_eq!(parallel, sequential, "threads {threads}");
        }
    }

    #[test]
    fn search_amortises_simulation_passes() {
        // 258 candidate vectors (2 corners + 256 random) must fit in a
        // handful of 64-wide passes: at least 10× fewer passes than vectors.
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let width = n.combinational_inputs().len();
        let result =
            InputVectorControl::with_budget(258, 3).search(&n, &estimator, &vec![Logic::X; width]);
        assert!(result.evaluated >= 64);
        assert!(
            result.evaluated >= 10 * result.sim_passes,
            "{} vectors in {} passes",
            result.evaluated,
            result.sim_passes
        );
    }
}
