//! Parallel-vs-sequential agreement of the block-parallel driver and its
//! three 64-wide consumers.
//!
//! Everything the [`BlockDriver`] runs must be bit-identical to the
//! sequential path for every thread count — the driver merges block
//! results in block order, so thread scheduling can never leak into an
//! output. These tests drive the whole stack through the umbrella crate:
//! the raw driver (partial final blocks, X propagation), the ATPG random
//! phase, the IVC Monte-Carlo, and the sampled observability forward pass.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::atpg::{AtpgConfig, AtpgFlow};
use scanpower_suite::netlist::bench;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::power::{
    InputVectorControl, LeakageEstimator, LeakageLibrary, LeakageObservability,
};
use scanpower_suite::sim::kernel::pack_logic_patterns;
use scanpower_suite::sim::parallel::BLOCK_LANES;
use scanpower_suite::sim::{BlockDriver, Logic, PackedWord, SimKernel};

const THREAD_COUNTS: [usize; 4] = [0, 2, 3, 8];

/// Raw driver + packed kernel vs the scalar evaluator on a generated
/// circuit: 200 three-valued patterns (a partial 8-lane final block), a
/// kernel clone per worker, every lane checked including X positions.
#[test]
fn driver_blocks_match_scalar_evaluation_with_partial_tail_and_x() {
    let circuit = CircuitFamily::iscas89_like("s344")
        .unwrap()
        .scaled(0.4)
        .generate(7);
    let mut scalar = SimKernel::<Logic>::new(&circuit);
    let prototype = SimKernel::<PackedWord>::new(&circuit);
    let width = prototype.inputs().len();

    let mut rng = ChaCha8Rng::seed_from_u64(0xb10c);
    let patterns: Vec<Vec<Logic>> = (0..200)
        .map(|_| {
            (0..width)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        Logic::X
                    } else {
                        Logic::from_bool(rng.gen_bool(0.5))
                    }
                })
                .collect()
        })
        .collect();
    assert_eq!(BlockDriver::block_count(patterns.len()), 4);
    assert_eq!(patterns.len() % BLOCK_LANES, 8, "partial final block");

    let run = |driver: &BlockDriver| {
        driver.map_blocks_with(
            &patterns,
            || prototype.clone(),
            |kernel, _block, chunk| {
                kernel
                    .evaluate(&circuit, &pack_logic_patterns(chunk))
                    .to_vec()
            },
        )
    };
    let sequential = run(&BlockDriver::sequential());

    // Sequential blocks agree with the scalar evaluator lane by lane.
    for (block, values) in sequential.iter().enumerate() {
        for (lane, pattern) in patterns[block * BLOCK_LANES..]
            .iter()
            .take(BLOCK_LANES)
            .enumerate()
        {
            let reference = scalar.evaluate(&circuit, pattern);
            for net in circuit.net_ids() {
                assert_eq!(
                    values[net.index()].lane(lane),
                    reference[net.index()],
                    "block {block} lane {lane}"
                );
            }
        }
    }

    // And every thread count reproduces the sequential blocks exactly.
    for threads in THREAD_COUNTS {
        assert_eq!(
            run(&BlockDriver::new(threads)),
            sequential,
            "threads {threads}"
        );
    }
}

/// The full ATPG flow is bit-identical across thread counts, with a block
/// size that leaves partial 64-lane chunks (50-pattern blocks).
#[test]
fn atpg_flow_agrees_across_thread_counts() {
    let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(3);
    let base = AtpgConfig {
        random_block_size: 50,
        ..AtpgConfig::fast()
    };
    let sequential = AtpgFlow::new(AtpgConfig {
        threads: 1,
        ..base.clone()
    })
    .run(&circuit);
    assert!(!sequential.patterns.is_empty());
    for threads in THREAD_COUNTS {
        let parallel = AtpgFlow::new(AtpgConfig {
            threads,
            ..base.clone()
        })
        .run(&circuit);
        assert_eq!(parallel, sequential, "threads {threads}");
    }
}

/// The IVC Monte-Carlo returns the identical winning vector and leakage
/// for every thread count (102 candidates: a 64-lane and a 38-lane block).
#[test]
fn ivc_search_agrees_across_thread_counts() {
    let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let library = LeakageLibrary::cmos45();
    let estimator = LeakageEstimator::new(&n, &library);
    let width = n.combinational_inputs().len();
    let mut template = vec![Logic::X; width];
    template[0] = Logic::Zero;

    let sequential = InputVectorControl::with_budget(100, 17)
        .with_threads(1)
        .search(&n, &estimator, &template);
    for threads in THREAD_COUNTS {
        let parallel = InputVectorControl::with_budget(100, 17)
            .with_threads(threads)
            .search(&n, &estimator, &template);
        assert_eq!(parallel, sequential, "threads {threads}");
    }
}

/// The sampled observability forward pass (integer one-counts merged in
/// block order) is bit-identical across thread counts.
#[test]
fn sampled_observability_agrees_across_thread_counts() {
    let circuit = CircuitFamily::iscas89_like("s344")
        .unwrap()
        .scaled(0.3)
        .generate(5);
    let library = LeakageLibrary::cmos45();
    let sequential = LeakageObservability::compute_sampled_with(
        &circuit,
        &library,
        9,
        123,
        &BlockDriver::sequential(),
    );
    for threads in THREAD_COUNTS {
        let parallel = LeakageObservability::compute_sampled_with(
            &circuit,
            &library,
            9,
            123,
            &BlockDriver::new(threads),
        );
        assert_eq!(parallel, sequential, "threads {threads}");
    }
}
