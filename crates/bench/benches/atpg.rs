//! ATPG stage bench: the deterministic (PODEM) phase on full-size s1196
//! with the default profile and s1494 with the `fast()` profile, next to
//! the whole two-phase flow on the same circuits. The `podem_*` rows search
//! every fault the flow's random phase leaves undetected, asking for each
//! outcome in fault-list order as the flow does. The `flow_budget32_*` row
//! is `table1_capped`'s shape: the budgeted flow on half-size s5378 with
//! the `fast()` profile, stopping at 32 patterns, where few fault pairs are
//! active per PODEM step. Snapshot: `BENCH_atpg.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use scanpower_atpg::{AtpgConfig, AtpgFlow, Podem, PodemOutcome};
use scanpower_netlist::generator::CircuitFamily;
use scanpower_netlist::Netlist;
use scanpower_sim::fault::{all_net_faults, Fault, FaultSim};

/// The faults the random phase of `config`'s flow leaves undetected: the
/// PODEM phase's candidate targets.
fn podem_targets(netlist: &Netlist, config: &AtpgConfig) -> Vec<Fault> {
    let test_set = AtpgFlow::new(config.clone()).run(netlist);
    let faults = all_net_faults(netlist);
    let detected = FaultSim::new(netlist).detect(
        netlist,
        &faults,
        &test_set.patterns[..test_set.random_patterns],
    );
    faults
        .into_iter()
        .zip(detected)
        .filter_map(|(fault, detected)| (!detected).then_some(fault))
        .collect()
}

/// Searches every target; returns the (test, untestable, aborted) tally.
fn search_all(netlist: &Netlist, backtrack_limit: usize, targets: &[Fault]) -> [usize; 3] {
    let mut podem = Podem::new(netlist, backtrack_limit);
    let mut search = podem.search(netlist, targets);
    let mut tally = [0usize; 3];
    for index in 0..targets.len() {
        tally[match search.outcome(index, |_| true) {
            PodemOutcome::Test(_) => 0,
            PodemOutcome::Untestable => 1,
            PodemOutcome::Aborted => 2,
        }] += 1;
    }
    tally
}

fn atpg(c: &mut Criterion) {
    let cases = [
        ("s1196", "default", AtpgConfig::default()),
        ("s1494", "fast", AtpgConfig::fast()),
    ];
    let mut group = c.benchmark_group("atpg");
    group.sample_size(10);
    for (name, profile, config) in cases {
        let config = AtpgConfig {
            threads: 1,
            ..config
        };
        let netlist = CircuitFamily::iscas89_like(name)
            .expect("known circuit")
            .generate(1);
        let targets = podem_targets(&netlist, &config);
        let tally = search_all(&netlist, config.backtrack_limit, &targets);
        println!(
            "{name} ({profile}): {} PODEM targets -> {} tests, {} untestable, {} aborted",
            targets.len(),
            tally[0],
            tally[1],
            tally[2]
        );
        group.bench_function(format!("podem_{name}_{profile}"), |b| {
            b.iter(|| search_all(&netlist, config.backtrack_limit, &targets));
        });
        let flow = AtpgFlow::new(config.clone());
        group.bench_function(format!("flow_{name}_{profile}"), |b| {
            b.iter(|| flow.run(&netlist));
        });
    }

    let netlist = CircuitFamily::iscas89_like("s5378")
        .expect("known circuit")
        .scaled(0.5)
        .generate(1);
    let flow = AtpgFlow::new(AtpgConfig {
        threads: 1,
        ..AtpgConfig::fast()
    });
    group.sample_size(50);
    group.bench_function("flow_budget32_s5378x0.5_fast", |b| {
        b.iter(|| flow.run_with_budget(&netlist, Some(32)));
    });
    group.finish();
}

criterion_group!(benches, atpg);
criterion_main!(benches);
