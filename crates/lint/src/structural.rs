//! Structural lint passes: purely graph-shaped checks that need no
//! simulation, run in the fixed order documented in `ARCHITECTURE.md`.

use std::collections::HashMap;
use std::collections::VecDeque;

use scanpower_netlist::topo;
use scanpower_netlist::{GateId, GateKind, NetDriver, NetId, Netlist};

use crate::diagnostics::{Diagnostic, LintCode, LintReport};

/// The workspace's one fanin bound: the widest gate (input pins) a circuit
/// may contain. `LeakageEstimator` builds a `2^fanin`-entry table per
/// distinct gate kind and fanin, so at this bound a table is at most
/// 512 KiB, where a 31-pin gate (the most its pin buffers hold) would ask
/// for 16 GiB. The experiment preflight refuses wider gates with SPL006,
/// and the job service checks the same constant at submit. A test in
/// `scanpower-power` (which depends on this crate, not the other way round)
/// keeps it within the model's 31-pin cap.
pub const LEAKAGE_PIN_LIMIT: usize = 16;

/// SPL001 / SPL002: nets that are read but never driven, and nets that are
/// driven but never read.
pub(crate) fn check_nets(netlist: &Netlist, report: &mut LintReport) {
    for id in netlist.net_ids() {
        let net = netlist.net(id);
        let used = net.fanout() > 0 || net.is_primary_output;
        if used && matches!(net.driver, NetDriver::None) {
            report.push(
                Diagnostic::new(
                    LintCode::UndrivenNet,
                    format!("net `{}` is used but has no driver", net.name),
                )
                .with_net(id, &net.name),
            );
        }
        // An undriven, unused net is inert: it is surfaced once, below, as
        // floating rather than twice.
        let floats =
            net.fanout() == 0 && !net.is_primary_output && !matches!(net.driver, NetDriver::Dff(_));
        if floats {
            report.push(
                Diagnostic::new(
                    LintCode::FloatingNet,
                    format!("net `{}` drives nothing and is not an output", net.name),
                )
                .with_net(id, &net.name),
            );
        }
    }
}

/// SPL004: gates from which no primary output and no flip-flop D pin is
/// reachable — their entire cone is invisible to the outside.
pub(crate) fn check_dangling_gates(netlist: &Netlist, report: &mut LintReport) {
    let mut live_net = vec![false; netlist.net_count()];
    let mut queue: VecDeque<NetId> = VecDeque::new();
    for &output in netlist.primary_outputs() {
        if !live_net[output.index()] {
            live_net[output.index()] = true;
            queue.push_back(output);
        }
    }
    for dff in netlist.dffs() {
        if !live_net[dff.d.index()] {
            live_net[dff.d.index()] = true;
            queue.push_back(dff.d);
        }
    }
    let mut live_gate = vec![false; netlist.gate_count()];
    while let Some(net) = queue.pop_front() {
        if let Some(gate) = netlist.driver_gate(net) {
            if !live_gate[gate.index()] {
                live_gate[gate.index()] = true;
                for &input in &netlist.gate(gate).inputs {
                    if !live_net[input.index()] {
                        live_net[input.index()] = true;
                        queue.push_back(input);
                    }
                }
            }
        }
    }
    for gate_id in netlist.gate_ids() {
        if !live_gate[gate_id.index()] {
            let gate = netlist.gate(gate_id);
            report.push(
                Diagnostic::new(
                    LintCode::DanglingGate,
                    format!(
                        "gate `{}` cannot reach any primary output or scan cell",
                        gate.name
                    ),
                )
                .with_gate(gate_id, &gate.name),
            );
        }
    }
}

/// SPL005: combinational loops, each reported with its full gate path.
///
/// Returns `true` if at least one loop was found (dataflow analysis must be
/// skipped: the simulator's topological evaluator cannot order the gates).
pub(crate) fn check_cycles(netlist: &Netlist, report: &mut LintReport) -> bool {
    let cycles = topo::combinational_cycles(netlist);
    for cycle in &cycles {
        let path: Vec<&str> = cycle
            .iter()
            .map(|&gate| netlist.gate(gate).name.as_str())
            .collect();
        let mut diagnostic = Diagnostic::new(
            LintCode::CombinationalLoop,
            format!("combinational loop: {} -> {}", path.join(" -> "), path[0]),
        );
        for &gate in cycle {
            diagnostic = diagnostic.with_gate(gate, &netlist.gate(gate).name);
        }
        report.push(diagnostic);
    }
    !cycles.is_empty()
}

/// SPL006: gates whose fanin exceeds [`LEAKAGE_PIN_LIMIT`].
pub(crate) fn check_pin_limit(netlist: &Netlist, report: &mut LintReport) {
    for gate_id in netlist.gate_ids() {
        let gate = netlist.gate(gate_id);
        if gate.inputs.len() > LEAKAGE_PIN_LIMIT {
            report.push(
                Diagnostic::new(
                    LintCode::OverPinLimit,
                    format!(
                        "gate `{}` has {} inputs, above the {}-pin leakage-model limit",
                        gate.name,
                        gate.inputs.len(),
                        LEAKAGE_PIN_LIMIT
                    ),
                )
                .with_gate(gate_id, &gate.name),
            );
        }
    }
}

/// SPL007: scan-cell wiring that shifts fine but computes nothing useful.
pub(crate) fn check_scan_chain(netlist: &Netlist, report: &mut LintReport) {
    for dff in netlist.dffs() {
        if dff.d == dff.q {
            report.push(
                Diagnostic::new(
                    LintCode::ScanChainIntegrity,
                    format!(
                        "scan cell `{}` has its D input tied to its own Q output",
                        dff.name
                    ),
                )
                .with_net(dff.q, &netlist.net(dff.q).name),
            );
        }
        if netlist.net(dff.q).fanout() == 0 && !netlist.net(dff.q).is_primary_output {
            report.push(
                Diagnostic::new(
                    LintCode::ScanChainIntegrity,
                    format!("scan cell `{}` output drives nothing", dff.name),
                )
                .with_net(dff.q, &netlist.net(dff.q).name),
            );
        }
    }
}

/// SPL008: duplicate gates found by structural hashing — identical kind and
/// identical input nets (order-insensitive for commutative kinds).
pub(crate) fn check_duplicates(netlist: &Netlist, report: &mut LintReport) {
    let mut seen: HashMap<(GateKind, Vec<NetId>), GateId> = HashMap::new();
    for gate_id in netlist.gate_ids() {
        let gate = netlist.gate(gate_id);
        let mut key_inputs = gate.inputs.clone();
        if is_commutative(gate.kind) {
            key_inputs.sort_unstable();
        }
        match seen.entry((gate.kind, key_inputs)) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let original = *entry.get();
                report.push(
                    Diagnostic::new(
                        LintCode::DuplicateGate,
                        format!(
                            "gate `{}` duplicates gate `{}` (same kind and inputs)",
                            gate.name,
                            netlist.gate(original).name
                        ),
                    )
                    .with_gate(gate_id, &gate.name)
                    .with_gate(original, &netlist.gate(original).name),
                );
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(gate_id);
            }
        }
    }
}

fn is_commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}
