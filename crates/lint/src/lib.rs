//! Static analysis for scan-power netlists.
//!
//! `scanpower_lint` is the safety front door for untrusted ISCAS89 netlists.
//! It runs two families of passes over a [`Netlist`]:
//!
//! * **Structural checks** — undriven/floating nets, dangling gates,
//!   combinational loops (reported with the full cycle path), gates over the
//!   leakage model's pin limit ([`LEAKAGE_PIN_LIMIT`]), scan-chain integrity
//!   and duplicate gates — each with a stable `SPL0xx` code, a severity and
//!   net/gate locations.
//! * **Dataflow analyses** — ternary constant propagation and
//!   X-reachability — reported as notes (constant nets, X-capable nets).
//!
//! # Examples
//!
//! ```
//! use scanpower_lint::{lint_bench, lint_netlist, LintCode};
//! use scanpower_netlist::bench;
//!
//! // Lint-clean text parses and reports nothing above Note severity.
//! let result = lint_bench(bench::S27_BENCH, "s27");
//! assert!(result.report.is_clean());
//! assert!(result.netlist.is_some());
//!
//! // A combinational loop is an error, reported with its full path.
//! let cyclic = "INPUT(a)\nOUTPUT(y)\nx = NAND(a, y)\ny = NOT(x)\n";
//! let result = lint_bench(cyclic, "cyclic");
//! assert!(result.report.has_code(LintCode::CombinationalLoop));
//! assert!(result.netlist.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod diagnostics;
mod front;
mod structural;

pub use diagnostics::{Diagnostic, GateRef, LintCode, LintReport, NetRef, Severity};
pub use front::{lint_bench, BenchLint};
pub use structural::LEAKAGE_PIN_LIMIT;

use scanpower_netlist::Netlist;

use dataflow::LintFacts;

/// Runs every lint pass over an already-built netlist.
///
/// Pass order (fixed, so reports are deterministic): nets
/// (undriven/floating), dangling gates, combinational loops, pin limit,
/// scan-chain integrity, duplicate gates, then — only when the netlist is
/// acyclic — the dataflow notes (constant nets, X-reachability summary).
#[must_use]
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    let mut report = LintReport::new(netlist.name());
    structural::check_nets(netlist, &mut report);
    structural::check_dangling_gates(netlist, &mut report);
    let cyclic = structural::check_cycles(netlist, &mut report);
    structural::check_pin_limit(netlist, &mut report);
    structural::check_scan_chain(netlist, &mut report);
    structural::check_duplicates(netlist, &mut report);
    if cyclic {
        // The topological evaluator cannot order a cyclic netlist.
        return report;
    }
    let facts = LintFacts::analyze(netlist);
    for net in netlist.net_ids() {
        if let Some(value) = facts.net_constant(net) {
            let name = &netlist.net(net).name;
            report.push(
                Diagnostic::new(
                    LintCode::ConstantNet,
                    format!("net `{name}` is provably {value:?} for every pattern"),
                )
                .with_net(net, name),
            );
        }
    }
    if facts.x_capable_net_count() > 0 {
        report.push(Diagnostic::new(
            LintCode::XReachability,
            format!(
                "{} of {} nets can carry an unknown (X) value",
                facts.x_capable_net_count(),
                netlist.net_count()
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, GateKind, Netlist};

    #[test]
    fn s27_is_lint_clean() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let report = lint_netlist(&netlist);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn every_structural_defect_is_detected() {
        let mut n = Netlist::new("defects");
        let a = n.add_input("a");
        // Undriven but used net.
        let hole = n.ensure_net("hole");
        let used = n.add_gate(GateKind::And, &[a, hole], "used").output;
        n.mark_output(used);
        // Dangling gate whose output floats.
        n.add_gate(GateKind::Not, &[a], "dead");
        // Duplicate pair (commutative, swapped inputs).
        let d1 = n.add_gate(GateKind::And, &[a, used], "dup1").output;
        let d2 = n.add_gate(GateKind::And, &[used, a], "dup2").output;
        n.mark_output(d1);
        n.mark_output(d2);
        // Scan cell with unused Q.
        n.add_dff(d1, "lonely_q");

        let report = lint_netlist(&n);
        assert!(report.has_code(LintCode::UndrivenNet));
        assert!(report.has_code(LintCode::FloatingNet));
        assert!(report.has_code(LintCode::DanglingGate));
        assert!(report.has_code(LintCode::DuplicateGate));
        assert!(report.has_code(LintCode::ScanChainIntegrity));
        assert!(report.has_errors());
    }

    #[test]
    fn cycles_skip_dataflow_but_report_full_paths() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let x = n.ensure_net("x");
        let y = n.ensure_net("y");
        n.try_add_gate_driving(GateKind::Nand, &[a, y], x).unwrap();
        n.try_add_gate_driving(GateKind::Not, &[x], y).unwrap();
        n.mark_output(y);
        // A tie cell the skipped constant propagation would have noted.
        let tie = n.add_gate(GateKind::Const1, &[], "tie").output;
        n.mark_output(tie);
        let report = lint_netlist(&n);
        assert!(!report.has_code(LintCode::ConstantNet));
        let loops: Vec<_> = report.with_code(LintCode::CombinationalLoop).collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].gates.len(), 2, "full cycle path is attached");
        assert!(loops[0].message.contains("->"));
    }

    #[test]
    fn over_pin_limit_gate_is_an_error() {
        let mut n = Netlist::new("wide");
        let inputs: Vec<_> = (0..LEAKAGE_PIN_LIMIT + 1)
            .map(|i| n.add_input(&format!("i{i}")))
            .collect();
        let wide = n.add_gate(GateKind::And, &inputs, "wide").output;
        n.mark_output(wide);
        let report = lint_netlist(&n);
        assert!(report.has_code(LintCode::OverPinLimit));
        assert!(report.has_errors());
    }

    #[test]
    fn constant_cones_are_noted_not_errors() {
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let c1 = n.add_gate(GateKind::Const1, &[], "c1").output;
        let o = n.add_gate(GateKind::Or, &[a, c1], "o").output;
        n.mark_output(o);
        let report = lint_netlist(&n);
        assert!(report.has_code(LintCode::ConstantNet));
        assert!(report.is_clean(), "{}", report.to_text());
    }
}
