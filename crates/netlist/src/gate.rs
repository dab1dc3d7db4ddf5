use serde::{Deserialize, Serialize};
use std::fmt;

use crate::netlist::{GateId, NetId};

/// The logic function of a combinational gate.
///
/// `Dff` cells and primary inputs are *not* represented as `GateKind`s; they
/// are tracked separately by [`crate::Netlist`] so that the combinational
/// part of the circuit is always a DAG of `GateKind` gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GateKind {
    /// Single-input buffer.
    Buf,
    /// Single-input inverter.
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (odd parity).
    Xor,
    /// N-input XNOR (even parity).
    Xnor,
    /// 2:1 multiplexer: inputs are `[select, a, b]`, output is `a` when
    /// `select` is 0 and `b` when `select` is 1.
    ///
    /// The proposed scan structure inserts these cells at pseudo-inputs.
    Mux,
    /// Constant logic 0 source (no inputs).
    Const0,
    /// Constant logic 1 source (no inputs).
    Const1,
}

impl GateKind {
    /// All gate kinds, useful for exhaustive table construction.
    pub const ALL: [GateKind; 11] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// Returns the controlling value of the gate, i.e. the input value that
    /// determines the output regardless of the other inputs.
    ///
    /// XOR-like gates, buffers, inverters, multiplexers and constants have no
    /// controlling value and return `None`.
    #[must_use]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Returns `true` when the gate inverts the "natural" result of its
    /// controlling/non-controlling input analysis (NAND, NOR, NOT, XNOR).
    #[must_use]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// Returns `true` for gates through which a single-input change always
    /// propagates to the output (NOT, BUF, XOR, XNOR).
    ///
    /// The TNS/TGS update procedure of the paper treats these specially: a
    /// transition arriving at such a gate can never be blocked by the other
    /// inputs, so the transition is simply forwarded.
    #[must_use]
    pub fn always_propagates(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Buf | GateKind::Xor | GateKind::Xnor
        )
    }

    /// Valid fanin range (inclusive) for the gate kind.
    #[must_use]
    pub fn fanin_range(self) -> (usize, usize) {
        match self {
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => (1, usize::MAX),
            GateKind::Xor | GateKind::Xnor => (1, usize::MAX),
            GateKind::Mux => (3, 3),
            GateKind::Const0 | GateKind::Const1 => (0, 0),
        }
    }

    /// Returns `true` if `fanin` inputs is a legal configuration.
    #[must_use]
    pub fn accepts_fanin(self, fanin: usize) -> bool {
        let (lo, hi) = self.fanin_range();
        fanin >= lo && fanin <= hi
    }

    /// `.bench`-style upper-case name of the gate function.
    #[must_use]
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }

    /// Parses a `.bench` gate function name (case-insensitive).
    ///
    /// `BUFF` is accepted as an alias of `BUF` since several ISCAS89
    /// distributions use it.
    #[must_use]
    pub fn from_bench_name(name: &str) -> Option<GateKind> {
        match name.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            "MUX" => Some(GateKind::Mux),
            "CONST0" => Some(GateKind::Const0),
            "CONST1" => Some(GateKind::Const1),
            _ => None,
        }
    }

    /// Returns `true` if the gate kind belongs to the paper's target library
    /// ({NAND, NOR, INV}); MUX and constants are allowed because the proposed
    /// structure adds them around the mapped logic.
    #[must_use]
    pub fn in_target_library(self) -> bool {
        matches!(
            self,
            GateKind::Nand
                | GateKind::Nor
                | GateKind::Not
                | GateKind::Mux
                | GateKind::Const0
                | GateKind::Const1
        )
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// A combinational gate instance inside a [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input nets in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Instance name (usually the name of the output net).
    pub name: String,
}

impl Gate {
    /// Number of inputs of the gate.
    #[must_use]
    pub fn fanin(&self) -> usize {
        self.inputs.len()
    }
}

/// Result of adding a gate to a netlist: the new gate id and its output net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateOutput {
    /// Identifier of the newly created gate.
    pub gate: GateId,
    /// Net driven by the newly created gate.
    pub output: NetId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
        assert_eq!(GateKind::Mux.controlling_value(), None);
    }

    #[test]
    fn bench_name_round_trip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_bench_name(kind.bench_name()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_name("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_name("inv"), Some(GateKind::Not));
        assert_eq!(GateKind::from_bench_name("nonsense"), None);
    }

    #[test]
    fn fanin_validation() {
        assert!(GateKind::Not.accepts_fanin(1));
        assert!(!GateKind::Not.accepts_fanin(2));
        assert!(GateKind::Nand.accepts_fanin(4));
        assert!(GateKind::Mux.accepts_fanin(3));
        assert!(!GateKind::Mux.accepts_fanin(2));
        assert!(GateKind::Const0.accepts_fanin(0));
        assert!(!GateKind::Const0.accepts_fanin(1));
    }

    #[test]
    fn propagation_classification_matches_paper() {
        // The paper's Update TNS/TGS step forwards transitions through
        // NOT, XOR, XNOR and fanout unconditionally.
        assert!(GateKind::Not.always_propagates());
        assert!(GateKind::Xor.always_propagates());
        assert!(GateKind::Xnor.always_propagates());
        assert!(GateKind::Buf.always_propagates());
        assert!(!GateKind::Nand.always_propagates());
        assert!(!GateKind::Nor.always_propagates());
    }
}
