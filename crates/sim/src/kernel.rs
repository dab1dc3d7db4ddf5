//! The shared simulation kernel.
//!
//! Every gate evaluation in the workspace goes through this module: the
//! [`LogicWord`] trait abstracts over *how many circuit states one value
//! carries* — one ([`Logic`]) or sixty-four ([`PackedWord`], a two-word
//! three-valued bit-parallel encoding) — and [`SimKernel`] owns the cached
//! topological order, the combinational-input mapping and a reusable per-net
//! value buffer, so repeated evaluations (Monte-Carlo leakage sampling,
//! thousands of shift cycles, fault-simulation blocks) pay the sorting and
//! allocation cost once.
//!
//! [`eval_gate`] / [`eval_gate_at`] contain the **only** gate-kind `match`
//! that evaluates logic in the entire workspace; the scalar scan replay,
//! the justification search, the fault simulator, PODEM and the packed
//! leakage Monte-Carlo all call into it.

use scanpower_netlist::{topo, GateId, GateKind, NetId, Netlist};

use crate::logic::Logic;

/// A simulation value covering one or more circuit states per net.
///
/// Implementations must provide Kleene (pessimistic three-valued) semantics:
/// a lane whose value is unknown behaves like [`Logic::X`].
pub trait LogicWord: Copy + PartialEq + std::fmt::Debug {
    /// Number of independent circuit states carried per value.
    const LANES: usize;

    /// Broadcasts one scalar logic value to every lane.
    fn splat(value: Logic) -> Self;

    /// Lane-wise Kleene negation.
    #[must_use]
    fn not(self) -> Self;

    /// Lane-wise Kleene AND.
    #[must_use]
    fn and(self, other: Self) -> Self;

    /// Lane-wise Kleene OR.
    #[must_use]
    fn or(self, other: Self) -> Self;

    /// Lane-wise Kleene XOR.
    #[must_use]
    fn xor(self, other: Self) -> Self;

    /// Lane-wise 2:1 multiplexer: `when0` where `select` is 0, `when1`
    /// where `select` is 1; an unknown select yields the data value only
    /// where both data lanes agree.
    #[must_use]
    fn mux(select: Self, when0: Self, when1: Self) -> Self;
}

impl LogicWord for Logic {
    const LANES: usize = 1;

    fn splat(value: Logic) -> Logic {
        value
    }

    fn not(self) -> Logic {
        Logic::not(self)
    }

    fn and(self, other: Logic) -> Logic {
        Logic::and(self, other)
    }

    fn or(self, other: Logic) -> Logic {
        Logic::or(self, other)
    }

    fn xor(self, other: Logic) -> Logic {
        Logic::xor(self, other)
    }

    fn mux(select: Logic, when0: Logic, when1: Logic) -> Logic {
        match select {
            Logic::Zero => when0,
            Logic::One => when1,
            Logic::X => {
                if when0 == when1 {
                    when0
                } else {
                    Logic::X
                }
            }
        }
    }
}

/// 64 three-valued circuit states packed into two machine words.
///
/// The encoding is the classic *possibility* pair: bit `k` of [`can0`] is
/// set when lane `k` may be 0, bit `k` of [`can1`] when it may be 1. A
/// known 0 is `(1, 0)`, a known 1 is `(0, 1)` and an unknown is `(1, 1)`;
/// `(0, 0)` never occurs. Every Kleene connective then reduces to one or two
/// bitwise operations over the whole 64-lane block, which is what makes the
/// fault simulator and the leakage Monte-Carlo evaluate 64 circuit states
/// per topological pass.
///
/// [`can0`]: PackedWord::can0
/// [`can1`]: PackedWord::can1
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedWord {
    can0: u64,
    can1: u64,
}

impl PackedWord {
    /// Bit mask of the lanes that may carry a 0.
    #[must_use]
    pub fn can0(self) -> u64 {
        self.can0
    }

    /// Bit mask of the lanes that may carry a 1.
    #[must_use]
    pub fn can1(self) -> u64 {
        self.can1
    }

    /// Bit mask of the lanes that definitely carry a 1.
    #[must_use]
    pub fn ones(self) -> u64 {
        self.can1 & !self.can0
    }

    /// Bit mask of the lanes that definitely carry a 0.
    #[must_use]
    pub fn zeros(self) -> u64 {
        self.can0 & !self.can1
    }

    /// Bit mask of the lanes whose value is unknown.
    #[must_use]
    pub fn unknown(self) -> u64 {
        self.can0 & self.can1
    }

    /// Bit mask of the lanes whose value is known.
    #[must_use]
    pub fn known(self) -> u64 {
        !(self.can0 & self.can1)
    }

    /// Value of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane(self, lane: usize) -> Logic {
        assert!(lane < 64, "lane out of range");
        let bit = 1u64 << lane;
        match (self.can0 & bit != 0, self.can1 & bit != 0) {
            (true, false) => Logic::Zero,
            (false, true) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Bit mask selecting the first `lanes` lanes (`lanes == 64` selects
    /// every lane). Used to restrict popcount reductions to the active
    /// lanes of a partial final block.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    #[must_use]
    pub fn lane_mask(lanes: usize) -> u64 {
        assert!(lanes <= 64, "a packed word holds at most 64 lanes");
        if lanes == 0 {
            0
        } else {
            u64::MAX >> (64 - lanes)
        }
    }

    /// Bit mask of the lanes whose three-valued value differs from
    /// `other`'s — the lane-parallel counterpart of `Logic != Logic`
    /// (`X` only equals `X`). Popcounting this mask over consecutive
    /// circuit states is how the packed scan replay counts transitions.
    #[must_use]
    pub fn differs(self, other: PackedWord) -> u64 {
        (self.can0 ^ other.can0) | (self.can1 ^ other.can1)
    }

    /// Number of the first `lanes` lanes whose value differs from
    /// `other`'s — the masked [`differs`](PackedWord::differs) popcount the
    /// packed scan replay adds to a net's toggle counter.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    #[must_use]
    pub fn count_differs(self, other: PackedWord, lanes: usize) -> u32 {
        (self.differs(other) & PackedWord::lane_mask(lanes)).count_ones()
    }

    /// Shifts every lane up by one position (lane `k` receives lane
    /// `k - 1`'s value) and inserts `lane0` at lane 0. The packed scan
    /// replay uses this to hand each pattern lane its predecessor
    /// pattern's capture state.
    #[must_use]
    pub fn shifted_lanes(self, lane0: Logic) -> PackedWord {
        let (can0, can1) = match lane0 {
            Logic::Zero => (1, 0),
            Logic::One => (0, 1),
            Logic::X => (1, 1),
        };
        PackedWord {
            can0: (self.can0 << 1) | can0,
            can1: (self.can1 << 1) | can1,
        }
    }

    /// The raw bit planes of the word as a `(can0, can1)` pair — the same
    /// masks [`can0`](PackedWord::can0)/[`can1`](PackedWord::can1) return,
    /// bundled for callers that consume both planes at once (bit-plane
    /// transposes such as [`lane_state_indices`]).
    #[must_use]
    pub fn bit_planes(self) -> (u64, u64) {
        (self.can0, self.can1)
    }

    /// Rebuilds a word from its two bit planes (the inverse of
    /// [`bit_planes`](PackedWord::bit_planes)).
    ///
    /// # Panics
    ///
    /// Panics if any lane would be `(0, 0)` — "can be neither 0 nor 1" is
    /// not a value the encoding admits.
    #[must_use]
    pub fn from_planes(can0: u64, can1: u64) -> PackedWord {
        assert!(
            can0 | can1 == u64::MAX,
            "every lane must be able to carry at least one value"
        );
        PackedWord { can0, can1 }
    }

    /// Sets the value of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn set_lane(&mut self, lane: usize, value: Logic) {
        assert!(lane < 64, "lane out of range");
        let bit = 1u64 << lane;
        let (can0, can1) = match value {
            Logic::Zero => (bit, 0),
            Logic::One => (0, bit),
            Logic::X => (bit, bit),
        };
        self.can0 = (self.can0 & !bit) | can0;
        self.can1 = (self.can1 & !bit) | can1;
    }
}

impl LogicWord for PackedWord {
    const LANES: usize = 64;

    fn splat(value: Logic) -> PackedWord {
        match value {
            Logic::Zero => PackedWord {
                can0: u64::MAX,
                can1: 0,
            },
            Logic::One => PackedWord {
                can0: 0,
                can1: u64::MAX,
            },
            Logic::X => PackedWord {
                can0: u64::MAX,
                can1: u64::MAX,
            },
        }
    }

    fn not(self) -> PackedWord {
        PackedWord {
            can0: self.can1,
            can1: self.can0,
        }
    }

    fn and(self, other: PackedWord) -> PackedWord {
        PackedWord {
            can0: self.can0 | other.can0,
            can1: self.can1 & other.can1,
        }
    }

    fn or(self, other: PackedWord) -> PackedWord {
        PackedWord {
            can0: self.can0 & other.can0,
            can1: self.can1 | other.can1,
        }
    }

    fn xor(self, other: PackedWord) -> PackedWord {
        let known = self.known() & other.known();
        let value = self.can1 ^ other.can1; // valid on known lanes only
        PackedWord {
            can0: (known & !value) | !known,
            can1: (known & value) | !known,
        }
    }

    fn mux(select: PackedWord, when0: PackedWord, when1: PackedWord) -> PackedWord {
        PackedWord {
            can0: (select.can0 & when0.can0) | (select.can1 & when1.can0),
            can1: (select.can0 & when0.can1) | (select.can1 & when1.can1),
        }
    }
}

/// Evaluates one gate over operands gathered by the caller.
///
/// Together with [`eval_gate_at`] this is the single place in the workspace
/// where a gate kind is interpreted as a logic function.
///
/// # Panics
///
/// Panics if the operand count is not valid for the gate kind.
#[must_use]
pub fn eval_gate<W: LogicWord>(kind: GateKind, operands: &[W]) -> W {
    eval_gate_operands(kind, operands.iter().copied())
}

/// Evaluates one gate by reading its input nets from a per-net value buffer
/// (indexed by [`NetId::index`]); avoids gathering into a scratch slice.
///
/// # Panics
///
/// Panics if the input count is not valid for the gate kind.
#[must_use]
pub fn eval_gate_at<W: LogicWord>(kind: GateKind, inputs: &[NetId], values: &[W]) -> W {
    eval_gate_operands(kind, inputs.iter().map(|&net| values[net.index()]))
}

fn eval_gate_operands<W: LogicWord>(kind: GateKind, mut operands: impl Iterator<Item = W>) -> W {
    match kind {
        GateKind::Buf => operands.next().expect("buffer has one input"),
        GateKind::Not => operands.next().expect("inverter has one input").not(),
        GateKind::And => operands.fold(W::splat(Logic::One), W::and),
        GateKind::Nand => operands.fold(W::splat(Logic::One), W::and).not(),
        GateKind::Or => operands.fold(W::splat(Logic::Zero), W::or),
        GateKind::Nor => operands.fold(W::splat(Logic::Zero), W::or).not(),
        GateKind::Xor => operands.fold(W::splat(Logic::Zero), W::xor),
        GateKind::Xnor => operands.fold(W::splat(Logic::Zero), W::xor).not(),
        GateKind::Mux => {
            let (select, when0, when1) = match (operands.next(), operands.next(), operands.next()) {
                (Some(select), Some(when0), Some(when1)) => (select, when0, when1),
                _ => panic!("mux must have 3 inputs"),
            };
            assert!(operands.next().is_none(), "mux must have 3 inputs");
            W::mux(select, when0, when1)
        }
        GateKind::Const0 => W::splat(Logic::Zero),
        GateKind::Const1 => W::splat(Logic::One),
    }
}

/// Transposes up to 64 fully-specified boolean patterns into one
/// [`PackedWord`] per pattern position (lane `k` = pattern `k`).
///
/// # Panics
///
/// Panics if more than 64 patterns are passed or the patterns have unequal
/// widths.
#[must_use]
pub fn pack_bool_patterns(patterns: &[Vec<bool>]) -> Vec<PackedWord> {
    assert!(patterns.len() <= 64, "at most 64 patterns per block");
    let width = patterns.first().map_or(0, Vec::len);
    let mut words = vec![PackedWord::splat(Logic::X); width];
    for (lane, pattern) in patterns.iter().enumerate() {
        assert_eq!(pattern.len(), width, "pattern width mismatch");
        for (word, &bit) in words.iter_mut().zip(pattern) {
            word.set_lane(lane, Logic::from_bool(bit));
        }
    }
    words
}

/// Transposes up to 64 three-valued patterns into one [`PackedWord`] per
/// pattern position (lane `k` = pattern `k`); `X` positions stay unknown.
///
/// # Panics
///
/// Panics if more than 64 patterns are passed or the patterns have unequal
/// widths.
#[must_use]
pub fn pack_logic_patterns<P: AsRef<[Logic]>>(patterns: &[P]) -> Vec<PackedWord> {
    assert!(patterns.len() <= 64, "at most 64 patterns per block");
    let width = patterns.first().map_or(0, |p| p.as_ref().len());
    let mut words = vec![PackedWord::splat(Logic::X); width];
    for (lane, pattern) in patterns.iter().enumerate() {
        let pattern = pattern.as_ref();
        assert_eq!(pattern.len(), width, "pattern width mismatch");
        for (word, &value) in words.iter_mut().zip(pattern) {
            word.set_lane(lane, value);
        }
    }
    words
}

/// Pin codes a [`lane_state_indices`] transpose packs per lane: 2 bits per
/// pin, `00` = known 0, `01` = known 1, high bit set (`1x`) = unknown. The
/// transpose itself only ever emits `11` for an unknown pin, but consumers
/// must treat any index with a high pin bit as carrying an X on that pin.
pub const STATE_INDEX_BITS_PER_PIN: usize = 2;

/// Maximum number of pin words one [`lane_state_indices`] call accepts —
/// the per-lane indices are `u32`, so at most 16 two-bit pin codes fit.
pub const STATE_INDEX_MAX_PINS: usize = 32 / STATE_INDEX_BITS_PER_PIN;

/// Transposes the bit planes of a gate's pin words (pins × lanes) into one
/// ternary **state index** per lane: bits `2p..2p+2` of `indices[l]` encode
/// pin `p` of lane `l` as `00` = 0, `01` = 1, `11` = X (see
/// [`STATE_INDEX_BITS_PER_PIN`]). Only `indices[..lanes]` is written;
/// entries at and beyond `lanes` keep whatever the (reused) buffer held.
///
/// This is the gather behind the lane-parallel leakage table lookup: a
/// shift-and-clear pass (`trailing_zeros` + `m & (m - 1)`) over the set
/// plane bits, so the cost follows the number of ones and unknowns, not
/// the lane count.
///
/// # Panics
///
/// Panics if more than [`STATE_INDEX_MAX_PINS`] pin words are passed,
/// `lanes > 64`, or `indices` is shorter than `lanes`.
// Called per gate per shift cycle from the leakage crate; `#[inline]` lets
// it inline across the crate boundary.
#[inline]
pub fn lane_state_indices(pins: &[PackedWord], lanes: usize, indices: &mut [u32]) {
    assert!(
        pins.len() <= STATE_INDEX_MAX_PINS,
        "a u32 state index holds at most {STATE_INDEX_MAX_PINS} two-bit pin codes"
    );
    assert!(
        indices.len() >= lanes,
        "index buffer shorter than the lane count"
    );
    let active = PackedWord::lane_mask(lanes);
    indices[..lanes].fill(0);
    for (pin, pin_word) in pins.iter().enumerate() {
        let (can0, can1) = pin_word.bit_planes();
        // Lanes that may carry a 1 (known 1 or X) set the low pin bit …
        let mut ones = can1 & active;
        while ones != 0 {
            indices[ones.trailing_zeros() as usize] |= 1 << (2 * pin);
            ones &= ones - 1;
        }
        // … and unknown lanes (both planes set) additionally set the high
        // (X) pin bit, so a known 1 codes `01` and an X codes `11`.
        let mut unknown = can0 & can1 & active;
        while unknown != 0 {
            indices[unknown.trailing_zeros() as usize] |= 1 << (2 * pin + 1);
            unknown &= unknown - 1;
        }
    }
}

/// Maximum number of pin words one [`lane_state_bytes`] call accepts — a
/// lane's code is one byte, so at most 4 two-bit pin codes fit.
pub const STATE_BYTE_MAX_PINS: usize = 8 / STATE_INDEX_BITS_PER_PIN;

/// `SPREAD[b]` has bit `8i` set for every set bit `i` of `b`: one plane
/// byte (8 lanes) spread to one bit per lane byte.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if (byte >> bit) & 1 == 1 {
                table[byte] |= 1 << (8 * bit);
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Byte-code variant of [`lane_state_indices`] for gates with at most
/// [`STATE_BYTE_MAX_PINS`] pins: the same 2-bit-per-pin code of lane `l`
/// lands in byte `l % 8` of `codes[l / 8]` (8 lanes per chunk). Every
/// chunk is written; the bytes of lanes at and beyond `lanes` are zero.
///
/// Branch-free: per pin and chunk, one load from a 256-entry spread table
/// turns a plane byte into one bit per lane byte, so the cost is
/// `pins × 16` table loads however many bits are set.
///
/// # Panics
///
/// Panics if more than [`STATE_BYTE_MAX_PINS`] pin words are passed or
/// `lanes > 64`.
#[inline]
pub fn lane_state_bytes(pins: &[PackedWord], lanes: usize, codes: &mut [u64; 8]) {
    assert!(
        pins.len() <= STATE_BYTE_MAX_PINS,
        "a one-byte state code holds at most {STATE_BYTE_MAX_PINS} two-bit pin codes"
    );
    let active = PackedWord::lane_mask(lanes);
    *codes = [0; 8];
    for (pin, pin_word) in pins.iter().enumerate() {
        let (can0, can1) = pin_word.bit_planes();
        let ones = can1 & active;
        let unknown = can0 & can1 & active;
        for (chunk, code) in codes.iter_mut().enumerate() {
            let shift = 8 * chunk;
            *code |= SPREAD[((ones >> shift) & 0xff) as usize] << (2 * pin)
                | SPREAD[((unknown >> shift) & 0xff) as usize] << (2 * pin + 1);
        }
    }
}

/// Reusable scratch state of the event-driven [`SimKernel::propagate_from`]
/// path: one dirty-gate bucket per logic level plus an epoch-stamped
/// membership test, so marking a gate twice in a cycle costs one comparison
/// and clearing the structure between cycles costs nothing.
///
/// Build one with [`SimKernel::make_worklist`] and reuse it across cycles —
/// the buckets keep their capacity, so the steady state allocates nothing.
/// A worklist is tied to the kernel (and therefore netlist shape) it was
/// built for.
#[derive(Debug, Clone)]
pub struct DirtyWorklist {
    /// Current marking epoch; bumped at the end of every
    /// [`SimKernel::propagate_from`] pass.
    epoch: u64,
    /// Per gate: the epoch the gate was last marked dirty in.
    stamp: Vec<u64>,
    /// Per level: the gates marked dirty at that level, in marking order.
    buckets: Vec<Vec<u32>>,
}

impl DirtyWorklist {
    /// `true` when no gate is currently marked dirty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }
}

/// Zero-delay evaluation engine for the combinational part of a netlist,
/// generic over the number of circuit states evaluated per pass.
///
/// The kernel caches the topological order of the gates, the positions of
/// the gates inside it (used by the event-driven simulators to order their
/// worklists), the per-gate logic levels and the net→gate fanout map (the
/// event-driven [`SimKernel::propagate_from`] path), the
/// combinational-input mapping, and owns a reusable per-net value buffer.
/// It borrows nothing, so one kernel can serve any number of evaluations as
/// long as the netlist structure does not change; rebuild it after
/// structural edits such as MUX insertion.
#[derive(Debug, Clone)]
pub struct SimKernel<W: LogicWord> {
    order: Vec<GateId>,
    position: Vec<usize>,
    /// Per gate: logic level (0 = fed by sources only). Every gate's level
    /// is strictly greater than the level of every gate in its fanin cone,
    /// so processing dirty gates level by level visits each at most once,
    /// after all of its inputs settled.
    level: Vec<u32>,
    /// Number of distinct levels (max level + 1).
    levels: usize,
    /// CSR net→gate fanout: gates reading net `n` are
    /// `fanout_gates[fanout_start[n]..fanout_start[n + 1]]` (a gate reading
    /// the same net on several pins appears once per pin; the epoch stamp in
    /// [`DirtyWorklist`] deduplicates the marks).
    fanout_start: Vec<u32>,
    fanout_gates: Vec<u32>,
    inputs: Vec<NetId>,
    net_count: usize,
    values: Vec<W>,
}

impl<W: LogicWord> SimKernel<W> {
    /// Builds a kernel for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part of the netlist is cyclic; validate
    /// untrusted netlists with [`Netlist::validate`] first.
    #[must_use]
    pub fn new(netlist: &Netlist) -> SimKernel<W> {
        let order = topo::topological_gates(netlist).expect("combinational part must be acyclic");
        let mut position = vec![0usize; netlist.gate_count()];
        for (index, gate) in order.iter().enumerate() {
            position[gate.index()] = index;
        }
        // Logic levels: source nets sit at level 0, a gate at the maximum
        // of its input-net levels, its output net one above the gate.
        let mut net_level = vec![0u32; netlist.net_count()];
        let mut level = vec![0u32; netlist.gate_count()];
        for &gate_id in &order {
            let gate = netlist.gate(gate_id);
            let gate_level = gate
                .inputs
                .iter()
                .map(|input| net_level[input.index()])
                .max()
                .unwrap_or(0);
            level[gate_id.index()] = gate_level;
            net_level[gate.output.index()] = gate_level + 1;
        }
        let levels = level
            .iter()
            .max()
            .map_or(0, |&deepest| deepest as usize + 1);
        // CSR fanout map (net → reading gates), in (net, pin) order.
        let mut fanout_start = vec![0u32; netlist.net_count() + 1];
        for gate in netlist.gates() {
            for input in &gate.inputs {
                fanout_start[input.index() + 1] += 1;
            }
        }
        for index in 1..fanout_start.len() {
            fanout_start[index] += fanout_start[index - 1];
        }
        let mut fanout_gates = vec![0u32; *fanout_start.last().unwrap_or(&0) as usize];
        let mut cursor = fanout_start.clone();
        for (gate_index, gate) in netlist.gates().iter().enumerate() {
            for input in &gate.inputs {
                let slot = cursor[input.index()];
                fanout_gates[slot as usize] = u32::try_from(gate_index).expect("gate index");
                cursor[input.index()] = slot + 1;
            }
        }
        SimKernel {
            order,
            position,
            level,
            levels,
            fanout_start,
            fanout_gates,
            inputs: netlist.combinational_inputs(),
            net_count: netlist.net_count(),
            values: Vec::new(),
        }
    }

    /// The combinational inputs in the order expected by
    /// [`SimKernel::evaluate`] (primary inputs followed by pseudo-inputs).
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Gates in topological order.
    #[must_use]
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Position of a gate inside the topological order.
    #[must_use]
    pub fn position_of(&self, gate: GateId) -> usize {
        self.position[gate.index()]
    }

    /// Number of nets of the netlist the kernel was built for.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// The per-net values of the most recent [`SimKernel::evaluate`] call
    /// (empty before the first call), indexed by [`NetId::index`].
    #[must_use]
    pub fn values(&self) -> &[W] {
        &self.values
    }

    /// Re-evaluates every gate (in topological order) over a caller-provided
    /// per-net value buffer. Source nets are left untouched; every driven
    /// net is overwritten. This is the full-sweep primitive behind every
    /// simulator in the workspace; callers that seed arbitrary net values
    /// (the fault simulator's fault-free pass) drive it directly. It is
    /// [`SimKernel::propagate_pinned`] with no pin.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the number of nets, or if
    /// `netlist` has a different shape than the netlist the kernel was
    /// built for (rebuild the kernel after structural edits such as MUX
    /// insertion).
    pub fn propagate(&self, netlist: &Netlist, values: &mut [W]) {
        self.propagate_pinned(netlist, values, |_, word| word);
    }

    /// [`SimKernel::propagate`] with an output hook: every gate's output
    /// word passes through `pin(net, word)` before it is stored, so a
    /// caller can hold chosen lanes of chosen nets at fixed values — PODEM
    /// pins the faulty-machine lanes of its fault sites this way. One
    /// topological sweep, so the buffer is settled in the pinned sense on
    /// return whatever it held before. A pinned source net must be written
    /// pinned by the caller, since no gate drives it.
    ///
    /// # Panics
    ///
    /// As [`SimKernel::propagate`].
    pub fn propagate_pinned<P>(&self, netlist: &Netlist, values: &mut [W], mut pin: P)
    where
        P: FnMut(NetId, W) -> W,
    {
        self.check_buffer(netlist, values);
        for &gate_id in &self.order {
            let gate = netlist.gate(gate_id);
            values[gate.output.index()] =
                pin(gate.output, eval_gate_at(gate.kind, &gate.inputs, values));
        }
    }

    /// The panics shared by every propagation entry point.
    fn check_buffer(&self, netlist: &Netlist, values: &[W]) {
        assert!(values.len() >= self.net_count, "value buffer too small");
        assert!(
            netlist.net_count() == self.net_count && netlist.gate_count() == self.position.len(),
            "netlist does not match the one the kernel was built for; \
             rebuild the kernel after structural edits"
        );
    }

    /// Creates an empty [`DirtyWorklist`] sized for this kernel. Reuse the
    /// worklist across [`SimKernel::propagate_from`] calls — it keeps its
    /// bucket capacity, so steady-state event-driven cycles allocate
    /// nothing.
    #[must_use]
    pub fn make_worklist(&self) -> DirtyWorklist {
        DirtyWorklist {
            epoch: 1,
            stamp: vec![0; self.position.len()],
            buckets: vec![Vec::new(); self.levels],
        }
    }

    /// Marks every gate reading `net` dirty, seeding the next
    /// [`SimKernel::propagate_from`] pass. Call this after changing a source
    /// net's value in the buffer; marks accumulate until the next
    /// `propagate_from` consumes them.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `worklist` was built for a different
    /// kernel.
    pub fn mark_net_changed(&self, net: NetId, worklist: &mut DirtyWorklist) {
        debug_assert_eq!(
            worklist.stamp.len(),
            self.position.len(),
            "worklist was built for a different kernel"
        );
        let start = self.fanout_start[net.index()] as usize;
        let end = self.fanout_start[net.index() + 1] as usize;
        for &gate_index in &self.fanout_gates[start..end] {
            let slot = &mut worklist.stamp[gate_index as usize];
            if *slot != worklist.epoch {
                *slot = worklist.epoch;
                worklist.buckets[self.level[gate_index as usize] as usize].push(gate_index);
            }
        }
    }

    /// Event-driven (incremental) propagation, the kernel's one event-driven
    /// loop: re-evaluates **only** the gates marked dirty in `worklist`
    /// (seeded with [`SimKernel::mark_net_changed`]), level by level,
    /// marking the readers of every output that actually changed.
    /// `on_change(net, old, new)` is invoked once for every driven net whose
    /// value changed — the hook the packed scan replay uses to count toggles
    /// and collect the changed-net list for its observer. The scan replay,
    /// the fault simulator and the justifier settle through it.
    ///
    /// Starting from a settled value buffer (one a full
    /// [`SimKernel::propagate`] pass would leave unchanged), the buffer is
    /// settled again on return and **exactly equal** — every lane of every
    /// net — to what the full pass would have produced, because a gate none
    /// of whose input words changed re-evaluates to the identical output
    /// word. Change detection is whole-word (`!=` over all lanes), never
    /// masked, precisely to preserve that invariant.
    ///
    /// The worklist is drained and ready for the next cycle on return.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the number of nets or `netlist`
    /// does not match the kernel (as in [`SimKernel::propagate`]), or (in
    /// debug builds) if `worklist` was built for a different kernel.
    pub fn propagate_from<F>(
        &self,
        netlist: &Netlist,
        values: &mut [W],
        worklist: &mut DirtyWorklist,
        mut on_change: F,
    ) where
        F: FnMut(NetId, W, W),
    {
        self.check_buffer(netlist, values);
        debug_assert_eq!(
            worklist.stamp.len(),
            self.position.len(),
            "worklist was built for a different kernel"
        );
        for level in 0..worklist.buckets.len() {
            if worklist.buckets[level].is_empty() {
                continue;
            }
            // Take the bucket out so downstream marks (always at strictly
            // higher levels) can borrow the worklist.
            let mut bucket = std::mem::take(&mut worklist.buckets[level]);
            for &gate_index in &bucket {
                let gate = netlist.gate(GateId::from_index(gate_index as usize));
                let new = eval_gate_at(gate.kind, &gate.inputs, values);
                let old = values[gate.output.index()];
                if new != old {
                    values[gate.output.index()] = new;
                    on_change(gate.output, old, new);
                    self.mark_net_changed(gate.output, worklist);
                }
            }
            bucket.clear();
            debug_assert!(worklist.buckets[level].is_empty(), "marks must go forward");
            worklist.buckets[level] = bucket; // keep the capacity
        }
        worklist.epoch += 1;
    }

    /// Evaluates the circuit from a complete assignment of the combinational
    /// inputs (same order as [`SimKernel::inputs`]); unspecified inputs may
    /// be passed as unknown words. Returns one value per net, indexed by
    /// [`NetId::index`], borrowed from the kernel's reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if `input_values` has a different length than the number of
    /// combinational inputs, or if `netlist` is not the netlist the kernel
    /// was built for.
    pub fn evaluate(&mut self, netlist: &Netlist, input_values: &[W]) -> &[W] {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "one value per combinational input required"
        );
        let mut values = std::mem::take(&mut self.values);
        values.clear();
        values.resize(self.net_count, W::splat(Logic::X));
        for (&net, &value) in self.inputs.iter().zip(input_values) {
            values[net.index()] = value;
        }
        self.propagate(netlist, &mut values);
        self.values = values;
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::bench;

    fn all_logic() -> [Logic; 3] {
        [Logic::Zero, Logic::One, Logic::X]
    }

    /// Lane-0 packed evaluation must agree with scalar evaluation for every
    /// connective and every operand combination, including X propagation.
    #[test]
    fn packed_connectives_match_scalar_exhaustively() {
        for a in all_logic() {
            let pa = PackedWord::splat(a);
            assert_eq!(pa.not().lane(0), a.not());
            for b in all_logic() {
                let pb = PackedWord::splat(b);
                assert_eq!(LogicWord::and(pa, pb).lane(17), a.and(b), "{a} AND {b}");
                assert_eq!(LogicWord::or(pa, pb).lane(17), a.or(b), "{a} OR {b}");
                assert_eq!(LogicWord::xor(pa, pb).lane(17), a.xor(b), "{a} XOR {b}");
                for s in all_logic() {
                    let ps = PackedWord::splat(s);
                    assert_eq!(
                        PackedWord::mux(ps, pa, pb).lane(3),
                        Logic::mux(s, a, b),
                        "MUX({s}; {a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_gate_eval_matches_scalar_on_mixed_lanes() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            // Two inputs, each taking all 9 (a, b) combinations across lanes.
            let mut a = PackedWord::splat(Logic::X);
            let mut b = PackedWord::splat(Logic::X);
            let mut expected = Vec::new();
            for (lane, (va, vb)) in all_logic()
                .into_iter()
                .flat_map(|x| all_logic().into_iter().map(move |y| (x, y)))
                .enumerate()
            {
                a.set_lane(lane, va);
                b.set_lane(lane, vb);
                expected.push(eval_gate(kind, &[va, vb]));
            }
            let packed = eval_gate(kind, &[a, b]);
            for (lane, want) in expected.iter().enumerate() {
                assert_eq!(packed.lane(lane), *want, "{kind} lane {lane}");
            }
        }
    }

    #[test]
    fn lane_round_trip() {
        let mut word = PackedWord::splat(Logic::X);
        word.set_lane(0, Logic::Zero);
        word.set_lane(1, Logic::One);
        word.set_lane(63, Logic::One);
        assert_eq!(word.lane(0), Logic::Zero);
        assert_eq!(word.lane(1), Logic::One);
        assert_eq!(word.lane(2), Logic::X);
        assert_eq!(word.lane(63), Logic::One);
        assert_eq!(word.ones(), 1 << 1 | 1 << 63);
        assert_eq!(word.zeros(), 1 << 0);
        assert_eq!(word.unknown().count_ones(), 61);
    }

    #[test]
    fn packed_kernel_matches_scalar_kernel_on_s27() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut scalar = SimKernel::<Logic>::new(&netlist);
        let mut packed = SimKernel::<PackedWord>::new(&netlist);
        let width = scalar.inputs().len();

        // 64 exhaustive-ish input vectors including X positions.
        let patterns: Vec<Vec<Logic>> = (0..64u64)
            .map(|index| {
                (0..width)
                    .map(|bit| match (index >> bit) & 3 {
                        0 => Logic::Zero,
                        1 => Logic::One,
                        _ => {
                            if (index + bit as u64).is_multiple_of(3) {
                                Logic::X
                            } else {
                                Logic::from_bool(index & 1 == 1)
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let packed_inputs = pack_logic_patterns(&patterns);
        let packed_values = packed.evaluate(&netlist, &packed_inputs).to_vec();
        for (lane, pattern) in patterns.iter().enumerate() {
            let scalar_values = scalar.evaluate(&netlist, pattern);
            for net in netlist.net_ids() {
                assert_eq!(
                    packed_values[net.index()].lane(lane),
                    scalar_values[net.index()],
                    "net {} lane {lane}",
                    netlist.net(net).name
                );
            }
        }
    }

    #[test]
    fn lane_mask_selects_prefix_lanes() {
        assert_eq!(PackedWord::lane_mask(0), 0);
        assert_eq!(PackedWord::lane_mask(1), 1);
        assert_eq!(PackedWord::lane_mask(5), 0b1_1111);
        assert_eq!(PackedWord::lane_mask(64), u64::MAX);
    }

    #[test]
    fn differs_mirrors_scalar_inequality_per_lane() {
        // All 9 (a, b) combinations across lanes: the difference mask must
        // be set exactly where the scalar values are unequal (X == X).
        let mut a = PackedWord::splat(Logic::X);
        let mut b = PackedWord::splat(Logic::X);
        let mut expected = 0u64;
        for (lane, (va, vb)) in all_logic()
            .into_iter()
            .flat_map(|x| all_logic().into_iter().map(move |y| (x, y)))
            .enumerate()
        {
            a.set_lane(lane, va);
            b.set_lane(lane, vb);
            if va != vb {
                expected |= 1 << lane;
            }
        }
        assert_eq!(a.differs(b) & PackedWord::lane_mask(9), expected);
        assert_eq!(a.differs(a) & PackedWord::lane_mask(9), 0);
    }

    #[test]
    fn shifted_lanes_moves_every_lane_up_by_one() {
        let mut word = PackedWord::splat(Logic::X);
        word.set_lane(0, Logic::Zero);
        word.set_lane(1, Logic::One);
        word.set_lane(2, Logic::X);
        for lane0 in all_logic() {
            let shifted = word.shifted_lanes(lane0);
            assert_eq!(shifted.lane(0), lane0);
            assert_eq!(shifted.lane(1), Logic::Zero);
            assert_eq!(shifted.lane(2), Logic::One);
            assert_eq!(shifted.lane(3), Logic::X);
        }
        // Lane 63 falls off the end.
        let mut top = PackedWord::splat(Logic::Zero);
        top.set_lane(63, Logic::One);
        assert_eq!(top.shifted_lanes(Logic::Zero).lane(63), Logic::Zero);
    }

    #[test]
    fn bit_planes_round_trip() {
        let mut word = PackedWord::splat(Logic::X);
        word.set_lane(0, Logic::Zero);
        word.set_lane(5, Logic::One);
        let (can0, can1) = word.bit_planes();
        assert_eq!(can0, word.can0());
        assert_eq!(can1, word.can1());
        assert_eq!(PackedWord::from_planes(can0, can1), word);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn from_planes_rejects_impossible_lanes() {
        // Lane 3 can be neither 0 nor 1.
        let _ = PackedWord::from_planes(!(1u64 << 3), !(1u64 << 3));
    }

    /// The bit-plane transpose must produce, for every lane, exactly the
    /// 2-bit-per-pin code the scalar `lane()` decode implies.
    #[test]
    fn lane_state_indices_matches_scalar_lane_decode() {
        // 3 pins, each cycling 0/1/X out of phase across 64 lanes.
        let mut pins = [PackedWord::splat(Logic::X); 3];
        for lane in 0..64 {
            for (pin, word) in pins.iter_mut().enumerate() {
                let value = match (lane + 2 * pin) % 3 {
                    0 => Logic::Zero,
                    1 => Logic::One,
                    _ => Logic::X,
                };
                word.set_lane(lane, value);
            }
        }
        for lanes in [0, 1, 37, 64] {
            let mut indices = [u32::MAX; 64];
            lane_state_indices(&pins, lanes, &mut indices);
            for (lane, &index) in indices.iter().enumerate().take(lanes) {
                let mut expected = 0u32;
                for (pin, word) in pins.iter().enumerate() {
                    expected |= match word.lane(lane) {
                        Logic::Zero => 0b00,
                        Logic::One => 0b01,
                        Logic::X => 0b11,
                    } << (2 * pin);
                }
                assert_eq!(index, expected, "lanes {lanes}, lane {lane}");
            }
        }
    }

    #[test]
    fn lane_state_indices_zero_pins_yields_zero_indices() {
        let mut indices = [u32::MAX; 64];
        lane_state_indices(&[], 7, &mut indices);
        assert!(indices[..7].iter().all(|&i| i == 0));
        assert!(indices[7..].iter().all(|&i| i == u32::MAX));
    }

    #[test]
    #[should_panic(expected = "two-bit pin codes")]
    fn lane_state_indices_rejects_too_many_pins() {
        let pins = vec![PackedWord::splat(Logic::Zero); STATE_INDEX_MAX_PINS + 1];
        let mut indices = [0u32; 64];
        lane_state_indices(&pins, 64, &mut indices);
    }

    #[test]
    #[should_panic(expected = "two-bit pin codes")]
    fn lane_state_indices_rejects_too_many_pins_even_without_lanes() {
        let pins = vec![PackedWord::splat(Logic::Zero); STATE_INDEX_MAX_PINS + 1];
        let mut indices = [0u32; 64];
        lane_state_indices(&pins, 0, &mut indices);
    }

    /// The byte transpose must produce, code by code, the indices of
    /// `lane_state_indices` — for every pin count it accepts, partial and
    /// full chunks, and X densities from none to all-X — and zero the bytes
    /// of inactive lanes.
    #[test]
    fn lane_state_bytes_matches_lane_state_indices() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xb17e_c0de);
        for pin_count in 0..=STATE_BYTE_MAX_PINS {
            for density in [0.0, 0.2, 1.0] {
                let pins: Vec<PackedWord> = (0..pin_count)
                    .map(|_| {
                        let mut word = PackedWord::splat(Logic::X);
                        for lane in 0..64 {
                            if !rng.gen_bool(density) {
                                word.set_lane(lane, Logic::from_bool(rng.gen_bool(0.5)));
                            }
                        }
                        word
                    })
                    .collect();
                for lanes in [0, 1, 7, 8, 9, 63, 64] {
                    let mut indices = [0u32; 64];
                    lane_state_indices(&pins, lanes, &mut indices);
                    let mut codes = [u64::MAX; 8];
                    lane_state_bytes(&pins, lanes, &mut codes);
                    for lane in 0..64 {
                        let code = (codes[lane / 8] >> (8 * (lane % 8))) & 0xff;
                        let expected = if lane < lanes { indices[lane] } else { 0 };
                        assert_eq!(
                            code,
                            u64::from(expected),
                            "pins {pin_count}, density {density}, lanes {lanes}, lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one-byte state code")]
    fn lane_state_bytes_rejects_too_many_pins() {
        let pins = vec![PackedWord::splat(Logic::Zero); STATE_BYTE_MAX_PINS + 1];
        let mut codes = [0u64; 8];
        lane_state_bytes(&pins, 64, &mut codes);
    }

    #[test]
    fn pack_bool_patterns_transposes() {
        let patterns = vec![vec![true, false], vec![false, false], vec![true, true]];
        let words = pack_bool_patterns(&patterns);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].ones(), 0b101);
        assert_eq!(words[1].ones(), 0b100);
        // Lanes beyond the block are unknown.
        assert_eq!(words[0].lane(3), Logic::X);
    }

    /// Random input flips propagated event-driven must leave the buffer
    /// exactly equal to a full sweep, and `on_change` must report exactly
    /// the driven nets that differ.
    #[test]
    fn propagate_from_matches_full_propagate_on_s27() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let kernel = SimKernel::<PackedWord>::new(&netlist);
        let mut reference = SimKernel::<PackedWord>::new(&netlist);
        let mut worklist = kernel.make_worklist();
        let width = kernel.inputs().len();

        // Deterministic pseudo-random input words.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut inputs: Vec<PackedWord> = (0..width)
            .map(|_| PackedWord::from_planes(next() | u64::MAX << 32, next() | u64::MAX >> 32))
            .collect();
        let mut values = reference.evaluate(&netlist, &inputs).to_vec();

        for round in 0..50 {
            // Flip a random subset of inputs (sometimes none).
            for (slot, &net) in inputs.iter_mut().zip(kernel.inputs()) {
                if next() % 3 == 0 {
                    let flipped =
                        PackedWord::from_planes(next() | u64::MAX << 32, next() | u64::MAX >> 32);
                    *slot = flipped;
                    if values[net.index()] != flipped {
                        values[net.index()] = flipped;
                        kernel.mark_net_changed(net, &mut worklist);
                    }
                }
            }
            let mut changed = Vec::new();
            kernel.propagate_from(&netlist, &mut values, &mut worklist, |net, old, new| {
                assert_ne!(old, new, "round {round}: spurious change report");
                changed.push(net);
            });
            assert!(worklist.is_empty(), "round {round}: worklist must drain");

            let full = reference.evaluate(&netlist, &inputs);
            for net in netlist.net_ids() {
                assert_eq!(
                    values[net.index()],
                    full[net.index()],
                    "round {round}: net {} diverged",
                    netlist.net(net).name
                );
            }
            // Each changed net is reported at most once.
            let mut sorted = changed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                changed.len(),
                "round {round}: duplicate report"
            );
        }
    }

    /// With no marked nets, `propagate_from` must evaluate nothing.
    #[test]
    fn propagate_from_without_marks_is_a_no_op() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut kernel = SimKernel::<Logic>::new(&netlist);
        let width = kernel.inputs().len();
        let mut values = kernel.evaluate(&netlist, &vec![Logic::One; width]).to_vec();
        let snapshot = values.clone();
        let mut worklist = kernel.make_worklist();
        assert!(worklist.is_empty());
        kernel.propagate_from(&netlist, &mut values, &mut worklist, |net, _, _| {
            panic!("nothing changed, yet net {net} was reported");
        });
        assert_eq!(values, snapshot);
    }

    /// Re-marking an input with an unchanged value must not ripple: the
    /// loaded gates re-evaluate to identical outputs and propagation stops.
    #[test]
    fn propagate_from_stops_at_unchanged_outputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        let h = n.add_gate(GateKind::Not, &[g.output], "h");
        n.mark_output(h.output);
        let mut kernel = SimKernel::<Logic>::new(&n);
        let mut values = kernel.evaluate(&n, &[Logic::Zero, Logic::Zero]).to_vec();
        let mut worklist = kernel.make_worklist();
        // b: 0 -> 1 with a = 0 — the NAND stays 1, nothing downstream moves.
        values[b.index()] = Logic::One;
        kernel.mark_net_changed(b, &mut worklist);
        let mut changed = Vec::new();
        kernel.propagate_from(&n, &mut values, &mut worklist, |net, _, _| {
            changed.push(net)
        });
        assert!(changed.is_empty(), "blocked transition must not propagate");
        assert_eq!(values[g.output.index()], Logic::One);
    }

    /// The pinned sweep must agree, lane by lane, with scalar evaluation of
    /// each lane's inputs, where a pinned lane is the scalar circuit with
    /// the site net forced to its stuck value — for a pinned gate output
    /// and for a pinned combinational input. The sweep must settle from an
    /// arbitrary buffer, and sweeping a settled buffer must change nothing.
    #[test]
    fn propagate_pinned_matches_scalar_kernel_lane_by_lane() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let kernel = SimKernel::<PackedWord>::new(&netlist);
        let mut scalar = SimKernel::<Logic>::new(&netlist);
        let mut worklist = scalar.make_worklist();
        let mut seed = 0x0f1e_2d3c_4b5a_6978u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut random_word =
            move || PackedWord::from_planes(next() | u64::MAX << 32, next() | u64::MAX >> 32);
        let pinned_lanes = [1usize, 33, 62];
        let middle_gate = kernel.order()[kernel.order().len() / 2];
        let sites = [
            (netlist.gate(middle_gate).output, Logic::Zero),
            (kernel.inputs()[0], Logic::One),
        ];
        for (site, stuck) in sites {
            let pin = |net: NetId, mut word: PackedWord| {
                if net == site {
                    for &lane in &pinned_lanes {
                        word.set_lane(lane, stuck);
                    }
                }
                word
            };
            for round in 0..20 {
                let inputs: Vec<PackedWord> =
                    kernel.inputs().iter().map(|_| random_word()).collect();
                // Driven nets start from garbage; sources are written pinned.
                let mut values: Vec<PackedWord> =
                    (0..netlist.net_count()).map(|_| random_word()).collect();
                for (&net, &word) in kernel.inputs().iter().zip(&inputs) {
                    values[net.index()] = pin(net, word);
                }
                kernel.propagate_pinned(&netlist, &mut values, pin);

                for lane in 0..64 {
                    let lane_inputs: Vec<Logic> =
                        inputs.iter().map(|word| word.lane(lane)).collect();
                    let mut expected = scalar.evaluate(&netlist, &lane_inputs).to_vec();
                    if pinned_lanes.contains(&lane) && expected[site.index()] != stuck {
                        expected[site.index()] = stuck;
                        scalar.mark_net_changed(site, &mut worklist);
                        scalar.propagate_from(&netlist, &mut expected, &mut worklist, |_, _, _| {});
                    }
                    for net in netlist.net_ids() {
                        assert_eq!(
                            values[net.index()].lane(lane),
                            expected[net.index()],
                            "round {round}: net {} lane {lane}",
                            netlist.net(net).name
                        );
                    }
                }

                let settled = values.clone();
                kernel.propagate_pinned(&netlist, &mut values, pin);
                assert_eq!(values, settled, "round {round}: a settled sweep moved");
            }
        }
    }

    #[test]
    fn evaluates_simple_circuit() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        let h = n.add_gate(GateKind::Not, &[g.output], "h");
        n.mark_output(h.output);
        let mut kernel = SimKernel::<Logic>::new(&n);
        let values = kernel.evaluate(&n, &[Logic::One, Logic::One]);
        assert_eq!(values[g.output.index()], Logic::Zero);
        assert_eq!(values[h.output.index()], Logic::One);
    }

    #[test]
    fn x_propagates_only_where_needed() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nor, &[a, b], "g");
        n.mark_output(g.output);
        let mut kernel = SimKernel::<Logic>::new(&n);
        // b = X but a = 1 is controlling for NOR: output must be 0.
        let values = kernel.evaluate(&n, &[Logic::One, Logic::X]);
        assert_eq!(values[g.output.index()], Logic::Zero);
        // a = 0 leaves the output unknown.
        let values = kernel.evaluate(&n, &[Logic::Zero, Logic::X]);
        assert_eq!(values[g.output.index()], Logic::X);
    }

    #[test]
    fn s27_all_zero_input_state() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut kernel = SimKernel::<Logic>::new(&n);
        let width = kernel.inputs().len();
        let values = kernel.evaluate(&n, &vec![Logic::Zero; width]);
        // Every net must be fully specified when every input is specified.
        for net in n.net_ids() {
            assert!(values[net.index()].is_known());
        }
    }

    #[test]
    fn pseudo_inputs_are_part_of_the_input_vector() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let kernel = SimKernel::<Logic>::new(&n);
        assert_eq!(kernel.inputs().len(), 4 + 3);
    }

    #[test]
    #[should_panic(expected = "one value per combinational input")]
    fn wrong_input_width_panics() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut kernel = SimKernel::<Logic>::new(&netlist);
        let _ = kernel.evaluate(&netlist, &[Logic::Zero]);
    }

    #[test]
    #[should_panic(expected = "rebuild the kernel after structural edits")]
    fn stale_kernel_panics_after_structural_edit() {
        let mut netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut kernel = SimKernel::<Logic>::new(&netlist);
        let width = kernel.inputs().len();
        // Structural edit after the kernel was built: the kernel must
        // refuse to evaluate the grown netlist instead of returning
        // silently wrong values.
        let extra = netlist.add_input("late");
        let _ = netlist.add_gate(GateKind::Not, &[extra], "late_inv");
        let _ = kernel.evaluate(&netlist, &vec![Logic::Zero; width]);
    }
}
