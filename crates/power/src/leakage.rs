use serde::{Deserialize, Serialize};

use scanpower_lint::LEAKAGE_PIN_LIMIT;
use scanpower_netlist::{GateId, GateKind, NetId, Netlist};
use scanpower_sim::failpoint;
use scanpower_sim::kernel;
use scanpower_sim::scan::ShiftPhase;
use scanpower_sim::{Logic, LogicWord, PackedWord, ShiftCycle};

use crate::model::{self, LeakageParams, VDD};

/// Per-gate-type, per-input-state leakage tables (the paper's "several
/// tables containing the leakage of each gate for a given input pattern").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageLibrary {
    params: LeakageParams,
    supply: f64,
}

impl Default for LeakageLibrary {
    fn default() -> Self {
        LeakageLibrary::cmos45()
    }
}

impl LeakageLibrary {
    /// The default 45 nm / 0.9 V library, calibrated so the NAND2 table
    /// matches Figure 2 of the paper.
    #[must_use]
    pub fn cmos45() -> LeakageLibrary {
        LeakageLibrary {
            params: LeakageParams::cmos45(),
            supply: VDD,
        }
    }

    /// Supply voltage used to convert currents to power (volts).
    #[must_use]
    pub fn supply(&self) -> f64 {
        self.supply
    }

    /// Model parameters backing the library.
    #[must_use]
    pub fn params(&self) -> &LeakageParams {
        &self.params
    }

    /// Leakage current (nA) of a gate of the given kind and fanin in input
    /// state `state` (bit `i` = value of pin `i`).
    #[must_use]
    pub fn gate_leakage(&self, kind: GateKind, fanin: usize, state: u32) -> f64 {
        model::gate_leakage(&self.params, kind, fanin, state)
    }

    /// The full per-state table of a gate (length `2^fanin`).
    ///
    /// # Panics
    ///
    /// Panics if `fanin` exceeds [`LEAKAGE_PIN_LIMIT`], the pin cap lint's
    /// preflight enforces; table lookups enforce the same cap.
    #[must_use]
    pub fn gate_table(&self, kind: GateKind, fanin: usize) -> Vec<f64> {
        assert_pin_limit(fanin);
        (0..(1u32 << fanin))
            .map(|state| self.gate_leakage(kind, fanin, state))
            .collect()
    }

    /// The input state with minimum leakage for a gate.
    ///
    /// # Panics
    ///
    /// Panics if `fanin` exceeds [`LEAKAGE_PIN_LIMIT`], the pin cap lint's
    /// preflight enforces; table lookups enforce the same cap.
    #[must_use]
    pub fn best_state(&self, kind: GateKind, fanin: usize) -> u32 {
        assert_pin_limit(fanin);
        (0..(1u32 << fanin))
            .min_by(|&a, &b| {
                self.gate_leakage(kind, fanin, a)
                    .total_cmp(&self.gate_leakage(kind, fanin, b))
            })
            .unwrap_or(0)
    }

    /// Converts a leakage current in nanoamperes to static power in
    /// microwatts at the library supply (`P = I · V_DD`, Equation (5)).
    #[must_use]
    pub fn current_to_power_uw(&self, nanoamps: f64) -> f64 {
        nanoamps * 1e-9 * self.supply * 1e6
    }
}

/// Circuit-level leakage estimator with cached per-state tables.
///
/// The estimator is built once per netlist (the tables depend only on gate
/// kinds and fanins) and can then evaluate the total leakage of any circuit
/// state cheaply — including partially-specified states, where unknown
/// inputs are averaged over.
///
/// The tables are shared: the estimator keeps one slot per distinct
/// `(kind, fanin)` of the netlist, and each gate holds only the index of
/// its slot, so a netlist full of NAND2s builds exactly one 4-entry binary
/// table. For the packed lane-parallel paths ([`circuit_leakage_lanes`],
/// 64 lanes with [`PackedWord`]) a slot also holds a **ternary table**:
/// one entry per 2-bit-per-pin encoded input state (`00` = 0, `01` = 1,
/// high bit set = X), holding the already-X-averaged leakage. Every entry
/// is filled by the scalar `averaged_table_lookup` itself, so the fast
/// path is bit-identical to the scalar one by construction. Gates wider
/// than [`LeakageEstimator::TERNARY_FANIN_LIMIT`] pins (whose `4^fanin`
/// table would be too large) have no ternary table and fall back to the
/// scalar lookup per lane.
///
/// [`circuit_leakage_lanes`]: LeakageEstimator::circuit_leakage_lanes
#[derive(Debug, Clone)]
pub struct LeakageEstimator {
    /// Per gate: index into `slots`.
    slot: Vec<usize>,
    /// The tables of each distinct `(kind, fanin)`, in order of first
    /// appearance in the netlist.
    slots: Vec<TableSlot>,
    library: LeakageLibrary,
}

/// The leakage tables shared by every gate of one `(kind, fanin)`.
#[derive(Debug, Clone)]
struct TableSlot {
    /// Leakage per binary input state (`2^fanin` entries).
    binary: Vec<f64>,
    /// Averaged leakage per ternary state code (`4^fanin` entries), for
    /// fanins up to [`LeakageEstimator::TERNARY_FANIN_LIMIT`].
    ternary: Option<Vec<f64>>,
}

impl LeakageEstimator {
    /// Widest gate (input pins) that gets a precomputed ternary table; a
    /// table holds `4^fanin` entries, so the cap bounds each table at 8 MiB.
    /// Wider gates use the scalar subset enumeration per lane.
    pub const TERNARY_FANIN_LIMIT: usize = 10;

    /// Builds the estimator for `netlist` using `library`, with one shared
    /// table slot per distinct gate `(kind, fanin)`.
    #[must_use]
    pub fn new(netlist: &Netlist, library: &LeakageLibrary) -> LeakageEstimator {
        let mut shared: std::collections::HashMap<(GateKind, usize), usize> =
            std::collections::HashMap::new();
        let mut slots = Vec::new();
        let slot = netlist
            .gates()
            .iter()
            .map(|gate| {
                let fanin = gate.fanin();
                *shared.entry((gate.kind, fanin)).or_insert_with(|| {
                    let binary = library.gate_table(gate.kind, fanin);
                    let ternary = (fanin <= LeakageEstimator::TERNARY_FANIN_LIMIT)
                        .then(|| build_ternary_table(&binary, fanin));
                    slots.push(TableSlot { binary, ternary });
                    slots.len() - 1
                })
            })
            .collect();
        LeakageEstimator {
            slot,
            slots,
            library: library.clone(),
        }
    }

    /// The table slot of `gate`.
    fn tables(&self, gate: GateId) -> &TableSlot {
        &self.slots[self.slot[gate.index()]]
    }

    /// The library the estimator was built from.
    #[must_use]
    pub fn library(&self) -> &LeakageLibrary {
        &self.library
    }

    /// Leakage current (nA) of a single gate given the current per-net
    /// values. Unknown inputs are averaged over both values.
    #[must_use]
    pub fn gate_leakage(&self, netlist: &Netlist, gate: GateId, values: &[Logic]) -> f64 {
        let table = &self.tables(gate).binary;
        let g = netlist.gate(gate);
        averaged_table_lookup(table, g.inputs.iter().map(|&input| values[input.index()]))
    }

    /// Total leakage current (nA) of the combinational part for each of the
    /// first `lanes` circuit states of a packed simulation result (one
    /// [`PackedWord`] per net, as produced by
    /// [`SimKernel`](scanpower_sim::SimKernel)`::<PackedWord>::evaluate`).
    ///
    /// One topological simulation pass feeds up to 64 leakage
    /// evaluations — this is the lane-parallel path behind the Monte-Carlo
    /// minimum-leakage vector search. The packed scan-shift observer
    /// ([`PackedShiftLeakage`]) adds the same floats in the same order from
    /// its cached lane state codes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    #[must_use]
    pub fn circuit_leakage_lanes(
        &self,
        netlist: &Netlist,
        values: &[PackedWord],
        lanes: usize,
    ) -> Vec<f64> {
        let mut totals = Vec::with_capacity(lanes);
        self.circuit_leakage_lanes_into(netlist, values, lanes, &mut totals);
        totals
    }

    /// Allocation-free variant of
    /// [`circuit_leakage_lanes`](LeakageEstimator::circuit_leakage_lanes):
    /// `totals` is cleared and resized to `lanes` (reusing its capacity),
    /// then filled with the per-lane leakage.
    ///
    /// For every gate with a precomputed ternary table the per-lane state
    /// indices are assembled by one bit-plane gather
    /// ([`lane_state_indices`](scanpower_sim::kernel::lane_state_indices))
    /// and the averaged leakage is read with one table load per lane —
    /// no per-lane pin decoding, no X-completion enumeration. Gates without
    /// a ternary table (fanin above
    /// [`LeakageEstimator::TERNARY_FANIN_LIMIT`]) run the scalar subset
    /// enumeration per lane; both produce bit-identical sums because the
    /// tables were filled by that very enumeration and the per-lane
    /// accumulation order (gate by gate, in netlist order) is the same.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    pub fn circuit_leakage_lanes_into(
        &self,
        netlist: &Netlist,
        values: &[PackedWord],
        lanes: usize,
        totals: &mut Vec<f64>,
    ) {
        assert!(lanes <= 64, "a packed word holds at most 64 lanes");
        totals.clear();
        totals.resize(lanes, 0.0);
        let mut contributions = vec![0.0f64; lanes];
        for gate_id in netlist.gate_ids() {
            self.gate_leakage_lanes_into(netlist, gate_id, values, lanes, &mut contributions);
            for (total, &contribution) in totals.iter_mut().zip(&contributions) {
                *total += contribution;
            }
        }
    }

    /// Per-lane leakage current (nA) of **one** gate over the first `lanes`
    /// circuit states of a packed simulation result, written into
    /// `out[..lanes]` (entries beyond `lanes` are left untouched) — the
    /// per-gate building block of
    /// [`circuit_leakage_lanes_into`](LeakageEstimator::circuit_leakage_lanes_into).
    /// The scan-shift observer ([`PackedShiftLeakage`]) refills with it the
    /// private lane table of every gate its one-byte state codes cannot
    /// describe (more than 4 pins) when the gate's input state changed.
    /// Each written value is exactly the float the scalar
    /// [`LeakageEstimator::gate_leakage`] would produce for that lane's
    /// decoded state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64` or `out` is shorter than `lanes`.
    pub fn gate_leakage_lanes_into(
        &self,
        netlist: &Netlist,
        gate_id: GateId,
        values: &[PackedWord],
        lanes: usize,
        out: &mut [f64],
    ) {
        assert!(lanes <= 64, "a packed word holds at most 64 lanes");
        // The gate, its table and its input words are loop-invariant over
        // the lanes: resolve them once per gate, not once per lane. The
        // table cap bounds the pins, so the gather buffer lives on the
        // stack.
        let mut pin_words = [PackedWord::splat(Logic::X); LEAKAGE_PIN_LIMIT];
        let gate = netlist.gate(gate_id);
        let fanin = gate.inputs.len();
        for (word, &input) in pin_words.iter_mut().zip(&gate.inputs) {
            *word = values[input.index()];
        }
        let pins = &pin_words[..fanin];
        let tables = self.tables(gate_id);
        if let Some(table) = &tables.ternary {
            // One bit-plane transpose into a stack index buffer, then one
            // table load per lane.
            let mut indices = [0u32; 64];
            kernel::lane_state_indices(pins, lanes, &mut indices);
            for (slot, &index) in out[..lanes].iter_mut().zip(&indices[..lanes]) {
                *slot = table[index as usize];
            }
        } else {
            for (lane, slot) in out[..lanes].iter_mut().enumerate() {
                *slot =
                    averaged_table_lookup(&tables.binary, pins.iter().map(|word| word.lane(lane)));
            }
        }
    }

    /// Total leakage current (nA) of the combinational part of the circuit
    /// in the state described by `values` (one [`Logic`] per net, indexed by
    /// net id, as produced by the simulators).
    #[must_use]
    pub fn circuit_leakage(&self, netlist: &Netlist, values: &[Logic]) -> f64 {
        netlist
            .gate_ids()
            .map(|gate| self.gate_leakage(netlist, gate, values))
            .sum()
    }
}

/// Expands a binary per-state table (`2^fanin` entries) into the ternary
/// table the lane-parallel lookup gathers from: `4^fanin` entries, indexed
/// by the 2-bit-per-pin state codes of
/// [`lane_state_indices`](scanpower_sim::kernel::lane_state_indices)
/// (`00` = 0, `01` = 1, high bit set = X — both `10` and `11` decode as X,
/// matching the `1x` convention). Every canonical entry is computed by
/// [`averaged_table_lookup`] over the decoded pins (redundant `10` codes
/// bit-copy their all-`11` sibling), which is what makes the gather path
/// bit-identical to the scalar path: the float the fast path loads *is*
/// the float the slow path would have produced.
fn build_ternary_table(table: &[f64], fanin: usize) -> Vec<f64> {
    debug_assert_eq!(table.len(), 1usize << fanin);
    let size = 1usize << (2 * fanin);
    // Mask of every pin's low code bit (bit 2p).
    let mut low_bits = 0usize;
    for pin in 0..fanin {
        low_bits |= 1 << (2 * pin);
    }
    let mut ternary = vec![0.0f64; size];
    // Descending, so that a code with `10` pins can bit-copy its canonical
    // all-`11` sibling (a strictly larger code, already filled) instead of
    // re-enumerating the same X completions.
    for code in (0..size).rev() {
        let ten_pins = (code >> 1) & !code & low_bits;
        if ten_pins != 0 {
            ternary[code] = ternary[code | ten_pins];
            continue;
        }
        ternary[code] = averaged_table_lookup(
            table,
            (0..fanin).map(|pin| match (code >> (2 * pin)) & 0b11 {
                0b00 => Logic::Zero,
                0b01 => Logic::One,
                _ => Logic::X,
            }),
        );
    }
    ternary
}

/// Looks up `table` at the state formed by the pin values, averaging over
/// every completion of the unknown pins.
///
/// Both the known-1 pins and the unknown pins are tracked in stack
/// bitmasks (no allocation on this per-gate-per-lane hot path), and the
/// completions are enumerated with the subset-increment trick
/// `s = (s - mask) & mask`, which walks the subsets of `mask` in the same
/// ascending order the old per-pin spread produced.
///
/// # Panics
///
/// Panics if more than [`LEAKAGE_PIN_LIMIT`] pins are passed — the same
/// cap [`LeakageLibrary::gate_table`] and [`LeakageLibrary::best_state`]
/// enforce: no wider table exists to index, and the `u32` state masks
/// cannot wrap.
fn averaged_table_lookup(table: &[f64], pins: impl Iterator<Item = Logic>) -> f64 {
    let mut base_state = 0u32;
    let mut unknown_mask = 0u32;
    for (pin, value) in pins.enumerate() {
        assert_pin_limit(pin + 1);
        match value {
            Logic::One => base_state |= 1 << pin,
            Logic::Zero => {}
            Logic::X => unknown_mask |= 1 << pin,
        }
    }
    if unknown_mask == 0 {
        return table[base_state as usize];
    }
    let mut total = 0.0;
    let mut completion = 0u32;
    loop {
        total += table[(base_state | completion) as usize];
        completion = completion.wrapping_sub(unknown_mask) & unknown_mask;
        if completion == 0 {
            break;
        }
    }
    total / (1u64 << unknown_mask.count_ones()) as f64
}

/// Panics unless a gate of `fanin` pins is within the leakage model's cap:
/// a `2^fanin` table past [`LEAKAGE_PIN_LIMIT`] pins would grow to GiBs.
fn assert_pin_limit(fanin: usize) {
    assert!(
        fanin <= LEAKAGE_PIN_LIMIT,
        "leakage tables support at most LEAKAGE_PIN_LIMIT = {LEAKAGE_PIN_LIMIT} input pins, \
         got {fanin}"
    );
}

/// Running average of leakage over a sequence of observed circuit states
/// (used while replaying scan-shift cycles).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LeakageAverage {
    total_na: f64,
    samples: usize,
}

impl LeakageAverage {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> LeakageAverage {
        LeakageAverage::default()
    }

    /// Adds one observed state's leakage (nA).
    pub fn add(&mut self, leakage_na: f64) {
        self.total_na += leakage_na;
        self.samples += 1;
    }

    /// Number of accumulated samples.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Average leakage current (nA); 0 when no samples were added.
    #[must_use]
    pub fn average_na(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_na / self.samples as f64
        }
    }

    /// Average static power (µW) using the supply of `library`.
    #[must_use]
    pub fn average_uw(&self, library: &LeakageLibrary) -> f64 {
        library.current_to_power_uw(self.average_na())
    }
}

/// Lane-aware static-power observer for the packed scan-shift replay.
///
/// Plugs into the packed replay
/// ([`PackedScanShiftSim::run`](scanpower_sim::PackedScanShiftSim::run)
/// via [`PackedShiftLeakage::observe_cycle`]): every [`ShiftPhase::Shift`]
/// event is evaluated once over all active lanes (writing into a recycled
/// row buffer — no unpacking to scalar [`Logic`] and no allocation per
/// cycle in the steady state) and the per-cycle lane rows are buffered
/// until the block's [`ShiftPhase::Capture`] event, where they are flushed
/// into the running [`LeakageAverage`] **lane-first** (pattern 0's cycles,
/// then pattern 1's, …). That is exactly the order the scalar replay visits
/// its states in, so the floating-point accumulation — and therefore the
/// reported average static power — is bit-identical to the scalar path.
///
/// # Lane state codes and the pin patch
///
/// The observer caches, per gate, one **state code byte per lane** rather
/// than the lane's leakage float: the 2-bit-per-pin ternary code of
/// [`lane_state_bytes`](scanpower_sim::kernel::lane_state_bytes) for gates
/// of at most 4 pins, which indexes the estimator's shared ternary table.
/// Wider gates get a private 64-entry lane table refilled by
/// [`LeakageEstimator::gate_leakage_lanes_into`] and the fixed codes
/// `0..64`, so every gate is read through the same table indirection. The
/// codes are stored gate-major, 8 lanes per `u64`: a gate's 64 codes are
/// one 64-byte line instead of 512 bytes of floats.
///
/// When the replay supplies a changed-net delta ([`ShiftCycle::changed`])
/// the codes are patched rather than re-derived: each changed net's
/// one-pin code is spread once, and each `(gate, pin)` reading the net
/// rewrites only that pin's 2-bit field of the gate's 8 code words. A
/// gate with a private lane table that reads a changed net refills its
/// table instead. A cycle without a delta, or with a different lane count
/// than the previous one, re-derives every gate. The row is then re-summed
/// from `table[code]` **gate by gate, in netlist order**, 8 lanes at a time
/// in register accumulators. Those are the very floats the full gather of
/// [`LeakageEstimator::circuit_leakage_lanes_into`] adds, in the same
/// order, so the row is bit-identical to it — naïve floating-point *delta
/// accumulation* (`row − old + new`) would re-associate the sum and break
/// that. A cycle whose delta touches no gate reuses the previous row
/// outright.
///
/// # Examples
///
/// Averaging static power over a packed event-driven scan replay:
///
/// ```
/// use scanpower_netlist::bench;
/// use scanpower_power::{LeakageEstimator, LeakageLibrary, PackedShiftLeakage};
/// use scanpower_sim::scan::{ScanPattern, ShiftConfig};
/// use scanpower_sim::PackedScanShiftSim;
///
/// let circuit = bench::parse(bench::S27_BENCH, "s27")?;
/// let library = LeakageLibrary::cmos45();
/// let estimator = LeakageEstimator::new(&circuit, &library);
/// let patterns = vec![
///     ScanPattern::from_bools(&[true, false, true, false], &[true, false, true]),
///     ScanPattern::from_bools(&[false, true, false, true], &[false, true, true]),
/// ];
/// let config = ShiftConfig::traditional(circuit.dff_count());
///
/// let mut observer = PackedShiftLeakage::new(&circuit, &estimator);
/// let stats = PackedScanShiftSim::new(&circuit).run(
///     &circuit,
///     &patterns,
///     &config,
///     None,
///     |cycle| observer.observe_cycle(cycle),
/// )?;
/// let average = observer.into_average();
/// // One leakage sample per pattern per shift cycle, shift states only.
/// assert_eq!(average.samples(), stats.shift_cycles);
/// assert!(average.average_uw(&library) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedShiftLeakage<'a> {
    netlist: &'a Netlist,
    estimator: &'a LeakageEstimator,
    rows: Vec<Vec<f64>>,
    /// Flushed rows, recycled so the steady state allocates nothing: after
    /// the first block every shift cycle pops a spent row, refills it in
    /// place and pushes it back at the capture flush.
    pool: Vec<Vec<f64>>,
    average: LeakageAverage,
    /// Per gate: how its codes are derived.
    source: Vec<CodeSource>,
    /// Flattened pin nets: gate `g` reads
    /// `pin_nets[pin_start[g]..pin_start[g + 1]]`.
    pin_nets: Vec<u32>,
    pin_start: Vec<u32>,
    /// Per gate: where its table starts in `tables`.
    table_start: Vec<u32>,
    /// The shared ternary tables of the [`CodeSource::Bytes`] gates, then
    /// one private 64-entry lane table per [`CodeSource::Lanes`] gate, then
    /// 256 padding entries.
    tables: Vec<f64>,
    /// Per gate: its lane state codes.
    codes: Vec<GateCodes>,
    /// `Some(lanes)` when the codes and lane tables describe the previous
    /// shift event (which had `lanes` active lanes); `None` before the
    /// first derivation.
    derived_lanes: Option<usize>,
    /// Scratch bit set (bit `g % 64` of word `g / 64`) of the
    /// [`CodeSource::Lanes`] gates to refill this cycle; all clear between
    /// cycles.
    dirty: Vec<u64>,
    /// Shift events seen so far — the `power::observer::cycle` failpoint
    /// key.
    observed: u64,
    /// Capture flushes seen so far — the `power::observer::flush` failpoint
    /// key.
    flushes: u64,
}

/// 8-lane code chunks per gate (one `u64` of one-byte codes each).
const CHUNKS: usize = PackedWord::LANES / 8;

/// The 2-bit field of pin 0 in each of a code word's 8 one-byte codes.
const PIN_FIELDS: u64 = 0x0303_0303_0303_0303;

/// One gate's one-byte lane state codes: word `chunk` holds lanes
/// `8 * chunk..8 * chunk + 8`. Aligned so that a gate's codes are one cache
/// line, which a pin patch rewrites.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct GateCodes([u64; CHUNKS]);

/// How [`PackedShiftLeakage`] derives one gate's lane codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CodeSource {
    /// At most [`kernel::STATE_BYTE_MAX_PINS`] pins and a shared ternary
    /// table: byte codes from [`kernel::lane_state_bytes`].
    Bytes,
    /// A private lane table refilled by
    /// [`LeakageEstimator::gate_leakage_lanes_into`], read through the
    /// fixed codes `0..64`.
    Lanes,
}

impl<'a> PackedShiftLeakage<'a> {
    /// Creates an empty accumulator over `estimator`'s tables.
    #[must_use]
    pub fn new(netlist: &'a Netlist, estimator: &'a LeakageEstimator) -> PackedShiftLeakage<'a> {
        let gate_count = netlist.gate_count();
        let mut source = Vec::with_capacity(gate_count);
        let mut pin_nets = Vec::new();
        let mut pin_start = Vec::with_capacity(gate_count + 1);
        let mut table_start = Vec::with_capacity(gate_count);
        let mut tables = Vec::new();
        let mut codes = vec![GateCodes::default(); gate_count];
        // Estimator table slot -> the start of its ternary table in `tables`.
        let mut shared_start = vec![None; estimator.slots.len()];
        for gate_id in netlist.gate_ids() {
            let index = gate_id.index();
            let inputs = &netlist.gate(gate_id).inputs;
            pin_start.push(pin_nets.len() as u32);
            pin_nets.extend(inputs.iter().map(|net| net.index() as u32));
            let slot = estimator.slot[index];
            match &estimator.slots[slot].ternary {
                Some(ternary) if inputs.len() <= kernel::STATE_BYTE_MAX_PINS => {
                    let start = *shared_start[slot].get_or_insert_with(|| {
                        tables.extend_from_slice(ternary);
                        tables.len() - ternary.len()
                    });
                    source.push(CodeSource::Bytes);
                    table_start.push(start as u32);
                }
                _ => {
                    source.push(CodeSource::Lanes);
                    table_start.push(tables.len() as u32);
                    tables.resize(tables.len() + PackedWord::LANES, 0.0);
                    for (chunk, code) in codes[index].0.iter_mut().enumerate() {
                        *code = u64::from_le_bytes(std::array::from_fn(|byte| {
                            (8 * chunk + byte) as u8
                        }));
                    }
                }
            }
        }
        pin_start.push(pin_nets.len() as u32);
        // Padding, so that every table start has a full 256-entry window
        // for the row sum's check-free byte-indexed loads.
        tables.resize(tables.len() + 256, 0.0);
        PackedShiftLeakage {
            netlist,
            estimator,
            rows: Vec::new(),
            pool: Vec::new(),
            average: LeakageAverage::new(),
            source,
            pin_nets,
            pin_start,
            table_start,
            tables,
            codes,
            derived_lanes: None,
            dirty: vec![0; gate_count.div_ceil(64)],
            observed: 0,
            flushes: 0,
        }
    }

    /// Feeds one packed replay event with its changed-net delta (see
    /// [`ShiftCycle`]): shift states accumulate — patching the codes of the
    /// gates that read a changed net when [`ShiftCycle::changed`] is
    /// present, re-deriving every gate otherwise — and the capture event
    /// flushes the block in the scalar pattern-major order. Capture states
    /// themselves are not counted, matching the paper's shift-only static
    /// power. The resulting average is bit-identical either way.
    pub fn observe_cycle(&mut self, cycle: &ShiftCycle<'_>) {
        match cycle.phase {
            ShiftPhase::Shift => {
                failpoint::strike("power::observer::cycle", self.observed);
                self.observed += 1;
                let mut row = self.pool.pop().unwrap_or_default();
                match cycle.changed {
                    Some(changed) if self.derived_lanes == Some(cycle.lanes) => {
                        if !self.patch(changed, cycle.values, cycle.lanes) {
                            if let Some(previous) = self.rows.last() {
                                // Nothing a gate reads moved: the previous
                                // row's floats are the sum this cycle would
                                // recompute.
                                row.clone_from(previous);
                                self.rows.push(row);
                                return;
                            }
                        }
                    }
                    _ => {
                        for gate in 0..self.source.len() {
                            self.derive(gate, cycle.values, cycle.lanes);
                        }
                        self.derived_lanes = Some(cycle.lanes);
                    }
                }
                self.sum_row(cycle.lanes, &mut row);
                self.rows.push(row);
            }
            ShiftPhase::Capture => {
                failpoint::strike("power::observer::flush", self.flushes);
                self.flushes += 1;
                for lane in 0..cycle.lanes {
                    for row in &self.rows {
                        self.average.add(row[lane]);
                    }
                }
                self.pool.append(&mut self.rows);
            }
        }
    }

    /// Brings the codes up to date with the `changed` nets of `values`:
    /// each changed net's one-pin code is spread once and written into the
    /// pin's 2-bit field of every [`CodeSource::Bytes`] gate reading it,
    /// and every [`CodeSource::Lanes`] gate reading one refills its table.
    /// `false` when no gate reads a changed net.
    fn patch(&mut self, changed: &[NetId], values: &[PackedWord], lanes: usize) -> bool {
        let mut patched = false;
        for &net in changed {
            let loads = self.netlist.loads(net);
            if loads.is_empty() {
                continue;
            }
            patched = true;
            let mut spread = [0u64; CHUNKS];
            kernel::lane_state_bytes(&[values[net.index()]], lanes, &mut spread);
            for &(gate, pin) in loads {
                let gate = gate.index();
                match self.source[gate] {
                    CodeSource::Bytes => {
                        let shift = 2 * pin;
                        let keep = !(PIN_FIELDS << shift);
                        for (code, &pin_code) in self.codes[gate].0.iter_mut().zip(&spread) {
                            *code = *code & keep | pin_code << shift;
                        }
                    }
                    CodeSource::Lanes => self.dirty[gate / 64] |= 1 << (gate % 64),
                }
            }
        }
        for word in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[word]);
            while bits != 0 {
                self.derive(word * 64 + bits.trailing_zeros() as usize, values, lanes);
                bits &= bits - 1;
            }
        }
        patched
    }

    /// Re-derives `gate`'s codes (or its private lane table) from `values`
    /// over the first `lanes` lanes.
    fn derive(&mut self, gate: usize, values: &[PackedWord], lanes: usize) {
        match self.source[gate] {
            CodeSource::Bytes => {
                let nets = &self.pin_nets
                    [self.pin_start[gate] as usize..self.pin_start[gate + 1] as usize];
                let mut pins = [PackedWord::splat(Logic::X); kernel::STATE_BYTE_MAX_PINS];
                for (word, &net) in pins.iter_mut().zip(nets) {
                    *word = values[net as usize];
                }
                kernel::lane_state_bytes(&pins[..nets.len()], lanes, &mut self.codes[gate].0);
            }
            CodeSource::Lanes => {
                let start = self.table_start[gate] as usize;
                self.estimator.gate_leakage_lanes_into(
                    self.netlist,
                    GateId::from_index(gate),
                    values,
                    lanes,
                    &mut self.tables[start..start + PackedWord::LANES],
                );
            }
        }
    }

    /// `row[lane] = Σ_gates table[code[gate][lane]]`, gate by gate in
    /// netlist order — the one accumulation order every leakage path in the
    /// workspace shares — with 8 lanes summed per pass over the gates.
    fn sum_row(&self, lanes: usize, row: &mut Vec<f64>) {
        row.clear();
        for chunk in 0..lanes.div_ceil(8) {
            let codes = self.codes.iter().map(|codes| codes.0[chunk]);
            let mut totals = [0.0f64; 8];
            for (code, &start) in codes.zip(&self.table_start) {
                let table: &[f64; 256] = self.tables[start as usize..start as usize + 256]
                    .try_into()
                    .expect("every table start has 256 entries after it");
                for (byte, total) in totals.iter_mut().enumerate() {
                    *total += table[usize::from((code >> (8 * byte)) as u8)];
                }
            }
            row.extend_from_slice(&totals[..(lanes - 8 * chunk).min(8)]);
        }
    }

    /// The accumulated average (call after the replay finished; any
    /// unflushed partial block is impossible because every block ends with
    /// a capture event).
    #[must_use]
    pub fn into_average(self) -> LeakageAverage {
        self.average
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, GateKind, Netlist};
    use scanpower_sim::scan::{ScanPattern, ShiftConfig, ShiftStats};
    use scanpower_sim::{PackedScanShiftSim, SimKernel};

    /// The packed replay without a cancel flag (which never fails), every
    /// event handed to `observer`.
    fn packed_replay(
        n: &Netlist,
        patterns: &[ScanPattern],
        config: &ShiftConfig,
        observer: impl FnMut(&ShiftCycle<'_>),
    ) -> ShiftStats {
        PackedScanShiftSim::new(n)
            .run(n, patterns, config, None, observer)
            .expect("a replay without a cancel flag never fails")
    }

    #[test]
    fn library_reproduces_figure_2() {
        let library = LeakageLibrary::cmos45();
        let table = library.gate_table(GateKind::Nand, 2);
        let expected = [78.0, 264.0, 73.0, 408.0];
        for (got, want) in table.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "{got} != {want}");
        }
    }

    #[test]
    fn best_state_of_nand2_is_a0_b1() {
        let library = LeakageLibrary::cmos45();
        assert_eq!(library.best_state(GateKind::Nand, 2), 0b10);
    }

    #[test]
    fn current_to_power_uses_supply() {
        let library = LeakageLibrary::cmos45();
        // 1000 nA at 0.9 V = 0.9 µW.
        assert!((library.current_to_power_uw(1000.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn circuit_leakage_is_sum_of_gate_leakages() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let mut ev = SimKernel::<Logic>::new(&n);
        let values = ev.evaluate(&n, &vec![Logic::Zero; ev.inputs().len()]);
        let total = estimator.circuit_leakage(&n, values);
        let manual: f64 = n
            .gate_ids()
            .map(|g| estimator.gate_leakage(&n, g, values))
            .sum();
        assert!((total - manual).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn unknown_inputs_average_over_both_values() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let mut values = vec![Logic::X; n.net_count()];
        values[a.index()] = Logic::Zero;
        // b unknown: average of states 00 and 01(b=1 -> pin1 set) = (78 + 73)/2.
        let leak = estimator.gate_leakage(&n, g.gate, &values);
        assert!((leak - (78.0 + 73.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn leakage_state_dependence_is_visible_at_circuit_level() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let mut ev = SimKernel::<Logic>::new(&n);
        let zeros =
            estimator.circuit_leakage(&n, ev.evaluate(&n, &vec![Logic::Zero; ev.inputs().len()]));
        let ones =
            estimator.circuit_leakage(&n, ev.evaluate(&n, &vec![Logic::One; ev.inputs().len()]));
        assert_ne!(zeros, ones);
    }

    /// With several unknown pins the bitmask enumeration must equal the
    /// brute-force mean over every completion.
    #[test]
    fn multiple_unknown_pins_average_over_all_completions() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g = n.add_gate(GateKind::Nand, &[a, b, c, d], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let table = library.gate_table(GateKind::Nand, 4);

        // b and d unknown, a = 1, c = 0: average over states with pin 0
        // set and pins 1/3 free.
        let mut values = vec![Logic::X; n.net_count()];
        values[a.index()] = Logic::One;
        values[c.index()] = Logic::Zero;
        let expected: f64 = [0b0001, 0b0011, 0b1001, 0b1011]
            .iter()
            .map(|&state: &usize| table[state])
            .sum::<f64>()
            / 4.0;
        let got = estimator.gate_leakage(&n, g.gate, &values);
        assert!((got - expected).abs() < 1e-9, "{got} != {expected}");

        // All four unknown: the plain table mean.
        let all_x = vec![Logic::X; n.net_count()];
        let mean = table.iter().sum::<f64>() / table.len() as f64;
        let got = estimator.gate_leakage(&n, g.gate, &all_x);
        assert!((got - mean).abs() < 1e-9, "{got} != {mean}");
    }

    #[test]
    fn packed_lane_leakage_matches_scalar() {
        use scanpower_sim::kernel::pack_logic_patterns;
        use scanpower_sim::{PackedWord, SimKernel};

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let mut ev = SimKernel::<Logic>::new(&n);
        let width = ev.inputs().len();

        // 16 patterns mixing known and unknown inputs.
        let patterns: Vec<Vec<Logic>> = (0..16u32)
            .map(|index| {
                (0..width)
                    .map(|bit| match (index >> (bit % 16)) & 3 {
                        0 => Logic::Zero,
                        1 => Logic::One,
                        _ => Logic::X,
                    })
                    .collect()
            })
            .collect();
        let mut kernel = SimKernel::<PackedWord>::new(&n);
        let packed = kernel
            .evaluate(&n, &pack_logic_patterns(&patterns))
            .to_vec();
        let lanes = estimator.circuit_leakage_lanes(&n, &packed, patterns.len());
        for (lane, pattern) in patterns.iter().enumerate() {
            let scalar = estimator.circuit_leakage(&n, ev.evaluate(&n, pattern));
            assert!(
                (lanes[lane] - scalar).abs() < 1e-9,
                "lane {lane}: {} != {scalar}",
                lanes[lane]
            );
        }
    }

    /// The packed lane-aware observer must reproduce the scalar replay's
    /// static-power average **bit for bit**: identical lane leakages added
    /// in the identical (pattern-major) order.
    #[test]
    fn packed_shift_leakage_matches_scalar_observer_bitwise() {
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::ScanShiftSim;

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        // 70 patterns: one full 64-lane block plus a 6-lane tail.
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 13)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let config = ShiftConfig::traditional(ff);

        let mut scalar_average = LeakageAverage::new();
        let scalar_stats =
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });

        // The replay's changed-net delta is stripped, so every shift state
        // takes the observer's full-gather path.
        let mut packed_average = PackedShiftLeakage::new(&n, &estimator);
        let packed_stats = packed_replay(&n, &patterns, &config, |cycle| {
            packed_average.observe_cycle(&ShiftCycle {
                changed: None,
                ..*cycle
            });
        });
        let packed_average = packed_average.into_average();

        assert_eq!(packed_stats, scalar_stats);
        assert_eq!(packed_average.samples(), scalar_average.samples());
        assert_eq!(
            packed_average.average_na().to_bits(),
            scalar_average.average_na().to_bits(),
            "packed static average must be bit-identical to the scalar path"
        );
    }

    /// The event-driven delta observer (`observe_cycle` fed by the
    /// event-driven replay's changed-net lists) must reproduce the scalar
    /// observer's static-power average **bit for bit** — across full and
    /// partial blocks and low-activity (forced/held) configurations.
    #[test]
    fn event_driven_delta_observer_matches_scalar_observer_bitwise() {
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::ScanShiftSim;

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 17)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();

        // Traditional (high-activity) and a held-PI, partially forced
        // (low-activity) configuration: the delta path must agree on both.
        let mut low_activity = ShiftConfig::with_pi_control(ff, vec![Logic::Zero; pi]);
        low_activity.forced_pseudo[0] = Some(Logic::One);
        for config in [ShiftConfig::traditional(ff), low_activity] {
            let mut scalar_average = LeakageAverage::new();
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });

            let mut observer = PackedShiftLeakage::new(&n, &estimator);
            packed_replay(&n, &patterns, &config, |cycle| {
                observer.observe_cycle(cycle);
            });
            let average = observer.into_average();
            assert_eq!(average.samples(), scalar_average.samples());
            assert_eq!(
                average.average_na().to_bits(),
                scalar_average.average_na().to_bits(),
                "{config:?}: average must be bit-identical"
            );
        }
    }

    /// The leakage model's pin cap is lint's [`LEAKAGE_PIN_LIMIT`], so every
    /// gate the preflight admits can be estimated (a gate at the limit
    /// builds its table and has a leakage in an all-X state), and a caller
    /// that skips the preflight is refused before the `2^fanin` table is
    /// allocated.
    #[test]
    fn lint_pin_limit_matches_the_leakage_model() {
        let wide = |pins: usize| {
            let mut n = Netlist::new("widest");
            let inputs: Vec<_> = (0..pins)
                .map(|pin| n.add_input(&format!("i{pin}")))
                .collect();
            let gate = n.add_gate(GateKind::Nand, &inputs, "widest");
            n.mark_output(gate.output);
            n
        };
        let n = wide(LEAKAGE_PIN_LIMIT);
        let estimator = LeakageEstimator::new(&n, &LeakageLibrary::cmos45());
        let all_x = vec![Logic::X; n.net_count()];
        assert!(estimator.circuit_leakage(&n, &all_x) > 0.0);

        let over = wide(LEAKAGE_PIN_LIMIT + 1);
        let refused =
            std::panic::catch_unwind(|| LeakageEstimator::new(&over, &LeakageLibrary::cmos45()))
                .expect_err("a gate over the pin limit must be refused");
        let message = refused
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| refused.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("LEAKAGE_PIN_LIMIT"),
            "the refusal names the bound: {message}"
        );
    }

    /// The observer reproduces the scalar replay **bit for bit** on a
    /// low-activity configuration (held PIs, two forced scan cells), where
    /// few nets change per cycle, across four full blocks and a partial one.
    #[test]
    fn low_activity_observer_matches_scalar_observer_bitwise() {
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::ScanShiftSim;

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        // 300 patterns: four full 64-lane blocks and a partial one.
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 300, 41)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let mut config = ShiftConfig::with_pi_control(ff, vec![Logic::Zero; pi]);
        config.forced_pseudo[0] = Some(Logic::One);
        config.forced_pseudo[1] = Some(Logic::Zero);

        let mut scalar_average = LeakageAverage::new();
        ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
            if phase == ShiftPhase::Shift {
                scalar_average.add(estimator.circuit_leakage(&n, values));
            }
        });

        let mut packed = PackedShiftLeakage::new(&n, &estimator);
        packed_replay(&n, &patterns, &config, |cycle| {
            packed.observe_cycle(cycle);
        });
        let packed = packed.into_average();
        assert_eq!(packed.samples(), scalar_average.samples());
        assert_eq!(
            packed.average_na().to_bits(),
            scalar_average.average_na().to_bits(),
            "low-activity 64-lane average"
        );
    }

    /// Gates wider than the byte codes hold (5 and 10 pins, with ternary
    /// tables) and wider than the ternary precompute (11 pins) take the
    /// observer's private lane tables: the observer must still reproduce
    /// the scalar replay's average **bit for bit**, with X-carrying
    /// patterns and a partial final block, with free and with held PIs.
    #[test]
    fn wide_gate_leakage_observer_matches_scalar_observer_bitwise() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use scanpower_sim::scan::ScanShiftSim;

        let n = bench::parse(
            "INPUT(p0)\nINPUT(p1)\nINPUT(p2)\nINPUT(p3)\nINPUT(p4)\nINPUT(p5)\n\
             OUTPUT(o)\n\
             q0 = DFF(w5)\nq1 = DFF(w10)\nq2 = DFF(w11)\nq3 = DFF(n3)\n\
             q4 = DFF(x4)\nq5 = DFF(n5)\nq6 = DFF(o)\nq7 = DFF(q0)\n\
             w5 = NAND(p0, q0, q1, p1, q2)\n\
             w10 = NOR(p0, p1, p2, q0, q1, q2, q3, q4, q5, q6)\n\
             w11 = AND(p1, p2, p3, p4, q1, q2, q3, q4, q5, q6, q7)\n\
             ws = OR(p0, p2, p3, p4, p5)\n\
             n3 = NOT(ws)\nx4 = XOR(q3, p5)\nn5 = NAND(w5, w10)\no = OR(w11, q6)\n",
            "wide",
        )
        .unwrap();
        let gate = |name: &str| n.driver_gate(n.net_by_name(name).unwrap()).unwrap();
        let fanins: Vec<usize> = ["w5", "w10", "w11", "ws"]
            .iter()
            .map(|name| n.gate(gate(name)).fanin())
            .collect();
        assert_eq!(fanins, [5, 10, 11, 5]);
        let library = LeakageLibrary::cmos45();
        // 10 pins still get a ternary table, 11 fall back to the scalar
        // enumeration.
        let estimator = LeakageEstimator::new(&n, &library);
        assert!(estimator.tables(gate("w10")).ternary.is_some());
        assert!(estimator.tables(gate("w11")).ternary.is_none());
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        // 70 X-carrying patterns: a full 64-lane block plus a 6-lane tail.
        let mut rng = ChaCha8Rng::seed_from_u64(0x31de_6a7e);
        let mut value = || {
            if rng.gen_bool(0.15) {
                Logic::X
            } else {
                Logic::from_bool(rng.gen_bool(0.5))
            }
        };
        let patterns: Vec<ScanPattern> = (0..70)
            .map(|_| ScanPattern {
                pi: (0..pi).map(|_| value()).collect(),
                scan: (0..ff).map(|_| value()).collect(),
            })
            .collect();
        // Held PIs keep the PI-only 5-pin `ws` (and its inverter) constant.
        let held = ShiftConfig::with_pi_control(
            ff,
            vec![
                Logic::One,
                Logic::Zero,
                Logic::Zero,
                Logic::Zero,
                Logic::One,
                Logic::Zero,
            ],
        );

        for config in [ShiftConfig::traditional(ff), held] {
            let mut scalar_average = LeakageAverage::new();
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });
            let mut observer = PackedShiftLeakage::new(&n, &estimator);
            packed_replay(&n, &patterns, &config, |cycle| {
                observer.observe_cycle(cycle);
            });
            let average = observer.into_average();
            assert_eq!(average.samples(), scalar_average.samples());
            assert_eq!(
                average.average_na().to_bits(),
                scalar_average.average_na().to_bits(),
                "{config:?}"
            );
        }
    }

    /// The pin patch against the scalar replay, **bit for bit**, on the
    /// shapes it must get right: a gate reading one net on two pins
    /// (`NAND(q0, q0)`, and pins 0 and 3 of a 4-pin gate), nets read by
    /// both byte-coded (≤ 4 pins) and lane-table (> 4 pins) gates, and
    /// X-carrying patterns whose blocks hold 64, 64 and then 7 lanes. The
    /// replay is also fed with every net listed as changed on each
    /// block's first shift cycle, so a delta meets a lane-count change.
    #[test]
    fn pin_patch_matches_scalar_observer_bitwise() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use scanpower_sim::scan::ScanShiftSim;

        let n = bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(o)\n\
             q0 = DFF(d0)\nq1 = DFF(d1)\nq2 = DFF(d2)\nq3 = DFF(d3)\nq4 = DFF(o)\n\
             d0 = NAND(q0, q0)\n\
             d1 = AND(q1, a, q2, q1)\n\
             d2 = NOR(q3, b, q3, c, q0, q1)\n\
             d3 = OR(d0, q2, d2)\n\
             x = XOR(q2, q2)\n\
             o = NAND(d1, d3, x, q4, a)\n",
            "patch",
        )
        .unwrap();
        let gate = |name: &str| n.gate(n.driver_gate(n.net_by_name(name).unwrap()).unwrap());
        assert_eq!(gate("d0").inputs[0], gate("d0").inputs[1]);
        assert_eq!(gate("d1").inputs[0], gate("d1").inputs[3]);
        assert_eq!((gate("d2").fanin(), gate("o").fanin()), (6, 5));
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a7c_4e11);
        let mut value = || {
            if rng.gen_bool(0.1) {
                Logic::X
            } else {
                Logic::from_bool(rng.gen_bool(0.5))
            }
        };
        let patterns: Vec<ScanPattern> = (0..135)
            .map(|_| ScanPattern {
                pi: (0..pi).map(|_| value()).collect(),
                scan: (0..ff).map(|_| value()).collect(),
            })
            .collect();
        let mut held = ShiftConfig::with_pi_control(ff, vec![Logic::One, Logic::Zero, Logic::X]);
        held.forced_pseudo[2] = Some(Logic::One);
        let every_net: Vec<NetId> = n.net_ids().collect();

        for config in [ShiftConfig::traditional(ff), held] {
            let mut scalar_average = LeakageAverage::new();
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });
            let mut replay_delta = PackedShiftLeakage::new(&n, &estimator);
            let mut whole_delta = PackedShiftLeakage::new(&n, &estimator);
            packed_replay(&n, &patterns, &config, |cycle| {
                replay_delta.observe_cycle(cycle);
                whole_delta.observe_cycle(&ShiftCycle {
                    changed: Some(cycle.changed.unwrap_or(&every_net)),
                    ..*cycle
                });
            });
            for (label, observer) in [("replay delta", replay_delta), ("whole delta", whole_delta)]
            {
                let average = observer.into_average();
                assert_eq!(average.samples(), scalar_average.samples());
                assert_eq!(
                    average.average_na().to_bits(),
                    scalar_average.average_na().to_bits(),
                    "{label}, {config:?}"
                );
            }
        }
    }

    /// Randomized agreement sweep for the lane-parallel lookup: every
    /// gate fanin from 0-input constants up past the ternary precompute
    /// threshold, X densities from none to all-X, and partial final blocks
    /// — the gather path must equal the scalar `averaged_table_lookup`
    /// **to the bit**, lane by lane.
    #[test]
    fn lane_parallel_lookup_matches_scalar_lookup_bitwise() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use scanpower_sim::kernel::pack_logic_patterns;
        use scanpower_sim::{PackedWord, SimKernel};

        let library = LeakageLibrary::cmos45();
        let mut rng = ChaCha8Rng::seed_from_u64(0x7e57_1ea4);
        // Fanins straddling the precompute threshold: 11 and 12 exercise
        // the subset-enumeration fallback inside a lane-parallel estimator.
        for fanin in [
            0usize,
            1,
            2,
            3,
            4,
            7,
            LeakageEstimator::TERNARY_FANIN_LIMIT,
            11,
            12,
        ] {
            let mut n = Netlist::new("sweep");
            let inputs: Vec<_> = (0..fanin.max(1))
                .map(|i| n.add_input(&format!("i{i}")))
                .collect();
            let mut gates = Vec::new();
            if fanin == 0 {
                gates.push(n.add_gate(GateKind::Const0, &[], "c0").gate);
                gates.push(n.add_gate(GateKind::Const1, &[], "c1").gate);
                // Keep the lone input driven into the netlist.
                n.add_gate(GateKind::Not, &[inputs[0]], "sink");
            } else if fanin == 1 {
                gates.push(n.add_gate(GateKind::Buf, &inputs, "buf").gate);
                gates.push(n.add_gate(GateKind::Not, &inputs, "not").gate);
            } else {
                for kind in [GateKind::And, GateKind::Nand, GateKind::Nor, GateKind::Xor] {
                    gates.push(n.add_gate(kind, &inputs, &format!("{kind:?}_{fanin}")).gate);
                }
                if fanin == 3 {
                    gates.push(n.add_gate(GateKind::Mux, &inputs, "mux").gate);
                }
            }

            let lane_parallel = LeakageEstimator::new(&n, &library);
            for &gate in &gates {
                assert_eq!(
                    lane_parallel.tables(gate).ternary.is_some(),
                    fanin <= LeakageEstimator::TERNARY_FANIN_LIMIT,
                    "fanin {fanin}: precompute must respect the threshold"
                );
            }

            let mut ev = SimKernel::<Logic>::new(&n);
            let width = ev.inputs().len();
            // X densities: none, sparse, all-X; block sizes: partial and full.
            for (density, lanes) in [(0.0, 64), (0.0, 1), (0.2, 37), (0.2, 64), (1.0, 23)] {
                let patterns: Vec<Vec<Logic>> = (0..lanes)
                    .map(|_| {
                        (0..width)
                            .map(|_| {
                                if density >= 1.0 || rng.gen_bool(density) {
                                    Logic::X
                                } else {
                                    Logic::from_bool(rng.gen_bool(0.5))
                                }
                            })
                            .collect()
                    })
                    .collect();
                let mut kernel = SimKernel::<PackedWord>::new(&n);
                let packed = kernel
                    .evaluate(&n, &pack_logic_patterns(&patterns))
                    .to_vec();

                let fast = lane_parallel.circuit_leakage_lanes(&n, &packed, lanes);
                for (lane, pattern) in patterns.iter().enumerate() {
                    let reference = lane_parallel.circuit_leakage(&n, ev.evaluate(&n, pattern));
                    assert_eq!(
                        fast[lane].to_bits(),
                        reference.to_bits(),
                        "fanin {fanin}, density {density}, lane {lane}: \
                         lane-parallel lookup must be bit-identical"
                    );
                }

                // The write-into variant must fully overwrite a recycled
                // buffer (stale contents, larger previous size).
                let mut recycled = vec![f64::NAN; 64];
                lane_parallel.circuit_leakage_lanes_into(&n, &packed, lanes, &mut recycled);
                assert_eq!(recycled.len(), lanes);
                for (lane, &value) in recycled.iter().enumerate() {
                    assert_eq!(value.to_bits(), fast[lane].to_bits());
                }
            }
        }
    }

    /// The estimator shares its tables: over a generated Table I family it
    /// holds exactly one slot — one `2^fanin` binary table, plus the
    /// ternary table up to the precompute cap — per distinct gate
    /// `(kind, fanin)`, and every gate points at the slot of its own kind
    /// and fanin.
    #[test]
    fn estimator_holds_one_table_per_kind_and_fanin() {
        use scanpower_netlist::generator::CircuitFamily;
        use std::collections::HashMap;

        let n = CircuitFamily::iscas89_like("s1423")
            .unwrap()
            .scaled(0.3)
            .generate(1);
        let estimator = LeakageEstimator::new(&n, &LeakageLibrary::cmos45());
        let mut slot_of: HashMap<(GateKind, usize), usize> = HashMap::new();
        for gate_id in n.gate_ids() {
            let gate = n.gate(gate_id);
            let slot = estimator.slot[gate_id.index()];
            assert_eq!(
                *slot_of.entry((gate.kind, gate.fanin())).or_insert(slot),
                slot,
                "{:?}/{}: one slot per (kind, fanin)",
                gate.kind,
                gate.fanin()
            );
        }
        assert_eq!(estimator.slots.len(), slot_of.len());
        assert!(estimator.slots.len() < n.gate_count());
        for (&(kind, fanin), &slot) in &slot_of {
            let tables = &estimator.slots[slot];
            assert_eq!(tables.binary.len(), 1 << fanin, "{kind:?}/{fanin}");
            assert_eq!(
                tables.ternary.as_ref().map(Vec::len),
                (fanin <= LeakageEstimator::TERNARY_FANIN_LIMIT).then(|| 1 << (2 * fanin)),
                "{kind:?}/{fanin}"
            );
        }
    }

    /// Every `10` pin code must hold the exact bits of its canonical `11`
    /// sibling (both decode as X), and every canonical entry must equal
    /// the scalar lookup over the decoded pins.
    #[test]
    fn ternary_table_ten_codes_mirror_eleven_codes() {
        let library = LeakageLibrary::cmos45();
        for fanin in [1usize, 2, 3] {
            let binary = library.gate_table(GateKind::Nand, fanin);
            let ternary = build_ternary_table(&binary, fanin);
            assert_eq!(ternary.len(), 1 << (2 * fanin));
            for (code, &entry) in ternary.iter().enumerate() {
                let mut canonical = code;
                for pin in 0..fanin {
                    if (code >> (2 * pin)) & 0b11 == 0b10 {
                        canonical |= 1 << (2 * pin);
                    }
                }
                assert_eq!(
                    entry.to_bits(),
                    ternary[canonical].to_bits(),
                    "code {code:b}"
                );
                let scalar = averaged_table_lookup(
                    &binary,
                    (0..fanin).map(|pin| match (code >> (2 * pin)) & 0b11 {
                        0b00 => Logic::Zero,
                        0b01 => Logic::One,
                        _ => Logic::X,
                    }),
                );
                assert_eq!(entry.to_bits(), scalar.to_bits(), "code {code:b}");
            }
        }
    }

    #[test]
    fn leakage_average_accumulates() {
        let library = LeakageLibrary::cmos45();
        let mut avg = LeakageAverage::new();
        assert_eq!(avg.average_na(), 0.0);
        avg.add(100.0);
        avg.add(300.0);
        assert_eq!(avg.samples(), 2);
        assert!((avg.average_na() - 200.0).abs() < 1e-12);
        assert!((avg.average_uw(&library) - library.current_to_power_uw(200.0)).abs() < 1e-12);
    }
}
