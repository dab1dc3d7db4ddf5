//! The correctness gate: a digest of the replayed Table I columns, the
//! digests pinned per workload and seed, and row-by-row agreement checks.
//!
//! The digest covers what the replay produces — circuit, pattern count,
//! MUX coverage and the three `SchemePower`s. `fault_coverage` is left out
//! on purpose: it describes the ATPG test set, not the replayed one, and a
//! coverage fix is expected to change it.

use scanpower_suite::core::experiment::CircuitRow;
use scanpower_suite::wire::{hash_parts, Wire, WireWriter};

/// Digests pinned per workload and seed: `workload seed circuit digest`.
const PINS: &str = include_str!("../pins.txt");

/// The digest of one row's replayed columns.
#[must_use]
pub fn row_digest(row: &CircuitRow) -> u128 {
    let mut columns = WireWriter::new();
    row.circuit.encode_into(&mut columns);
    row.patterns.encode_into(&mut columns);
    row.mux_coverage.encode_into(&mut columns);
    row.traditional.encode_into(&mut columns);
    row.input_control.encode_into(&mut columns);
    row.proposed.encode_into(&mut columns);
    hash_parts(&[b"perfbench/replayed-columns/v1", columns.as_bytes()])
}

/// `row_digest` as 32 hex digits.
#[must_use]
pub fn row_digest_hex(row: &CircuitRow) -> String {
    format!("{:032x}", row_digest(row))
}

/// The pinned `(circuit, digest)` list of `workload` at `seed`, if any.
#[must_use]
pub fn pinned(workload: &str, seed: u64) -> Option<Vec<(String, String)>> {
    let seed = seed.to_string();
    let rows: Vec<(String, String)> = PINS
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                [w, s, circuit, digest] if *w == workload && *s == seed => {
                    Some(((*circuit).to_owned(), (*digest).to_owned()))
                }
                _ => None,
            }
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Checks `rows` against the pinned digests: `Ok(true)` when they match,
/// `Ok(false)` when nothing is pinned for this workload and seed, and the
/// first disagreement otherwise.
///
/// # Errors
///
/// See [`check_digests`].
pub fn check_pins(workload: &str, seed: u64, rows: &[CircuitRow]) -> Result<bool, String> {
    match pinned(workload, seed) {
        Some(pins) => check_digests(&format!("{workload} seed {seed}"), &pins, rows).map(|()| true),
        None => Ok(false),
    }
}

/// Checks `rows` against `(circuit, digest)` pins, in order.
///
/// # Errors
///
/// Names the first row whose digest differs, or a row-count mismatch.
pub fn check_digests(
    label: &str,
    pins: &[(String, String)],
    rows: &[CircuitRow],
) -> Result<(), String> {
    if pins.len() != rows.len() {
        return Err(format!(
            "{label}: {} rows, {} pinned",
            rows.len(),
            pins.len()
        ));
    }
    for (row, (circuit, digest)) in rows.iter().zip(pins) {
        let actual = row_digest_hex(row);
        if row.circuit != *circuit || actual != *digest {
            return Err(format!(
                "{label}: row {} digest {actual} differs from pinned {circuit} {digest}",
                row.circuit
            ));
        }
    }
    Ok(())
}

/// Checks that two row lists agree on every replayed column.
///
/// # Errors
///
/// Names the first row whose replayed columns differ.
pub fn check_same_columns(
    label: &str,
    left: &[CircuitRow],
    right: &[CircuitRow],
) -> Result<(), String> {
    if left.len() != right.len() {
        return Err(format!(
            "{label}: {} rows against {}",
            left.len(),
            right.len()
        ));
    }
    for (a, b) in left.iter().zip(right) {
        if row_digest(a) != row_digest(b) {
            return Err(format!(
                "{label}: row {} differs in its replayed columns: {a:?} vs {b:?}",
                a.circuit
            ));
        }
    }
    Ok(())
}
