//! Deterministic random pattern generation.
//!
//! Used by the ATPG substitute (random phase), by the Monte-Carlo
//! minimum-leakage search for don't-care controlled inputs, and by tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::logic::Logic;

/// Generates `count` uniformly random boolean patterns of the given width.
///
/// Generation is deterministic for a given `(width, count, seed)` triple.
#[must_use]
pub fn random_bool_patterns(width: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

/// Generates `count` uniformly random fully-specified [`Logic`] patterns.
#[must_use]
pub fn random_logic_patterns(width: usize, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    random_bool_patterns(width, count, seed)
        .into_iter()
        .map(|p| p.into_iter().map(Logic::from_bool).collect())
        .collect()
}

/// Fills the `X` positions of `pattern` with random values, leaving the
/// specified positions untouched. Used when turning a partially-specified
/// controlled-input pattern into concrete candidates for the leakage search.
#[must_use]
pub fn fill_unknowns(pattern: &[Logic], seed: u64) -> Vec<Logic> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    pattern
        .iter()
        .map(|&v| match v {
            Logic::X => Logic::from_bool(rng.gen_bool(0.5)),
            known => known,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_are_deterministic() {
        assert_eq!(
            random_bool_patterns(16, 8, 3),
            random_bool_patterns(16, 8, 3)
        );
        assert_ne!(
            random_bool_patterns(16, 8, 3),
            random_bool_patterns(16, 8, 4)
        );
    }

    #[test]
    fn width_and_count_are_respected() {
        let patterns = random_logic_patterns(10, 5, 1);
        assert_eq!(patterns.len(), 5);
        assert!(patterns.iter().all(|p| p.len() == 10));
        assert!(patterns.iter().flatten().all(|v| v.is_known()));
    }

    #[test]
    fn fill_unknowns_preserves_known_values() {
        let pattern = vec![Logic::One, Logic::X, Logic::Zero, Logic::X];
        let filled = fill_unknowns(&pattern, 9);
        assert_eq!(filled[0], Logic::One);
        assert_eq!(filled[2], Logic::Zero);
        assert!(filled.iter().all(|v| v.is_known()));
    }
}
