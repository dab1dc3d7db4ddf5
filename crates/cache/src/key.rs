//! Content addresses: 128-bit keys over length-delimited input parts.

use std::fmt;

use scanpower_wire::ContentHasher;

/// A 128-bit content address of a cached result.
///
/// Equal inputs produce equal keys by construction; distinct inputs collide
/// with probability ~2⁻¹²⁸ per pair, which is far below any failure rate
/// the rest of the system can observe. Keys print as 32 lowercase hex
/// digits — the disk tier's file stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Wraps a raw 128-bit digest (e.g. one computed by
    /// [`hash_parts`](scanpower_wire::hash_parts)).
    #[must_use]
    pub fn from_raw(raw: u128) -> CacheKey {
        CacheKey(raw)
    }

    /// The raw 128-bit digest.
    #[must_use]
    pub fn raw(self) -> u128 {
        self.0
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Builds a [`CacheKey`] from length-delimited parts.
///
/// Each part is fed through
/// [`ContentHasher::write_part`](scanpower_wire::ContentHasher::write_part),
/// so part boundaries are unambiguous: `("ab", "c")` and `("a", "bc")`
/// produce different keys. The constructor takes a *domain tag* — a short
/// string naming what kind of result the key addresses — so two result
/// kinds can never share a key even if their input bytes coincide.
///
/// Callers caching results of versioned code should also fold the producing
/// crate's version in as a part (see the experiment harness), so a rebuild
/// with different semantics starts from a cold cache instead of serving
/// entries computed by the old code.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    hasher: ContentHasher,
}

impl KeyBuilder {
    /// Starts a key in the given domain.
    #[must_use]
    pub fn new(domain: &str) -> KeyBuilder {
        let mut hasher = ContentHasher::new();
        hasher.write_part(domain.as_bytes());
        KeyBuilder { hasher }
    }

    /// Folds a raw byte part into the key.
    #[must_use]
    pub fn part(mut self, bytes: &[u8]) -> KeyBuilder {
        self.hasher.write_part(bytes);
        self
    }

    /// Finishes the key.
    #[must_use]
    pub fn finish(self) -> CacheKey {
        CacheKey(self.hasher.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_domain_separated() {
        let a = KeyBuilder::new("row").part(b"x").finish();
        let b = KeyBuilder::new("row").part(b"x").finish();
        let other_domain = KeyBuilder::new("scheme").part(b"x").finish();
        assert_eq!(a, b);
        assert_ne!(a, other_domain);
    }

    #[test]
    fn part_boundaries_are_unambiguous() {
        let ab_c = KeyBuilder::new("d").part(b"ab").part(b"c").finish();
        let a_bc = KeyBuilder::new("d").part(b"a").part(b"bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn display_is_zero_padded_hex() {
        assert_eq!(
            CacheKey::from_raw(0xabc).to_string(),
            "00000000000000000000000000000abc"
        );
        assert_eq!(CacheKey::from_raw(0xabc).raw(), 0xabc);
    }
}
