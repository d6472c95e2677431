//! The hashed exact-ish baseline: ship truncated hashes (§5.1).
//!
//! "Suppose the set elements are hashed using a random hash function into
//! a universe U' = [0, h). Peer A then hashes each element and sends the
//! set of hashes instead ... Now only O(|S_A| log h) bits are
//! transmitted. Strictly speaking, this process may not yield the exact
//! difference: there is some probability that an element x ∈ S_B ∖ S_A
//! will have the same hash value as an element of S_A, in which case
//! peer B will mistakenly believe x ∈ S_A."
//!
//! The error is one-sided in the *safe* direction for content delivery
//! (a useful symbol is withheld, never a redundant one sent), exactly
//! like Bloom filters but at a different size/accuracy point. The hash
//! width `h = 2^bits` is a parameter; §5.1's inverse-polynomial miss rate
//! corresponds to `bits ≈ c·log2 |S_A|`.

use icd_util::hash::hash64;
use std::collections::HashSet;

/// Seed namespacing the truncated hash (protocol constant).
const HASH_SEED: u64 = 0x4841_5348_5345_5421; // "HASHSET!"

/// Peer A's message: the set of `bits`-wide hashes of its keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashSetMessage {
    hashes: HashSet<u64>,
    bits: u32,
}

impl HashSetMessage {
    /// Builds the message with `bits`-wide truncated hashes (1–64).
    #[must_use]
    pub(crate) fn build(keys: &[u64], bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "hash width must be 1..=64 bits");
        let hashes = keys.iter().map(|&k| Self::hash(k, bits)).collect();
        Self { hashes, bits }
    }

    fn hash(key: u64, bits: u32) -> u64 {
        let h = hash64(key, HASH_SEED);
        if bits == 64 {
            h
        } else {
            h >> (64 - bits)
        }
    }

    /// Hash width in bits.
    #[must_use]
    pub(crate) fn bits(&self) -> u32 {
        self.bits
    }

    /// Wire size in bytes: `⌈|S_A|·bits / 8⌉` (hashes packed).
    #[must_use]
    pub(crate) fn wire_size(&self) -> usize {
        (self.hashes.len() * self.bits as usize).div_ceil(8)
    }

    /// Whether `key`'s truncated hash is present — "probably held" in
    /// the Bloom sense: a collision answers positively (the safe
    /// direction), a miss proves absence. O(1), no allocation.
    #[must_use]
    pub(crate) fn contains_hash_of(&self, key: u64) -> bool {
        self.hashes.contains(&Self::hash(key, self.bits))
    }

    /// Computes (a superset-free approximation of) S_B ∖ S_A: every key
    /// whose hash is absent is *definitely* missing at A; keys whose hash
    /// collides are (wrongly, with probability ≈ |S_A|/2^bits) withheld.
    #[must_use]
    pub(crate) fn missing_at_sender(&self, b_keys: &[u64]) -> Vec<u64> {
        let mut out: Vec<u64> = b_keys
            .iter()
            .copied()
            .filter(|&k| !self.contains_hash_of(k))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Analytic per-element miss probability for a foreign key: the
    /// chance its hash lands on an occupied slot, `|hashes| / 2^bits`
    /// (capped at 1).
    #[must_use]
    pub fn analytic_miss_rate(&self) -> f64 {
        (self.hashes.len() as f64 / (self.bits as f64).exp2()).min(1.0)
    }

    /// The distinct hashes, sorted (wire encoding).
    #[must_use]
    pub(crate) fn hashes_sorted(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.hashes.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Reassembles a message from already-truncated hashes (wire
    /// decoding). Returns `None` for an out-of-range width or a hash
    /// exceeding it.
    #[must_use]
    pub(crate) fn from_parts(hashes: Vec<u64>, bits: u32) -> Option<Self> {
        if !(1..=64).contains(&bits) {
            return None;
        }
        if bits < 64 && hashes.iter().any(|&h| h >> bits != 0) {
            return None;
        }
        Some(Self {
            hashes: hashes.into_iter().collect(),
            bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    #[test]
    fn wide_hashes_give_exact_difference() {
        let a = [1u64, 2, 3, 4];
        let b = [3u64, 4, 5, 6];
        let msg = HashSetMessage::build(&a, 64);
        assert_eq!(msg.missing_at_sender(&b), vec![5, 6]);
    }

    #[test]
    fn reported_missing_is_truly_missing() {
        // One-sided error: reported ⊆ true difference, always.
        let mut rng = Xoshiro256StarStar::new(1);
        let a: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = a[..1000]
            .iter()
            .copied()
            .chain((0..1000).map(|_| rng.next_u64()))
            .collect();
        let a_set: std::collections::HashSet<u64> = a.iter().copied().collect();
        for bits in [8, 12, 16, 32] {
            let msg = HashSetMessage::build(&a, bits);
            for k in msg.missing_at_sender(&b) {
                assert!(!a_set.contains(&k), "{k} wrongly reported at {bits} bits");
            }
        }
    }

    #[test]
    fn narrow_hashes_miss_some() {
        let mut rng = Xoshiro256StarStar::new(2);
        let a: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect(); // disjoint
        let msg = HashSetMessage::build(&a, 12); // 4096 slots for 5000 keys
        let found = msg.missing_at_sender(&b).len();
        assert!(found < b.len(), "12-bit hashes must collide somewhere");
        // Analytic rate: 1 − (1 − 2^−12)^5000 ≈ 0.705 → found ≈ 0.295·5000.
        let expect = (1.0 - msg.analytic_miss_rate()) * b.len() as f64;
        let got = found as f64;
        assert!(
            (got - expect).abs() < 0.1 * b.len() as f64,
            "found {got}, analytic {expect}"
        );
    }

    #[test]
    fn wire_size_scales_with_bits() {
        let a: Vec<u64> = (0..1000).collect();
        let m16 = HashSetMessage::build(&a, 16);
        let m64 = HashSetMessage::build(&a, 64);
        // Truncated hashes may collide among A's own keys, so size is
        // per *distinct hash* (that is all that crosses the wire).
        assert_eq!(m16.wire_size(), m16.hashes.len() * 2);
        assert!(
            m16.hashes.len() > 980,
            "16-bit collisions should be rare at n=1000"
        );
        assert_eq!(m64.hashes.len(), 1000);
        assert_eq!(m64.wire_size(), 8000);
    }

    #[test]
    #[should_panic(expected = "hash width")]
    fn zero_bits_rejected() {
        let _ = HashSetMessage::build(&[1], 0);
    }
}
