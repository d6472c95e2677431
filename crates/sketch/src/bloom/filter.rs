//! The classic Bloom filter (Bloom 1970, as used in §5.2).
//!
//! An array of `m` bits and `k` hash functions; inserting sets the `k`
//! probed bits, membership requires all `k` to be set. The `k` functions
//! are derived from two base hashes by Kirsch–Mitzenmacher double hashing
//! (see `icd_util::hash::DoubleHash`), so probing costs two full hashes
//! regardless of `k`.
//!
//! Geometry is explicit: construct with [`BloomFilter::new`] (m, k) or
//! with [`BloomFilter::with_bits_per_element`] (the paper speaks in
//! bits-per-element). The `seed` is part of the geometry — two filters
//! must share (m, k, seed) to be meaningfully combined, and the wire
//! format transmits all three.

use icd_util::bitvec::BitVec;
use icd_util::hash::DoubleHash;

use super::math;

/// A fixed-geometry Bloom filter over 64-bit keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: BitVec,
    num_hashes: u32,
    seed: u64,
    items: u64,
}

impl BloomFilter {
    /// Creates an empty filter with `m` bits and `k` hash functions.
    ///
    /// Panics if `m == 0` or `k == 0` — a degenerate filter answers
    /// everything positively and would silently disable reconciliation.
    #[must_use]
    pub fn new(m: usize, k: u32, seed: u64) -> Self {
        assert!(m > 0, "filter must have at least one bit");
        assert!(k > 0, "filter must use at least one hash");
        Self {
            bits: BitVec::new(m),
            num_hashes: k,
            seed,
            items: 0,
        }
    }

    /// Creates a filter sized at `bits_per_element × expected_items` with
    /// the analytically optimal number of hashes for that ratio.
    ///
    /// §5.2 sizes filters this way: "using just four bits per element and
    /// three hash functions yields a false positive probability of 14.7%".
    #[must_use]
    pub fn with_bits_per_element(expected_items: usize, bits_per_element: f64, seed: u64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(bits_per_element > 0.0, "bits_per_element must be positive");
        let m = ((expected_items as f64) * bits_per_element).ceil() as usize;
        let k = math::optimal_hashes(bits_per_element);
        Self::new(m.max(1), k, seed)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let dh = DoubleHash::new(key, self.seed);
        for i in 0..u64::from(self.num_hashes) {
            let idx = dh.probe_bounded(i, self.bits.len());
            self.bits.set(idx);
        }
        self.items += 1;
    }

    /// Membership probe. False positives possible; false negatives are not
    /// (for keys actually inserted into *this* filter).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        let dh = DoubleHash::new(key, self.seed);
        (0..u64::from(self.num_hashes)).all(|i| self.bits.get(dh.probe_bounded(i, self.bits.len())))
    }

    /// Builds a filter from a key iterator with the given geometry.
    #[must_use]
    pub fn from_keys<I: IntoIterator<Item = u64>>(keys: I, bits_per_element: f64, seed: u64) -> Self
    where
        I::IntoIter: ExactSizeIterator,
    {
        let iter = keys.into_iter();
        let mut f = Self::with_bits_per_element(iter.len().max(1), bits_per_element, seed);
        for k in iter {
            f.insert(k);
        }
        f
    }

    /// Number of bits `m`.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions `k`.
    #[must_use]
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Hash seed (shared geometry component).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Count of insert operations performed.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Fraction of bits set — the load; drives the *empirical* FP estimate.
    #[must_use]
    pub(crate) fn load(&self) -> f64 {
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Predicted false-positive probability given the current load:
    /// `load^k` (each of the k probes hits a set bit independently).
    #[must_use]
    pub fn predicted_fp_rate(&self) -> f64 {
        self.load().powi(self.num_hashes as i32)
    }

    /// Analytic false-positive probability for the nominal geometry and
    /// `n` inserted items: `(1 − e^{−kn/m})^k`.
    #[must_use]
    pub fn analytic_fp_rate(&self, n: u64) -> f64 {
        math::false_positive_rate(self.bits.len(), n, self.num_hashes)
    }

    /// Union with a filter of identical geometry: the result answers
    /// positively for anything either filter would. Panics on geometry
    /// mismatch.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.seed, other.seed, "filter seed mismatch");
        assert_eq!(self.num_hashes, other.num_hashes, "filter k mismatch");
        self.bits.union_with(&other.bits); // panics on m mismatch
        self.items += other.items;
    }

    /// Serialized filter body (just the bit array; geometry goes in the
    /// message header).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bits.to_bytes()
    }

    /// Reconstructs a filter from its serialized body plus geometry.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], m: usize, k: u32, seed: u64, items: u64) -> Option<Self> {
        if m == 0 || k == 0 {
            return None;
        }
        Some(Self {
            bits: BitVec::from_bytes(bytes, m)?,
            num_hashes: k,
            seed,
            items,
        })
    }

    /// Wire size of the body in bytes.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.bits.len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    #[test]
    fn no_false_negatives() {
        let mut rng = Xoshiro256StarStar::new(1);
        let keys: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let mut f = BloomFilter::with_bits_per_element(keys.len(), 8.0, 42);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn empirical_fp_rate_matches_paper_4bits() {
        // §5.2: 4 bits/element + 3 hashes → 14.7 % false positives.
        let mut rng = Xoshiro256StarStar::new(2);
        let n = 10_000usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut f = BloomFilter::new(4 * n, 3, 7);
        for &k in &keys {
            f.insert(k);
        }
        let trials = 50_000;
        let fps = (0..trials).filter(|_| f.contains(rng.next_u64())).count();
        let rate = fps as f64 / trials as f64;
        assert!(
            (rate - 0.147).abs() < 0.015,
            "fp rate {rate}, expected ≈ 0.147"
        );
    }

    #[test]
    fn empirical_fp_rate_matches_paper_8bits() {
        // §5.2: 8 bits/element + 5 hashes → 2.2 % false positives.
        let mut rng = Xoshiro256StarStar::new(3);
        let n = 10_000usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut f = BloomFilter::new(8 * n, 5, 7);
        for &k in &keys {
            f.insert(k);
        }
        let trials = 100_000;
        let fps = (0..trials).filter(|_| f.contains(rng.next_u64())).count();
        let rate = fps as f64 / trials as f64;
        assert!(
            (rate - 0.022).abs() < 0.006,
            "fp rate {rate}, expected ≈ 0.022"
        );
    }

    #[test]
    fn paper_sizing_example_40000_bits() {
        // §5.2: "using four bits per element, we can create filters for
        // 10,000 packets using just 40,000 bits, which can fit into five
        // 1 KB packets."
        let f = BloomFilter::with_bits_per_element(10_000, 4.0, 0);
        assert_eq!(f.num_bits(), 40_000);
        assert_eq!(f.wire_size(), 5_000);
        assert!(f.wire_size() <= 5 * 1024);
    }

    #[test]
    fn with_bits_per_element_picks_sane_k() {
        assert_eq!(
            BloomFilter::with_bits_per_element(100, 4.0, 0).num_hashes(),
            3
        );
        assert_eq!(
            BloomFilter::with_bits_per_element(100, 8.0, 0).num_hashes(),
            6
        );
    }

    #[test]
    fn predicted_tracks_analytic() {
        let mut rng = Xoshiro256StarStar::new(4);
        let n = 20_000u64;
        let mut f = BloomFilter::new(8 * n as usize, 5, 9);
        for _ in 0..n {
            f.insert(rng.next_u64());
        }
        let predicted = f.predicted_fp_rate();
        let analytic = f.analytic_fp_rate(n);
        assert!(
            (predicted - analytic).abs() < 0.01,
            "predicted {predicted} vs analytic {analytic}"
        );
    }

    #[test]
    fn union_covers_both_sets() {
        let mut rng = Xoshiro256StarStar::new(5);
        let a_keys: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
        let b_keys: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
        let mut a = BloomFilter::new(32_000, 5, 11);
        let mut b = BloomFilter::new(32_000, 5, 11);
        for &k in &a_keys {
            a.insert(k);
        }
        for &k in &b_keys {
            b.insert(k);
        }
        a.union_with(&b);
        for &k in a_keys.iter().chain(&b_keys) {
            assert!(a.contains(k));
        }
        assert_eq!(a.items(), 2000);
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn union_geometry_mismatch_panics() {
        let mut a = BloomFilter::new(100, 3, 1);
        let b = BloomFilter::new(100, 3, 2);
        a.union_with(&b);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = Xoshiro256StarStar::new(6);
        let mut f = BloomFilter::new(12_345, 4, 99);
        let keys: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        for &k in &keys {
            f.insert(k);
        }
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), f.wire_size());
        let back =
            BloomFilter::from_bytes(&bytes, f.num_bits(), f.num_hashes(), f.seed(), f.items())
                .expect("roundtrip");
        assert_eq!(back, f);
        for &k in &keys {
            assert!(back.contains(k));
        }
    }

    #[test]
    fn from_bytes_rejects_degenerate_geometry() {
        assert!(BloomFilter::from_bytes(&[0u8; 4], 0, 3, 0, 0).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 4], 32, 0, 0, 0).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 1], 32, 3, 0, 0).is_none()); // short
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn zero_hashes_rejected() {
        let _ = BloomFilter::new(8, 0, 0);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4, 3);
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..1000 {
            assert!(!f.contains(rng.next_u64()));
        }
        assert_eq!(f.load(), 0.0);
    }

    #[test]
    fn one_sided_error_guarantee() {
        // The reconciliation invariant: every key reported ABSENT is truly
        // absent from the inserted set (no false negatives), so a sender
        // filtering on `!contains` never ships a redundant symbol.
        let mut rng = Xoshiro256StarStar::new(8);
        let inserted: std::collections::HashSet<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let mut f = BloomFilter::with_bits_per_element(inserted.len(), 4.0, 5);
        for &k in &inserted {
            f.insert(k);
        }
        for _ in 0..20_000 {
            let probe = rng.next_u64();
            if !f.contains(probe) {
                assert!(!inserted.contains(&probe));
            }
        }
    }
}
