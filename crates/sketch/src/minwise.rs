//! Min-wise permutation sketches (§4, following Broder et al.).
//!
//! For a random permutation π of the key universe, the minimum of π over
//! two sets A and B coincides exactly when the element attaining the
//! minimum of π over A ∪ B lies in A ∩ B, which happens with probability
//! r = |A∩B| / |A∪B| — the *resemblance*. Averaging the coincidence
//! indicator over many independent permutations estimates r.
//!
//! True random permutations are unimplementable at 64-bit scale; following
//! the paper (and Broder–Charikar–Frieze–Mitzenmacher) we use linear
//! permutations π(x) = a·x + b (mod p) over the Mersenne prime
//! p = 2^61 − 1. Keys are first reduced into the field by `mix64`-style
//! hashing so arbitrary 64-bit keys may be inserted.
//!
//! The default sketch width is [`DEFAULT_PERMUTATIONS`] = 128 minima of
//! 8 bytes each = 1 024 bytes — the paper's "single 1KB packet".

use icd_util::hash::mix64;
use icd_util::modp;
use icd_util::rng::{Rng64, SplitMix64};

use crate::estimate::OverlapEstimate;
use crate::Key;

/// Default number of permutations: 128 minima × 8 B = 1 KB packet.
pub(crate) const DEFAULT_PERMUTATIONS: usize = 128;

/// Sentinel stored in a coordinate before any key has been inserted.
///
/// `u64::MAX` exceeds every field element (< 2^61), so it can never be a
/// real minimum.
const EMPTY: u64 = u64::MAX;

/// A linear permutation π(x) = a·x + b (mod p), a ≠ 0, over GF(2^61 − 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinearPermutation {
    a: u64,
    b: u64,
}

impl LinearPermutation {
    /// Draws a uniformly random permutation (a ≠ 0).
    #[must_use]
    pub(crate) fn random<R: Rng64>(rng: &mut R) -> Self {
        let a = 1 + rng.below(modp::P - 1);
        let b = rng.below(modp::P);
        Self { a, b }
    }

    /// Applies the permutation to a field element in `[0, p)`.
    ///
    /// Fused: `a·x + b` is accumulated in 128 bits and reduced once with
    /// the Lemire-style [`modp::reduce122`] (the accumulator stays below
    /// `2^122 + 2^61`, its exact domain) — one fold and one conditional
    /// subtraction instead of the generic three-limb reduction, on the
    /// operation the sketch build executes 128 times per key. Identical
    /// result to `add(mul(a, x), b)`.
    #[inline]
    #[must_use]
    pub(crate) fn apply(&self, x: u64) -> u64 {
        modp::reduce122(u128::from(self.a) * u128::from(x) + u128::from(self.b))
    }
}

/// A family of linear permutations shared by all peers.
///
/// §4: "The peers must agree on these permutations in advance; we assume
/// they are fixed universally off-line." The family is a pure function of
/// `(seed, count)`, so a peer only ever transmits those two values (or,
/// in a deployment, they are baked into the protocol spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationFamily {
    seed: u64,
    perms: Vec<LinearPermutation>,
}

impl PermutationFamily {
    /// Derives a family of `count` permutations from `seed`.
    #[must_use]
    pub fn new(seed: u64, count: usize) -> Self {
        assert!(count > 0, "a sketch needs at least one permutation");
        let mut rng = SplitMix64::new(seed ^ 0x6D69_6E77_6973_6521); // "minwise!"
        let perms = (0..count)
            .map(|_| LinearPermutation::random(&mut rng))
            .collect();
        Self { seed, perms }
    }

    /// The canonical 1 KB-packet family (128 permutations).
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        Self::new(seed, DEFAULT_PERMUTATIONS)
    }

    /// Seed this family was derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of permutations.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.perms.len()
    }

    /// Maps an arbitrary 64-bit key into the permutation domain `[0, p)`.
    ///
    /// §4 assumes keys are random ("the key space can always be
    /// transformed by applying a (pseudo-)random hash function"); this is
    /// that transformation.
    #[inline]
    #[must_use]
    pub(crate) fn key_to_field(key: Key) -> u64 {
        modp::canon(mix64(key))
    }
}

/// A min-wise sketch: one running minimum per permutation in the family.
///
/// Build with [`MinwiseSketch::new`], feed keys with
/// [`MinwiseSketch::insert`] (constant work per permutation), compare with
/// [`MinwiseSketch::resemblance`], and compose with
/// [`MinwiseSketch::union`]. The sketch also tracks the number of inserted
/// keys (`set_size`), which the containment conversion needs; the paper
/// sends set sizes alongside sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinwiseSketch {
    family_seed: u64,
    minima: Vec<u64>,
    set_size: u64,
}

impl MinwiseSketch {
    /// Creates an empty sketch bound to a permutation family.
    #[must_use]
    pub fn new(family: &PermutationFamily) -> Self {
        Self {
            family_seed: family.seed(),
            minima: vec![EMPTY; family.len()],
            set_size: 0,
        }
    }

    /// Builds a sketch of an entire key collection.
    #[must_use]
    pub fn from_keys<I: IntoIterator<Item = u64>>(family: &PermutationFamily, keys: I) -> Self {
        let mut s = Self::new(family);
        for k in keys {
            s.insert(family, k);
        }
        s
    }

    /// Incorporates one key: `O(len)` field operations, no allocation.
    ///
    /// Note: the sketch treats its input as a *set*; inserting the same
    /// key twice bumps `set_size` twice, so callers de-duplicate (working
    /// sets are sets by construction).
    pub fn insert(&mut self, family: &PermutationFamily, key: u64) {
        assert_eq!(
            family.seed(),
            self.family_seed,
            "sketch updated with a foreign permutation family"
        );
        let x = PermutationFamily::key_to_field(key);
        for (min, perm) in self.minima.iter_mut().zip(family.perms.iter()) {
            // Branchless min: the independent multiply/reduce chains of
            // consecutive permutations then pipeline instead of stalling
            // on a hard-to-predict store.
            let y = perm.apply(x);
            *min = y.min(*min);
        }
        self.set_size += 1;
    }

    /// Number of keys inserted.
    #[must_use]
    pub fn set_size(&self) -> u64 {
        self.set_size
    }

    /// Seed of the family this sketch belongs to.
    #[must_use]
    pub fn family_seed(&self) -> u64 {
        self.family_seed
    }

    /// Raw minima vector (what actually crosses the wire).
    #[must_use]
    pub fn minima(&self) -> &[u64] {
        &self.minima
    }

    /// Reconstructs a sketch from wire data. Returns `None` if the minima
    /// vector is empty.
    #[must_use]
    pub fn from_parts(family_seed: u64, minima: Vec<u64>, set_size: u64) -> Option<Self> {
        if minima.is_empty() {
            return None;
        }
        Some(Self {
            family_seed,
            minima,
            set_size,
        })
    }

    /// Estimates the resemblance r = |A∩B| / |A∪B| as the fraction of
    /// coordinates where the two minima agree (§4, Figure 2).
    ///
    /// Panics if the sketches use different families or widths: comparing
    /// them would be silently meaningless.
    #[must_use]
    pub fn resemblance(&self, other: &Self) -> f64 {
        assert_eq!(self.family_seed, other.family_seed, "family mismatch");
        assert_eq!(self.minima.len(), other.minima.len(), "width mismatch");
        let matches = self
            .minima
            .iter()
            .zip(other.minima.iter())
            .filter(|(a, b)| a == b && **a != EMPTY)
            .count();
        matches as f64 / self.minima.len() as f64
    }

    /// Full overlap estimate (resemblance plus both containments) for
    /// `self` = A and `other` = B.
    #[must_use]
    pub fn estimate(&self, other: &Self) -> OverlapEstimate {
        OverlapEstimate::from_resemblance(self.resemblance(other), self.set_size, other.set_size)
    }

    /// Sketch of the union A ∪ B: coordinate-wise minimum (§4: "the sketch
    /// for the union ... is easily found by taking the coordinate-wise
    /// minimum").
    ///
    /// The union's `set_size` is *estimated* by inclusion–exclusion from
    /// the pairwise resemblance, since the true union size is unknown to
    /// either peer alone.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        assert_eq!(self.family_seed, other.family_seed, "family mismatch");
        assert_eq!(self.minima.len(), other.minima.len(), "width mismatch");
        let minima: Vec<u64> = self
            .minima
            .iter()
            .zip(other.minima.iter())
            .map(|(a, b)| *a.min(b))
            .collect();
        let est = self.estimate(other);
        Self {
            family_seed: self.family_seed,
            minima,
            set_size: est.union_size().round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::Xoshiro256StarStar;

    fn keys(range: std::ops::Range<u64>) -> Vec<Key> {
        // Spread keys out so they are not accidentally field-adjacent.
        range
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD)
            .collect()
    }

    #[test]
    fn permutation_stays_in_field() {
        let mut rng = Xoshiro256StarStar::new(1);
        for _ in 0..10 {
            let p = LinearPermutation::random(&mut rng);
            for x in [0u64, 1, 2, 12345, modp::P - 1] {
                assert!(p.apply(x) < modp::P);
            }
        }
    }

    #[test]
    fn fast_apply_is_value_identical_to_reference_arithmetic() {
        // The reduce122 fast path must not change a single permutation
        // image — sketches are protocol state shared across peers.
        let mut rng = Xoshiro256StarStar::new(0x1CD);
        for _ in 0..50 {
            let p = LinearPermutation::random(&mut rng);
            for _ in 0..2_000 {
                let x = rng.below(modp::P);
                let reference = modp::add(modp::mul(p.a, x), p.b);
                assert_eq!(p.apply(x), reference, "a={} b={} x={x}", p.a, p.b);
            }
            for x in [0, 1, modp::P - 1, modp::P / 2] {
                assert_eq!(p.apply(x), modp::add(modp::mul(p.a, x), p.b));
            }
        }
    }

    #[test]
    fn sketches_identical_under_fast_reduction() {
        // Whole-sketch identity: build via the hot path and via the
        // reference arithmetic, coordinate by coordinate.
        let f = PermutationFamily::standard(0x1CD);
        let ks = keys(0..500);
        let fast = MinwiseSketch::from_keys(&f, ks.iter().copied());
        let mut reference_minima = vec![u64::MAX; f.len()];
        for &k in &ks {
            let x = PermutationFamily::key_to_field(k);
            for (min, perm) in reference_minima.iter_mut().zip(f.perms.iter()) {
                let y = modp::add(modp::mul(perm.a, x), perm.b);
                *min = y.min(*min);
            }
        }
        assert_eq!(fast.minima(), &reference_minima[..]);
    }

    #[test]
    fn family_is_deterministic() {
        let f1 = PermutationFamily::new(99, 16);
        let f2 = PermutationFamily::new(99, 16);
        assert_eq!(f1, f2);
        let f3 = PermutationFamily::new(100, 16);
        assert_ne!(f1, f3);
    }

    #[test]
    #[should_panic(expected = "at least one permutation")]
    fn empty_family_rejected() {
        let _ = PermutationFamily::new(1, 0);
    }

    #[test]
    fn standard_family_fits_1kb() {
        let f = PermutationFamily::standard(0);
        let s = MinwiseSketch::new(&f);
        assert_eq!(
            s.minima().len() * 8,
            1024,
            "the paper's single-1KB-packet claim"
        );
    }

    #[test]
    fn identical_sets_resemble_fully() {
        let f = PermutationFamily::new(7, 64);
        let ks = keys(0..500);
        let a = MinwiseSketch::from_keys(&f, ks.iter().copied());
        let b = MinwiseSketch::from_keys(&f, ks.iter().copied());
        assert_eq!(a.resemblance(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_resemble_nearly_zero() {
        let f = PermutationFamily::new(7, 256);
        let a = MinwiseSketch::from_keys(&f, keys(0..500));
        let b = MinwiseSketch::from_keys(&f, keys(1000..1500));
        assert!(a.resemblance(&b) < 0.05, "got {}", a.resemblance(&b));
    }

    #[test]
    fn empty_sketches_do_not_fake_resemblance() {
        let f = PermutationFamily::new(7, 32);
        let a = MinwiseSketch::new(&f);
        let b = MinwiseSketch::new(&f);
        // Both all-EMPTY: coordinates agree but carry no evidence.
        assert_eq!(a.resemblance(&b), 0.0);
    }

    #[test]
    fn resemblance_tracks_true_jaccard() {
        // |A| = |B| = 1000, overlap 500 → r = 500/1500 = 1/3.
        let f = PermutationFamily::new(11, 512);
        let shared = keys(0..500);
        let mut a_keys = shared.clone();
        a_keys.extend(keys(10_000..10_500));
        let mut b_keys = shared;
        b_keys.extend(keys(20_000..20_500));
        let a = MinwiseSketch::from_keys(&f, a_keys);
        let b = MinwiseSketch::from_keys(&f, b_keys);
        let r = a.resemblance(&b);
        let true_r = 1.0 / 3.0;
        // 512 permutations → stderr ≈ sqrt(r(1-r)/512) ≈ 0.021.
        assert!((r - true_r).abs() < 0.07, "r = {r}, expected ≈ {true_r}");
    }

    #[test]
    fn incremental_equals_batch() {
        let f = PermutationFamily::new(3, 64);
        let ks = keys(0..200);
        let batch = MinwiseSketch::from_keys(&f, ks.iter().copied());
        let mut inc = MinwiseSketch::new(&f);
        for &k in &ks {
            inc.insert(&f, k);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let f = PermutationFamily::new(3, 64);
        let ks = keys(0..200);
        let fwd = MinwiseSketch::from_keys(&f, ks.iter().copied());
        let rev = MinwiseSketch::from_keys(&f, ks.iter().rev().copied());
        assert_eq!(fwd.minima(), rev.minima());
    }

    #[test]
    fn union_sketch_equals_sketch_of_union() {
        let f = PermutationFamily::new(5, 128);
        let a_keys = keys(0..300);
        let b_keys = keys(200..600);
        let a = MinwiseSketch::from_keys(&f, a_keys.iter().copied());
        let b = MinwiseSketch::from_keys(&f, b_keys.iter().copied());
        let union = a.union(&b);
        let mut union_keys: Vec<Key> = a_keys;
        union_keys.extend(b_keys);
        union_keys.sort_unstable();
        union_keys.dedup();
        let direct = MinwiseSketch::from_keys(&f, union_keys);
        assert_eq!(union.minima(), direct.minima());
    }

    #[test]
    fn third_peer_overlap_via_union() {
        // §4: estimate overlap of C with A ∪ B using only sketches.
        let f = PermutationFamily::new(13, 512);
        let a = MinwiseSketch::from_keys(&f, keys(0..400));
        let b = MinwiseSketch::from_keys(&f, keys(400..800));
        // C covers half of A∪B plus 400 private keys → r = 400/1200.
        let mut c_keys = keys(200..600);
        c_keys.extend(keys(5000..5400));
        let c = MinwiseSketch::from_keys(&f, c_keys);
        let r = a.union(&b).resemblance(&c);
        assert!((r - 1.0 / 3.0).abs() < 0.08, "r = {r}");
    }

    #[test]
    #[should_panic(expected = "family mismatch")]
    fn cross_family_comparison_panics() {
        let f1 = PermutationFamily::new(1, 8);
        let f2 = PermutationFamily::new(2, 8);
        let a = MinwiseSketch::from_keys(&f1, keys(0..10));
        let b = MinwiseSketch::from_keys(&f2, keys(0..10));
        let _ = a.resemblance(&b);
    }

    #[test]
    #[should_panic(expected = "foreign permutation family")]
    fn cross_family_insert_panics() {
        let f1 = PermutationFamily::new(1, 8);
        let f2 = PermutationFamily::new(2, 8);
        let mut a = MinwiseSketch::new(&f1);
        a.insert(&f2, 42);
    }

    #[test]
    fn from_parts_roundtrip() {
        let f = PermutationFamily::new(21, 32);
        let s = MinwiseSketch::from_keys(&f, keys(0..100));
        let back = MinwiseSketch::from_parts(s.family_seed(), s.minima().to_vec(), s.set_size())
            .expect("non-empty");
        assert_eq!(back, s);
        assert!(MinwiseSketch::from_parts(0, vec![], 0).is_none());
    }
}
