//! Deterministic pseudo-random number generators.
//!
//! Every stochastic component in the workspace — symbol-key generation,
//! degree sampling, scenario construction, loss injection — draws from
//! these generators so that a simulation run is a pure function of its
//! 64-bit seed. The experiment harness averages over an explicit list of
//! seeds and can therefore be re-run bit-for-bit.
//!
//! [`SplitMix64`] is used for seeding and cheap key streams;
//! [`Xoshiro256StarStar`] is the workhorse generator (fast, 256-bit state,
//! passes BigCrush). Both are implemented from the public-domain reference
//! algorithms.

/// Minimal trait for a 64-bit PRNG, with derived helpers for the sampling
/// patterns the workspace needs.
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform value in `[0, bound)` using Lemire's unbiased multiply-shift
    /// rejection method. `bound` must be non-zero.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling on the low word of the 128-bit product keeps
        // the result exactly uniform, not just approximately. The
        // rejection threshold (`-bound % bound`) costs a hardware divide,
        // so it is computed only in the vanishingly rare case that the
        // low word lands under `bound` — `low ≥ bound ≥ threshold`
        // accepts immediately. The accept/reject decisions (and thus the
        // consumed RNG stream) are identical to the eager form, so every
        // seeded experiment reproduces bit-for-bit.
        let mut wide = u128::from(self.next_u64()) * u128::from(bound);
        let mut low = wide as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                wide = u128::from(self.next_u64()) * u128::from(bound);
                low = wide as u64;
            }
        }
        (wide >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform floating point value in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        // Take the top 53 bits; dividing by 2^53 yields [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm).
    ///
    /// Runs in `O(k)` expected time independent of `n`, which matters when
    /// sampling a handful of source blocks out of tens of thousands for
    /// every encoded symbol.
    fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut result = Vec::with_capacity(k);
        self.sample_distinct_into(n, k, &mut result);
        result
    }

    /// [`Rng64::sample_distinct`] into a caller-owned vector (cleared
    /// first), so per-symbol sampling allocates nothing at steady state.
    ///
    /// Membership among the ≤ degree-cap picks already made is checked by
    /// linear scan of the output — for the small `k` of every symbol draw
    /// this beats hashing, and it consumes the identical RNG stream, so
    /// all seeded experiments reproduce bit-for-bit.
    fn sample_distinct_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        out.clear();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            let pick = if out.contains(&t) { j } else { t };
            out.push(pick);
        }
    }
}

/// Reusable scratch for [`Rng64::sample_distinct_into`]-equivalent
/// sampling in `O(k)` with no per-draw membership scan.
///
/// Floyd's algorithm needs a "was this index already picked?" test.
/// [`Rng64::sample_distinct_into`] answers it by scanning the output —
/// `O(k²)` compares, painful exactly when the degree distribution's
/// spike fires (k near the cap). This sampler answers it with a
/// generation-stamped array: one indexed load per test. The array is
/// 4·n bytes for the largest `n` sampled — under 1 KB for a swarm
/// peer's working set, but 96 KB (past L1, in L2) for a recoder over
/// the paper's l = 23 968 — and only the k stamped slots are touched
/// per draw. Draws the identical picks from the identical RNG stream
/// as the trait method.
#[derive(Debug, Clone, Default)]
pub struct DistinctSampler {
    stamp: Vec<u32>,
    generation: u32,
}

impl DistinctSampler {
    /// Creates an empty sampler (storage grows on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples `k` distinct indices from `[0, n)` into `out` (cleared
    /// first), exactly as [`Rng64::sample_distinct`] would.
    pub fn sample_into<R: Rng64>(&mut self, rng: &mut R, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        let generation = self.generation;
        out.clear();
        for j in (n - k)..n {
            let t = rng.index(j + 1);
            let pick = if self.stamp[t] == generation { j } else { t };
            self.stamp[pick] = generation;
            out.push(pick);
        }
    }
}

/// SplitMix64: tiny, fast generator used for seeding and key streams.
///
/// One multiply + shifts per output; its 64-bit state walks a Weyl
/// sequence so its period is exactly 2^64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's general-purpose generator.
///
/// 256 bits of state, period 2^256 − 1, and excellent statistical quality.
/// Seeded through SplitMix64 as the authors recommend, so correlated
/// user-provided seeds still yield decorrelated state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the one forbidden state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }
}

impl Rng64 for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let second = rng.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(rng2.next_u64(), first);
        assert_eq!(rng2.next_u64(), second);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Xoshiro256StarStar::new(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            items,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = Xoshiro256StarStar::new(9);
        for _ in 0..100 {
            let sample = rng.sample_distinct(50, 10);
            assert_eq!(sample.len(), 10);
            let set: std::collections::HashSet<_> = sample.iter().collect();
            assert_eq!(set.len(), 10, "sample must be distinct");
            assert!(sample.iter().all(|&v| v < 50));
        }
        // Full sample is a permutation of the range.
        let full = rng.sample_distinct(20, 20);
        let set: std::collections::HashSet<_> = full.into_iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn distinct_sampler_matches_trait_method() {
        let mut sampler = DistinctSampler::new();
        let mut out = Vec::new();
        for (n, k) in [(50usize, 10usize), (50, 50), (1, 1), (2000, 50), (7, 3)] {
            // Same seed through both paths: picks must be identical.
            let mut a = Xoshiro256StarStar::new(n as u64 * 31 + k as u64);
            let mut b = a.clone();
            let expect = a.sample_distinct(n, k);
            sampler.sample_into(&mut b, n, k, &mut out);
            assert_eq!(out, expect, "divergence at n={n} k={k}");
            // And the generators are left in the same state.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
