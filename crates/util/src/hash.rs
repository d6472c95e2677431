//! 64-bit mixing and keyed hashing.
//!
//! The paper assumes element keys "are random, since the key space can
//! always be transformed by applying a (pseudo-)random hash function"
//! (§4). Everything downstream — min-wise permutations, Bloom probes,
//! reconciliation-tree balancing — relies on that transformation. The
//! functions here provide it without pulling in an external hashing crate.
//!
//! All hashes are deterministic and stable across platforms and runs; the
//! simulator's reproducibility depends on this.

/// The SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
///
/// This is the `mix` function from Steele et al.'s SplitMix generator and
/// passes the usual avalanche tests: flipping any input bit flips each
/// output bit with probability ~1/2. It is a bijection on `u64`, so it
/// never introduces collisions on its own.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Inverse of [`mix64`] (restricted to the multiply/xorshift core).
///
/// Used only in tests to prove bijectivity, but exported because the
/// reconciliation crates occasionally need to recover a pre-image when
/// mapping tree leaves back to element keys.
#[inline]
#[must_use]
pub fn unmix64(mut x: u64) -> u64 {
    x = xorshift_right_inverse(x, 31);
    x = x.wrapping_mul(0x3196_42B2_D24D_8EC3); // modular inverse of 0x94D049BB133111EB
    x = xorshift_right_inverse(x, 27);
    x = x.wrapping_mul(0x96DE_1B17_3F11_9089); // modular inverse of 0xBF58476D1CE4E5B9
    x = xorshift_right_inverse(x, 30);
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// Inverts `x ^= x >> shift` for `shift >= 1`.
#[inline]
fn xorshift_right_inverse(x: u64, shift: u32) -> u64 {
    debug_assert!(shift >= 1);
    let mut result = x;
    let mut s = shift;
    while s < 64 {
        result = x ^ (result >> shift);
        s += shift;
    }
    result
}

/// A keyed 64-bit hash: mixes `value` under a 64-bit `seed`.
///
/// Distinct seeds give (empirically) independent hash functions, which is
/// how the Bloom filters and reconciliation trees derive their families of
/// hash functions. The construction is two rounds of [`mix64`] with the
/// seed folded in between; it is *not* cryptographic, matching the paper's
/// threat model (cooperating peers, no adversary).
#[inline]
#[must_use]
pub fn hash64(value: u64, seed: u64) -> u64 {
    mix64(mix64(value ^ 0x510E_527F_ADE6_82D1).wrapping_add(seed ^ 0x9B05_688C_2B3E_6C1F))
}

/// A family of pairwise-independent-style hash functions indexed by `i`,
/// derived from two base hashes (Kirsch–Mitzenmacher double hashing).
///
/// `g_i(x) = h1(x) + i * h2(x)`, which is the standard way to simulate `k`
/// Bloom-filter hash functions from two. Dietzfelbinger et al. and
/// Kirsch–Mitzenmacher show this preserves the asymptotic false-positive
/// rate; our Bloom calibration experiment confirms it empirically against
/// the analytic `(1 - e^{-kn/m})^k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleHash {
    h1: u64,
    h2: u64,
}

impl DoubleHash {
    /// Computes the two base hashes of `value` under `seed`.
    #[inline]
    #[must_use]
    pub fn new(value: u64, seed: u64) -> Self {
        let h1 = hash64(value, seed);
        // Force h2 odd so the probe sequence has full period modulo powers
        // of two and never degenerates to a constant.
        let h2 = hash64(value, seed ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
        Self { h1, h2 }
    }

    /// The `i`-th derived hash.
    #[inline]
    #[must_use]
    pub(crate) fn probe(&self, i: u64) -> u64 {
        self.h1.wrapping_add(i.wrapping_mul(self.h2))
    }

    /// The `i`-th derived hash reduced to `[0, bound)` via the
    /// multiply-shift trick (unbiased enough for filter indexing and
    /// cheaper than `%`).
    #[inline]
    #[must_use]
    pub fn probe_bounded(&self, i: u64, bound: usize) -> usize {
        debug_assert!(bound > 0);
        let h = self.probe(i);
        ((u128::from(h) * bound as u128) >> 64) as usize
    }
}

/// A [`std::hash::Hasher`] built on [`mix64`], for hash maps keyed by
/// 64-bit symbol ids.
///
/// The std default (SipHash) defends against adversarial key choice; the
/// paper's threat model has none (cooperating peers), and the data plane
/// probes id-keyed maps on every received symbol, so the workspace trades
/// DoS hardening it does not need for a one-multiply-per-lookup hasher.
/// Deterministic across runs and platforms, like everything else here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rare: the workspace keys on u64).
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            self.state = mix64(self.state ^ word);
        }
        // Fold the tail *with its length* so byte keys differing only in
        // leading zero bytes (e.g. "\x01" vs "\x00\x01") hash apart.
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            let mut tail = remainder.len() as u64;
            for &b in remainder {
                tail = (tail << 8) | u64::from(b);
            }
            self.state = mix64(self.state ^ tail);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.state = mix64(self.state ^ value);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastBuildHasher;

impl std::hash::BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// `HashMap` keyed through [`FastHasher`] — the data-plane map type.
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// `HashSet` keyed through [`FastHasher`] — the data-plane set type.
pub type FastHashSet<K> = std::collections::HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        for i in 0..10_000u64 {
            let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(unmix64(mix64(x)), x, "mix64 must invert at {x}");
        }
    }

    #[test]
    fn mix64_avalanche_is_roughly_half() {
        // Flipping one input bit should flip ~32 of 64 output bits.
        let mut total_flips = 0u64;
        let trials = 2_000u64;
        for t in 0..trials {
            let x = mix64(t); // arbitrary spread-out inputs
            let bit = (t % 64) as u32;
            let flipped = mix64(x ^ (1u64 << bit)) ^ mix64(x);
            total_flips += u64::from(flipped.count_ones());
        }
        let avg = total_flips as f64 / trials as f64;
        assert!(
            (24.0..40.0).contains(&avg),
            "avalanche average {avg} outside [24, 40]"
        );
    }

    #[test]
    fn hash64_differs_across_seeds() {
        let x = 42;
        let a = hash64(x, 1);
        let b = hash64(x, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn double_hash_probes_are_distinct() {
        let dh = DoubleHash::new(123, 456);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(dh.probe(i));
        }
        assert_eq!(seen.len(), 64, "probe sequence must not repeat early");
    }

    #[test]
    fn probe_bounded_respects_bound() {
        let dh = DoubleHash::new(99, 7);
        for bound in [1usize, 2, 3, 1000, 40_000] {
            for i in 0..32 {
                assert!(dh.probe_bounded(i, bound) < bound);
            }
        }
    }

    #[test]
    fn fast_hasher_is_deterministic_and_spreads() {
        use std::hash::{BuildHasher, Hasher};
        let h = |v: u64| {
            let mut hasher = FastBuildHasher.build_hasher();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Byte path agrees with itself and differs across lengths.
        let hb = |bytes: &[u8]| {
            let mut hasher = FastBuildHasher.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(hb(b"abcdefgh"), hb(b"abcdefgh"));
        assert_ne!(hb(b"abcdefgh"), hb(b"abcdefg"));
        // Leading zero bytes in the tail must not collide.
        assert_ne!(hb(b"\x01"), hb(b"\x00\x01"));
        assert_ne!(hb(b"\x00"), hb(b"\x00\x00"));
        // Sequential keys land in distinct buckets of a small table.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..1024u64 {
            buckets.insert(h(i) % 64);
        }
        assert_eq!(buckets.len(), 64, "sequential keys must spread");
    }

    #[test]
    fn fast_hash_set_usable() {
        let mut set: FastHashSet<u64> = FastHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert!(set.contains(&7));
        let mut map: FastHashMap<u64, u32> = FastHashMap::default();
        map.insert(1, 2);
        assert_eq!(map.get(&1), Some(&2));
    }
}
