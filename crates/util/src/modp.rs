//! Arithmetic in GF(p) for the Mersenne prime p = 2^61 − 1.
//!
//! The consumer is the min-wise linear permutation (§4 of the paper):
//! π(x) = a·x + b (mod p) is a bijection on [0, p) whenever a ≠ 0, which
//! is exactly the "simple permutations" substitution the paper makes for
//! truly random permutations. A Mersenne modulus makes the reduction two
//! adds and a mask instead of a division. `add` and `mul` are the
//! reference the fused [`reduce122`] path is tested against.
//!
//! Elements are `u64` values in `[0, P)`. Operations are `O(1)` with no
//! branches beyond the final conditional subtraction.

/// The Mersenne prime 2^61 − 1.
pub const P: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary `u128` product into `[0, P)`.
#[inline]
#[must_use]
pub(crate) fn reduce128(x: u128) -> u64 {
    // Split into 61-bit limbs; since P = 2^61 - 1, 2^61 ≡ 1 (mod P), so the
    // limbs simply add.
    let lo = (x & u128::from(P)) as u64;
    let mid = ((x >> 61) & u128::from(P)) as u64;
    let hi = (x >> 122) as u64; // < 2^6
    let mut s = lo + mid + hi;
    if s >= P {
        s -= P;
    }
    if s >= P {
        s -= P;
    }
    s
}

/// Reduces a value `< 2^122 + 2^61` — the range of `a·x + b` for field
/// elements — into `[0, P)` with a Lemire/Barrett-style fused fold:
/// one two-limb split, one carry fold, and a *single* conditional
/// subtraction, versus `reduce128`'s three-limb split and double
/// subtraction. This is the min-wise sketch build's inner operation
/// (128 executions per inserted key), where the saved ALU work is
/// measurable; value-identical to `reduce128` on the whole domain
/// (proptested below and pinned by the sketch-identity test in
/// `icd-sketch`).
#[inline]
#[must_use]
pub fn reduce122(x: u128) -> u64 {
    debug_assert!(x < (1u128 << 122) + (1u128 << 61));
    // x = lo + 2^61·hi with hi < 2^61 + 1; 2^61 ≡ 1 (mod P) so x ≡ lo + hi.
    let lo = (x as u64) & P;
    let hi = (x >> 61) as u64;
    // s < 2^62 + 1: fold once more; (s & P) + (s >> 61) ≤ P + 2.
    let s = lo + hi;
    let folded = (s & P) + (s >> 61);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Canonicalizes any `u64` into `[0, P)`.
#[inline]
#[must_use]
pub fn canon(x: u64) -> u64 {
    let folded = (x & P) + (x >> 61);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Modular addition.
#[inline]
#[must_use]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let s = a + b;
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Modular multiplication.
#[inline]
#[must_use]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    reduce128(u128::from(a) * u128::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_sane() {
        assert_eq!(P, 2_305_843_009_213_693_951);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let samples = [0u64, 1, 2, 3, 1 << 30, P - 1, P - 2, 987_654_321];
        for &a in &samples {
            for &b in &samples {
                let expect = ((u128::from(a) * u128::from(b)) % u128::from(P)) as u64;
                assert_eq!(mul(a, b), expect, "mul({a}, {b})");
            }
        }
    }

    #[test]
    fn reduce128_edge_cases() {
        assert_eq!(reduce128(0), 0);
        assert_eq!(reduce128(u128::from(P)), 0);
        assert_eq!(reduce128(u128::from(P) + 1), 1);
        // Largest possible product of two field elements.
        let big = u128::from(P - 1) * u128::from(P - 1);
        let expect = (big % u128::from(P)) as u64;
        assert_eq!(reduce128(big), expect);
    }

    #[test]
    fn reduce122_matches_reduce128_on_its_domain() {
        // Edges of the a·x + b domain plus structured probes.
        let edges = [
            0u128,
            1,
            u128::from(P) - 1,
            u128::from(P),
            u128::from(P) + 1,
            1 << 61,
            (1 << 61) - 1,
            (1 << 122) - 1,
            (1 << 122) + (1 << 61) - 1, // domain maximum
            u128::from(P - 1) * u128::from(P - 1) + u128::from(P - 1),
        ];
        for x in edges {
            assert_eq!(reduce122(x), reduce128(x), "x = {x}");
        }
        // Dense pseudo-random sweep over the domain.
        let mut state = 0x1CD_2002u64;
        for _ in 0..50_000 {
            // SplitMix64 step (inline to keep util dependency-free here).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let a = (z ^ (z >> 31)) % P;
            let b = z.rotate_left(17) % P;
            let x = u128::from(a) * u128::from(b) + u128::from(b);
            assert_eq!(reduce122(x), reduce128(x), "a={a} b={b}");
            assert_eq!(reduce122(x), (x % u128::from(P)) as u64);
        }
    }

    #[test]
    fn canon_folds_high_bits() {
        assert_eq!(canon(P), 0);
        assert_eq!(canon(P + 5), 5);
        assert_eq!(canon(u64::MAX), (u64::MAX % P));
    }

    #[test]
    fn linear_map_is_bijective_on_sample() {
        // a*x + b mod p with a != 0 must be injective; sample heavily.
        let a = 0x1234_5678_9ABCu64 % P;
        let b = 0x0FED_CBA9u64 % P;
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            let y = add(mul(a, x), b);
            assert!(seen.insert(y), "collision at x={x}");
        }
    }
}
