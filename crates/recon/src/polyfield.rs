//! Dense univariate polynomial arithmetic over GF(2^61 − 1).
//!
//! Just enough machinery for characteristic-polynomial set
//! reconciliation: multiplication, division with remainder, GCD,
//! evaluation, modular exponentiation of (z + r), and root extraction by
//! equal-degree splitting. Degrees stay small (the discrepancy bound, a
//! few hundred at most), so quadratic algorithms are the right tool — no
//! FFTs, no karatsuba, nothing to get wrong.

use icd_util::modp::{add, inv, mul, neg, sub, P};
use icd_util::rng::{Rng64, Xoshiro256StarStar};

/// A polynomial over GF(p), little-endian coefficients, no trailing
/// zeros (the zero polynomial is an empty vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    #[must_use]
    pub fn constant(c: u64) -> Self {
        debug_assert!(c < P);
        if c == 0 {
            Self::zero()
        } else {
            Self { coeffs: vec![c] }
        }
    }

    /// Builds from little-endian coefficients, trimming trailing zeros.
    #[must_use]
    pub fn from_coeffs(mut coeffs: Vec<u64>) -> Self {
        debug_assert!(coeffs.iter().all(|&c| c < P));
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// The monic linear polynomial `z − root`.
    #[must_use]
    pub fn linear(root: u64) -> Self {
        Self {
            coeffs: vec![neg(root), 1],
        }
    }

    /// The characteristic polynomial Π (z − sᵢ) of a set.
    #[must_use]
    pub fn characteristic(set: &[u64]) -> Self {
        // Product tree keeps this O(n²) worst case but with good
        // constants; sets here are at most tens of thousands.
        fn build(items: &[u64]) -> Poly {
            match items {
                [] => Poly::constant(1),
                [x] => Poly::linear(*x),
                _ => {
                    let mid = items.len() / 2;
                    build(&items[..mid]).mul(&build(&items[mid..]))
                }
            }
        }
        build(set)
    }

    /// True for the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree; 0 for constants, and (by convention here) 0 for zero.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Coefficient view.
    #[must_use]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Leading coefficient (panics on zero polynomial).
    #[must_use]
    pub fn leading(&self) -> u64 {
        *self.coeffs.last().expect("zero polynomial has no leading coefficient")
    }

    /// Horner evaluation at `x`.
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add(mul(acc, x), c);
        }
        acc
    }

    /// Sum.
    #[must_use]
    pub fn addp(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u64; n];
        for (i, slot) in out.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            *slot = add(a, b);
        }
        Self::from_coeffs(out)
    }

    /// Difference.
    #[must_use]
    pub fn subp(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u64; n];
        for (i, slot) in out.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            *slot = sub(a, b);
        }
        Self::from_coeffs(out)
    }

    /// Product (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] = add(out[i + j], mul(a, b));
            }
        }
        Self::from_coeffs(out)
    }

    /// Scales by a constant.
    #[must_use]
    pub fn scale(&self, c: u64) -> Self {
        if c == 0 {
            return Self::zero();
        }
        Self::from_coeffs(self.coeffs.iter().map(|&a| mul(a, c)).collect())
    }

    /// Division with remainder: `self = q·divisor + r`, deg r < deg
    /// divisor. Panics if `divisor` is zero.
    #[must_use]
    pub fn divmod(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero polynomial");
        if self.coeffs.len() < divisor.coeffs.len() {
            return (Self::zero(), self.clone());
        }
        let lead_inv = inv(divisor.leading());
        let mut rem = self.coeffs.clone();
        let dlen = divisor.coeffs.len();
        let mut quot = vec![0u64; rem.len() - dlen + 1];
        for i in (0..quot.len()).rev() {
            let head = rem[i + dlen - 1];
            if head == 0 {
                continue;
            }
            let q = mul(head, lead_inv);
            quot[i] = q;
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i + j] = sub(rem[i + j], mul(q, dc));
            }
        }
        (Self::from_coeffs(quot), Self::from_coeffs(rem))
    }

    /// Makes the polynomial monic.
    #[must_use]
    pub fn monic(&self) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        self.scale(inv(self.leading()))
    }

    /// Monic GCD by Euclid's algorithm.
    #[must_use]
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let (_, r) = a.divmod(&b);
            a = b;
            b = r;
        }
        a.monic()
    }

    /// Computes `(z + shift)^exp mod modulus` by square-and-multiply.
    #[must_use]
    pub fn linear_powmod(shift: u64, mut exp: u64, modulus: &Self) -> Self {
        assert!(modulus.degree() >= 1, "modulus must be non-constant");
        let base = Self::from_coeffs(vec![shift, 1]);
        let (_, mut base) = base.divmod(modulus);
        let mut acc = Self::constant(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base).divmod(modulus).1;
            }
            base = base.mul(&base).divmod(modulus).1;
            exp >>= 1;
        }
        acc
    }

    /// Extracts all roots, assuming the polynomial splits into *distinct*
    /// linear factors over GF(p) — which characteristic-polynomial
    /// quotients do by construction. Returns `None` if that assumption
    /// fails (repeated or non-linear factors), which callers treat as a
    /// verification failure.
    #[must_use]
    pub(crate) fn roots(&self, seed: u64) -> Option<Vec<u64>> {
        if self.is_zero() {
            return None;
        }
        if self.degree() == 0 {
            return Some(Vec::new());
        }
        // Reject repeated roots early: gcd(f, f') must be constant.
        let derivative = self.derivative();
        if derivative.is_zero() || self.gcd(&derivative).degree() != 0 {
            return None;
        }
        // All roots must lie in GF(p): z^p − z must kill f, i.e.
        // gcd(z^p − z, f) == f. Equivalently (z)^p mod f == z mod f.
        let zp = Self::linear_powmod(0, P, self);
        let z = Self::from_coeffs(vec![0, 1]).divmod(self).1;
        if zp != z {
            return None;
        }
        let mut rng = Xoshiro256StarStar::new(seed ^ 0x9D05_ECB0);
        let mut out = Vec::with_capacity(self.degree());
        let mut stack = vec![self.monic()];
        let mut attempts = 0usize;
        while let Some(f) = stack.pop() {
            match f.degree() {
                0 => {}
                1 => {
                    // z + c0 (monic) → root = −c0.
                    out.push(neg(f.coeffs[0]));
                }
                _ => {
                    attempts += 1;
                    if attempts > 64 * (self.degree() + 2) {
                        return None; // pathological input; bail out
                    }
                    let r = rng.below(P);
                    // h = (z + r)^((p−1)/2) − 1 splits the roots into the
                    // quadratic residues and the rest.
                    let h = Self::linear_powmod(r, (P - 1) / 2, &f)
                        .subp(&Self::constant(1));
                    let g = f.gcd(&h);
                    if g.degree() == 0 || g.degree() == f.degree() {
                        stack.push(f); // unlucky split; retry
                    } else {
                        let (q, rem) = f.divmod(&g);
                        debug_assert!(rem.is_zero());
                        stack.push(g);
                        stack.push(q.monic());
                    }
                }
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// Formal derivative.
    #[must_use]
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::zero();
        }
        let out: Vec<u64> = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| mul(c, (i as u64) % P))
            .collect();
        Self::from_coeffs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristic_has_set_as_roots() {
        let set = [3u64, 17, 99, 12345];
        let chi = Poly::characteristic(&set);
        assert_eq!(chi.degree(), 4);
        assert_eq!(chi.leading(), 1, "characteristic polynomial is monic");
        for &s in &set {
            assert_eq!(chi.eval(s), 0, "χ({s}) must vanish");
        }
        assert_ne!(chi.eval(1), 0);
    }

    #[test]
    fn mul_and_divmod_are_inverse() {
        let a = Poly::characteristic(&[1, 2, 3]);
        let b = Poly::characteristic(&[10, 20]);
        let prod = a.mul(&b);
        let (q, r) = prod.divmod(&b);
        assert!(r.is_zero());
        assert_eq!(q, a);
        let (q2, r2) = prod.divmod(&a);
        assert!(r2.is_zero());
        assert_eq!(q2, b);
    }

    #[test]
    fn divmod_remainder_evaluates_consistently() {
        let f = Poly::from_coeffs(vec![5, 0, 3, 1, 9]);
        let g = Poly::from_coeffs(vec![7, 1, 2]);
        let (q, r) = f.divmod(&g);
        for x in [0u64, 1, 2, 999_999] {
            let lhs = f.eval(x);
            let rhs = add(mul(q.eval(x), g.eval(x)), r.eval(x));
            assert_eq!(lhs, rhs, "f = qg + r must hold at {x}");
        }
        assert!(r.degree() < g.degree());
    }

    #[test]
    fn gcd_finds_common_roots() {
        let a = Poly::characteristic(&[1, 2, 3, 4]);
        let b = Poly::characteristic(&[3, 4, 5, 6]);
        let g = a.gcd(&b);
        let expect = Poly::characteristic(&[3, 4]);
        assert_eq!(g, expect);
    }

    #[test]
    fn gcd_of_coprime_is_one() {
        let a = Poly::characteristic(&[1, 2]);
        let b = Poly::characteristic(&[3, 4]);
        assert_eq!(a.gcd(&b), Poly::constant(1));
    }

    #[test]
    fn roots_of_characteristic_polynomial() {
        let set = [42u64, 777, 31337, 1, P - 2];
        let chi = Poly::characteristic(&set);
        let mut expect = set.to_vec();
        expect.sort_unstable();
        let got = chi.roots(1).expect("splits into linear factors");
        assert_eq!(got, expect);
    }

    #[test]
    fn roots_rejects_repeated_factors() {
        let dbl = Poly::linear(5).mul(&Poly::linear(5));
        assert_eq!(dbl.roots(1), None);
    }

    #[test]
    fn roots_rejects_irreducible_quadratic() {
        // z² − s where s is a non-residue has no roots in GF(p).
        // Find a quadratic non-residue by Euler's criterion.
        let mut s = 2u64;
        while icd_util::modp::pow(s, (P - 1) / 2) == 1 {
            s += 1;
        }
        let poly = Poly::from_coeffs(vec![neg(s), 0, 1]);
        assert_eq!(poly.roots(2), None);
    }

    #[test]
    fn roots_of_larger_set() {
        let set: Vec<u64> = (0..60).map(|i| icd_util::hash::mix64(i) % P).collect();
        let chi = Poly::characteristic(&set);
        let mut expect = set;
        expect.sort_unstable();
        expect.dedup();
        let got = chi.roots(3).expect("all-linear");
        assert_eq!(got, expect);
    }

    #[test]
    fn linear_powmod_small_case() {
        // (z + 1)^2 mod (z^2) = 2z + 1.
        let m = Poly::from_coeffs(vec![0, 0, 1]);
        let r = Poly::linear_powmod(1, 2, &m);
        assert_eq!(r, Poly::from_coeffs(vec![1, 2]));
    }

    #[test]
    fn derivative_basic() {
        // d/dz (z³ + 2z + 7) = 3z² + 2.
        let f = Poly::from_coeffs(vec![7, 2, 0, 1]);
        assert_eq!(f.derivative(), Poly::from_coeffs(vec![2, 0, 3]));
        assert!(Poly::constant(5).derivative().is_zero());
    }

    #[test]
    fn zero_and_constant_edges() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::constant(0), Poly::zero());
        assert_eq!(Poly::characteristic(&[]), Poly::constant(1));
        let (q, r) = Poly::zero().divmod(&Poly::linear(3));
        assert!(q.is_zero() && r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero polynomial")]
    fn divide_by_zero_panics() {
        let _ = Poly::constant(1).divmod(&Poly::zero());
    }
}
