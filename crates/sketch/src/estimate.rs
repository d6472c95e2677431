//! Conversions between similarity measures (§4).
//!
//! Min-wise sketches estimate the *resemblance* r = |A∩B| / |A∪B| while
//! the transfer policy wants the *containment* c = |A∩B| / |B| ("the
//! fraction of elements B has that can be useful to A" is 1 − c). §4 notes
//! that "given |A_F| and |B_F|, an estimate for one can be used to
//! calculate an estimate for the other, by using the inclusion-exclusion
//! formula" — this module is that formula, kept in one place so the
//! conversion logic is tested once and reused by every estimator.

/// A complete pairwise overlap estimate between working sets A and B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapEstimate {
    /// Estimated resemblance |A∩B| / |A∪B| in `[0, 1]`.
    resemblance: f64,
    /// |A| as reported by peer A.
    size_a: u64,
    /// |B| as reported by peer B.
    size_b: u64,
}

impl OverlapEstimate {
    /// Builds an estimate from a resemblance measurement and the two set
    /// sizes. The resemblance is clamped into `[0, 1]`.
    #[must_use]
    pub fn from_resemblance(resemblance: f64, size_a: u64, size_b: u64) -> Self {
        Self {
            resemblance: resemblance.clamp(0.0, 1.0),
            size_a,
            size_b,
        }
    }

    /// Builds an estimate from a containment measurement
    /// c = |A∩B| / |B| (what random sampling and mod-k sampling produce),
    /// inverting the inclusion–exclusion relation.
    #[must_use]
    pub fn from_containment_of_b(containment: f64, size_a: u64, size_b: u64) -> Self {
        let c = containment.clamp(0.0, 1.0);
        let inter = c * size_b as f64;
        let union = size_a as f64 + size_b as f64 - inter;
        let r = if union <= 0.0 { 0.0 } else { inter / union };
        Self::from_resemblance(r, size_a, size_b)
    }

    /// The resemblance r = |A∩B| / |A∪B|.
    #[must_use]
    pub fn resemblance(&self) -> f64 {
        self.resemblance
    }

    /// Estimated intersection size |A∩B| via inclusion–exclusion:
    /// r = i / (|A| + |B| − i)  ⇒  i = r (|A| + |B|) / (1 + r),
    /// clamped to the geometrically feasible `[0, min(|A|, |B|)]` — a
    /// sketch whose sampling noise implies an impossible resemblance
    /// must not propagate impossible intersections downstream.
    #[must_use]
    pub fn intersection_size(&self) -> f64 {
        let r = self.resemblance;
        let raw = r * (self.size_a as f64 + self.size_b as f64) / (1.0 + r);
        raw.min(self.size_a.min(self.size_b) as f64)
    }

    /// Estimated union size |A∪B|.
    #[must_use]
    pub fn union_size(&self) -> f64 {
        self.size_a as f64 + self.size_b as f64 - self.intersection_size()
    }

    /// Containment of B in A: c = |A∩B| / |B| — the fraction of B's
    /// symbols the receiver A already has. This is the `c` driving the
    /// recoding degree selection (§5.4.2).
    #[must_use]
    pub fn containment_of_b(&self) -> f64 {
        if self.size_b == 0 {
            0.0
        } else {
            (self.intersection_size() / self.size_b as f64).clamp(0.0, 1.0)
        }
    }

    /// Fraction of B's symbols that are *useful* to A: 1 − c.
    ///
    /// §4: "The quantity |A∩B|/|B| represents the fraction of elements B
    /// has that can be useful to A" — sic; the prose means the complement,
    /// and this accessor removes the ambiguity at call sites.
    #[must_use]
    pub fn useful_fraction_of_b(&self) -> f64 {
        1.0 - self.containment_of_b()
    }

    /// |A| as carried in the estimate.
    #[must_use]
    pub fn size_a(&self) -> u64 {
        self.size_a
    }

    /// |B| as carried in the estimate.
    #[must_use]
    pub fn size_b(&self) -> u64 {
        self.size_b
    }

    /// True when the sets are (estimated to be) identical — the admission
    /// control signal of §4: "allowing receivers to immediately reject
    /// candidate senders whose content is identical to their own".
    #[must_use]
    pub fn is_identical(&self, tolerance: f64) -> bool {
        self.size_a == self.size_b && self.resemblance >= 1.0 - tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_overlap_roundtrip() {
        // |A| = 100, |B| = 200, intersection 50: r = 50/250 = 0.2.
        let est = OverlapEstimate::from_resemblance(0.2, 100, 200);
        assert!((est.intersection_size() - 50.0).abs() < 1e-9);
        assert!((est.union_size() - 250.0).abs() < 1e-9);
        assert!((est.containment_of_b() - 0.25).abs() < 1e-9);
        assert!((est.useful_fraction_of_b() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn containment_and_resemblance_agree() {
        // Same geometry expressed through the containment constructor.
        let via_r = OverlapEstimate::from_resemblance(0.2, 100, 200);
        let via_c = OverlapEstimate::from_containment_of_b(0.25, 100, 200);
        assert!((via_r.resemblance() - via_c.resemblance()).abs() < 1e-9);
        assert!((via_r.intersection_size() - via_c.intersection_size()).abs() < 1e-9);
    }

    #[test]
    fn disjoint_and_identical_extremes() {
        let disjoint = OverlapEstimate::from_resemblance(0.0, 10, 20);
        assert_eq!(disjoint.intersection_size(), 0.0);
        assert_eq!(disjoint.containment_of_b(), 0.0);
        assert!((disjoint.union_size() - 30.0).abs() < 1e-9);

        let same = OverlapEstimate::from_resemblance(1.0, 50, 50);
        assert!((same.intersection_size() - 50.0).abs() < 1e-9);
        assert!((same.containment_of_b() - 1.0).abs() < 1e-9);
        assert!(same.is_identical(0.01));
        assert!(!disjoint.is_identical(0.01));
    }

    #[test]
    fn identical_requires_equal_sizes() {
        // Full resemblance but different advertised sizes is inconsistent
        // data; do not claim identity.
        let est = OverlapEstimate::from_resemblance(1.0, 50, 60);
        assert!(!est.is_identical(0.01));
    }

    #[test]
    fn resemblance_is_clamped() {
        let est = OverlapEstimate::from_resemblance(1.7, 10, 10);
        assert_eq!(est.resemblance(), 1.0);
        let est = OverlapEstimate::from_resemblance(-0.3, 10, 10);
        assert_eq!(est.resemblance(), 0.0);
    }

    #[test]
    fn empty_sets_do_not_divide_by_zero() {
        let est = OverlapEstimate::from_resemblance(0.5, 0, 0);
        assert_eq!(est.containment_of_b(), 0.0);
        assert_eq!(est.intersection_size(), 0.0);
        let est2 = OverlapEstimate::from_containment_of_b(0.5, 0, 0);
        assert_eq!(est2.resemblance(), 0.0);
    }

    #[test]
    fn asymmetric_sizes() {
        // |A| = 1000, |B| = 100, B ⊂ A: r = 100/1000 = 0.1.
        let est = OverlapEstimate::from_resemblance(0.1, 1000, 100);
        assert!((est.intersection_size() - 100.0).abs() < 1e-9);
        assert!((est.containment_of_b() - 1.0).abs() < 1e-9);
        assert!((est.useful_fraction_of_b() - 0.0).abs() < 1e-9);
    }
}
