//! The one copy of handshake parameterization shared by every simulated
//! connection.
//!
//! Before the [`crate::net`] engine existed, each transfer loop (and a
//! couple of bench harnesses) carried its own copy of the digest sizing
//! and the receiver-side difference estimate. They are protocol
//! constants, not per-loop choices, so they live here once: the §5
//! reference sizing, the §4 protocol-wide permutation family, and the
//! inclusion–exclusion estimate a receiver derives for a candidate
//! sender at connection setup.

use icd_sketch::PermutationFamily;
use icd_summary::{DiffEstimate, SummarySizing};

/// Bloom-filter sizing used by the summary strategies in all experiments
/// (§5.2's 8-bits-per-element reference point).
pub(crate) const FILTER_BITS_PER_ELEMENT: f64 = 8.0;

/// The digest sizing every simulated transfer uses (the §5 reference
/// points, `FILTER_BITS_PER_ELEMENT` for Bloom). The char-poly bound
/// is capped low: §6.3's two-peer geometries put roughly half the
/// system in the difference, which is exactly the regime §5.1 calls
/// prohibitive for the polynomial method — a capped sketch fails fast
/// (and the sweep reports the stall) instead of stalling the simulator
/// in a Θ(m̄³) solve.
#[must_use]
pub fn standard_sizing() -> SummarySizing {
    SummarySizing {
        bloom_bits_per_element: FILTER_BITS_PER_ELEMENT,
        poly_max_bound: 512,
        ..SummarySizing::default()
    }
}

/// The receiver-side estimate a simulated handshake parameterizes its
/// digest with: its own inventory, the peer's inventory size, and the
/// expectation that the peer supplies everything still needed. The
/// symmetric difference (what exact mechanisms must bound) follows from
/// inclusion–exclusion inside [`DiffEstimate::new`].
#[must_use]
pub fn handshake_estimate(
    receiver_set_len: usize,
    peer_set_len: usize,
    needed: usize,
) -> DiffEstimate {
    DiffEstimate::new(receiver_set_len, peer_set_len, needed)
}

/// The protocol-wide min-wise permutation family every simulated
/// transfer shares (§4: "fixed universally off-line").
#[must_use]
pub(crate) fn standard_family() -> PermutationFamily {
    PermutationFamily::standard(0x1CD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sizing_is_the_section5_reference() {
        let sizing = standard_sizing();
        assert_eq!(sizing.bloom_bits_per_element, FILTER_BITS_PER_ELEMENT);
        assert_eq!(sizing.poly_max_bound, 512);
    }

    #[test]
    fn estimate_matches_inclusion_exclusion() {
        // Receiver 100, peer 120, needs 30 → |A∖B| = 10, Δ = 40.
        let est = handshake_estimate(100, 120, 30);
        assert_eq!(est.summarized, 100);
        assert_eq!(est.searched, 120);
        assert_eq!(est.expected_new, 30);
        assert_eq!(est.expected_delta, 40);
    }

    #[test]
    fn family_is_stable() {
        assert_eq!(standard_family().seed(), 0x1CD);
        assert_eq!(standard_family(), standard_family());
    }
}
