//! The one copy of handshake parameterization shared by every simulated
//! connection.
//!
//! Before the [`crate::net`] engine existed, each transfer loop (and a
//! couple of bench harnesses) carried its own copy of the permutation
//! family and the receiver-side difference estimate. They are protocol
//! constants, not per-loop choices, so they live here once: the §4
//! protocol-wide permutation family and the inclusion–exclusion estimate
//! a receiver derives for a candidate sender at connection setup. Digest
//! sizing is `SummarySizing::default()`, the §5 reference points.

use icd_sketch::{DiffEstimate, PermutationFamily};

/// The receiver-side estimate a simulated handshake parameterizes its
/// digest with: its own inventory, the peer's inventory size, and the
/// expectation that the peer supplies everything still needed. The
/// symmetric difference (what exact mechanisms size by) follows from
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
