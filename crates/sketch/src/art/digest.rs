//! The ART mechanism's plug into the workspace-wide summary API.
//!
//! [`ArtDigest`] pairs an [`ArtSummary`] with the protocol [`ArtParams`]
//! and implements the summary traits. Receiver side it encodes the
//! two Bloom filters plus geometry; sender side the decoded digest
//! rebuilds a reconciliation tree over the caller's keys and runs the
//! §5.3 difference search — O(d log n) probes when the difference is
//! small, the regime the mechanism is designed for.

use crate::bloom::digest::{decode_filter, encode_filter};
use crate::summary::codec::{FrameReader, FrameWriter, MAX_VEC};
use crate::summary::{Reconciler, SetSummary, SummaryError, SummaryId, SummarySizing, SummarySpec};

use crate::art::search::search_differences;
use crate::art::summary::{ArtSummary, SummaryParams};
use crate::art::tree::{ArtParams, ReconciliationTree};

/// A transmissible ART summary speaking the summary traits.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtDigest {
    summary: ArtSummary,
    params: ArtParams,
}

impl ArtDigest {
    /// Builds the digest of `keys` under `summary_params`, using the
    /// protocol-default tree parameters.
    #[must_use]
    pub fn build(keys: &[u64], summary_params: SummaryParams) -> Self {
        let tree = ReconciliationTree::from_keys(ArtParams::default(), keys.iter().copied());
        Self::from_summary(ArtSummary::build(&tree, summary_params))
    }

    /// Wraps an existing summary (protocol-default tree parameters).
    #[must_use]
    pub(crate) fn from_summary(summary: ArtSummary) -> Self {
        Self {
            summary,
            params: ArtParams::default(),
        }
    }

    /// Decodes a digest from its wire body.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let correction = u32::from(r.u16()?);
        let elements = r.u64()?;
        if elements > MAX_VEC {
            return Err(SummaryError::Malformed("art element count out of range"));
        }
        let leaf = decode_filter(&mut r)?;
        let internal = decode_filter(&mut r)?;
        r.finish()?;
        Ok(Self::from_summary(ArtSummary::from_parts(
            leaf,
            internal,
            correction,
            elements as usize,
        )))
    }
}

impl Reconciler for ArtDigest {
    fn id(&self) -> SummaryId {
        SummaryId::ART
    }

    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        let tree = ReconciliationTree::from_keys(self.params, local.iter().copied());
        let mut out = search_differences(&tree, &self.summary).missing_at_peer;
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl SetSummary for ArtDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u16(u16::try_from(self.summary.correction().min(u32::from(u16::MAX))).expect("bounded"));
        w.u64(self.summary.elements() as u64);
        encode_filter(&mut w, self.summary.leaf_filter());
        encode_filter(&mut w, self.summary.internal_filter());
        w.finish()
    }

    /// Probes the leaf filter with the key's node value. Exact when the
    /// key occupies its own leaf (w.h.p. in the 64-bit position space);
    /// a leaf shared through a position collision may answer `false` for
    /// a key the set does hold, which the difference search — the
    /// authoritative path — handles via the collapsed tree instead.
    fn probably_contains(&self, key: u64) -> bool {
        self.summary.matches_leaf(self.params.value(key))
    }
}

/// Per-digest fixed header bytes (correction, element count, and two
/// embedded filter headers).
const BODY_HEADER_BYTES: f64 = 68.0;

/// The ART mechanism's registry entry.
#[must_use]
pub(crate) fn spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::ART,
        label: "art",
        build: |sizing, _est, keys| Box::new(ArtDigest::build(keys, summary_params(sizing))),
        decode: |body| Ok(Box::new(ArtDigest::decode(body)?)),
        wire_cost: |sizing, est| {
            let bpe = sizing.art_leaf_bits_per_element + sizing.art_internal_bits_per_element;
            (bpe * est.summarized.max(1) as f64 / 8.0).ceil() + BODY_HEADER_BYTES
        },
        compute_cost: |sizing, est| {
            // §5.3's search cost: O(d log n) node visits, and the
            // correction level tolerates up to c consecutive matches
            // before pruning — up to 1 + c probed nodes per level of
            // each difference path.
            let log_n = (est.searched.max(2) as f64).log2();
            f64::from(1 + sizing.art_correction) * est.expected_new.max(1) as f64 * log_n
        },
        expected_recall: |_sizing, _est| {
            // The correction mechanism recovers most of the accuracy the
            // halved bit budget gives up; Figure 4 / Table 4(b) put the
            // standard configuration in this band.
            0.75
        },
    }
}

/// Maps the shared sizing knobs onto ART summary parameters.
#[must_use]
pub(crate) fn summary_params(sizing: &SummarySizing) -> SummaryParams {
    SummaryParams {
        leaf_bits_per_element: sizing.art_leaf_bits_per_element,
        internal_bits_per_element: sizing.art_internal_bits_per_element,
        correction: sizing.art_correction,
        ..SummaryParams::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn digest_roundtrips_and_searches() {
        let shared = keys(2000, 1);
        let digest = ArtDigest::build(&shared, SummaryParams::standard());
        let body = digest.encode_body();
        let back = ArtDigest::decode(&body).expect("decode");
        assert_eq!(back, digest);
        let fresh = keys(60, 2);
        let mut local = shared.clone();
        local.extend(fresh.iter().copied());
        let missing = back.missing_at_peer(&local);
        assert!(!missing.is_empty(), "small difference must be found");
        for id in &missing {
            assert!(fresh.contains(id), "one-sided error violated for {id}");
        }
        assert!(missing.windows(2).all(|w| w[0] < w[1]), "sorted output");
    }

    #[test]
    fn membership_probe_has_no_false_negatives_whp() {
        let a = keys(1000, 3);
        let digest = ArtDigest::build(&a, SummaryParams::standard());
        for &k in &a {
            assert!(digest.probably_contains(k));
        }
    }

    #[test]
    fn truncated_bodies_rejected() {
        let digest = ArtDigest::build(&keys(100, 4), SummaryParams::standard());
        let body = digest.encode_body();
        for cut in 0..body.len() {
            assert!(ArtDigest::decode(&body[..cut]).is_err(), "cut {cut}");
        }
    }
}
