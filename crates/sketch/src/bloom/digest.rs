//! The Bloom mechanism's plug into the workspace-wide summary API.
//!
//! [`BloomDigest`] wraps a [`BloomFilter`] built over a working set's
//! symbol ids and implements the summary traits: receiver side it
//! encodes to a self-describing body, sender side the decoded filter
//! yields every local id the filter rejects (§5.2's reconciled
//! transfer). The body codec here is also the canonical filter layout
//! that composite mechanisms (the ART summary) embed.

use super::{math, BloomFilter};
use crate::summary::codec::{FrameReader, FrameWriter, MAX_VEC};
use crate::summary::{Reconciler, SetSummary, SummaryError, SummaryId, SummarySpec};

/// Protocol-wide seed for working-set Bloom digests (all peers agree).
pub(crate) const DIGEST_SEED: u64 = 0x00F1_17E5;

/// A working-set Bloom filter speaking the summary traits.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomDigest {
    filter: BloomFilter,
}

impl BloomDigest {
    /// Builds the digest of `keys` at `bits_per_element`.
    #[must_use]
    pub(crate) fn build(keys: &[u64], bits_per_element: f64) -> Self {
        let mut filter =
            BloomFilter::with_bits_per_element(keys.len().max(1), bits_per_element, DIGEST_SEED);
        for &k in keys {
            filter.insert(k);
        }
        Self { filter }
    }

    /// Wraps an existing filter (e.g. one sized by hand).
    #[must_use]
    pub fn from_filter(filter: BloomFilter) -> Self {
        Self { filter }
    }

    /// The underlying filter.
    #[must_use]
    pub fn filter(&self) -> &BloomFilter {
        &self.filter
    }

    /// Decodes a digest from its wire body.
    pub fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let filter = decode_filter(&mut r)?;
        r.finish()?;
        Ok(Self { filter })
    }
}

/// Encodes a filter in the canonical body layout (geometry + bits).
pub(crate) fn encode_filter(w: &mut FrameWriter, f: &BloomFilter) {
    w.u64(f.num_bits() as u64);
    w.u8(u8::try_from(f.num_hashes().min(255)).expect("k fits u8"));
    w.u64(f.seed());
    w.u64(f.items());
    w.bytes(&f.to_bytes());
}

/// Decodes a filter from the canonical body layout.
pub(crate) fn decode_filter(r: &mut FrameReader<'_>) -> Result<BloomFilter, SummaryError> {
    let m = r.u64()?;
    if m == 0 || m > MAX_VEC * 8 {
        return Err(SummaryError::Malformed(
            "bloom filter bit count out of range",
        ));
    }
    let k = u32::from(r.u8()?);
    if k == 0 {
        return Err(SummaryError::Malformed(
            "bloom filter needs at least one hash",
        ));
    }
    let seed = r.u64()?;
    let items = r.u64()?;
    let body = r.bytes()?;
    BloomFilter::from_bytes(&body, m as usize, k, seed, items)
        .ok_or(SummaryError::Malformed("bloom filter body too short"))
}

impl Reconciler for BloomDigest {
    fn id(&self) -> SummaryId {
        SummaryId::BLOOM
    }

    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        let mut out: Vec<u64> = local
            .iter()
            .copied()
            .filter(|&k| !self.filter.contains(k))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl SetSummary for BloomDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        encode_filter(&mut w, &self.filter);
        w.finish()
    }

    fn probably_contains(&self, key: u64) -> bool {
        self.filter.contains(key)
    }
}

/// Fixed per-body header bytes (geometry fields + two length prefixes).
const BODY_HEADER_BYTES: f64 = 29.0;

/// The Bloom mechanism's registry entry.
#[must_use]
pub(crate) fn spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::BLOOM,
        label: "bloom",
        build: |sizing, _est, keys| {
            Box::new(BloomDigest::build(keys, sizing.bloom_bits_per_element))
        },
        decode: |body| Ok(Box::new(BloomDigest::decode(body)?)),
        wire_cost: |sizing, est| {
            (sizing.bloom_bits_per_element * est.summarized.max(1) as f64 / 8.0).ceil()
                + BODY_HEADER_BYTES
        },
        compute_cost: |sizing, est| {
            // k hash probes per searched element (§5.2's O(n) scan).
            let k = f64::from(math::optimal_hashes(sizing.bloom_bits_per_element));
            k * est.searched as f64
        },
        expected_recall: |sizing, est| {
            let k = math::optimal_hashes(sizing.bloom_bits_per_element);
            let m = (sizing.bloom_bits_per_element * est.summarized.max(1) as f64).ceil() as usize;
            1.0 - math::false_positive_rate(m, est.summarized as u64, k)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{DiffEstimate, SummarySizing};
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn digest_roundtrips_and_filters() {
        let a = keys(2000, 1);
        let digest = BloomDigest::build(&a, 8.0);
        for &k in &a {
            assert!(digest.probably_contains(k), "no false negatives");
        }
        let body = digest.encode_body();
        let back = BloomDigest::decode(&body).expect("decode");
        assert_eq!(back, digest);
        let b = keys(500, 2);
        let missing = back.missing_at_peer(&b);
        // One-sided: everything reported is genuinely foreign.
        for id in &missing {
            assert!(!a.contains(id));
        }
        assert!(
            missing.len() > 450,
            "most foreign keys pass: {}",
            missing.len()
        );
        assert!(missing.windows(2).all(|w| w[0] < w[1]), "sorted output");
    }

    #[test]
    fn advertised_wire_cost_tracks_reality() {
        let a = keys(3000, 3);
        let digest = BloomDigest::build(&a, 8.0);
        let est = DiffEstimate::new(a.len(), a.len(), 100);
        let advertised = (spec().wire_cost)(&SummarySizing::default(), &est);
        let actual = digest.wire_bytes() as f64;
        assert!(
            (advertised - actual).abs() / actual < 0.05,
            "advertised {advertised} vs actual {actual}"
        );
    }

    #[test]
    fn malformed_bodies_rejected() {
        let digest = BloomDigest::build(&keys(50, 4), 8.0);
        let body = digest.encode_body();
        for cut in 0..body.len() {
            assert!(BloomDigest::decode(&body[..cut]).is_err(), "cut {cut}");
        }
        let mut zero_k = body.clone();
        zero_k[8] = 0; // k byte follows the 8-byte bit count
        assert!(BloomDigest::decode(&zero_k).is_err());
    }
}
