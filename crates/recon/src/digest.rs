//! The exact mechanisms' plugs into the workspace-wide summary API.
//!
//! Three digests live here, one per §5.1 baseline implemented by this
//! crate: [`WholeSetDigest`] (ship every key), [`HashSetDigest`]
//! (truncated hashes), and [`CharPolyDigest`] (characteristic-polynomial
//! interpolation). Each implements `SetSummary`/`Reconciler`, so all
//! three run end-to-end through the real session state machines and the
//! experiment grid — not just the offline cost table.

use std::collections::HashSet;

use icd_summary::{
    FrameReader, FrameWriter, Reconciler, SetSummary, SummaryError, SummaryId, SummarySpec,
};

use crate::hashset::HashSetMessage;
use crate::poly::{key_to_field, reconcile, CharPolySketch, VERIFY_POINTS};
use crate::wholeset::WholeSetMessage;

// ---------------------------------------------------------------------------
// Whole set
// ---------------------------------------------------------------------------

/// The trivial exact baseline speaking the summary traits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WholeSetDigest {
    message: WholeSetMessage,
    keys: HashSet<u64>,
}

impl WholeSetDigest {
    /// Builds the digest of `keys`.
    #[must_use]
    pub(crate) fn build(keys: &[u64]) -> Self {
        let message = WholeSetMessage::build(keys);
        let keys = message.keys().iter().copied().collect();
        Self { message, keys }
    }

    /// Decodes a digest from its wire body.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let keys = r.u64s()?;
        r.finish()?;
        Ok(Self::build(&keys))
    }
}

impl Reconciler for WholeSetDigest {
    fn id(&self) -> SummaryId {
        SummaryId::WHOLE_SET
    }

    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        self.message.missing_at_sender(local)
    }

    fn is_exact(&self) -> bool {
        true
    }
}

impl SetSummary for WholeSetDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u64s(self.message.keys());
        w.finish()
    }

    fn probably_contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }
}

/// The whole-set registry entry.
#[must_use]
pub(crate) fn whole_set_spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::WHOLE_SET,
        label: "whole-set",
        build: |_sizing, _est, keys| Box::new(WholeSetDigest::build(keys)),
        decode: |body| Ok(Box::new(WholeSetDigest::decode(body)?)),
        wire_cost: |_sizing, est| 8.0 * est.summarized as f64 + 4.0,
        compute_cost: |_sizing, est| est.searched as f64,
        expected_recall: |_sizing, _est| 1.0,
    }
}

// ---------------------------------------------------------------------------
// Truncated hash set
// ---------------------------------------------------------------------------

/// The §5.1 truncated-hash baseline speaking the summary traits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HashSetDigest {
    message: HashSetMessage,
}

impl HashSetDigest {
    /// Builds the digest of `keys` at `bits`-wide hashes.
    #[must_use]
    pub(crate) fn build(keys: &[u64], bits: u32) -> Self {
        Self {
            message: HashSetMessage::build(keys, bits),
        }
    }

    /// Decodes a digest from its wire body. Hashes are packed at
    /// `⌈bits/8⌉` bytes each.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let bits = u32::from(r.u8()?);
        if !(1..=64).contains(&bits) {
            return Err(SummaryError::Malformed("hash width out of range"));
        }
        let count = r.checked_len()?;
        let width = bits.div_ceil(8) as usize;
        // Take the whole packed block against the real buffer length
        // before allocating anything sized by the claimed count.
        let raw = r.raw(
            count
                .checked_mul(width)
                .ok_or(SummaryError::Malformed("hash count overflow"))?,
        )?;
        let hashes: Vec<u64> = raw
            .chunks_exact(width)
            .map(|chunk| {
                let mut buf = [0u8; 8];
                buf[..width].copy_from_slice(chunk);
                u64::from_le_bytes(buf)
            })
            .collect();
        r.finish()?;
        let message = HashSetMessage::from_parts(hashes, bits)
            .ok_or(SummaryError::Malformed("hash exceeds declared width"))?;
        Ok(Self { message })
    }
}

impl Reconciler for HashSetDigest {
    fn id(&self) -> SummaryId {
        SummaryId::HASH_SET
    }

    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        self.message.missing_at_sender(local)
    }
}

impl SetSummary for HashSetDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u8(u8::try_from(self.message.bits()).expect("bits <= 64"));
        let hashes = self.message.hashes_sorted();
        w.u32(u32::try_from(hashes.len()).expect("hash count fits u32"));
        let width = self.message.bits().div_ceil(8) as usize;
        for h in hashes {
            for &b in &h.to_le_bytes()[..width] {
                w.u8(b);
            }
        }
        w.finish()
    }

    fn probably_contains(&self, key: u64) -> bool {
        // A collision answers "contained" — the safe, one-sided error.
        self.message.contains_hash_of(key)
    }
}

/// The hash-set registry entry.
#[must_use]
pub(crate) fn hash_set_spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::HASH_SET,
        label: "hash-set",
        build: |sizing, _est, keys| Box::new(HashSetDigest::build(keys, sizing.hash_bits)),
        decode: |body| Ok(Box::new(HashSetDigest::decode(body)?)),
        wire_cost: |sizing, est| {
            f64::from(sizing.hash_bits.div_ceil(8)) * est.summarized as f64 + 5.0
        },
        compute_cost: |_sizing, est| est.searched as f64,
        expected_recall: |sizing, est| {
            // P(a foreign key's hash misses every occupied slot).
            (1.0 - est.summarized as f64 / f64::from(sizing.hash_bits).exp2()).max(0.0)
        },
    }
}

// ---------------------------------------------------------------------------
// Characteristic polynomial
// ---------------------------------------------------------------------------

/// The Minsky–Trachtenberg sketch speaking the summary traits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CharPolyDigest {
    sketch: CharPolySketch,
}

/// Decoder-side cap on the sketch bound. Reconciliation costs Θ(m̄³)
/// compute and Θ(m̄²) memory, so a peer-declared bound is an attack
/// surface: frames beyond the build-side default
/// (`SummarySizing::poly_max_bound`, 4096) are rejected at decode
/// instead of detonating inside `missing_at_peer`. This bounds — it
/// does not eliminate — the work one hostile frame can force; a
/// deployment facing untrusted peers at scale registers a custom spec
/// with a decoder capped at its own `poly_max_bound`.
pub(crate) const MAX_DECODE_BOUND: usize = 4096;

impl CharPolyDigest {
    /// Builds the digest of `keys` for discrepancy bound `bound`.
    #[must_use]
    pub(crate) fn build(keys: &[u64], bound: usize) -> Self {
        Self {
            sketch: CharPolySketch::build(keys, bound),
        }
    }

    /// Decodes a digest from its wire body.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let bound = r.u32()? as usize;
        if bound > MAX_DECODE_BOUND {
            return Err(SummaryError::Malformed("char-poly bound exceeds decoder limit"));
        }
        let set_size = r.u64()?;
        let evals = r.u64s()?;
        r.finish()?;
        let sketch = CharPolySketch::from_parts(evals, bound, set_size)
            .ok_or(SummaryError::Malformed("char-poly evaluation count mismatch"))?;
        Ok(Self { sketch })
    }
}

impl Reconciler for CharPolyDigest {
    fn id(&self) -> SummaryId {
        SummaryId::CHAR_POLY
    }

    /// Runs the rational interpolation. Exact when the true discrepancy
    /// fits the sketch bound; a detected bound failure yields the empty
    /// diff (the mechanism contributes nothing rather than something
    /// wrong — §5.1's "prohibitive except when d is known").
    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        match reconcile(&self.sketch, local) {
            Ok(diff) => {
                let images: HashSet<u64> = diff.b_minus_a.into_iter().collect();
                let mut out: Vec<u64> = local
                    .iter()
                    .copied()
                    .filter(|&k| images.contains(&key_to_field(k)))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            Err(_) => Vec::new(),
        }
    }

    fn is_exact(&self) -> bool {
        true
    }
}

impl SetSummary for CharPolyDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u32(u32::try_from(self.sketch.bound()).expect("bound fits u32"));
        w.u64(self.sketch.set_size());
        w.u64s(self.sketch.evals());
        w.finish()
    }

    /// Per-key membership is not answerable from polynomial evaluations;
    /// the conservative answer never wrongly reports an absence.
    fn probably_contains(&self, _key: u64) -> bool {
        true
    }

    /// Estimated difference via a full reconciliation against `keys`.
    fn estimated_difference(&self, keys: &[u64]) -> usize {
        self.missing_at_peer(keys).len()
    }
}

/// The characteristic-polynomial registry entry.
#[must_use]
pub(crate) fn char_poly_spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::CHAR_POLY,
        label: "char-poly",
        build: |sizing, est, keys| {
            Box::new(CharPolyDigest::build(keys, sizing.poly_bound(est.expected_delta)))
        },
        decode: |body| Ok(Box::new(CharPolyDigest::decode(body)?)),
        wire_cost: |sizing, est| {
            8.0 * (sizing.poly_bound(est.expected_delta) + VERIFY_POINTS) as f64 + 16.0
        },
        compute_cost: |sizing, est| {
            // Θ(m̄·(|A|+|B|)) evaluation work plus the Θ(m̄³) solve —
            // the costs §5.1 calls prohibitive when d is large.
            let bound = sizing.poly_bound(est.expected_delta) as f64;
            bound * (est.summarized + est.searched) as f64 + bound.powi(3)
        },
        expected_recall: |sizing, est| {
            // Exact when the margin covers the true discrepancy; the
            // haircut prices the sketch-noise risk of undershooting.
            // When `poly_max_bound` caps the sketch below the estimated
            // difference the reconciliation is guaranteed to fail
            // (detectably, yielding nothing) — advertise that honestly
            // so policy never selects a mechanism that cannot deliver.
            if sizing.poly_bound(est.expected_delta) < est.expected_delta {
                0.0
            } else {
                0.98
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_summary::{DiffEstimate, SummarySizing};
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn planted(shared: usize, fresh: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let a = keys(shared, seed);
        let extra = keys(fresh, seed ^ 0xFF);
        let mut b = a.clone();
        b.extend(extra.iter().copied());
        (a, b, extra)
    }

    #[test]
    fn whole_set_digest_is_exact() {
        let (a, b, extra) = planted(500, 40, 1);
        let digest = WholeSetDigest::build(&a);
        let back = WholeSetDigest::decode(&digest.encode_body()).expect("decode");
        let mut want = extra.clone();
        want.sort_unstable();
        assert_eq!(back.missing_at_peer(&b), want);
        assert!(back.is_exact());
        assert!(digest.probably_contains(a[0]));
        assert!(!digest.probably_contains(extra[0]));
    }

    #[test]
    fn hash_set_digest_roundtrips_packed() {
        let (a, b, extra) = planted(2000, 100, 2);
        for bits in [8u32, 12, 16, 24, 64] {
            let digest = HashSetDigest::build(&a, bits);
            let body = digest.encode_body();
            let back = HashSetDigest::decode(&body).expect("decode");
            assert_eq!(back.missing_at_peer(&b), digest.missing_at_peer(&b));
            // One-sided: reported ⊆ planted difference.
            for id in back.missing_at_peer(&b) {
                assert!(extra.contains(&id));
            }
            // Packing claim: ⌈bits/8⌉ bytes per distinct hash + header.
            assert_eq!(
                body.len(),
                5 + digest.message.hashes_sorted().len() * bits.div_ceil(8) as usize
            );
        }
    }

    #[test]
    fn hash_set_decode_rejects_garbage() {
        assert!(HashSetDigest::decode(&[0]).is_err(), "width 0");
        assert!(HashSetDigest::decode(&[65, 0, 0, 0, 0]).is_err(), "width 65");
        let digest = HashSetDigest::build(&keys(10, 3), 16);
        let body = digest.encode_body();
        for cut in 0..body.len() {
            assert!(HashSetDigest::decode(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn char_poly_digest_recovers_exact_difference() {
        let (a, b, extra) = planted(400, 30, 4);
        let digest = CharPolyDigest::build(&a, 64);
        let back = CharPolyDigest::decode(&digest.encode_body()).expect("decode");
        let mut want = extra.clone();
        want.sort_unstable();
        assert_eq!(back.missing_at_peer(&b), want);
        assert_eq!(back.estimated_difference(&b), extra.len());
        assert!(back.probably_contains(12345), "conservative membership");
    }

    #[test]
    fn char_poly_bound_failure_yields_empty_not_wrong() {
        let (a, b, _) = planted(400, 100, 5);
        let digest = CharPolyDigest::build(&a, 16); // d = 100 > 16
        assert!(digest.missing_at_peer(&b).is_empty());
    }

    #[test]
    fn char_poly_decode_caps_peer_declared_bound() {
        // A frame declaring a huge bound must be rejected at decode —
        // the Θ(m̄³) solve it would trigger is the attack, not the body
        // size. (Hand-crafted: the codec length checks alone pass.)
        let claimed = (MAX_DECODE_BOUND + 1) as u32;
        let mut w = icd_summary::FrameWriter::new();
        w.u32(claimed);
        w.u64(1000);
        w.u64s(&vec![1u64; MAX_DECODE_BOUND + 1 + crate::poly::VERIFY_POINTS]);
        assert!(matches!(
            CharPolyDigest::decode(&w.finish()),
            Err(SummaryError::Malformed(_))
        ));
        // At the cap itself, decode still works.
        let digest = CharPolyDigest::build(&keys(50, 6), 32);
        assert!(CharPolyDigest::decode(&digest.encode_body()).is_ok());
    }

    #[test]
    fn hash_set_decode_checks_length_before_allocating() {
        // Body claiming ~16.7M hashes with no bytes behind it: must fail
        // on the length check, not allocate by the claimed count.
        let body = [16u8, 0xFF, 0xFF, 0xFF, 0x00];
        assert!(matches!(
            HashSetDigest::decode(&body),
            Err(SummaryError::Malformed(_))
        ));
    }

    #[test]
    fn advertised_costs_are_finite_and_ordered() {
        let sizing = SummarySizing::default();
        let est = DiffEstimate::new(5000, 5100, 100);
        let poly = (char_poly_spec().wire_cost)(&sizing, &est);
        let hash = (hash_set_spec().wire_cost)(&sizing, &est);
        let whole = (whole_set_spec().wire_cost)(&sizing, &est);
        // §5.1's ordering: poly ≪ hash < whole for a small difference.
        assert!(poly < hash, "poly {poly} vs hash {hash}");
        assert!(hash < whole, "hash {hash} vs whole {whole}");
    }
}
