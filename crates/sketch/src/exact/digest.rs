//! The exact mechanisms' plugs into the workspace-wide summary API.
//!
//! Three digests live here, one per exact mechanism of this module: [`WholeSetDigest`] (ship every key), [`HashSetDigest`]
//! (truncated hashes), and [`RibltDigest`] (a rateless-IBLT prefix).
//! Each implements `SetSummary`/`Reconciler`, so all three run end to
//! end through the real session state machines and the experiment grid —
//! not just the offline cost table.

use std::collections::HashSet;

use crate::exact::hashset::HashSetMessage;
use crate::exact::riblt::{cells_per_key, prefix, prefix_len, Cell, Peeler, CELL_BYTES};
use crate::exact::wholeset::WholeSetMessage;
use crate::summary::codec::{FrameReader, FrameWriter};
use crate::summary::{Reconciler, SetSummary, SummaryError, SummaryId, SummarySpec};

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
        // Probe the set this digest already holds rather than hashing
        // the whole summarized set again per call.
        let mut out: Vec<u64> = local
            .iter()
            .copied()
            .filter(|k| !self.keys.contains(k))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
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
// Rateless IBLT
// ---------------------------------------------------------------------------

/// A prefix of the rateless IBLT cell stream speaking the summary traits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RibltDigest {
    cells: Vec<Cell>,
}

impl RibltDigest {
    /// Builds the first `m` cells of `keys`' stream.
    #[must_use]
    pub(crate) fn build(keys: &[u64], m: usize) -> Self {
        Self {
            cells: prefix(keys, m),
        }
    }

    /// Decodes a digest from its wire body: a cell count, then the cells.
    /// The count is checked against the body before anything is sized by it.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, SummaryError> {
        let mut r = FrameReader::new(body);
        let m = r.checked_len()?;
        let raw = r.raw(
            m.checked_mul(CELL_BYTES)
                .ok_or(SummaryError::Malformed("cell count overflow"))?,
        )?;
        r.finish()?;
        let mut cells = FrameReader::new(raw);
        let cells = (0..m)
            .map(|_| Cell::read(&mut cells))
            .collect::<Result<_, _>>()?;
        Ok(Self { cells })
    }
}

impl Reconciler for RibltDigest {
    fn id(&self) -> SummaryId {
        SummaryId::RIBLT
    }

    /// Peels the difference against `local`. Exact when the prefix
    /// peels; a prefix too short for the true difference yields the
    /// empty diff (the mechanism contributes nothing rather than
    /// something wrong).
    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
        let mut peeler = Peeler::new(local);
        for cell in &self.cells {
            peeler.push(cell);
        }
        peeler.missing_at_peer()
    }
}

impl SetSummary for RibltDigest {
    fn encode_body(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u32(u32::try_from(self.cells.len()).unwrap_or(u32::MAX));
        for cell in &self.cells {
            cell.write(&mut w);
        }
        w.finish()
    }

    /// Per-key membership is not answerable from coded cells; the
    /// conservative answer never wrongly reports an absence.
    fn probably_contains(&self, _key: u64) -> bool {
        true
    }

    /// Estimated difference via a full reconciliation against `keys`.
    fn estimated_difference(&self, keys: &[u64]) -> usize {
        self.missing_at_peer(keys).len()
    }
}

/// The rateless-IBLT registry entry.
#[must_use]
pub(crate) fn riblt_spec() -> SummarySpec {
    SummarySpec {
        id: SummaryId::RIBLT,
        label: "riblt",
        build: |_sizing, est, keys| {
            Box::new(RibltDigest::build(keys, prefix_len(est.expected_delta)))
        },
        decode: |body| Ok(Box::new(RibltDigest::decode(body)?)),
        wire_cost: |_sizing, est| (CELL_BYTES * prefix_len(est.expected_delta) + 4) as f64,
        compute_cost: |_sizing, est| {
            // Both sides code their set into the prefix, then one pass
            // of peeling over it.
            let m = prefix_len(est.expected_delta);
            (est.summarized + est.searched) as f64 * cells_per_key(m) + m as f64
        },
        // The prefix peels ≥ 98 % of the time while the true difference
        // stays within twice the estimate (`tests/riblt_threshold.rs`).
        expected_recall: |_sizing, _est| 0.98,
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
        // Unsorted, repeated local keys: still sorted and de-duplicated,
        // the same answer as the message's own difference.
        let mut local: Vec<u64> = b.iter().rev().chain(&extra).copied().collect();
        local.push(extra[0]);
        assert_eq!(back.missing_at_peer(&local), want);
        assert_eq!(back.message.missing_at_sender(&local), want);
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
        assert!(
            HashSetDigest::decode(&[65, 0, 0, 0, 0]).is_err(),
            "width 65"
        );
        let digest = HashSetDigest::build(&keys(10, 3), 16);
        let body = digest.encode_body();
        for cut in 0..body.len() {
            assert!(HashSetDigest::decode(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn riblt_digest_recovers_exact_difference() {
        let (a, b, extra) = planted(400, 30, 4);
        let digest = RibltDigest::build(&a, prefix_len(30));
        let back = RibltDigest::decode(&digest.encode_body()).expect("decode");
        assert_eq!(back, digest);
        let mut want = extra.clone();
        want.sort_unstable();
        assert_eq!(back.missing_at_peer(&b), want);
        assert_eq!(back.estimated_difference(&b), extra.len());
        assert!(back.probably_contains(12345), "conservative membership");
    }

    #[test]
    fn riblt_short_prefix_yields_empty_not_wrong() {
        let (a, b, _) = planted(400, 100, 5);
        let digest = RibltDigest::build(&a, 16); // d = 100 ≫ 16 cells
        assert!(digest.missing_at_peer(&b).is_empty());
    }

    #[test]
    fn riblt_decode_checks_cell_count_against_the_body() {
        // A body declaring ~16.7M cells with one cell behind it must fail
        // on the length check, not allocate by the declared count.
        let mut w = FrameWriter::new();
        w.u32(0x00FF_FFFF);
        Cell::default().write(&mut w);
        assert!(matches!(
            RibltDigest::decode(&w.finish()),
            Err(SummaryError::Malformed(_))
        ));
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
        let riblt = (riblt_spec().wire_cost)(&sizing, &est);
        let hash = (hash_set_spec().wire_cost)(&sizing, &est);
        let whole = (whole_set_spec().wire_cost)(&sizing, &est);
        // §5.1's ordering: O(d) sketch ≪ hash < whole for a small difference.
        assert!(riblt < hash, "riblt {riblt} vs hash {hash}");
        assert!(hash < whole, "hash {hash} vs whole {whole}");
    }
}
