//! A peer's working set: symbols plus the one summary kept live.
//!
//! §4 requires that "all of our approaches can be incrementally updated
//! upon acquisition of new content, with constant overhead per receipt
//! of each new element". The min-wise sketch — the calling card every
//! exchange opens with — is the one summary that is read on every
//! session, so [`WorkingSet::insert`] updates it (O(width) field ops) on
//! every arrival. Bloom filters and ART digests are built *for a
//! particular peer exchange*, sized from that exchange's difference
//! estimate, so they are generated on demand from [`WorkingSet::sorted_ids`]
//! through the summary registry and nothing is maintained for them per
//! insert.
//!
//! Payloads are [`Bytes`]: a working set shares each one by reference
//! count with the frames and buffers it came from, never copies it.

use bytes::Bytes;
use icd_fountain::{EncodedSymbol, SymbolId};
use icd_sketch::{MinwiseSketch, OverlapEstimate, PermutationFamily};
use std::collections::HashMap;

/// The protocol-wide permutation-family seed (all peers must agree).
pub const FAMILY_SEED: u64 = 0x1CD0_F00D;

/// A peer's inventory of encoded symbols with live summaries.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    symbols: HashMap<SymbolId, Bytes>,
    sketch: MinwiseSketch,
    family: PermutationFamily,
}

impl Default for WorkingSet {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkingSet {
    /// Creates an empty working set with the standard (1 KB) sketch.
    #[must_use]
    pub fn new() -> Self {
        let family = PermutationFamily::standard(FAMILY_SEED);
        Self {
            sketch: MinwiseSketch::new(&family),
            symbols: HashMap::new(),
            family,
        }
    }

    /// Builds a working set from symbols.
    #[must_use]
    pub fn from_symbols<I: IntoIterator<Item = EncodedSymbol>>(symbols: I) -> Self {
        let mut ws = Self::new();
        for s in symbols {
            ws.insert(s);
        }
        ws
    }

    /// Inserts a symbol; returns `false` (and changes nothing) if the id
    /// was already present. The sketch updates incrementally.
    pub fn insert(&mut self, symbol: EncodedSymbol) -> bool {
        if self.symbols.contains_key(&symbol.id) {
            return false;
        }
        self.sketch.insert(&self.family, symbol.id);
        self.symbols.insert(symbol.id, symbol.payload);
        true
    }

    /// Number of symbols held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if no symbols are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Payload of symbol `id`, if held.
    #[must_use]
    pub fn payload(&self, id: SymbolId) -> Option<&Bytes> {
        self.symbols.get(&id)
    }

    /// All symbol ids (unordered).
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbols.keys().copied()
    }

    /// All symbol ids, sorted ascending. Summary construction and
    /// reconciliation consume this form so their outputs never depend on
    /// hash-map iteration order.
    #[must_use]
    pub fn sorted_ids(&self) -> Vec<SymbolId> {
        let mut ids: Vec<SymbolId> = self.symbols.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Builds the digest of the current ids under any registered
    /// mechanism — the one summary-construction path (the
    /// [`crate::ReceiverMachine`] uses the registry equivalently).
    pub fn build_summary(
        &self,
        id: crate::summary::SummaryId,
        sizing: &crate::summary::SummarySizing,
        estimate: &crate::summary::DiffEstimate,
        registry: &crate::summary::SummaryRegistry,
    ) -> Result<Box<dyn crate::summary::SetSummary>, crate::summary::SummaryError> {
        registry.build(id, sizing, estimate, &self.sorted_ids())
    }

    /// Materializes the symbols (unordered).
    pub fn symbols(&self) -> impl Iterator<Item = EncodedSymbol> + '_ {
        self.symbols.iter().map(|(&id, payload)| EncodedSymbol {
            id,
            payload: payload.clone(),
        })
    }

    /// The live min-wise sketch (the §4 calling card).
    #[must_use]
    pub fn sketch(&self) -> &MinwiseSketch {
        &self.sketch
    }

    /// Estimates overlap with a peer from its sketch (`self` = A,
    /// `peer` = B).
    #[must_use]
    pub fn estimate_against(&self, peer_sketch: &MinwiseSketch) -> OverlapEstimate {
        self.sketch.estimate(peer_sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn sym(id: SymbolId) -> EncodedSymbol {
        EncodedSymbol {
            id,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
        }
    }

    fn filled(range: std::ops::Range<u64>, seed: u64) -> WorkingSet {
        let mut rng = Xoshiro256StarStar::new(seed);
        WorkingSet::from_symbols(range.map(|_| sym(rng.next_u64())))
    }

    #[test]
    fn insert_and_query() {
        let mut ws = WorkingSet::new();
        assert!(ws.is_empty());
        assert!(ws.insert(sym(7)));
        assert!(!ws.insert(sym(7)), "duplicate rejected");
        assert_eq!(ws.len(), 1);
        assert!(ws.payload(7).is_some());
        assert_eq!(
            ws.payload(7).expect("present").as_ref(),
            &7u64.to_le_bytes()
        );
    }

    #[test]
    fn sketch_tracks_contents_incrementally() {
        let mut a = WorkingSet::new();
        let mut rng = Xoshiro256StarStar::new(1);
        let ids: Vec<u64> = (0..300).map(|_| rng.next_u64()).collect();
        for &id in &ids {
            a.insert(sym(id));
        }
        let b = WorkingSet::from_symbols(ids.iter().map(|&id| sym(id)));
        // Same contents → identical sketches and identical ids.
        assert_eq!(a.sketch().minima(), b.sketch().minima());
        assert_eq!(a.sorted_ids(), b.sorted_ids());
        let est = a.estimate_against(b.sketch());
        assert_eq!(est.resemblance(), 1.0);
        assert!(est.is_identical(0.01), "admission control should reject");
    }

    #[test]
    fn estimate_tracks_partial_overlap() {
        let mut rng = Xoshiro256StarStar::new(2);
        let shared: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        let mut a = WorkingSet::from_symbols(shared.iter().map(|&id| sym(id)));
        let mut b = WorkingSet::from_symbols(shared.iter().map(|&id| sym(id)));
        for _ in 0..500 {
            a.insert(sym(rng.next_u64()));
            b.insert(sym(rng.next_u64()));
        }
        let est = a.estimate_against(b.sketch());
        // True resemblance = 500/1500.
        assert!(
            (est.resemblance() - 1.0 / 3.0).abs() < 0.1,
            "r = {}",
            est.resemblance()
        );
        assert!(!est.is_identical(0.01));
    }

    #[test]
    fn built_summaries_cover_contents() {
        use crate::summary::{standard_registry, DiffEstimate, SummarySizing};
        let ws = filled(0..1000, 3);
        let registry = standard_registry();
        let est = DiffEstimate::new(ws.len(), ws.len(), 10);
        for id in registry.ids() {
            let digest = ws
                .build_summary(id, &SummarySizing::default(), &est, registry)
                .expect("registered mechanism");
            // No mechanism may deny its own contents (one-sided error).
            for key in ws.ids() {
                assert!(digest.probably_contains(key), "{id} denied own key");
            }
        }
    }

    #[test]
    fn art_reconciliation_between_working_sets() {
        use crate::summary::{standard_registry, DiffEstimate, SummaryId, SummarySizing};
        let mut rng = Xoshiro256StarStar::new(4);
        let shared: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let a = WorkingSet::from_symbols(shared.iter().map(|&id| sym(id)));
        let mut b = WorkingSet::from_symbols(shared.iter().map(|&id| sym(id)));
        let fresh: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        for &id in &fresh {
            b.insert(sym(id));
        }
        let registry = standard_registry();
        let est = DiffEstimate::new(a.len(), b.len(), fresh.len());
        let summary = a
            .build_summary(SummaryId::ART, &SummarySizing::default(), &est, registry)
            .expect("art registered");
        let found = summary.missing_at_peer(&b.sorted_ids());
        assert!(!found.is_empty());
        // One-sided error: everything found is genuinely missing at A.
        for id in &found {
            assert!(a.payload(*id).is_none());
            assert!(fresh.contains(id));
        }
    }

    #[test]
    fn symbols_roundtrip() {
        let ws = filled(0..50, 5);
        let collected: Vec<EncodedSymbol> = ws.symbols().collect();
        assert_eq!(collected.len(), 50);
        let rebuilt = WorkingSet::from_symbols(collected);
        assert_eq!(rebuilt.sorted_ids(), ws.sorted_ids());
        assert_eq!(rebuilt.sketch().minima(), ws.sketch().minima());
    }
}
