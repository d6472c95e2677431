//! Bloom-filter summaries of reconciliation trees.
//!
//! "To avoid some bulkiness in sending an explicit representation of the
//! tree, we instead summarize the hashes of the tree in a Bloom filter ...
//! we separate the leaf hashes from the internal hashes and use separate
//! Bloom filters, thus allowing the relative accuracies to be controlled"
//! (§5.3). A summary therefore consists of two filters plus the geometry
//! needed for the peer to probe them.
//!
//! The bit budget is expressed the way the paper's Figure 4 does: a total
//! number of bits per element, split between the leaf filter and the
//! internal filter. A split of 0 bits disables one filter — modelled as a
//! 1-bit always-positive filter, which makes the accuracy collapse the
//! figure shows at the extremes emerge naturally rather than by special
//! case.

use icd_bloom::BloomFilter;

use crate::tree::ReconciliationTree;

/// Sizing for a tree summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryParams {
    /// Bits per element allocated to the leaf filter.
    pub leaf_bits_per_element: f64,
    /// Bits per element allocated to the internal-node filter.
    pub internal_bits_per_element: f64,
    /// Correction level: number of consecutive internal-node matches the
    /// search tolerates before pruning (§5.3; 0–5 in the paper's tables).
    pub correction: u32,
    /// Seed namespace for the two filters (protocol constant).
    pub seed: u64,
}

impl SummaryParams {
    /// The paper's headline configuration: 8 bits/element total with the
    /// empirically best split and correction level 5 (Table 4(c)).
    #[must_use]
    pub fn standard() -> Self {
        Self {
            leaf_bits_per_element: 5.0,
            internal_bits_per_element: 3.0,
            correction: 5,
            seed: 0x4152_545F_424C_4F4F, // "ART_BLOO"
        }
    }

    /// A split of a fixed total budget: `leaf` bits/element to leaves and
    /// `total − leaf` to internal nodes (Figure 4(a)'s x-axis).
    #[must_use]
    pub fn with_split(total_bits_per_element: f64, leaf_bits_per_element: f64, correction: u32) -> Self {
        assert!(
            leaf_bits_per_element <= total_bits_per_element,
            "leaf bits exceed total budget"
        );
        Self {
            leaf_bits_per_element,
            internal_bits_per_element: total_bits_per_element - leaf_bits_per_element,
            correction,
            ..Self::standard()
        }
    }
}

/// The transmissible summary of a peer's reconciliation tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtSummary {
    leaf_filter: BloomFilter,
    internal_filter: BloomFilter,
    correction: u32,
    elements: usize,
}

impl ArtSummary {
    /// Builds the summary of `tree` under `params`.
    ///
    /// Both filters are sized by the number of *elements* (n), matching
    /// the paper's bits-per-element accounting: the internal filter holds
    /// ≈ n−1 values, the leaf filter ≈ n.
    #[must_use]
    pub fn build(tree: &ReconciliationTree, params: SummaryParams) -> Self {
        let n = tree.len().max(1);
        let mut leaf_filter = sized_filter(n, params.leaf_bits_per_element, params.seed ^ 0x1EAF);
        let mut internal_filter =
            sized_filter(n, params.internal_bits_per_element, params.seed ^ 0x1A7E);
        tree.visit_values(|value, is_leaf| {
            if is_leaf {
                leaf_filter.insert(value);
            } else {
                internal_filter.insert(value);
            }
        });
        Self {
            leaf_filter,
            internal_filter,
            correction: params.correction,
            elements: tree.len(),
        }
    }

    /// Probes the internal-node filter.
    #[inline]
    #[must_use]
    pub(crate) fn matches_internal(&self, value: u64) -> bool {
        self.internal_filter.contains(value)
    }

    /// Probes the leaf filter.
    #[inline]
    #[must_use]
    pub(crate) fn matches_leaf(&self, value: u64) -> bool {
        self.leaf_filter.contains(value)
    }

    /// Correction level the sender advertises for searching against this
    /// summary.
    #[must_use]
    pub(crate) fn correction(&self) -> u32 {
        self.correction
    }

    /// Number of elements in the summarized set.
    #[must_use]
    pub(crate) fn elements(&self) -> usize {
        self.elements
    }

    /// Wire size in bytes: both filter bodies (geometry rides in the
    /// message header, counted by `icd-wire`).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.leaf_filter.wire_size() + self.internal_filter.wire_size()
    }

    /// Access to the leaf filter (wire encoding).
    #[must_use]
    pub(crate) fn leaf_filter(&self) -> &BloomFilter {
        &self.leaf_filter
    }

    /// Access to the internal filter (wire encoding).
    #[must_use]
    pub(crate) fn internal_filter(&self) -> &BloomFilter {
        &self.internal_filter
    }

    /// Reassembles a summary from its parts (wire decoding).
    #[must_use]
    pub(crate) fn from_parts(
        leaf_filter: BloomFilter,
        internal_filter: BloomFilter,
        correction: u32,
        elements: usize,
    ) -> Self {
        Self {
            leaf_filter,
            internal_filter,
            correction,
            elements,
        }
    }
}

/// Builds a filter of `n × bits_per_element` bits; a zero (or tiny)
/// budget degenerates to a 1-bit filter, which after any insertion
/// answers every probe positively — the correct "no evidence" semantics
/// for a disabled filter.
fn sized_filter(n: usize, bits_per_element: f64, seed: u64) -> BloomFilter {
    if bits_per_element < 1e-9 {
        BloomFilter::new(1, 1, seed)
    } else {
        BloomFilter::with_bits_per_element(n, bits_per_element, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ArtParams;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn summary_contains_own_nodes() {
        let tree = ReconciliationTree::from_keys(ArtParams::default(), keys(500, 1));
        let summary = ArtSummary::build(&tree, SummaryParams::standard());
        // Every node value of the summarized tree must probe positive
        // (no false negatives).
        tree.visit_values(|value, is_leaf| {
            if is_leaf {
                assert!(summary.matches_leaf(value));
            } else {
                assert!(summary.matches_internal(value));
            }
        });
    }

    #[test]
    fn wire_size_tracks_budget() {
        let n = 10_000;
        let tree = ReconciliationTree::from_keys(ArtParams::default(), keys(n, 2));
        let summary = ArtSummary::build(&tree, SummaryParams::with_split(8.0, 4.0, 3));
        // 8 bits/element → n bytes total across the two filters.
        let expected = n; // 8 bits = 1 byte per element
        let got = summary.wire_size();
        assert!(
            (got as i64 - expected as i64).unsigned_abs() < 64,
            "wire size {got}, expected ≈ {expected}"
        );
        // §3: "a gigabyte of content will typically require a summary on
        // the order of 10KB" — 10k symbols at 8 bits/elem ≈ 10 KB.
        assert!(got <= 11 * 1024);
    }

    #[test]
    fn zero_leaf_budget_answers_everything() {
        let tree = ReconciliationTree::from_keys(ArtParams::default(), keys(100, 3));
        let summary = ArtSummary::build(&tree, SummaryParams::with_split(8.0, 0.0, 0));
        let mut rng = Xoshiro256StarStar::new(4);
        for _ in 0..100 {
            assert!(summary.matches_leaf(rng.next_u64()));
        }
    }

    #[test]
    #[should_panic(expected = "leaf bits exceed total budget")]
    fn split_overflow_rejected() {
        let _ = SummaryParams::with_split(8.0, 9.0, 0);
    }

    #[test]
    fn split_partitions_budget() {
        let p = SummaryParams::with_split(8.0, 3.0, 2);
        assert_eq!(p.leaf_bits_per_element, 3.0);
        assert_eq!(p.internal_bits_per_element, 5.0);
        assert_eq!(p.correction, 2);
    }

    #[test]
    fn foreign_values_mostly_rejected() {
        let tree = ReconciliationTree::from_keys(ArtParams::default(), keys(2000, 5));
        let summary = ArtSummary::build(&tree, SummaryParams::with_split(8.0, 4.0, 0));
        let mut rng = Xoshiro256StarStar::new(6);
        let leaf_fp = (0..10_000)
            .filter(|_| summary.matches_leaf(rng.next_u64()))
            .count() as f64
            / 10_000.0;
        let internal_fp = (0..10_000)
            .filter(|_| summary.matches_internal(rng.next_u64()))
            .count() as f64
            / 10_000.0;
        // 4 bits/element → FP ≈ 14.7 %.
        assert!(leaf_fp < 0.25, "leaf FP {leaf_fp}");
        assert!(internal_fp < 0.25, "internal FP {internal_fp}");
    }

    #[test]
    fn empty_tree_summarizes() {
        let tree = ReconciliationTree::from_keys(ArtParams::default(), []);
        let summary = ArtSummary::build(&tree, SummaryParams::standard());
        assert_eq!(summary.elements(), 0);
        // Nothing inserted → probes are negative.
        assert!(!summary.matches_leaf(123));
    }
}
