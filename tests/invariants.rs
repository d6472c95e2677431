//! Property-based tests on the core data-structure invariants that the
//! informed-delivery protocol relies on, exercised across crates.

use icd_fountain::{DecodeStatus, Decoder, Encoder};
use icd_sketch::art::{
    search_differences, ArtParams, ArtSummary, ReconciliationTree, SummaryParams,
};
use icd_sketch::bloom::BloomFilter;
use icd_sketch::{MinwiseSketch, PermutationFamily};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bloom filters never produce false negatives — the property that
    /// guarantees reconciled transfers never ship redundant symbols.
    #[test]
    fn bloom_no_false_negatives(keys in proptest::collection::hash_set(any::<u64>(), 1..600)) {
        let mut filter = BloomFilter::with_bits_per_element(keys.len(), 6.0, 99);
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            prop_assert!(filter.contains(k));
        }
    }

    /// ART difference search is one-sided: every reported key is a true
    /// element of S_B ∖ S_A.
    #[test]
    fn art_reported_differences_are_true(
        shared in proptest::collection::hash_set(any::<u64>(), 1..400),
        fresh in proptest::collection::hash_set(any::<u64>(), 1..60),
    ) {
        let shared: HashSet<u64> = shared.difference(&fresh).copied().collect();
        prop_assume!(!shared.is_empty());
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, shared.iter().copied());
        let b = ReconciliationTree::from_keys(
            params,
            shared.iter().chain(fresh.iter()).copied(),
        );
        let summary = ArtSummary::build(&a, SummaryParams::with_split(8.0, 4.0, 3));
        let out = search_differences(&b, &summary);
        for k in &out.missing_at_peer {
            prop_assert!(fresh.contains(k), "reported {k} is not a true difference");
        }
    }

    /// Identical sets always produce identical min-wise sketches and
    /// resemblance exactly 1.
    #[test]
    fn minwise_identity(keys in proptest::collection::hash_set(any::<u64>(), 1..300)) {
        let family = PermutationFamily::new(5, 32);
        let a = MinwiseSketch::from_keys(&family, keys.iter().copied());
        let mut shuffled: Vec<u64> = keys.iter().copied().collect();
        shuffled.reverse();
        let b = MinwiseSketch::from_keys(&family, shuffled);
        prop_assert_eq!(a.resemblance(&b), 1.0);
    }

    /// The fountain decode is exact for arbitrary content and geometry.
    #[test]
    fn fountain_roundtrip(
        content in proptest::collection::vec(any::<u8>(), 1..3000),
        block_size in 16usize..200,
        seed in any::<u64>(),
    ) {
        let encoder = Encoder::for_content(&content, block_size, seed);
        let mut decoder = Decoder::new(encoder.spec().clone());
        let mut done = false;
        for sym in encoder.stream(seed ^ 1) {
            if matches!(decoder.receive(&sym), DecodeStatus::Complete) {
                done = true;
                break;
            }
            // Safety net: peeling over a random stream converges fast.
            prop_assert!(
                decoder.stats().received < 60 * encoder.spec().num_blocks() as u64 + 600,
                "decoder failed to converge"
            );
        }
        prop_assert!(done);
        prop_assert_eq!(decoder.into_content(content.len()).unwrap(), content);
    }

    /// The rateless IBLT recovers the exact difference, in both
    /// directions, once the peer has streamed enough cells.
    #[test]
    fn riblt_exactness(
        shared in proptest::collection::hash_set(any::<u64>(), 1..120),
        a_only in proptest::collection::hash_set(any::<u64>(), 0..10),
        b_only in proptest::collection::hash_set(any::<u64>(), 0..10),
    ) {
        use icd_sketch::exact::riblt::{Encoder, Peeler};
        let a_only: HashSet<u64> = a_only.difference(&shared).copied().collect();
        let b_only: HashSet<u64> = b_only
            .difference(&shared)
            .copied()
            .collect::<HashSet<_>>()
            .difference(&a_only)
            .copied()
            .collect();
        let a: Vec<u64> = shared.iter().chain(a_only.iter()).copied().collect();
        let b: Vec<u64> = shared.iter().chain(b_only.iter()).copied().collect();
        for (remote, local, expect) in [(&a, &b, &b_only), (&b, &a, &a_only)] {
            let mut encoder = Encoder::new(remote);
            let mut peeler = Peeler::new(local);
            while !peeler.is_done() {
                prop_assert!(peeler.cells_received() < 1_000, "peel never completed");
                peeler.push(&encoder.next_cell());
            }
            let mut expect: Vec<u64> = expect.iter().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(peeler.missing_at_peer(), expect);
        }
    }
}

/// Cross-structure agreement: Bloom, ART, and the exact methods must
/// never contradict each other on what is "definitely missing".
#[test]
fn reconciliation_methods_agree_on_one_sidedness() {
    use icd_sketch::exact::cost::{measure_all, Scenario};
    for seed in [1u64, 2, 3] {
        let scenario = Scenario::generate(3000, 80, seed);
        let report = measure_all(&scenario);
        for row in &report.rows {
            assert!(!row.false_reports, "{} produced false reports", row.method);
        }
    }
}
