//! Property-based tests for approximate reconciliation trees: structural
//! canonicity, the root XOR law, and search soundness.

use icd_art::{search_differences, ArtParams, ArtSummary, ReconciliationTree, SummaryParams};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_is_canonical_in_contents(mut keys in proptest::collection::vec(any::<u64>(), 1..300)) {
        let params = ArtParams::default();
        let fwd = ReconciliationTree::from_keys(params, keys.iter().copied());
        keys.reverse();
        let rev = ReconciliationTree::from_keys(params, keys.iter().copied());
        prop_assert_eq!(fwd.root_value(), rev.root_value());
        prop_assert_eq!(fwd.len(), rev.len());
    }

    #[test]
    fn root_value_xor_law(
        keys in proptest::collection::hash_set(any::<u64>(), 2..200),
        split in 1usize..100,
    ) {
        // root(A ∪ B) = root(A) ⊕ root(B) for disjoint A, B.
        let params = ArtParams::default();
        let keys: Vec<u64> = keys.into_iter().collect();
        let split = split.min(keys.len() - 1);
        let a = ReconciliationTree::from_keys(params, keys[..split].iter().copied());
        let b = ReconciliationTree::from_keys(params, keys[split..].iter().copied());
        let all = ReconciliationTree::from_keys(params, keys.iter().copied());
        prop_assert_eq!(
            all.root_value().unwrap(),
            a.root_value().unwrap() ^ b.root_value().unwrap()
        );
    }

    #[test]
    fn search_is_sound(
        shared in proptest::collection::hash_set(any::<u64>(), 1..250),
        fresh in proptest::collection::hash_set(any::<u64>(), 0..40),
        leaf_bits in 1.0f64..8.0,
        correction in 0u32..6,
    ) {
        let shared: HashSet<u64> = shared.difference(&fresh).copied().collect();
        prop_assume!(!shared.is_empty());
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, shared.iter().copied());
        let b = ReconciliationTree::from_keys(params, shared.iter().chain(fresh.iter()).copied());
        let summary = ArtSummary::build(&a, SummaryParams::with_split(8.0, leaf_bits, correction));
        let out = search_differences(&b, &summary);
        // Soundness: reported ⊆ fresh; uniqueness: no duplicates.
        let reported: HashSet<u64> = out.missing_at_peer.iter().copied().collect();
        prop_assert_eq!(reported.len(), out.missing_at_peer.len());
        for k in &out.missing_at_peer {
            prop_assert!(fresh.contains(k));
        }
    }

    #[test]
    fn identical_sets_search_empty(keys in proptest::collection::hash_set(any::<u64>(), 1..300)) {
        let params = ArtParams::default();
        let t = ReconciliationTree::from_keys(params, keys.iter().copied());
        let summary = ArtSummary::build(&t, SummaryParams::standard());
        let out = search_differences(&t, &summary);
        prop_assert!(out.missing_at_peer.is_empty());
    }
}
