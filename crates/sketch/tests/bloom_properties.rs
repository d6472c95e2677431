//! Property-based tests for the Bloom family: the no-false-negative
//! contract under arbitrary workloads, serialization totality, union
//! coverage, and the one-sided error reconciliation relies on.

use icd_sketch::bloom::BloomFilter;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn never_forgets_inserted_keys(
        keys in proptest::collection::hash_set(any::<u64>(), 1..400),
        bpe in 1.0f64..16.0,
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::with_bits_per_element(keys.len(), bpe, seed);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    #[test]
    fn serialization_preserves_answers(
        keys in proptest::collection::hash_set(any::<u64>(), 1..200),
        probes in proptest::collection::vec(any::<u64>(), 0..100),
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::with_bits_per_element(keys.len(), 6.0, seed);
        for &k in &keys {
            f.insert(k);
        }
        let back = BloomFilter::from_bytes(&f.to_bytes(), f.num_bits(), f.num_hashes(), f.seed(), f.items()).unwrap();
        for p in keys.iter().chain(probes.iter()) {
            prop_assert_eq!(f.contains(*p), back.contains(*p));
        }
    }

    #[test]
    fn union_is_superset_of_parts(
        a_keys in proptest::collection::hash_set(any::<u64>(), 1..150),
        b_keys in proptest::collection::hash_set(any::<u64>(), 1..150),
    ) {
        let m = 8 * (a_keys.len() + b_keys.len());
        let mut a = BloomFilter::new(m, 4, 3);
        let mut b = BloomFilter::new(m, 4, 3);
        for &k in &a_keys {
            a.insert(k);
        }
        for &k in &b_keys {
            b.insert(k);
        }
        let mut u = a.clone();
        u.union_with(&b);
        for &k in a_keys.iter().chain(b_keys.iter()) {
            prop_assert!(u.contains(k));
        }
    }

    #[test]
    fn one_sided_error_for_reconciliation(
        a_keys in proptest::collection::hash_set(any::<u64>(), 1..300),
        b_keys in proptest::collection::hash_set(any::<u64>(), 1..300),
    ) {
        // The protocol invariant: symbols a sender ships because the
        // receiver's filter reported them absent are NEVER already held.
        let a_set: HashSet<u64> = a_keys.iter().copied().collect();
        let mut filter = BloomFilter::with_bits_per_element(a_keys.len(), 8.0, 77);
        for &k in &a_keys {
            filter.insert(k);
        }
        for &k in &b_keys {
            if !filter.contains(k) {
                prop_assert!(!a_set.contains(&k));
            }
        }
    }
}
