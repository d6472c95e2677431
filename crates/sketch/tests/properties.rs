//! Property-based tests for similarity estimation: estimator agreement,
//! composition laws, and statistical soundness on random set pairs.

use icd_sketch::{MinwiseSketch, OverlapEstimate, PermutationFamily};
use icd_util::rng::Xoshiro256StarStar;
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds two sets with a known overlap structure.
fn sets(shared: usize, a_extra: usize, b_extra: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    use icd_util::rng::Rng64;
    let mut rng = Xoshiro256StarStar::new(seed);
    let common: Vec<u64> = (0..shared).map(|_| rng.next_u64()).collect();
    let mut a = common.clone();
    a.extend((0..a_extra).map(|_| rng.next_u64()));
    let mut b = common;
    b.extend((0..b_extra).map(|_| rng.next_u64()));
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resemblance_is_symmetric_and_bounded(
        shared in 0usize..200, a_extra in 0usize..200, b_extra in 0usize..200, seed in any::<u64>(),
    ) {
        prop_assume!(shared + a_extra > 0 && shared + b_extra > 0);
        let (a_keys, b_keys) = sets(shared, a_extra, b_extra, seed);
        let family = PermutationFamily::new(9, 64);
        let a = MinwiseSketch::from_keys(&family, a_keys);
        let b = MinwiseSketch::from_keys(&family, b_keys);
        let r_ab = a.resemblance(&b);
        let r_ba = b.resemblance(&a);
        prop_assert_eq!(r_ab, r_ba);
        prop_assert!((0.0..=1.0).contains(&r_ab));
    }

    #[test]
    fn union_is_commutative_and_idempotent(
        shared in 1usize..100, a_extra in 0usize..100, b_extra in 0usize..100, seed in any::<u64>(),
    ) {
        let (a_keys, b_keys) = sets(shared, a_extra, b_extra, seed);
        let family = PermutationFamily::new(11, 32);
        let a = MinwiseSketch::from_keys(&family, a_keys);
        let b = MinwiseSketch::from_keys(&family, b_keys);
        let ab = a.union(&b);
        let ba = b.union(&a);
        let aa = a.union(&a);
        prop_assert_eq!(ab.minima(), ba.minima());
        prop_assert_eq!(aa.minima(), a.minima());
        // Union dominates: each coordinate ≤ both inputs.
        for ((u, x), y) in ab.minima().iter().zip(a.minima()).zip(b.minima()) {
            prop_assert!(u <= x && u <= y);
        }
    }

    #[test]
    fn inclusion_exclusion_roundtrip(r in 0.0f64..=1.0, a in 1u64..10_000, b in 1u64..10_000) {
        let est = OverlapEstimate::from_resemblance(r, a, b);
        // intersection ≤ min, union ≥ max, and the two recompose.
        prop_assert!(est.intersection_size() <= a.min(b) as f64 + 1e-6);
        prop_assert!(est.union_size() + 1e-6 >= a.max(b) as f64);
        let recomposed = est.intersection_size() + est.union_size();
        prop_assert!((recomposed - (a + b) as f64).abs() < 1e-6);
        // Containment ↔ resemblance inversion is consistent whenever the
        // resemblance was geometrically feasible in the first place
        // (infeasible values are clamped, which is lossy by design).
        let max_feasible_r = a.min(b) as f64 / a.max(b) as f64;
        if r <= max_feasible_r {
            let back = OverlapEstimate::from_containment_of_b(est.containment_of_b(), a, b);
            prop_assert!((back.resemblance() - est.resemblance()).abs() < 1e-9);
        }
    }

    #[test]
    fn estimators_agree_on_clear_structure(seed in any::<u64>()) {
        // The min-wise estimate must land within statistical error of
        // the truth on a set pair with 50 % containment.
        let (a_keys, b_keys) = sets(600, 600, 600, seed);
        let family = PermutationFamily::new(13, 256);
        let mw_a = MinwiseSketch::from_keys(&family, a_keys.iter().copied());
        let mw_b = MinwiseSketch::from_keys(&family, b_keys.iter().copied());
        let est = mw_a.estimate(&mw_b);
        let truth = 0.5; // |A∩B|/|B| = 600/1200
        prop_assert!(
            (est.containment_of_b() - truth).abs() < 0.15,
            "minwise containment {} far from {}",
            est.containment_of_b(),
            truth
        );
    }

    #[test]
    fn subset_detection(seed in any::<u64>(), n in 50usize..300) {
        // B ⊆ A ⇒ containment of B is ~1 under every estimator.
        let (a_keys, _) = sets(n, n, 0, seed);
        let b_keys: Vec<u64> = a_keys[..n].to_vec();
        let family = PermutationFamily::new(15, 128);
        let sk_a = MinwiseSketch::from_keys(&family, a_keys.iter().copied());
        let sk_b = MinwiseSketch::from_keys(&family, b_keys.iter().copied());
        let est = sk_a.estimate(&sk_b);
        prop_assert!(est.containment_of_b() > 0.8, "got {}", est.containment_of_b());
    }

    #[test]
    fn duplicate_membership_sets_identical_sketch(keys in proptest::collection::hash_set(any::<u64>(), 1..200)) {
        let family = PermutationFamily::new(17, 64);
        let once = MinwiseSketch::from_keys(&family, keys.iter().copied());
        let keys2: HashSet<u64> = keys.iter().copied().collect();
        let twice = MinwiseSketch::from_keys(&family, keys2.into_iter());
        prop_assert_eq!(once.minima(), twice.minima());
    }
}
