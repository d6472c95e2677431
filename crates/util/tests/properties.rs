//! Property-based tests for the utility substrate: field laws, hash
//! bijectivity, bit-vector serialization, and PRNG sampling contracts.

use icd_util::bitvec::BitVec;
use icd_util::hash::{hash64, mix64, unmix64};
use icd_util::modp::{self, P};
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use proptest::prelude::*;

fn field_elem() -> impl Strategy<Value = u64> {
    (0..P).prop_map(|x| x)
}

proptest! {
    #[test]
    fn mix64_is_bijective(x in any::<u64>()) {
        prop_assert_eq!(unmix64(mix64(x)), x);
    }

    #[test]
    fn hash64_is_seed_separated(x in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(s1 != s2);
        // Not a guarantee for all inputs (collisions exist), but over
        // random draws a collision would indicate broken mixing.
        prop_assert_ne!(hash64(x, s1), hash64(x, s2));
    }

    #[test]
    fn field_addition_group_laws(a in field_elem(), b in field_elem(), c in field_elem()) {
        prop_assert_eq!(modp::add(a, b), modp::add(b, a));
        prop_assert_eq!(modp::add(modp::add(a, b), c), modp::add(a, modp::add(b, c)));
        prop_assert_eq!(modp::add(a, 0), a);
    }

    #[test]
    fn field_multiplication_laws(a in field_elem(), b in field_elem(), c in field_elem()) {
        prop_assert_eq!(modp::mul(a, b), modp::mul(b, a));
        prop_assert_eq!(modp::mul(modp::mul(a, b), c), modp::mul(a, modp::mul(b, c)));
        prop_assert_eq!(modp::mul(a, 1), a);
        // Distributivity.
        prop_assert_eq!(
            modp::mul(a, modp::add(b, c)),
            modp::add(modp::mul(a, b), modp::mul(a, c))
        );
    }

    #[test]
    fn bitvec_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
        let mut v = BitVec::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i);
            }
        }
        let back = BitVec::from_bytes(&v.to_bytes(), bits.len()).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn rng_below_is_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn sample_distinct_contract(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Xoshiro256StarStar::new(seed);
        let sample = rng.sample_distinct(n, k);
        prop_assert_eq!(sample.len(), k);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(sample.iter().all(|&v| v < n));
    }
}
