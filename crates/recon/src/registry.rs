//! The standard summary registry: every mechanism the workspace ships.
//!
//! `icd-recon` is the lowest crate that can see all five mechanisms
//! (it already depends on `icd-bloom` and `icd-art` for the cost
//! harness), so the assembled registry lives here; `icd-core::summary`
//! re-exports it as the protocol default. Deployments that want a
//! different mechanism set build their own [`SummaryRegistry`] from the
//! individual `spec()` functions.

use std::sync::OnceLock;

use icd_summary::SummaryRegistry;

use crate::digest::{char_poly_spec, hash_set_spec, whole_set_spec};

/// Builds a registry holding all five standard mechanisms: whole-set,
/// hash-set, char-poly, bloom, and art.
#[must_use]
pub fn standard_registry() -> SummaryRegistry {
    let mut reg = SummaryRegistry::new();
    for spec in [
        whole_set_spec(),
        hash_set_spec(),
        char_poly_spec(),
        icd_bloom::digest::spec(),
        icd_art::digest::spec(),
    ] {
        reg.register(spec).expect("standard ids are distinct");
    }
    reg
}

/// A process-wide shared instance of [`standard_registry`].
#[must_use]
pub fn shared_registry() -> &'static SummaryRegistry {
    static SHARED: OnceLock<SummaryRegistry> = OnceLock::new();
    SHARED.get_or_init(standard_registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_summary::SummaryId;

    #[test]
    fn standard_registry_holds_all_five() {
        let reg = standard_registry();
        assert_eq!(
            reg.ids(),
            vec![
                SummaryId::WHOLE_SET,
                SummaryId::HASH_SET,
                SummaryId::CHAR_POLY,
                SummaryId::BLOOM,
                SummaryId::ART,
            ]
        );
        for spec in reg.iter() {
            assert_eq!(spec.label, spec.id.label(), "labels agree with ids");
        }
    }

    #[test]
    fn every_mechanism_ignores_the_order_of_the_searched_set() {
        use icd_summary::{DiffEstimate, SummarySizing};
        let reg = standard_registry();
        let ours: Vec<u64> = (0..60u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        // Half shared, half new, in a scrambled order with a repeat.
        let mut theirs: Vec<u64> = ours[30..].to_vec();
        theirs.extend((1000..1030u64).map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93)));
        theirs.reverse();
        theirs.swap(7, 41);
        theirs.push(theirs[3]);
        let mut sorted = theirs.clone();
        sorted.sort_unstable();
        let sizing = SummarySizing::default();
        let estimate = DiffEstimate::new(ours.len(), theirs.len(), 30);
        for spec in reg.iter() {
            let body = (spec.build)(&sizing, &estimate, &ours).encode_body();
            let reconciler = reg.decode(spec.id, &body).expect("decodes");
            let answer = reconciler.missing_at_peer(&theirs);
            assert_eq!(answer, reconciler.missing_at_peer(&sorted), "{}", spec.label);
            assert!(answer.windows(2).all(|w| w[0] < w[1]), "{} sorted, no repeats", spec.label);
        }
    }

    #[test]
    fn shared_registry_is_stable() {
        let a = shared_registry();
        let b = shared_registry();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.len(), 5);
    }
}
