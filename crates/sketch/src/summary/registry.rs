//! The registry mapping [`SummaryId`]s to mechanism entry points.
//!
//! A [`SummarySpec`] is a mechanism's complete protocol surface: how to
//! build a digest, how to decode one from wire bytes, and the analytic
//! cost/accuracy advisors that transfer policy scores instead of
//! hardcoding mechanism-specific thresholds. Entry points are plain
//! function pointers, so a registry is an immutable table, deterministic
//! to iterate (specs are kept sorted by id). The shipped mechanisms form
//! one such table, [`standard_registry`], built once per process.

use std::sync::OnceLock;

use super::traits::{DiffEstimate, Reconciler, SetSummary, SummaryError, SummarySizing};
use super::SummaryId;
use crate::exact::digest::{hash_set_spec, riblt_spec, whole_set_spec};

/// Builds a digest over a key set.
pub(crate) type BuildFn = fn(&SummarySizing, &DiffEstimate, &[u64]) -> Box<dyn SetSummary>;
/// Decodes a wire body into a sender-side reconciler.
pub(crate) type DecodeFn = fn(&[u8]) -> Result<Box<dyn Reconciler>, SummaryError>;
/// Analytic advisor: estimated wire bytes / compute op-units / recall.
pub(crate) type AdviseFn = fn(&SummarySizing, &DiffEstimate) -> f64;

/// One mechanism's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct SummarySpec {
    /// Stable protocol id.
    pub id: SummaryId,
    /// Mechanism name (table columns, logs).
    pub label: &'static str,
    /// Digest constructor.
    pub build: BuildFn,
    /// Wire-body decoder.
    pub decode: DecodeFn,
    /// Estimated wire bytes for a digest built under the given sizing.
    pub wire_cost: AdviseFn,
    /// Estimated per-exchange compute in abstract op units (hash
    /// evaluations / field multiplications); policy weighs these against
    /// wire bytes via `compute_weight`.
    pub compute_cost: AdviseFn,
    /// Expected fraction of the true difference the mechanism recovers.
    pub expected_recall: AdviseFn,
}

/// A table of [`SummarySpec`]s, sorted by id.
#[derive(Debug)]
pub struct SummaryRegistry {
    specs: Vec<SummarySpec>,
}

impl SummaryRegistry {
    /// Builds a table of `specs`, sorted by id. The ids must be
    /// distinct, and [`SummaryId::NONE`], which names no mechanism, must
    /// not appear.
    #[must_use]
    pub fn from_specs(specs: impl IntoIterator<Item = SummarySpec>) -> Self {
        let mut specs: Vec<SummarySpec> = specs.into_iter().collect();
        specs.sort_by_key(|s| s.id);
        debug_assert!(
            specs.windows(2).all(|w| w[0].id < w[1].id)
                && specs.first().is_none_or(|s| s.id != SummaryId::NONE),
            "registry ids must be distinct and not NONE"
        );
        Self { specs }
    }

    /// Looks up a mechanism by id.
    #[must_use]
    pub fn get(&self, id: SummaryId) -> Option<&SummarySpec> {
        self.specs
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|at| &self.specs[at])
    }

    /// All registered ids, ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<SummaryId> {
        self.specs.iter().map(|s| s.id).collect()
    }

    /// Iterates the specs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SummarySpec> {
        self.specs.iter()
    }

    /// Number of registered mechanisms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Convenience: builds a digest of `keys` under `id`.
    pub fn build(
        &self,
        id: SummaryId,
        sizing: &SummarySizing,
        estimate: &DiffEstimate,
        keys: &[u64],
    ) -> Result<Box<dyn SetSummary>, SummaryError> {
        let spec = self.get(id).ok_or(SummaryError::Unknown(id))?;
        Ok((spec.build)(sizing, estimate, keys))
    }

    /// Convenience: decodes a wire body under `id`.
    pub fn decode(&self, id: SummaryId, body: &[u8]) -> Result<Box<dyn Reconciler>, SummaryError> {
        (self.get(id).ok_or(SummaryError::Unknown(id))?.decode)(body)
    }
}

/// The standard registry: whole-set, hash-set, Bloom, ART and RIBLT,
/// built once per process and shared by every session, link and
/// experiment cell.
#[must_use]
pub fn standard_registry() -> &'static SummaryRegistry {
    static STANDARD: OnceLock<SummaryRegistry> = OnceLock::new();
    STANDARD.get_or_init(|| {
        SummaryRegistry::from_specs([
            whole_set_spec(),
            hash_set_spec(),
            crate::bloom::digest::spec(),
            crate::art::digest::spec(),
            riblt_spec(),
        ])
    })
}

/// Scores every registered mechanism by its advertised costs — wire
/// bytes plus `compute_weight` × compute op-units — and returns the
/// cheapest one whose advertised recall clears `min_recall`, ties
/// breaking toward the lower id (registries iterate in id order), so
/// selection is deterministic. `None` when nothing qualifies.
///
/// This is *the* selection rule: `icd_core::policy::select_summary`
/// calls it for the session policy and for the overlay engine's
/// per-link advisor alike, so a session and a simulated link presented
/// with the same estimate always pick the same mechanism.
#[must_use]
pub fn cheapest_mechanism(
    registry: &SummaryRegistry,
    sizing: &SummarySizing,
    estimate: &DiffEstimate,
    min_recall: f64,
    compute_weight: f64,
) -> Option<SummaryId> {
    let mut best: Option<(f64, SummaryId)> = None;
    for spec in registry.iter() {
        let recall = (spec.expected_recall)(sizing, estimate);
        if recall + 1e-12 < min_recall {
            continue;
        }
        let score = (spec.wire_cost)(sizing, estimate)
            + compute_weight * (spec.compute_cost)(sizing, estimate);
        if best.is_none_or(|(best_score, _)| score < best_score) {
            best = Some((score, spec.id));
        }
    }
    best.map(|(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Fake;

    impl Reconciler for Fake {
        fn id(&self) -> SummaryId {
            SummaryId(0x8001)
        }
        fn missing_at_peer(&self, local: &[u64]) -> Vec<u64> {
            let mut out = local.to_vec();
            out.sort_unstable();
            out
        }
    }

    impl SetSummary for Fake {
        fn encode_body(&self) -> Vec<u8> {
            Vec::new()
        }
        fn probably_contains(&self, _key: u64) -> bool {
            false
        }
    }

    fn fake_spec(id: SummaryId) -> SummarySpec {
        SummarySpec {
            id,
            label: "fake",
            build: |_, _, _| Box::new(Fake),
            decode: |_| Ok(Box::new(Fake)),
            wire_cost: |_, _| 1.0,
            compute_cost: |_, _| 1.0,
            expected_recall: |_, _| 1.0,
        }
    }

    #[test]
    fn from_specs_sorts_and_looks_up() {
        let reg = SummaryRegistry::from_specs([fake_spec(SummaryId(9)), fake_spec(SummaryId(3))]);
        assert_eq!(reg.ids(), vec![SummaryId(3), SummaryId(9)]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(SummaryId(3)).is_some());
        assert!(reg.get(SummaryId(4)).is_none());
        assert_eq!(
            reg.decode(SummaryId(4), &[]).unwrap_err(),
            SummaryError::Unknown(SummaryId(4))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distinct and not NONE")]
    fn duplicate_ids_rejected() {
        let _ = SummaryRegistry::from_specs([fake_spec(SummaryId(2)), fake_spec(SummaryId(2))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distinct and not NONE")]
    fn reserved_id_rejected() {
        let _ = SummaryRegistry::from_specs([fake_spec(SummaryId::NONE)]);
    }

    #[test]
    fn build_and_decode_dispatch() {
        let reg = SummaryRegistry::from_specs([fake_spec(SummaryId(2))]);
        let est = DiffEstimate::new(10, 10, 5);
        let digest = reg
            .build(SummaryId(2), &SummarySizing::default(), &est, &[1, 2])
            .unwrap();
        assert!(!digest.probably_contains(1));
        let rec = reg.decode(SummaryId(2), &digest.encode_body()).unwrap();
        assert_eq!(rec.missing_at_peer(&[4, 1]), vec![1, 4]);
        assert!(matches!(
            reg.decode(SummaryId(5), &[]),
            Err(SummaryError::Unknown(_))
        ));
    }

    #[test]
    fn diff_estimate_derives_symmetric_difference() {
        // A=100, B=120, B∖A=30 → A∖B = 10, Δ = 40.
        let est = DiffEstimate::new(100, 120, 30);
        assert_eq!(est.expected_delta, 40);
        // B ⊂ A: nothing new, Δ = A∖B.
        let est = DiffEstimate::new(100, 60, 0);
        assert_eq!(est.expected_delta, 40);
    }

    #[test]
    fn standard_registry_holds_all_five() {
        let reg = standard_registry();
        assert_eq!(
            reg.ids(),
            vec![
                SummaryId::WHOLE_SET,
                SummaryId::HASH_SET,
                SummaryId::BLOOM,
                SummaryId::ART,
                SummaryId::RIBLT,
            ]
        );
        for spec in reg.iter() {
            assert_eq!(spec.label, spec.id.label(), "labels agree with ids");
        }
        assert!(reg.get(SummaryId::NONE).is_none());
    }

    #[test]
    fn every_mechanism_ignores_the_order_of_the_searched_set() {
        let reg = standard_registry();
        let ours: Vec<u64> = (0..60u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
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
            assert_eq!(
                answer,
                reconciler.missing_at_peer(&sorted),
                "{}",
                spec.label
            );
            assert!(
                answer.windows(2).all(|w| w[0] < w[1]),
                "{} sorted, no repeats",
                spec.label
            );
        }
    }

    #[test]
    fn standard_registry_is_stable() {
        let a = standard_registry();
        let b = standard_registry();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.len(), 5);
    }
}
