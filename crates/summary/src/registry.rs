//! The registry mapping [`SummaryId`]s to mechanism entry points.
//!
//! A [`SummarySpec`] is a mechanism's complete protocol surface: how to
//! build a digest, how to decode one from wire bytes, and the analytic
//! cost/accuracy advisors that transfer policy scores instead of
//! hardcoding mechanism-specific thresholds. Entry points are plain
//! function pointers, so a registry is cheap to build, `Clone`, and
//! deterministic to iterate (specs are kept sorted by id).

use crate::traits::{DiffEstimate, Reconciler, SetSummary, SummaryError, SummarySizing};
use crate::SummaryId;

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

/// An ordered, duplicate-free collection of [`SummarySpec`]s.
#[derive(Debug, Clone, Default)]
pub struct SummaryRegistry {
    specs: Vec<SummarySpec>,
}

impl SummaryRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a mechanism. Fails on a duplicate id or on the reserved
    /// [`SummaryId::NONE`].
    pub fn register(&mut self, spec: SummarySpec) -> Result<(), SummaryError> {
        if spec.id == SummaryId::NONE {
            return Err(SummaryError::DuplicateId(SummaryId::NONE));
        }
        match self.specs.binary_search_by_key(&spec.id, |s| s.id) {
            Ok(_) => Err(SummaryError::DuplicateId(spec.id)),
            Err(at) => {
                self.specs.insert(at, spec);
                Ok(())
            }
        }
    }

    /// Looks up a mechanism by id.
    #[must_use]
    pub fn get(&self, id: SummaryId) -> Option<&SummarySpec> {
        self.specs
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|at| &self.specs[at])
    }

    /// Looks up a mechanism, or errors with [`SummaryError::Unknown`].
    pub(crate) fn require(&self, id: SummaryId) -> Result<&SummarySpec, SummaryError> {
        self.get(id).ok_or(SummaryError::Unknown(id))
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
        Ok((self.require(id)?.build)(sizing, estimate, keys))
    }

    /// Convenience: decodes a wire body under `id`.
    pub fn decode(&self, id: SummaryId, body: &[u8]) -> Result<Box<dyn Reconciler>, SummaryError> {
        (self.require(id)?.decode)(body)
    }
}

/// Scores every registered mechanism by its advertised costs — wire
/// bytes plus `compute_weight` × compute op-units — and returns the
/// cheapest one whose advertised recall clears `min_recall`, ties
/// breaking toward the lower id (registries iterate in id order), so
/// selection is deterministic. `None` when nothing qualifies.
///
/// This is *the* selection rule: the session policy
/// (`icd_core::policy::select_summary`) and the overlay engine's
/// per-link advisor (`icd_overlay::net::advise_summary`) both call it,
/// so a session and a simulated link presented with the same estimate
/// always pick the same mechanism.
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
        let score =
            (spec.wire_cost)(sizing, estimate) + compute_weight * (spec.compute_cost)(sizing, estimate);
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
    fn register_lookup_and_order() {
        let mut reg = SummaryRegistry::new();
        reg.register(fake_spec(SummaryId(9))).unwrap();
        reg.register(fake_spec(SummaryId(3))).unwrap();
        assert_eq!(reg.ids(), vec![SummaryId(3), SummaryId(9)]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(SummaryId(3)).is_some());
        assert!(reg.get(SummaryId(4)).is_none());
        assert_eq!(
            reg.require(SummaryId(4)).unwrap_err(),
            SummaryError::Unknown(SummaryId(4))
        );
    }

    #[test]
    fn duplicates_and_reserved_rejected() {
        let mut reg = SummaryRegistry::new();
        reg.register(fake_spec(SummaryId(7))).unwrap();
        assert_eq!(
            reg.register(fake_spec(SummaryId(7))).unwrap_err(),
            SummaryError::DuplicateId(SummaryId(7))
        );
        assert!(reg.register(fake_spec(SummaryId::NONE)).is_err());
    }

    #[test]
    fn build_and_decode_dispatch() {
        let mut reg = SummaryRegistry::new();
        reg.register(fake_spec(SummaryId(2))).unwrap();
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
}
