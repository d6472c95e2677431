//! Transfer-plan selection — §3's tradeoff discussion as executable
//! policy.
//!
//! "The techniques we describe provide a range of options and are useful
//! in different scenarios, primarily depending on: the resources
//! available at the end-systems, the correlation between the working
//! sets at the end-systems, and the requirements of precision." This
//! module encodes those rules:
//!
//! * **Admission control** (§4): a candidate sender whose content is
//!   (estimated) identical is rejected outright.
//! * **Summary choice** (§5): every mechanism registered in the
//!   [`SummaryRegistry`] is a candidate. Instead of hardcoded
//!   per-mechanism thresholds, `plan_transfer` scores each candidate
//!   by its *advertised* costs — estimated wire bytes plus
//!   compute-weighted op count — and drops candidates below the
//!   deployment's recall floor. The paper's Bloom-for-large-differences /
//!   ART-for-small-differences rule emerges from the advertised numbers
//!   (Bloom's O(n) scan vs the ART's O(d log n) search at half the bit
//!   budget), and the same scoring admits the exact mechanisms when the
//!   knobs demand precision (§5.1's whole-set / hash-set / char-poly).
//! * **Recoding policy** (§5.4.2): with a summary in hand the sender can
//!   pick guaranteed-useful symbols and recoding is unnecessary; without
//!   one, recode with min-wise degree scaling.

use icd_fountain::RecodePolicy;
use icd_sketch::OverlapEstimate;

use crate::summary::{diff_estimate, SummaryId, SummaryRegistry, SummarySizing};

/// Resource/precision knobs a deployment sets per §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyKnobs {
    /// Resemblance above which a candidate sender is considered
    /// identical and rejected (§4's admission control).
    pub identical_threshold: f64,
    /// Whether this end-system can afford fine-grained summaries at all
    /// ("not all clients will have the processing capability to perform
    /// fine-grained reconciliation", §5.4).
    pub fine_grained_capable: bool,
    /// Candidates whose advertised recall falls below this floor are not
    /// considered ("the requirements of precision", §3). Raising it
    /// toward 1.0 shifts selection to the exact mechanisms.
    pub min_recall: f64,
    /// Wire-byte equivalents charged per advertised compute op-unit —
    /// the resources-available axis. Zero scores by wire size alone;
    /// larger values penalize compute-heavy mechanisms (the
    /// characteristic polynomial's Θ(d³), Bloom's O(n) scan).
    pub compute_weight: f64,
}

impl Default for PolicyKnobs {
    fn default() -> Self {
        Self {
            identical_threshold: 0.99,
            fine_grained_capable: true,
            min_recall: 0.6,
            compute_weight: 0.15,
        }
    }
}

/// The agreed plan for one sender→receiver connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferPlan {
    /// Do not connect: the peer offers (almost) nothing new.
    Reject,
    /// Connect; receiver ships the chosen summary; sender filters its
    /// transmissions through it (reconciled transfer, §3).
    Reconciled {
        /// Registry id of the summary the receiver should provide
        /// ([`SummaryId::NONE`] for a sketch-only reconciled transfer).
        summary: SummaryId,
    },
    /// Connect; sender recodes over its whole working set with the given
    /// degree policy (speculative transfer, §3).
    Speculative {
        /// Degree policy for the recoder.
        recode: RecodePolicy,
    },
}

/// Chooses a plan from the exchanged sketch estimate. `estimate` is
/// taken from the receiver's perspective: A = receiver, B = candidate
/// sender. Candidate summaries come from `registry`, scored under
/// `sizing` — no mechanism is named here.
#[must_use]
pub(crate) fn plan_transfer(
    estimate: &OverlapEstimate,
    knobs: &PolicyKnobs,
    sizing: &SummarySizing,
    registry: &SummaryRegistry,
) -> TransferPlan {
    // §4: "receivers ... immediately reject candidate senders whose
    // content is identical to their own."
    if estimate.is_identical(1.0 - knobs.identical_threshold) {
        return TransferPlan::Reject;
    }
    // A peer with nothing, or nothing new (within float noise from the
    // inclusion–exclusion arithmetic), is not worth a connection.
    let useful = estimate.useful_fraction_of_b();
    if estimate.size_b() == 0 || useful <= 1e-9 {
        return TransferPlan::Reject;
    }
    let speculative = TransferPlan::Speculative {
        recode: RecodePolicy::MinwiseScaled {
            containment: estimate.containment_of_b(),
        },
    };
    if !knobs.fine_grained_capable {
        // §5.4: clients without fine-grained capability lean on recoding
        // tuned by the sketch.
        return speculative;
    }
    match select_summary(estimate, knobs, sizing, registry) {
        // No registered mechanism meets the recall floor (or the
        // registry is empty): fall back to the sketch-driven transfer.
        None => speculative,
        Some(summary) => TransferPlan::Reconciled { summary },
    }
}

/// Scores every registered mechanism and returns the cheapest one that
/// clears the recall floor (`None` when nothing qualifies). The rule —
/// advertised wire bytes + `compute_weight` × advertised op units, ties
/// toward the lower [`SummaryId`] — lives in
/// [`icd_summary::cheapest_mechanism`]. The overlay engine's per-link
/// advisor calls this function too, so sessions and simulated links
/// always agree.
#[must_use]
pub fn select_summary(
    estimate: &OverlapEstimate,
    knobs: &PolicyKnobs,
    sizing: &SummarySizing,
    registry: &SummaryRegistry,
) -> Option<SummaryId> {
    let est = diff_estimate(estimate);
    icd_summary::cheapest_mechanism(registry, sizing, &est, knobs.min_recall, knobs.compute_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::standard_registry;

    fn est(resemblance: f64, a: u64, b: u64) -> OverlapEstimate {
        OverlapEstimate::from_resemblance(resemblance, a, b)
    }

    fn plan(estimate: &OverlapEstimate, knobs: &PolicyKnobs) -> TransferPlan {
        plan_transfer(
            estimate,
            knobs,
            &SummarySizing::default(),
            &standard_registry(),
        )
    }

    #[test]
    fn identical_peers_rejected() {
        let plan = plan(&est(1.0, 1000, 1000), &PolicyKnobs::default());
        assert_eq!(plan, TransferPlan::Reject);
    }

    #[test]
    fn near_identical_rejected_by_threshold() {
        let plan = plan(&est(0.995, 1000, 1000), &PolicyKnobs::default());
        assert_eq!(plan, TransferPlan::Reject);
    }

    #[test]
    fn large_difference_scores_to_bloom() {
        // Disjoint equal-size sets: everything useful. Bloom's small
        // wire footprint wins; the ART's O(d log n) search is priced out
        // at d = n.
        let plan = plan(&est(0.0, 1000, 1000), &PolicyKnobs::default());
        assert_eq!(
            plan,
            TransferPlan::Reconciled {
                summary: SummaryId::BLOOM
            }
        );
    }

    #[test]
    fn small_difference_scores_to_art() {
        // 1000 vs 1000 with r = 0.96 → d ≈ 20. The ART's halved bit
        // budget and O(d log n) search beat Bloom's O(n) scan.
        let plan = plan(&est(0.96, 1000, 1000), &PolicyKnobs::default());
        assert_eq!(
            plan,
            TransferPlan::Reconciled {
                summary: SummaryId::ART
            }
        );
    }

    #[test]
    fn precision_knobs_unlock_exact_mechanisms() {
        // A recall floor above Bloom/ART accuracy and free compute: the
        // char-poly sketch (O(d) wire) wins small differences, the
        // truncated hash set wins large ones — §5.1's regime, reachable
        // through the same scoring that picks Bloom/ART by default.
        let knobs = PolicyKnobs {
            min_recall: 0.98,
            compute_weight: 0.0,
            ..PolicyKnobs::default()
        };
        assert_eq!(
            plan(&est(0.96, 1000, 1000), &knobs),
            TransferPlan::Reconciled {
                summary: SummaryId::CHAR_POLY
            }
        );
        assert_eq!(
            plan(&est(0.0, 1000, 1000), &knobs),
            TransferPlan::Reconciled {
                summary: SummaryId::HASH_SET
            }
        );
        // Demanding exactly 1.0 leaves only the whole-set exchange.
        let exact = PolicyKnobs {
            min_recall: 1.0,
            compute_weight: 0.0,
            ..PolicyKnobs::default()
        };
        assert_eq!(
            plan(&est(0.5, 1000, 1000), &exact),
            TransferPlan::Reconciled {
                summary: SummaryId::WHOLE_SET
            }
        );
    }

    #[test]
    fn impossible_recall_floor_falls_back_to_speculative() {
        let knobs = PolicyKnobs {
            min_recall: 1.1,
            ..PolicyKnobs::default()
        };
        assert!(matches!(
            plan(&est(0.5, 1000, 1000), &knobs),
            TransferPlan::Speculative { .. }
        ));
        // An empty registry behaves the same way.
        let none = plan_transfer(
            &est(0.5, 1000, 1000),
            &PolicyKnobs::default(),
            &SummarySizing::default(),
            &SummaryRegistry::new(),
        );
        assert!(matches!(none, TransferPlan::Speculative { .. }));
    }

    #[test]
    fn weak_clients_fall_back_to_recoding() {
        let knobs = PolicyKnobs {
            fine_grained_capable: false,
            ..PolicyKnobs::default()
        };
        let plan = plan(&est(0.5, 1000, 1000), &knobs);
        match plan {
            TransferPlan::Speculative {
                recode: RecodePolicy::MinwiseScaled { containment },
            } => {
                // r = 0.5 on equal sizes → containment 2/3.
                assert!((containment - 2.0 / 3.0).abs() < 1e-9);
            }
            other => panic!("expected speculative plan, got {other:?}"),
        }
    }

    #[test]
    fn subset_sender_rejected() {
        // B ⊂ A: nothing useful regardless of resemblance.
        let plan = plan(&est(0.1, 1000, 100), &PolicyKnobs::default());
        assert_eq!(plan, TransferPlan::Reject);
    }

    #[test]
    fn empty_estimate_is_rejected_not_crashed() {
        let plan = plan(&est(0.0, 0, 0), &PolicyKnobs::default());
        assert_eq!(plan, TransferPlan::Reject);
    }
}
