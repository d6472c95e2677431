//! The protocol's summary surface: `icd-sketch`'s summary trait API plus
//! the standard registry, re-exported as one front door.
//!
//! Everything a deployment needs to work with fine-grained summaries
//! lives behind this module:
//!
//! * [`SetSummary`] / [`Reconciler`] — the two traits every mechanism
//!   implements (receiver-side digest, sender-side diff).
//! * [`SummaryId`] — the stable wire identifier; sessions, policy, the
//!   overlay simulator, and the experiment grid all dispatch on it.
//! * [`SummaryRegistry`] / [`SummarySpec`] — id → constructor/decoder/
//!   cost-advisor mapping. [`standard_registry`] holds the five shipped
//!   mechanisms (whole-set, hash-set, bloom, art, riblt).
//! * [`SummarySizing`] / [`DiffEstimate`] — the inputs constructors and
//!   cost advisors consume.
//!
//! # Adding a summary
//!
//! A new mechanism plugs in without touching sessions, policy, or the
//! wire layer:
//!
//! 1. Add a module to `icd-sketch` whose digest type implements
//!    [`Reconciler`] and [`SetSummary`].
//! 2. Write its [`SummarySpec`]: pick an unused [`SummaryId`], and
//!    provide `build`, `decode`, and the three analytic advisors
//!    (`wire_cost`, `compute_cost`, `expected_recall`) that the transfer
//!    policy ([`crate::policy`]) scores.
//! 3. Add the spec to the list [`standard_registry`] is built from.
//!
//! The mechanism then travels in the generic `Message::Summary` wire
//! frame, is eligible for policy selection, and can be swept by the
//! experiment grid exactly like the built-ins.

use icd_sketch::OverlapEstimate;

pub use icd_sketch::{
    standard_registry, DiffEstimate, Reconciler, SetSummary, SummaryError, SummaryId,
    SummaryRegistry, SummarySizing, SummarySpec,
};

/// Converts a sketch-exchange estimate into the [`DiffEstimate`] the
/// summary constructors and cost advisors consume. Directions follow the
/// session roles: `self` = A = the summarizing receiver, peer = B = the
/// candidate sender whose set gets searched.
#[must_use]
pub fn diff_estimate(estimate: &OverlapEstimate) -> DiffEstimate {
    let expected_new =
        (estimate.useful_fraction_of_b() * estimate.size_b() as f64).round() as usize;
    DiffEstimate::new(
        estimate.size_a() as usize,
        estimate.size_b() as usize,
        expected_new,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_estimate_directions() {
        // A = 1000, B = 1300, r such that B∖A ≈ 300.
        let est = OverlapEstimate::from_resemblance(1000.0 / 1300.0, 1000, 1300);
        let d = diff_estimate(&est);
        assert_eq!(d.summarized, 1000);
        assert_eq!(d.searched, 1300);
        assert!(
            (d.expected_new as i64 - 300).abs() <= 2,
            "got {}",
            d.expected_new
        );
        assert!(d.expected_delta >= d.expected_new);
    }
}
