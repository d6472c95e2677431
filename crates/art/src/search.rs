//! Difference search: peer B walks its own tree against peer A's summary.
//!
//! At each internal node of B's tree the search probes A's internal
//! filter with the node's value:
//!
//! * **match** — A probably has an identical subtree. One more entry in
//!   the run of consecutive matches; once the run exceeds the correction
//!   level the subtree is pruned ("correction level of 0 stops the search
//!   at the first match found while a correction level of 1 allows one
//!   match at an internal node but stops if a child of that node also
//!   matches", §5.3).
//! * **mismatch** — definite difference below; the run resets to zero and
//!   the search descends.
//!
//! At a leaf, A's leaf filter gets the final word: a miss means A
//! provably lacks this leaf's content (Bloom filters have no false
//! negatives), so the leaf's keys are reported as elements of S_B − S_A.
//! A false positive at a leaf or an over-long match run in the interior
//! silently *hides* differences — which is exactly the accuracy loss
//! Figure 4 and Table 4(b) of the paper quantify, and what the
//! `fig4a`/`table4b` harnesses reproduce.

use crate::summary::ArtSummary;
use crate::tree::{Node, ReconciliationTree};

/// Result of a difference search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Keys of `own_tree` that the summary proves absent from the peer —
    /// a subset of the true difference (never a superset, up to 64-bit
    /// hash collisions).
    pub missing_at_peer: Vec<u64>,
    /// Internal-node filter probes performed (speed metric).
    pub internal_probes: usize,
    /// Leaf filter probes performed.
    pub leaf_probes: usize,
    /// Nodes visited in total — the paper's O(d log n) claim is about
    /// this number.
    pub nodes_visited: usize,
}

impl SearchOutcome {
    /// Total filter probes.
    #[must_use]
    pub fn total_probes(&self) -> usize {
        self.internal_probes + self.leaf_probes
    }
}

/// Searches `own_tree` (peer B's tree) against `peer_summary` (built from
/// peer A's tree) and reports elements of B's set that A provably lacks.
///
/// The correction level is taken from the summary, which advertises how
/// it was sized. An explicit stack keeps the walk iterative — tree depth
/// is O(log n) w.h.p. but untrusted input must not overflow the call
/// stack.
#[must_use]
pub fn search_differences(
    own_tree: &ReconciliationTree,
    peer_summary: &ArtSummary,
) -> SearchOutcome {
    search_differences_with_correction(own_tree, peer_summary, peer_summary.correction())
}

/// [`search_differences`] with an explicit correction level (used by the
/// accuracy experiments to sweep corrections over one summary).
#[must_use]
pub(crate) fn search_differences_with_correction(
    own_tree: &ReconciliationTree,
    peer_summary: &ArtSummary,
    correction: u32,
) -> SearchOutcome {
    let mut outcome = SearchOutcome::default();
    let Some(root) = own_tree.root() else {
        return outcome;
    };
    // (node, consecutive internal matches on the path so far)
    let mut stack: Vec<(u32, u32)> = vec![(root, 0)];
    while let Some((id, run)) = stack.pop() {
        outcome.nodes_visited += 1;
        match own_tree.node(id) {
            Node::Leaf { value, keys, .. } => {
                outcome.leaf_probes += 1;
                if !peer_summary.matches_leaf(*value) {
                    outcome.missing_at_peer.extend_from_slice(keys);
                }
            }
            Node::Internal { value, left, right, .. } => {
                outcome.internal_probes += 1;
                let run = if peer_summary.matches_internal(*value) {
                    // A run longer than the correction level prunes.
                    if run >= correction {
                        continue;
                    }
                    run + 1
                } else {
                    0
                };
                stack.push((*left, run));
                stack.push((*right, run));
            }
        }
    }
    outcome.missing_at_peer.sort_unstable();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryParams;
    use crate::tree::ArtParams;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};
    use std::collections::HashSet;

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Builds peer sets: `shared` common keys, plus `b_extra` keys only B
    /// has. Returns (a_keys, b_keys, true_difference).
    fn scenario(shared: usize, b_extra: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let common = keys(shared, seed);
        let extra = keys(b_extra, seed ^ 0xDEAD_BEEF);
        let a = common.clone();
        let mut b = common;
        b.extend(extra.iter().copied());
        (a, b, extra)
    }

    #[test]
    fn identical_sets_report_nothing() {
        let params = ArtParams::default();
        let ks = keys(1000, 1);
        let a = ReconciliationTree::from_keys(params, ks.iter().copied());
        let b = ReconciliationTree::from_keys(params, ks.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::standard());
        let out = search_differences(&b, &summary);
        assert!(out.missing_at_peer.is_empty());
        // Root matches immediately; at correction 5 the search still
        // prunes long before visiting everything.
        assert!(out.nodes_visited < 2 * b.len());
    }

    #[test]
    fn reported_differences_are_true_differences() {
        // The one-sided-error invariant, inherited from Bloom filters.
        let (a_keys, b_keys, _) = scenario(2000, 100, 2);
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, a_keys.iter().copied());
        let b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::with_split(8.0, 4.0, 5));
        let out = search_differences(&b, &summary);
        let a_set: HashSet<u64> = a_keys.into_iter().collect();
        for k in &out.missing_at_peer {
            assert!(!a_set.contains(k), "reported {k} is actually present at A");
        }
        assert!(!out.missing_at_peer.is_empty(), "should find some differences");
    }

    #[test]
    fn higher_correction_finds_more() {
        let (a_keys, b_keys, truth) = scenario(5000, 250, 3);
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, a_keys.iter().copied());
        let b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
        // Skinny internal filter → many interior false positives →
        // correction matters (this is Figure 4(a)'s mechanism).
        let summary = ArtSummary::build(&a, SummaryParams::with_split(4.0, 2.0, 5));
        let mut found = Vec::new();
        for corr in 0..=5 {
            let out = search_differences_with_correction(&b, &summary, corr);
            found.push(out.missing_at_peer.len());
        }
        assert!(
            found.windows(2).all(|w| w[0] <= w[1]),
            "accuracy must be monotone in correction: {found:?}"
        );
        assert!(
            found[5] > found[0],
            "correction should recover pruned differences: {found:?}"
        );
        assert!(found[5] <= truth.len());
    }

    #[test]
    fn generous_budget_finds_nearly_all() {
        let (a_keys, b_keys, truth) = scenario(2000, 100, 4);
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, a_keys.iter().copied());
        let b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::with_split(16.0, 8.0, 5));
        let out = search_differences(&b, &summary);
        let frac = out.missing_at_peer.len() as f64 / truth.len() as f64;
        assert!(frac > 0.9, "found only {frac} of differences");
    }

    #[test]
    fn search_cost_scales_with_difference_not_set_size() {
        // The paper's speed claim: O(d log n) nodes visited, against the
        // O(n) probes of plain Bloom reconciliation. Correction multiplies
        // the constant by up to 2^c (each boundary node explores a
        // matching sibling subtree for c more levels), so measure at a
        // low correction with a roomy filter.
        let params = ArtParams::default();
        let d = 20usize;
        let (a_keys, b_keys, _) = scenario(20_000, d, 5);
        let a = ReconciliationTree::from_keys(params, a_keys.iter().copied());
        let b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::with_split(16.0, 8.0, 1));
        let out = search_differences(&b, &summary);
        let depth = b.depth();
        let analytic_bound = d * depth * 4; // d paths × depth × 2^(c+1)
        assert!(
            out.nodes_visited <= analytic_bound,
            "visited {} nodes, analytic bound {analytic_bound}",
            out.nodes_visited
        );
        assert!(
            out.nodes_visited < b_keys.len() / 4,
            "visited {} of ~{} nodes — not sublinear",
            out.nodes_visited,
            2 * b_keys.len()
        );
    }

    #[test]
    fn correction_trades_visits_for_accuracy() {
        // Visits grow with correction level; found differences too.
        let params = ArtParams::default();
        let (a_keys, b_keys, _) = scenario(10_000, 50, 9);
        let a = ReconciliationTree::from_keys(params, a_keys.iter().copied());
        let b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::with_split(8.0, 4.0, 5));
        let visits: Vec<usize> = (0..=5)
            .map(|c| search_differences_with_correction(&b, &summary, c).nodes_visited)
            .collect();
        assert!(
            visits.windows(2).all(|w| w[0] <= w[1]),
            "visits must be monotone in correction: {visits:?}"
        );
        assert!(visits[5] > visits[0]);
    }

    #[test]
    fn empty_own_tree_reports_nothing() {
        let params = ArtParams::default();
        let a = ReconciliationTree::from_keys(params, keys(100, 6));
        let b = ReconciliationTree::from_keys(params, []);
        let summary = ArtSummary::build(&a, SummaryParams::standard());
        let out = search_differences(&b, &summary);
        assert!(out.missing_at_peer.is_empty());
        assert_eq!(out.nodes_visited, 0);
    }

    #[test]
    fn empty_peer_everything_is_missing() {
        let params = ArtParams::default();
        let ks = keys(500, 7);
        let a = ReconciliationTree::from_keys(params, []);
        let b = ReconciliationTree::from_keys(params, ks.iter().copied());
        let summary = ArtSummary::build(&a, SummaryParams::standard());
        let out = search_differences(&b, &summary);
        let mut expect = ks;
        expect.sort_unstable();
        assert_eq!(out.missing_at_peer, expect);
    }
}
