//! Accuracy measurement harness for Figure 4(a) and Tables 4(b,c).
//!
//! The paper reports "fraction of differences found" for an ART summary
//! under varying bit budgets, leaf/internal splits, and correction
//! levels. This module provides the repeatable experiment: generate two
//! working sets with a controlled difference, summarize one, search from
//! the other, and score. Both the test suite and the `fig4a`/`table4b`/
//! `table4c` harness binaries drive it.

use icd_util::rng::{Rng64, Xoshiro256StarStar};
use icd_util::stats::Summary;

use crate::art::search::search_differences_with_correction;
use crate::art::summary::{ArtSummary, SummaryParams};
use crate::art::tree::{ArtParams, ReconciliationTree};

/// Configuration of one accuracy experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyConfig {
    /// Elements in peer A's set (the summarized side).
    pub set_size: usize,
    /// Elements of B's set absent from A (the search target, "d").
    pub differences: usize,
    /// Total summary budget in bits per element.
    pub total_bits_per_element: f64,
    /// Leaf-filter share of the budget, in bits per element.
    pub leaf_bits_per_element: f64,
    /// Correction level used during search.
    pub correction: u32,
    /// Independent trials to average over.
    pub trials: usize,
    /// Base seed; trial t uses seed + t.
    pub seed: u64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        Self {
            set_size: 10_000,
            differences: 200,
            total_bits_per_element: 8.0,
            leaf_bits_per_element: 4.0,
            correction: 1,
            trials: 5,
            seed: 0x41CC,
        }
    }
}

/// Runs the experiment and returns per-trial "fraction of the true
/// difference found" as a [`Summary`].
#[must_use]
pub fn measure_accuracy(cfg: &AccuracyConfig) -> Summary {
    let mut results = Summary::new();
    for trial in 0..cfg.trials {
        results.push(run_trial(cfg, cfg.seed.wrapping_add(trial as u64)));
    }
    results
}

/// One trial: builds A = shared set, B = shared ∪ d fresh keys, and
/// scores the search. Mirrors the compact-scenario geometry of §5.3
/// ("less than 1% of the symbols at peer B might be useful to peer A").
fn run_trial(cfg: &AccuracyConfig, seed: u64) -> f64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let shared: Vec<u64> = (0..cfg.set_size).map(|_| rng.next_u64()).collect();
    let fresh: Vec<u64> = (0..cfg.differences).map(|_| rng.next_u64()).collect();
    let params = ArtParams::default();
    let tree_a = ReconciliationTree::from_keys(params, shared.iter().copied());
    let mut b_keys = shared;
    b_keys.extend(fresh.iter().copied());
    let tree_b = ReconciliationTree::from_keys(params, b_keys);
    let summary_params = SummaryParams::with_split(
        cfg.total_bits_per_element,
        cfg.leaf_bits_per_element,
        cfg.correction,
    );
    let summary = ArtSummary::build(&tree_a, summary_params);
    let out = search_differences_with_correction(&tree_b, &summary, cfg.correction);
    if cfg.differences == 0 {
        return 1.0;
    }
    out.missing_at_peer.len() as f64 / cfg.differences as f64
}

/// Sweeps the leaf/internal split for a fixed total budget and correction
/// and returns `(leaf_bits, mean accuracy)` pairs — Figure 4(a)'s series.
#[must_use]
pub(crate) fn sweep_split(base: &AccuracyConfig, leaf_bits_grid: &[f64]) -> Vec<(f64, f64)> {
    leaf_bits_grid
        .iter()
        .map(|&leaf_bits| {
            let cfg = AccuracyConfig {
                leaf_bits_per_element: leaf_bits,
                ..*base
            };
            (leaf_bits, measure_accuracy(&cfg).mean())
        })
        .collect()
}

/// Finds the best leaf/internal split for a budget and correction level
/// (the "optimal distribution of bits" used by Table 4(b)), searching a
/// half-bit grid. Returns `(leaf_bits, accuracy)`.
#[must_use]
pub fn optimal_split(base: &AccuracyConfig) -> (f64, f64) {
    let mut grid = Vec::new();
    let steps = (base.total_bits_per_element * 2.0) as usize;
    for i in 0..=steps {
        grid.push(i as f64 * 0.5);
    }
    sweep_split(base, &grid)
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("accuracy is finite"))
        .expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(set_size: usize, differences: usize) -> AccuracyConfig {
        AccuracyConfig {
            set_size,
            differences,
            trials: 3,
            ..AccuracyConfig::default()
        }
    }

    #[test]
    fn accuracy_in_unit_interval() {
        let s = measure_accuracy(&quick(2000, 50));
        assert!(s.min() >= 0.0 && s.max() <= 1.0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn more_bits_more_accuracy() {
        let lo = measure_accuracy(&AccuracyConfig {
            total_bits_per_element: 2.0,
            leaf_bits_per_element: 1.0,
            correction: 2,
            ..quick(3000, 100)
        })
        .mean();
        let hi = measure_accuracy(&AccuracyConfig {
            total_bits_per_element: 12.0,
            leaf_bits_per_element: 6.0,
            correction: 2,
            ..quick(3000, 100)
        })
        .mean();
        assert!(hi > lo, "12 bpe ({hi}) should beat 2 bpe ({lo})");
    }

    #[test]
    fn correction_recovers_accuracy() {
        let base = quick(3000, 100);
        let c0 = measure_accuracy(&AccuracyConfig {
            correction: 0,
            ..base
        })
        .mean();
        let c5 = measure_accuracy(&AccuracyConfig {
            correction: 5,
            ..base
        })
        .mean();
        assert!(c5 >= c0, "correction 5 ({c5}) must not lose to 0 ({c0})");
    }

    #[test]
    fn extreme_splits_hurt() {
        // Figure 4(a): both all-leaf and no-leaf splits underperform an
        // interior split.
        let base = AccuracyConfig {
            correction: 3,
            ..quick(3000, 100)
        };
        let all_leaf = measure_accuracy(&AccuracyConfig {
            leaf_bits_per_element: base.total_bits_per_element,
            ..base
        })
        .mean();
        let no_leaf = measure_accuracy(&AccuracyConfig {
            leaf_bits_per_element: 0.0,
            ..base
        })
        .mean();
        let (best_split, best) = optimal_split(&base);
        assert!(best >= all_leaf && best >= no_leaf);
        assert!(best_split > 0.0 && best_split < base.total_bits_per_element);
    }

    #[test]
    fn zero_differences_is_full_accuracy() {
        let s = measure_accuracy(&quick(1000, 0));
        assert_eq!(s.mean(), 1.0);
    }
}
