//! Cross-method reconciliation cost measurement.
//!
//! §5.1 and Table 4(c) make quantitative claims about the tradeoffs
//! between exact and approximate reconciliation. This module runs every
//! method implemented in the workspace on one controlled scenario and
//! records, per method: bytes on the wire, build time at the sender,
//! reconcile time at the receiver, and the fraction of the true
//! difference recovered. The `recon_cost_table` experiment renders the table;
//! integration tests assert the orderings the paper claims.

use std::collections::HashSet;
use std::time::Instant;

use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::art::{search_differences, ArtParams, ArtSummary, ReconciliationTree, SummaryParams};
use crate::bloom::BloomFilter;
use crate::exact::hashset::HashSetMessage;
use crate::exact::riblt::{Encoder, Peeler, CELL_BYTES};
use crate::exact::wholeset::WholeSetMessage;

/// One scenario: peer A's set, peer B's set, and the true difference.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Keys at peer A (the summarizing side).
    pub a_keys: Vec<u64>,
    /// Keys at peer B (the searching side).
    pub b_keys: Vec<u64>,
    /// The true S_B ∖ S_A.
    pub true_difference: Vec<u64>,
}

impl Scenario {
    /// Builds a scenario with `shared` common keys and `b_only` keys
    /// exclusive to B (the direction all methods recover).
    #[must_use]
    pub fn generate(shared: usize, b_only: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed);
        let common: Vec<u64> = (0..shared).map(|_| rng.next_u64()).collect();
        let fresh: Vec<u64> = (0..b_only).map(|_| rng.next_u64()).collect();
        let a_keys = common.clone();
        let mut b_keys = common;
        b_keys.extend(fresh.iter().copied());
        let mut true_difference = fresh;
        true_difference.sort_unstable();
        Self {
            a_keys,
            b_keys,
            true_difference,
        }
    }
}

/// Measured costs of one method on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Method name (stable identifiers, used by tests and the table).
    pub method: &'static str,
    /// Bytes peer A put on the wire.
    pub wire_bytes: usize,
    /// Sender-side construction time in nanoseconds.
    pub build_ns: u128,
    /// Receiver-side reconciliation time in nanoseconds.
    pub reconcile_ns: u128,
    /// |found ∩ true| / |true| — recall of the true difference.
    pub accuracy: f64,
    /// Whether anything *not* in the true difference was reported
    /// (should be false for every method here; the invariant all of
    /// §5's machinery preserves).
    pub false_reports: bool,
}

/// The full report for one scenario.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// One row per method.
    pub rows: Vec<CostRow>,
}

fn score(found: &[u64], scenario: &Scenario) -> (f64, bool) {
    let truth: HashSet<u64> = scenario.true_difference.iter().copied().collect();
    let hits = found.iter().filter(|k| truth.contains(k)).count();
    let false_reports = found.iter().any(|k| !truth.contains(k));
    let accuracy = if truth.is_empty() {
        1.0
    } else {
        hits as f64 / truth.len() as f64
    };
    (accuracy, false_reports)
}

/// Runs every method on the scenario.
#[must_use]
pub fn measure_all(scenario: &Scenario) -> CostReport {
    let mut rows = Vec::new();

    // Whole set.
    {
        let t0 = Instant::now();
        let msg = WholeSetMessage::build(&scenario.a_keys);
        let build_ns = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let found = msg.missing_at_sender(&scenario.b_keys);
        let reconcile_ns = t1.elapsed().as_nanos();
        let (accuracy, false_reports) = score(&found, scenario);
        rows.push(CostRow {
            method: "whole-set",
            wire_bytes: msg.wire_size(),
            build_ns,
            reconcile_ns,
            accuracy,
            false_reports,
        });
    }

    // Hash set (16-bit truncated hashes).
    {
        let t0 = Instant::now();
        let msg = HashSetMessage::build(&scenario.a_keys, 16);
        let build_ns = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let found = msg.missing_at_sender(&scenario.b_keys);
        let reconcile_ns = t1.elapsed().as_nanos();
        let (accuracy, false_reports) = score(&found, scenario);
        rows.push(CostRow {
            method: "hash-set-16",
            wire_bytes: msg.wire_size(),
            build_ns,
            reconcile_ns,
            accuracy,
            false_reports,
        });
    }

    // Rateless IBLT: A streams cells until B's peel completes, so the
    // row reports the smallest prefix that peels. Build time is A's
    // coding, reconcile time B's coding plus the peel.
    {
        let t0 = Instant::now();
        let mut encoder = Encoder::new(&scenario.a_keys);
        let mut build = t0.elapsed();
        let t1 = Instant::now();
        let mut peeler = Peeler::new(&scenario.b_keys);
        let mut reconcile = t1.elapsed();
        while !peeler.is_done() {
            let t = Instant::now();
            let cell = encoder.next_cell();
            let coded = Instant::now();
            peeler.push(&cell);
            build += coded - t;
            reconcile += coded.elapsed();
        }
        let cells = peeler.cells_received();
        let found = peeler.missing_at_peer();
        let (accuracy, false_reports) = score(&found, scenario);
        rows.push(CostRow {
            method: "riblt",
            wire_bytes: CELL_BYTES * cells + 4,
            build_ns: build.as_nanos(),
            reconcile_ns: reconcile.as_nanos(),
            accuracy,
            false_reports,
        });
    }

    // Bloom filter at the paper's 8 bits/element.
    {
        let t0 = Instant::now();
        let mut filter = BloomFilter::new(8 * scenario.a_keys.len().max(1), 5, 0xB100);
        for &k in &scenario.a_keys {
            filter.insert(k);
        }
        let build_ns = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let found: Vec<u64> = scenario
            .b_keys
            .iter()
            .copied()
            .filter(|&k| !filter.contains(k))
            .collect();
        let reconcile_ns = t1.elapsed().as_nanos();
        let (accuracy, false_reports) = score(&found, scenario);
        rows.push(CostRow {
            method: "bloom-8bpe",
            wire_bytes: filter.wire_size(),
            build_ns,
            reconcile_ns,
            accuracy,
            false_reports,
        });
    }

    // Approximate reconciliation tree at 8 bits/element, correction 5.
    {
        let params = ArtParams::default();
        let t0 = Instant::now();
        let tree_a = ReconciliationTree::from_keys(params, scenario.a_keys.iter().copied());
        let summary = ArtSummary::build(&tree_a, SummaryParams::standard());
        let build_ns = t0.elapsed().as_nanos();
        // §4 counts B's tree as maintained incrementally, so its
        // construction is not part of per-reconciliation time (the
        // session machines build it per exchange instead).
        let tree_b = ReconciliationTree::from_keys(params, scenario.b_keys.iter().copied());
        let t1 = Instant::now();
        let out = search_differences(&tree_b, &summary);
        let reconcile_ns = t1.elapsed().as_nanos();
        let (accuracy, false_reports) = score(&out.missing_at_peer, scenario);
        rows.push(CostRow {
            method: "art-8bpe-c5",
            wire_bytes: summary.wire_size(),
            build_ns,
            reconcile_ns,
            accuracy,
            false_reports,
        });
    }

    CostReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rep: &'a CostReport, method: &str) -> &'a CostRow {
        rep.rows
            .iter()
            .find(|r| r.method == method)
            .expect("method row")
    }

    fn report() -> (Scenario, CostReport) {
        let scenario = Scenario::generate(5000, 100, 42);
        let rep = measure_all(&scenario);
        (scenario, rep)
    }

    #[test]
    fn no_method_reports_false_differences() {
        let (_, rep) = report();
        for row in &rep.rows {
            assert!(
                !row.false_reports,
                "{} reported false differences",
                row.method
            );
        }
    }

    #[test]
    fn exact_methods_are_exact() {
        let (_, rep) = report();
        assert_eq!(row(&rep, "whole-set").accuracy, 1.0);
        assert_eq!(row(&rep, "riblt").accuracy, 1.0);
    }

    #[test]
    fn approximate_methods_are_close() {
        let (_, rep) = report();
        assert!(row(&rep, "bloom-8bpe").accuracy > 0.9);
        assert!(row(&rep, "art-8bpe-c5").accuracy > 0.7);
    }

    #[test]
    fn wire_cost_ordering_matches_paper() {
        // §5.1/§5.2: O(d) sketch ≪ Bloom/ART ≪ hash set < whole set.
        let (_, rep) = report();
        let riblt = row(&rep, "riblt").wire_bytes;
        let bloom = row(&rep, "bloom-8bpe").wire_bytes;
        let art = row(&rep, "art-8bpe-c5").wire_bytes;
        let hash = row(&rep, "hash-set-16").wire_bytes;
        let whole = row(&rep, "whole-set").wire_bytes;
        assert!(riblt < bloom, "riblt {riblt} vs bloom {bloom}");
        assert!(bloom <= art * 2, "bloom and ART are the same order");
        assert!(art < hash, "art {art} vs hash {hash}");
        assert!(hash < whole, "hash {hash} vs whole {whole}");
    }

    #[test]
    fn riblt_prefix_grows_with_the_difference() {
        // Rateless: the row sends what the difference needs — about
        // 1.4·d cells — not a bound fixed in advance.
        for d in [50usize, 400] {
            let rep = measure_all(&Scenario::generate(1000, d, 7));
            let cells = (row(&rep, "riblt").wire_bytes - 4) / CELL_BYTES;
            assert!(cells >= d && cells <= 3 * d, "d = {d}: {cells} cells");
            assert_eq!(row(&rep, "riblt").accuracy, 1.0);
        }
    }

    #[test]
    fn empty_difference_scores_one() {
        let scenario = Scenario::generate(500, 0, 9);
        let rep = measure_all(&scenario);
        for row in &rep.rows {
            assert_eq!(row.accuracy, 1.0, "{} on empty difference", row.method);
        }
    }
}
