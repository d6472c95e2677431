//! Numeric fidelity: measured behaviour against the paper's closed forms
//! and calibration points, each within a stated statistical band.
//!
//! * §5.2 — every Bloom calibration row of the `bloom_fp_table`
//!   experiment measures its false-positive rate within 4σ (binomial
//!   over the row's probes) of `(1 − e^{−kn/m})^k`, and the formula
//!   gives the paper's 14.7 % and 2.2 % at its two points.
//! * §5.4.2 — the closed-form recoding degree `d*(c)` maximises the
//!   exact probability that a recoded symbol is immediately useful.
//! * §6.1 — the decoding overhead at the paper's l = 23 968, mean plus
//!   its 95 % half-width, is within the 7 % the simulations assume.
//!
//! These assert numbers, where `paper_shapes.rs` asserts directions.

use icd_bench::experiments::calibration::{bloom_fp_rows, BloomFpRow, BLOOM_PROBES};
use icd_bench::ExpConfig;
use icd_fountain::overhead::{measure_overhead, OverheadReport, PAPER_ASSUMED_OVERHEAD};
use icd_fountain::recode::{immediately_useful_probability, optimal_degree};
use icd_sketch::bloom::math::{
    bits_per_element_for, expected_withheld, false_positive_rate, fp_rate_per_element,
    optimal_hashes,
};
use icd_sketch::bloom::BloomFilter;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

fn cfg() -> ExpConfig {
    ExpConfig {
        num_blocks: 5_000,
        trials: 1,
        base_seed: 0x1CD_2002,
        threads: 2,
    }
}

/// Binomial standard deviation of a rate `p` measured over `trials`.
fn sigma(p: f64, trials: usize) -> f64 {
    (p * (1.0 - p) / trials as f64).sqrt()
}

#[test]
fn bloom_rows_measure_the_analytic_rate() {
    let rows: Vec<BloomFpRow> = bloom_fp_rows(&cfg());
    assert_eq!(rows.len(), 6);
    for row in &rows {
        let m = (row.bits_per_element * row.items as f64) as usize;
        let analytic = false_positive_rate(m, row.items as u64, row.hashes);
        assert_eq!(row.analytic, analytic);
        // False positives among the probes, against d·f of them.
        let counted = row.measured * BLOOM_PROBES as f64;
        let expected = expected_withheld(BLOOM_PROBES as u64, analytic);
        let band = 4.0 * sigma(analytic, BLOOM_PROBES) * BLOOM_PROBES as f64;
        assert!(
            (counted - expected).abs() <= band,
            "{} bits/elem, k={}: {counted} false positives, expected {expected:.0} ± {band:.0}",
            row.bits_per_element,
            row.hashes
        );
        // No row's hash count beats the optimal k = round((m/n)·ln 2).
        assert!(
            fp_rate_per_element(row.bits_per_element) <= analytic + 1e-12,
            "k={} beats k={} at {} bits/elem",
            row.hashes,
            optimal_hashes(row.bits_per_element),
            row.bits_per_element
        );
    }
}

#[test]
fn bloom_formula_gives_the_paper_points() {
    let rows = bloom_fp_rows(&cfg());
    for (bits, hashes, paper) in [(4.0, 3, "0.147"), (8.0, 5, "0.022")] {
        let row = rows
            .iter()
            .find(|r| r.bits_per_element == bits && r.hashes == hashes)
            .expect("paper calibration point in the table");
        assert_eq!(format!("{:.3}", row.analytic), paper);
        assert_eq!(row.paper.map(|p| format!("{p:.3}")).as_deref(), Some(paper));
        // Optimal sizing for the rate, −log₂ f / ln 2 bits per element,
        // rounds up to the paper's budget.
        assert_eq!(bits_per_element_for(row.analytic).ceil(), bits);
    }
}

#[test]
fn bloom_filter_predictions_match_the_formula() {
    // The (8 bits, 5 hashes) filter: the nominal-geometry formula and
    // the load-based estimate (fraction of bits set)^k agree with the
    // closed form within the calibration band.
    let n = 5_000usize;
    let mut filter = BloomFilter::new(8 * n, 5, 0x1CD);
    let mut rng = Xoshiro256StarStar::new(0xB100);
    for _ in 0..n {
        filter.insert(rng.next_u64());
    }
    let analytic = false_positive_rate(8 * n, n as u64, 5);
    assert_eq!(filter.analytic_fp_rate(n as u64), analytic);
    let predicted = filter.predicted_fp_rate();
    assert!(
        (predicted - analytic).abs() <= 4.0 * sigma(analytic, BLOOM_PROBES),
        "load^k = {predicted}, formula {analytic}"
    );
}

#[test]
fn optimal_recoding_degree_maximises_immediate_usefulness() {
    for n in [200usize, 1_000, 5_000] {
        for c in [0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98] {
            let best = (1..=50)
                .map(|d| immediately_useful_probability(n, c, d))
                .fold(0.0, f64::max);
            let d = optimal_degree(n, c);
            let at_optimum = immediately_useful_probability(n, c, d);
            assert!(
                at_optimum >= best * (1.0 - 1e-9),
                "n={n}, c={c}: d*={d} gives {at_optimum}, the best degree {best}"
            );
        }
    }
}

#[test]
fn decoding_overhead_is_within_the_paper_assumption() {
    let report: OverheadReport = measure_overhead(23_968, 6, 0x1CD_2002);
    let upper = report.overhead.mean() + report.overhead.ci95();
    assert!(
        upper <= PAPER_ASSUMED_OVERHEAD,
        "l={}: overhead {:.4} + {:.4} exceeds the assumed {PAPER_ASSUMED_OVERHEAD}",
        report.num_blocks,
        report.overhead.mean(),
        report.overhead.ci95()
    );
}
