//! Analytic Bloom-filter behaviour (§5.2's formula and sizing rules).
//!
//! The paper quotes `f = (1 − e^{−kn/m})^k` and two calibration points;
//! this module owns the formula, the optimal-k rule `k = (m/n)·ln 2`, and
//! inverse sizing (bits needed for a target false-positive rate). The
//! `bloom_fp_table` experiment (`figures bloom_fp_table`) measures
//! [`super::BloomFilter`] against them, and `tests/paper_numbers.rs`
//! holds every measured row within 4σ of the formula.

/// False-positive probability of an `m`-bit, `k`-hash filter holding `n`
/// elements: `(1 − e^{−kn/m})^k`. Returns 1.0 for degenerate geometry.
#[must_use]
pub fn false_positive_rate(m: usize, n: u64, k: u32) -> f64 {
    if m == 0 || k == 0 {
        return 1.0;
    }
    if n == 0 {
        return 0.0;
    }
    let exponent = -(k as f64) * (n as f64) / (m as f64);
    (1.0 - exponent.exp()).powi(k as i32)
}

/// The integer `k` minimizing the false-positive rate at a given
/// bits-per-element ratio: `round((m/n)·ln 2)`, clamped to ≥ 1.
#[must_use]
pub fn optimal_hashes(bits_per_element: f64) -> u32 {
    assert!(bits_per_element > 0.0, "bits_per_element must be positive");
    ((bits_per_element * std::f64::consts::LN_2).round() as u32).max(1)
}

/// False-positive rate at `bits_per_element` with the optimal `k`.
#[must_use]
pub fn fp_rate_per_element(bits_per_element: f64) -> f64 {
    let k = optimal_hashes(bits_per_element);
    // Treat m/n = bits_per_element directly.
    let exponent = -(k as f64) / bits_per_element;
    (1.0 - exponent.exp()).powi(k as i32)
}

/// Bits per element required to reach a target false-positive rate with
/// optimal hashing: `m/n = −log2(f) / ln 2 ≈ 1.44·log2(1/f)`.
#[must_use]
pub fn bits_per_element_for(target_fp: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&target_fp) && target_fp > 0.0,
        "target false-positive rate must lie in (0, 1)"
    );
    -target_fp.log2() / std::f64::consts::LN_2
}

/// Expected number of useful symbols *withheld* when a sender filters `d`
/// genuinely useful symbols through a receiver filter with false-positive
/// rate `f`: `d·f`. Used by the simulator's analytic cross-checks.
#[must_use]
pub fn expected_withheld(d: u64, fp_rate: f64) -> f64 {
    d as f64 * fp_rate.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_point_4_bits_3_hashes() {
        // §5.2: 14.7 % at 4 bits/element, 3 hash functions.
        let f = false_positive_rate(4 * 10_000, 10_000, 3);
        assert!((f - 0.147).abs() < 0.001, "got {f}");
    }

    #[test]
    fn paper_calibration_point_8_bits_5_hashes() {
        // §5.2: 2.2 % at 8 bits/element, 5 hash functions.
        let f = false_positive_rate(8 * 10_000, 10_000, 5);
        assert!((f - 0.022).abs() < 0.001, "got {f}");
    }

    #[test]
    fn degenerate_geometry_saturates() {
        assert_eq!(false_positive_rate(0, 10, 3), 1.0);
        assert_eq!(false_positive_rate(100, 10, 0), 1.0);
        assert_eq!(false_positive_rate(100, 0, 3), 0.0);
    }

    #[test]
    fn rate_monotone_in_load() {
        let mut last = 0.0;
        for n in [100u64, 200, 400, 800, 1600] {
            let f = false_positive_rate(3200, n, 3);
            assert!(f > last, "fp rate must grow with n");
            last = f;
        }
    }

    #[test]
    fn optimal_hashes_known_values() {
        assert_eq!(optimal_hashes(4.0), 3); // 4 ln2 ≈ 2.77 → 3
        assert_eq!(optimal_hashes(8.0), 6); // 8 ln2 ≈ 5.55 → 6
        assert_eq!(optimal_hashes(10.0), 7);
        assert_eq!(optimal_hashes(0.5), 1); // clamped
    }

    #[test]
    fn optimal_k_beats_neighbours() {
        for bpe in [4.0f64, 6.0, 8.0, 12.0] {
            let k_opt = optimal_hashes(bpe);
            let m = (bpe * 10_000.0) as usize;
            let f_opt = false_positive_rate(m, 10_000, k_opt);
            for dk in [-1i32, 1] {
                let k = k_opt as i32 + dk;
                if k >= 1 {
                    let f_alt = false_positive_rate(m, 10_000, k as u32);
                    assert!(
                        f_opt <= f_alt + 1e-9,
                        "k={k_opt} should beat k={k} at {bpe} bpe"
                    );
                }
            }
        }
    }

    #[test]
    fn sizing_inverse_is_consistent() {
        for target in [0.1f64, 0.02, 0.001] {
            let bpe = bits_per_element_for(target);
            let achieved = fp_rate_per_element(bpe);
            // Integer-k rounding keeps us within a factor ~2 of target.
            assert!(
                achieved <= target * 2.0,
                "target {target}: {bpe} bpe achieves only {achieved}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn sizing_rejects_zero_target() {
        let _ = bits_per_element_for(0.0);
    }

    #[test]
    fn expected_withheld_scales() {
        assert_eq!(expected_withheld(1000, 0.022), 22.0);
        assert_eq!(expected_withheld(0, 0.5), 0.0);
        assert_eq!(expected_withheld(10, 2.0), 10.0); // clamped
    }
}
