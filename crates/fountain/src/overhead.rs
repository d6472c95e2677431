//! Decoding-overhead measurement (§6.1's coding-parameters table).
//!
//! §6.1 reports two numbers for the authors' code at l = 23 968: average
//! degree 11 and "average decoding overhead of 6.8 %", and then runs the
//! simulations with a flat 7 % assumption. This module measures both for
//! our code so the `coding_table` harness can print the paper-vs-measured
//! comparison, and so the simulator's `decode_overhead` knob has an
//! empirically grounded default.

use icd_util::rng::{Rng64, SplitMix64};
use icd_util::stats::Summary;

use crate::decoder::{DecodeStatus, Decoder};
use crate::degree::DegreeDistribution;
use crate::encoder::CodeSpec;
use crate::encoder::EncodedSymbol;

/// The constant decoding overhead §6.1 assumes for its simulations.
pub const PAPER_ASSUMED_OVERHEAD: f64 = 0.07;

/// Result of an overhead measurement campaign.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Number of source blocks measured.
    pub num_blocks: usize,
    /// Mean degree of the distribution used.
    pub mean_degree: f64,
    /// Per-trial decoding overhead ε (received/l − 1) at completion.
    pub overhead: Summary,
}

/// Measures decoding overhead for `num_blocks` source blocks over
/// `trials` independent symbol streams.
///
/// Payloads are irrelevant to *when* peeling completes (only the neighbor
/// structure matters), so trials run with 1-byte blocks to keep the
/// harness fast; `perf_baseline`'s `encode_mb_s` and `decode_mb_s`
/// measure byte-moving speed separately on full-size blocks.
#[must_use]
pub fn measure_overhead(num_blocks: usize, trials: usize, seed: u64) -> OverheadReport {
    let spec = CodeSpec::new(num_blocks, 1, seed);
    measure_overhead_with_spec(&spec, trials, seed)
}

/// [`measure_overhead`] with an explicit spec (for ablations comparing
/// degree distributions).
#[must_use]
pub fn measure_overhead_with_spec(spec: &CodeSpec, trials: usize, seed: u64) -> OverheadReport {
    let mut overhead = Summary::new();
    for t in 0..trials {
        let mut id_rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
        let mut dec = Decoder::new(spec.clone());
        let payload = bytes::Bytes::from(vec![0u8; spec.block_size()]);
        loop {
            let sym = EncodedSymbol {
                id: id_rng.next_u64(),
                payload: payload.clone(),
            };
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
            assert!(
                dec.stats().received < 100 * spec.num_blocks() as u64 + 10_000,
                "decoder failed to converge at l = {}",
                spec.num_blocks()
            );
        }
        overhead.push(dec.reception_overhead() - 1.0);
    }
    OverheadReport {
        num_blocks: spec.num_blocks(),
        mean_degree: spec.distribution().mean(),
        overhead,
    }
}

/// Convenience: an ablation row comparing distributions at one size.
#[must_use]
pub fn compare_distributions(
    num_blocks: usize,
    trials: usize,
    seed: u64,
) -> Vec<(&'static str, OverheadReport)> {
    let robust = CodeSpec::new(num_blocks, 1, seed);
    let ideal = CodeSpec::with_distribution(
        num_blocks,
        1,
        DegreeDistribution::ideal_soliton(num_blocks),
        seed,
    );
    vec![
        (
            "robust-soliton",
            measure_overhead_with_spec(&robust, trials, seed),
        ),
        (
            "ideal-soliton",
            measure_overhead_with_spec(&ideal, trials, seed),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_reasonable_at_2k_blocks() {
        let report = measure_overhead(2000, 3, 42);
        let mean = report.overhead.mean();
        assert!(
            mean > 0.0 && mean < 0.30,
            "overhead {mean} outside plausible band"
        );
        assert!(report.mean_degree > 5.0 && report.mean_degree < 20.0);
    }

    #[test]
    fn overhead_shrinks_with_scale() {
        // Soliton codes: ε decreases (in expectation) as l grows.
        let small = measure_overhead(200, 8, 1).overhead.mean();
        let large = measure_overhead(5000, 3, 2).overhead.mean();
        assert!(
            large < small + 0.02,
            "overhead should not grow with scale: l=200 → {small}, l=5000 → {large}"
        );
    }

    #[test]
    fn robust_beats_ideal_soliton() {
        // The whole point of the robust correction: ideal soliton stalls
        // (huge overhead variance); robust completes tightly.
        let rows = compare_distributions(500, 5, 3);
        let robust = &rows[0].1.overhead;
        let ideal = &rows[1].1.overhead;
        assert!(
            robust.mean() < ideal.mean(),
            "robust {} should beat ideal {}",
            robust.mean(),
            ideal.mean()
        );
    }

    #[test]
    fn report_is_deterministic_in_seed() {
        let a = measure_overhead(300, 2, 7);
        let b = measure_overhead(300, 2, 7);
        assert_eq!(a.overhead.mean(), b.overhead.mean());
    }
}
