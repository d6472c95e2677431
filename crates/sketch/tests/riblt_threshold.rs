//! Numeric oracle for the rateless IBLT's decoding threshold.
//!
//! A difference of d peels from a prefix of ≈ 1.35–1.7·d cells (Yang,
//! Gilad and Alizadeh, SIGCOMM 2024), so the mean smallest peeling
//! prefix is bounded at d ∈ {100, 1 000} (d = 10 000 runs with
//! `--include-ignored`). Small differences need relatively more cells
//! and a wide tail; they are reported, not bounded. The one-shot digest
//! must peel ≥ 98 % of the time while the true difference is at most
//! twice the estimate it was sized for — the recall the registry
//! advertises — and its advertised wire cost must match the body.
//!
//! Run with `--nocapture` to see the measured ratios.

use icd_sketch::exact::riblt::{Encoder, Peeler};
use icd_sketch::{standard_registry, DiffEstimate, SummaryId, SummarySizing};
use icd_util::rng::{Rng64, Xoshiro256StarStar};

/// Keys shared by both sides in every geometry: they cancel in the
/// difference but still cost coding work.
const SHARED: usize = 200;

/// Two sets with `a_only` + `b_only` keys of symmetric difference, and
/// the sorted keys only `b` holds.
fn sets(a_only: usize, b_only: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let shared: Vec<u64> = (0..SHARED).map(|_| rng.next_u64()).collect();
    let mut a = shared.clone();
    a.extend((0..a_only).map(|_| rng.next_u64()));
    let mut only_b: Vec<u64> = (0..b_only).map(|_| rng.next_u64()).collect();
    let mut b = shared;
    b.extend(&only_b);
    only_b.sort_unstable();
    (a, b, only_b)
}

/// Streams `a`'s cells into a peeler over `b` until the peel completes:
/// the smallest prefix that peels.
fn smallest_peeling_prefix(a: &[u64], b: &[u64]) -> usize {
    let mut encoder = Encoder::new(a);
    let mut peeler = Peeler::new(b);
    while !peeler.is_done() {
        peeler.push(&encoder.next_cell());
    }
    peeler.cells_received()
}

/// Mean and max of smallest-prefix / d over `seeds` geometries with the
/// difference split evenly between the sides.
fn prefix_ratios(d: usize, seeds: u64) -> (f64, f64) {
    let ratios: Vec<f64> = (0..seeds)
        .map(|seed| {
            let (a, b, _) = sets(d / 2, d - d / 2, seed * 1_000 + d as u64);
            smallest_peeling_prefix(&a, &b) as f64 / d as f64
        })
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().copied().fold(0.0, f64::max);
    println!(
        "d = {d}: mean smallest peeling prefix {mean:.3}·d, max {max:.3}·d over {seeds} seeds"
    );
    (mean, max)
}

fn assert_mean_within_threshold(d: usize) {
    let (mean, _) = prefix_ratios(d, 20);
    assert!(
        mean <= 1.7,
        "d = {d}: mean prefix {mean:.3}·d exceeds 1.7·d"
    );
}

#[test]
fn mean_smallest_prefix_at_d_100() {
    assert_mean_within_threshold(100);
}

#[test]
fn mean_smallest_prefix_at_d_1000() {
    assert_mean_within_threshold(1_000);
}

#[test]
#[ignore = "d = 10 000 runs in the nightly lane"]
fn mean_smallest_prefix_at_d_10000() {
    assert_mean_within_threshold(10_000);
}

#[test]
fn small_differences_are_reported() {
    // Peeling empties one cell per key, so no prefix shorter than d peels.
    for d in [1usize, 10] {
        let (mean, _) = prefix_ratios(d, 20);
        assert!(mean >= 1.0, "d = {d}: {mean}");
    }
}

#[test]
fn one_shot_prefix_peels_when_d_is_at_most_twice_the_estimate() {
    let registry = standard_registry();
    let sizing = SummarySizing::default();
    for (estimate, trials) in [(1usize, 400u64), (5, 400), (15, 400), (50, 200), (200, 60)] {
        for d in [estimate, 2 * estimate] {
            let mut peeled = 0u64;
            for seed in 0..trials {
                let (a, b, only_b) = sets(d / 2, d - d / 2, seed * 7_919 + d as u64);
                let est = DiffEstimate {
                    summarized: a.len(),
                    searched: b.len(),
                    expected_new: estimate / 2,
                    expected_delta: estimate,
                };
                let body = registry
                    .build(SummaryId::RIBLT, &sizing, &est, &a)
                    .expect("registered")
                    .encode_body();
                let reconciler = registry.decode(SummaryId::RIBLT, &body).expect("decodes");
                let found = reconciler.missing_at_peer(&b);
                // A failed peel yields nothing, never a wrong key.
                assert!(
                    found.is_empty() || found == only_b,
                    "d̂ = {estimate}, d = {d}"
                );
                peeled += u64::from(found == only_b);
            }
            let rate = peeled as f64 / trials as f64;
            println!("d̂ = {estimate}, d = {d}: one-shot prefix peeled {rate:.3}");
            assert!(
                rate >= 0.98,
                "d̂ = {estimate}, d = {d}: peeled only {rate:.3}"
            );
        }
    }
}

#[test]
fn advertised_wire_cost_tracks_the_encoded_body() {
    let registry = standard_registry();
    let spec = registry.get(SummaryId::RIBLT).expect("registered");
    let sizing = SummarySizing::default();
    let (a, _, _) = sets(0, 0, 3);
    for delta in [0usize, 10, 100, 1_000] {
        let est = DiffEstimate::new(a.len(), a.len() + delta, delta);
        let actual = (spec.build)(&sizing, &est, &a).wire_bytes() as f64;
        let advertised = (spec.wire_cost)(&sizing, &est);
        assert!(
            (advertised - actual).abs() / actual < 0.05,
            "Δ = {delta}: advertised {advertised} vs actual {actual}"
        );
    }
}
