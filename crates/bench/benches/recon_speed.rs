//! Table 4(c)'s speed column: Bloom O(n) probing vs ART O(d log n)
//! search.
use criterion::{criterion_group, criterion_main, Criterion};
use icd_sketch::art::{
    search_differences, ArtParams, ArtSummary, ReconciliationTree, SummaryParams,
};
use icd_sketch::bloom::BloomFilter;
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 50_000usize;
    let d = 100usize;
    let mut rng = Xoshiro256StarStar::new(13);
    let shared: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut b_keys = shared.clone();
    b_keys.extend((0..d).map(|_| rng.next_u64()));

    let mut filter = BloomFilter::with_bits_per_element(n, 8.0, 1);
    for &k in &shared {
        filter.insert(k);
    }
    let params = ArtParams::default();
    let tree_a = ReconciliationTree::from_keys(params, shared.iter().copied());
    let tree_b = ReconciliationTree::from_keys(params, b_keys.iter().copied());
    let summary = ArtSummary::build(&tree_a, SummaryParams::standard());

    let mut group = c.benchmark_group("recon_speed");
    group.sample_size(20);
    group.bench_function("bloom_scan_50k", |b| {
        b.iter(|| b_keys.iter().filter(|&&k| !filter.contains(k)).count())
    });
    group.bench_function("art_search_d100_of_50k", |b| {
        b.iter(|| black_box(search_differences(&tree_b, &summary).missing_at_peer.len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
