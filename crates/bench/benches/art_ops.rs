//! ART micro-benchmarks: batch build and summary build.
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icd_sketch::art::{ArtParams, ArtSummary, ReconciliationTree, SummaryParams};
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 10_000usize;
    let mut rng = Xoshiro256StarStar::new(4);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let params = ArtParams::default();

    let mut group = c.benchmark_group("art");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("build_10k", |b| {
        b.iter(|| black_box(ReconciliationTree::from_keys(params, keys.iter().copied())))
    });
    let tree = ReconciliationTree::from_keys(params, keys.iter().copied());
    group.bench_function("summarize_10k_8bpe", |b| {
        b.iter(|| black_box(ArtSummary::build(&tree, SummaryParams::standard())))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
