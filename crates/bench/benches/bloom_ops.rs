//! Bloom filter micro-benchmarks: insert and probe throughput at the
//! paper's 8-bits-per-element geometry.
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use icd_sketch::bloom::BloomFilter;
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 10_000usize;
    let mut rng = Xoshiro256StarStar::new(1);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let probes: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();

    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("insert_10k_8bpe", |b| {
        b.iter_batched(
            || BloomFilter::with_bits_per_element(n, 8.0, 7),
            |mut f| {
                for &k in &keys {
                    f.insert(k);
                }
                black_box(f)
            },
            BatchSize::SmallInput,
        );
    });
    let mut filter = BloomFilter::with_bits_per_element(n, 8.0, 7);
    for &k in &keys {
        filter.insert(k);
    }
    group.bench_function("probe_10k_hits", |b| {
        b.iter(|| keys.iter().filter(|&&k| filter.contains(k)).count())
    });
    group.bench_function("probe_10k_misses", |b| {
        b.iter(|| probes.iter().filter(|&&k| filter.contains(k)).count())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
