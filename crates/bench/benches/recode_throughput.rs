//! Recoding throughput: generation under each degree policy and
//! receiver-side substitution.
//!
//! Generation goes through the pooled scratch path
//! ([`Recoder::generate_into`]) — the data plane's real hot path, with
//! zero per-symbol allocation and word-wide XOR. Substitution receives
//! into a warm `RecodeBuffer<Bytes>`, sharing each recovery's `Bytes`
//! as the receiver machine does; the buffer setup (2 500 known symbols)
//! is cloned per sample outside the timed region.
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use icd_fountain::{EncodedSymbol, RecodeBuffer, RecodePolicy, RecodeScratch, Recoder};
use icd_util::rng::Xoshiro256StarStar;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let symbols: Vec<EncodedSymbol> = (0..5000u64)
        .map(|i| EncodedSymbol {
            id: i * 977,
            payload: bytes::Bytes::from(vec![(i % 251) as u8; 1400]),
        })
        .collect();
    let mut group = c.benchmark_group("recode");
    group.throughput(Throughput::Elements(100));
    for (name, policy) in [
        ("oblivious", RecodePolicy::Oblivious),
        (
            "minwise_c80",
            RecodePolicy::MinwiseScaled { containment: 0.8 },
        ),
        (
            "lower_bounded_c80",
            RecodePolicy::LowerBounded { containment: 0.8 },
        ),
    ] {
        let recoder = Recoder::new(symbols.clone(), 50, policy);
        group.bench_function(format!("generate_100_{name}"), |b| {
            let mut rng = Xoshiro256StarStar::new(11);
            let mut scratch = RecodeScratch::default();
            b.iter(|| {
                for _ in 0..100 {
                    recoder.generate_into(&mut rng, &mut scratch);
                    black_box((&scratch.components, &scratch.payload));
                }
            });
        });
    }
    // Substitution: receiver knows half, receives 100 recoded symbols.
    let recoder = Recoder::new(symbols.clone(), 50, RecodePolicy::Oblivious);
    let mut rng = Xoshiro256StarStar::new(12);
    let stream: Vec<_> = (0..100).map(|_| recoder.generate(&mut rng)).collect();
    let mut warm = RecodeBuffer::<bytes::Bytes>::new();
    for s in &symbols[..2500] {
        warm.add_known(s.id, s.payload.clone(), |_, _| {});
    }
    group.bench_function("substitute_100", |b| {
        b.iter_batched(
            || warm.clone(),
            |mut buf| {
                let mut recovered = 0usize;
                for rec in &stream {
                    recovered += buf.receive(&rec.components, rec.payload.clone(), |_, p| {
                        black_box(p.clone());
                    });
                }
                black_box(recovered)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
