//! Simulator inner-loop cost per strategy (ablation: what a tick costs).
//!
//! `run_transfer` borrows the scenario immutably, so the iterations run
//! against the shared instance directly — which also lets the scenario's
//! cached calling-card sketches amortize across transfers, exactly as
//! they do inside an experiment sweep.
use criterion::{criterion_group, criterion_main, Criterion};
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::run_transfer;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let params = ScenarioParams::compact(2000, 77);
    let scenario = TwoPeerScenario::build(&params, 0.2);
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    for strategy in StrategyKind::ALL {
        group.bench_function(
            format!("transfer_n2000_{}", strategy.label().replace('/', "_")),
            |b| {
                b.iter(|| black_box(run_transfer(&scenario, strategy, 5)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
