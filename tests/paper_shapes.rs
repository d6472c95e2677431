//! Qualitative reproduction tests: the *shapes* of the paper's evaluation
//! must hold at test scale — who wins, in which direction curves move,
//! and where regimes flip. These are the claims the `figures`
//! binary's `fig4a`, `fig5`, `fig6`, `fig7` and `fig8` experiments print
//! quantitatively; here they gate CI.

use icd_bench::experiments::art_accuracy::accuracy_cell;
use icd_bench::ExpConfig;
use icd_overlay::scenario::{MultiSenderScenario, ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::{
    random_strategy_analytic_overhead, run_multi_partial, run_transfer, run_with_full_sender,
};
use icd_sketch::SummaryId;

fn cfg() -> ExpConfig {
    ExpConfig {
        num_blocks: 2_500,
        trials: 2,
        base_seed: 0x5EED,
        threads: 1,
    }
}

fn mean_overhead(scenario: &TwoPeerScenario, strategy: StrategyKind, trials: u64) -> f64 {
    (0..trials)
        .map(|s| run_transfer(scenario, strategy, s).overhead())
        .sum::<f64>()
        / trials as f64
}

#[test]
fn fig5a_compact_shape() {
    let params = ScenarioParams::compact(cfg().num_blocks, 0xA);
    let low = TwoPeerScenario::build(&params, 0.0);
    let high = TwoPeerScenario::build(&params, 0.45);

    // Random is coupon-collector bad and degrades with correlation.
    let random_low = mean_overhead(&low, StrategyKind::Random, 2);
    let random_high = mean_overhead(&high, StrategyKind::Random, 2);
    assert!(random_low > 2.0, "Random at c=0: {random_low}");
    assert!(
        random_high > random_low * 1.4,
        "Random must degrade: {random_low} → {random_high}"
    );

    // Random/BF is flat at ≈ 1.
    let bf_low = mean_overhead(&low, StrategyKind::RandomSummary(SummaryId::BLOOM), 2);
    let bf_high = mean_overhead(&high, StrategyKind::RandomSummary(SummaryId::BLOOM), 2);
    assert!(
        bf_low < 1.1 && bf_high < 1.1,
        "Random/BF must stay ≈1: {bf_low}, {bf_high}"
    );

    // Recode/BF stays low; oblivious Recode degrades with correlation.
    let rbf_high = mean_overhead(&high, StrategyKind::RecodeSummary(SummaryId::BLOOM), 2);
    let recode_low = mean_overhead(&low, StrategyKind::Recode, 2);
    let recode_high = mean_overhead(&high, StrategyKind::Recode, 2);
    assert!(rbf_high < 1.4, "Recode/BF at c=0.45: {rbf_high}");
    assert!(
        recode_high > recode_low,
        "Recode must degrade with correlation"
    );
    assert!(
        recode_high < random_high,
        "Recoding beats Random in compact"
    );
}

#[test]
fn fig5b_stretched_regime_flip() {
    // The paper's headline crossover: in the stretched scenario Random
    // becomes cheap while oblivious recoding becomes the *worst* choice
    // ("they recode over too large a domain").
    let params = ScenarioParams::stretched(cfg().num_blocks, 0xB);
    let s = TwoPeerScenario::build(&params, 0.1);
    let random = mean_overhead(&s, StrategyKind::Random, 2);
    let recode = mean_overhead(&s, StrategyKind::Recode, 2);
    let recode_bf = mean_overhead(&s, StrategyKind::RecodeSummary(SummaryId::BLOOM), 2);
    assert!(
        random < 2.0,
        "Random is cheap when symbols are plentiful: {random}"
    );
    assert!(
        recode > random,
        "oblivious recoding must be worse than Random here"
    );
    assert!(
        recode_bf < recode,
        "restricted-domain Recode/BF must beat oblivious Recode"
    );
}

#[test]
fn fig6_speedup_shape() {
    let params = ScenarioParams::compact(cfg().num_blocks, 0xC);
    let s = TwoPeerScenario::build(&params, 0.2);
    let bf = run_with_full_sender(&s, StrategyKind::RandomSummary(SummaryId::BLOOM), 1).speedup();
    let random = run_with_full_sender(&s, StrategyKind::Random, 1).speedup();
    let recode = run_with_full_sender(&s, StrategyKind::Recode, 1).speedup();
    assert!(bf > 1.9, "Random/BF approaches 2: {bf}");
    assert!(
        random > 1.4,
        "Random performs well with a full sender: {random}"
    );
    assert!(
        recode < bf,
        "oblivious recoding is the poorest: {recode} vs {bf}"
    );
    for v in [bf, random, recode] {
        assert!(v <= 2.0 + 1e-9, "speedup cannot exceed the 2 senders: {v}");
    }
}

#[test]
fn fig78_rate_scales_with_senders() {
    let params = ScenarioParams::compact(cfg().num_blocks, 0xD);
    for (k, floor) in [(2usize, 1.8), (4usize, 3.2)] {
        let s = MultiSenderScenario::build(&params, k, 0.1);
        let rate =
            run_multi_partial(&s, StrategyKind::RandomSummary(SummaryId::BLOOM), 1).speedup();
        assert!(
            rate > floor && rate <= k as f64 + 1e-9,
            "k={k}: rate {rate} outside ({floor}, {k}]"
        );
    }
    // Degradation toward c = 0.5 for the oblivious strategy.
    let lo = run_multi_partial(
        &MultiSenderScenario::build(&params, 2, 0.0),
        StrategyKind::Random,
        1,
    )
    .speedup();
    let hi = run_multi_partial(
        &MultiSenderScenario::build(&params, 2, 0.5),
        StrategyKind::Random,
        1,
    )
    .speedup();
    assert!(hi < lo, "Random must degrade toward c=0.5: {lo} → {hi}");
}

#[test]
fn coupon_collector_matches_simulation() {
    // §6.3: "this strategy is precisely characterized by the well known
    // Coupon Collector's problem" — our simulator agrees with the closed
    // form to within sampling noise.
    let params = ScenarioParams::compact(4000, 0xE);
    let s = TwoPeerScenario::build(&params, 0.0);
    let analytic =
        random_strategy_analytic_overhead(s.sender_set.len(), s.sender_set.len(), s.needed());
    let simulated = mean_overhead(&s, StrategyKind::Random, 3);
    assert!(
        (simulated - analytic).abs() / analytic < 0.15,
        "simulated {simulated} vs analytic {analytic}"
    );
}

#[test]
fn fig4_accuracy_shape() {
    let cfg = ExpConfig {
        num_blocks: 4000,
        trials: 2,
        base_seed: 0xF,
        threads: 1,
    };
    // Correction monotonicity at a tight budget (Table 4(b) rows).
    let c0 = accuracy_cell(&cfg, 4.0, 2.0, 0);
    let c5 = accuracy_cell(&cfg, 4.0, 2.0, 5);
    assert!(c5 > c0, "correction must recover accuracy: {c0} → {c5}");
    // Budget monotonicity (Table 4(b) columns).
    let lo = accuracy_cell(&cfg, 2.0, 1.0, 3);
    let hi = accuracy_cell(&cfg, 8.0, 4.0, 3);
    assert!(hi > lo, "more bits must help: {lo} → {hi}");
    // Degenerate splits collapse (Figure 4(a) endpoints).
    let no_leaf = accuracy_cell(&cfg, 8.0, 0.0, 3);
    let balanced = accuracy_cell(&cfg, 8.0, 4.0, 3);
    assert!(
        no_leaf < 0.05,
        "zero leaf bits ⇒ no confirmations: {no_leaf}"
    );
    assert!(balanced > no_leaf);
}
