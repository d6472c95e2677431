//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Bloom filter sizing** — how Random/BF's overhead and stall risk
//!    respond to the bits-per-element budget (the §5.2 knob): smaller
//!    filters are cheaper on the wire but withhold more useful symbols.
//! 2. **Recoding degree cap** — the paper fixes 50 "primarily to keep
//!    the listing of identifiers short"; this sweep shows what the cap
//!    costs/buys in transfer overhead.
//! 3. **Degree policy** — Oblivious vs MinwiseScaled vs LowerBounded
//!    (the §5.4.2 rule) at a high-correlation operating point.
//!
//! All three sweeps run on the parallel [`ExperimentGrid`] engine and
//! average over the configured trial seeds; output is identical at any
//! thread count.

use icd_overlay::net::{ConnectSpec, Link, OverlayNet, RunLimit};
use icd_overlay::receiver::Receiver;
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::default_max_ticks;
use icd_sketch::{standard_registry, DiffEstimate, SummaryId, SummarySizing};
use icd_util::rng::Xoshiro256StarStar;

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// Ablation 1: Random/BF at varying filter budgets.
pub(crate) fn filter_bits_sweep(cfg: &ExpConfig) -> Table {
    let params = ScenarioParams::compact(cfg.num_blocks, cfg.base_seed);
    let scenario = TwoPeerScenario::build(&params, 0.3);
    let mut table = Table::new(
        format!(
            "Ablation: Random/BF vs filter budget (compact, n={}, c=0.30)",
            cfg.num_blocks
        ),
        &[
            "bits/elem",
            "filter_bytes",
            "overhead",
            "withheld",
            "completed",
        ],
    );
    // The filter (and therefore its size and the set of useful symbols
    // it wrongly withholds) depends only on the budget, not the trial
    // seed — measure it once per budget outside the grid, built from
    // the same keys, sizing and estimate the engine's handshake uses.
    let useful: Vec<u64> = scenario
        .sender_set
        .iter()
        .filter(|id| !scenario.receiver_set.contains(id))
        .copied()
        .collect();
    let mut keys = scenario.receiver_set.clone();
    keys.sort_unstable();
    let estimate = DiffEstimate::new(
        scenario.receiver_set.len(),
        scenario.sender_set.len(),
        scenario.needed(),
    );
    let points: Vec<(f64, SummarySizing, usize, usize)> = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0]
        .into_iter()
        .map(|bpe| {
            let sizing = SummarySizing {
                bloom_bits_per_element: bpe,
                ..SummarySizing::default()
            };
            let filter = standard_registry()
                .build(SummaryId::BLOOM, &sizing, &estimate, &keys)
                .expect("Bloom is registered");
            let withheld = useful
                .iter()
                .filter(|&&id| filter.probably_contains(id))
                .count();
            (bpe, sizing, filter.wire_bytes(), withheld)
        })
        .collect();
    // Each cell is a 2-node line on an engine sized at the cell's budget:
    // the engine builds the receiver's handshake filter at that budget.
    let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
    let sweep = ExperimentGrid::new(points, vec![()], cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        let (_, sizing, _, _) = cell.scenario;
        let mut net = OverlayNet::with_sizing(cell.cell_seed(), *sizing);
        let receiver = net.add_node(&scenario.receiver_set, scenario.target);
        net.set_observer(receiver, true);
        let sender = net.add_seeder(&scenario.sender_set);
        net.connect(
            sender,
            receiver,
            strategy,
            Link::default(),
            ConnectSpec {
                seed: cell.cell_seed(),
                request_hint: Some(scenario.needed()),
            },
        );
        let _ = net.run(RunLimit::ticks(default_max_ticks(scenario.target)));
        let out = net.outcome_for(receiver);
        (out.overhead(), out.completed)
    });
    let overheads = results.summaries(|t| t.0);
    for (si, (bpe, _, filter_bytes, withheld)) in sweep.scenarios().iter().enumerate() {
        table.push_row(vec![
            format!("{bpe}"),
            format!("{filter_bytes}"),
            f3(overheads[si][0].mean()),
            format!("{withheld}"),
            format!("{}", results.point(si, 0).iter().all(|t| t.1)),
        ]);
    }
    table
}

/// Ablation 2: Recode/BF at varying degree caps.
pub(crate) fn degree_cap_sweep(cfg: &ExpConfig) -> Table {
    let params = ScenarioParams::compact(cfg.num_blocks, cfg.base_seed);
    let scenario = TwoPeerScenario::build(&params, 0.2);
    let mut table = Table::new(
        format!(
            "Ablation: recoding degree cap (compact, n={}, c=0.20, paper cap=50)",
            cfg.num_blocks
        ),
        &["cap", "overhead", "max_header_bytes", "completed"],
    );
    let caps = vec![2usize, 5, 10, 25, 50, 100, 200];
    let sweep = ExperimentGrid::new(caps.clone(), vec![()], cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        run_recode_with_cap(&scenario, *cell.scenario, cell.cell_seed())
    });
    let overheads = results.summaries(|t| t.0);
    for (si, cap) in caps.iter().enumerate() {
        table.push_row(vec![
            format!("{cap}"),
            f3(overheads[si][0].mean()),
            format!("{}", 2 + 8 * cap),
            format!("{}", results.point(si, 0).iter().all(|t| t.1)),
        ]);
    }
    table
}

/// Runs a Recode/BF-style transfer with an explicit degree cap.
fn run_recode_with_cap(scenario: &TwoPeerScenario, cap: usize, seed: u64) -> (f64, bool) {
    use bytes::Bytes;
    use icd_fountain::{EncodedSymbol, RecodePolicy, Recoder};
    let receiver_set: std::collections::HashSet<u64> =
        scenario.receiver_set.iter().copied().collect();
    let candidates: Vec<EncodedSymbol> = scenario
        .sender_set
        .iter()
        .filter(|id| !receiver_set.contains(id))
        .map(|&id| EncodedSymbol {
            id,
            payload: Bytes::new(),
        })
        .collect();
    let recoder = Recoder::new(candidates, cap, RecodePolicy::Oblivious);
    let mut receiver = Receiver::new(&scenario.receiver_set, scenario.target);
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut packets = 0u64;
    let max = default_max_ticks(scenario.target);
    while !receiver.is_complete() && packets < max {
        packets += 1;
        let rec = recoder.generate(&mut rng);
        receiver.receive(&rec.components);
    }
    (
        packets as f64 / scenario.needed() as f64,
        receiver.is_complete(),
    )
}

/// Ablation 3: the three degree policies head to head at c = 0.4.
pub(crate) fn degree_policy_compare(cfg: &ExpConfig) -> Table {
    use bytes::Bytes;
    use icd_fountain::{EncodedSymbol, RecodePolicy, Recoder};
    let params = ScenarioParams::compact(cfg.num_blocks, cfg.base_seed);
    let scenario = TwoPeerScenario::build(&params, 0.4);
    let symbols: Vec<EncodedSymbol> = scenario
        .sender_set
        .iter()
        .map(|&id| EncodedSymbol {
            id,
            payload: Bytes::new(),
        })
        .collect();
    let c = scenario.correlation;
    let mut table = Table::new(
        format!(
            "Ablation: §5.4.2 degree policies over the full working set (compact, n={}, c={:.2})",
            cfg.num_blocks, c
        ),
        &["policy", "overhead", "completed"],
    );
    let policies = vec![
        ("oblivious", RecodePolicy::Oblivious),
        (
            "minwise-scaled",
            RecodePolicy::MinwiseScaled { containment: c },
        ),
        (
            "lower-bounded",
            RecodePolicy::LowerBounded { containment: c },
        ),
    ];
    let sweep = ExperimentGrid::new(policies.clone(), vec![()], cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        let (_, policy) = *cell.scenario;
        let recoder = Recoder::new(symbols.clone(), 50, policy);
        let mut receiver = Receiver::new(&scenario.receiver_set, scenario.target);
        let mut rng = cell.rng();
        let mut packets = 0u64;
        let max = default_max_ticks(scenario.target);
        while !receiver.is_complete() && packets < max {
            packets += 1;
            let rec = recoder.generate(&mut rng);
            receiver.receive(&rec.components);
        }
        (
            packets as f64 / scenario.needed() as f64,
            receiver.is_complete(),
        )
    });
    let overheads = results.summaries(|t| t.0);
    for (si, (name, _)) in policies.iter().enumerate() {
        table.push_row(vec![
            (*name).to_string(),
            f3(overheads[si][0].mean()),
            format!("{}", results.point(si, 0).iter().all(|t| t.1)),
        ]);
    }
    table
}
