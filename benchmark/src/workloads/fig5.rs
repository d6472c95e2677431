//! `fig5-sweep`: one pass of the paper's Figure 5 per operation — the
//! compact and the stretched system at n = 23 968, ten correlation points
//! each, all five strategies: 100 two-peer transfers.
//!
//! Building the 20 scenarios (inventories and calling cards) is the
//! set-up; the transfers are the timed operation.

use icd_overlay::{run_transfer, ScenarioParams, StrategyKind, TwoPeerScenario};

use super::{op_seed, Env, OpCounts, Workload};
use crate::spans::Spans;
use crate::stats::median;

/// The paper's reference block count (32 MiB in 1400-byte blocks).
const BLOCKS: usize = 23_968;
const POINTS: usize = 10;

/// Span name per strategy, in `StrategyKind::ALL` order.
const TRANSFER_SPANS: [&str; 5] = [
    "overlay.transfer.random",
    "overlay.transfer.random_bf",
    "overlay.transfer.recode",
    "overlay.transfer.recode_bf",
    "overlay.transfer.recode_mw",
];

pub struct Pass {
    scenarios: Vec<TwoPeerScenario>,
    seed: u64,
}

pub struct Totals {
    ticks: u64,
    overhead: f64,
    incomplete: usize,
}

#[derive(Default)]
pub struct Fig5 {
    ops: f64,
    ticks: f64,
}

impl Workload for Fig5 {
    type Input = Pass;
    type Output = Totals;

    fn set_up(&mut self, op: u64, env: &Env, spans: &mut Spans) -> Result<Pass, String> {
        let seed = op_seed(env.seed, op);
        let scenarios = spans.time("overlay.scenario_build", || {
            let systems = [
                ScenarioParams::compact(BLOCKS, seed),
                ScenarioParams::stretched(BLOCKS, seed),
            ];
            let mut scenarios = Vec::with_capacity(2 * POINTS);
            for params in &systems {
                // The grid of `icd_bench`'s fig5: 0 up to just under the
                // largest correlation the system's geometry allows.
                let max = params.max_two_peer_correlation() - 1e-9;
                for i in 0..POINTS {
                    let correlation = max * i as f64 / (POINTS - 1) as f64;
                    scenarios.push(TwoPeerScenario::build(params, correlation));
                }
            }
            scenarios
        });
        Ok(Pass { scenarios, seed })
    }

    fn run(&mut self, pass: &mut Pass, spans: &mut Spans) -> Result<Totals, String> {
        let mut totals = Totals {
            ticks: 0,
            overhead: 0.0,
            incomplete: 0,
        };
        for scenario in &pass.scenarios {
            for (strategy, span) in StrategyKind::ALL.into_iter().zip(TRANSFER_SPANS) {
                let out = spans.time(span, || {
                    run_transfer(scenario, strategy, pass.seed ^ 0x5A5A)
                });
                totals.ticks += out.ticks;
                totals.overhead += out.overhead();
                totals.incomplete += usize::from(!out.completed);
            }
        }
        Ok(totals)
    }

    fn check(
        &mut self,
        _op: u64,
        pass: Pass,
        totals: Totals,
        _spans: &mut Spans,
    ) -> Result<OpCounts, String> {
        if totals.incomplete > 0 {
            return Err(format!("{} transfers did not complete", totals.incomplete));
        }
        self.ops += 1.0;
        self.ticks += totals.ticks as f64;
        Ok(OpCounts {
            work: totals.ticks as f64,
            sent: totals.overhead,
            useful: (pass.scenarios.len() * StrategyKind::ALL.len()) as f64,
            exact: format!("ticks={} overhead_sum={}", totals.ticks, totals.overhead),
            peak_rss_mb: None,
        })
    }

    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1.0);
        // A strategy's time is the sum of its 20 transfers in a pass.
        let per_pass = |name| spans.seconds_of(name).iter().sum::<f64>() / ops;
        vec![
            (
                "overlay.run_s",
                median(&spans.seconds_of("op")).unwrap_or(0.0),
            ),
            ("overlay.ticks", self.ticks / ops),
            (
                "overlay.scenario_build_s",
                median(&spans.seconds_of("overlay.scenario_build")).unwrap_or(0.0),
            ),
            ("overlay.transfer_s.random", per_pass(TRANSFER_SPANS[0])),
            ("overlay.transfer_s.random_bf", per_pass(TRANSFER_SPANS[1])),
            ("overlay.transfer_s.recode", per_pass(TRANSFER_SPANS[2])),
            ("overlay.transfer_s.recode_bf", per_pass(TRANSFER_SPANS[3])),
            ("overlay.transfer_s.recode_mw", per_pass(TRANSFER_SPANS[4])),
        ]
    }
}
