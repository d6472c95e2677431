//! Figures 5–8: the transfer-strategy simulations of §6.3.
//!
//! Every figure is a sweep of (scenario geometry × correlation grid ×
//! strategy × seed); points run in parallel, each point fully
//! deterministic in its inputs. Each cell drives an `OverlayNet`
//! topology preset (2-node line, line + fountain, k-sender fan-in) —
//! the discrete-event engine underneath is the same one the mesh and
//! churn sweeps run on.

use icd_overlay::scenario::{MultiSenderScenario, ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::{run_multi_partial, run_transfer, run_with_full_sender};
use icd_overlay::TransferOutcome;
use icd_util::stats::Summary;

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// Which §6.3 variant a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SystemShape {
    /// Compact: 1.1n distinct symbols in the system.
    Compact,
    /// Stretched: 1.5n distinct symbols in the system.
    Stretched,
}

impl SystemShape {
    fn params(self, cfg: &ExpConfig, seed: u64) -> ScenarioParams {
        match self {
            SystemShape::Compact => ScenarioParams::compact(cfg.num_blocks, seed),
            SystemShape::Stretched => ScenarioParams::stretched(cfg.num_blocks, seed),
        }
    }

    fn label(self) -> &'static str {
        match self {
            SystemShape::Compact => "compact (1.1n)",
            SystemShape::Stretched => "stretched (1.5n)",
        }
    }
}

/// A correlation grid over `[0, max]` with `points` points, inclusive.
fn correlation_grid(max: f64, points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| max * i as f64 / (points - 1) as f64)
        .collect()
}

/// One figure sweep: rows = correlation grid, columns = strategies.
fn sweep_figure(
    cfg: &ExpConfig,
    shape: SystemShape,
    grid: &[f64],
    metric: fn(&TransferOutcome) -> f64,
    run: impl Fn(&ScenarioParams, f64, StrategyKind, u64) -> TransferOutcome + Sync,
) -> Vec<Vec<Summary>> {
    let sweep = ExperimentGrid::new(grid.to_vec(), StrategyKind::ALL.to_vec(), cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        let params = shape.params(cfg, cell.seed);
        let outcome = run(&params, *cell.scenario, *cell.strategy, cell.seed ^ 0x5A5A);
        (outcome.completed, metric(&outcome))
    });
    for (si, gi, _, &(completed, _)) in results.iter() {
        if !completed {
            // Incomplete transfers (possible for BF strategies at the
            // compact margin) would understate cost; record them as the
            // safety-cap value instead of silently dropping them.
            eprintln!(
                "[warn] incomplete transfer at c={:.2} strategy={}",
                grid[si],
                StrategyKind::ALL[gi].label()
            );
        }
    }
    results.summaries(|&(_, value)| value)
}

fn render(title: String, grid: &[f64], data: &[Vec<Summary>]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "correlation",
            "Random",
            "Random/BF",
            "Recode",
            "Recode/BF",
            "Recode/MW",
        ],
    );
    for (c, row) in grid.iter().zip(data.iter()) {
        let mut cells = vec![f3(*c)];
        for s in row {
            cells.push(f3(s.mean()));
        }
        table.push_row(cells);
    }
    table
}

/// Figure 5: overhead of a peer-to-peer transfer vs correlation.
#[must_use]
pub(crate) fn fig5(cfg: &ExpConfig, shape: SystemShape) -> Table {
    let max = shape.params(cfg, 0).max_two_peer_correlation();
    let grid = correlation_grid(max - 1e-9, 10);
    let data = sweep_figure(
        cfg,
        shape,
        &grid,
        TransferOutcome::overhead,
        |params, c, strategy, seed| {
            let scenario = TwoPeerScenario::build(params, c);
            run_transfer(&scenario, strategy, seed)
        },
    );
    render(
        format!("Figure 5 ({}): overhead vs correlation", shape.label()),
        &grid,
        &data,
    )
}

/// Figure 6: speedup with a full sender plus a partial sender.
#[must_use]
pub(crate) fn fig6(cfg: &ExpConfig, shape: SystemShape) -> Table {
    let max = shape.params(cfg, 0).max_two_peer_correlation();
    let grid = correlation_grid(max - 1e-9, 10);
    let data = sweep_figure(
        cfg,
        shape,
        &grid,
        TransferOutcome::speedup,
        |params, c, strategy, seed| {
            let scenario = TwoPeerScenario::build(params, c);
            run_with_full_sender(&scenario, strategy, seed)
        },
    );
    render(
        format!(
            "Figure 6 ({}): speedup, full + partial sender",
            shape.label()
        ),
        &grid,
        &data,
    )
}

/// Figures 7/8: relative rate with `k` partial senders.
#[must_use]
pub(crate) fn fig78(cfg: &ExpConfig, shape: SystemShape, k: usize) -> Table {
    let grid = correlation_grid(0.5, 11);
    let data = sweep_figure(
        cfg,
        shape,
        &grid,
        TransferOutcome::speedup,
        |params, c, strategy, seed| {
            let scenario = MultiSenderScenario::build(params, k, c);
            run_multi_partial(&scenario, strategy, seed)
        },
    );
    let fig = if k <= 2 { 7 } else { 8 };
    render(
        format!(
            "Figure {fig} ({}): relative rate, {k} partial senders",
            shape.label()
        ),
        &grid,
        &data,
    )
}
