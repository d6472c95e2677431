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
use crate::engine::{ExperimentGrid, GridResults};
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

/// One figure sweep: rows = correlation grid, columns = strategies,
/// each trial's `(completed, metric)`.
fn sweep_figure(
    cfg: &ExpConfig,
    shape: SystemShape,
    grid: &[f64],
    metric: fn(&TransferOutcome) -> f64,
    run: impl Fn(&ScenarioParams, f64, StrategyKind, u64) -> TransferOutcome + Sync,
) -> GridResults<(bool, f64)> {
    let sweep = ExperimentGrid::new(grid.to_vec(), StrategyKind::ALL.to_vec(), cfg.seeds());
    sweep.run(cfg.threads, |cell| {
        let params = shape.params(cfg, cell.seed);
        let outcome = run(&params, *cell.scenario, *cell.strategy, cell.seed ^ 0x5A5A);
        (outcome.completed, metric(&outcome))
    })
}

/// One figure cell: the mean over the trials that completed. A
/// transfer stopped by the safety cap has no cost to report, so it is
/// left out, and a cell where k of its n trials completed prints
/// `mean (k/n)`, or `n/a (0/n)` when none did. A cell where every
/// trial completed prints its mean alone.
fn cell(trials: &[(bool, f64)]) -> String {
    let done: Summary = trials.iter().filter(|t| t.0).map(|t| t.1).collect();
    let (k, n) = (done.count() as usize, trials.len());
    if k == n {
        f3(done.mean())
    } else if k == 0 {
        format!("n/a (0/{n})")
    } else {
        format!("{} ({k}/{n})", f3(done.mean()))
    }
}

fn render(title: String, grid: &[f64], data: &GridResults<(bool, f64)>) -> Table {
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
    for (si, c) in grid.iter().enumerate() {
        let mut cells = vec![f3(*c)];
        cells.extend((0..StrategyKind::ALL.len()).map(|gi| cell(data.point(si, gi))));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_average_only_completed_trials() {
        assert_eq!(cell(&[(true, 1.0), (true, 2.0)]), "1.500");
        assert_eq!(cell(&[(true, 1.0), (false, 9.0)]), "1.000 (1/2)");
        assert_eq!(cell(&[(false, 1.0), (false, 9.0)]), "n/a (0/2)");
    }

    /// Figure 8's c = 0.10 row at l = 1 000 and two trials: one
    /// Recode/BF transfer hits the safety cap.
    #[test]
    fn an_incomplete_cell_prints_its_completion_count() {
        let cfg = ExpConfig {
            num_blocks: 1_000,
            trials: 2,
            threads: 1,
            ..ExpConfig::default()
        };
        let grid = [0.1];
        let data = sweep_figure(
            &cfg,
            SystemShape::Compact,
            &grid,
            TransferOutcome::speedup,
            |params, c, strategy, seed| {
                run_multi_partial(&MultiSenderScenario::build(params, 4, c), strategy, seed)
            },
        );
        let row = &render(String::new(), &grid, &data).rows[0];
        assert!(row[4].ends_with(" (1/2)"), "Recode/BF cell {:?}", row[4]);
        assert!(!row[3].contains('('), "Recode cell {:?}", row[3]);
    }
}
