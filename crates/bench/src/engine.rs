//! The parallel, deterministic experiment engine.
//!
//! Every evaluation artifact in this workspace is a sweep over a
//! cartesian grid of **(scenario × strategy × seed)** cells, each cell a
//! pure function of its inputs. [`ExperimentGrid`] makes that shape
//! explicit: it enumerates the cells, fans them out over a worker pool,
//! and reassembles results **by cell index**, so the output is
//! bit-identical whether the sweep ran on one thread or sixty-four.
//!
//! Determinism contract:
//!
//! * a cell never sees a shared RNG — it derives its own
//!   [`Cell::rng`] from the grid coordinates and trial seed;
//! * results land in a slot addressed by cell index, never by
//!   completion order;
//! * [`ExperimentGrid::run_streamed`] delivers cells to its sink in
//!   strict index order (a reorder buffer holds back early finishers),
//!   so streaming writers observe the same sequence as a serial run.
//!
//! The worker pool is a plain work-stealing-free chunk queue over
//! `std::thread::scope` — the cells are coarse (whole transfer
//! simulations), so an atomic ticket counter is all the scheduling the
//! workload needs. The pool width is an argument: experiments pass
//! [`crate::ExpConfig::threads`], read once from `RAYON_NUM_THREADS`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use icd_util::hash::hash64;
use icd_util::rng::Xoshiro256StarStar;
use icd_util::stats::Summary;

use crate::output::Table;

/// Salt folded into every per-cell seed so grid RNG streams never
/// collide with the simulation seeds the cells consume.
const CELL_SEED_SALT: u64 = 0x1CD6_121D_CE11;

/// One point of a sweep: a scenario, a strategy, and a trial seed, plus
/// the grid coordinates that address its result slot.
#[derive(Debug)]
pub struct Cell<'a, S, G> {
    /// The scenario axis value (geometry, correlation point, knob…).
    pub scenario: &'a S,
    /// The strategy axis value (transfer strategy, correction level…).
    pub strategy: &'a G,
    /// The trial seed for this cell (from the grid's seed axis).
    pub seed: u64,
    /// Index on the scenario axis.
    pub scenario_idx: usize,
    /// Index on the strategy axis.
    pub strategy_idx: usize,
    /// Index on the seed axis.
    pub trial_idx: usize,
    cell_seed: u64,
}

impl<S, G> Cell<'_, S, G> {
    /// A 64-bit seed unique to this cell, stable across runs and thread
    /// counts.
    #[must_use]
    pub fn cell_seed(&self) -> u64 {
        self.cell_seed
    }

    /// A deterministic RNG private to this cell. Two cells never share
    /// a stream, which is what makes the grid embarrassingly parallel
    /// without sacrificing reproducibility.
    #[must_use]
    pub fn rng(&self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.cell_seed)
    }
}

/// A cartesian (scenario × strategy × seed) sweep.
#[derive(Debug, Clone)]
pub struct ExperimentGrid<S, G> {
    scenarios: Vec<S>,
    strategies: Vec<G>,
    seeds: Vec<u64>,
}

impl<S: Sync, G: Sync> ExperimentGrid<S, G> {
    /// Builds a grid; every combination of the three axes is one cell.
    #[must_use]
    pub fn new(scenarios: Vec<S>, strategies: Vec<G>, seeds: Vec<u64>) -> Self {
        Self {
            scenarios,
            strategies,
            seeds,
        }
    }

    /// The scenario axis.
    #[must_use]
    pub fn scenarios(&self) -> &[S] {
        &self.scenarios
    }

    /// Total number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.strategies.len() * self.seeds.len()
    }

    /// Whether any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell(&self, index: usize) -> Cell<'_, S, G> {
        let trials = self.seeds.len();
        let strategies = self.strategies.len();
        let trial_idx = index % trials;
        let strategy_idx = (index / trials) % strategies;
        let scenario_idx = index / (trials * strategies);
        let seed = self.seeds[trial_idx];
        let cell_seed = hash64(
            seed,
            hash64(
                scenario_idx as u64,
                hash64(strategy_idx as u64, CELL_SEED_SALT),
            ),
        );
        Cell {
            scenario: &self.scenarios[scenario_idx],
            strategy: &self.strategies[strategy_idx],
            seed,
            scenario_idx,
            strategy_idx,
            trial_idx,
            cell_seed,
        }
    }

    /// Runs every cell on exactly `threads` workers. Output is
    /// independent of `threads`; the determinism test pins this down.
    pub fn run<R, F>(&self, threads: usize, f: F) -> GridResults<R>
    where
        R: Send,
        F: Fn(&Cell<'_, S, G>) -> R + Sync,
    {
        self.run_streamed(threads, f, |_, _| {})
    }

    /// Runs every cell, invoking `sink(cell_index, &result)` in strict
    /// cell-index order as results become available — the streaming
    /// entry point for row writers. Returns the full result set.
    pub fn run_streamed<R, F, K>(&self, threads: usize, f: F, mut sink: K) -> GridResults<R>
    where
        R: Send,
        F: Fn(&Cell<'_, S, G>) -> R + Sync,
        K: FnMut(usize, &R),
    {
        let n = self.len();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        if n > 0 {
            let workers = threads.clamp(1, n);
            let ticket = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            let f = &f;
            let ticket = &ticket;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        let i = ticket.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(&self.cell(i));
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // Reorder buffer: deliver to the sink in index order.
                let mut pending: BTreeMap<usize, R> = BTreeMap::new();
                let mut next = 0usize;
                for (i, out) in rx {
                    pending.insert(i, out);
                    while let Some(out) = pending.remove(&next) {
                        sink(next, &out);
                        slots[next] = Some(out);
                        next += 1;
                    }
                }
                assert_eq!(next, n, "experiment worker panicked mid-sweep");
            });
        }
        GridResults {
            strategies: self.strategies.len(),
            trials: self.seeds.len(),
            cells: slots
                .into_iter()
                .map(|r| r.expect("all cells completed"))
                .collect(),
        }
    }
}

/// Results of a grid run, addressable by (scenario, strategy, trial).
#[derive(Debug, Clone)]
pub struct GridResults<R> {
    strategies: usize,
    trials: usize,
    cells: Vec<R>,
}

impl<R> GridResults<R> {
    /// The per-trial results of one (scenario, strategy) point.
    #[must_use]
    pub fn point(&self, scenario_idx: usize, strategy_idx: usize) -> &[R] {
        let base = (scenario_idx * self.strategies + strategy_idx) * self.trials;
        &self.cells[base..base + self.trials]
    }

    /// Iterates `(scenario_idx, strategy_idx, trial_idx, &result)` in
    /// cell-index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, &R)> {
        let strategies = self.strategies;
        let trials = self.trials;
        self.cells.iter().enumerate().map(move |(i, r)| {
            (
                i / (strategies * trials),
                (i / trials) % strategies,
                i % trials,
                r,
            )
        })
    }

    /// All results in cell-index order.
    #[must_use]
    pub fn cells(&self) -> &[R] {
        &self.cells
    }

    /// Consumes the results, yielding them in cell-index order.
    #[must_use]
    pub fn into_cells(self) -> Vec<R> {
        self.cells
    }

    /// Collapses the trial axis: a [`Summary`] per (scenario, strategy)
    /// point, extracting a metric from each trial result.
    pub fn summaries(&self, metric: impl Fn(&R) -> f64) -> Vec<Vec<Summary>> {
        let scenarios = self
            .cells
            .len()
            .checked_div(self.strategies * self.trials)
            .unwrap_or(0);
        let mut out = vec![vec![Summary::new(); self.strategies]; scenarios];
        for (si, gi, _, r) in self.iter() {
            out[si][gi].push(metric(r));
        }
        out
    }
}

/// Builds a table whose rows are scenario-axis labels and whose columns
/// are strategy-axis means of `metric` — the shape shared by every
/// figure sweep in §6.3.
pub fn summary_table<R>(
    title: String,
    header: &[&str],
    row_labels: &[String],
    results: &GridResults<R>,
    metric: impl Fn(&R) -> f64,
) -> Table {
    let data = results.summaries(metric);
    assert_eq!(data.len(), row_labels.len(), "row/scenario mismatch");
    let mut table = Table::new(title, header);
    for (label, row) in row_labels.iter().zip(data.iter()) {
        let mut cells = vec![label.clone()];
        cells.extend(row.iter().map(|s| crate::output::f3(s.mean())));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_full_cartesian_product() {
        let grid = ExperimentGrid::new(vec!['a', 'b', 'c'], vec![1u32, 2], vec![7, 8]);
        assert_eq!(grid.len(), 12);
        let results = grid.run(3, |cell| {
            (*cell.scenario, *cell.strategy, cell.seed, cell.trial_idx)
        });
        assert_eq!(results.point(0, 0), &[('a', 1, 7, 0), ('a', 1, 8, 1)]);
        assert_eq!(results.point(2, 1), &[('c', 2, 7, 0), ('c', 2, 8, 1)]);
        assert_eq!(results.cells().len(), 12);
    }

    #[test]
    fn cell_seeds_are_unique_and_stable() {
        let grid = ExperimentGrid::new(vec![0u8; 5], vec![0u8; 4], vec![1, 2, 3]);
        let a = grid.run(1, |c| c.cell_seed());
        let b = grid.run(4, |c| c.cell_seed());
        assert_eq!(a.cells(), b.cells());
        let set: std::collections::HashSet<u64> = a.cells().iter().copied().collect();
        assert_eq!(set.len(), grid.len(), "cell seeds must not collide");
    }

    #[test]
    fn streaming_sink_sees_index_order() {
        let grid = ExperimentGrid::new((0..20u64).collect(), vec![()], vec![0]);
        let mut seen = Vec::new();
        grid.run_streamed(
            8,
            |cell| {
                // Stagger completion so late indices often finish first.
                std::thread::sleep(std::time::Duration::from_micros((20 - cell.scenario) * 100));
                *cell.scenario
            },
            |i, r| seen.push((i, *r)),
        );
        assert_eq!(
            seen,
            (0..20).map(|i| (i as usize, i as u64)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let grid: ExperimentGrid<u8, u8> = ExperimentGrid::new(vec![], vec![1], vec![2]);
        assert!(grid.is_empty());
        let results = grid.run(4, |_| 0u8);
        assert!(results.cells().is_empty());
    }

    #[test]
    fn summaries_collapse_trials() {
        let grid = ExperimentGrid::new(vec![1.0f64, 2.0], vec![10.0f64], vec![0, 1, 2, 3]);
        let results = grid.run(2, |c| c.scenario * c.strategy);
        let summaries = results.summaries(|&v| v);
        assert_eq!(summaries.len(), 2);
        assert!((summaries[0][0].mean() - 10.0).abs() < 1e-12);
        assert!((summaries[1][0].mean() - 20.0).abs() < 1e-12);
        assert_eq!(summaries[0][0].count(), 4);
    }
}
