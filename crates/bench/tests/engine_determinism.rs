//! The engine's core promise: a sweep's output is bit-identical no
//! matter how many worker threads ran it. Exercised on a real overlay
//! workload (a miniature Figure-5 sweep), not a toy closure, so the
//! test also covers the per-cell RNG derivation that the experiment
//! ports rely on.

use icd_bench::engine::{summary_table, ExperimentGrid};
use icd_bench::experiments::summaries::{session_cell, SessionGeometry};
use icd_bench::experiments::EXPERIMENTS;
use icd_bench::ExpConfig;
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::run_transfer;
use icd_sketch::standard_registry;

fn mini_fig5_table(threads: usize) -> String {
    let blocks = 600;
    let correlations = vec![0.0, 0.2, 0.4];
    let seeds = vec![0x5EED, 0x5EEE];
    let grid = ExperimentGrid::new(correlations.clone(), StrategyKind::ALL.to_vec(), seeds);
    let results = grid.run(threads, |cell| {
        let params = ScenarioParams::compact(blocks, cell.seed);
        let scenario = TwoPeerScenario::build(&params, *cell.scenario);
        run_transfer(&scenario, *cell.strategy, cell.seed ^ 0x5A5A).overhead()
    });
    summary_table(
        "mini fig5".to_string(),
        &[
            "c",
            "Random",
            "Random/BF",
            "Recode",
            "Recode/BF",
            "Recode/MW",
        ],
        &correlations
            .iter()
            .map(|c| format!("{c:.2}"))
            .collect::<Vec<_>>(),
        &results,
        |&v| v,
    )
    .render()
}

#[test]
fn grid_output_is_identical_across_thread_counts() {
    let serial = mini_fig5_table(1);
    for threads in [2, 4, 16] {
        let parallel = mini_fig5_table(threads);
        assert_eq!(
            serial, parallel,
            "grid output must be bit-identical at {threads} threads"
        );
    }
}

/// A miniature multi-summary sweep: one live session pump per
/// (geometry × SummaryId × seed) cell, mechanisms as the strategy axis.
fn mini_summary_table(threads: usize) -> String {
    let geometries = vec![SessionGeometry {
        label: "mini",
        shared: 300,
        receiver_extra: 10,
        sender_extra: 40,
    }];
    let mechanisms = standard_registry().ids();
    let grid = ExperimentGrid::new(geometries, mechanisms.clone(), vec![0xD5, 0xD6]);
    let results = grid.run(threads, |cell| {
        session_cell(cell.scenario, *cell.strategy, cell.seed)
    });
    let labels: Vec<String> = mechanisms.iter().map(|m| m.label().to_string()).collect();
    let mut header: Vec<&str> = vec!["geometry"];
    header.extend(labels.iter().map(String::as_str));
    summary_table(
        "mini summary matrix".to_string(),
        &header,
        &["mini".to_string()],
        &results,
        |o| o.recovered,
    )
    .render()
}

#[test]
fn multi_summary_sweep_is_identical_across_thread_counts() {
    // The new mechanism axis must honor the same determinism contract:
    // byte-identical output whether the five mechanisms' session pumps
    // ran serially or in parallel.
    let serial = mini_summary_table(1);
    for threads in [2, 8] {
        let parallel = mini_summary_table(threads);
        assert_eq!(
            serial, parallel,
            "summary sweep must be bit-identical at {threads} threads"
        );
    }
}

/// Every row of the experiment table, rendered at `threads` workers.
/// `recon_cost_table`'s `build_ms`/`reconcile_ms` columns are wall-clock,
/// so only its `method`, `wire_bytes` and `accuracy` columns are kept.
fn every_table(threads: usize) -> Vec<String> {
    let cfg = ExpConfig {
        num_blocks: 1_000,
        trials: 1,
        base_seed: 0x1CD_2002,
        threads,
    };
    let mut renders = Vec::new();
    for experiment in EXPERIMENTS {
        for (csv, mut table) in (experiment.run)(&cfg) {
            if csv == "recon_cost_table" {
                for row in &mut table.rows {
                    row[2].clear();
                    row[3].clear();
                }
            }
            renders.push(format!("{} / {csv}\n{}", experiment.name, table.render()));
        }
    }
    renders
}

#[test]
fn every_experiment_is_identical_across_thread_counts() {
    // Each cell of every artifact — two-peer presets, mesh downloads,
    // churned swarms, live session pumps, ablations — must be a pure
    // function of its coordinates: the rendered tables are
    // byte-identical whether cells ran serially or on 4 workers.
    let serial = every_table(1);
    let parallel = every_table(4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a, b, "tables must be bit-identical at 4 threads");
    }
}

#[test]
fn streamed_rows_match_collected_results_under_parallelism() {
    let grid = ExperimentGrid::new((0..12u64).collect(), vec![1u64, 2], vec![3, 4, 5]);
    let mut streamed = Vec::new();
    let results = grid.run_streamed(
        8,
        |cell| cell.scenario * cell.strategy + cell.seed + cell.cell_seed() % 97,
        |i, r| streamed.push((i, *r)),
    );
    let collected: Vec<(usize, u64)> = results.cells().iter().copied().enumerate().collect();
    assert_eq!(streamed, collected);
}

#[test]
fn per_cell_rng_is_a_pure_function_of_coordinates() {
    let grid = ExperimentGrid::new(vec!["a", "b"], vec![0u8, 1, 2], vec![9, 10]);
    let draw = |threads| grid.run(threads, |cell| cell.rng().next_u64()).into_cells();
    use icd_util::rng::Rng64;
    let one = draw(1);
    let many = draw(4);
    assert_eq!(one, many);
    let distinct: std::collections::HashSet<u64> = one.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        grid.len(),
        "cells must not share RNG streams"
    );
}
