//! Figure 4(a), Table 4(b), and Table 4(c): approximate reconciliation
//! tree accuracy and the Bloom-vs-ART comparison.

use icd_sketch::art::accuracy::{measure_accuracy, optimal_split, AccuracyConfig};
use icd_sketch::bloom::BloomFilter;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// The ART-accuracy workload: n-element sets with d differences, per the
/// §5.3 setting ("less than 1% of the symbols at peer B might be useful
/// ... this difference may still be hundreds of symbols").
fn base_accuracy_config(cfg: &ExpConfig) -> AccuracyConfig {
    AccuracyConfig {
        set_size: cfg.num_blocks,
        differences: (cfg.num_blocks / 50).max(20), // 2 % difference
        total_bits_per_element: 8.0,
        leaf_bits_per_element: 4.0,
        correction: 0,
        trials: cfg.trials,
        seed: cfg.base_seed,
    }
}

/// Figure 4(a): fraction of differences found vs bits per element in the
/// leaf filter (total fixed at 8), one series per correction level 0–5.
#[must_use]
pub(crate) fn fig4a(cfg: &ExpConfig) -> Table {
    let base = base_accuracy_config(cfg);
    let grid: Vec<f64> = (0..=8).map(|i| i as f64).collect();
    let mut table = Table::new(
        format!(
            "Figure 4(a): ART accuracy vs leaf-filter bits (8 b/elem total, n={}, d={})",
            base.set_size, base.differences
        ),
        &[
            "leaf_bits",
            "corr=0",
            "corr=1",
            "corr=2",
            "corr=3",
            "corr=4",
            "corr=5",
        ],
    );
    // One row per leaf-bit setting, one column per correction level;
    // every (leaf_bits, correction) point is one engine cell.
    let sweep = ExperimentGrid::new(grid.clone(), (0..=5u32).collect(), vec![base.seed]);
    let results = sweep.run(cfg.threads, |cell| {
        measure_accuracy(&AccuracyConfig {
            leaf_bits_per_element: *cell.scenario,
            correction: *cell.strategy,
            ..base
        })
        .mean()
    });
    let data = results.summaries(|&acc| acc);
    for (leaf_bits, row) in grid.iter().zip(data.iter()) {
        let mut cells = vec![format!("{leaf_bits}")];
        cells.extend(row.iter().map(|s| f3(s.mean())));
        table.push_row(cells);
    }
    table
}

/// Table 4(b): accuracy at bits/element ∈ {2, 4, 6, 8} × correction 0–5,
/// using the optimal leaf/internal split per cell (as the paper does).
#[must_use]
pub(crate) fn table4b(cfg: &ExpConfig) -> Table {
    let base = base_accuracy_config(cfg);
    let mut table = Table::new(
        format!(
            "Table 4(b): ART accuracy, optimal split (n={}, d={})",
            base.set_size, base.differences
        ),
        &["correction", "2 bpe", "4 bpe", "6 bpe", "8 bpe"],
    );
    // Rows = correction levels, columns = bit budgets; each point runs
    // its own optimal-split search in one engine cell.
    let corrections: Vec<u32> = (0..=5).collect();
    let budgets = vec![2.0, 4.0, 6.0, 8.0];
    let sweep = ExperimentGrid::new(corrections.clone(), budgets, vec![base.seed]);
    let results = sweep.run(cfg.threads, |cell| {
        let (_, acc) = optimal_split(&AccuracyConfig {
            correction: *cell.scenario,
            total_bits_per_element: *cell.strategy,
            trials: cfg.trials.max(1),
            ..base
        });
        acc
    });
    let data = results.summaries(|&acc| acc);
    for (correction, row) in corrections.iter().zip(data.iter()) {
        let mut cells = vec![format!("{correction}")];
        cells.extend(row.iter().map(|s| f3(s.mean())));
        table.push_row(cells);
    }
    table
}

/// Table 4(c): high-level comparison at 8 bits/element — size in bits,
/// accuracy, and search cost (probe counts stand in for the O(n) vs
/// O(d log n) column; wall-clock is measured by the `recon_speed`
/// criterion bench).
#[must_use]
pub(crate) fn table4c(cfg: &ExpConfig) -> Table {
    let n = cfg.num_blocks;
    let d = (n / 50).max(20);
    let mut rng = Xoshiro256StarStar::new(cfg.base_seed);
    let shared: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let fresh: Vec<u64> = (0..d).map(|_| rng.next_u64()).collect();
    let mut b_keys = shared.clone();
    b_keys.extend(fresh.iter().copied());

    // Bloom at 8 bits/element, 5 hashes (the paper's row).
    let mut filter = BloomFilter::new(8 * n, 5, cfg.base_seed);
    for &k in &shared {
        filter.insert(k);
    }
    let bloom_found = b_keys.iter().filter(|&&k| !filter.contains(k)).count();
    let bloom_probes = b_keys.len(); // one membership test per element

    // ART at 8 bits/element, correction 5 (the paper's row).
    let params = icd_sketch::art::ArtParams::default();
    let tree_a = icd_sketch::art::ReconciliationTree::from_keys(params, shared.iter().copied());
    let tree_b = icd_sketch::art::ReconciliationTree::from_keys(params, b_keys.iter().copied());
    let summary = icd_sketch::art::ArtSummary::build(
        &tree_a,
        icd_sketch::art::SummaryParams::with_split(8.0, 5.0, 5),
    );
    let art_out = icd_sketch::art::search_differences(&tree_b, &summary);

    let mut table = Table::new(
        format!("Table 4(c): structure comparison at 8 bits/element (n={n}, d={d})"),
        &["structure", "size_bits", "accuracy", "probes", "asymptotic"],
    );
    table.push_row(vec![
        "Bloom filter".into(),
        format!("{}", 8 * n),
        f3(bloom_found as f64 / d as f64),
        format!("{bloom_probes}"),
        "O(n)".into(),
    ]);
    table.push_row(vec![
        "A.R.T. (correction=5)".into(),
        format!("{}", summary.wire_size() * 8),
        f3(art_out.missing_at_peer.len() as f64 / d as f64),
        format!("{}", art_out.total_probes()),
        "O(d log n)".into(),
    ]);
    table
}

/// Single-cell accuracy (exposed for the integration tests asserting the
/// paper's qualitative shape).
#[must_use]
pub fn accuracy_cell(cfg: &ExpConfig, total_bits: f64, leaf_bits: f64, correction: u32) -> f64 {
    measure_accuracy(&AccuracyConfig {
        total_bits_per_element: total_bits,
        leaf_bits_per_element: leaf_bits,
        correction,
        ..base_accuracy_config(cfg)
    })
    .mean()
}
