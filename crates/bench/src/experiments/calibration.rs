//! Calibration tables: Bloom false positives (§5.2), coding parameters
//! (§6.1), and the exact-vs-approximate reconciliation cost comparison
//! (§5.1).

use icd_fountain::overhead::measure_overhead;
use icd_sketch::bloom::{math, BloomFilter};
use icd_sketch::exact::cost::{measure_all, Scenario};
use icd_util::rng::Rng64;

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// Membership probes per §5.2 calibration point.
pub const BLOOM_PROBES: usize = 100_000;

/// One §5.2 calibration point: a filter geometry, its analytic
/// false-positive rate, and the rate measured over [`BLOOM_PROBES`]
/// probes of keys never inserted.
#[derive(Debug, Clone, Copy)]
pub struct BloomFpRow {
    /// Filter bits per inserted key.
    pub bits_per_element: f64,
    /// Hash functions.
    pub hashes: u32,
    /// Keys inserted.
    pub items: usize,
    /// `(1 − e^{−kn/m})^k` at this geometry.
    pub analytic: f64,
    /// Share of the probes the filter answered positively.
    pub measured: f64,
    /// The paper's figure, at its two calibration points.
    pub paper: Option<f64>,
}

/// §5.2's calibration points plus a sweep: analytic vs measured false
/// positive rate per (bits/element, hashes).
#[must_use]
pub fn bloom_fp_rows(cfg: &ExpConfig) -> Vec<BloomFpRow> {
    let n = cfg.num_blocks.max(5_000);
    let paper_points = [(4.0, 3, Some(0.147)), (8.0, 5, Some(0.022))];
    let extra_points = [
        (2.0, 1, None),
        (6.0, 4, None),
        (10.0, 7, None),
        (12.0, 8, None),
    ];
    let points: Vec<(f64, u32, Option<f64>)> =
        paper_points.into_iter().chain(extra_points).collect();
    // One engine cell per calibration point; keys and probes come from
    // the cell's private RNG, so the measurement no longer depends on
    // the order points happen to run in.
    let sweep = ExperimentGrid::new(points, vec![()], vec![cfg.base_seed]);
    let results = sweep.run(cfg.threads, |cell| {
        let (bpe, k, _) = *cell.scenario;
        let mut rng = cell.rng();
        let m = (bpe * n as f64) as usize;
        let mut filter = BloomFilter::new(m, k, cfg.base_seed);
        for _ in 0..n {
            filter.insert(rng.next_u64());
        }
        let fps = (0..BLOOM_PROBES)
            .filter(|_| filter.contains(rng.next_u64()))
            .count();
        fps as f64 / BLOOM_PROBES as f64
    });
    sweep
        .scenarios()
        .iter()
        .zip(results.cells())
        .map(|(&(bpe, k, paper), &measured)| BloomFpRow {
            bits_per_element: bpe,
            hashes: k,
            items: n,
            analytic: math::false_positive_rate((bpe * n as f64) as usize, n as u64, k),
            measured,
            paper,
        })
        .collect()
}

/// [`bloom_fp_rows`] as a table.
pub(crate) fn bloom_fp_table(cfg: &ExpConfig) -> Table {
    let rows = bloom_fp_rows(cfg);
    let mut table = Table::new(
        format!("Bloom false-positive calibration (n={})", rows[0].items),
        &["bits/elem", "hashes", "analytic", "measured", "paper"],
    );
    for row in rows {
        table.push_row(vec![
            format!("{}", row.bits_per_element),
            format!("{}", row.hashes),
            f3(row.analytic),
            f3(row.measured),
            row.paper.map_or_else(|| "-".to_string(), f3),
        ]);
    }
    table
}

/// §6.1's coding parameters: mean degree and decoding overhead across
/// scales, with the paper's reported values alongside.
pub(crate) fn coding_table(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Coding parameters (paper §6.1: avg degree 11, overhead 6.8% at l=23968)".to_string(),
        &[
            "blocks",
            "mean_degree",
            "overhead_mean",
            "overhead_ci95",
            "trials",
        ],
    );
    let mut scales = vec![1_000usize, 4_000];
    if cfg.num_blocks > 4_000 {
        scales.push(cfg.num_blocks);
    }
    // One engine cell per scale; each cell runs its own trial loop.
    let sweep = ExperimentGrid::new(scales, vec![()], vec![cfg.base_seed]);
    let results = sweep.run(cfg.threads, |cell| {
        let l = *cell.scenario;
        let trials = if l >= 20_000 {
            cfg.trials.min(2)
        } else {
            cfg.trials
        };
        measure_overhead(l, trials, cfg.base_seed)
    });
    for (si, _, _, report) in results.iter() {
        table.push_row(vec![
            format!("{}", sweep.scenarios()[si]),
            f3(report.mean_degree),
            f3(report.overhead.mean()),
            f3(report.overhead.ci95()),
            format!("{}", report.overhead.count()),
        ]);
    }
    table
}

/// §5.1's cost comparison across every reconciliation method in the
/// workspace. Runs sequentially on purpose: the rows report wall-clock
/// build/reconcile times, which concurrent cells would contend over.
pub(crate) fn recon_cost_table(cfg: &ExpConfig) -> Table {
    let shared = cfg.num_blocks;
    let differences = (cfg.num_blocks / 50).max(20);
    let scenario = Scenario::generate(shared, differences, cfg.base_seed);
    let report = measure_all(&scenario);
    let mut table = Table::new(
        format!("Reconciliation cost comparison (|A|={shared}, |B−A|={differences})"),
        &[
            "method",
            "wire_bytes",
            "build_ms",
            "reconcile_ms",
            "accuracy",
        ],
    );
    for row in &report.rows {
        table.push_row(vec![
            row.method.to_string(),
            format!("{}", row.wire_bytes),
            f3(row.build_ns as f64 / 1e6),
            f3(row.reconcile_ns as f64 / 1e6),
            f3(row.accuracy),
        ]);
    }
    table
}
