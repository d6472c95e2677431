//! The mesh parallel-download sweep: scenarios only the `OverlayNet`
//! engine can run.
//!
//! Each cell is a [`run_mesh_download`]: a receiver reconciling with `k`
//! neighbors *concurrently* — per-link summary mechanism chosen by the
//! registry cost advisors from the endpoints' calling cards — over
//! heterogeneous (rate/latency/loss) links, while the seeders run a
//! background reconciliation ring, uploading on one link and
//! downloading on another at the same time. The strategy axis selects
//! the informed family (Random/summary vs Recode/summary); the sweep
//! runs on the [`crate::engine::ExperimentGrid`] like every other
//! artifact, byte-identical at any thread count.

use icd_overlay::net::{run_mesh_download, Link, MeshOutcome};
use icd_overlay::scenario::ScenarioParams;

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// One mesh topology point: neighbor count plus the per-link profiles
/// (cycled over the receiver-facing links).
#[derive(Debug, Clone)]
pub(crate) struct MeshPoint {
    /// Row label.
    pub label: &'static str,
    /// Number of neighbors the receiver downloads from concurrently.
    pub k: usize,
    /// Working-set correlation of the §6.3 multi-sender geometry.
    pub correlation: f64,
    /// Heterogeneous link profiles, cycled across the k links.
    pub profiles: Vec<Link>,
}

/// The default mesh sweep: uniform fan-ins for scaling, then a
/// heterogeneous point (a slow link and a laggy one) and a lossy point —
/// the regimes the pairwise loops could not express.
#[must_use]
pub(crate) fn default_points() -> Vec<MeshPoint> {
    vec![
        MeshPoint {
            label: "k=2 uniform",
            k: 2,
            correlation: 0.2,
            profiles: vec![Link::default()],
        },
        MeshPoint {
            label: "k=4 uniform",
            k: 4,
            correlation: 0.2,
            profiles: vec![Link::default()],
        },
        MeshPoint {
            label: "k=4 heterogeneous",
            k: 4,
            correlation: 0.2,
            profiles: vec![
                Link::default(),
                Link::slower(2),
                Link {
                    interval: 1,
                    latency: 6,
                    loss: 0.0,
                },
                Link::slower(3),
            ],
        },
        MeshPoint {
            label: "k=4 lossy (10%)",
            k: 4,
            correlation: 0.2,
            profiles: vec![Link::lossy(0.10)],
        },
    ]
}

/// The two informed families the strategy axis sweeps.
const FAMILIES: [(&str, bool); 2] = [("Random/summary", false), ("Recode/summary", true)];

/// Runs one mesh cell. Deterministic in `(point, recode, seed)`.
#[must_use]
pub(crate) fn mesh_cell(point: &MeshPoint, recode: bool, blocks: usize, seed: u64) -> MeshOutcome {
    let params = ScenarioParams::compact(blocks, seed);
    run_mesh_download(
        &params,
        point.k,
        point.correlation,
        &point.profiles,
        recode,
        seed ^ 0x3E5A,
    )
}

/// The mesh matrix: rows = topology points, columns = per-family
/// speedup / overhead / loss / advisor choices.
#[must_use]
pub(crate) fn mesh_matrix(cfg: &ExpConfig) -> Table {
    // Mesh cells are heavier than two-peer cells (k+1 nodes, 2k links);
    // cap the geometry so the default sweep stays interactive.
    let blocks = cfg.num_blocks.min(4_000);
    let points = default_points();
    let sweep = ExperimentGrid::new(points.clone(), FAMILIES.to_vec(), cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        mesh_cell(cell.scenario, cell.strategy.1, blocks, cell.seed)
    });

    let mut table = Table::new(
        format!("Mesh parallel download (compact, n={blocks}): engine scenarios"),
        &[
            "topology",
            "family",
            "speedup",
            "overhead",
            "mb_wire",
            "lost_frac",
            "ring_gained",
            "completed",
            "mechanisms",
        ],
    );
    for (si, point) in points.iter().enumerate() {
        for (gi, (family, _)) in FAMILIES.iter().enumerate() {
            let trials = results.point(si, gi);
            let mean = |f: &dyn Fn(&MeshOutcome) -> f64| {
                trials.iter().map(f).sum::<f64>() / trials.len() as f64
            };
            let speedup = mean(&|o: &MeshOutcome| o.transfer.speedup());
            let overhead = mean(&|o: &MeshOutcome| o.transfer.overhead());
            let lost = mean(&|o: &MeshOutcome| {
                let sent = o.transfer.packets_from_partial.max(1);
                o.packets_lost as f64 / sent as f64
            });
            let ring = mean(&|o: &MeshOutcome| o.seeder_gained as f64);
            let completed = trials.iter().filter(|o| o.transfer.completed).count();
            // Advisor choices from the first trial (they are a function
            // of geometry, not the trial seed, for uniform points).
            let mut mechanisms: Vec<String> = trials[0]
                .summaries
                .iter()
                .map(|id| id.label().to_string())
                .collect();
            mechanisms.dedup();
            table.push_row(vec![
                point.label.to_string(),
                (*family).to_string(),
                f3(speedup),
                f3(overhead),
                // True framed wire bytes of the receiver's download
                // links (data + control), in megabytes.
                f3(mean(&|o: &MeshOutcome| o.wire_bytes as f64 / 1e6)),
                f3(lost),
                format!("{ring:.0}"),
                format!("{completed}/{}", trials.len()),
                mechanisms.join("+"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mesh_cell_per_family_completes() {
        let point = &default_points()[0];
        for (_, recode) in FAMILIES {
            let out = mesh_cell(point, recode, 1_500, 3);
            assert!(out.transfer.completed, "recode={recode} failed");
            assert!(out.transfer.speedup() > 1.0, "no parallel gain");
            assert!(!out.summaries.is_empty());
        }
    }
}
