//! The experiment battery, one module per evaluation artifact group,
//! and [`EXPERIMENTS`], the one list of what the `figures` binary runs.
//!
//! Every sweep here runs on the [`crate::engine::ExperimentGrid`]
//! engine: cells are enumerated as (scenario × strategy × seed), fanned
//! out over [`ExpConfig::threads`] workers, and reassembled by index,
//! so tables and CSVs are bit-identical at any thread count.

mod ablations;
pub mod art_accuracy;
pub mod calibration;
mod mesh;
pub mod summaries;
mod swarm;
mod transfers;

use crate::config::ExpConfig;
use crate::output::Table;
use transfers::SystemShape::{Compact, Stretched};

/// One evaluation artifact: the name `figures` runs it by, and the
/// function that computes its tables, each paired with the name of the
/// CSV it is written to under `results/`.
#[derive(Debug)]
pub struct Experiment {
    /// The `figures` argument.
    pub name: &'static str,
    /// Computes the artifact's tables.
    pub run: fn(&ExpConfig) -> Vec<(&'static str, Table)>,
}

/// A row whose one table is written under the row's own name.
macro_rules! single {
    ($name:literal, $table:path) => {
        Experiment {
            name: $name,
            run: |cfg| vec![($name, $table(cfg))],
        }
    };
}

/// A Figure 5–8 row: one table per §6.3 system shape, written under
/// the row's name suffixed `_compact` and `_stretched`.
macro_rules! shapes {
    ($name:literal, $figure:expr) => {
        Experiment {
            name: $name,
            run: |cfg| {
                vec![
                    (concat!($name, "_compact"), $figure(cfg, Compact)),
                    (concat!($name, "_stretched"), $figure(cfg, Stretched)),
                ]
            },
        }
    };
}

/// Every artifact, in paper order: §5.1's cost table and the live
/// summary matrices, §5.2's Bloom calibration, Figure 4(a) and Tables
/// 4(b)–(c), §6.1's coding table, Figures 5–8, then the engine-only
/// sweeps and the design ablations.
pub static EXPERIMENTS: &[Experiment] = &[
    single!("recon_cost_table", calibration::recon_cost_table),
    Experiment {
        name: "summary_matrix",
        run: |cfg| {
            vec![
                ("summary_session_matrix", summaries::session_matrix(cfg)),
                ("summary_overlay_matrix", summaries::overlay_matrix(cfg)),
                ("summary_selection", summaries::selection_report()),
            ]
        },
    },
    single!("bloom_fp_table", calibration::bloom_fp_table),
    single!("fig4a", art_accuracy::fig4a),
    single!("table4b", art_accuracy::table4b),
    single!("table4c", art_accuracy::table4c),
    single!("coding_table", calibration::coding_table),
    shapes!("fig5", transfers::fig5),
    shapes!("fig6", transfers::fig6),
    shapes!("fig7", |cfg, shape| transfers::fig78(cfg, shape, 2)),
    shapes!("fig8", |cfg, shape| transfers::fig78(cfg, shape, 4)),
    Experiment {
        name: "mesh",
        run: |cfg| vec![("mesh_matrix", mesh::mesh_matrix(cfg))],
    },
    Experiment {
        name: "swarm",
        run: |cfg| vec![("swarm_matrix", swarm::swarm_matrix(cfg))],
    },
    Experiment {
        name: "ablations",
        run: |cfg| {
            vec![
                ("ablation_filter_bits", ablations::filter_bits_sweep(cfg)),
                ("ablation_degree_cap", ablations::degree_cap_sweep(cfg)),
                (
                    "ablation_degree_policy",
                    ablations::degree_policy_compare(cfg),
                ),
            ]
        },
    },
];
