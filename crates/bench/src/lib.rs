//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5.2, §5.3, §6.1, §6.3).
//!
//! Each experiment lives in [`experiments`] as a pure function from an
//! [`ExpConfig`] to a [`Table`]; the `src/bin/*` binaries are thin
//! wrappers that print the table and write a CSV under `results/`.
//! `bin/all_experiments` runs the full battery.
//!
//! Scaling: the paper's reference workload is l = 23 968 source blocks
//! (a 32 MB file at 1400-byte blocks). The default here is l = 8 000 so
//! the whole battery completes in minutes on a laptop; set
//! `ICD_BLOCKS=23968` (and optionally `ICD_TRIALS`) to reproduce at
//! paper scale. Shapes are scale-stable: each binary prints the same
//! table at either scale.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod config;
pub mod engine;
pub mod experiments;
mod mem;
pub mod output;

pub use config::ExpConfig;
pub use engine::{Cell, ExperimentGrid, GridResults};
pub use mem::peak_rss_mb;
pub use output::Table;
