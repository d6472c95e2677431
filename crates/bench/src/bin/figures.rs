//! Regenerates the paper's evaluation from [`icd_bench::experiments::EXPERIMENTS`].
//!
//! ```text
//! figures <name>...   run the named experiments, in the order given
//! figures all         run every experiment, in paper order
//! ```
//!
//! Each table is printed and written to `results/<csv>.csv`. An unknown
//! name, or no name, prints the list of names and exits with status 2.
//! Knobs: `ICD_BLOCKS`, `ICD_TRIALS`, `ICD_SEED`, `RAYON_NUM_THREADS`, and
//! `ICD_PEERS` (the `swarm` roster).

use std::process::ExitCode;

use icd_bench::experiments::{Experiment, EXPERIMENTS};
use icd_bench::{output, ExpConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Option<Vec<&Experiment>> = if args == ["all"] {
        Some(EXPERIMENTS.iter().collect())
    } else {
        args.iter()
            .map(|arg| EXPERIMENTS.iter().find(|e| e.name == arg))
            .collect()
    };
    let Some(chosen) = chosen.filter(|c| !c.is_empty()) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: figures <name>... | figures all");
        eprintln!("names: {}", names.join(" "));
        return ExitCode::from(2);
    };
    let cfg = ExpConfig::from_env();
    for experiment in chosen {
        for (csv, table) in (experiment.run)(&cfg) {
            output::emit(&table, csv);
        }
    }
    ExitCode::SUCCESS
}
