//! Regenerates the swarm churn matrix: live multi-node swarms over
//! generated topologies with scheduled membership events, swept on the
//! deterministic experiment grid. `--quick` (or `ICD_QUICK=1`) shrinks
//! the geometry for CI smoke runs.
use icd_bench::experiments::swarm;
use icd_bench::{output, ExpConfig};

fn main() {
    let mut cfg = ExpConfig::from_env();
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("ICD_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    if quick {
        cfg.num_blocks = cfg.num_blocks.min(48);
        cfg.trials = cfg.trials.min(1);
    }
    output::emit(&swarm::swarm_matrix(&cfg), "swarm_matrix");
}
