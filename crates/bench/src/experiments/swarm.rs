//! The swarm sweep: figure-5-style overhead curves over live multi-node
//! swarms under membership churn.
//!
//! Each cell is a full [`icd_swarm::Swarm::run`]: a generated topology
//! (Erdős–Rényi / power-law / ring+chords), every peer reconciling with
//! its neighbors concurrently, and a scheduled membership event stream
//! (joins, leaves, rejoins, rewires) interleaved with engine execution.
//! The scenario axis is topology × churn rate, the strategy axis the
//! informed link family, and the whole matrix runs on the
//! [`crate::engine::ExperimentGrid`] — byte-identical at any thread
//! count like every other artifact.

use icd_sketch::SummaryId;
use icd_swarm::{
    try_run_swarm, ChurnConfig, SwarmConfig, SwarmOutcome, SwarmStrategy, TopologyKind,
};

use icd_overlay::strategy::StrategyKind;

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// One swarm scenario point: roster size, topology, and churn schedule.
#[derive(Debug, Clone)]
pub(crate) struct SwarmPoint {
    /// Row label.
    pub label: &'static str,
    /// Initial roster size.
    pub peers: usize,
    /// Generated overlay shape.
    pub topology: TopologyKind,
    /// Fraction of the eligible roster that leaves and rejoins.
    pub churn_fraction: f64,
    /// Mid-run joins of brand-new peers.
    pub joins: usize,
    /// Single-link migrations.
    pub rewires: usize,
}

/// The default sweep: a quiescent ring baseline, then random-graph and
/// power-law swarms at increasing churn — the adaptive-overlay regimes
/// the pairwise presets cannot express.
#[must_use]
pub(crate) fn default_points() -> Vec<SwarmPoint> {
    vec![
        SwarmPoint {
            label: "ring+chords, no churn",
            peers: 48,
            topology: TopologyKind::RingChords { chords: 24 },
            churn_fraction: 0.0,
            joins: 0,
            rewires: 0,
        },
        SwarmPoint {
            label: "ER(0.08), 10% churn",
            peers: 48,
            topology: TopologyKind::ErdosRenyi { p: 0.08 },
            churn_fraction: 0.10,
            joins: 2,
            rewires: 4,
        },
        SwarmPoint {
            label: "power-law, 10% churn",
            peers: 64,
            topology: TopologyKind::PowerLaw { m: 2 },
            churn_fraction: 0.10,
            joins: 4,
            rewires: 6,
        },
        SwarmPoint {
            label: "power-law, 25% churn",
            peers: 96,
            topology: TopologyKind::PowerLaw { m: 2 },
            churn_fraction: 0.25,
            joins: 6,
            rewires: 10,
        },
    ]
}

/// The informed link families the strategy axis sweeps.
const FAMILIES: [(&str, StrategyKind); 2] = [
    ("Random/BF", StrategyKind::RandomSummary(SummaryId::BLOOM)),
    ("Recode/BF", StrategyKind::RecodeSummary(SummaryId::BLOOM)),
];

/// Builds the [`SwarmConfig`] for one cell.
#[must_use]
pub(crate) fn swarm_config(
    point: &SwarmPoint,
    strategy: StrategyKind,
    blocks: usize,
) -> SwarmConfig {
    SwarmConfig::new(point.peers, blocks, point.topology)
        .with_strategy(SwarmStrategy::Fixed(strategy))
        .with_churn(ChurnConfig {
            leave_fraction: point.churn_fraction,
            downtime: 30,
            window: (5, 80),
            joins: point.joins,
            rewires: point.rewires,
        })
}

/// Runs one swarm cell. Deterministic in `(point, strategy, blocks,
/// seed)`. Config validation runs through the checked path so a
/// mis-sized cell names itself instead of aborting the whole grid
/// anonymously.
#[must_use]
pub(crate) fn swarm_cell(
    point: &SwarmPoint,
    strategy: StrategyKind,
    blocks: usize,
    seed: u64,
) -> SwarmOutcome {
    try_run_swarm(swarm_config(point, strategy, blocks), seed ^ 0x5A43)
        .unwrap_or_else(|e| panic!("swarm cell '{}' rejected: {e}", point.label))
}

/// The swarm matrix: rows = topology × churn points, columns =
/// per-family completion / ticks / overhead / churn accounting.
#[must_use]
pub(crate) fn swarm_matrix(cfg: &ExpConfig) -> Table {
    // Swarm cells carry whole rosters; cap the per-peer geometry so the
    // default sweep stays interactive.
    let blocks = cfg.num_blocks.min(96);
    let mut points = default_points();
    if let Some(peers) = peers_override() {
        for point in &mut points {
            point.peers = peers;
        }
    }
    let sweep = ExperimentGrid::new(points.clone(), FAMILIES.to_vec(), cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        swarm_cell(cell.scenario, cell.strategy.1, blocks, cell.seed)
    });

    let mut table = Table::new(
        format!("Swarm download under churn (compact, n={blocks}): topology × membership"),
        &[
            "topology",
            "family",
            "completed",
            "ticks",
            "overhead",
            "mb_wire",
            "events",
            "membership",
            "reconnects",
        ],
    );
    for (si, point) in points.iter().enumerate() {
        for (gi, (family, _)) in FAMILIES.iter().enumerate() {
            let trials = results.point(si, gi);
            let mean = |f: &dyn Fn(&SwarmOutcome) -> f64| {
                trials.iter().map(f).sum::<f64>() / trials.len() as f64
            };
            let complete = trials.iter().filter(|o| o.all_complete()).count();
            table.push_row(vec![
                point.label.to_string(),
                (*family).to_string(),
                format!("{complete}/{}", trials.len()),
                format!("{:.0}", mean(&|o: &SwarmOutcome| o.ticks as f64)),
                f3(mean(&|o: &SwarmOutcome| o.overhead)),
                // True framed wire bytes (data frames + handshakes), in
                // megabytes — the byte-accounting sweep's honest column.
                f3(mean(&|o: &SwarmOutcome| o.wire_bytes as f64 / 1e6)),
                format!("{:.0}", mean(&|o: &SwarmOutcome| o.events as f64)),
                format!(
                    "{:.0}",
                    mean(&|o: &SwarmOutcome| f64::from(o.membership_events()))
                ),
                format!("{:.0}", mean(&|o: &SwarmOutcome| o.reconnects as f64)),
            ]);
        }
    }
    table
}

/// Roster override from `ICD_PEERS`: every sweep point runs at the
/// given roster size (e.g. `ICD_PEERS=1000` reproduces the
/// thousand-node overhead curves; floors at 8 so the seed peers and
/// topology preconditions hold).
#[must_use]
pub(crate) fn peers_override() -> Option<usize> {
    let n: usize = std::env::var("ICD_PEERS").ok()?.trim().parse().ok()?;
    Some(n.max(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_swarm_cell_per_family_completes() {
        let point = &default_points()[2]; // power-law, 10% churn
        for (_, strategy) in FAMILIES {
            let out = swarm_cell(point, strategy, 64, 3);
            assert!(
                out.all_complete(),
                "{strategy:?}: {}/{}",
                out.completed,
                out.peers
            );
            assert!(out.membership_events() > 0, "churn never fired");
        }
    }
}
