//! Churn and connection migration (§2's adaptivity claims, measured).
//!
//! §2.3 argues that encoded content makes connection migration stateless:
//! "fully stateless connection migrations, in which no state need be
//! transferred among hosts and no dangling retransmissions need be
//! resolved". This module simulates exactly that: a receiver whose
//! partial-sender connection is torn down and replaced every
//! `migration_interval` ticks by a *different* sender. The receiver's
//! working set and pending recoded symbols survive; the only per-
//! connection cost is a fresh handshake (one filter or sketch exchange —
//! cheap by construction, see `icd-wire::budget`), which each new
//! connection performs against the receiver's *current* working set,
//! exactly as a deployment would.
//!
//! Since the [`crate::net`] engine landed, migration is expressed as an
//! *event stream* over a live [`OverlayNet`]: the run is paused at every
//! scheduled migration tick (and whenever the active link's sender
//! exhausts), the old link is torn down, and a fresh link — fresh
//! handshake, fresh sender — is connected before the clock resumes. No
//! tick bookkeeping happens here; the engine owns the clock, the packet
//! counters, and stall detection.
//!
//! The `churn_migration` example and the integration tests use this to
//! show the qualitative claim: migration costs an informed transfer
//! almost nothing, while a *stateful*, range-negotiation protocol would
//! have had to renegotiate on every hop (§2.2's "frequent renegotiation
//! may be required").

use icd_util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};

use crate::net::{ConnectSpec, Link, NodeId, OverlayNet, RunLimit, StopReason};
use crate::scenario::ScenarioParams;
use crate::strategy::StrategyKind;
use crate::transfer::{default_max_ticks, TransferOutcome};
use crate::SymbolId;

/// Configuration for a migration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Ticks between forced connection migrations.
    pub migration_interval: u64,
    /// Number of distinct candidate senders to rotate through.
    pub sender_pool: usize,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self {
            migration_interval: 200,
            sender_pool: 4,
        }
    }
}

/// Outcome of a churn run: the plain outcome plus migration accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnOutcome {
    /// The underlying transfer outcome.
    pub transfer: TransferOutcome,
    /// Migrations that occurred.
    pub migrations: u64,
    /// Control messages exchanged (one handshake per connection) — the
    /// entire per-migration cost under encoded content.
    pub handshakes: u64,
}

/// Runs a two-peer-style transfer in which the active sender is replaced
/// every `migration_interval` ticks by the next sender from a pool of
/// `sender_pool` peers with overlapping working sets. Every new
/// connection handshakes afresh against the receiver's current state.
#[must_use]
pub fn run_with_migration(
    params: &ScenarioParams,
    strategy: StrategyKind,
    config: MigrationConfig,
    seed: u64,
) -> ChurnOutcome {
    assert!(config.sender_pool >= 1, "need at least one sender");
    assert!(config.migration_interval >= 1, "interval must be positive");
    let distinct = params.distinct_symbols();
    let ids = params.symbol_ids(distinct);
    let half = distinct / 2;
    let receiver_set: Vec<SymbolId> = ids[..half].to_vec();
    let rest: Vec<SymbolId> = ids[half..].to_vec();

    // Pool member inventories: the full "other half" plus a random fifth
    // of the receiver's set (correlated senders, like real overlay peers).
    let mut pool_rng = Xoshiro256StarStar::new(seed ^ 0xC4_DA97);
    let pool_sets: Vec<Vec<SymbolId>> = (0..config.sender_pool)
        .map(|_| {
            let mut set = rest.clone();
            let extra = receiver_set.len() / 5;
            for idx in pool_rng.sample_distinct(receiver_set.len(), extra) {
                set.push(receiver_set[idx]);
            }
            set
        })
        .collect();

    let mut seeds = SplitMix64::new(seed);
    let mut net = OverlayNet::new(seed);
    let receiver = net.add_node(&receiver_set, params.target());
    net.set_observer(receiver, true);
    let pool_nodes: Vec<NodeId> = pool_sets.iter().map(|set| net.add_seeder(set)).collect();
    let needed = net.node_remaining(receiver);
    let max_ticks = default_max_ticks(params.target());

    // Connect to pool member `i` with a fresh handshake derived from the
    // receiver's *current* working set (the engine builds it).
    let mut handshakes = 0u64;
    let mut migrations = 0u64;
    let mut active_idx = 0usize;
    handshakes += 1;
    let mut active = net.connect(
        pool_nodes[0],
        receiver,
        strategy,
        Link::default(),
        ConnectSpec::seeded(seeds.next_u64()),
    );

    // The migration event stream: pause the engine at every scheduled
    // migration tick; an exhausted sender (engine stall) migrates
    // immediately, and a full rotation of fresh connections that moves
    // nothing means the system is stalled for good.
    let mut next_migration = config.migration_interval;
    let mut dry_connects = 0usize;
    let mut packets_at_last_stall = 0u64;
    loop {
        let reason = net.run(RunLimit {
            max_ticks,
            stop_before: Some(next_migration),
        });
        let migrate = match reason {
            StopReason::Completed | StopReason::MaxTicks => break,
            StopReason::Paused => {
                next_migration = next_migration.saturating_add(config.migration_interval);
                true
            }
            StopReason::Stalled => {
                let sent = net.packets_from_partial();
                dry_connects = if sent > packets_at_last_stall {
                    1
                } else {
                    dry_connects + 1
                };
                packets_at_last_stall = sent;
                if dry_connects > pool_nodes.len() {
                    break;
                }
                true
            }
        };
        if migrate {
            net.disconnect(active);
            active_idx = (active_idx + 1) % pool_nodes.len();
            handshakes += 1;
            migrations += 1;
            active = net.connect(
                pool_nodes[active_idx],
                receiver,
                strategy,
                Link::default(),
                ConnectSpec::seeded(seeds.next_u64()),
            );
        }
    }

    ChurnOutcome {
        transfer: TransferOutcome {
            ticks: net.now(),
            packets_from_partial: net.packets_from_partial(),
            packets_from_full: 0,
            gained: needed - net.node_remaining(receiver),
            needed,
            completed: net.node_complete(receiver),
        },
        migrations,
        handshakes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_sketch::SummaryId;

    #[test]
    fn migration_does_not_prevent_completion() {
        let params = ScenarioParams::compact(2000, 21);
        for strategy in StrategyKind::ALL {
            let out = run_with_migration(
                &params,
                strategy,
                MigrationConfig {
                    migration_interval: 100,
                    sender_pool: 3,
                },
                5,
            );
            assert!(
                out.transfer.completed,
                "{} failed under churn",
                strategy.label()
            );
            assert!(out.migrations > 0, "migrations should have occurred");
            assert_eq!(out.handshakes, out.migrations + 1);
        }
    }

    #[test]
    fn informed_strategy_overhead_survives_churn() {
        // Random/BF's overhead stays near 1 even with aggressive churn —
        // the statelessness claim in numbers: each migration costs one
        // handshake, not renegotiation of ranges or retransmissions.
        let params = ScenarioParams::compact(3000, 22);
        let churned = run_with_migration(
            &params,
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            MigrationConfig {
                migration_interval: 50,
                sender_pool: 5,
            },
            6,
        );
        assert!(churned.transfer.completed);
        assert!(
            churned.transfer.overhead() < 1.2,
            "churned Random/BF overhead {}",
            churned.transfer.overhead()
        );
    }

    #[test]
    fn frequent_migration_hurts_oblivious_more_than_informed() {
        let params = ScenarioParams::compact(2000, 23);
        let config = MigrationConfig {
            migration_interval: 25,
            sender_pool: 4,
        };
        let random = run_with_migration(&params, StrategyKind::Random, config, 7);
        let informed = run_with_migration(
            &params,
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            config,
            7,
        );
        assert!(random.transfer.completed && informed.transfer.completed);
        assert!(
            informed.transfer.overhead() < random.transfer.overhead(),
            "informed {} should beat oblivious {}",
            informed.transfer.overhead(),
            random.transfer.overhead()
        );
    }

    #[test]
    fn determinism() {
        let params = ScenarioParams::compact(1000, 24);
        let a = run_with_migration(&params, StrategyKind::Recode, MigrationConfig::default(), 9);
        let b = run_with_migration(&params, StrategyKind::Recode, MigrationConfig::default(), 9);
        assert_eq!(a, b);
    }
}
