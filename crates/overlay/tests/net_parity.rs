//! Engine parity: the `OverlayNet` presets must reproduce the historical
//! hand-rolled loops *byte-identically*.
//!
//! The constants below were captured by running the pre-engine
//! implementations of `run_transfer`, `run_with_full_sender`,
//! `run_multi_partial`, and `run_with_migration` (the independent tick
//! loops this repository shipped before the discrete-event engine) on
//! the exact scenarios constructed here. Any drift in the engine's event
//! ordering, seed plumbing, handshake derivation, or stall/completion
//! semantics shows up as a failed equality — not a tolerance miss.

use icd_overlay::churn::{run_with_migration, MigrationConfig};
use icd_overlay::scenario::{MultiSenderScenario, ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::{
    run_multi_partial, run_transfer, run_with_full_sender, TransferOutcome,
};

fn params() -> ScenarioParams {
    ScenarioParams::compact(2000, 0xFEED)
}

fn outcome(
    ticks: u64,
    packets_from_partial: u64,
    packets_from_full: u64,
    gained: usize,
    needed: usize,
) -> TransferOutcome {
    TransferOutcome {
        ticks,
        packets_from_partial,
        packets_from_full,
        gained,
        needed,
        completed: true,
    }
}

/// Pre-engine `run_transfer` outcomes at (compact n=2000 seed=0xFEED,
/// c=0.2) for all five strategies × seeds {1, 2}.
#[test]
fn two_node_preset_matches_legacy_loop_for_all_strategies() {
    let scenario = TwoPeerScenario::build(&params(), 0.2);
    let golden = [
        (StrategyKind::ALL[0], 1, outcome(4007, 4007, 0, 1040, 1040)),
        (StrategyKind::ALL[0], 2, outcome(4030, 4030, 0, 1040, 1040)),
        (StrategyKind::ALL[1], 1, outcome(1040, 1040, 0, 1040, 1040)),
        (StrategyKind::ALL[1], 2, outcome(1040, 1040, 0, 1040, 1040)),
        (StrategyKind::ALL[2], 1, outcome(1335, 1335, 0, 1100, 1040)),
        (StrategyKind::ALL[2], 2, outcome(1301, 1301, 0, 1098, 1040)),
        (StrategyKind::ALL[3], 1, outcome(1182, 1182, 0, 1078, 1040)),
        (StrategyKind::ALL[3], 2, outcome(1282, 1282, 0, 1078, 1040)),
        (StrategyKind::ALL[4], 1, outcome(1349, 1349, 0, 1100, 1040)),
        (StrategyKind::ALL[4], 2, outcome(1287, 1287, 0, 1095, 1040)),
    ];
    for (strategy, seed, expected) in golden {
        let got = run_transfer(&scenario, strategy, seed);
        assert_eq!(
            got,
            expected,
            "{} seed={seed} diverged from the legacy loop",
            strategy.label()
        );
    }
}

/// Pre-engine `run_with_full_sender` outcomes (same scenario, seed 5).
#[test]
fn full_sender_preset_matches_legacy_loop() {
    let scenario = TwoPeerScenario::build(&params(), 0.2);
    let golden = [
        (StrategyKind::ALL[0], outcome(632, 632, 632, 1040, 1040)),
        (StrategyKind::ALL[1], outcome(520, 520, 520, 1040, 1040)),
        (StrategyKind::ALL[2], outcome(762, 761, 762, 1040, 1040)),
        (StrategyKind::ALL[3], outcome(678, 678, 678, 1258, 1040)),
        (StrategyKind::ALL[4], outcome(772, 771, 772, 1040, 1040)),
    ];
    for (strategy, expected) in golden {
        let got = run_with_full_sender(&scenario, strategy, 5);
        assert_eq!(got, expected, "{} diverged", strategy.label());
    }
}

/// Pre-engine `run_multi_partial` outcomes (k=3, c=0.25, seed 9).
#[test]
fn fan_in_preset_matches_legacy_loop() {
    let scenario = MultiSenderScenario::build(&params(), 3, 0.25);
    let golden = [
        (StrategyKind::ALL[0], outcome(2182, 6544, 0, 1463, 1463)),
        (StrategyKind::ALL[1], outcome(488, 1463, 0, 1463, 1463)),
        (StrategyKind::ALL[2], outcome(615, 1845, 0, 1473, 1463)),
        (StrategyKind::ALL[3], outcome(549, 1647, 0, 1477, 1463)),
        (StrategyKind::ALL[4], outcome(631, 1893, 0, 1524, 1463)),
    ];
    for (strategy, expected) in golden {
        let got = run_multi_partial(&scenario, strategy, 9);
        assert_eq!(got, expected, "{} diverged", strategy.label());
    }
}

/// Pre-engine `run_with_migration` outcomes (interval 100, pool 3,
/// seed 5): ticks/packets/migrations/handshakes all byte-identical.
#[test]
fn migration_event_stream_matches_legacy_loop() {
    let golden: [(StrategyKind, u64, u64, u64, u64); 5] = [
        (StrategyKind::ALL[0], 3895, 3895, 38, 39),
        (StrategyKind::ALL[1], 1040, 1040, 10, 11),
        (StrategyKind::ALL[2], 1254, 1254, 12, 13),
        (StrategyKind::ALL[3], 1259, 1259, 12, 13),
        (StrategyKind::ALL[4], 1274, 1274, 12, 13),
    ];
    for (strategy, ticks, packets, migrations, handshakes) in golden {
        let got = run_with_migration(
            &params(),
            strategy,
            MigrationConfig {
                migration_interval: 100,
                sender_pool: 3,
            },
            5,
        );
        assert!(got.transfer.completed, "{} failed", strategy.label());
        assert_eq!(got.transfer.ticks, ticks, "{} ticks", strategy.label());
        assert_eq!(
            got.transfer.packets_from_partial,
            packets,
            "{} packets",
            strategy.label()
        );
        assert_eq!(
            got.migrations,
            migrations,
            "{} migrations",
            strategy.label()
        );
        assert_eq!(
            got.handshakes,
            handshakes,
            "{} handshakes",
            strategy.label()
        );
        assert_eq!(got.transfer.gained, 1040, "{} gained", strategy.label());
        assert_eq!(got.transfer.needed, 1040, "{} needed", strategy.label());
    }
}
