//! Connection migration under churn: the §2.3 statelessness claim,
//! demonstrated. A receiver is forcibly re-peered every few hundred
//! packets; with encoded content and per-connection handshakes the
//! transfer carries straight on — compare the informed and oblivious
//! strategies' total cost under increasingly violent churn.
//!
//! Run with: `cargo run --release --example churn_migration`

use icd_overlay::churn::{run_with_migration, MigrationConfig};
use icd_overlay::scenario::ScenarioParams;
use icd_overlay::strategy::StrategyKind;
use icd_sketch::SummaryId;

fn main() {
    let n = 6_000usize;
    let params = ScenarioParams::compact(n, 0xC4A0);
    println!("compact system, n = {n}; sender pool of 4 overlapping peers\n");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "migration interval", "strategy", "overhead", "migrations", "handshakes"
    );
    println!("{}", "-".repeat(74));
    for interval in [u64::MAX, 400, 100, 25] {
        for strategy in [
            StrategyKind::Random,
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            StrategyKind::RecodeSummary(SummaryId::BLOOM),
        ] {
            let out = run_with_migration(
                &params,
                strategy,
                MigrationConfig {
                    migration_interval: interval,
                    sender_pool: 4,
                },
                7,
            );
            let label = if interval == u64::MAX {
                "none".to_string()
            } else {
                format!("every {interval}")
            };
            println!(
                "{:<22} {:>10} {:>12.3} {:>12} {:>12}",
                label,
                strategy.label(),
                out.transfer.overhead(),
                out.migrations,
                out.handshakes,
            );
            assert!(out.transfer.completed, "transfer must survive churn");
        }
        println!();
    }
    println!(
        "informed strategies pay one cheap handshake per migration and keep\n\
         overhead near 1.0; the oblivious baseline pays the coupon-collector\n\
         price regardless — exactly the contrast §2.2/§2.3 argue."
    );
}
