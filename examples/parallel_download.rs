//! Parallel download from a full sender plus a partial sender (the
//! Figure 6 setting), comparing all five §6.2 strategies at one
//! correlation point — the interactive, single-run companion to the
//! `fig6` harness binary. Both runs are `OverlayNet` presets (a 2-node
//! line, and the line plus a fountain link); see the `mesh_download`
//! example for topologies beyond the classic figures.
//!
//! Run with: `cargo run --release --example parallel_download [correlation]`

use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::{run_transfer, run_with_full_sender};

fn main() {
    let correlation: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    let n = 8_000usize;
    let params = ScenarioParams::compact(n, 0xD0_CA7);
    let scenario = TwoPeerScenario::build(&params, correlation);
    println!(
        "compact system: n = {n}, target = {} distinct symbols, correlation = {:.2}",
        scenario.target, scenario.correlation
    );
    println!(
        "receiver starts with {}, needs {} more; partial sender holds {}\n",
        scenario.receiver_set.len(),
        scenario.needed(),
        scenario.sender_set.len()
    );

    println!(
        "{:<12} {:>18} {:>14} {:>12}",
        "strategy", "p2p overhead", "p2p packets", "speedup*"
    );
    println!("{}", "-".repeat(60));
    for strategy in StrategyKind::ALL {
        let p2p = run_transfer(&scenario, strategy, 1);
        let combined = run_with_full_sender(&scenario, strategy, 1);
        println!(
            "{:<12} {:>18.3} {:>14} {:>12.3}",
            strategy.label(),
            p2p.overhead(),
            p2p.packets_from_partial,
            combined.speedup(),
        );
    }
    println!("\n* download rate with full+partial sender, relative to the full sender alone");
    println!("  (2.0 = the partial sender contributes as much as a second full sender)");
}
