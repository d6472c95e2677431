//! A power-law swarm under membership churn: the paper's *adaptive
//! overlay* setting at swarm scale.
//!
//! Hundreds of peers over a preferential-attachment topology reconcile
//! with their neighbors concurrently while the roster churns — 10% of
//! the peers leave mid-download and rejoin later (advertising, thanks
//! to refresh-on-reconnect, every symbol they gained before leaving),
//! new peers join with fresh working sets, and random peers migrate
//! links. Connection maintenance re-handshakes exhausted or stagnant
//! links on a fixed cadence; everything replays byte-identically from
//! the seed.
//!
//! Run with: `cargo run --release --example swarm_churn [peers]`

use icd_swarm::{run_swarm, ChurnConfig, Link, SwarmConfig, SwarmStrategy, TopologyKind};

fn main() {
    let peers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let blocks = 80;
    println!("== {peers}-peer power-law swarm, n={blocks} blocks, 10% churn ==\n");
    for (label, strategy) in [
        (
            "Random/BF",
            SwarmStrategy::Fixed(icd_overlay::strategy::StrategyKind::RandomSummary(
                icd_sketch::SummaryId::BLOOM,
            )),
        ),
        ("advised (recode)", SwarmStrategy::Advised { recode: true }),
    ] {
        let cfg = SwarmConfig::new(peers, blocks, TopologyKind::PowerLaw { m: 2 })
            .with_strategy(strategy)
            .with_link_profiles(vec![Link::default(), Link::slower(2), Link::slower(4)])
            .with_churn(ChurnConfig {
                leave_fraction: 0.10,
                downtime: 40,
                window: (5, 100),
                joins: peers / 50,
                rewires: peers / 25,
            });
        let out = run_swarm(cfg, 0x1CD_5744);
        println!(
            "{label:>18}: {}/{} complete in {} ticks ({:?}) — overhead {:.3}, \
             {} events, churn J{}/L{}/R{}/W{}, {} maintenance reconnects",
            out.completed,
            out.peers,
            out.ticks,
            out.stop,
            out.overhead,
            out.events,
            out.joins,
            out.leaves,
            out.rejoins,
            out.rewires,
            out.reconnects,
        );
    }
}
