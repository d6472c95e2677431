//! The paper's Figure 1 motivation, replayed in the simulator: a content
//! delivery tree S → {A, B} → {C, D, E} where downstream nodes hold
//! fragmented, partially overlapping working sets. Compares three ways
//! for node C to finish its download:
//!
//!   (a) tree only          — keep pulling from its single parent;
//!   (b) parallel downloads — add a second connection to the source;
//!   (c) collaborative      — add "perpendicular" connections to peers
//!                            D and E, reconciled with Bloom filters.
//!
//! Run with: `cargo run --release --example cdn_scenario`

use icd_overlay::net::{ConnectSpec, Link, OverlayNet, RunLimit};
use icd_overlay::scenario::ScenarioParams;
use icd_overlay::strategy::{StrategyKind, FRESH_ID_BIT};
use icd_sketch::SummaryId;
use icd_util::hash::mix64;

fn main() {
    // Working-set geometry from Figure 1's caption: C, D, E each hold
    // 25 % of the content's symbol requirement, pairwise disjoint where
    // possible (C and D explicitly disjoint).
    let n = 8_000usize; // source blocks
    let params = ScenarioParams::compact(n, 0xF161);
    let target = params.target();
    let quarter = target / 4;
    let ids = |lo: usize, hi: usize| -> Vec<u64> {
        (lo..hi)
            .map(|i| mix64(0xF161 ^ i as u64) & !FRESH_ID_BIT)
            .collect()
    };
    let c_set = ids(0, quarter);
    // D and E are better-provisioned peers (like A and B one tier up in
    // Figure 1): each holds ~45 % of the requirement, D disjoint from C,
    // E overlapping D by half — complementary but not identical sets.
    let rich = (target * 45) / 100;
    let d_set = ids(quarter, quarter + rich); // disjoint from C
    let e_set = ids(quarter + rich / 2, quarter + rich / 2 + rich); // overlaps D by half

    let tree_rate_limit = 4; // C's path from S is bottlenecked 4:1 vs peer links

    // (a) Tree only: C pulls fresh fountain symbols from S, but its
    // parent path delivers only one useful symbol every `tree_rate_limit`
    // ticks (model: S sends once per tick, C's link admits 1/4 of them —
    // equivalently the transfer needs 4× the ticks).
    let needed = target - c_set.len();
    let tree_ticks = needed as u64 * tree_rate_limit;

    // (b) Parallel download: two independent fountain streams from S,
    // both bottlenecked; twice the rate.
    let parallel_ticks = needed as u64 * tree_rate_limit / 2;

    // (c) Collaborative: the bottlenecked parent PLUS perpendicular
    // full-rate connections to D and E with Bloom-reconciled transfers,
    // on the overlay engine. The parent's path admits one fresh symbol
    // every `tree_rate_limit` ticks; each peer link's handshake is C's
    // Bloom filter, and C asks each peer for half its need.
    let mut net = OverlayNet::new(0);
    let c = net.add_node(&c_set, target);
    net.set_observer(c, true);
    let source = net.add_seeder(&[]);
    net.connect_full(source, c, 0, Link::slower(tree_rate_limit));
    let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
    for (set, seed) in [(&d_set, 1), (&e_set, 2)] {
        let peer = net.add_seeder(set);
        let spec = ConnectSpec {
            seed,
            request_hint: Some(needed / 2),
        };
        net.connect(peer, c, strategy, Link::default(), spec);
    }
    // Once the peers exhaust their useful symbols, only the parent
    // trickle remains.
    let _ = net.run(RunLimit::ticks(tree_ticks * 2));
    let collaborative_ticks = net.now();

    println!("Figure 1 scenario — node C completing its download (n = {n}):");
    println!("  (a) tree only            : {tree_ticks:>8} ticks");
    println!(
        "  (b) + parallel download  : {parallel_ticks:>8} ticks  ({:.2}x)",
        tree_ticks as f64 / parallel_ticks as f64
    );
    println!(
        "  (c) + collaboration (D,E): {collaborative_ticks:>8} ticks  ({:.2}x)",
        tree_ticks as f64 / collaborative_ticks as f64
    );
    println!();
    println!(
        "collaborative transfer complete: {} — perpendicular bandwidth between \
         peers with complementary working sets dominates the bottlenecked tree path",
        net.node_complete(c)
    );
    assert!(
        collaborative_ticks < parallel_ticks,
        "collaboration must win"
    );
}
