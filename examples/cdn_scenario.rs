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

use icd_core::strategy::PacketScratch;
use icd_overlay::receiver::Receiver;
use icd_overlay::scenario::ScenarioParams;
use icd_overlay::strategy::{FullSender, ReceiverHandshake, StrategyKind};
use icd_overlay::transfer::handshake_estimate;
use icd_sketch::{standard_registry, PermutationFamily, SummaryId, SummarySizing};
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
            .map(|i| mix64(0xF161 ^ i as u64) & !icd_overlay::strategy::FRESH_ID_BIT)
            .collect()
    };
    let c_set = ids(0, quarter);
    // D and E are better-provisioned peers (like A and B one tier up in
    // Figure 1): each holds ~45 % of the requirement, D disjoint from C,
    // E overlapping D by half — complementary but not identical sets.
    let rich = (target * 45) / 100;
    let d_set = ids(quarter, quarter + rich); // disjoint from C
    let e_set = ids(quarter + rich / 2, quarter + rich / 2 + rich); // overlaps D by half

    let family = PermutationFamily::standard(0x1CD);
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
    // full-rate connections to D and E with Bloom-reconciled transfers.
    let mut receiver = Receiver::new(&c_set, target);
    let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
    let handshake = ReceiverHandshake::for_strategy(
        strategy,
        &c_set,
        &SummarySizing::default(),
        &family,
        standard_registry(),
        &handshake_estimate(c_set.len(), d_set.len(), needed),
        None,
    );
    let per_peer = needed / 2;
    let mut peers = [(d_set, 1), (e_set, 2)]
        .map(|(set, seed)| handshake.sender(strategy, &set, None, standard_registry(), seed, per_peer));
    // The parent still trickles fresh symbols: model its 1/4 rate by
    // letting it send on every 4th tick via a full sender we gate below.
    let mut parent = FullSender::new(0);
    let mut packet = PacketScratch::default();
    let mut ticks = 0u64;
    while !receiver.is_complete() && ticks < tree_ticks * 2 {
        ticks += 1;
        if ticks.is_multiple_of(tree_rate_limit) {
            parent.emit(&mut packet);
            receiver.receive(packet.ids());
        }
        // Once the peers exhaust their useful symbols, only the parent
        // trickle remains.
        for peer in &mut peers {
            if peer.emit(&mut packet) {
                receiver.receive(packet.ids());
                if receiver.is_complete() {
                    break;
                }
            }
        }
    }
    let collaborative_ticks = ticks;

    println!("Figure 1 scenario — node C completing its download (n = {n}):");
    println!("  (a) tree only            : {tree_ticks:>8} ticks");
    println!("  (b) + parallel download  : {parallel_ticks:>8} ticks  ({:.2}x)",
        tree_ticks as f64 / parallel_ticks as f64);
    println!("  (c) + collaboration (D,E): {collaborative_ticks:>8} ticks  ({:.2}x)",
        tree_ticks as f64 / collaborative_ticks as f64);
    println!();
    println!(
        "collaborative transfer complete: {} — perpendicular bandwidth between \
         peers with complementary working sets dominates the bottlenecked tree path",
        receiver.is_complete()
    );
    assert!(collaborative_ticks < parallel_ticks, "collaboration must win");
}
