//! The classic transfer presets and their outcome metrics.
//!
//! Time is discrete: in each tick every attached sender (partial and
//! full) emits one packet — the paper's "the full sender sends regular
//! symbols at the same rate that the partial sender sends recoded
//! symbols". A transfer ends when the receiver reaches its target, when
//! every sender is provably exhausted, or at a safety cap.
//!
//! The functions here are thin *topology presets* over [`OverlayNet`] —
//! a 2-node line, a line plus a fountain, and a k-sender fan-in, all
//! one fan-in helper — kept with their historical signatures. Tick
//! bookkeeping, packet accounting, stall detection and every link's
//! handshake live in the engine; the presets only wire nodes, links,
//! seeds and request splits the way the §6.3 figures demand.
//!
//! Metric definitions (used by the Figure 5–8 harnesses):
//!
//! * **overhead** (Figure 5) — packets sent by partial senders divided
//!   by the distinct symbols the receiver needed: 1.0 means every packet
//!   taught the receiver something new, matching the figure's y-axis
//!   starting at 1.
//! * **speedup / relative rate** (Figures 6–8) — `needed / ticks`. A
//!   lone full sender delivers exactly one new symbol per tick, so its
//!   transfer takes `needed` ticks; any configuration's rate relative to
//!   that baseline is `needed / ticks` without running the baseline.

use icd_util::rng::{Rng64, SplitMix64};

use crate::net::{ConnectSpec, Link, OverlayNet, RunLimit};
use crate::scenario::{MultiSenderScenario, TwoPeerScenario};
use crate::strategy::StrategyKind;
use crate::SymbolId;

/// Result of one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Ticks elapsed (each sender sends once per tick).
    pub ticks: u64,
    /// Packets emitted by partial senders.
    pub packets_from_partial: u64,
    /// Packets emitted by full senders.
    pub packets_from_full: u64,
    /// Distinct symbols gained during the transfer.
    pub gained: usize,
    /// Distinct symbols the receiver needed at the start.
    pub needed: usize,
    /// Whether the target was reached.
    pub completed: bool,
}

impl TransferOutcome {
    /// Packets per needed symbol from the partial sender(s): Figure 5's
    /// y-axis. Meaningful whether or not the transfer completed (an
    /// incomplete transfer divides by what was needed, understating the
    /// true cost — the `completed` flag must be consulted alongside).
    ///
    /// Degenerate geometry (`needed == 0`: the receiver started
    /// complete) reports 0.0 — there is no per-needed-symbol cost when
    /// nothing was needed — rather than dividing by zero or inventing a
    /// cost from a clamped denominator.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.needed == 0 {
            return 0.0;
        }
        self.packets_from_partial as f64 / self.needed as f64
    }

    /// Useful-rate relative to a lone full sender: Figures 6–8's y-axis.
    ///
    /// Degenerate geometry reports fixed points instead of dividing by
    /// zero: `needed == 0` (no baseline transfer exists) is 1.0 — the
    /// configuration is exactly as fast as the (empty) baseline — and a
    /// zero-tick run with work outstanding is 0.0.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.needed == 0 {
            return 1.0;
        }
        if self.ticks == 0 {
            return 0.0;
        }
        self.needed as f64 / self.ticks as f64
    }
}

/// Default safety cap: far above any strategy's worst case (Random's
/// coupon-collector tail is Θ(n log n) ≈ 10n at the paper's scale).
#[must_use]
pub fn default_max_ticks(target: usize) -> u64 {
    (target as u64) * 50 + 10_000
}

/// The fan-in every preset is: one observed receiver holding
/// `receiver_set`, and one seeder per `sender_sets` entry on a `strategy`
/// link. With `with_full`, a digital fountain joins from the first
/// seeder ahead of its partial link — within a tick the fountain emits
/// before the partial peer, the order the figures assume. The receiver
/// splits its need evenly over every sender (§6.1); the engine builds
/// each link's handshake from the two nodes' state.
fn fan_in(
    receiver_set: &[SymbolId],
    target: usize,
    sender_sets: &[Vec<SymbolId>],
    with_full: bool,
    strategy: StrategyKind,
    seed: u64,
) -> TransferOutcome {
    let mut seeds = SplitMix64::new(seed);
    let mut net = OverlayNet::new(seed);
    let receiver = net.add_node(receiver_set, target);
    net.set_observer(receiver, true);
    let senders = sender_sets.len() + usize::from(with_full);
    let request = (target - receiver_set.len()).div_ceil(senders);
    for (i, set) in sender_sets.iter().enumerate() {
        let sender = net.add_seeder(set);
        if with_full && i == 0 {
            net.connect_full(sender, receiver, 0, Link::default());
        }
        let spec = ConnectSpec {
            seed: seeds.next_u64(),
            request_hint: Some(request),
        };
        net.connect(sender, receiver, strategy, Link::default(), spec);
    }
    let _ = net.run(RunLimit::ticks(default_max_ticks(target)));
    net.outcome_for(receiver)
}

/// Figure 5: one partial sender, one receiver, one strategy — the
/// 2-node line preset.
#[must_use]
pub fn run_transfer(
    scenario: &TwoPeerScenario,
    strategy: StrategyKind,
    seed: u64,
) -> TransferOutcome {
    let senders = std::slice::from_ref(&scenario.sender_set);
    fan_in(
        &scenario.receiver_set,
        scenario.target,
        senders,
        false,
        strategy,
        seed,
    )
}

/// Figure 6: a full sender alongside the partial sender — the line-plus-
/// fountain preset. Two equal-rate senders: the receiver asks the
/// partial peer for half its need.
#[must_use]
pub fn run_with_full_sender(
    scenario: &TwoPeerScenario,
    strategy: StrategyKind,
    seed: u64,
) -> TransferOutcome {
    let senders = std::slice::from_ref(&scenario.sender_set);
    fan_in(
        &scenario.receiver_set,
        scenario.target,
        senders,
        true,
        strategy,
        seed,
    )
}

/// Figures 7/8: k partial senders, no full sender — the fan-in preset.
/// The receiver splits its demand evenly across the k senders (§6.1).
#[must_use]
pub fn run_multi_partial(
    scenario: &MultiSenderScenario,
    strategy: StrategyKind,
    seed: u64,
) -> TransferOutcome {
    fan_in(
        &scenario.receiver_set,
        scenario.target,
        &scenario.sender_sets,
        false,
        strategy,
        seed,
    )
}

/// Convenience used by harnesses and tests: the analytic coupon-collector
/// prediction for the Random strategy's overhead in a two-peer scenario.
///
/// Random draws uniformly (with replacement) from the sender's `b`
/// symbols of which `useful` are new; collecting `needed` of them takes
/// `b·(H(useful) − H(useful − needed))` draws in expectation.
#[must_use]
pub fn random_strategy_analytic_overhead(b: usize, useful: usize, needed: usize) -> f64 {
    assert!(needed <= useful, "cannot collect more than exists");
    let h = |k: usize| -> f64 { (1..=k).map(|i| 1.0 / i as f64).sum() };
    let draws = b as f64 * (h(useful) - h(useful - needed));
    draws / needed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NodeId, StopReason};
    use crate::scenario::ScenarioParams;
    use icd_sketch::SummaryId;

    fn compact(n: usize) -> ScenarioParams {
        ScenarioParams::compact(n, 0xFEED)
    }

    #[test]
    fn all_strategies_complete_a_small_compact_transfer() {
        let scenario = TwoPeerScenario::build(&compact(2000), 0.2);
        for strategy in StrategyKind::ALL {
            let out = run_transfer(&scenario, strategy, 1);
            assert!(out.completed, "{} failed to complete", strategy.label());
            // A final recoded packet can cascade past the target, so
            // `gained` may overshoot `needed` slightly.
            assert!(out.gained >= out.needed);
            assert!(
                out.gained <= out.needed + 64,
                "overshoot {}",
                out.gained - out.needed
            );
            assert!(out.overhead() >= 0.99, "{} overhead < 1", strategy.label());
        }
    }

    #[test]
    fn random_matches_coupon_collector_theory() {
        // The paper: "this strategy is precisely characterized by the
        // well known Coupon Collector's problem."
        let scenario = TwoPeerScenario::build(&compact(4000), 0.0);
        let b = scenario.sender_set.len();
        let useful = b; // zero correlation: everything useful
        let needed = scenario.needed();
        let analytic = random_strategy_analytic_overhead(b, useful, needed);
        let mut sum = 0.0;
        let runs = 3;
        for s in 0..runs {
            let out = run_transfer(&scenario, StrategyKind::Random, s);
            assert!(out.completed);
            sum += out.overhead();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - analytic).abs() / analytic < 0.15,
            "simulated {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn bloom_strategies_beat_random_at_high_correlation() {
        let params = compact(3000);
        let scenario = TwoPeerScenario::build(&params, 0.4);
        let random = run_transfer(&scenario, StrategyKind::Random, 7).overhead();
        let bf = run_transfer(&scenario, StrategyKind::RandomSummary(SummaryId::BLOOM), 7);
        let rbf = run_transfer(&scenario, StrategyKind::RecodeSummary(SummaryId::BLOOM), 7);
        assert!(bf.completed && rbf.completed);
        assert!(
            bf.overhead() < random / 2.0,
            "Random/BF {} vs Random {random}",
            bf.overhead()
        );
        assert!(
            rbf.overhead() < random / 2.0,
            "Recode/BF {} vs Random {random}",
            rbf.overhead()
        );
    }

    #[test]
    fn random_bloom_overhead_is_near_one() {
        let scenario = TwoPeerScenario::build(&compact(3000), 0.3);
        let out = run_transfer(&scenario, StrategyKind::RandomSummary(SummaryId::BLOOM), 3);
        assert!(out.completed);
        // Every sent packet is useful (no false negatives), so overhead
        // ≈ 1 exactly; slack only from the final partial tick.
        assert!(out.overhead() < 1.05, "overhead {}", out.overhead());
    }

    /// A receiver holding `initial`, aiming for `target`, as the lone
    /// observer of a fresh net; full senders attach from an empty hub.
    fn lone_receiver(initial: &[u64], target: usize) -> (OverlayNet, NodeId, NodeId) {
        let mut net = OverlayNet::new(0);
        let hub = net.add_seeder(&[]);
        let sink = net.add_node(initial, target);
        net.set_observer(sink, true);
        (net, hub, sink)
    }

    #[test]
    fn full_sender_alone_takes_exactly_needed_ticks() {
        let scenario = TwoPeerScenario::build(&compact(1000), 0.1);
        let (mut net, hub, sink) = lone_receiver(&scenario.receiver_set, scenario.target);
        net.connect_full(hub, sink, 0, Link::default());
        assert_eq!(net.run(RunLimit::ticks(u64::MAX)), StopReason::Completed);
        let out = net.outcome_for(sink);
        assert!(out.completed);
        assert_eq!(out.ticks, out.needed as u64, "baseline normalization");
        assert!((out.speedup() - 1.0).abs() < 1e-9);
        assert!(net.node_complete(sink));
    }

    #[test]
    fn full_plus_informed_partial_approaches_speedup_two() {
        let scenario = TwoPeerScenario::build(&compact(3000), 0.2);
        let out = run_with_full_sender(&scenario, StrategyKind::RandomSummary(SummaryId::BLOOM), 5);
        assert!(out.completed);
        assert!(
            out.speedup() > 1.7,
            "speedup {} should approach 2",
            out.speedup()
        );
        assert!(out.speedup() <= 2.0 + 1e-9);
    }

    #[test]
    fn multi_sender_rate_scales_with_k() {
        let params = compact(3000);
        let two = MultiSenderScenario::build(&params, 2, 0.1);
        let four = MultiSenderScenario::build(&params, 4, 0.1);
        let r2 = run_multi_partial(&two, StrategyKind::RandomSummary(SummaryId::BLOOM), 9);
        let r4 = run_multi_partial(&four, StrategyKind::RandomSummary(SummaryId::BLOOM), 9);
        assert!(r2.completed && r4.completed);
        assert!(r2.speedup() > 1.6, "k=2 rate {}", r2.speedup());
        assert!(r4.speedup() > 2.8, "k=4 rate {}", r4.speedup());
        assert!(r4.speedup() > r2.speedup());
    }

    #[test]
    fn stalled_transfer_reports_incomplete() {
        // A BF sender whose entire useful set is too small can exhaust.
        let params = ScenarioParams {
            num_blocks: 1000,
            distinct_factor: 1.08, // system barely covers the target
            decode_overhead: 0.07,
            seed: 3,
        };
        let scenario = TwoPeerScenario::build(&params, 0.0);
        // Make it unfinishable: strip 10 % of the sender's set.
        let mut crippled = scenario.clone();
        crippled
            .sender_set
            .truncate(scenario.sender_set.len() * 9 / 10);
        let out = run_transfer(&crippled, StrategyKind::RandomSummary(SummaryId::BLOOM), 4);
        assert!(!out.completed);
        assert!(out.gained < out.needed);
    }

    #[test]
    fn outcome_determinism() {
        let scenario = TwoPeerScenario::build(&compact(1500), 0.25);
        let a = run_transfer(&scenario, StrategyKind::Recode, 11);
        let b = run_transfer(&scenario, StrategyKind::Recode, 11);
        assert_eq!(a, b);
        let c = run_transfer(&scenario, StrategyKind::Recode, 12);
        assert_ne!(a.packets_from_partial, c.packets_from_partial);
    }

    #[test]
    fn analytic_overhead_formula_sane() {
        // Collect all coupons: b = useful = needed = n → H(n)·n/n = H(n).
        let v = random_strategy_analytic_overhead(100, 100, 100);
        let h100: f64 = (1..=100).map(|i| 1.0 / i as f64).sum();
        assert!((v - h100).abs() < 1e-9);
        // Collect half: much cheaper.
        assert!(random_strategy_analytic_overhead(100, 100, 50) < 1.0_f64.max(v));
    }

    #[test]
    fn degenerate_outcomes_do_not_divide_by_zero() {
        // Nothing needed: no overhead, baseline-equal speedup — even
        // with stray packet or tick counts.
        let pre_complete = TransferOutcome {
            ticks: 0,
            packets_from_partial: 0,
            packets_from_full: 0,
            gained: 0,
            needed: 0,
            completed: true,
        };
        assert_eq!(pre_complete.overhead(), 0.0);
        assert_eq!(pre_complete.speedup(), 1.0);
        let busy_but_needless = TransferOutcome {
            packets_from_partial: 42,
            ticks: 7,
            ..pre_complete
        };
        assert_eq!(busy_but_needless.overhead(), 0.0);
        assert_eq!(busy_but_needless.speedup(), 1.0);
        // Work outstanding but zero ticks elapsed: rate is 0, not ∞.
        let stillborn = TransferOutcome {
            ticks: 0,
            packets_from_partial: 0,
            packets_from_full: 0,
            gained: 0,
            needed: 100,
            completed: false,
        };
        assert_eq!(stillborn.speedup(), 0.0);
        assert_eq!(stillborn.overhead(), 0.0);
    }

    #[test]
    fn pre_complete_receiver_runs_zero_ticks() {
        let (mut net, _, sink) = lone_receiver(&[1, 2, 3], 3);
        assert_eq!(net.run(RunLimit::ticks(u64::MAX)), StopReason::Completed);
        let out = net.outcome_for(sink);
        assert!(out.completed);
        assert_eq!(out.ticks, 0);
        assert_eq!(out.needed, 0);
        assert_eq!(out.overhead(), 0.0);
        assert_eq!(out.speedup(), 1.0);
    }

    #[test]
    fn empty_sender_roster_stalls_after_one_tick() {
        let (mut net, _, sink) = lone_receiver(&[1], 10);
        assert_eq!(net.run(RunLimit::ticks(u64::MAX)), StopReason::Stalled);
        let out = net.outcome_for(sink);
        assert!(!out.completed);
        assert_eq!(out.ticks, 1, "the discovering tick still elapses");
        assert_eq!(out.gained, 0);
    }
}
