//! The dynamic-membership event stream.
//!
//! §1 and §6 frame the overlay as *adaptive*: peers arrive, depart, and
//! re-pair mid-download. This module turns that into a deterministic
//! schedule of [`SwarmEvent`]s on the engine clock — generated once from
//! the churn parameters and a seed, then replayed by
//! [`crate::Swarm::run`] via the engine's pause/rewire/resume API, so a
//! churned thousand-node run is as reproducible as a two-peer line.

use icd_overlay::net::Time;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

/// Index of a peer in a [`crate::Swarm`]'s roster (stable across
/// leaves and rejoins; joins append).
pub type PeerId = usize;

/// One membership event on the engine clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmEvent {
    /// A brand-new peer arrives with a fresh working set and target and
    /// attaches to the live swarm.
    Join,
    /// The peer tears down all of its links and goes dark; packets in
    /// flight to it are lost.
    Leave(PeerId),
    /// A departed peer returns: it re-attaches with fresh handshakes,
    /// and — via the engine's refresh-on-connect — advertises every
    /// symbol it gained before leaving (the §6.1 snapshot gap, closed).
    Rejoin(PeerId),
    /// The peer migrates one inbound connection to a different live
    /// sender (the §2.3 stateless-migration claim at swarm scale).
    Rewire(PeerId),
}

/// Churn parameters: how much of the roster cycles, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the initial (non-seed) roster that leaves and later
    /// rejoins, in `[0, 1]`.
    pub leave_fraction: f64,
    /// Ticks a leaver stays dark before its rejoin (≥ 1).
    pub downtime: Time,
    /// Inclusive tick window `(first, last)` events are drawn from.
    pub window: (Time, Time),
    /// Brand-new peers that join mid-run.
    pub joins: usize,
    /// Single-link migrations applied to random live peers.
    pub rewires: usize,
}

impl ChurnConfig {
    /// A quiescent swarm: no membership events at all.
    #[must_use]
    pub(crate) fn none() -> Self {
        Self {
            leave_fraction: 0.0,
            downtime: 1,
            window: (1, 1),
            joins: 0,
            rewires: 0,
        }
    }
}

/// Salt separating the membership stream from link seeds and topology.
const CHURN_SEED_SALT: u64 = 0xC412_2011;

/// Generates the sorted membership schedule for a roster of
/// `initial_peers`, of which the first `protected` (the seed peers)
/// never leave. Events at the same tick replay in generation order:
/// leaves, then joins, then rewires — and every rejoin trails its leave
/// by `downtime` ticks. Pure function of `(cfg, roster, seed)`.
#[must_use]
pub(crate) fn churn_plan(
    cfg: &ChurnConfig,
    initial_peers: usize,
    protected: usize,
    seed: u64,
) -> Vec<(Time, SwarmEvent)> {
    assert!(
        (0.0..=1.0).contains(&cfg.leave_fraction),
        "leave fraction must be in [0, 1]"
    );
    assert!(cfg.window.0 >= 1, "events must land on tick 1 or later");
    assert!(cfg.window.1 >= cfg.window.0, "empty churn window");
    let mut rng = Xoshiro256StarStar::new(icd_util::hash::mix64(seed ^ CHURN_SEED_SALT));
    let span = cfg.window.1 - cfg.window.0 + 1;
    let draw_tick = |rng: &mut Xoshiro256StarStar| cfg.window.0 + rng.below(span);
    let mut plan: Vec<(Time, SwarmEvent)> = Vec::new();

    let eligible = initial_peers.saturating_sub(protected);
    let leavers = (cfg.leave_fraction * eligible as f64).round() as usize;
    for idx in rng.sample_distinct(eligible, leavers.min(eligible)) {
        let peer = protected + idx;
        let t = draw_tick(&mut rng);
        plan.push((t, SwarmEvent::Leave(peer)));
        plan.push((t + cfg.downtime.max(1), SwarmEvent::Rejoin(peer)));
    }
    for _ in 0..cfg.joins {
        plan.push((draw_tick(&mut rng), SwarmEvent::Join));
    }
    for _ in 0..cfg.rewires {
        let peer = if eligible > 0 {
            protected + rng.index(eligible)
        } else {
            continue;
        };
        plan.push((draw_tick(&mut rng), SwarmEvent::Rewire(peer)));
    }
    plan.sort_by_key(|&(t, _)| t); // stable: same-tick order is generation order
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            leave_fraction: 0.5,
            downtime: 10,
            window: (5, 50),
            joins: 3,
            rewires: 2,
        }
    }

    #[test]
    fn every_leave_has_a_trailing_rejoin() {
        let plan = churn_plan(&cfg(), 20, 2, 7);
        let leaves: Vec<(Time, PeerId)> = plan
            .iter()
            .filter_map(|&(t, e)| match e {
                SwarmEvent::Leave(p) => Some((t, p)),
                _ => None,
            })
            .collect();
        assert_eq!(leaves.len(), 9, "50% of 18 eligible");
        for (t, p) in leaves {
            assert!(p >= 2, "seed peers are protected");
            assert!(
                plan.contains(&(t + 10, SwarmEvent::Rejoin(p))),
                "peer {p} never rejoins"
            );
        }
    }

    #[test]
    fn plan_is_sorted_and_deterministic() {
        let a = churn_plan(&cfg(), 20, 2, 7);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(a, churn_plan(&cfg(), 20, 2, 7));
        assert_ne!(a, churn_plan(&cfg(), 20, 2, 8));
    }

    #[test]
    fn joins_and_rewires_are_counted() {
        let plan = churn_plan(&cfg(), 20, 2, 7);
        let joins = plan
            .iter()
            .filter(|(_, e)| matches!(e, SwarmEvent::Join))
            .count();
        let rewires = plan
            .iter()
            .filter(|(_, e)| matches!(e, SwarmEvent::Rewire(_)))
            .count();
        assert_eq!((joins, rewires), (3, 2));
    }

    #[test]
    fn quiescent_config_is_empty() {
        assert!(churn_plan(&ChurnConfig::none(), 50, 2, 1).is_empty());
    }
}
