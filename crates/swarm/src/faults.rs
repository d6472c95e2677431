//! The deterministic fault-injection plane.
//!
//! Churn ([`crate::membership`]) models peers that *choose* to come and
//! go; this module models the failures nobody chooses — crashes, cut
//! links, stall windows, truncated frames, bandwidth collapse. §1's
//! adaptive-overlay setting treats these as the steady state, and the
//! simulator must be able to *predict* outcomes under them, so the
//! whole plane is a seeded schedule on the engine clock: a
//! [`FaultPlan`] is generated once from a [`FaultConfig`] and a seed,
//! then replayed by [`crate::Swarm::run`] through the engine's
//! pause/rewire/resume API. A faulty thousand-node run is exactly as
//! reproducible as a quiet one — and a quiet [`FaultConfig::none`] plan
//! is a strict no-op: it draws nothing from any RNG stream the
//! fault-free run uses, so existing goldens stay byte-identical.

use icd_overlay::net::Time;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::membership::PeerId;

/// One injected fault on the engine clock.
///
/// Events that need a paired recovery (`Crash`/`Restart`,
/// `StallStart`/`StallEnd`) are generated together, the recovery
/// trailing by the configured downtime — mirroring how
/// [`crate::membership::churn_plan`] pairs leaves with rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultEvent {
    /// The peer's process dies: every link is torn down and in-flight
    /// frames are lost. Unlike a polite `Leave`, nothing is announced —
    /// senders discover the corpse when their connections die.
    Crash(PeerId),
    /// The crashed peer's process restarts and re-attaches. Its working
    /// set survived (the daemon's shared set outlives connections), so
    /// the fresh handshakes advertise everything gained before the
    /// crash — the epoch-rejoin the Hello preamble performs.
    Restart(PeerId),
    /// One inbound link of the peer is severed mid-transfer; in-flight
    /// frames are lost. Maintenance heals it on the refresh cadence.
    CutLink(PeerId),
    /// Every inbound link of the peer goes dark at once — an upstream
    /// routing event, not a process death; the peer itself keeps
    /// serving.
    StallStart(PeerId),
    /// The stall window closes: the peer re-attaches to live senders.
    StallEnd(PeerId),
    /// One inbound link delivers a truncated frame: the session is torn
    /// down and immediately redialed (the daemon's log-and-continue +
    /// retry path), costing a handshake and the in-flight frames.
    TruncateFrame(PeerId),
    /// The peer's inbound links collapse to a fraction of their rate —
    /// the slow-peer regime; links are rebuilt on slowed profiles.
    RateCollapse(PeerId),
}

/// Fault-injection parameters: how many of each fault, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Distinct non-seed peers that crash (and later restart).
    pub crashes: usize,
    /// Ticks a crashed peer stays dead before its restart (≥ 1).
    pub downtime: Time,
    /// Single inbound-link cuts on random non-seed peers.
    pub link_cuts: usize,
    /// All-inbound stall windows on random non-seed peers.
    pub stalls: usize,
    /// Ticks a stall window lasts (≥ 1).
    pub stall_ticks: Time,
    /// Truncated-frame teardown+redial events.
    pub truncations: usize,
    /// Inbound-bandwidth collapses on random non-seed peers.
    pub rate_collapses: usize,
    /// Slow-down factor rebuilt links take after a rate collapse
    /// (`interval *= slow_factor`, ≥ 1).
    pub slow_factor: Time,
    /// Inclusive tick window `(first, last)` faults are drawn from.
    pub window: (Time, Time),
}

impl FaultConfig {
    /// No faults at all — the strict no-op plan every golden runs under.
    #[must_use]
    pub(crate) fn none() -> Self {
        Self {
            crashes: 0,
            downtime: 1,
            link_cuts: 0,
            stalls: 0,
            stall_ticks: 1,
            truncations: 0,
            rate_collapses: 0,
            slow_factor: 2,
            window: (1, 1),
        }
    }

    /// `count` single-link cuts drawn from `window`, nothing else — the
    /// perf probe's 5%-of-peers plan.
    #[must_use]
    pub fn link_cuts(count: usize, window: (Time, Time)) -> Self {
        Self {
            link_cuts: count,
            window,
            ..Self::none()
        }
    }

    /// Whether this config schedules no faults at all.
    #[must_use]
    pub(crate) fn is_quiet(&self) -> bool {
        self.crashes == 0
            && self.link_cuts == 0
            && self.stalls == 0
            && self.truncations == 0
            && self.rate_collapses == 0
    }
}

/// Salt separating the fault stream from churn, links, and topology.
const FAULT_SEED_SALT: u64 = 0xFA17_0B5E;

/// A sorted, seeded schedule of [`FaultEvent`]s — the replayable unit
/// the simulator predicts and the chaos harness injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultPlan {
    /// Events in tick order; same-tick order is generation order
    /// (crashes, cuts, stalls, truncations, collapses).
    pub events: Vec<(Time, FaultEvent)>,
}

impl FaultPlan {
    /// The empty plan.
    #[must_use]
    pub(crate) fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// Generates the schedule for a roster of `initial_peers`, of which
    /// the first `protected` (the seed peers) never fault. Pure function
    /// of `(cfg, roster, seed)`, drawn from its own salted RNG stream:
    /// a quiet config yields an empty plan and perturbs nothing else.
    #[must_use]
    pub(crate) fn generate(
        cfg: &FaultConfig,
        initial_peers: usize,
        protected: usize,
        seed: u64,
    ) -> Self {
        assert!(cfg.window.0 >= 1, "faults must land on tick 1 or later");
        assert!(cfg.window.1 >= cfg.window.0, "empty fault window");
        let eligible = initial_peers.saturating_sub(protected);
        if cfg.is_quiet() || eligible == 0 {
            return Self::none();
        }
        let mut rng = Xoshiro256StarStar::new(icd_util::hash::mix64(seed ^ FAULT_SEED_SALT));
        let span = cfg.window.1 - cfg.window.0 + 1;
        let draw_tick = |rng: &mut Xoshiro256StarStar| cfg.window.0 + rng.below(span);
        let mut events: Vec<(Time, FaultEvent)> = Vec::new();

        // Crashes pick *distinct* victims so a peer never crashes twice
        // (its restart pairing would be ambiguous).
        for idx in rng.sample_distinct(eligible, cfg.crashes.min(eligible)) {
            let peer = protected + idx;
            let t = draw_tick(&mut rng);
            events.push((t, FaultEvent::Crash(peer)));
            events.push((t + cfg.downtime.max(1), FaultEvent::Restart(peer)));
        }
        for _ in 0..cfg.link_cuts {
            let peer = protected + rng.index(eligible);
            events.push((draw_tick(&mut rng), FaultEvent::CutLink(peer)));
        }
        for _ in 0..cfg.stalls {
            let peer = protected + rng.index(eligible);
            let t = draw_tick(&mut rng);
            events.push((t, FaultEvent::StallStart(peer)));
            events.push((t + cfg.stall_ticks.max(1), FaultEvent::StallEnd(peer)));
        }
        for _ in 0..cfg.truncations {
            let peer = protected + rng.index(eligible);
            events.push((draw_tick(&mut rng), FaultEvent::TruncateFrame(peer)));
        }
        for _ in 0..cfg.rate_collapses {
            let peer = protected + rng.index(eligible);
            events.push((draw_tick(&mut rng), FaultEvent::RateCollapse(peer)));
        }
        events.sort_by_key(|&(t, _)| t); // stable: same-tick order is generation order
        Self { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultConfig {
        FaultConfig {
            crashes: 3,
            downtime: 25,
            link_cuts: 4,
            stalls: 2,
            stall_ticks: 12,
            truncations: 3,
            rate_collapses: 2,
            slow_factor: 4,
            window: (5, 90),
        }
    }

    #[test]
    fn plan_is_sorted_deterministic_and_seed_sensitive() {
        let a = FaultPlan::generate(&cfg(), 24, 2, 7);
        assert!(a.events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(a, FaultPlan::generate(&cfg(), 24, 2, 7));
        assert_ne!(a, FaultPlan::generate(&cfg(), 24, 2, 8));
        // 3 crash+restart pairs, 4 cuts, 2 stall pairs, 3 truncations,
        // 2 collapses.
        assert_eq!(a.events.len(), 6 + 4 + 4 + 3 + 2);
    }

    #[test]
    fn every_crash_has_a_trailing_restart_and_seeds_are_protected() {
        let plan = FaultPlan::generate(&cfg(), 24, 2, 7);
        for &(_, e) in &plan.events {
            let (FaultEvent::Crash(peer)
            | FaultEvent::Restart(peer)
            | FaultEvent::CutLink(peer)
            | FaultEvent::StallStart(peer)
            | FaultEvent::StallEnd(peer)
            | FaultEvent::TruncateFrame(peer)
            | FaultEvent::RateCollapse(peer)) = e;
            assert!(peer >= 2, "seed peers must never fault, got {e:?}");
        }
        let crashes: Vec<(Time, PeerId)> = plan
            .events
            .iter()
            .filter_map(|&(t, e)| match e {
                FaultEvent::Crash(p) => Some((t, p)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 3);
        let victims: std::collections::HashSet<PeerId> = crashes.iter().map(|&(_, p)| p).collect();
        assert_eq!(victims.len(), 3, "crash victims are distinct");
        for (t, p) in crashes {
            assert!(
                plan.events.contains(&(t + 25, FaultEvent::Restart(p))),
                "peer {p} never restarts"
            );
        }
        for (t, p) in plan.events.iter().filter_map(|&(t, e)| match e {
            FaultEvent::StallStart(p) => Some((t, p)),
            _ => None,
        }) {
            assert!(
                plan.events.contains(&(t + 12, FaultEvent::StallEnd(p))),
                "peer {p}'s stall never ends"
            );
        }
    }

    #[test]
    fn quiet_config_is_empty_and_roster_of_only_seeds_faults_nobody() {
        assert!(FaultPlan::generate(&FaultConfig::none(), 50, 2, 1)
            .events
            .is_empty());
        assert!(FaultConfig::none().is_quiet());
        assert!(FaultPlan::generate(&cfg(), 2, 2, 1).events.is_empty());
    }

    #[test]
    fn count_filters_by_kind() {
        let plan = FaultPlan::generate(&cfg(), 24, 2, 7);
        let count =
            |pred: fn(&FaultEvent) -> bool| plan.events.iter().filter(|(_, e)| pred(e)).count();
        assert_eq!(count(|e| matches!(e, FaultEvent::TruncateFrame(_))), 3);
        assert_eq!(count(|e| matches!(e, FaultEvent::CutLink(_))), 4);
        assert_eq!(FaultConfig::link_cuts(5, (1, 9)).link_cuts, 5);
    }
}
