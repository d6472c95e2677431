//! One node's round protocol as a sans-I/O state machine.
//!
//! A round is four decisions: freeze the held set at the barrier, choose
//! the round's dials, resume a cut session, and — after a round that
//! gained nothing while incomplete — escalate the next round's dials to
//! speculative transfers. [`NodeMachine`] makes them from the node's
//! held set, passed in; no socket, thread, clock or lock lives here. Its
//! two drivers, the threaded TCP daemon and the in-process
//! [`crate::plan::predict`], therefore cannot disagree on a rule.

use icd_core::{PolicyKnobs, SessionConfig, WorkingSet};
use icd_fountain::EncodedSymbol;
use icd_overlay::{session_machine_seeds, session_payload};
use icd_swarm::PeerId;
use icd_util::hash::mix64;

use crate::connection::SessionEpoch;
use crate::plan::{PlannedLink, SwarmPlan};

/// Most reconciliation rounds a swarm will run before giving up: the
/// round barrier stops at `MAX_ROUNDS - 1`. Coverage gaps close
/// geometrically (every round spreads symbols one hop further), so real
/// plans finish in two or three.
pub const MAX_ROUNDS: u32 = 16;

// Every round below the cap has a `SessionEpoch::Round` byte.
const _: () = assert!(MAX_ROUNDS <= 0xF0);

/// Salt separating per-round session seeds on the same link.
const ROUND_SALT: u64 = 0x1CD0_2D01;

/// Salt folded into per-retry session seeds so a redial never replays
/// the round's original symbol stream.
const RETRY_SEED_SALT: u64 = 0x1CD0_7E72;

/// The session seed a link uses in reconciliation round `round`.
/// Round 0 is the link seed itself; later rounds re-key so the
/// sender's candidate shuffle and recoding draws differ per round.
/// Re-keying does not re-draw a digest's false positives; see
/// [`NodeMachine::open_round`].
pub(crate) fn round_seed(link_seed: u64, round: u32) -> u64 {
    if round == 0 {
        link_seed
    } else {
        mix64(link_seed ^ ROUND_SALT.wrapping_add(u64::from(round)))
    }
}

/// Session seed for attempt `attempt` of a round fetch that is not the
/// planned dial: distinct from the round seed so a resumed session never
/// replays the original symbol stream, deterministic so a chaos run
/// replays exactly. Redials start at attempt 2; attempt 1 is the stall
/// escalation's seed.
pub(crate) fn retry_seed(link_seed: u64, round: u32, attempt: u32) -> u64 {
    mix64(round_seed(link_seed, round) ^ RETRY_SEED_SALT ^ u64::from(attempt))
}

/// Node `n`'s initial share as a working set, every payload generated
/// by the shared payload convention. This is the only place a node's
/// payloads are generated; every later set is a clone that shares them.
pub(crate) fn initial_share(plan: &SwarmPlan, n: PeerId) -> WorkingSet {
    WorkingSet::from_symbols(plan.shares[n].iter().map(|&id| EncodedSymbol {
        id,
        payload: session_payload(id, plan.spec.payload),
    }))
}

/// One attempt of a round fetch: what the dialer sends in its hello and
/// builds its receiver machine from.
pub(crate) struct Dial {
    /// Which snapshot the serving side runs over.
    pub(crate) epoch: SessionEpoch,
    /// Session seed; both machine seeds derive from it.
    pub(crate) seed: u64,
    /// The receiver machine's configuration: the request, the receiver
    /// seed, and — on a speculative dial — knobs that decline
    /// fine-grained summaries, so the sender recodes over its whole set.
    pub(crate) config: SessionConfig,
    /// The receiver's working set.
    pub(crate) working: WorkingSet,
}

impl Dial {
    /// The serving machine's seed.
    pub(crate) fn sender_seed(&self) -> u64 {
        session_machine_seeds(self.seed).1
    }
}

/// One node's round state: the round, its barrier-frozen held set, and
/// whether this round's dials escalate.
#[derive(Debug)]
pub(crate) struct NodeMachine {
    universe: usize,
    /// The links this node fetches over, in plan order.
    links: Vec<PlannedLink>,
    round: u32,
    /// The held set at this round's barrier. Both ends of every session
    /// of the round's epoch run over it, so a round's traffic depends
    /// only on the sets frozen at its barrier.
    frozen: WorkingSet,
    /// The last closed round dialed, gained nothing, and left the node
    /// incomplete.
    stalled: bool,
    /// This round's dials are speculative escalations.
    escalating: bool,
    escalations: u64,
}

impl NodeMachine {
    /// Node `n` of `plan` at round 0, holding `held`.
    pub(crate) fn new(plan: &SwarmPlan, n: PeerId, held: &WorkingSet) -> Self {
        Self {
            universe: plan.spec.universe,
            links: plan.fetches_of(n).copied().collect(),
            round: 0,
            frozen: held.clone(),
            stalled: false,
            escalating: false,
            escalations: 0,
        }
    }

    /// The current round (0-based).
    pub(crate) fn round(&self) -> u32 {
        self.round
    }

    /// Rounds whose dials escalated so far.
    pub(crate) fn escalations(&self) -> u64 {
        self.escalations
    }

    /// The round barrier: freezes `held` for the next round and returns
    /// its number, or `None` (changing nothing) once the round is
    /// `MAX_ROUNDS - 1`.
    pub(crate) fn advance(&mut self, held: &WorkingSet) -> Option<u32> {
        if self.round + 1 >= MAX_ROUNDS {
            return None;
        }
        self.frozen = held.clone();
        self.round += 1;
        Some(self.round)
    }

    /// The set a session with `epoch` runs over, at either end: the
    /// frozen set for this round's epoch, the held set for any other
    /// (a resumption, an escalation, or a dialer off this barrier).
    pub(crate) fn session_set<'a>(
        &'a self,
        epoch: SessionEpoch,
        held: &'a WorkingSet,
    ) -> &'a WorkingSet {
        if epoch == self.epoch() {
            &self.frozen
        } else {
            held
        }
    }

    fn epoch(&self) -> SessionEpoch {
        SessionEpoch::Round(u8::try_from(self.round).expect("rounds stop below MAX_ROUNDS"))
    }

    /// Opens this round's fetches: the links to dial, in plan order —
    /// none when the node was complete at the barrier — and whether the
    /// dials escalate. They do when the last closed round stalled.
    /// Approximate summaries (Bloom, ART) are pure functions of the two
    /// working sets, so a node whose last missing symbols are exactly a
    /// digest's false positives would gain nothing round after round,
    /// whatever the seed. An escalated dial sends no summary: the sender
    /// recodes over its whole set (§6's fallback), and the withheld
    /// symbols arrive XOR-combined with known ones.
    pub(crate) fn open_round(&mut self) -> (&[PlannedLink], bool) {
        let dialing = self.frozen.len() < self.universe;
        self.escalating = self.stalled && dialing;
        self.escalations += u64::from(self.escalating);
        (if dialing { &self.links } else { &[] }, self.escalating)
    }

    /// Attempt `attempt` (1-based) of this round's fetch over `link`,
    /// given the node's current `held` set; `None` when the set the dial
    /// would run over misses nothing.
    ///
    /// Attempt 1 is the planned dial: this round's epoch over the frozen
    /// set, the round seed, the symbols missing at the barrier. In an
    /// escalated round it is instead a speculative [`SessionEpoch::Live`]
    /// dial over the held set, seeded `retry_seed(.., 1)` and asking for
    /// twice the missing symbols plus four — recoded symbols are not
    /// individually guaranteed useful (§6.1's decoding allowance).
    /// Later attempts resume a cut session: a `Live` dial over the held
    /// set, so nothing decoded before the cut is requested again, seeded
    /// `retry_seed(.., attempt)`, speculative if the round is.
    pub(crate) fn dial(&self, link: &PlannedLink, attempt: u32, held: &WorkingSet) -> Option<Dial> {
        let planned = attempt == 1 && !self.escalating;
        let working = if planned { &self.frozen } else { held };
        let missing = self.universe.saturating_sub(working.len()) as u64;
        if missing == 0 {
            return None;
        }
        let (epoch, seed, request) = match (planned, attempt) {
            (true, _) => (self.epoch(), round_seed(link.seed, self.round), missing),
            (false, 1) => (
                SessionEpoch::Live,
                retry_seed(link.seed, self.round, 1),
                2 * missing + 4,
            ),
            (false, _) => (
                SessionEpoch::Live,
                retry_seed(link.seed, self.round, attempt),
                missing,
            ),
        };
        let mut config = SessionConfig::new()
            .with_request(request)
            .with_seed(session_machine_seeds(seed).0);
        if self.escalating {
            config = config.with_knobs(PolicyKnobs {
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            });
        }
        Some(Dial {
            epoch,
            seed,
            config,
            working: working.clone(),
        })
    }

    /// Closes this round's fetches, which together gained `gained`
    /// symbols new to the node, `complete` saying whether the node now
    /// holds the whole object. Returns whether the node has just begun
    /// to stall: the round dialed, gained nothing, left the node
    /// incomplete, and was not already an escalation.
    pub(crate) fn close_round(&mut self, gained: u64, complete: bool) -> bool {
        let dialed = self.frozen.len() < self.universe && !self.links.is_empty();
        self.stalled = dialed && gained == 0 && !complete;
        self.stalled && !self.escalating
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DistributionSpec;
    use icd_swarm::TopologyKind;

    fn plan() -> SwarmPlan {
        SwarmPlan::new(DistributionSpec {
            seed: 7,
            nodes: 5,
            seeders: 1,
            universe: 80,
            share: 30,
            payload: 64,
            topology: TopologyKind::RingChords { chords: 2 },
        })
    }

    /// Leecher 2 of the reference plan, its held set grown by `extra`
    /// universe symbols it did not start with.
    fn leecher(plan: &SwarmPlan, extra: usize) -> (NodeMachine, WorkingSet) {
        let mut held = initial_share(plan, 2);
        let machine = NodeMachine::new(plan, 2, &held);
        for &id in plan
            .universe
            .iter()
            .filter(|id| !plan.shares[2].contains(id))
            .take(extra)
        {
            held.insert(EncodedSymbol {
                id,
                payload: session_payload(id, plan.spec.payload),
            });
        }
        (machine, held)
    }

    #[test]
    fn the_barrier_freezes_the_held_set_sharing_its_payloads() {
        let plan = plan();
        let (mut m, held) = leecher(&plan, 7);
        assert_eq!(m.advance(&held), Some(1));
        let link = m.open_round().0[0];
        let dial = m.dial(&link, 1, &held).expect("planned dial");
        assert_eq!(dial.epoch, SessionEpoch::Round(1));
        assert_eq!(dial.config.request, (80 - 37) as u64);
        let frozen = m.session_set(SessionEpoch::Round(1), &held);
        for set in [frozen, &dial.working] {
            assert_eq!(set.sorted_ids(), held.sorted_ids());
            for id in held.ids() {
                let (a, b) = (
                    set.payload(id).expect("held"),
                    held.payload(id).expect("held"),
                );
                assert_eq!(a.as_ptr(), b.as_ptr(), "symbol {id} was copied, not shared");
            }
        }
        // Any other epoch, at either end, runs over the held set.
        let live = WorkingSet::new();
        assert!(m.session_set(SessionEpoch::Live, &live).is_empty());
        assert!(m.session_set(SessionEpoch::Round(0), &live).is_empty());
    }

    #[test]
    fn a_round_that_gained_nothing_escalates_the_next() {
        let plan = plan();
        let (mut m, held) = leecher(&plan, 0);
        let link = m.open_round().0[0];
        assert_eq!(m.dial(&link, 1, &held).expect("planned").seed, link.seed);
        assert!(
            !m.close_round(5, false),
            "a round that gained does not stall"
        );
        assert_eq!(m.advance(&held), Some(1));
        assert!(!m.open_round().1);
        assert!(m.close_round(0, false), "a fruitless round stalls");
        assert_eq!(m.advance(&held), Some(2));

        let (links, escalated) = m.open_round();
        assert_eq!(links.len(), plan.fetches_of(2).count());
        assert!(escalated, "the stalled node escalates");
        assert_eq!(m.escalations(), 1);
        let dial = m.dial(&link, 1, &held).expect("escalated dial");
        assert_eq!(dial.epoch, SessionEpoch::Live);
        assert_eq!(dial.seed, retry_seed(link.seed, 2, 1));
        assert_eq!(dial.config.request, 2 * (80 - 30) + 4);
        assert!(!dial.config.knobs.fine_grained_capable);

        // An escalated round that gains something ends the escalation.
        assert!(!m.close_round(3, false));
        assert_eq!(m.advance(&held), Some(3));
        assert!(!m.open_round().1);
        let dial = m.dial(&link, 1, &held).expect("planned dial");
        assert_eq!(dial.epoch, SessionEpoch::Round(3));
        assert!(dial.config.knobs.fine_grained_capable);
        assert_eq!(dial.seed, round_seed(link.seed, 3));
        assert_eq!(m.escalations(), 1);
    }

    #[test]
    fn resumptions_run_over_the_held_set_until_complete() {
        let plan = plan();
        let (mut m, held) = leecher(&plan, 5);
        let link = m.open_round().0[0];
        for attempt in 2..5 {
            let dial = m.dial(&link, attempt, &held).expect("resumption");
            assert_eq!(dial.epoch, SessionEpoch::Live);
            assert_eq!(dial.seed, retry_seed(link.seed, 0, attempt));
            assert_eq!(dial.config.request, (80 - 35) as u64);
            assert!(dial.config.knobs.fine_grained_capable);
            assert_eq!(dial.working.sorted_ids(), held.sorted_ids());
        }
        let (_, whole) = leecher(&plan, 50);
        assert_eq!(whole.len(), 80);
        assert!(m.dial(&link, 2, &whole).is_none(), "nothing left to resume");
        // The planned dial does not depend on the held set.
        assert!(m.dial(&link, 1, &whole).is_some());
    }

    #[test]
    fn the_barrier_stops_at_the_round_cap() {
        let plan = plan();
        let (mut m, held) = leecher(&plan, 0);
        for r in 1..MAX_ROUNDS {
            assert_eq!(m.advance(&held), Some(r));
        }
        assert_eq!(m.advance(&held), None);
        assert_eq!(m.round(), MAX_ROUNDS - 1);
        let link = m.open_round().0[0];
        let dial = m.dial(&link, 1, &held).expect("planned dial");
        assert_eq!(dial.epoch, SessionEpoch::Round((MAX_ROUNDS - 1) as u8));
    }

    #[test]
    fn complete_nodes_dial_nobody() {
        let plan = plan();
        let seeder = initial_share(&plan, 0);
        let mut m = NodeMachine::new(&plan, 0, &seeder);
        assert!(m.open_round().0.is_empty());
        assert!(!m.close_round(0, true));
        let (mut m, _) = leecher(&plan, 0);
        assert_eq!(m.advance(&seeder), Some(1));
        assert!(m.open_round().0.is_empty());
    }
}
