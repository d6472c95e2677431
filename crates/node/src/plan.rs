//! The deterministic distribution plan shared by daemons and simulator.
//!
//! A swarm run — real or simulated — is fully described by a
//! [`DistributionSpec`]: seed, roster size, seeder count, symbol
//! universe, per-leecher share, payload width, topology family.
//! [`SwarmPlan::new`] expands it into concrete universe ids, per-node
//! initial shares, and directed session links with per-link seeds; every
//! participant (each daemon process, the prediction, the test harness)
//! derives the identical plan independently from the spec alone, so
//! nothing about the object or the topology ever crosses the wire
//! out-of-band.
//!
//! [`predict`] runs the same plan in-process, one [`FramePump`] per
//! planned link stepped in lockstep, and reports what the real swarm
//! must reproduce: completion, distinct counts, and per-link wire bytes
//! — exact, because both worlds ask the same [`NodeMachine`] per node
//! for every session's `(working set, request, seed)` triple.

use std::fmt;
use std::str::FromStr;

use icd_core::{FramePump, PumpStep, ReceiverMachine, SenderMachine, SessionAction, WorkingSet};
use icd_fountain::EncodedSymbol;
use icd_overlay::SymbolId;
use icd_swarm::{build_topology, PeerId, Topology, TopologyKind};
use icd_util::hash::mix64;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::machine::{initial_share, NodeMachine, MAX_ROUNDS};

/// Salts keeping the plan's derived RNG streams disjoint from each
/// other and from every other stream keyed by the same seed.
const UNIVERSE_SALT: u64 = 0x1CD0_0B1E;
const SHARE_SALT: u64 = 0x1CD0_5A8E;
const LINK_SALT: u64 = 0x1CD0_114C;

/// Everything that defines one swarm distribution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSpec {
    /// Master seed; every derived stream (universe, shares, topology,
    /// per-link machine seeds) is keyed off it.
    pub seed: u64,
    /// Total peers, seeders included. Node ids `0..nodes`.
    pub nodes: usize,
    /// Peers `0..seeders` start with the whole object and never fetch.
    pub seeders: usize,
    /// Distinct symbols in the object.
    pub universe: usize,
    /// Symbols each leecher starts with (a deterministic random subset).
    pub share: usize,
    /// Payload bytes per symbol on the wire.
    pub payload: usize,
    /// Overlay graph family.
    pub topology: TopologyKind,
}

impl DistributionSpec {
    /// Checks the spec describes a runnable swarm.
    ///
    /// # Errors
    /// Returns the first structural problem found.
    pub(crate) fn validate(&self) -> Result<(), SpecParseError> {
        if self.seeders == 0 || self.seeders >= self.nodes {
            return Err(SpecParseError::new("need 1 <= seeders < nodes"));
        }
        if self.universe == 0 || self.share == 0 || self.share >= self.universe {
            return Err(SpecParseError::new("need 0 < share < universe"));
        }
        if self.payload == 0 {
            return Err(SpecParseError::new("payload must be > 0"));
        }
        Ok(())
    }

    /// Whether node `n` is a seeder (holds the full object from t=0).
    #[must_use]
    pub fn is_seeder(&self, n: PeerId) -> bool {
        n < self.seeders
    }
}

/// Error from parsing or validating a [`DistributionSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    msg: String,
}

impl SpecParseError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad spec: {}", self.msg)
    }
}

impl std::error::Error for SpecParseError {}

impl fmt::Display for DistributionSpec {
    /// Compact single-token form, e.g.
    /// `seed=7,nodes=5,seeders=1,universe=360,share=150,payload=64,topo=ring2`.
    /// Round-trips through [`FromStr`] for every spec `FromStr` accepts
    /// (Erdős–Rényi probabilities are whole percents there).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let topo = match self.topology {
            TopologyKind::ErdosRenyi { p } => {
                format!("er{}", (p * 100.0).round() as u32)
            }
            TopologyKind::PowerLaw { m } => format!("pl{m}"),
            TopologyKind::RingChords { chords } => format!("ring{chords}"),
        };
        write!(
            f,
            "seed={},nodes={},seeders={},universe={},share={},payload={},topo={}",
            self.seed, self.nodes, self.seeders, self.universe, self.share, self.payload, topo
        )
    }
}

impl FromStr for DistributionSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = Self {
            seed: 1,
            nodes: 0,
            seeders: 1,
            universe: 0,
            share: 0,
            payload: 64,
            topology: TopologyKind::RingChords { chords: 1 },
        };
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| SpecParseError::new(format!("expected key=value, got {part:?}")))?;
            let number = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| SpecParseError::new(format!("bad number {v:?} for {key}")))
            };
            match key {
                "seed" => spec.seed = number(value)?,
                "nodes" => spec.nodes = number(value)? as usize,
                "seeders" => spec.seeders = number(value)? as usize,
                "universe" => spec.universe = number(value)? as usize,
                "share" => spec.share = number(value)? as usize,
                "payload" => spec.payload = number(value)? as usize,
                "topo" => {
                    spec.topology = if let Some(n) = value.strip_prefix("ring") {
                        TopologyKind::RingChords {
                            chords: number(n)? as usize,
                        }
                    } else if let Some(n) = value.strip_prefix("pl") {
                        TopologyKind::PowerLaw {
                            m: number(n)? as usize,
                        }
                    } else if let Some(n) = value.strip_prefix("er") {
                        TopologyKind::ErdosRenyi {
                            p: number(n)? as f64 / 100.0,
                        }
                    } else {
                        return Err(SpecParseError::new(format!(
                            "unknown topology {value:?} (ring<chords> | pl<m> | er<percent>)"
                        )));
                    }
                }
                other => {
                    return Err(SpecParseError::new(format!("unknown key {other:?}")));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// One directed session link the plan schedules: `to` dials `from` and
/// downloads over a session seeded `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedLink {
    /// Serving (sender) peer.
    pub from: PeerId,
    /// Fetching (receiver) peer.
    pub to: PeerId,
    /// Link seed; both machine seeds derive from it via
    /// [`icd_overlay::session_machine_seeds`].
    pub seed: u64,
}

/// The fully expanded plan every participant derives from the spec.
#[derive(Debug, Clone)]
pub struct SwarmPlan {
    /// The spec this plan expands.
    pub spec: DistributionSpec,
    /// The object: `spec.universe` distinct symbol ids.
    pub universe: Vec<SymbolId>,
    /// Per-node initial share, in the canonical inventory order both
    /// worlds construct sender working sets from (seeders: the whole
    /// universe; leechers: a seeded distinct sample).
    pub shares: Vec<Vec<SymbolId>>,
    /// Directed session links in deterministic order: for each topology
    /// edge `(a, b)` (sorted), `a → b` if `b` leeches, then `b → a` if
    /// `a` leeches. Seeders never fetch.
    pub links: Vec<PlannedLink>,
    /// The undirected overlay graph the links were derived from.
    pub topology: Topology,
}

/// Seed for the directed link `from → to` under master seed `seed`.
#[must_use]
pub fn link_seed(seed: u64, from: PeerId, to: PeerId) -> u64 {
    let pair = ((from as u64) << 32) | (to as u64 & 0xFFFF_FFFF);
    mix64(mix64(seed ^ LINK_SALT) ^ pair)
}

impl SwarmPlan {
    /// Expands `spec` into the concrete plan.
    ///
    /// # Panics
    /// If `spec` fails `DistributionSpec::validate`.
    #[must_use]
    pub fn new(spec: DistributionSpec) -> Self {
        spec.validate().expect("invalid DistributionSpec");
        let base = spec.seed ^ UNIVERSE_SALT;
        let universe: Vec<SymbolId> = (0..spec.universe as u64)
            .map(|i| mix64(base.wrapping_add(i)))
            .collect();

        let mut shares = Vec::with_capacity(spec.nodes);
        for n in 0..spec.nodes {
            if spec.is_seeder(n) {
                shares.push(universe.clone());
                continue;
            }
            // Partial Fisher–Yates: the first `share` entries of a
            // seeded shuffle of the universe indices. Selection order
            // *is* the node's inventory order.
            let mut rng = Xoshiro256StarStar::new(mix64(
                (spec.seed ^ SHARE_SALT).wrapping_add(n as u64),
            ));
            let mut indices: Vec<usize> = (0..spec.universe).collect();
            for k in 0..spec.share {
                let j = k + rng.below((spec.universe - k) as u64) as usize;
                indices.swap(k, j);
            }
            shares.push(indices[..spec.share].iter().map(|&i| universe[i]).collect());
        }

        let topology = build_topology(spec.topology, spec.nodes, spec.seed);
        let mut links = Vec::new();
        for &(a, b) in &topology.edges {
            if !spec.is_seeder(b) {
                links.push(PlannedLink {
                    from: a,
                    to: b,
                    seed: link_seed(spec.seed, a, b),
                });
            }
            if !spec.is_seeder(a) {
                links.push(PlannedLink {
                    from: b,
                    to: a,
                    seed: link_seed(spec.seed, b, a),
                });
            }
        }

        Self {
            spec,
            universe,
            shares,
            links,
            topology,
        }
    }

    /// The links node `n` fetches over (it is `to`), in plan order.
    pub(crate) fn fetches_of(&self, n: PeerId) -> impl Iterator<Item = &PlannedLink> {
        self.links.iter().filter(move |l| l.to == n)
    }
}

/// What the simulator says the swarm must do: the oracle the
/// multi-process harness diffs real daemons against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Per-node completion (seeders trivially true).
    pub completed: Vec<bool>,
    /// Per-node distinct symbol count at the end (seeders: the whole
    /// universe).
    pub distinct: Vec<usize>,
    /// Per-link wire bytes (both directions of the session, framed),
    /// summed over all rounds, in [`SwarmPlan::links`] order. Lossless
    /// links: sent == delivered.
    pub link_bytes: Vec<u64>,
    /// Reconciliation rounds the swarm ran (a link only participates in
    /// a round while its receiver is incomplete).
    pub rounds: u32,
    /// Per-node rounds whose dials escalated to speculative transfers
    /// after a round that gained nothing (see `Node::stall_escalations`;
    /// the same machine decides it in both worlds).
    pub stall_escalations: Vec<u64>,
}

impl Prediction {
    /// Total wire bytes across all links.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }
}

/// Runs `plan` round by round exactly as the daemons execute it and
/// reports the outcome. Every node is a round machine, as in a
/// daemon: at each barrier every machine freezes its node's held set,
/// every link whose receiver is still incomplete opens the session its
/// machine dials, and the sessions' [`FramePump`]s step in lockstep
/// until all are idle; only then does the next barrier freeze. Each
/// session is a pure function of its frozen `(snapshot, request, seed)`
/// triple, and the daemons' machines freeze the same triples at their
/// barriers, which is what makes the per-link byte counts an exact
/// oracle.
///
/// # Panics
/// If a session breaks the protocol (a machine bug: both ends are
/// built from the same plan).
#[must_use]
pub fn predict(plan: &SwarmPlan) -> Prediction {
    replay(plan, &[], 0, MAX_ROUNDS).0
}

/// A [`predict`]-style oracle for a run with injected session cuts:
/// what the simulator says a *recovering* swarm does.
///
/// Unlike the fault-free prediction this is a **bound**, not a
/// byte-equality oracle: the daemon's chaos hook cuts a session after a
/// frame budget while the replay cuts after a number of lockstep pump
/// steps, so the two worlds sever at slightly different points in the
/// symbol stream. The replay still pins down the structure — which
/// links pay twice, how many resumption sessions run — and
/// [`FaultyPrediction::byte_bound`] turns that into a ceiling the chaos
/// harness asserts against.
#[derive(Debug, Clone)]
pub struct FaultyPrediction {
    /// The fault-free oracle for the same plan.
    pub base: Prediction,
    /// The replayed faulty outcome. Severed links' byte counts include
    /// both the dead attempt and its resumption session.
    pub faulty: Prediction,
    /// Plan-link indices that were severed in the replay.
    pub severed: Vec<usize>,
    /// Resumption sessions the replay performed.
    pub retries: u64,
}

impl FaultyPrediction {
    /// Ceiling on total wire bytes a recovering daemon swarm may move:
    /// the costlier of the two replays, plus two full fault-free
    /// sessions of slack per severed link (one for the dead attempt's
    /// worst case, one for skew between the daemon's frame-budget cut
    /// and the replay's step-count cut).
    #[must_use]
    pub fn byte_bound(&self) -> u64 {
        let slack: u64 = self
            .severed
            .iter()
            .map(|&i| 2 * self.base.link_bytes[i])
            .sum();
        self.base.total_bytes().max(self.faulty.total_bytes()) + slack
    }
}

/// Replays `plan` with the listed `(from, to)` session links severed in
/// round 0 and resumed immediately — the simulator twin of the daemon's
/// `ServeChaos` + retry recovery. The round's sessions open at tick 0
/// and lockstep step `k` is tick `k`; the cut lands at tick
/// `cut_ticks`, before that step runs, unless the round drained first.
/// The resumption is the receiving machine's second attempt, as in the
/// daemon: a `Live`-epoch session over both peers' *current* sets,
/// skipped if the receiver has completed.
///
/// # Panics
/// If a severed pair is not a planned link, or a session breaks the
/// protocol.
#[must_use]
pub fn predict_faulty(
    plan: &SwarmPlan,
    severed_pairs: &[(PeerId, PeerId)],
    cut_ticks: u64,
) -> FaultyPrediction {
    let severed: Vec<usize> = severed_pairs
        .iter()
        .map(|&(from, to)| {
            plan.links
                .iter()
                .position(|l| l.from == from && l.to == to)
                .expect("severed pair is a planned link")
        })
        .collect();
    let (faulty, retries) = replay(plan, &severed, cut_ticks, MAX_ROUNDS);
    FaultyPrediction {
        base: predict(plan),
        faulty,
        severed,
        retries,
    }
}

/// A node in the replay: its round machine and the set it holds.
type PeerState = (NodeMachine, WorkingSet);

/// One planned link's session in a round: its machine pair and the
/// in-memory pump between them.
struct Session {
    /// Index into [`SwarmPlan::links`].
    link: usize,
    receiver: ReceiverMachine,
    sender: SenderMachine,
    pump: FramePump,
}

impl Session {
    /// Opens attempt `attempt` of plan link `link`'s fetch as the
    /// receiving node's machine dials it, over the set the serving
    /// node's machine picks for the dial's epoch; `None` when the
    /// receiving machine has nothing to dial.
    fn open(plan: &SwarmPlan, nodes: &[PeerState], link: usize, attempt: u32) -> Option<Self> {
        let planned = &plan.links[link];
        let (receiver, held) = &nodes[planned.to];
        let dial = receiver.dial(planned, attempt, held)?;
        let (sender, held) = &nodes[planned.from];
        let served = sender.session_set(dial.epoch, held).clone();
        let mut session = Self {
            link,
            sender: SenderMachine::new(served, dial.sender_seed()),
            receiver: ReceiverMachine::new(dial.working, dial.config),
            pump: FramePump::new(),
        };
        session
            .pump
            .start(&mut session.receiver, &mut session.sender, &mut Vec::new())
            .expect("fresh machines accept PeerConnected");
        Some(session)
    }

    /// One pump step; every symbol the receiver decodes joins `held`,
    /// the fetching peer's set. Returns whether a frame moved.
    fn step(&mut self, held: &mut WorkingSet, actions: &mut Vec<SessionAction>) -> bool {
        let step = self
            .pump
            .step(&mut self.receiver, &mut self.sender, actions)
            .unwrap_or_else(|e| panic!("session on plan link {} broke protocol: {e}", self.link));
        for action in actions.drain(..) {
            if let SessionAction::SymbolDecoded(id) = action {
                let payload = self.receiver.working().payload(id);
                let payload = payload.expect("decoded symbol is in the machine's working set");
                held.insert(EncodedSymbol {
                    id,
                    payload: payload.clone(),
                });
            }
        }
        step == PumpStep::Progressed
    }

    /// Framed bytes delivered so far, both directions.
    fn wire_bytes(&self) -> u64 {
        let (to_sender, to_receiver) = self.pump.wire_bytes();
        to_sender + to_receiver
    }
}

/// The round loop behind [`predict`] and [`predict_faulty`]: runs at
/// most `round_limit` rounds, severs the `severed` plan links at tick
/// `cut_ticks` of round 0 (nothing when `severed` is empty), and returns
/// the outcome plus the resumption sessions opened.
fn replay(
    plan: &SwarmPlan,
    severed: &[usize],
    cut_ticks: u64,
    round_limit: u32,
) -> (Prediction, u64) {
    let universe = plan.spec.universe;
    let mut nodes: Vec<PeerState> = (0..plan.spec.nodes)
        .map(|n| {
            let held = initial_share(plan, n);
            (NodeMachine::new(plan, n, &held), held)
        })
        .collect();
    let mut link_bytes = vec![0u64; plan.links.len()];
    let (mut rounds, mut retries) = (0, 0u64);
    let mut actions = Vec::new();
    loop {
        let before: Vec<usize> = nodes.iter().map(|(_, held)| held.len()).collect();
        let dialing: Vec<bool> = nodes
            .iter_mut()
            .map(|(machine, _)| !machine.open_round().0.is_empty())
            .collect();
        let mut sessions: Vec<Session> = (0..plan.links.len())
            .filter(|&i| dialing[plan.links[i].to])
            .filter_map(|i| Session::open(plan, &nodes, i, 1))
            .collect();
        if sessions.is_empty() {
            break;
        }
        for tick in 1.. {
            if rounds == 0 && tick == cut_ticks.max(1) {
                // Bill each dead attempt, then resume it as the daemon would.
                sessions.retain_mut(|session| {
                    if !severed.contains(&session.link) {
                        return true;
                    }
                    link_bytes[session.link] += session.wire_bytes();
                    let resumed = Session::open(plan, &nodes, session.link, 2);
                    retries += u64::from(resumed.is_some());
                    resumed.map(|resumed| *session = resumed).is_some()
                });
            }
            let mut progressed = false;
            for session in &mut sessions {
                let to = plan.links[session.link].to;
                progressed |= session.step(&mut nodes[to].1, &mut actions);
            }
            if !progressed {
                break;
            }
        }
        rounds += 1;
        for session in &sessions {
            link_bytes[session.link] += session.wire_bytes();
        }
        for ((machine, held), before) in nodes.iter_mut().zip(before) {
            machine.close_round((held.len() - before) as u64, held.len() >= universe);
        }
        // The barrier. The machines share one round, so they reach the
        // round cap together.
        if rounds == round_limit || nodes.iter_mut().any(|(m, now)| m.advance(now).is_none()) {
            break;
        }
    }
    let prediction = Prediction {
        completed: nodes
            .iter()
            .map(|(_, held)| held.len() >= universe)
            .collect(),
        distinct: nodes.iter().map(|(_, held)| held.len()).collect(),
        link_bytes,
        rounds,
        stall_escalations: nodes.iter().map(|(m, _)| m.escalations()).collect(),
    };
    (prediction, retries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's reference swarm geometry (also used by the
    /// multi-process harness and the CI smoke). The universe is kept
    /// well below the min-wise sketch width (128 permutations): a
    /// 1-symbol difference then stays visible to the handshake, so the
    /// last mile closes through ordinary reconciled rounds instead of
    /// stalling under the §4 identical-reject rule. (Objects much
    /// larger than the sketch resolution need the swarm layer's
    /// recode-fallback escalation — `icd_swarm::Swarm` — which trades
    /// the daemon's exact cross-process byte parity away.)
    fn spec() -> DistributionSpec {
        DistributionSpec {
            seed: 7,
            nodes: 5,
            seeders: 1,
            universe: 80,
            share: 30,
            payload: 64,
            topology: TopologyKind::RingChords { chords: 2 },
        }
    }

    #[test]
    fn spec_string_round_trips() {
        let s = spec();
        let text = s.to_string();
        let back: DistributionSpec = text.parse().expect("parse");
        assert_eq!(back, s);
        assert!("seed=1".parse::<DistributionSpec>().is_err());
        assert!("nodes=3,seeders=3,universe=10,share=2"
            .parse::<DistributionSpec>()
            .is_err());
    }

    #[test]
    fn plan_is_deterministic_and_well_formed() {
        let plan = SwarmPlan::new(spec());
        let again = SwarmPlan::new(spec());
        assert_eq!(plan.universe, again.universe);
        assert_eq!(plan.shares, again.shares);
        assert_eq!(plan.links, again.links);

        // Universe ids are distinct.
        let mut ids = plan.universe.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), plan.spec.universe);

        // Shares are distinct subsets of the universe, sized per role.
        for (n, share) in plan.shares.iter().enumerate() {
            let mut s = share.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), share.len(), "node {n} share has duplicates");
            assert!(share.iter().all(|id| plan.universe.contains(id)));
            let expect = if plan.spec.is_seeder(n) {
                plan.spec.universe
            } else {
                plan.spec.share
            };
            assert_eq!(share.len(), expect);
        }

        // Seeders never appear as a fetch destination; every leecher
        // fetches over at least one link; link seeds are distinct.
        assert!(plan.links.iter().all(|l| !plan.spec.is_seeder(l.to)));
        for n in plan.spec.seeders..plan.spec.nodes {
            assert!(plan.fetches_of(n).count() >= 1, "leecher {n} has no links");
        }
        let mut seeds: Vec<u64> = plan.links.iter().map(|l| l.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan.links.len());
    }

    #[test]
    fn prediction_completes_the_reference_spec() {
        let plan = SwarmPlan::new(spec());
        let p = predict(&plan);
        assert!(p.completed.iter().all(|&c| c), "distribution must finish");
        // Every node, seeder or leecher, ends with the full universe.
        assert!(p.distinct.iter().all(|&d| d == plan.spec.universe));
        assert!(p.link_bytes.iter().all(|&b| b > 0));
        assert!(
            (1..=4).contains(&p.rounds),
            "reference spec should settle in a few rounds, took {}",
            p.rounds
        );
        // Prediction is itself deterministic.
        assert_eq!(p, predict(&plan));
    }

    #[test]
    fn faulty_prediction_recovers_and_bounds_the_damage() {
        let plan = SwarmPlan::new(spec());
        // Sever one non-seeder-to-non-seeder link mid-round-0.
        let victim = plan
            .links
            .iter()
            .find(|l| !plan.spec.is_seeder(l.from))
            .expect("reference topology has leecher-to-leecher links");
        let fp = predict_faulty(&plan, &[(victim.from, victim.to)], 24);

        // Recovery is total: the cut changes the path, not the outcome.
        assert!(fp.faulty.completed.iter().all(|&c| c));
        assert_eq!(fp.faulty.distinct, fp.base.distinct);
        assert_eq!(fp.retries, 1, "one sever, one resumption");
        assert_eq!(fp.severed.len(), 1);

        // The replay never exceeds its own ceiling, and the ceiling is
        // not vacuous (within slack of the fault-free run).
        assert!(fp.faulty.total_bytes() <= fp.byte_bound());
        let slack: u64 = fp.severed.iter().map(|&i| 2 * fp.base.link_bytes[i]).sum();
        assert!(fp.byte_bound() <= fp.base.total_bytes().max(fp.faulty.total_bytes()) + slack);

        // Deterministic replay.
        let again = predict_faulty(&plan, &[(victim.from, victim.to)], 24);
        assert_eq!(fp.faulty, again.faulty);
        assert_eq!(fp.retries, again.retries);
    }

    /// A universe above the min-wise sketch's 128-permutation resolution
    /// stalls under the §4 identical-reject rule: node 3 ends round 0 one
    /// symbol short and gains nothing in round 1, so its machine
    /// escalates round 2 — the round a daemon's machine escalates.
    #[test]
    fn replay_escalates_the_round_after_a_stall() {
        let spec: DistributionSpec =
            "seed=1,nodes=5,seeders=1,universe=200,share=75,payload=64,topo=ring2"
                .parse()
                .expect("spec parses");
        let plan = SwarmPlan::new(spec);
        let after = |rounds| replay(&plan, &[], 0, rounds).0;
        assert_eq!(after(1).distinct[3], 199);
        assert_eq!(after(2).distinct[3], 199);
        assert_eq!(after(2).stall_escalations, [0; 5]);
        assert_eq!(after(3).stall_escalations, [0, 0, 0, 1, 0]);
        let p = predict(&plan);
        assert_eq!(after(3), p, "round 2 completes the swarm");
        assert_eq!(p.rounds, 3);
        assert!(p.completed.iter().all(|&c| c));
        assert_eq!(
            p.link_bytes,
            [12414, 19626, 12416, 11084, 6015, 13114, 9521, 6260, 11327, 5612, 12903]
        );
    }
}
