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
//! [`predict`] runs the same plan through [`OverlayNet`] session links
//! and reports what the real swarm must reproduce: completion, distinct
//! counts, and per-link wire bytes — exact, because both worlds pump
//! machines constructed from identical `(working set, request, seed)`
//! triples (see [`icd_overlay::session_machine_seeds`]).

use std::fmt;
use std::str::FromStr;

use icd_overlay::net::RunLimit;
use icd_overlay::{Link, OverlayNet, StopReason, SymbolId};
use icd_swarm::{build_topology, PeerId, Topology, TopologyKind};
use icd_util::hash::mix64;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

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

/// Salt separating per-round session seeds on the same link.
const ROUND_SALT: u64 = 0x1CD0_2D01;

/// Most reconciliation rounds a swarm will run before giving up.
/// Coverage gaps close geometrically (every round spreads symbols one
/// hop further), so real plans finish in two or three. Note that
/// re-keying rounds does **not** re-draw approximate-summary false
/// positives — a digest is a pure function of the two working sets —
/// which is why a node whose round gained nothing escalates to a
/// speculative dial instead of merely waiting for the next seed (see
/// `Node::stall_escalations`).
pub const MAX_ROUNDS: u32 = 16;

/// The session seed a link uses in reconciliation round `round`.
/// Round 0 is the link seed itself; later rounds re-key so the
/// sender's candidate shuffle and recoding draws differ per round.
/// (Approximate-summary false positives do *not* re-draw — the digest
/// ignores the session seed — the daemon's stall escalation covers
/// that case.)
#[must_use]
pub(crate) fn round_seed(link_seed: u64, round: u32) -> u64 {
    if round == 0 {
        link_seed
    } else {
        mix64(link_seed ^ ROUND_SALT.wrapping_add(u64::from(round)))
    }
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
    /// Per-node distinct symbol count at the end.
    pub distinct: Vec<usize>,
    /// Per-link wire bytes (both directions of the session, framed),
    /// summed over all rounds, in [`SwarmPlan::links`] order. Lossless
    /// links: sent == delivered.
    pub link_bytes: Vec<u64>,
    /// Reconciliation rounds the swarm ran (a link only participates in
    /// a round while its receiver is incomplete).
    pub rounds: u32,
}

impl Prediction {
    /// Total wire bytes across all links.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }
}

/// Runs `plan` through [`OverlayNet`] session links and reports the
/// outcome, round by round exactly as the daemons execute it: round
/// `r` reconnects a session on every link whose receiver is still
/// incomplete (fresh snapshots via the engine's refresh-on-connect,
/// session seed `round_seed`) and drains it fully before the next
/// round's snapshots freeze. No observers are registered, so
/// [`OverlayNet::run`] returns only when every session has drained —
/// exactly when the real daemons' blocking drivers return — and the
/// per-barrier node states in both worlds are identical, which is what
/// makes the per-link byte counts an exact oracle.
///
/// # Panics
/// If the engine rejects a planned link (cannot happen for a valid
/// plan) or a round fails to drain within a generous tick budget.
#[must_use]
pub fn predict(plan: &SwarmPlan) -> Prediction {
    let spec = &plan.spec;
    let mut net = OverlayNet::new(spec.seed).with_payload_bytes(spec.payload);
    let mut nodes = Vec::with_capacity(spec.nodes);
    for n in 0..spec.nodes {
        let id = if spec.is_seeder(n) {
            net.add_seeder(&plan.shares[n])
        } else {
            net.add_node(&plan.shares[n], spec.universe)
        };
        nodes.push(id);
    }
    let mut link_bytes = vec![0u64; plan.links.len()];
    let mut rounds = 0;
    for round in 0..MAX_ROUNDS {
        let pending: Vec<usize> = (0..plan.links.len())
            .filter(|&i| !net.node_complete(nodes[plan.links[i].to]))
            .collect();
        if pending.is_empty() {
            break;
        }
        rounds = round + 1;
        let round_links: Vec<(usize, _)> = pending
            .iter()
            .map(|&i| {
                let link = &plan.links[i];
                let id = net
                    .connect_session(
                        nodes[link.from],
                        nodes[link.to],
                        Link::default(),
                        round_seed(link.seed, round),
                    )
                    .expect("planned links are well-formed");
                (i, id)
            })
            .collect();
        let reason = net.run(RunLimit::ticks(1_000_000_000));
        assert_eq!(reason, StopReason::Stalled, "sessions must drain");
        for (i, l) in round_links {
            let (sent, delivered) = net.link_wire_bytes(l);
            assert_eq!(sent, delivered, "plan links are lossless");
            link_bytes[i] += sent;
        }
    }
    Prediction {
        completed: nodes.iter().map(|&n| net.node_complete(n)).collect(),
        distinct: nodes.iter().map(|&n| net.node_distinct(n)).collect(),
        link_bytes,
        rounds,
    }
}

/// A [`predict`]-style oracle for a run with injected session cuts:
/// what the simulator says a *recovering* swarm does.
///
/// Unlike the fault-free prediction this is a **bound**, not a
/// byte-equality oracle: the daemon's chaos hook cuts a session after a
/// frame budget while the replay cuts on a tick boundary, so the two
/// worlds sever at slightly different points in the symbol stream. The
/// replay still pins down the structure — which links pay twice, how
/// many resumption sessions run — and [`FaultyPrediction::byte_bound`]
/// turns that into a ceiling the chaos harness asserts against.
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
    /// worst case, one for timing skew between the daemon's
    /// frame-budget cut and the replay's tick cut).
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

/// Replays `plan` with the listed `(from, to)` session links severed
/// `cut_ticks` into round 0 and resumed immediately — the simulator
/// twin of the daemon's `ServeChaos` + retry recovery. The resumption
/// session reconnects on the receiver's *current* state (the engine's
/// refresh-on-connect), exactly mirroring the daemon's `Live`-epoch
/// redial, under the same `retry_seed` the daemon would use.
///
/// # Panics
/// If a severed pair is not a planned link, or a round fails to drain.
#[must_use]
pub fn predict_faulty(
    plan: &SwarmPlan,
    severed_pairs: &[(PeerId, PeerId)],
    cut_ticks: u64,
) -> FaultyPrediction {
    let base = predict(plan);
    let severed: Vec<usize> = severed_pairs
        .iter()
        .map(|&(from, to)| {
            plan.links
                .iter()
                .position(|l| l.from == from && l.to == to)
                .expect("severed pair is a planned link")
        })
        .collect();

    let spec = &plan.spec;
    let mut net = OverlayNet::new(spec.seed).with_payload_bytes(spec.payload);
    let mut nodes = Vec::with_capacity(spec.nodes);
    for n in 0..spec.nodes {
        let id = if spec.is_seeder(n) {
            net.add_seeder(&plan.shares[n])
        } else {
            net.add_node(&plan.shares[n], spec.universe)
        };
        nodes.push(id);
    }
    let mut link_bytes = vec![0u64; plan.links.len()];
    let mut rounds = 0;
    let mut retries = 0u64;
    for round in 0..MAX_ROUNDS {
        let pending: Vec<usize> = (0..plan.links.len())
            .filter(|&i| !net.node_complete(nodes[plan.links[i].to]))
            .collect();
        if pending.is_empty() {
            break;
        }
        rounds = round + 1;
        let mut round_links: Vec<(usize, _)> = pending
            .iter()
            .map(|&i| {
                let link = &plan.links[i];
                let id = net
                    .connect_session(
                        nodes[link.from],
                        nodes[link.to],
                        Link::default(),
                        round_seed(link.seed, round),
                    )
                    .expect("planned links are well-formed");
                (i, id)
            })
            .collect();
        if round == 0 && !severed.is_empty() {
            let pause = net.now() + cut_ticks;
            let reason = net.run(RunLimit {
                max_ticks: 1_000_000_000,
                stop_before: Some(pause),
            });
            // If the round drained before the cut (tiny spec), there is
            // nothing left to sever and no resumption runs.
            if reason == StopReason::Paused {
                for slot in &mut round_links {
                    let (i, l) = *slot;
                    if !severed.contains(&i) {
                        continue;
                    }
                    // Bill the dead attempt, cut it, redial on the
                    // receiver's current state.
                    let (sent, _) = net.link_wire_bytes(l);
                    link_bytes[i] += sent;
                    net.disconnect(l);
                    let link = &plan.links[i];
                    let resumed = net
                        .connect_session(
                            nodes[link.from],
                            nodes[link.to],
                            Link::default(),
                            retry_seed_for_replay(link.seed, round),
                        )
                        .expect("resumption link is well-formed");
                    retries += 1;
                    *slot = (i, resumed);
                }
            }
        }
        let reason = net.run(RunLimit::ticks(1_000_000_000));
        assert_eq!(reason, StopReason::Stalled, "sessions must drain");
        for (i, l) in round_links {
            let (sent, _) = net.link_wire_bytes(l);
            link_bytes[i] += sent;
        }
    }
    let faulty = Prediction {
        completed: nodes.iter().map(|&n| net.node_complete(n)).collect(),
        distinct: nodes.iter().map(|&n| net.node_distinct(n)).collect(),
        link_bytes,
        rounds,
    };
    FaultyPrediction {
        base,
        faulty,
        severed,
        retries,
    }
}

/// The session seed the daemon's first redial of a round-`round` fetch
/// uses (`crate::daemon`'s retry attempt 2) — re-derived here so the
/// replay and the real recovery draw identical symbol streams.
fn retry_seed_for_replay(link_seed: u64, round: u32) -> u64 {
    crate::daemon::retry_seed(link_seed, round, 2)
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
        // Seeders hold the object outside their (empty) receiver; every
        // leecher must end with the full universe.
        for n in plan.spec.seeders..plan.spec.nodes {
            assert_eq!(p.distinct[n], plan.spec.universe);
        }
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
}
