//! The swarm driver: a generated topology plus a membership event
//! stream, interleaved deterministically over one live
//! [`OverlayNet`] via its `run`/pause/rewire/resume API.
//!
//! The §6 evaluation runs one receiver against hand-picked senders; the
//! paper's *setting* is a swarm — every peer simultaneously downloads
//! from and uploads to its neighbors while the roster itself churns.
//! [`Swarm::run`] reproduces exactly that regime:
//!
//! * every peer is an engine node with a partial working set and the
//!   shared completion target; every topology edge becomes (up to) two
//!   directed reconciliation links with per-link seeded senders;
//! * the membership schedule ([`crate::membership::churn_plan`]) fires
//!   at exact engine ticks: the run pauses, the event mutates the
//!   topology (joins, leaves, rejoins, single-link rewires), the clock
//!   resumes — the engine's event order makes the whole thing a pure
//!   function of the config and seed;
//! * connections are *refreshed*, never updated in place: an exhausted
//!   link is torn down and re-handshaken against the receiver's current
//!   set (and, via the engine's refresh-on-connect, the sender's
//!   current inventory) on the maintenance cadence — §6.1's one-shot
//!   summaries at per-connection granularity, re-aimed between
//!   connections exactly as §6.1 prescribes;
//! * incomplete peers whose senders all departed re-attach to live
//!   peers (the self-healing behaviour an adaptive overlay needs to
//!   survive churn at all).

use std::time::Instant;

use icd_obs::{ProfileHandle, TraceEvent, TraceHandle};
use icd_overlay::net::{
    BytesHeld, ConnectSpec, Link, NodeId, OverlayNet, RunLimit, StopReason, Time,
};
use icd_overlay::scenario::ScenarioParams;
use icd_overlay::strategy::StrategyKind;
use icd_overlay::SymbolId;
use icd_sketch::SummaryId;
use icd_util::idset::{IdSet, IdUniverse};
use icd_util::mem::vec_bytes;
use icd_util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};

use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
use crate::membership::{churn_plan, ChurnConfig, PeerId, SwarmEvent};
use crate::topology::{build_topology, TopologyKind};

/// How link strategies are chosen when a connection is (re)built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmStrategy {
    /// Every link runs the same strategy.
    Fixed(StrategyKind),
    /// Every link asks the engine's registry cost advisors, from the
    /// two endpoints' calling cards (§4); `recode` picks the
    /// Recode/summary family over Random/summary.
    Advised {
        /// Prefer the recoded informed family.
        recode: bool,
    },
}

/// Configuration of one swarm run. Build with [`SwarmConfig::new`] and
/// override fields as needed; every run is a pure function of
/// `(config, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmConfig {
    /// Initial roster size (including [`SwarmConfig::seed_peers`]).
    pub peers: usize,
    /// Overlay shape wired at start-up.
    pub topology: TopologyKind,
    /// Source blocks `n` of the shared file (the §6.3 geometry knob).
    pub blocks: usize,
    /// Distinct symbols in the system as a multiple of `blocks`.
    pub distinct_factor: f64,
    /// Constant decoding-overhead assumption (paper: 0.07).
    pub decode_overhead: f64,
    /// Fraction of the symbol pool each ordinary peer starts with.
    pub init_fraction: f64,
    /// Peers 0..seed_peers hold the full pool (and therefore start
    /// complete); they anchor coverage and never leave.
    pub seed_peers: usize,
    /// Links a joining or re-attaching peer establishes.
    pub attach_degree: usize,
    /// Link strategy policy.
    pub strategy: SwarmStrategy,
    /// Rate/latency/loss profiles cycled over connections in creation
    /// order — heterogeneous peer bandwidths, the adaptive-overlay
    /// regime where most links are idle on most ticks.
    pub link_profiles: Vec<Link>,
    /// Membership churn schedule parameters.
    pub churn: ChurnConfig,
    /// Fault-injection schedule parameters. `FaultConfig::none` (the
    /// default) is a strict no-op: no fault RNG stream is consulted and
    /// every existing outcome is byte-identical.
    pub faults: FaultConfig,
    /// Ticks between connection-maintenance passes (exhausted links are
    /// re-handshaken; orphaned incomplete peers re-attach).
    pub refresh_interval: Time,
    /// Engine tick budget.
    pub max_ticks: Time,
}

impl SwarmConfig {
    /// A swarm of `peers` nodes over `topology` sharing a
    /// `blocks`-block file, with the §6.3 compact geometry, no churn,
    /// and Random/BF links.
    #[must_use]
    pub fn new(peers: usize, blocks: usize, topology: TopologyKind) -> Self {
        Self {
            peers,
            topology,
            blocks,
            distinct_factor: 1.1,
            decode_overhead: 0.07,
            init_fraction: 0.5,
            seed_peers: 2,
            attach_degree: 2,
            strategy: SwarmStrategy::Fixed(StrategyKind::RandomSummary(SummaryId::BLOOM)),
            link_profiles: vec![Link::default()],
            churn: ChurnConfig::none(),
            faults: FaultConfig::none(),
            refresh_interval: 20,
            max_ticks: blocks as Time * 50 + 10_000,
        }
    }

    /// Replaces the churn schedule.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = churn;
        self
    }

    /// Replaces the fault-injection schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the link strategy policy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SwarmStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the link rate/latency/loss profiles (cycled over
    /// connections in creation order). Panics if `profiles` is empty.
    #[must_use]
    pub fn with_link_profiles(mut self, profiles: Vec<Link>) -> Self {
        assert!(!profiles.is_empty(), "need at least one link profile");
        self.link_profiles = profiles;
        self
    }
}

/// Why a [`SwarmConfig`] cannot be built into a [`Swarm`]. Experiment
/// grids sweep generated configs; a mis-sized cell must fail *that
/// cell* with a diagnosis, not abort the whole grid with a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwarmConfigError {
    /// Fewer than 3 peers: a swarm needs a roster to route around.
    TooFewPeers {
        /// Configured roster size.
        peers: usize,
    },
    /// `seed_peers == 0`: nothing anchors coverage of the symbol pool.
    NoSeedPeers,
    /// `seed_peers >= peers`: no ordinary peer would ever download.
    SeedPeersExceedRoster {
        /// Configured full-pool peers.
        seed_peers: usize,
        /// Configured roster size.
        peers: usize,
    },
    /// `init_fraction` outside `[0, 1]`.
    InitFractionOutOfRange {
        /// The offending fraction.
        fraction: f64,
    },
    /// The completion target exceeds the symbol pool: under this
    /// `(blocks, distinct_factor, decode_overhead)` geometry no peer
    /// can ever finish.
    TargetExceedsPool {
        /// Distinct symbols each peer must reach.
        target: usize,
        /// Distinct symbols that exist in the system.
        pool: usize,
    },
    /// `link_profiles` is empty: connections have no parameters to take.
    NoLinkProfiles,
}

impl std::fmt::Display for SwarmConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewPeers { peers } => {
                write!(f, "a swarm needs at least 3 peers, got {peers}")
            }
            Self::NoSeedPeers => write!(f, "need at least one full seed peer"),
            Self::SeedPeersExceedRoster { seed_peers, peers } => write!(
                f,
                "roster ({peers}) must exceed seed peers ({seed_peers})"
            ),
            Self::InitFractionOutOfRange { fraction } => {
                write!(f, "init fraction must be in [0, 1], got {fraction}")
            }
            Self::TargetExceedsPool { target, pool } => write!(
                f,
                "completion target {target} exceeds the {pool}-symbol pool: \
                 raise distinct_factor or lower decode_overhead"
            ),
            Self::NoLinkProfiles => write!(f, "need at least one link profile"),
        }
    }
}

impl std::error::Error for SwarmConfigError {}

/// What a [`Swarm::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmOutcome {
    /// Final roster size (initial peers + joins).
    pub peers: usize,
    /// Peers at their completion target when the run stopped.
    pub completed: usize,
    /// Engine ticks elapsed.
    pub ticks: Time,
    /// Engine events processed (the `swarm_events_per_s` numerator).
    pub events: u64,
    /// Packets emitted by reconciliation links.
    pub packets: u64,
    /// True framed wire bytes of the whole run: every frame booked at
    /// send time across every link (the exact `write_frame_buf`
    /// lengths), plus the wire-exact connect-time control exchange of
    /// each packet link — handshakes and re-handshakes included.
    pub wire_bytes: u64,
    /// Packets per needed symbol, summed over the whole roster — the
    /// figure-5 overhead metric at swarm scale.
    pub overhead: f64,
    /// Join events applied.
    pub joins: u32,
    /// Leave events applied.
    pub leaves: u32,
    /// Rejoin events applied.
    pub rejoins: u32,
    /// Rewire events applied.
    pub rewires: u32,
    /// Exhausted links re-handshaken by maintenance passes.
    pub reconnects: u64,
    /// Sessions redialed directly by fault execution: the immediate
    /// redial after a truncated frame, the slowed rebuilds after a rate
    /// collapse, and the re-attachments of a restarted or un-stalled
    /// peer. Zero on fault-free runs. (Fault-induced rebuilds the
    /// *maintenance* pass performs — e.g. healing a cut link on the
    /// refresh cadence — count in [`SwarmOutcome::reconnects`].)
    pub retries: u64,
    /// Framed wire bytes sent but never delivered: frames dropped by
    /// lossy profiles plus frames in flight when a link was cut or its
    /// peer crashed. Zero on loss-free, fault-free runs.
    pub wasted_wire_bytes: u64,
    /// Fault events that actually mutated the net (a cut aimed at a
    /// linkless peer, for example, is scheduled but has no effect).
    pub faults_applied: u32,
    /// Scheduled fault events that never fired because the swarm
    /// finished (or conceded a stall) first.
    pub unapplied_faults: u32,
    /// Scheduled membership events that never fired because the swarm
    /// finished (or gave up) first — the download session disbands at
    /// all-nodes-complete, so a churn window stretching past that tick
    /// is visible here instead of silently shrinking the counters.
    pub unapplied_events: u32,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl SwarmOutcome {
    /// Whether every peer (joiners included) reached the target.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.completed == self.peers
    }

    /// Total membership events applied.
    #[must_use]
    pub fn membership_events(&self) -> u32 {
        self.joins + self.leaves + self.rejoins + self.rewires
    }
}

#[derive(Debug)]
struct Peer {
    node: NodeId,
    /// Distinct count at the last maintenance pass — the stagnation
    /// detector that triggers re-reconciliation.
    last_distinct: usize,
    /// Consecutive stagnant passes: widens the sender search
    /// exponentially, so a peer missing a *rare* symbol sweeps the
    /// roster instead of resampling two neighbors forever.
    starved: u32,
}

/// Which roster peers are present, plus a Fenwick tree over those flags:
/// the `k`-th present peer in roster order costs O(log roster), so
/// [`Swarm::sample_present`] maps its draws without scanning the roster.
#[derive(Debug, Default)]
struct Presence {
    flags: Vec<bool>,
    /// 1-based Fenwick tree: `tree[i - 1]` counts the present peers with
    /// roster index in `[i - lowbit(i), i)`.
    tree: Vec<u32>,
    count: usize,
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl Presence {
    /// Appends a present peer to the roster.
    fn push(&mut self) {
        let i = self.tree.len() + 1;
        let mut sum = 1;
        let mut j = i - 1;
        while j > i - lowbit(i) {
            sum += self.tree[j - 1];
            j -= lowbit(j);
        }
        self.tree.push(sum);
        self.flags.push(true);
        self.count += 1;
    }

    fn contains(&self, p: PeerId) -> bool {
        self.flags[p]
    }

    fn set(&mut self, p: PeerId, on: bool) {
        if self.flags[p] == on {
            return;
        }
        self.flags[p] = on;
        let mut i = p + 1;
        while i <= self.tree.len() {
            if on {
                self.tree[i - 1] += 1;
            } else {
                self.tree[i - 1] -= 1;
            }
            i += lowbit(i);
        }
        if on {
            self.count += 1;
        } else {
            self.count -= 1;
        }
    }

    /// Present peers with roster index below `p`.
    fn rank(&self, p: PeerId) -> usize {
        let (mut i, mut sum) = (p, 0);
        while i > 0 {
            sum += self.tree[i - 1] as usize;
            i -= lowbit(i);
        }
        sum
    }

    /// The `k`-th (0-based) present peer in roster order.
    fn nth(&self, mut k: usize) -> PeerId {
        debug_assert!(k < self.count, "only {} peers present", self.count);
        let mut pos = 0;
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            if pos + step <= self.tree.len() && (self.tree[pos + step - 1] as usize) <= k {
                pos += step;
                k -= self.tree[pos - 1] as usize;
            }
            step >>= 1;
        }
        pos
    }
}

/// A live swarm: an [`OverlayNet`] plus the roster, schedule, and
/// seeded streams that drive it. See the module docs for the model.
#[derive(Debug)]
pub struct Swarm {
    cfg: SwarmConfig,
    net: OverlayNet,
    peers: Vec<Peer>,
    present: Presence,
    pool: Vec<SymbolId>,
    /// Reusable inventory-sampling bitmap over the pool as a shared
    /// sorted universe: dedup costs `pool.len()` *bits* of scratch,
    /// reused across every join, versus 8+ hashed bytes per sampled id
    /// in the hash set it replaced.
    inventory_scratch: IdSet,
    target: usize,
    schedule: Vec<(Time, SwarmEvent)>,
    next_event: usize,
    /// The generated fault schedule, replayed on the same clock.
    fault_schedule: Vec<(Time, FaultEvent)>,
    next_fault: usize,
    /// Victim-link selection for fault execution. Its own stream, so a
    /// quiet fault plan leaves every other stream untouched — the
    /// strict-no-op guarantee the parity goldens rely on.
    fault_rng: Xoshiro256StarStar,
    /// Per-link sender seeds (one stream for the whole swarm lifetime).
    link_seeds: SplitMix64,
    /// Membership sampling (join inventories, attachment choices).
    rng: Xoshiro256StarStar,
    total_needed: u64,
    joins: u32,
    leaves: u32,
    rejoins: u32,
    rewires: u32,
    reconnects: u64,
    retries: u64,
    faults_applied: u32,
    /// Connections ever created (cycles the link profiles).
    links_created: usize,
    /// Structured trace recorder, forwarded to the engine. Stamped with
    /// sim time only — installing one never perturbs an outcome.
    tracer: Option<TraceHandle>,
    /// Maintenance rounds run so far (traced as `round_start`).
    rounds: u64,
    /// Wall-clock phase recorder ([`Swarm::set_profiler`]). Nothing the
    /// run computes ever reads it.
    profiler: Option<ProfileHandle>,
}

/// The wall-clock scopes [`Swarm::set_profiler`] records. The first
/// three tile [`Swarm::run`]: engine execution (one scope per
/// `OverlayNet::run` call), maintenance passes, and membership plus
/// fault events. `swarm.connect` covers every connection (re)build and
/// is nested inside the other two.
pub const PROFILE_SCOPES: [&str; 4] = [
    "overlay.run",
    "swarm.refresh",
    "swarm.membership",
    "swarm.connect",
];

/// Consecutive stagnant maintenance passes after which rebuilt links
/// escalate to oblivious recoding and the seed peers are adopted
/// directly (the origin-server fallback).
const LAST_RESORT_STARVATION: u32 = 3;

/// Salts separating the swarm's seeded streams.
const POOL_SEED_SALT: u64 = 0x5EED_0001;
const LINK_SEED_SALT: u64 = 0x5EED_0002;
const MEMBER_SEED_SALT: u64 = 0x5EED_0003;
const FAULT_EXEC_SALT: u64 = 0x5EED_0004;

impl Swarm {
    /// Builds the initial swarm: symbol pool, per-peer inventories,
    /// engine nodes, and the generated topology's links. Deterministic
    /// in `(cfg, seed)`.
    ///
    /// Panics on an invalid config; experiment grids that must survive
    /// mis-sized cells use `Swarm::try_new` instead.
    #[must_use]
    pub fn new(cfg: SwarmConfig, seed: u64) -> Self {
        Self::try_new(cfg, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Swarm::new`] returning a descriptive [`SwarmConfigError`]
    /// instead of panicking — a mis-sized experiment cell fails that
    /// cell, not the whole grid.
    pub(crate) fn try_new(cfg: SwarmConfig, seed: u64) -> Result<Self, SwarmConfigError> {
        if cfg.peers < 3 {
            return Err(SwarmConfigError::TooFewPeers { peers: cfg.peers });
        }
        if cfg.seed_peers < 1 {
            return Err(SwarmConfigError::NoSeedPeers);
        }
        if cfg.seed_peers >= cfg.peers {
            return Err(SwarmConfigError::SeedPeersExceedRoster {
                seed_peers: cfg.seed_peers,
                peers: cfg.peers,
            });
        }
        if !(0.0..=1.0).contains(&cfg.init_fraction) {
            return Err(SwarmConfigError::InitFractionOutOfRange {
                fraction: cfg.init_fraction,
            });
        }
        if cfg.link_profiles.is_empty() {
            return Err(SwarmConfigError::NoLinkProfiles);
        }
        let params = ScenarioParams {
            num_blocks: cfg.blocks,
            distinct_factor: cfg.distinct_factor,
            decode_overhead: cfg.decode_overhead,
            seed: icd_util::hash::mix64(seed ^ POOL_SEED_SALT),
        };
        let pool = params.symbol_ids(params.distinct_symbols());
        let target = params.target();
        if target > pool.len() {
            return Err(SwarmConfigError::TargetExceedsPool {
                target,
                pool: pool.len(),
            });
        }

        let inventory_scratch = IdUniverse::new(pool.clone()).empty_set();
        let mut swarm = Self {
            net: OverlayNet::new(seed),
            peers: Vec::with_capacity(cfg.peers),
            present: Presence::default(),
            schedule: churn_plan(&cfg.churn, cfg.peers, cfg.seed_peers, seed),
            next_event: 0,
            fault_schedule: FaultPlan::generate(&cfg.faults, cfg.peers, cfg.seed_peers, seed)
                .events,
            next_fault: 0,
            fault_rng: Xoshiro256StarStar::new(icd_util::hash::mix64(seed ^ FAULT_EXEC_SALT)),
            link_seeds: SplitMix64::new(icd_util::hash::mix64(seed ^ LINK_SEED_SALT)),
            rng: Xoshiro256StarStar::new(icd_util::hash::mix64(seed ^ MEMBER_SEED_SALT)),
            total_needed: 0,
            joins: 0,
            leaves: 0,
            rejoins: 0,
            rewires: 0,
            reconnects: 0,
            retries: 0,
            faults_applied: 0,
            links_created: 0,
            tracer: None,
            rounds: 0,
            profiler: None,
            pool,
            inventory_scratch,
            target,
            cfg,
        };
        for p in 0..swarm.cfg.peers {
            swarm.add_peer(p < swarm.cfg.seed_peers, p);
        }
        let topology = build_topology(swarm.cfg.topology, swarm.cfg.peers, seed);
        for &(a, b) in &topology.edges {
            swarm.connect_pair(a, b);
            swarm.connect_pair(b, a);
        }
        Ok(swarm)
    }

    /// Installs a structured trace recorder on the swarm and its
    /// engine. Records are stamped with sim time and a deterministic
    /// sequence number only, so the trace of a `(config, seed)` run is
    /// byte-identical at every thread count.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.net.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Installs a wall-clock phase recorder: [`Swarm::run`] then times
    /// the coarse [`PROFILE_SCOPES`] — never a single engine event — so
    /// the split costs a few clock reads per pause and per connection.
    /// Wall time stays outside the parity domain: it is written to the
    /// handle and read by nothing the run computes. Without a profiler
    /// the scopes cost one `Option` check each.
    pub fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.profiler = Some(profiler);
    }

    /// Runs `f` inside the wall-clock scope `phase` when a profiler is
    /// installed.
    fn scoped<R>(&mut self, phase: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(profiler) = self.profiler.clone() else {
            return f(self);
        };
        let start = Instant::now();
        let out = f(self);
        profiler.borrow_mut().record_since(phase, start);
        out
    }

    /// Pushes `event` onto the installed tracer (if any) at the current
    /// engine tick.
    fn trace(&self, event: TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().push(self.net.now(), event);
        }
    }

    /// Adds a peer to the roster: full pool for seeds, otherwise the
    /// coverage share (symbol `j` is anchored at ordinary peer
    /// `j mod (initial ordinary peers)`) plus a seeded random sample up
    /// to the configured fraction. `salt` keeps join inventories
    /// distinct from the initial roster's.
    fn add_peer(&mut self, is_seed: bool, salt: usize) -> PeerId {
        let inventory = if is_seed {
            self.pool.clone()
        } else {
            self.sample_inventory(salt)
        };
        let node = self.net.add_node(&inventory, self.target);
        self.net.set_observer(node, true);
        self.total_needed += self.net.node_remaining(node) as u64;
        self.present.push();
        self.peers.push(Peer {
            node,
            last_distinct: self.net.node_distinct(node),
            starved: 0,
        });
        self.peers.len() - 1
    }

    fn sample_inventory(&mut self, salt: usize) -> Vec<SymbolId> {
        let want = ((self.cfg.init_fraction * self.pool.len() as f64).round() as usize)
            .clamp(1, self.pool.len());
        let ordinary = self.cfg.peers - self.cfg.seed_peers;
        let mut set: Vec<SymbolId> = Vec::with_capacity(want + self.pool.len() / ordinary + 1);
        // Coverage anchor: every symbol lives at some ordinary peer even
        // if no random draw picks it, so the swarm's union always spans
        // the pool regardless of seed-peer placement.
        if salt >= self.cfg.seed_peers && salt < self.cfg.peers {
            let anchor = salt - self.cfg.seed_peers;
            for (j, &id) in self.pool.iter().enumerate() {
                if j % ordinary == anchor {
                    set.push(id);
                }
            }
        }
        self.inventory_scratch.clear();
        for &id in &set {
            self.inventory_scratch.insert(id);
        }
        for idx in self.rng.sample_distinct(self.pool.len(), want) {
            let id = self.pool[idx];
            if self.inventory_scratch.insert(id) {
                set.push(id);
            }
        }
        set
    }

    /// `starved` is the destination peer's consecutive-stagnant-pass
    /// count; it escalates the strategy ladder described at
    /// [`Swarm::refresh_pass`].
    fn link_strategy(&mut self, from: NodeId, to: NodeId, starved: u32) -> StrategyKind {
        // Digest-driven links can wedge on a withheld symbol: a Bloom
        // false positive (stable across re-handshakes of the same set)
        // or an exact digest sized below the true difference withholds
        // it on *every* connection. Oblivious recoding over the whole
        // working set is the paper's own FP-proof fallback (§5.2/§6.2):
        // the withheld symbol rides out XORed with known ones.
        if starved >= LAST_RESORT_STARVATION {
            return StrategyKind::Recode;
        }
        match self.cfg.strategy {
            SwarmStrategy::Fixed(kind) => kind,
            // Advisors size mechanisms from sketch *estimates*; when a
            // peer stops gaining, the estimate was wrong. Stagnation
            // rebuilds fall back to the always-decodable Bloom family.
            SwarmStrategy::Advised { recode } if starved >= 1 => {
                if recode {
                    StrategyKind::RecodeSummary(SummaryId::BLOOM)
                } else {
                    StrategyKind::RandomSummary(SummaryId::BLOOM)
                }
            }
            SwarmStrategy::Advised { recode } => {
                self.net.advised_strategy(from, to, recode)
            }
        }
    }

    /// Connects `from → to` by roster index if `to` still needs symbols.
    fn connect_pair(&mut self, from: PeerId, to: PeerId) -> bool {
        let (f, t) = (self.peers[from].node, self.peers[to].node);
        self.connect_nodes(f, t, 0)
    }

    fn connect_nodes(&mut self, from: NodeId, to: NodeId, starved: u32) -> bool {
        self.connect_nodes_with(from, to, starved, None)
    }

    /// As [`Swarm::connect_nodes`], with an optional profile override —
    /// fault execution rebuilds rate-collapsed links on slowed profiles
    /// instead of the configured cycle. The profile cycle position
    /// (`links_created`) advances either way, so a collapsed rebuild
    /// costs the same cycle slot a normal one would.
    fn connect_nodes_with(
        &mut self,
        from: NodeId,
        to: NodeId,
        starved: u32,
        profile: Option<Link>,
    ) -> bool {
        if self.net.node_remaining(to) == 0 {
            return false; // nothing to reconcile toward a complete peer
        }
        self.scoped("swarm.connect", |s| {
            let strategy = s.link_strategy(from, to, starved);
            let spec = ConnectSpec::seeded(s.link_seeds.next_u64());
            let cycled = s.cfg.link_profiles[s.links_created % s.cfg.link_profiles.len()];
            s.links_created += 1;
            s.net
                .try_connect(from, to, strategy, profile.unwrap_or(cycled), spec)
                .is_ok()
        })
    }

    /// Samples `count` distinct present peers other than `except`: the
    /// draws index the present peers in roster order with `except`
    /// left out.
    fn sample_present(&mut self, count: usize, except: PeerId) -> Vec<PeerId> {
        let skip = if self.present.contains(except) {
            self.present.rank(except)
        } else {
            usize::MAX
        };
        let candidates = self.present.count - usize::from(skip != usize::MAX);
        let take = count.min(candidates);
        self.rng
            .sample_distinct(candidates, take)
            .into_iter()
            .map(|i| self.present.nth(if i < skip { i } else { i + 1 }))
            .collect()
    }

    /// Attaches peer `p` to the live swarm: download links from
    /// `attach_degree` sampled present peers, and upload links back to
    /// the ones that still need symbols. Returns the links built.
    fn attach(&mut self, p: PeerId) -> u64 {
        let mut built = 0u64;
        for q in self.sample_present(self.cfg.attach_degree, p) {
            built += u64::from(self.connect_pair(q, p));
            built += u64::from(self.connect_pair(p, q));
        }
        built
    }

    /// Executes one scheduled fault against the live net. Victim-link
    /// choices draw from the dedicated fault RNG stream; rebuilds drawn
    /// *after* a fault (re-attachments, redials) share the ordinary
    /// membership/link streams — a faulty run is still a pure function
    /// of `(config, seed)`, and a fault-free run never gets here.
    fn apply_fault(&mut self, event: FaultEvent) {
        let before = self.faults_applied;
        self.apply_fault_inner(event);
        // Only faults that actually landed are traced and counted — a
        // crash aimed at an already-absent peer is a no-op, not a fault.
        if self.faults_applied > before {
            let (fault, peer) = fault_label(event);
            self.trace(TraceEvent::FaultApplied {
                fault: fault.into(),
                peer: peer as u64,
            });
        }
    }

    fn apply_fault_inner(&mut self, event: FaultEvent) {
        match event {
            // A crash is a leave nobody announced: same teardown, but
            // booked on the fault counters, and the working set survives
            // in the node — the restart advertises it wholesale.
            FaultEvent::Crash(p) => {
                if self.present.contains(p) {
                    self.net.disconnect_node(self.peers[p].node);
                    self.present.set(p, false);
                    self.faults_applied += 1;
                }
            }
            FaultEvent::Restart(p) => {
                if !self.present.contains(p) {
                    self.present.set(p, true);
                    self.faults_applied += 1;
                    let rebuilt = self.attach(p);
                    self.retries += rebuilt;
                }
            }
            FaultEvent::CutLink(p) => {
                if !self.present.contains(p) {
                    return;
                }
                let ins = self.net.node_in_links(self.peers[p].node);
                if ins.is_empty() {
                    return;
                }
                let victim = ins[self.fault_rng.index(ins.len())];
                self.net.disconnect(victim);
                self.faults_applied += 1;
                // No redial here: the maintenance pass heals the cut on
                // the refresh cadence (counted in `reconnects`).
            }
            FaultEvent::StallStart(p) => {
                if !self.present.contains(p) {
                    return;
                }
                let ins = self.net.node_in_links(self.peers[p].node).to_vec();
                if ins.is_empty() {
                    return;
                }
                for link in ins {
                    self.net.disconnect(link);
                }
                self.faults_applied += 1;
            }
            FaultEvent::StallEnd(p) => {
                if !self.present.contains(p) {
                    return;
                }
                self.faults_applied += 1;
                let rebuilt = self.attach(p);
                self.retries += rebuilt;
            }
            // The daemon's truncated-frame path at engine scale: tear
            // the session down, redial immediately against the current
            // sets. The handshake and any in-flight frames are the waste
            // the retry costs.
            FaultEvent::TruncateFrame(p) => {
                if !self.present.contains(p) {
                    return;
                }
                let node = self.peers[p].node;
                let ins = self.net.node_in_links(node);
                if ins.is_empty() {
                    return;
                }
                let victim = ins[self.fault_rng.index(ins.len())];
                let (from, _) = self.net.link_ends(victim);
                self.net.disconnect(victim);
                self.faults_applied += 1;
                self.retries += u64::from(self.connect_nodes(from, node, 0));
            }
            // Transient bandwidth collapse: every inbound link is
            // rebuilt on a profile `slow_factor` times slower. Later
            // maintenance rebuilds return to the configured cycle.
            FaultEvent::RateCollapse(p) => {
                if !self.present.contains(p) {
                    return;
                }
                let node = self.peers[p].node;
                let ins = self.net.node_in_links(node).to_vec();
                if ins.is_empty() {
                    return;
                }
                self.faults_applied += 1;
                let slow = Link::slower(self.cfg.faults.slow_factor.max(1));
                for link in ins {
                    let (from, _) = self.net.link_ends(link);
                    self.net.disconnect(link);
                    self.retries +=
                        u64::from(self.connect_nodes_with(from, node, 0, Some(slow)));
                }
            }
        }
    }

    fn apply_event(&mut self, event: SwarmEvent) {
        match event {
            SwarmEvent::Join => {
                let salt = self.peers.len();
                let p = self.add_peer(false, salt);
                self.joins += 1;
                self.attach(p);
            }
            SwarmEvent::Leave(p) => {
                if self.present.contains(p) {
                    self.net.disconnect_node(self.peers[p].node);
                    self.present.set(p, false);
                    self.leaves += 1;
                }
            }
            SwarmEvent::Rejoin(p) => {
                if !self.present.contains(p) {
                    self.present.set(p, true);
                    self.rejoins += 1;
                    self.attach(p);
                }
            }
            SwarmEvent::Rewire(p) => {
                if !self.present.contains(p) {
                    return;
                }
                let node = self.peers[p].node;
                let ins = self.net.node_in_links(node);
                if ins.is_empty() {
                    return;
                }
                let victim = ins[self.rng.index(ins.len())];
                self.net.disconnect(victim);
                self.rewires += 1;
                // Migrate to a present peer not already uploading to p,
                // so the peer never nets a lost connection; the old
                // sender stays eligible (the fresh link re-handshakes —
                // a migration back is still a migration).
                let existing: Vec<NodeId> = self
                    .net
                    .node_in_links(node)
                    .iter()
                    .map(|&l| self.net.link_ends(l).0)
                    .collect();
                let candidates: Vec<PeerId> = (0..self.peers.len())
                    .filter(|&q| {
                        q != p
                            && self.present.contains(q)
                            && !existing.contains(&self.peers[q].node)
                    })
                    .collect();
                if !candidates.is_empty() {
                    let q = candidates[self.rng.index(candidates.len())];
                    self.connect_pair(q, p);
                }
            }
        }
    }

    /// One maintenance pass over every incomplete present peer:
    /// exhausted inbound links are re-handshaken against the current
    /// sets, and a peer whose distinct count did not grow since the
    /// last pass (its senders are pumping nothing useful, or it lost
    /// them all to churn) rebuilds *all* its inbound connections and
    /// adopts fresh senders — the adaptive re-reconciliation round a
    /// real swarm runs. Returns the number of links (re)built.
    fn refresh_pass(&mut self) -> u64 {
        self.trace(TraceEvent::RoundStart { round: self.rounds });
        self.rounds += 1;
        let mut rebuilt = 0u64;
        for p in 0..self.peers.len() {
            if !self.present.contains(p) {
                continue;
            }
            let node = self.peers[p].node;
            if self.net.node_complete(node) {
                // Done downloading: release the upstream connections so
                // never-exhausting senders stop pumping at a finished
                // peer (its own uploads keep running).
                for link in self.net.node_in_links(node).to_vec() {
                    self.net.disconnect(link);
                }
                continue;
            }
            let distinct = self.net.node_distinct(node);
            let stagnant = distinct == self.peers[p].last_distinct;
            self.peers[p].last_distinct = distinct;
            let starved = if stagnant { self.peers[p].starved + 1 } else { 0 };
            self.peers[p].starved = starved;
            let ins = self.net.node_in_links(node).to_vec();
            for link in ins {
                if stagnant || self.net.link_exhausted(link) {
                    let (from, _) = self.net.link_ends(link);
                    self.net.disconnect(link);
                    rebuilt += u64::from(self.connect_nodes(from, node, starved));
                }
            }
            if stagnant || self.net.node_in_links(node).is_empty() {
                // Starved for fresh symbols: adopt additional senders,
                // widening the search each consecutive dry pass so a
                // rare symbol's holder is found in O(log roster) passes.
                let width = self.cfg.attach_degree << starved.min(5);
                let mut sources = self.sample_present(width, p);
                if starved >= LAST_RESORT_STARVATION {
                    self.trace(TraceEvent::StallEscalation {
                        peer: p as u64,
                        starved: u64::from(starved),
                    });
                    // Origin fallback: the seed peers hold the full
                    // pool, and their last-resort links recode over it.
                    for s in 0..self.cfg.seed_peers {
                        if self.present.contains(s) && !sources.contains(&s) && s != p {
                            sources.push(s);
                        }
                    }
                }
                for q in sources {
                    rebuilt += u64::from(self.connect_nodes(self.peers[q].node, node, starved));
                }
            }
        }
        self.reconnects += rebuilt;
        rebuilt
    }

    /// What the swarm holds on the heap, by structure: the engine's
    /// [`OverlayNet::bytes_held`] plus the roster — peers, presence
    /// index, symbol pool and the membership and fault schedules. Read
    /// it after [`Swarm::run`] to see where a run's bytes went.
    #[must_use]
    pub fn bytes_held(&self) -> BytesHeld {
        let mut held = self.net.bytes_held();
        held.roster = vec_bytes(&self.peers)
            + vec_bytes(&self.present.flags)
            + vec_bytes(&self.present.tree)
            + vec_bytes(&self.pool)
            + vec_bytes(&self.schedule)
            + vec_bytes(&self.fault_schedule);
        held
    }

    /// Drives the swarm to completion (every peer at target), stall, or
    /// the tick budget, interleaving membership events and maintenance
    /// passes with engine execution. Deterministic in `(cfg, seed)`.
    ///
    /// The download session disbands the moment every peer is complete:
    /// membership events scheduled after that tick never fire (counted
    /// in [`SwarmOutcome::unapplied_events`]) — a late joiner would be
    /// joining a swarm that no longer exists.
    pub fn run(&mut self) -> SwarmOutcome {
        let mut next_refresh = self.cfg.refresh_interval.max(1);
        let mut dry_stalls = 0u32;
        let mut packets_at_stall = u64::MAX;
        let stop = loop {
            let pending = self.schedule.get(self.next_event).map(|&(t, _)| t);
            let pending_fault = self.fault_schedule.get(self.next_fault).map(|&(t, _)| t);
            let pause = [Some(next_refresh), pending, pending_fault]
                .into_iter()
                .flatten()
                .min()
                .expect("next_refresh is always present");
            let limit = RunLimit {
                max_ticks: self.cfg.max_ticks,
                stop_before: Some(pause),
            };
            let reason = self.scoped("overlay.run", |s| s.net.run(limit));
            match reason {
                StopReason::Completed | StopReason::MaxTicks => break reason,
                StopReason::Paused => {
                    self.scoped("swarm.membership", |s| s.apply_due(pause));
                    if pause >= next_refresh {
                        self.scoped("swarm.refresh", Self::refresh_pass);
                        next_refresh = pause + self.cfg.refresh_interval.max(1);
                    }
                }
                StopReason::Stalled => {
                    // Nothing in flight and every live link exhausted:
                    // maintenance is the only way forward. Stalls that
                    // repeat without a single new packet mean the
                    // present senders have nothing left to contribute.
                    let sent = self.net.packets_from_partial() + self.net.packets_from_full();
                    dry_stalls = if sent == packets_at_stall { dry_stalls + 1 } else { 0 };
                    packets_at_stall = sent;
                    let rebuilt = self.scoped("swarm.refresh", Self::refresh_pass);
                    // The tolerance covers the starvation escalation:
                    // by the 8th dry pass a starved peer has swept
                    // essentially the whole roster (degree << 7).
                    if rebuilt == 0 || dry_stalls >= 8 {
                        // Maintenance cannot help: fast-forward to the
                        // next membership event (a rejoin may bring the
                        // missing symbols back), then to the next fault
                        // (a crashed peer's restart may be what revives
                        // the swarm), or concede the stall.
                        if let Some(&(_, event)) = self.schedule.get(self.next_event) {
                            self.scoped("swarm.membership", |s| s.apply_event(event));
                            self.next_event += 1;
                        } else if let Some(&(_, fault)) =
                            self.fault_schedule.get(self.next_fault)
                        {
                            self.scoped("swarm.membership", |s| s.apply_fault(fault));
                            self.next_fault += 1;
                        } else {
                            break StopReason::Stalled;
                        }
                    }
                }
            }
        };
        self.outcome(stop)
    }

    /// Fires every membership event and then every fault due at or
    /// before `pause`.
    fn apply_due(&mut self, pause: Time) {
        while let Some(&(t, event)) = self.schedule.get(self.next_event) {
            if t > pause {
                break;
            }
            self.apply_event(event);
            self.next_event += 1;
        }
        // Faults due at the same pause fire after membership events — a
        // peer that left at tick t cannot also crash at tick t.
        while let Some(&(t, fault)) = self.fault_schedule.get(self.next_fault) {
            if t > pause {
                break;
            }
            self.apply_fault(fault);
            self.next_fault += 1;
        }
    }

    fn outcome(&self, stop: StopReason) -> SwarmOutcome {
        let completed = self
            .peers
            .iter()
            .filter(|p| self.net.node_complete(p.node))
            .count();
        let packets = self.net.packets_from_partial() + self.net.packets_from_full();
        SwarmOutcome {
            peers: self.peers.len(),
            completed,
            ticks: self.net.now(),
            events: self.net.events_processed(),
            packets,
            wire_bytes: self.net.wire_bytes_sent() + self.net.control_wire_bytes(),
            overhead: if self.total_needed == 0 {
                0.0
            } else {
                packets as f64 / self.total_needed as f64
            },
            joins: self.joins,
            leaves: self.leaves,
            rejoins: self.rejoins,
            rewires: self.rewires,
            reconnects: self.reconnects,
            retries: self.retries,
            wasted_wire_bytes: self.net.wasted_wire_bytes(),
            faults_applied: self.faults_applied,
            unapplied_faults: (self.fault_schedule.len() - self.next_fault) as u32,
            unapplied_events: (self.schedule.len() - self.next_event) as u32,
            stop,
        }
    }
}

/// The trace label and victim peer of a fault event.
fn fault_label(event: FaultEvent) -> (&'static str, PeerId) {
    match event {
        FaultEvent::Crash(p) => ("crash", p),
        FaultEvent::Restart(p) => ("restart", p),
        FaultEvent::CutLink(p) => ("cut_link", p),
        FaultEvent::StallStart(p) => ("stall_start", p),
        FaultEvent::StallEnd(p) => ("stall_end", p),
        FaultEvent::TruncateFrame(p) => ("truncate_frame", p),
        FaultEvent::RateCollapse(p) => ("rate_collapse", p),
    }
}

/// Builds and runs a swarm in one call — the experiment-grid cell shape.
/// Panics on an invalid config; grid drivers use [`try_run_swarm`].
#[must_use]
pub fn run_swarm(cfg: SwarmConfig, seed: u64) -> SwarmOutcome {
    Swarm::new(cfg, seed).run()
}

/// [`run_swarm`] surfacing config mistakes as a per-cell error instead
/// of a grid-killing panic.
pub fn try_run_swarm(cfg: SwarmConfig, seed: u64) -> Result<SwarmOutcome, SwarmConfigError> {
    Ok(Swarm::try_new(cfg, seed)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_obs::PhaseProfile;

    /// Leave/rejoin churn over `fraction` of the roster in `window`,
    /// with the given downtime and no joins or rewires.
    fn leaving(fraction: f64, window: (Time, Time), downtime: Time) -> ChurnConfig {
        ChurnConfig {
            leave_fraction: fraction,
            downtime,
            window,
            joins: 0,
            rewires: 0,
        }
    }

    #[test]
    fn presence_index_matches_a_roster_scan() {
        let mut rng = Xoshiro256StarStar::new(9);
        let mut presence = Presence::default();
        let mut flags: Vec<bool> = Vec::new();
        for _ in 0..2000 {
            if flags.is_empty() || rng.index(4) == 0 {
                presence.push();
                flags.push(true);
            } else {
                let p = rng.index(flags.len());
                let on = rng.index(2) == 0;
                presence.set(p, on);
                flags[p] = on;
            }
            let listed: Vec<PeerId> = (0..flags.len()).filter(|&p| flags[p]).collect();
            assert_eq!(presence.count, listed.len());
            for (k, &p) in listed.iter().enumerate() {
                assert_eq!(presence.nth(k), p);
                assert_eq!(presence.rank(p), k);
                assert!(presence.contains(p));
            }
        }
    }

    #[test]
    fn profiler_scopes_tile_the_run_without_perturbing_it() {
        let peers = 1000;
        let mut cfg = SwarmConfig::new(peers, 64, TopologyKind::PowerLaw { m: 2 })
            .with_link_profiles([1, 2, 4, 8, 16].map(Link::slower).to_vec())
            .with_churn(ChurnConfig {
                leave_fraction: 0.10,
                downtime: 60,
                window: (5, 160),
                joins: peers / 100,
                rewires: peers / 50,
            });
        cfg.refresh_interval = 40;
        let plain = run_swarm(cfg.clone(), 5);
        let mut swarm = Swarm::new(cfg, 5);
        let profile = PhaseProfile::shared();
        swarm.set_profiler(profile.clone());
        let start = Instant::now();
        let out = swarm.run();
        let wall = start.elapsed().as_nanos() as f64;
        assert!(out.all_complete());
        assert_eq!(out, plain, "profiling must not perturb the run");
        let profile = profile.borrow();
        for scope in PROFILE_SCOPES {
            assert!(profile.get(scope).is_some(), "{scope} never ran");
        }
        let tiled: u64 = PROFILE_SCOPES[..3].iter().map(|s| profile.total_ns(s)).sum();
        assert!(
            tiled as f64 >= 0.9 * wall,
            "scopes cover {tiled} of {wall} ns:\n{}",
            profile.report()
        );
        assert!(
            profile.total_ns("swarm.connect")
                <= profile.total_ns("swarm.refresh") + profile.total_ns("swarm.membership"),
            "connects nest inside maintenance and membership"
        );
    }

    fn quiet(peers: usize, blocks: usize) -> SwarmConfig {
        SwarmConfig::new(peers, blocks, TopologyKind::RingChords { chords: peers / 2 })
    }

    #[test]
    fn quiescent_ring_swarm_completes() {
        let out = run_swarm(quiet(24, 80), 1);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete(), "completed {}/{}", out.completed, out.peers);
        assert_eq!(out.membership_events(), 0);
        assert!(out.overhead >= 1.0, "overhead {}", out.overhead);
        // Every packet occupies at least an encoded-symbol frame.
        assert!(
            out.wire_bytes > out.packets * 1024,
            "wire bytes {} must cover {} 1KB-payload frames",
            out.wire_bytes,
            out.packets
        );
    }

    #[test]
    fn mis_sized_cell_fails_itself_not_the_grid() {
        // target = blocks·(1+overhead) > pool = blocks·distinct_factor:
        // under the old assert this panicked out of the whole sweep.
        let mut cfg = quiet(12, 60);
        cfg.distinct_factor = 1.0;
        cfg.decode_overhead = 0.07;
        let err = try_run_swarm(cfg, 1).expect_err("impossible geometry");
        assert!(matches!(err, SwarmConfigError::TargetExceedsPool { .. }));
        assert!(err.to_string().contains("exceeds the"));
        // The other validations surface the same way.
        assert_eq!(
            try_run_swarm(quiet(2, 60), 1).expect_err("tiny roster"),
            SwarmConfigError::TooFewPeers { peers: 2 }
        );
        let mut cfg = quiet(12, 60);
        cfg.seed_peers = 12;
        assert!(matches!(
            try_run_swarm(cfg, 1).expect_err("all seeds"),
            SwarmConfigError::SeedPeersExceedRoster { .. }
        ));
        let mut cfg = quiet(12, 60);
        cfg.init_fraction = 1.5;
        assert!(matches!(
            try_run_swarm(cfg, 1).expect_err("bad fraction"),
            SwarmConfigError::InitFractionOutOfRange { .. }
        ));
        let mut cfg = quiet(12, 60);
        cfg.link_profiles = Vec::new();
        assert_eq!(
            try_run_swarm(cfg, 1).expect_err("no profiles"),
            SwarmConfigError::NoLinkProfiles
        );
        // A well-sized cell still runs through the checked path.
        assert!(try_run_swarm(quiet(12, 60), 1).is_ok());
    }

    #[test]
    fn runs_are_deterministic_and_seed_sensitive() {
        let cfg = quiet(20, 60).with_churn(ChurnConfig {
            leave_fraction: 0.3,
            downtime: 15,
            window: (3, 40),
            joins: 2,
            rewires: 2,
        });
        let a = run_swarm(cfg.clone(), 9);
        let b = run_swarm(cfg.clone(), 9);
        assert_eq!(a, b);
        let c = run_swarm(cfg, 10);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn churned_swarm_completes_with_all_event_kinds_applied() {
        let cfg = SwarmConfig::new(30, 70, TopologyKind::PowerLaw { m: 2 }).with_churn(
            ChurnConfig {
                leave_fraction: 0.25,
                downtime: 20,
                window: (3, 50),
                joins: 3,
                rewires: 3,
            },
        );
        let out = run_swarm(cfg, 4);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete(), "completed {}/{}", out.completed, out.peers);
        assert_eq!(out.peers, 33, "joins extend the roster");
        assert_eq!(out.joins, 3);
        assert_eq!(out.leaves, 7, "25% of 28 eligible");
        assert_eq!(out.rejoins, out.leaves, "every leaver returned");
        assert!(out.rewires >= 1);
    }

    #[test]
    fn advised_strategy_swarm_completes() {
        let cfg = quiet(16, 60).with_strategy(SwarmStrategy::Advised { recode: true });
        let out = run_swarm(cfg, 6);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete());
    }

    #[test]
    fn erdos_renyi_swarm_heals_disconnected_components() {
        // p far below the connectivity threshold: isolated incomplete
        // peers must be adopted by maintenance passes, not stall.
        let cfg = SwarmConfig::new(24, 60, TopologyKind::ErdosRenyi { p: 0.02 });
        let out = run_swarm(cfg, 8);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete());
        assert!(out.reconnects > 0, "healing must have re-attached peers");
    }

    #[test]
    fn overhead_stays_informed_under_churn() {
        // The paper's qualitative claim at swarm scale: informed
        // reconciliation keeps packets-per-needed-symbol near 1 even
        // while the roster churns.
        let cfg = SwarmConfig::new(32, 80, TopologyKind::PowerLaw { m: 2 }).with_churn(
            leaving(0.2, (5, 60), 25),
        );
        let out = run_swarm(cfg, 12);
        assert_eq!(out.stop, StopReason::Completed);
        // Concurrent uncoordinated senders duplicate some candidates
        // (the Figure 7 redundancy), but informed links stay far below
        // the oblivious coupon-collector regime (4–8× at this scale).
        assert!(out.overhead < 3.0, "churned overhead {}", out.overhead);
    }

    fn chaos() -> FaultConfig {
        FaultConfig {
            crashes: 2,
            downtime: 30,
            link_cuts: 3,
            stalls: 1,
            stall_ticks: 15,
            truncations: 3,
            rate_collapses: 1,
            slow_factor: 4,
            window: (5, 120),
        }
    }

    #[test]
    fn faulted_swarm_completes_and_books_the_damage() {
        // Latency keeps frames in flight, so cuts have something to
        // strand (a zero-latency link delivers within the sending tick
        // and can never waste a byte).
        let latency = Link {
            interval: 1,
            latency: 3,
            loss: 0.0,
        };
        let cfg = quiet(24, 70).with_link_profiles(vec![latency, Link::slower(2)]);
        let out = run_swarm(cfg.with_faults(chaos()), 3);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete(), "completed {}/{}", out.completed, out.peers);
        assert!(out.faults_applied > 0, "no fault ever landed");
        assert!(out.retries > 0, "faults must have forced redials");
        assert!(
            out.wasted_wire_bytes > 0,
            "cut links must strand in-flight bytes"
        );
        assert!(out.wasted_wire_bytes < out.wire_bytes, "waste is a fraction");
        // Membership counters stay clean: faults are not churn.
        assert_eq!(out.membership_events(), 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_quiet_plans_add_no_waste() {
        let cfg = quiet(20, 60).with_faults(chaos());
        let a = run_swarm(cfg.clone(), 9);
        let b = run_swarm(cfg, 9);
        assert_eq!(a, b);
        // The default config carries FaultConfig::none(): zero fault
        // counters and zero waste on loss-free links.
        let clean = run_swarm(quiet(20, 60), 9);
        assert_eq!(clean.faults_applied, 0);
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.unapplied_faults, 0);
        assert_eq!(clean.wasted_wire_bytes, 0);
    }

    #[test]
    fn faults_compose_with_churn() {
        let cfg = quiet(24, 60)
            .with_churn(leaving(0.2, (5, 60), 25))
            .with_faults(FaultConfig::link_cuts(4, (10, 80)));
        let out = run_swarm(cfg, 11);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.all_complete());
        assert!(out.leaves > 0 && out.faults_applied > 0);
    }
}
