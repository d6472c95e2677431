//! `OverlayNet`: the discrete-event multi-peer overlay engine.
//!
//! The paper's §6 evaluation needs more than pairwise loops: peers in an
//! adaptive overlay *concurrently* act as senders and receivers,
//! reconcile against several neighbors at once, and recode in parallel
//! downloads. This module is the one runtime all of that runs on. Every
//! simulated network is:
//!
//! * a set of **nodes**, each owning a working set (the receiver-side
//!   substitution machinery from [`crate::receiver::Receiver`]), a
//!   cached min-wise **calling card** (§4: a function of the working
//!   set, recomputed only when the set changes), and a completion
//!   target;
//! * a set of directed **links**, each owning an independent per-link
//!   sender pump (an `icd-core` [`StrategySender`] — the same §6.2
//!   sender the session machines frame — or a
//!   [`crate::strategy::FullSender`]) plus the link's rate, latency, and
//!   loss parameters;
//! * a **binary-heap queue of in-flight packets keyed by `(time, seq)`**
//!   — `seq` is a global monotone counter assigned at scheduling time, so
//!   two arrivals at the same tick replay in exactly the order they were
//!   scheduled — and a **timing-wheel send calendar**
//!   (`crate::calendar`) that yields each tick's due links in creation
//!   order. Runs are a pure function of their inputs at any thread
//!   count, which is what lets `ExperimentGrid` sweeps stay
//!   byte-identical.
//!
//! Time is discrete (the paper's tick model): a link with `interval = 1`
//! emits one packet per tick, latency-0 packets are delivered within the
//! sending tick (exactly the legacy loop semantics), and lossy links
//! drop packets i.i.d. from a per-link RNG stream. The four historical
//! transfer loops (`run_transfer`, `run_with_full_sender`,
//! `run_multi_partial`, `run_with_migration`) are thin topology presets
//! over this engine; the mesh and lossy presets below are scenarios the
//! old loops could not express.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use icd_core::strategy::{PacketScratch, StrategySender};
use icd_core::{select_summary, PolicyKnobs};
use icd_obs::{TraceEvent, TraceHandle};
use icd_sketch::{
    DiffEstimate, MinwiseSketch, PermutationFamily, SummaryId, SummaryRegistry, SummarySizing,
};
use icd_util::hash::mix64;
use icd_util::mem::vec_bytes;
use icd_util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};
use icd_wire::budget::PACKET_BYTES;
use icd_wire::framing::write_frame_buf;
use icd_wire::{
    encoded_symbol_frame_len, minwise_frame_len, recoded_symbol_frame_len, summary_frame_len,
    symbol_request_frame_len, Message,
};

use crate::calendar::SendCalendar;
use crate::handshake::{handshake_estimate, standard_family};
use crate::receiver::Receiver;
use crate::scenario::{MultiSenderScenario, ScenarioParams};
use crate::strategy::{FullSender, ReceiverHandshake, StrategyKind};
use crate::transfer::{default_max_ticks, TransferOutcome};
use crate::SymbolId;

/// Simulated time in ticks.
pub type Time = u64;

/// Identifies a node in an [`OverlayNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a (directed) link in an [`OverlayNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Per-link transmission parameters. The legacy loops are the all-default
/// case: one packet per tick, instant delivery, no loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Ticks between send opportunities (rate = `1/interval`); must be
    /// ≥ 1. Heterogeneous intervals model fast and slow peers.
    pub interval: Time,
    /// Ticks a packet spends in flight. Latency 0 delivers within the
    /// sending tick, exactly like the historical loops.
    pub latency: Time,
    /// I.i.d. packet-loss probability in `[0, 1)`, drawn from a per-link
    /// RNG stream (deterministic in the net seed and link index).
    pub loss: f64,
}

impl Default for Link {
    fn default() -> Self {
        Self {
            interval: 1,
            latency: 0,
            loss: 0.0,
        }
    }
}

impl Link {
    /// A link `factor` times slower than the default (one packet every
    /// `factor` ticks).
    #[must_use]
    pub fn slower(factor: Time) -> Self {
        Self {
            interval: factor.max(1),
            ..Self::default()
        }
    }

    /// A default-rate link with the given loss probability.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        Self {
            loss,
            ..Self::default()
        }
    }
}

/// Why [`OverlayNet::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every observer node reached its target.
    Completed,
    /// Nothing can ever happen again: all live links exhausted and no
    /// packets in flight (the legacy loops' `!any_packet` break).
    Stalled,
    /// The tick budget ran out.
    MaxTicks,
    /// Execution paused at `stop_before` — topology may be mutated and
    /// `run` called again (how migration event streams are driven).
    Paused,
}

/// Bounds for one [`OverlayNet::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    /// Last tick that may execute (inclusive). The engine never runs a
    /// tick numbered above this.
    pub max_ticks: Time,
    /// When set, return [`StopReason::Paused`] instead of starting any
    /// tick `>= stop_before`.
    pub stop_before: Option<Time>,
}

impl RunLimit {
    /// Run up to `max_ticks` with no pause point.
    #[must_use]
    pub fn ticks(max_ticks: Time) -> Self {
        Self {
            max_ticks,
            stop_before: None,
        }
    }
}

/// Per-link connection parameters for [`OverlayNet::connect`].
#[derive(Debug, Clone, Default)]
pub struct ConnectSpec {
    /// Seed for the link sender's private RNG stream.
    pub seed: u64,
    /// Symbols the receiver asks this link for (§6.1's request split);
    /// defaults to the destination node's current remaining count.
    pub request_hint: Option<usize>,
    /// Pre-built handshake to ship instead of deriving one from the
    /// destination node's current state (harnesses ablating the
    /// handshake itself use this).
    pub handshake: Option<ReceiverHandshake>,
    /// The *sender's* standing min-wise calling card (§4), overriding
    /// the engine's node-derived card — scenarios that cache cards
    /// across many transfers pass them through here.
    pub calling_card: Option<MinwiseSketch>,
}

impl ConnectSpec {
    /// A spec with only the sender seed set.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// An in-flight packet (latency > 0) on its way to a destination — the
/// only heap-resident event. Send opportunities are not materialized as
/// events: they recur on a fixed per-link cadence, so the engine
/// regenerates them from each link's `next_send` state (scanned in link
/// order, which *is* their `(time, seq)` order) instead of letting them
/// dominate the heap.
#[derive(Debug)]
struct Event {
    time: Time,
    seq: u64,
    link: LinkId,
    recoded: bool,
    ids: Vec<SymbolId>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Debug)]
struct NodeState {
    receiver: Receiver,
    /// Advertised inventory in insertion order: the set a link sender is
    /// built over. Snapshotted at construction and *refreshed on every
    /// (re)connect* — symbols gained since the last connection are
    /// appended (in sorted order) by [`OverlayNet::refresh_inventory`],
    /// closing §6.1's snapshot-at-connect gap for rejoining peers. It is
    /// still never updated mid-connection, exactly as §6.1 requires.
    inventory: Vec<SymbolId>,
    /// Distinct count `inventory` reflected when it was last refreshed;
    /// a cheap staleness check that keeps first connections free.
    advertised: usize,
    /// Cached §4 calling card of the *current* working set; invalidated
    /// whenever a delivery gains symbols.
    card: Option<MinwiseSketch>,
    /// Cached encoded digest bodies of the current working set, for the
    /// mechanisms whose build reads only the set and the sizing
    /// ([`estimate_free`]); invalidated with `card`.
    digests: Vec<(SummaryId, Vec<u8>)>,
    observer: bool,
    /// Upload-only node: `receiver` is an empty stub and the working
    /// set *is* `inventory` (skipping the known-set hash build, which
    /// would dominate short transfers).
    seeder: bool,
    start_distinct: usize,
    start_remaining: usize,
    /// Live links sourced at this node, in creation order.
    out_links: Vec<LinkId>,
    /// Live links terminating at this node, in creation order.
    in_links: Vec<LinkId>,
}

impl NodeState {
    fn new(receiver: Receiver, inventory: Vec<SymbolId>, seeder: bool) -> Self {
        let (start_distinct, start_remaining) = if seeder {
            (inventory.len(), 0)
        } else {
            (receiver.distinct_symbols(), receiver.remaining())
        };
        Self {
            receiver,
            advertised: start_distinct,
            inventory,
            card: None,
            digests: Vec::new(),
            observer: false,
            seeder,
            start_distinct,
            start_remaining,
            out_links: Vec::new(),
            in_links: Vec::new(),
        }
    }

    /// The node's current working set, unsorted — seeders read their
    /// static inventory, full peers their receiver's arrival list.
    fn working_ids(&self) -> &[SymbolId] {
        if self.seeder {
            &self.inventory
        } else {
            self.receiver.symbols_since(0)
        }
    }

    /// Drops everything derived from the working set after it grew.
    fn working_set_changed(&mut self) {
        self.card = None;
        self.digests.clear();
    }

    /// Heap bytes of the cached calling card and digest bodies.
    fn cache_bytes(&self) -> usize {
        let card = self.card.as_ref().map_or(0, |c| size_of_val(c.minima()));
        let bodies: usize = self.digests.iter().map(|(_, body)| vec_bytes(body)).sum();
        card + vec_bytes(&self.digests) + bodies
    }

    fn working_len(&self) -> usize {
        if self.seeder {
            self.inventory.len()
        } else {
            self.receiver.distinct_symbols()
        }
    }
}

/// A link's pump, statically dispatched: the send path is the engine's
/// hottest instruction stream, and static dispatch lets the strategy
/// senders inline into it.
#[derive(Debug)]
enum LinkSource {
    Strategy(StrategySender),
    Fountain(FullSender),
    /// A torn-down link: its pump was dropped at disconnect.
    Closed,
}

impl LinkSource {
    #[inline]
    fn emit(&mut self, scratch: &mut PacketScratch) -> bool {
        match self {
            LinkSource::Strategy(sender) => sender.emit(scratch),
            LinkSource::Fountain(fountain) => {
                fountain.emit(scratch);
                true
            }
            LinkSource::Closed => unreachable!("a torn-down link never sends"),
        }
    }
}

#[derive(Debug)]
struct LinkState {
    from: NodeId,
    to: NodeId,
    source: LinkSource,
    params: Link,
    loss_rng: Xoshiro256StarStar,
    /// Tick of this link's next send opportunity.
    next_send: Time,
    alive: bool,
    exhausted: bool,
    full: bool,
    packets_sent: u64,
    packets_lost: u64,
    packets_delivered: u64,
    /// Framed wire bytes booked at send time: the `write_frame_buf`
    /// length of the frame each sent symbol occupies on the wire (lost
    /// ones included, exactly like `packets_sent`).
    bytes_sent: u64,
    /// Framed wire bytes that arrived (excludes lost frames and frames
    /// dropped by a mid-flight teardown).
    bytes_delivered: u64,
    /// Wire-exact framed bytes of the connect-time handshake exchange.
    control_bytes: u64,
    summary: Option<SummaryId>,
}

/// Heap bytes an [`OverlayNet`] holds, by structure, computed from
/// capacities ([`OverlayNet::bytes_held`]): what each structure's
/// allocations reserve, without allocator headers or freed chunks the
/// allocator keeps. A swarm adds its roster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytesHeld {
    /// The link table: one record per link ever created, torn-down
    /// links included.
    pub links: usize,
    /// The node table and each node's live link lists.
    pub nodes: usize,
    /// Receivers' known sets and arrival lists.
    pub known_sets: usize,
    /// Receivers' substitution side: pending recoded symbols and their
    /// watcher index.
    pub substitution: usize,
    /// Nodes' advertised inventories.
    pub inventories: usize,
    /// Cached calling cards and digest bodies, and the sorted-key
    /// scratch digests are built from.
    pub caches: usize,
    /// Live links' senders: their id pools and boxed recoders.
    pub sender_pools: usize,
    /// The send calendar and the in-flight arrival heap.
    pub queues: usize,
    /// The swarm's roster and schedules (zero for a bare net).
    pub roster: usize,
}

impl BytesHeld {
    /// Each structure's bytes under a short label, in a fixed order.
    fn parts(&self) -> [(&'static str, usize); 9] {
        [
            ("links", self.links),
            ("nodes", self.nodes),
            ("known", self.known_sets),
            ("substitution", self.substitution),
            ("inventories", self.inventories),
            ("caches", self.caches),
            ("senders", self.sender_pools),
            ("queues", self.queues),
            ("roster", self.roster),
        ]
    }

    /// The sum over every structure.
    #[must_use]
    pub fn total(&self) -> usize {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

/// One line, MB (2^20 bytes) per structure and the total:
/// `links 12.3 MB, nodes 4.1 MB, …, total 55.0 MB`.
impl std::fmt::Display for BytesHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MB: f64 = (1 << 20) as f64;
        for (label, bytes) in self.parts() {
            write!(f, "{label} {:.1} MB, ", bytes as f64 / MB)?;
        }
        write!(f, "total {:.1} MB", self.total() as f64 / MB)
    }
}

/// Whether the `id` mechanism's digest build reads only the key set and
/// the sizing, never the per-peer [`DiffEstimate`] — so one encoded body
/// is the handshake of every sender a node reconciles with until its
/// set changes. The rateless IBLT sizes its prefix from the estimate
/// and is rebuilt per connection, as is any mechanism not listed here.
fn estimate_free(id: SummaryId) -> bool {
    [
        SummaryId::WHOLE_SET,
        SummaryId::HASH_SET,
        SummaryId::BLOOM,
        SummaryId::ART,
    ]
    .contains(&id)
}

/// Salt folded into per-link loss-RNG seeds so they never collide with
/// sender seeds.
const LOSS_SEED_SALT: u64 = 0x1055_1CD0;

/// Salts keying a session's receiver- and sender-side machine RNG
/// streams off the caller's link seed.
const SESSION_SEED_SALT: u64 = 0x5E55_10A1;
const SESSION_SENDER_SALT: u64 = 0x5E55_5E4D;

/// The `(receiver-config, sender)` machine seeds a session derives from
/// its link seed — the one derivation every session driver applies (the
/// `icd-node` daemon on both ends of a socket, its `predict` oracle, the
/// repo benchmark), so machines built for the same topology and seed
/// are byte-identical wherever they run. Frame *lengths* are a function
/// of the working sets and request alone, but frame *contents* (which
/// symbols stream, candidate shuffle order) follow these seeds.
#[must_use]
pub fn session_machine_seeds(seed: u64) -> (u64, u64) {
    (
        mix64(seed ^ SESSION_SEED_SALT),
        mix64(seed ^ SESSION_SENDER_SALT),
    )
}

/// Deterministic payload a symbol id expands to in a session: `len`
/// bytes of SplitMix64 keystream keyed by the id. Plans and engine
/// nodes track ids, not payloads; this function is the shared
/// convention that lets both endpoints of a session (and any test
/// re-deriving frames) agree on payload content without storing it
/// anywhere.
#[must_use]
pub fn session_payload(id: SymbolId, len: usize) -> Bytes {
    let mut rng = SplitMix64::new(mix64(id ^ 0x5EA1_0AD5));
    let mut buf = Vec::with_capacity(len.next_multiple_of(8));
    while buf.len() < len {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(len);
    Bytes::from(buf)
}

/// Wire-exact framed byte cost of a packet link's connect-time control
/// exchange, frame by frame as the §3 session ships it: the receiver's
/// min-wise calling card (sketch strategies), the sender's card in
/// reply, the receiver's tagged summary frame, and the symbol request.
fn control_plane_bytes(handshake: &ReceiverHandshake, sender_card: bool) -> u64 {
    // The reply card mirrors the receiver's sketch shape.
    let cards = handshake.sketch.as_ref().map_or(0, |sketch| {
        (1 + usize::from(sender_card)) * minwise_frame_len(sketch.minima().len())
    });
    let summary = handshake
        .summary
        .as_ref()
        .map_or(0, |(_, body)| summary_frame_len(body.len()));
    (cards + summary + symbol_request_frame_len()) as u64
}

/// Why [`OverlayNet::try_connect`] refused to create a link. All cases
/// are wiring mistakes a topology builder wants surfaced, not silently
/// absorbed: a self-loop moves nothing, a second live strategy link
/// over the same directed pair double-spends the handshake, and an
/// out-of-range node id is a stale handle (e.g. a membership layer
/// rewiring toward a peer that departed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// An endpoint id does not name a node in this net — typically a
    /// stale handle held across a membership change.
    UnknownNode {
        /// The offending endpoint.
        node: NodeId,
    },
    /// `from == to`: a link needs two distinct endpoints.
    SelfLoop {
        /// The node that was asked to connect to itself.
        node: NodeId,
    },
    /// A live strategy link `from → to` already exists. Disconnect it
    /// first (a reconnect *is* disconnect + connect — that is how
    /// handshakes and sender inventories refresh).
    DuplicateLink {
        /// Source of the existing live link.
        from: NodeId,
        /// Destination of the existing live link.
        to: NodeId,
    },
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::UnknownNode { node } => write!(
                f,
                "unknown node {}: no such node in this net (stale handle?)",
                node.0
            ),
            ConnectError::SelfLoop { node } => {
                write!(f, "self-loop: node {} cannot connect to itself", node.0)
            }
            ConnectError::DuplicateLink { from, to } => write!(
                f,
                "duplicate directed link {} -> {}: a live strategy link already \
                 connects this pair (disconnect it to re-handshake)",
                from.0, to.0
            ),
        }
    }
}

impl std::error::Error for ConnectError {}

/// The discrete-event overlay network runtime. See the module docs for
/// the model; see `run_transfer`/`run_with_migration` in
/// [`crate::transfer`]/[`crate::churn`] for the four legacy presets and
/// [`run_mesh_download`] for scenarios only this engine can run.
#[derive(Debug)]
pub struct OverlayNet {
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    queue: BinaryHeap<Reverse<Event>>,
    /// The send calendar: exactly one entry, due at `next_send`, per
    /// live, non-exhausted link. Draining it in `(time, index)` order
    /// reproduces the legacy "scan links in creation order" tick
    /// semantics without touching idle, exhausted, or dead links — the
    /// thousand-node fast path.
    send_queue: SendCalendar,
    seq: u64,
    now: Time,
    events_processed: u64,
    /// Observers registered (completion needs at least one).
    observer_count: usize,
    /// Observers still short of their target; completion is this
    /// reaching zero — O(1) per delivery instead of an O(nodes) scan.
    incomplete_observers: usize,
    scratch: PacketScratch,
    /// Sorted working set of the node whose digest is being built: one
    /// buffer for the net, refilled on each digest-cache miss.
    sorted_keys: Vec<SymbolId>,
    family: PermutationFamily,
    registry: &'static SummaryRegistry,
    sizing: SummarySizing,
    seed: u64,
    /// Observer invoked with every frame that takes a send slot, as the
    /// exact bytes `write_frame_buf` produces — the frame-parity seam.
    frame_tap: Option<FrameTap>,
    /// Deterministic structured trace recorder ([`OverlayNet::set_tracer`]).
    tracer: Option<TraceHandle>,
    /// Reusable encode buffer for tapped packet-link frames.
    tap_frame: Vec<u8>,
    /// Shared zeroed payload for tapped packet-link frames (lengths are
    /// budget-true; packet links do not track payload content).
    tap_payload: Bytes,
}

/// The boxed observer callback behind [`OverlayNet::set_frame_tap`].
type TapFn = Box<dyn FnMut(LinkId, &[u8])>;

/// Newtype so `OverlayNet` keeps its `Debug` derive around a closure.
struct FrameTap(TapFn);

impl std::fmt::Debug for FrameTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FrameTap")
    }
}

impl OverlayNet {
    /// Creates an empty network with the standard protocol constants
    /// (the `crate::handshake` sizing/family and the shared registry).
    /// `seed` keys the engine's own streams (per-link loss RNGs); link
    /// sender seeds come from each [`ConnectSpec`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            links: Vec::new(),
            queue: BinaryHeap::new(),
            send_queue: SendCalendar::new(),
            seq: 0,
            now: 0,
            events_processed: 0,
            observer_count: 0,
            incomplete_observers: 0,
            scratch: PacketScratch::default(),
            sorted_keys: Vec::new(),
            family: standard_family(),
            registry: icd_sketch::standard_registry(),
            sizing: SummarySizing::default(),
            seed,
            frame_tap: None,
            tracer: None,
            tap_frame: Vec::new(),
            tap_payload: Bytes::new(),
        }
    }

    /// Installs an observer called with `(link, frame)` for every frame
    /// that takes a send slot — the exact prefix+body bytes
    /// `write_frame_buf` produces, lost frames included (mirroring
    /// `bytes_sent`): each symbol is materialized as the frame it
    /// occupies on the wire (zeroed [`PACKET_BYTES`] payload,
    /// budget-true length). The send path pays nothing while no tap is
    /// installed.
    pub fn set_frame_tap<F: FnMut(LinkId, &[u8]) + 'static>(&mut self, tap: F) {
        self.tap_payload = Bytes::from(vec![0u8; PACKET_BYTES]);
        self.frame_tap = Some(FrameTap(Box::new(tap)));
    }

    /// Installs a deterministic trace recorder. Every record is stamped
    /// with the engine clock and a push-assigned sequence number only —
    /// never wall time — so the exported JSONL is a parity artifact:
    /// two runs of the same `(scenario, seed)` emit **byte-identical**
    /// traces at any thread count. The send path pays one `Option`
    /// check while no tracer is installed.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = Some(tracer);
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Adds a peer holding `inventory`, aiming for `target` distinct
    /// symbols. Pure seeders pass `target = inventory.len()` (already
    /// met); any node may later be both uploaded from and downloaded to.
    pub fn add_node(&mut self, inventory: &[SymbolId], target: usize) -> NodeId {
        let receiver = Receiver::new(inventory, target);
        let id = NodeId(self.nodes.len());
        self.nodes
            .push(NodeState::new(receiver, inventory.to_vec(), false));
        id
    }

    /// Adds an upload-only peer: it can source any number of links but
    /// must never be a link destination. Its working set is the static
    /// `inventory`; skipping the receiver-side hash build makes seeder
    /// setup O(1), which matters when a sweep constructs thousands of
    /// short-lived nets.
    pub fn add_seeder(&mut self, inventory: &[SymbolId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes
            .push(NodeState::new(Receiver::new(&[], 0), inventory.to_vec(), true));
        id
    }

    /// Marks `node` as an observer: [`OverlayNet::run`] returns
    /// [`StopReason::Completed`] once *all* observers reach their
    /// targets.
    pub fn set_observer(&mut self, node: NodeId, on: bool) {
        let state = &mut self.nodes[node.0];
        if state.observer == on {
            return;
        }
        state.observer = on;
        let incomplete = !state.receiver.is_complete();
        if on {
            self.observer_count += 1;
            self.incomplete_observers += usize::from(incomplete);
        } else {
            self.observer_count -= 1;
            self.incomplete_observers -= usize::from(incomplete);
        }
    }

    /// Connects `from → to` running `strategy`. The handshake (digest +
    /// sketch, per the strategy's needs) is derived from `to`'s
    /// *current* working set unless `spec` carries one; the sender pumps
    /// over `from`'s advertised inventory, refreshed at connect time
    /// (see `OverlayNet::refresh_inventory`).
    ///
    /// Panics on a wiring error ([`ConnectError`]); topology builders
    /// that want the error instead use [`OverlayNet::try_connect`].
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        strategy: StrategyKind,
        params: Link,
        spec: ConnectSpec,
    ) -> LinkId {
        self.try_connect(from, to, strategy, params, spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`OverlayNet::connect`] returning a descriptive [`ConnectError`]
    /// instead of panicking on self-loops and duplicate directed links —
    /// the form randomized topology builders drive.
    pub fn try_connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        strategy: StrategyKind,
        params: Link,
        spec: ConnectSpec,
    ) -> Result<LinkId, ConnectError> {
        // Stale-handle check first: everything below indexes the node
        // table, so an unknown id must be refused before any lookup.
        for node in [from, to] {
            if node.0 >= self.nodes.len() {
                return Err(ConnectError::UnknownNode { node });
            }
        }
        if from == to {
            return Err(ConnectError::SelfLoop { node: from });
        }
        if self.nodes[from.0].out_links.iter().any(|&l| {
            let link = &self.links[l.0];
            link.alive && link.to == to && matches!(link.source, LinkSource::Strategy(_))
        }) {
            return Err(ConnectError::DuplicateLink { from, to });
        }
        self.refresh_inventory(from);
        let hint = spec
            .request_hint
            .unwrap_or_else(|| self.nodes[to.0].receiver.remaining());
        let handshake = match spec.handshake {
            Some(h) => h,
            None => self.build_handshake(to, from, strategy),
        };
        let sender_card = match spec.calling_card {
            Some(card) => Some(card),
            None => strategy
                .needs_sketch()
                .then(|| self.calling_card(from).clone()),
        };
        let sender = handshake.sender(
            strategy,
            &self.nodes[from.0].inventory,
            sender_card.as_ref(),
            self.registry,
            spec.seed,
            hint,
        );
        if strategy.recodes() {
            // Only a recoding link ever buffers a recoded symbol at its
            // destination: size that side now, before the first packet.
            self.nodes[to.0].receiver.reserve_substitution();
        }
        let summary = handshake.summary.as_ref().map(|(id, _)| *id);
        let handshake_bytes = handshake.summary_bytes();
        let control_bytes = control_plane_bytes(&handshake, sender_card.is_some());
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().push(
                self.now,
                TraceEvent::SummaryExchanged {
                    from: from.0 as u64,
                    to: to.0 as u64,
                    summary: summary.map_or(0, |s| u64::from(s.0)),
                    handshake_bytes: handshake_bytes as u64,
                    control_bytes,
                },
            );
        }
        Ok(self.install_link(
            from,
            to,
            LinkSource::Strategy(sender),
            params,
            false,
            summary,
            control_bytes,
        ))
    }

    /// Refreshes `node`'s advertised inventory from its live working
    /// set: symbols gained since the last connection are appended in
    /// sorted order. Called automatically on every (re)connect — §6.1
    /// freezes inventories *during* a connection, not across them, so a
    /// rejoining peer advertises everything it picked up in between.
    /// Returns the number of symbols newly advertised.
    pub(crate) fn refresh_inventory(&mut self, node: NodeId) -> usize {
        let state = &mut self.nodes[node.0];
        if state.seeder {
            return 0; // static inventory is the working set
        }
        let distinct = state.receiver.distinct_symbols();
        if distinct <= state.advertised {
            return 0; // nothing gained since the last refresh
        }
        // `inventory` holds exactly the first `advertised` symbols the
        // receiver learned, so the gain is the arrival-order tail.
        let start = state.inventory.len();
        state
            .inventory
            .extend_from_slice(state.receiver.symbols_since(state.advertised));
        state.inventory[start..].sort_unstable();
        state.advertised = distinct;
        state.inventory.len() - start
    }

    /// Connects a digital-fountain full sender `from → to` (counts in
    /// the `packets_from_full` column). `stream` keeps multiple full
    /// senders' fresh-id namespaces disjoint.
    pub(crate) fn connect_full(
        &mut self,
        from: NodeId,
        to: NodeId,
        stream: u32,
        params: Link,
    ) -> LinkId {
        let source = LinkSource::Fountain(FullSender::new(stream));
        self.install_link(from, to, source, params, true, None, 0)
    }

    /// Tears a link down. Packets already in flight on it are dropped;
    /// its transmit counters keep contributing to the net totals.
    pub fn disconnect(&mut self, link: LinkId) {
        let state = &mut self.links[link.0];
        if !state.alive {
            return;
        }
        state.alive = false;
        if !state.exhausted {
            self.send_queue.remove(state.next_send, link.0 as u32);
        }
        // A dead link never sends again: release its pump (the sender's
        // inventory copy, candidates and recoder).
        state.source = LinkSource::Closed;
        let (from, to) = (state.from, state.to);
        self.nodes[from.0].out_links.retain(|&l| l != link);
        self.nodes[to.0].in_links.retain(|&l| l != link);
        if let Some(tracer) = &self.tracer {
            tracer
                .borrow_mut()
                .push(self.now, TraceEvent::LinkDown { link: link.0 as u64 });
        }
    }

    /// Tears down every live link touching `node` (both directions) —
    /// how a membership layer expresses a peer departure.
    pub fn disconnect_node(&mut self, node: NodeId) {
        while let Some(&l) = self.nodes[node.0].out_links.last() {
            self.disconnect(l);
        }
        while let Some(&l) = self.nodes[node.0].in_links.last() {
            self.disconnect(l);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn install_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        source: LinkSource,
        params: Link,
        full: bool,
        summary: Option<SummaryId>,
        control_bytes: u64,
    ) -> LinkId {
        assert!(params.interval >= 1, "link interval must be >= 1");
        assert!(
            (0.0..1.0).contains(&params.loss),
            "link loss must be in [0, 1)"
        );
        assert!(from.0 < self.nodes.len() && to.0 < self.nodes.len(), "unknown node");
        assert!(from != to, "a link needs two distinct nodes");
        assert!(
            !self.nodes[to.0].seeder,
            "seeder nodes are upload-only; add the destination with add_node"
        );
        let id = LinkId(self.links.len());
        let next_send = self.now + 1;
        self.links.push(LinkState {
            from,
            to,
            source,
            params,
            loss_rng: Xoshiro256StarStar::new(mix64(
                self.seed ^ LOSS_SEED_SALT ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            next_send,
            alive: true,
            exhausted: false,
            full,
            packets_sent: 0,
            packets_lost: 0,
            packets_delivered: 0,
            bytes_sent: 0,
            bytes_delivered: 0,
            control_bytes,
            summary,
        });
        self.nodes[from.0].out_links.push(id);
        self.nodes[to.0].in_links.push(id);
        self.send_queue.push(next_send, id.0 as u32);
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().push(
                self.now,
                TraceEvent::LinkUp {
                    link: id.0 as u64,
                    from: from.0 as u64,
                    to: to.0 as u64,
                },
            );
        }
        id
    }

    fn schedule_arrival(&mut self, time: Time, link: LinkId, recoded: bool, ids: Vec<SymbolId>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq,
            link,
            recoded,
            ids,
        }));
    }

    // ------------------------------------------------------------------
    // Handshakes and calling cards
    // ------------------------------------------------------------------

    /// The node's standing min-wise calling card (§4): computed from the
    /// current working set on first use, cached until the set changes.
    pub(crate) fn calling_card(&mut self, node: NodeId) -> &MinwiseSketch {
        let family = &self.family;
        let state = &mut self.nodes[node.0];
        if state.card.is_none() {
            // A min-wise sketch is order-free: no sorted copy needed.
            let card = MinwiseSketch::from_keys(family, state.working_ids().iter().copied());
            state.card = Some(card);
        }
        state.card.as_ref().expect("just populated")
    }

    /// Builds the handshake node `to` would send a candidate sender
    /// `from` for `strategy`: its digest (sized by the engine's sizing
    /// and the inclusion–exclusion estimate over current set sizes) and,
    /// for sketch strategies, its cached calling card.
    fn build_handshake(
        &mut self,
        to: NodeId,
        from: NodeId,
        strategy: StrategyKind,
    ) -> ReceiverHandshake {
        let estimate = handshake_estimate(
            self.nodes[to.0].working_len(),
            self.nodes[from.0].inventory.len(),
            self.nodes[to.0].receiver.remaining(),
        );
        let summary = strategy
            .summary_id()
            .map(|id| (id, self.digest_body(to, id, &estimate)));
        let sketch = strategy
            .needs_sketch()
            .then(|| self.calling_card(to).clone());
        ReceiverHandshake { summary, sketch }
    }

    /// The encoded `id` digest of `node`'s current working set, sized by
    /// the engine's sizing and `estimate`. Bodies of [`estimate_free`]
    /// mechanisms are cached until the set changes: one body serves
    /// every sender the node handshakes with meanwhile.
    fn digest_body(&mut self, node: NodeId, id: SummaryId, estimate: &DiffEstimate) -> Vec<u8> {
        let cacheable = estimate_free(id);
        let state = &mut self.nodes[node.0];
        if let Some((_, body)) = state.digests.iter().find(|(cached, _)| *cached == id) {
            return body.clone();
        }
        self.sorted_keys.clear();
        self.sorted_keys.extend_from_slice(state.working_ids());
        self.sorted_keys.sort_unstable();
        let body = self
            .registry
            .build(id, &self.sizing, estimate, &self.sorted_keys)
            .expect("strategy mechanism must be registered")
            .encode_body();
        if cacheable {
            state.digests.push((id, body.clone()));
        }
        body
    }

    /// Scores every registered summary mechanism for the `from → to`
    /// link from the two nodes' calling cards — the session policy's
    /// [`select_summary`] at the default knobs — and returns the informed
    /// strategy it picks (or the sketch-only fallback when no mechanism
    /// clears the recall floor). `recode` selects the Recode/summary
    /// family over Random/summary.
    pub fn advised_strategy(&mut self, from: NodeId, to: NodeId, recode: bool) -> StrategyKind {
        let to_card = self.calling_card(to).clone();
        // A = the downloading node, B = the candidate sender (§4 roles).
        let overlap = to_card.estimate(self.calling_card(from));
        match select_summary(&overlap, &PolicyKnobs::default(), &self.sizing, self.registry) {
            Some(id) if recode => StrategyKind::RecodeSummary(id),
            Some(id) => StrategyKind::RandomSummary(id),
            None if recode => StrategyKind::RecodeMinwise,
            None => StrategyKind::Random,
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// The earliest tick at which anything can happen: the minimum over
    /// the send calendar and the head of the in-flight packet queue.
    /// `None` means the net is permanently quiescent.
    fn next_tick(&self) -> Option<Time> {
        let send = self.send_queue.next_due();
        let arrival = self.queue.peek().map(|Reverse(event)| event.time);
        match (send, arrival) {
            (Some(s), Some(a)) => Some(s.min(a)),
            (s, a) => s.or(a),
        }
    }

    /// Runs the event loop until completion, stall, pause, or the tick
    /// budget. May be called repeatedly; topology mutations between
    /// calls model migration/churn event streams.
    ///
    /// Within a tick, in-flight arrivals land first (in `(time, seq)`
    /// order), then links take their send opportunities in link order —
    /// the calendar pops due links by `(time, link index)`, which is
    /// exactly the order the legacy per-tick link scan visited them.
    ///
    /// A [`StopReason::Completed`] return can come in the middle of a
    /// tick, with links still due at [`OverlayNet::now`]. A later call
    /// (say, after another observer is registered) first finishes that
    /// interrupted tick, then moves on.
    pub fn run(&mut self, limit: RunLimit) -> StopReason {
        if self.observers_complete() {
            return StopReason::Completed;
        }
        loop {
            let Some(t) = self.next_tick() else {
                // Nothing can ever happen again. If no tick has run at
                // all (an empty roster), the legacy loops still counted
                // the tick in which they discovered nothing could be
                // sent.
                if self.now == 0 {
                    self.now = 1;
                }
                return StopReason::Stalled;
            };
            // `t == now` only when resuming a tick a Completed return
            // interrupted.
            debug_assert!(t >= self.now, "cadence/queue must not run backwards");
            if let Some(stop) = limit.stop_before {
                if t >= stop {
                    return StopReason::Paused;
                }
            }
            if t > limit.max_ticks {
                self.now = limit.max_ticks.max(self.now);
                return StopReason::MaxTicks;
            }
            self.now = t;
            // Arrivals scheduled for this tick land before any sends.
            while let Some(Reverse(head)) = self.queue.peek() {
                if head.time > t {
                    break;
                }
                let Reverse(event) = self.queue.pop().expect("peeked");
                self.events_processed += 1;
                if let Some(reason) = self.process_arrival(event.link, event.recoded, event.ids) {
                    return reason;
                }
            }
            // Send opportunities in link-creation order: the calendar
            // yields the links due at t by index.
            while let Some(i) = self.send_queue.pop_due(t) {
                debug_assert!(self.links[i as usize].alive && !self.links[i as usize].exhausted);
                self.events_processed += 1;
                if let Some(reason) = self.process_send(LinkId(i as usize)) {
                    return reason;
                }
            }
        }
    }

    fn process_send(&mut self, l: LinkId) -> Option<StopReason> {
        let scratch = &mut self.scratch;
        let link = &mut self.links[l.0];
        if !link.source.emit(scratch) {
            link.exhausted = true;
            return None; // its calendar entry was just popped; none re-added
        }
        link.packets_sent += 1;
        // Book the framed wire length this symbol occupies: the exact
        // `write_frame_buf` output for the corresponding message.
        let frame_len = if scratch.is_recoded() {
            recoded_symbol_frame_len(scratch.ids().len(), PACKET_BYTES)
        } else {
            encoded_symbol_frame_len(PACKET_BYTES)
        } as u64;
        link.bytes_sent += frame_len;
        link.next_send = self.now + link.params.interval;
        let next_send = link.next_send;
        let latency = link.params.latency;
        let lost = link.params.loss > 0.0 && {
            let draw = (link.loss_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            draw < link.params.loss
        };
        if lost {
            link.packets_lost += 1;
        }
        // Re-book the send cadence before delivery so an early Completed
        // return leaves the calendar consistent for resumed runs.
        self.send_queue.push(next_send, l.0 as u32);
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().push(
                self.now,
                TraceEvent::LinkSend {
                    link: l.0 as u64,
                    recoded: self.scratch.is_recoded(),
                    lost,
                    components: self.scratch.ids().len() as u64,
                    frame_len,
                },
            );
        }
        if self.frame_tap.is_some() {
            self.tap_scratch_frame(l, frame_len);
        }
        if lost {
            return None;
        }
        if latency == 0 {
            self.deliver_scratch(l, frame_len)
        } else {
            let arrival_time = self.now + latency;
            let ids = self.scratch.ids().to_vec();
            let recoded = self.scratch.is_recoded();
            self.schedule_arrival(arrival_time, l, recoded, ids);
            None
        }
    }

    /// Materializes the packet in `self.scratch` as the wire frame it
    /// occupies and hands it to the installed tap. Off the fast path:
    /// only called when a tap is installed.
    fn tap_scratch_frame(&mut self, l: LinkId, frame_len: u64) {
        let msg = if self.scratch.is_recoded() {
            Message::RecodedSymbol {
                components: self.scratch.ids().to_vec(),
                payload: self.tap_payload.clone(),
            }
        } else {
            Message::EncodedSymbol {
                id: self.scratch.ids()[0],
                payload: self.tap_payload.clone(),
            }
        };
        write_frame_buf(&mut std::io::sink(), &msg, &mut self.tap_frame)
            .expect("sink write cannot fail");
        debug_assert_eq!(self.tap_frame.len() as u64, frame_len, "budget must be wire-exact");
        if let Some(tap) = self.frame_tap.as_mut() {
            (tap.0)(l, &self.tap_frame);
        }
    }

    /// Delivers the packet currently in `self.scratch` over link `l`.
    fn deliver_scratch(&mut self, l: LinkId, frame_len: u64) -> Option<StopReason> {
        let link = &mut self.links[l.0];
        link.packets_delivered += 1;
        link.bytes_delivered += frame_len;
        let to = link.to;
        let node = &mut self.nodes[to.0];
        debug_assert!(!node.seeder, "seeder nodes cannot be link destinations");
        let was_complete = node.receiver.is_complete();
        let gained = node.receiver.receive(self.scratch.ids());
        if gained > 0 {
            node.working_set_changed();
        }
        self.completion_after_delivery(to, was_complete)
    }

    fn process_arrival(&mut self, l: LinkId, recoded: bool, ids: Vec<SymbolId>) -> Option<StopReason> {
        let frame_len = if recoded {
            recoded_symbol_frame_len(ids.len(), PACKET_BYTES)
        } else {
            encoded_symbol_frame_len(PACKET_BYTES)
        } as u64;
        let link = &mut self.links[l.0];
        if !link.alive {
            return None; // torn down mid-flight: the packet is gone
        }
        link.packets_delivered += 1;
        link.bytes_delivered += frame_len;
        let to = link.to;
        let node = &mut self.nodes[to.0];
        let was_complete = node.receiver.is_complete();
        let gained = node.receiver.receive(&ids);
        if gained > 0 {
            node.working_set_changed();
        }
        self.completion_after_delivery(to, was_complete)
    }

    /// O(1) completion bookkeeping: a delivery can only finish the net
    /// by completing a previously-incomplete observer, so the counter
    /// moves exactly on that transition.
    fn completion_after_delivery(&mut self, to: NodeId, was_complete: bool) -> Option<StopReason> {
        let node = &self.nodes[to.0];
        if node.observer && !was_complete && node.receiver.is_complete() {
            self.incomplete_observers -= 1;
            if self.observers_complete() {
                return Some(StopReason::Completed);
            }
        }
        None
    }

    fn observers_complete(&self) -> bool {
        self.observer_count > 0 && self.incomplete_observers == 0
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The current tick (the number of ticks that have executed).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed so far (the `net_events_per_s` metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Distinct symbols node `n` currently holds.
    #[must_use]
    pub fn node_distinct(&self, n: NodeId) -> usize {
        self.nodes[n.0].receiver.distinct_symbols()
    }

    /// Distinct symbols node `n` still needs.
    #[must_use]
    pub fn node_remaining(&self, n: NodeId) -> usize {
        self.nodes[n.0].receiver.remaining()
    }

    /// Whether node `n` reached its target.
    #[must_use]
    pub fn node_complete(&self, n: NodeId) -> bool {
        self.nodes[n.0].receiver.is_complete()
    }

    /// Distinct symbols node `n` gained since it was added.
    #[must_use]
    pub(crate) fn node_gained(&self, n: NodeId) -> usize {
        self.nodes[n.0].receiver.distinct_symbols() - self.nodes[n.0].start_distinct
    }

    /// Packets emitted by partial (non-full) links, dead links included.
    #[must_use]
    pub fn packets_from_partial(&self) -> u64 {
        self.links.iter().filter(|l| !l.full).map(|l| l.packets_sent).sum()
    }

    /// Packets emitted by full-sender links.
    #[must_use]
    pub fn packets_from_full(&self) -> u64 {
        self.links.iter().filter(|l| l.full).map(|l| l.packets_sent).sum()
    }

    /// The summary mechanism link `l`'s handshake shipped (None for
    /// uninformed/full links).
    #[must_use]
    pub(crate) fn link_summary(&self, l: LinkId) -> Option<SummaryId> {
        self.links[l.0].summary
    }

    /// `(sent, delivered, lost)` counters for link `l`.
    #[must_use]
    pub fn link_packets(&self, l: LinkId) -> (u64, u64, u64) {
        let link = &self.links[l.0];
        (link.packets_sent, link.packets_delivered, link.packets_lost)
    }

    /// `(sent, delivered)` framed wire bytes for link `l` — the exact
    /// `write_frame_buf` lengths of the frames that took send slots and
    /// of those that arrived (lost frames are booked as sent, never as
    /// delivered; connect-time handshakes live in
    /// `OverlayNet::link_control_bytes`).
    #[must_use]
    pub fn link_wire_bytes(&self, l: LinkId) -> (u64, u64) {
        let link = &self.links[l.0];
        (link.bytes_sent, link.bytes_delivered)
    }

    /// Wire-exact framed bytes of link `l`'s connect-time control
    /// exchange (zero for full links).
    #[must_use]
    pub(crate) fn link_control_bytes(&self, l: LinkId) -> u64 {
        self.links[l.0].control_bytes
    }

    /// Net-wide framed wire bytes booked at send time, dead links
    /// included, connect-time control exchanges excluded (sum those via
    /// [`Self::control_wire_bytes`]).
    #[must_use]
    pub fn wire_bytes_sent(&self) -> u64 {
        self.links.iter().map(|l| l.bytes_sent).sum()
    }

    /// Net-wide framed control-exchange bytes (packet links' handshakes).
    #[must_use]
    pub fn control_wire_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.control_bytes).sum()
    }

    /// Net-wide framed bytes sent but never delivered: frames dropped by
    /// lossy links plus frames in flight when their link was cut. This
    /// is the failure plane's waste metric — on a fault-free, loss-free
    /// run it is exactly zero, which the parity goldens rely on.
    #[must_use]
    pub fn wasted_wire_bytes(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.bytes_sent - l.bytes_delivered)
            .sum()
    }

    /// Whether link `l`'s source has exhausted.
    #[must_use]
    pub fn link_exhausted(&self, l: LinkId) -> bool {
        self.links[l.0].exhausted
    }

    /// Link `l`'s `(source, destination)` nodes.
    #[must_use]
    pub fn link_ends(&self, l: LinkId) -> (NodeId, NodeId) {
        let link = &self.links[l.0];
        (link.from, link.to)
    }

    /// Live links terminating at `n`, in creation order.
    #[must_use]
    pub fn node_in_links(&self, n: NodeId) -> &[LinkId] {
        &self.nodes[n.0].in_links
    }

    /// What this net holds on the heap, by structure, computed from
    /// capacities: see [`BytesHeld`]. One pass over nodes and links.
    #[must_use]
    pub fn bytes_held(&self) -> BytesHeld {
        let mut held = BytesHeld {
            links: vec_bytes(&self.links),
            nodes: vec_bytes(&self.nodes),
            caches: vec_bytes(&self.sorted_keys),
            queues: self.send_queue.heap_bytes()
                + self.queue.capacity() * size_of::<Reverse<Event>>(),
            ..BytesHeld::default()
        };
        for node in &self.nodes {
            held.nodes += vec_bytes(&node.out_links) + vec_bytes(&node.in_links);
            held.known_sets += node.receiver.known_bytes();
            held.substitution += node.receiver.substitution_bytes();
            held.inventories += vec_bytes(&node.inventory);
            held.caches += node.cache_bytes();
        }
        for link in &self.links {
            if let LinkSource::Strategy(sender) = &link.source {
                held.sender_pools += sender.heap_bytes();
            }
        }
        held.queues += self
            .queue
            .iter()
            .map(|Reverse(event)| vec_bytes(&event.ids))
            .sum::<usize>();
        held
    }

    /// The legacy-shaped outcome for one node: net-wide packet totals,
    /// the node's gain/need/completion, and the engine clock as `ticks`.
    #[must_use]
    pub fn outcome_for(&self, node: NodeId) -> TransferOutcome {
        let n = &self.nodes[node.0];
        TransferOutcome {
            ticks: self.now,
            packets_from_partial: self.packets_from_partial(),
            packets_from_full: self.packets_from_full(),
            gained: n.receiver.distinct_symbols() - n.start_distinct,
            needed: n.start_remaining,
            completed: n.receiver.is_complete(),
        }
    }
}

// ----------------------------------------------------------------------
// Engine-only presets: scenarios the four legacy loops could not run.
// ----------------------------------------------------------------------

/// Outcome of a [`run_mesh_download`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeshOutcome {
    /// The downloading peer's transfer outcome (packet totals are
    /// net-wide; `gained`/`needed`/`completed` are the receiver's).
    pub transfer: TransferOutcome,
    /// Summary mechanism each receiver-facing link's advisors chose, in
    /// neighbor order.
    pub summaries: Vec<SummaryId>,
    /// Packets dropped by the receiver-facing links (consistent with
    /// `transfer.packets_from_partial`; ring-link drops are not
    /// counted here).
    pub packets_lost: u64,
    /// Symbols the seeders picked up from each other concurrently (the
    /// background ring reconciliation).
    pub seeder_gained: usize,
    /// True framed wire bytes of the receiver's download: the data-plane
    /// bytes sent on the receiver-facing links plus their wire-exact
    /// connect-time control exchanges. Consistent with
    /// `transfer.packets_from_partial` (send-time booking, ring links
    /// excluded).
    pub wire_bytes: u64,
    /// Framed bytes the receiver-facing links sent that never arrived —
    /// loss- or cut-induced waste. Zero on loss-free, fault-free runs.
    pub wasted_wire_bytes: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Mesh parallel download: a receiver reconciles with `k` neighbors
/// *concurrently*, each link's summary mechanism chosen per link by the
/// registry cost advisors from the two endpoints' calling cards, while
/// the seeders simultaneously reconcile among themselves over a
/// background ring — every seeder is uploading on one link and
/// downloading (and, with `recode`, recoding) on another at the same
/// time. `profiles` assigns heterogeneous rate/latency/loss per
/// receiver-facing link, cycled when shorter than `k`.
///
/// Geometry is the §6.3 multi-sender construction; `recode` selects the
/// Recode/summary strategy family over Random/summary.
#[must_use]
pub fn run_mesh_download(
    params: &ScenarioParams,
    k: usize,
    correlation: f64,
    profiles: &[Link],
    recode: bool,
    seed: u64,
) -> MeshOutcome {
    run_mesh_download_with(params, k, correlation, profiles, recode, seed, |_| {})
}

/// [`run_mesh_download`] with an observability hook: `setup` runs on the
/// freshly built engine before any links are connected, so a tracer
/// installed there sees the connect-time control-plane events
/// (`summary_exchanged`, `link_up`) as well as the data plane.
#[must_use]
pub fn run_mesh_download_with(
    params: &ScenarioParams,
    k: usize,
    correlation: f64,
    profiles: &[Link],
    recode: bool,
    seed: u64,
    setup: impl FnOnce(&mut OverlayNet),
) -> MeshOutcome {
    assert!(k >= 1, "need at least one neighbor");
    assert!(!profiles.is_empty(), "need at least one link profile");
    let scenario = MultiSenderScenario::build(params, k, correlation);
    let mut seeds = SplitMix64::new(seed);
    let mut net = OverlayNet::new(seed);
    setup(&mut net);
    let receiver = net.add_node(&scenario.receiver_set, scenario.target);
    net.set_observer(receiver, true);
    let seeders: Vec<NodeId> = scenario
        .sender_sets
        .iter()
        .map(|set| net.add_node(set, scenario.target))
        .collect();
    let per_sender = scenario.needed().div_ceil(k);
    let mut links = Vec::with_capacity(k);
    let mut summaries = Vec::with_capacity(k);
    for (i, &s) in seeders.iter().enumerate() {
        let strategy = net.advised_strategy(s, receiver, recode);
        let link = net.connect(
            s,
            receiver,
            strategy,
            profiles[i % profiles.len()],
            ConnectSpec {
                seed: seeds.next_u64(),
                request_hint: Some(per_sender),
                handshake: None,
                calling_card: None,
            },
        );
        summaries.push(net.link_summary(link).unwrap_or(SummaryId::NONE));
        links.push(link);
    }
    // Background ring: seeder i also downloads from seeder i+1 while
    // uploading to the receiver — the multi-role behaviour §2 claims.
    if k >= 2 {
        for i in 0..k {
            let from = seeders[(i + 1) % k];
            let to = seeders[i];
            let strategy = net.advised_strategy(from, to, recode);
            net.connect(
                from,
                to,
                strategy,
                profiles[i % profiles.len()],
                ConnectSpec {
                    seed: seeds.next_u64(),
                    request_hint: Some(per_sender),
                    handshake: None,
                    calling_card: None,
                },
            );
        }
    }
    // Loss inflates the packet budget; latency delays it. Scale the cap
    // by the worst link so lossy meshes still have the 50× headroom.
    let worst_loss = profiles.iter().fold(0.0f64, |acc, p| acc.max(p.loss));
    let worst_interval = profiles.iter().map(|p| p.interval).max().unwrap_or(1);
    let budget = (default_max_ticks(scenario.target) as f64 / (1.0 - worst_loss)).ceil() as u64
        * worst_interval;
    let stop = net.run(RunLimit::ticks(budget));
    let seeder_gained = seeders.iter().map(|&s| net.node_gained(s)).sum();
    // The receiver's overhead and loss count its own download links;
    // the ring links are the seeders' concurrent business, reported
    // separately via `seeder_gained`.
    let mut transfer = net.outcome_for(receiver);
    transfer.packets_from_partial = links.iter().map(|&l| net.link_packets(l).0).sum();
    let packets_lost = links.iter().map(|&l| net.link_packets(l).2).sum();
    let wire_bytes = links
        .iter()
        .map(|&l| net.link_wire_bytes(l).0 + net.link_control_bytes(l))
        .sum();
    let wasted_wire_bytes = links
        .iter()
        .map(|&l| {
            let (sent, delivered) = net.link_wire_bytes(l);
            sent - delivered
        })
        .sum();
    MeshOutcome {
        transfer,
        summaries,
        packets_lost,
        seeder_gained,
        wire_bytes,
        wasted_wire_bytes,
        events: net.events_processed(),
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TwoPeerScenario;
    use icd_sketch::SummaryId;

    fn compact(n: usize) -> ScenarioParams {
        ScenarioParams::compact(n, 0xBEEF)
    }

    #[test]
    fn empty_net_stalls_in_one_tick() {
        let mut net = OverlayNet::new(1);
        let r = net.add_node(&[1, 2], 5);
        net.set_observer(r, true);
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Stalled);
        assert_eq!(net.now(), 1);
    }

    #[test]
    fn already_complete_observer_returns_immediately() {
        let mut net = OverlayNet::new(1);
        let r = net.add_node(&[1, 2], 2);
        net.set_observer(r, true);
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Completed);
        assert_eq!(net.now(), 0);
    }

    #[test]
    fn latency_delays_delivery() {
        // A full sender over a latency-3 link: first delivery lands at
        // tick 4, so completion of a 2-symbol target happens at tick 5.
        let mut net = OverlayNet::new(2);
        let r = net.add_node(&[], 2);
        net.set_observer(r, true);
        let s = net.add_node(&[10], 1);
        net.connect_full(
            s,
            r,
            0,
            Link {
                latency: 3,
                ..Link::default()
            },
        );
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Completed);
        assert_eq!(net.now(), 5);
        assert_eq!(net.node_distinct(r), 2);
    }

    #[test]
    fn interval_throttles_rate() {
        // One packet every 3 ticks: 4 distinct symbols take 10 ticks
        // (sends at 1, 4, 7, 10).
        let mut net = OverlayNet::new(3);
        let r = net.add_node(&[], 4);
        net.set_observer(r, true);
        let s = net.add_node(&[10], 1);
        net.connect_full(s, r, 0, Link::slower(3));
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Completed);
        assert_eq!(net.now(), 10);
    }

    #[test]
    fn loss_drops_a_predictable_fraction() {
        let mut net = OverlayNet::new(4);
        let r = net.add_node(&[], 20_000); // unreachable within the run
        let s = net.add_node(&[10], 1);
        let l = net.connect_full(s, r, 0, Link::lossy(0.3));
        let _ = net.run(RunLimit::ticks(10_000));
        let (sent, delivered, lost) = net.link_packets(l);
        assert_eq!(sent, 10_000);
        assert_eq!(delivered + lost, sent);
        let rate = lost as f64 / sent as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    /// Two peers over one lossy, possibly slow/laggy link: the §2
    /// robustness argument. Recoded streams ride through loss with
    /// overhead ≈ 1/(1−p); a one-shot candidate list loses withheld
    /// symbols forever.
    fn lossy_transfer(
        scenario: &TwoPeerScenario,
        strategy: StrategyKind,
        link: Link,
        seed: u64,
    ) -> TransferOutcome {
        let mut net = OverlayNet::new(seed);
        let receiver = net.add_node(&scenario.receiver_set, scenario.target);
        net.set_observer(receiver, true);
        let sender = net.add_seeder(&scenario.sender_set);
        let spec = ConnectSpec::seeded(SplitMix64::new(seed).next_u64());
        net.connect(sender, receiver, strategy, link, spec);
        let budget = (default_max_ticks(scenario.target) as f64 / (1.0 - link.loss)).ceil() as u64
            * link.interval.max(1)
            + link.latency;
        net.run(RunLimit::ticks(budget));
        net.outcome_for(receiver)
    }

    #[test]
    fn deterministic_replay_under_loss_and_latency() {
        let params = compact(1200);
        let scenario = TwoPeerScenario::build(&params, 0.2);
        let link = Link {
            interval: 2,
            latency: 5,
            loss: 0.1,
        };
        let a = lossy_transfer(&scenario, StrategyKind::Recode, link, 7);
        let b = lossy_transfer(&scenario, StrategyKind::Recode, link, 7);
        assert_eq!(a, b);
        let c = lossy_transfer(&scenario, StrategyKind::Recode, link, 8);
        assert_ne!(a.packets_from_partial, c.packets_from_partial);
    }

    #[test]
    fn recode_survives_loss_where_one_shot_candidates_cannot() {
        let params = compact(1500);
        let scenario = TwoPeerScenario::build(&params, 0.2);
        let link = Link::lossy(0.2);
        let recode = lossy_transfer(
            &scenario,
            StrategyKind::RecodeSummary(SummaryId::BLOOM),
            link,
            5,
        );
        assert!(recode.completed, "recoded stream must ride through loss");
        // Overhead pays the 1/(1−p) loss tax plus the substitution
        // chains that lost symbols break, but stays bounded.
        assert!(
            recode.overhead() < 1.5 / (1.0 - link.loss),
            "overhead {}",
            recode.overhead()
        );
        // The one-shot candidate list loses withheld symbols forever.
        let one_shot = lossy_transfer(
            &scenario,
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            link,
            5,
        );
        assert!(!one_shot.completed, "lost candidates cannot be recovered");
    }

    #[test]
    fn mesh_download_completes_and_chooses_summaries_per_link() {
        let params = compact(3000);
        let out = run_mesh_download(&params, 4, 0.2, &[Link::default()], false, 11);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.transfer.completed);
        assert_eq!(out.summaries.len(), 4);
        for id in &out.summaries {
            assert_ne!(*id, SummaryId::NONE, "advisors must pick a mechanism");
        }
        // Concurrent background reconciliation moved something between
        // the seeders while the download ran.
        assert!(out.seeder_gained > 0, "ring links moved nothing");
        // k equal-rate informed senders ≈ k× a lone full sender.
        assert!(out.transfer.speedup() > 2.5, "speedup {}", out.transfer.speedup());
    }

    #[test]
    fn mesh_download_on_heterogeneous_lossy_links() {
        let params = compact(2500);
        let profiles = [
            Link::default(),
            Link {
                interval: 2,
                latency: 4,
                loss: 0.05,
            },
            Link::lossy(0.15),
        ];
        let out = run_mesh_download(&params, 3, 0.2, &profiles, true, 13);
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.packets_lost > 0, "lossy links must drop packets");
        // Fast links oversend while the receiver waits on slow/lossy
        // ones, so the recoded mesh pays real overhead — but it stays
        // far below the oblivious coupon-collector regime (≈ 4–8×).
        assert!(out.transfer.overhead() < 3.0, "overhead {}", out.transfer.overhead());
        // Parallel informed download still beats a lone full sender.
        assert!(out.transfer.speedup() > 1.0, "speedup {}", out.transfer.speedup());
    }

    #[test]
    fn advisors_pick_bloom_for_large_differences_per_link() {
        // Disjoint working sets → large difference → Bloom's wire
        // footprint wins, exactly like the session policy.
        let mut net = OverlayNet::new(9);
        let a: Vec<SymbolId> = (0..1000u64).map(|i| i * 3 + 1).collect();
        let b: Vec<SymbolId> = (10_000..11_000u64).map(|i| i * 3 + 1).collect();
        let na = net.add_node(&a, a.len() * 2);
        let nb = net.add_node(&b, b.len());
        let strategy = net.advised_strategy(nb, na, false);
        assert_eq!(strategy, StrategyKind::RandomSummary(SummaryId::BLOOM));
    }

    #[test]
    fn paused_runs_resume_and_allow_rewiring() {
        let params = compact(1000);
        let scenario = TwoPeerScenario::build(&params, 0.1);
        let mut net = OverlayNet::new(21);
        let r = net.add_node(&scenario.receiver_set, scenario.target);
        net.set_observer(r, true);
        let s = net.add_node(&scenario.sender_set, scenario.sender_set.len());
        let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
        let l1 = net.connect(s, r, strategy, Link::default(), ConnectSpec::seeded(1));
        let reason = net.run(RunLimit {
            max_ticks: u64::MAX >> 1,
            stop_before: Some(50),
        });
        assert_eq!(reason, StopReason::Paused);
        assert_eq!(net.now(), 49);
        // Rewire: tear the link down mid-transfer and reconnect fresh —
        // a migration step. The transfer then completes.
        net.disconnect(l1);
        net.connect(s, r, strategy, Link::default(), ConnectSpec::seeded(2));
        let reason = net.run(RunLimit::ticks(u64::MAX >> 1));
        assert_eq!(reason, StopReason::Completed);
        assert!(net.outcome_for(r).completed);
    }

    #[test]
    fn run_resumed_after_a_mid_tick_completion_finishes_that_tick() {
        // Observer `a` completes on link 0's first send, so the run
        // returns at tick 1 with link 1 (to `b`) still due at tick 1.
        let mut net = OverlayNet::new(6);
        let s = net.add_seeder(&[10]);
        let a = net.add_node(&[], 1);
        let b = net.add_node(&[], 3);
        net.set_observer(a, true);
        net.connect_full(s, a, 0, Link::default());
        let to_b = net.connect_full(s, b, 1, Link::default());
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Completed);
        assert_eq!(net.now(), 1);
        assert_eq!(net.link_packets(to_b).0, 0, "b's tick-1 send is still due");
        // Resuming sends b's tick-1 packet first: b completes at tick 3.
        net.set_observer(b, true);
        assert_eq!(net.run(RunLimit::ticks(100)), StopReason::Completed);
        assert_eq!(net.now(), 3);
        assert_eq!(net.link_packets(to_b).0, 3);
    }

    #[test]
    fn disconnect_cancels_the_booked_send_and_drops_the_pump() {
        let mut net = OverlayNet::new(7);
        let r = net.add_node(&[], 50);
        net.set_observer(r, true);
        let inventory: Vec<SymbolId> = (1..=40).collect();
        let (s1, s2) = (net.add_seeder(&inventory), net.add_seeder(&inventory));
        let slow = net.connect(s1, r, StrategyKind::Random, Link::slower(200), ConnectSpec::seeded(1));
        let fast = net.connect(s2, r, StrategyKind::Recode, Link::default(), ConnectSpec::seeded(2));
        assert_eq!(net.run(RunLimit::ticks(5)), StopReason::MaxTicks);
        // The slow link's next send sits in the calendar's overflow.
        net.disconnect(slow);
        net.disconnect(fast);
        assert!(matches!(net.links[slow.0].source, LinkSource::Closed));
        assert!(matches!(net.links[fast.0].source, LinkSource::Closed));
        assert_eq!(net.run(RunLimit::ticks(1_000)), StopReason::Stalled);
        assert_eq!(net.link_packets(slow).0, 1, "counters survive teardown");
        assert_eq!(net.link_packets(fast).0, 5);
    }

    #[test]
    fn max_ticks_is_honoured() {
        let mut net = OverlayNet::new(5);
        let r = net.add_node(&[], 1000); // far beyond the tick budget
        net.set_observer(r, true);
        let s = net.add_node(&[10], 1);
        net.connect_full(s, r, 0, Link::default());
        assert_eq!(net.run(RunLimit::ticks(17)), StopReason::MaxTicks);
        assert_eq!(net.now(), 17);
        assert_eq!(net.packets_from_full(), 17);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut net = OverlayNet::new(30);
        let a = net.add_node(&[1, 2], 4);
        let err = net
            .try_connect(a, a, StrategyKind::Random, Link::default(), ConnectSpec::seeded(1))
            .expect_err("self-loop must be rejected");
        assert_eq!(err, ConnectError::SelfLoop { node: a });
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn duplicate_directed_links_are_rejected_until_disconnected() {
        let mut net = OverlayNet::new(31);
        let r = net.add_node(&[9], 4);
        let s = net.add_node(&[1, 2, 3, 4], 4);
        let l = net.connect(s, r, StrategyKind::Random, Link::default(), ConnectSpec::seeded(1));
        let err = net
            .try_connect(s, r, StrategyKind::Random, Link::default(), ConnectSpec::seeded(2))
            .expect_err("second live link over the same pair");
        assert_eq!(err, ConnectError::DuplicateLink { from: s, to: r });
        assert!(err.to_string().contains("duplicate directed link"));
        // The reverse direction is a different directed pair.
        assert!(net
            .try_connect(r, s, StrategyKind::Random, Link::default(), ConnectSpec::seeded(3))
            .is_ok());
        // Reconnecting after a teardown is the refresh path, not a dup.
        net.disconnect(l);
        assert!(net
            .try_connect(s, r, StrategyKind::Random, Link::default(), ConnectSpec::seeded(4))
            .is_ok());
    }

    #[test]
    fn node_link_lists_track_topology() {
        let mut net = OverlayNet::new(32);
        let a = net.add_node(&[1], 2);
        let b = net.add_node(&[2], 2);
        let c = net.add_node(&[3], 2);
        let ab = net.connect(a, b, StrategyKind::Random, Link::default(), ConnectSpec::seeded(1));
        let cb = net.connect(c, b, StrategyKind::Random, Link::default(), ConnectSpec::seeded(2));
        let bc = net.connect(b, c, StrategyKind::Random, Link::default(), ConnectSpec::seeded(3));
        assert_eq!(net.node_in_links(b), &[ab, cb]);
        assert_eq!(net.nodes[b.0].out_links, [bc]);
        assert_eq!(net.link_ends(cb), (c, b));
        net.disconnect_node(b);
        assert!(net.node_in_links(b).is_empty());
        assert!(net.nodes[b.0].out_links.is_empty());
        assert!([ab, cb, bc].iter().all(|l| !net.links[l.0].alive));
        assert!(net.nodes[a.0].out_links.is_empty(), "peer lists pruned too");
    }

    #[test]
    fn rejoining_sender_advertises_symbols_gained_since_first_connection() {
        // The §6.1 refresh-on-reconnect regression: S first connects to R
        // knowing only {1}; S then learns {2, 3} from a seeder; a fresh
        // S→R connection must advertise the gained symbols. Under the old
        // snapshot-at-add inventory, R could never complete.
        let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
        let mut net = OverlayNet::new(33);
        let r = net.add_node(&[], 3);
        net.set_observer(r, true);
        let s = net.add_node(&[1], 3);
        let seeder = net.add_seeder(&[2, 3]);
        let first = net.connect(s, r, strategy, Link::default(), ConnectSpec::seeded(1));
        // Phase 1: S offers its snapshot {1}, exhausts, and the net
        // stalls with R stuck at one symbol.
        assert_eq!(net.run(RunLimit::ticks(1_000)), StopReason::Stalled);
        assert_eq!(net.node_distinct(r), 1);
        // Phase 2: S gains {2, 3} from the seeder.
        net.connect(seeder, s, strategy, Link::default(), ConnectSpec::seeded(2));
        assert_eq!(net.run(RunLimit::ticks(1_000)), StopReason::Stalled);
        assert_eq!(net.node_distinct(s), 3);
        // Phase 3: the rejoined connection advertises the refreshed
        // inventory and R completes.
        net.disconnect(first);
        net.connect(s, r, strategy, Link::default(), ConnectSpec::seeded(3));
        assert_eq!(net.run(RunLimit::ticks(1_000)), StopReason::Completed);
        assert_eq!(net.node_distinct(r), 3);
    }

    #[test]
    fn summary_only_links_hold_no_substitution_bytes() {
        // Random and Random/summary links send plain encoded symbols, so
        // no receiver behind them ever sizes a substitution side.
        let scenario = TwoPeerScenario::build(&compact(300), 0.3);
        let mut net = OverlayNet::new(41);
        let a = net.add_node(&scenario.receiver_set, scenario.target);
        let b = net.add_node(&scenario.sender_set, scenario.target);
        let seeder = net.add_seeder(&scenario.sender_set);
        net.set_observer(a, true);
        let bloom = StrategyKind::RandomSummary(SummaryId::BLOOM);
        let links = [(b, a, bloom), (a, b, bloom), (seeder, a, StrategyKind::Random)];
        for (seed, (from, to, strategy)) in (0u64..).zip(links) {
            net.connect(from, to, strategy, Link::default(), ConnectSpec::seeded(seed));
        }
        assert_eq!(net.run(RunLimit::ticks(100_000)), StopReason::Completed);
        let held = net.bytes_held();
        assert_eq!(held.substitution, 0, "{held}");
        assert!(held.known_sets > 0 && held.links > 0 && held.inventories > 0, "{held}");
    }

    #[test]
    fn a_recoding_link_reserves_substitution_before_its_first_packet() {
        let scenario = TwoPeerScenario::build(&compact(300), 0.3);
        for strategy in StrategyKind::ALL {
            let mut net = OverlayNet::new(42);
            let r = net.add_node(&scenario.receiver_set, scenario.target);
            let s = net.add_node(&scenario.sender_set, scenario.target);
            let link = net.connect(s, r, strategy, Link::default(), ConnectSpec::seeded(7));
            assert_eq!(net.link_packets(link), (0, 0, 0), "nothing sent yet");
            let reserved = net.bytes_held().substitution;
            assert_eq!(reserved > 0, strategy.recodes(), "{}: {reserved} B", strategy.label());
        }
    }

    #[test]
    fn refresh_inventory_reports_gains_once() {
        let mut net = OverlayNet::new(34);
        let s = net.add_node(&[1], 4);
        let seeder = net.add_seeder(&[2, 3, 4]);
        net.connect_full(seeder, s, 0, Link::default());
        let _ = net.run(RunLimit::ticks(10));
        assert!(net.node_distinct(s) > 1);
        let gained = net.node_distinct(s) - 1;
        assert_eq!(net.refresh_inventory(s), gained);
        assert_eq!(net.refresh_inventory(s), 0, "second refresh is a no-op");
    }

    #[test]
    fn cached_digest_bodies_ignore_the_estimate() {
        // A node caches one body per `estimate_free` mechanism for every
        // sender it handshakes with; that is only sound while the build
        // reads nothing peer-specific.
        let registry = icd_sketch::standard_registry();
        let sizing = SummarySizing::default();
        let keys: Vec<SymbolId> = (0..500u64).map(|i| i * 7 + 3).collect();
        let body = |id, estimate: &DiffEstimate| {
            registry.build(id, &sizing, estimate, &keys).expect("registered").encode_body()
        };
        let (near, far) = (handshake_estimate(500, 500, 10), handshake_estimate(500, 4000, 3900));
        for spec in registry.iter().filter(|spec| estimate_free(spec.id)) {
            assert_eq!(body(spec.id, &near), body(spec.id, &far), "{}", spec.label);
        }
    }

    #[test]
    fn stale_node_handle_is_a_connect_error_not_a_panic() {
        // The membership-layer regression: rewiring toward a node handle
        // from a departed roster must surface UnknownNode, not abort.
        let mut net = OverlayNet::new(35);
        let r = net.add_node(&[9], 3);
        let s = net.add_node(&[1, 2, 3], 3);
        let stale = NodeId(17);
        let err = net
            .try_connect(s, stale, StrategyKind::Random, Link::default(), ConnectSpec::seeded(1))
            .expect_err("stale destination");
        assert_eq!(err, ConnectError::UnknownNode { node: stale });
        assert!(err.to_string().contains("unknown node 17"));
        let err = net
            .try_connect(stale, r, StrategyKind::Random, Link::default(), ConnectSpec::seeded(2))
            .expect_err("stale source");
        assert_eq!(err, ConnectError::UnknownNode { node: stale });
        // The net survives the refusal: a valid rewire still works.
        net.set_observer(r, true);
        net.connect(s, r, StrategyKind::Random, Link::default(), ConnectSpec::seeded(4));
        assert_eq!(net.run(RunLimit::ticks(1_000)), StopReason::Completed);
    }

    #[test]
    fn packet_link_bytes_match_materialized_frames() {
        // The byte counters on a classic packet link must equal the
        // summed lengths of the frames the tap materializes — the same
        // invariant the frame-parity golden pins end to end.
        let params = compact(900);
        let scenario = TwoPeerScenario::build(&params, 0.3);
        let mut net = OverlayNet::new(40);
        let r = net.add_node(&scenario.receiver_set, scenario.target);
        net.set_observer(r, true);
        let s = net.add_seeder(&scenario.sender_set);
        let tapped = std::rc::Rc::new(std::cell::RefCell::new(0u64));
        let sink = std::rc::Rc::clone(&tapped);
        net.set_frame_tap(move |_, frame| *sink.borrow_mut() += frame.len() as u64);
        let l = net.connect(
            s,
            r,
            StrategyKind::Recode,
            Link::default(),
            ConnectSpec::seeded(41),
        );
        let _ = net.run(RunLimit::ticks(100_000));
        let (sent, _) = net.link_wire_bytes(l);
        assert!(sent > 0);
        assert_eq!(*tapped.borrow(), sent);
    }
}
