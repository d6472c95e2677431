//! The peer runtime: one listener, many sessions, one shared set.
//!
//! A [`Node`] is a process-local peer in a [`crate::plan::SwarmPlan`]:
//! it serves every inbound dial from a listener thread (completed peers
//! keep seeding — the listener never closes while the node lives),
//! fetches over its planned links with one thread per upstream peer,
//! and funnels every decoded symbol through a [`SharedWorkingSet`].
//! Addresses come from a [`Roster`] that speaks `icd-swarm`'s
//! [`SwarmEvent`] membership vocabulary, so the same Join/Leave/Rejoin
//! semantics the simulator's churn plans use drive a real deployment's
//! address book.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use icd_core::machine::{DriveError, WireStats};
use icd_core::{PolicyKnobs, SessionConfig, WorkingSet};
use icd_obs::{MetricsRegistry, SyncTraceHandle, TraceEvent};
use icd_overlay::{session_machine_seeds, session_payload};
use icd_swarm::{PeerId, SwarmEvent};

use crate::connection::{
    fetch_session, serve_session_budgeted, FetchError, FetchOutcome, Hello, SessionEpoch,
};
use crate::plan::{round_seed, DistributionSpec, SwarmPlan};
use crate::retry::RetryPolicy;
use crate::shared::SharedWorkingSet;

/// Salt folded into per-retry session seeds so a redial never replays
/// the round's original symbol stream.
const RETRY_SEED_SALT: u64 = 0x1CD0_7E72;

/// Daemon-side fault injection: sever the first serve session from
/// each listed dialer after a fixed number of data frames. The cut is
/// deliberate and deterministic — the dialer observes a mid-frame
/// truncation exactly where the plan says — which is what lets chaos
/// tests assert byte-for-byte bounds on the recovery path.
#[derive(Debug, Clone, Default)]
pub struct ServeChaos {
    /// Dialer ids whose *first* session gets severed (subsequent
    /// sessions from the same dialer serve normally — that is the
    /// retry succeeding).
    pub sever_dialers: Vec<u32>,
    /// Data frames to serve before cutting the stream.
    pub frame_budget: u64,
}

/// How a node is launched.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// This peer's id in the plan (`0..spec.nodes`).
    pub id: PeerId,
    /// The swarm-wide distribution spec.
    pub spec: DistributionSpec,
    /// Listen address; use port 0 to let the OS pick.
    pub listen: String,
    /// Socket read timeout for both serve and fetch sessions. A dead
    /// peer then surfaces as [`DriveError::ReadTimeout`] instead of
    /// wedging its connection thread forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout. A stalled peer whose window never opens
    /// surfaces as a transient transport error instead of blocking the
    /// writer indefinitely.
    pub write_timeout: Option<Duration>,
    /// Redial discipline for transient fetch failures: peer closed,
    /// deadline fired, stream truncated mid-frame. Retries resume on a
    /// [`SessionEpoch::Live`] session advertising everything decoded so
    /// far, so no byte of prior progress is re-fetched.
    pub retry: RetryPolicy,
    /// Optional serve-side fault injection (chaos tests only).
    pub chaos: Option<ServeChaos>,
}

/// Former name of [`DaemonConfig`], kept for existing callers.
pub type NodeConfig = DaemonConfig;

impl DaemonConfig {
    /// Localhost config with an OS-assigned port, generous 30-second
    /// read/write deadlines, and the default retry policy.
    #[must_use]
    pub fn local(id: PeerId, spec: DistributionSpec) -> Self {
        Self {
            id,
            spec,
            listen: "127.0.0.1:0".to_string(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }
}

/// The peer address book, driven by [`SwarmEvent`]s.
#[derive(Debug, Default, Clone)]
pub struct Roster {
    live: HashMap<PeerId, SocketAddr>,
    departed: HashMap<PeerId, SocketAddr>,
    next_join: PeerId,
}

impl Roster {
    /// An empty roster; [`Self::apply`]-joined peers get ids from
    /// `next_join` upward.
    #[must_use]
    pub fn new(next_join: PeerId) -> Self {
        Self {
            live: HashMap::new(),
            departed: HashMap::new(),
            next_join,
        }
    }

    /// Registers (or re-addresses) a live peer directly.
    pub fn set(&mut self, peer: PeerId, addr: SocketAddr) {
        self.live.insert(peer, addr);
        self.next_join = self.next_join.max(peer + 1);
    }

    /// Address of a live peer (`None` while departed or unknown).
    #[must_use]
    pub(crate) fn addr(&self, peer: PeerId) -> Option<SocketAddr> {
        self.live.get(&peer).copied()
    }

    /// Live peer count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no peers are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Applies one membership event. `addr` is required for `Join` (the
    /// newcomer's address) and optional for `Rejoin` (a returning peer
    /// may come back on a new address; otherwise its old one is
    /// restored). Returns the affected peer, or `None` when the event
    /// cannot apply (unknown peer, rejoin of someone never seen).
    pub fn apply(&mut self, event: SwarmEvent, addr: Option<SocketAddr>) -> Option<PeerId> {
        match event {
            SwarmEvent::Join => {
                let id = self.next_join;
                self.live.insert(id, addr?);
                self.next_join += 1;
                Some(id)
            }
            SwarmEvent::Leave(p) => {
                let addr = self.live.remove(&p)?;
                self.departed.insert(p, addr);
                Some(p)
            }
            SwarmEvent::Rejoin(p) => {
                let restored = addr.or_else(|| self.departed.remove(&p))?;
                self.departed.remove(&p);
                self.live.insert(p, restored);
                Some(p)
            }
            // Rewire is a connection-level event: the address book is
            // unchanged; the caller re-dials.
            SwarmEvent::Rewire(p) => self.live.contains_key(&p).then_some(p),
        }
    }
}

/// One fetch's result as the harness reports it.
#[derive(Debug, Clone, Copy)]
pub struct FetchReport {
    /// Upstream (serving) peer.
    pub from: PeerId,
    /// Reconciliation round the session ran in.
    pub round: u32,
    /// Session seed the round ran under (`round_seed` of the link).
    pub seed: u64,
    /// The session outcome, or the error that ended it. After retries,
    /// `Ok` carries the *accumulated* stats and gains of every attempt.
    pub outcome: Result<FetchOutcome, &'static str>,
    /// Wire bytes moved (both directions, hello excluded) summed over
    /// every attempt; also populated for failed sessions from the
    /// errors' partial counters.
    pub stats: WireStats,
    /// Redials performed after transient failures (0 on the fault-free
    /// path — the goldens rely on that).
    pub retries: u32,
}

/// Barrier-frozen per-round session state.
///
/// `predict` freezes every endpoint's snapshot when it opens the
/// round's sessions, before any frame of the round moves; byte parity
/// with the oracle therefore requires the daemon to do the same. Each
/// [`Node::advance_round`] call is one such barrier: it appends the ids
/// gained since the last barrier to the sender inventory (in sorted
/// order) and freezes both the serve snapshot and the receiver's sorted
/// snapshot + request for the round.
#[derive(Debug)]
struct Rounds {
    /// Sender inventory: the initial share, then each barrier's fresh
    /// ids appended in sorted order.
    inventory: Vec<u64>,
    /// Frozen serve (sender-side) snapshots, indexed by round.
    serve: Vec<WorkingSet>,
    /// Frozen receiver state per round — sorted snapshot ids and the
    /// request count — or `None` when the node was already complete at
    /// that barrier and dials nobody.
    fetch: Vec<Option<(Vec<u64>, u64)>>,
}

/// Everything a serve thread needs, shared across all of them.
struct ServeCtx {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    rounds: Arc<Mutex<Rounds>>,
    shared: Arc<SharedWorkingSet>,
    log: Mutex<Vec<(u32, WireStats)>>,
    /// Dialers whose next session gets severed (drained as they dial).
    chaos_pending: Mutex<Vec<u32>>,
    /// Data-frame budget for severed sessions.
    frame_budget: u64,
    /// Sessions that ended early (peer closed / timed out / truncated
    /// mid-frame / chaos-severed) but were absorbed, not fatal.
    degraded: AtomicU64,
    /// Serve sessions between their accepted hello and their booking in
    /// `log`/`degraded`. A dialer can see its session's last frame
    /// before the serving thread books it; the accessors wait for this
    /// to reach zero so they never miss a session its dialer finished.
    in_flight: Mutex<u32>,
    /// Signalled whenever a serve session is booked.
    booked: Condvar,
}

impl ServeCtx {
    /// Blocks until no serve session is between its hello and its
    /// booking, waiting at most the read timeout so that a stalled
    /// dialer cannot hold an accessor forever.
    fn settle(&self) {
        let in_flight = self.in_flight.lock().expect("in-flight lock");
        let busy = |n: &mut u32| *n > 0;
        match self.read_timeout {
            Some(t) => drop(self.booked.wait_timeout_while(in_flight, t, busy)),
            None => drop(self.booked.wait_while(in_flight, busy)),
        }
    }
}

/// Counts one serve session as in flight until dropped, which happens
/// after the session is booked, on every path out of [`serve_one`].
struct InFlight<'a>(&'a ServeCtx);

impl<'a> InFlight<'a> {
    fn enter(ctx: &'a ServeCtx) -> Self {
        *ctx.in_flight.lock().expect("in-flight lock") += 1;
        Self(ctx)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // A counter update cannot leave the count torn, so a poisoned
        // lock is recovered rather than panicking inside `drop`.
        let mut n = self.0.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        self.0.booked.notify_all();
    }
}

/// A running peer: listener thread + shared working set.
pub struct Node {
    config: DaemonConfig,
    plan: SwarmPlan,
    shared: Arc<SharedWorkingSet>,
    rounds: Arc<Mutex<Rounds>>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    serve_ctx: Arc<ServeCtx>,
    /// Set when the previous [`Self::run_fetches`] gained nothing while
    /// the node was still incomplete — the next round's dials escalate
    /// to speculative transfers (see [`Self::stall_escalations`]).
    stalled: AtomicBool,
    escalations: AtomicU64,
    /// Structured trace recorder. Records are stamped with the round
    /// number (never wall-clock time); fetch threads share it, so the
    /// interleaving of same-round records is scheduling-dependent —
    /// unlike the engine's traces, which are fully deterministic.
    trace: Option<SyncTraceHandle>,
    /// Metrics sink for the per-node session counters.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Node {
    /// Binds the listener, spawns the accept loop, and returns the
    /// running node. The node serves immediately; fetching is a
    /// separate, explicit step ([`Self::run_fetches`]).
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(config: DaemonConfig) -> io::Result<Self> {
        let plan = SwarmPlan::new(config.spec);
        let share = &plan.shares[config.id];
        let payload = config.spec.payload;
        let initial_inventory = WorkingSet::from_symbols(share.iter().map(|&id| {
            icd_fountain::EncodedSymbol {
                id,
                payload: session_payload(id, payload),
            }
        }));
        let shared = Arc::new(SharedWorkingSet::new(
            initial_inventory.clone(),
            config.spec.universe,
        ));
        let missing = config.spec.universe - share.len();
        let mut sorted_share = share.clone();
        sorted_share.sort_unstable();
        let round0_fetch = if missing == 0 {
            None
        } else {
            Some((sorted_share, missing as u64))
        };
        let rounds = Arc::new(Mutex::new(Rounds {
            inventory: share.clone(),
            serve: vec![initial_inventory],
            fetch: vec![round0_fetch],
        }));
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let serve_ctx = Arc::new(ServeCtx {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            rounds: rounds.clone(),
            shared: shared.clone(),
            log: Mutex::new(Vec::new()),
            chaos_pending: Mutex::new(
                config
                    .chaos
                    .as_ref()
                    .map(|c| c.sever_dialers.clone())
                    .unwrap_or_default(),
            ),
            frame_budget: config.chaos.as_ref().map_or(u64::MAX, |c| c.frame_budget),
            degraded: AtomicU64::new(0),
            in_flight: Mutex::new(0),
            booked: Condvar::new(),
        });

        let accept_stop = stop.clone();
        let accept_ctx = serve_ctx.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut sessions = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let ctx = accept_ctx.clone();
                sessions.push(std::thread::spawn(move || serve_one(stream, &ctx)));
            }
            for s in sessions {
                let _ = s.join();
            }
        });

        Ok(Self {
            config,
            plan,
            shared,
            rounds,
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            serve_ctx,
            stalled: AtomicBool::new(false),
            escalations: AtomicU64::new(0),
            trace: None,
            metrics: None,
        })
    }

    /// Installs a structured trace recorder. Fetch rounds record
    /// per-session spans, redials after transient failures, and stall
    /// escalations, each stamped with the round number.
    pub fn set_trace(&mut self, trace: SyncTraceHandle) {
        self.trace = Some(trace);
    }

    /// Installs a metrics sink: fetch-session and retry-ladder counters
    /// accrue per round; [`Self::fill_metrics`] mirrors the serve-side
    /// totals on demand.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Mirrors the node's cumulative health counters into the installed
    /// metrics sink (no-op without one): `node_degraded_sessions`,
    /// `node_stall_escalations`, and `node_round`.
    pub fn fill_metrics(&self) {
        if let Some(metrics) = &self.metrics {
            metrics
                .gauge("node_degraded_sessions")
                .set(self.degraded_sessions());
            metrics
                .gauge("node_stall_escalations")
                .set(self.stall_escalations());
            metrics
                .gauge("node_round")
                .set(u64::from(self.current_round()));
        }
    }

    /// The bound listen address (real port when the config said 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node's shared working set.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedWorkingSet> {
        &self.shared
    }

    /// Per-dialer serve-side wire counters of every serve session
    /// booked so far. Waits (at most the read timeout) for sessions
    /// already past their hello, so a session whose dialer has finished
    /// is always included.
    #[must_use]
    pub fn serve_stats(&self) -> Vec<(u32, WireStats)> {
        self.serve_ctx.settle();
        self.serve_ctx.log.lock().expect("serve log lock").clone()
    }

    /// Serve sessions that ended early (dialer hung up, deadline fired,
    /// stream truncated mid-frame, chaos-severed) but were absorbed —
    /// the daemon logged them and kept serving. Waits for in-flight
    /// sessions like [`Self::serve_stats`].
    #[must_use]
    pub fn degraded_sessions(&self) -> u64 {
        self.serve_ctx.settle();
        self.serve_ctx.degraded.load(Ordering::Relaxed)
    }

    /// Rounds this node ran as speculative escalations.
    ///
    /// Approximate summaries (Bloom, ART) are pure functions of the two
    /// working sets, so their false positives do not re-draw under
    /// fresh round seeds: a node whose last missing symbols are exactly
    /// the digest's false positives can livelock, gaining nothing round
    /// after round while every session "succeeds". The daemon detects
    /// that state — a [`Self::run_fetches`] round that gained nothing
    /// while still incomplete — and escalates the *next* round to
    /// speculative [`SessionEpoch::Live`] dials: no summary travels, so
    /// the sender recodes over its whole set (§6's fallback) and the
    /// withheld symbols arrive XOR-combined with known ones. The
    /// fault-free goldens never take this path (they gain every round),
    /// so byte parity with the simulator is untouched.
    #[must_use]
    pub(crate) fn stall_escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// The reconciliation round the node is currently in (0-based).
    #[must_use]
    pub fn current_round(&self) -> u32 {
        (self.rounds.lock().expect("rounds lock").serve.len() - 1) as u32
    }

    /// One round barrier: appends the ids gained since the last barrier
    /// to the sender inventory (in sorted order) and freezes both sides'
    /// snapshots for the new round.
    /// Returns the new round number.
    ///
    /// The harness calls this on *every* node before any node dials the
    /// next round — only then do both worlds agree on every endpoint's
    /// state, which is what makes per-round byte parity exact.
    pub fn advance_round(&self) -> u32 {
        let mut rounds = self.rounds.lock().expect("rounds lock");
        let held = self.shared.sorted_ids();
        let have: HashSet<u64> = rounds.inventory.iter().copied().collect();
        // `held` is sorted, so the fresh suffix lands in sorted order.
        let fresh: Vec<u64> = held
            .iter()
            .copied()
            .filter(|id| !have.contains(id))
            .collect();
        rounds.inventory.extend(fresh);
        let payload = self.config.spec.payload;
        let serve = WorkingSet::from_symbols(rounds.inventory.iter().map(|&id| {
            icd_fountain::EncodedSymbol {
                id,
                payload: session_payload(id, payload),
            }
        }));
        rounds.serve.push(serve);
        let missing = self.config.spec.universe.saturating_sub(held.len());
        rounds.fetch.push(if missing == 0 {
            None
        } else {
            Some((held, missing as u64))
        });
        (rounds.serve.len() - 1) as u32
    }

    /// Runs every planned fetch of this node concurrently — one thread
    /// per upstream peer — and returns the reports in plan order.
    /// Sessions construct their receiver machines exactly as `predict`
    /// does: snapshot = the ids held at the round barrier, sorted;
    /// request = symbols missing at the barrier; machine seed derived
    /// from `round_seed` of the link.
    /// A node that was complete at the barrier dials nobody. Peers
    /// missing from `roster` report `"peer not in roster"` without
    /// dialing.
    ///
    /// If the *previous* call gained nothing while the node was still
    /// incomplete, this round escalates to speculative recovery dials —
    /// see `Self::stall_escalations`.
    #[must_use]
    pub fn run_fetches(&self, roster: &Roster) -> Vec<FetchReport> {
        let (round, frozen) = {
            let rounds = self.rounds.lock().expect("rounds lock");
            (
                (rounds.serve.len() - 1) as u32,
                rounds.fetch.last().cloned().flatten(),
            )
        };
        let Some((snapshot_ids, request)) = frozen else {
            return Vec::new();
        };
        let escalate = self.stalled.load(Ordering::SeqCst);
        let fetches: Vec<_> = self.plan.fetches_of(self.config.id).copied().collect();
        let handles: Vec<_> = fetches
            .into_iter()
            .map(|link| {
                let job = FetchJob {
                    from: link.from,
                    round,
                    seed: round_seed(link.seed, round),
                    link_seed: link.seed,
                    addr: roster.addr(link.from),
                    payload: self.config.spec.payload,
                    id: self.config.id,
                    snapshot_ids: snapshot_ids.clone(),
                    request,
                    universe: self.config.spec.universe,
                    read_timeout: self.config.read_timeout,
                    write_timeout: self.config.write_timeout,
                    policy: self.config.retry,
                    escalate,
                    trace: self.trace.clone(),
                };
                let shared = self.shared.clone();
                std::thread::spawn(move || fetch_one(job, &shared))
            })
            .collect();
        let reports: Vec<FetchReport> = handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread panicked"))
            .collect();
        if escalate && !reports.is_empty() {
            self.escalations.fetch_add(1, Ordering::Relaxed);
            if let Some(trace) = &self.trace {
                trace.lock().expect("trace lock").push(
                    u64::from(round),
                    TraceEvent::StallEscalation {
                        peer: self.config.id as u64,
                        starved: self.escalations.load(Ordering::Relaxed),
                    },
                );
            }
            if let Some(metrics) = &self.metrics {
                metrics.counter("node_stall_escalations").inc();
            }
        }
        // Session spans land after the joins, in plan order — the trace
        // is per-round reproducible even though the fetch threads
        // themselves finish in scheduling order.
        if let Some(trace) = &self.trace {
            let mut buf = trace.lock().expect("trace lock");
            for r in &reports {
                buf.push(
                    u64::from(round),
                    TraceEvent::SessionSpan {
                        from: r.from as u64,
                        to: self.config.id as u64,
                        round: u64::from(r.round),
                        retries: u64::from(r.retries),
                        ok: r.outcome.is_ok(),
                    },
                );
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics
                .counter("node_fetch_sessions")
                .add(reports.len() as u64);
            metrics
                .counter("node_fetch_failures")
                .add(reports.iter().filter(|r| r.outcome.is_err()).count() as u64);
            metrics
                .counter("node_retries")
                .add(reports.iter().map(|r| u64::from(r.retries)).sum());
        }
        let gained: u64 = reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.gained)
            .sum();
        let stalled_now = !reports.is_empty() && gained == 0 && !self.shared.is_complete();
        if stalled_now && !escalate {
            eprintln!(
                "icd-node: peer {} round {round} gained nothing while incomplete; \
                 escalating next round to speculative dials",
                self.config.id
            );
        }
        self.stalled.store(stalled_now, Ordering::SeqCst);
        reports
    }

    /// Stops the listener and joins every serve thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one accepted connection: hello, snapshot per the requested
/// epoch, one sender session. Connection-level failures are absorbed as
/// degraded sessions — logged, counted, never fatal to the daemon.
fn serve_one(mut stream: TcpStream, ctx: &ServeCtx) {
    let _ = stream.set_read_timeout(ctx.read_timeout);
    let _ = stream.set_write_timeout(ctx.write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(hello) = Hello::read_from(&mut stream) else {
        return; // not a protocol peer (e.g. the stop wake-up)
    };
    let _in_flight = InFlight::enter(ctx);
    let (_, sender_seed) = session_machine_seeds(hello.seed);
    let snapshot = match hello.epoch {
        // A dialer ahead of our barrier (only possible without the
        // harness's lockstep) gets the live set — completion still
        // works; exact parity is a barrier-mode guarantee.
        SessionEpoch::Round(r) => {
            let frozen = ctx
                .rounds
                .lock()
                .expect("rounds lock")
                .serve
                .get(r as usize)
                .cloned();
            frozen.unwrap_or_else(|| ctx.shared.snapshot())
        }
        SessionEpoch::Live => ctx.shared.snapshot(),
    };
    let sever = {
        let mut pending = ctx.chaos_pending.lock().expect("chaos lock");
        pending
            .iter()
            .position(|&d| d == hello.dialer)
            .map(|i| {
                pending.swap_remove(i);
                ctx.frame_budget
            })
    };
    match serve_session_budgeted(&mut stream, snapshot, sender_seed, sever) {
        Ok(outcome) => {
            if outcome.status.is_degraded() {
                ctx.degraded.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "icd-node: serve session from dialer {} degraded: {:?}",
                    hello.dialer, outcome.status
                );
            }
            ctx.log
                .lock()
                .expect("serve log lock")
                .push((hello.dialer, outcome.stats));
        }
        Err(e) => {
            // A misbehaving dialer (protocol/machine error): drop the
            // session, keep the daemon serving everyone else.
            ctx.degraded.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "icd-node: serve session from dialer {} failed: {e}",
                hello.dialer
            );
        }
    }
}

/// One planned fetch, bundled for its worker thread.
struct FetchJob {
    from: PeerId,
    round: u32,
    /// Session seed of the round's planned attempt ([`round_seed`]).
    seed: u64,
    /// Base link seed — jitter salt and the root of retry seeds.
    link_seed: u64,
    addr: Option<SocketAddr>,
    payload: usize,
    id: PeerId,
    /// Barrier-frozen receiver snapshot ids (attempt 1 only).
    snapshot_ids: Vec<u64>,
    /// Symbols missing at the barrier (attempt 1 only).
    request: u64,
    universe: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    policy: RetryPolicy,
    /// Stall escalation: dial [`SessionEpoch::Live`] with coarse policy
    /// knobs so the sender streams recoded symbols instead of filtering
    /// through an approximate digest whose false positives are stuck.
    escalate: bool,
    /// Shared trace recorder (redials are recorded as they happen).
    trace: Option<SyncTraceHandle>,
}

/// Session seed for retry `attempt` (≥ 2) of a round fetch: distinct
/// from the round seed so a resumed session never replays the original
/// symbol stream, deterministic so a chaos run replays exactly.
pub(crate) fn retry_seed(link_seed: u64, round: u32, attempt: u32) -> u64 {
    icd_util::hash::mix64(round_seed(link_seed, round) ^ RETRY_SEED_SALT ^ u64::from(attempt))
}

/// Dials `from` and runs one fetch session, mirroring `predict`'s
/// receiver-side construction — then, on *transient* failure (peer
/// closed, deadline fired, stream truncated mid-frame, dial refused),
/// redials under the job's [`RetryPolicy`].
///
/// Attempt 1 is the planned round session: barrier-frozen snapshot,
/// `Round` epoch, the round seed — byte parity with the simulator.
/// Retries are *resumptions*: a fresh [`SessionEpoch::Live`] hello
/// advertising the node's **current** working set (everything decoded
/// so far, including symbols the dead session delivered before it
/// died), so recovery never re-fetches a byte of prior progress. If
/// the node finished while backing off, the retry is skipped entirely.
fn fetch_one(job: FetchJob, shared: &SharedWorkingSet) -> FetchReport {
    let mut total = WireStats::default();
    let mut gained_total = 0u64;
    let mut retries = 0u32;
    let mut attempt = 1u32;
    loop {
        let (epoch, ids, request, seed) = if attempt == 1 && job.escalate {
            // Stall escalation: a live speculative dial over the current
            // set. The request carries a decoding allowance (§6.1) since
            // recoded symbols are not individually guaranteed useful.
            // `retry_seed(.., 1)` is otherwise unused (redials start at
            // attempt 2), so the escalated stream never replays any
            // planned or retried stream of this round.
            let held = shared.sorted_ids();
            let missing = (job.universe.saturating_sub(held.len())) as u64;
            if missing == 0 {
                return FetchReport {
                    from: job.from,
                    round: job.round,
                    seed: job.seed,
                    outcome: Ok(FetchOutcome {
                        stats: total,
                        gained: gained_total,
                        rejected: false,
                    }),
                    stats: total,
                    retries,
                };
            }
            (
                SessionEpoch::Live,
                held,
                missing * 2 + 4,
                retry_seed(job.link_seed, job.round, 1),
            )
        } else if attempt == 1 {
            (
                SessionEpoch::Round(job.round as u8),
                job.snapshot_ids.clone(),
                job.request,
                job.seed,
            )
        } else {
            // Resumption: re-summarize the now-larger working set.
            let held = shared.sorted_ids();
            let missing = (job.universe.saturating_sub(held.len())) as u64;
            if missing == 0 {
                // Finished while backing off — nothing left to dial for.
                return FetchReport {
                    from: job.from,
                    round: job.round,
                    seed: job.seed,
                    outcome: Ok(FetchOutcome {
                        stats: total,
                        gained: gained_total,
                        rejected: false,
                    }),
                    stats: total,
                    retries,
                };
            }
            (
                SessionEpoch::Live,
                held,
                missing,
                retry_seed(job.link_seed, job.round, attempt),
            )
        };
        match dial_once(&job, epoch, &ids, request, seed, job.escalate, shared) {
            Ok(outcome) => {
                total += outcome.stats;
                gained_total += outcome.gained;
                return FetchReport {
                    from: job.from,
                    round: job.round,
                    seed: job.seed,
                    outcome: Ok(FetchOutcome {
                        stats: total,
                        gained: gained_total,
                        rejected: outcome.rejected,
                    }),
                    stats: total,
                    retries,
                };
            }
            Err((msg, stats, gained, transient)) => {
                total += stats;
                gained_total += gained;
                if transient && job.policy.allows_retry(attempt) {
                    retries += 1;
                    if let Some(trace) = &job.trace {
                        trace.lock().expect("trace lock").push(
                            u64::from(job.round),
                            TraceEvent::Redial {
                                from: job.id as u64,
                                to: job.from as u64,
                                round: u64::from(job.round),
                                attempt: u64::from(attempt),
                            },
                        );
                    }
                    std::thread::sleep(job.policy.backoff(attempt, job.link_seed));
                    attempt += 1;
                    continue;
                }
                return FetchReport {
                    from: job.from,
                    round: job.round,
                    seed: job.seed,
                    outcome: Err(msg),
                    stats: total,
                    retries,
                };
            }
        }
    }
}

/// One dial + one session. The error arm carries the failure message,
/// any partial wire counters and gains, and whether the failure is
/// transient (worth a redial) — protocol and machine errors are not.
/// With `speculative`, the receiver advertises itself as not
/// fine-grained capable, so policy plans a recoded transfer instead of
/// building an approximate digest (the stall-escalation path).
fn dial_once(
    job: &FetchJob,
    epoch: SessionEpoch,
    snapshot_ids: &[u64],
    request: u64,
    seed: u64,
    speculative: bool,
    shared: &SharedWorkingSet,
) -> Result<FetchOutcome, (&'static str, WireStats, u64, bool)> {
    let Some(addr) = job.addr else {
        return Err(("peer not in roster", WireStats::default(), 0, false));
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        // Refused dials are transient: the peer may be mid-restart.
        return Err(("connect failed", WireStats::default(), 0, true));
    };
    let _ = stream.set_read_timeout(job.read_timeout);
    let _ = stream.set_write_timeout(job.write_timeout);
    let _ = stream.set_nodelay(true);
    let hello = Hello {
        dialer: job.id as u32,
        seed,
        epoch,
    };
    if hello.write_to(&mut stream).is_err() {
        return Err(("hello write failed", WireStats::default(), 0, true));
    }

    // Receiver snapshot exactly as `predict` builds it: the
    // ids held at the barrier (or, on a resumption, right now),
    // *sorted*, expanded through the shared payload convention.
    let snapshot = WorkingSet::from_symbols(snapshot_ids.iter().map(|&sym_id| {
        icd_fountain::EncodedSymbol {
            id: sym_id,
            payload: session_payload(sym_id, job.payload),
        }
    }));
    let (receiver_seed, _) = session_machine_seeds(seed);
    let mut config = SessionConfig::new()
        .with_request(request)
        .with_seed(receiver_seed);
    if speculative {
        config = config.with_knobs(PolicyKnobs {
            fine_grained_capable: false,
            ..PolicyKnobs::default()
        });
    }

    match fetch_session(&mut stream, snapshot, config, shared) {
        Ok(outcome) => Ok(outcome),
        Err(FetchError { error, gained }) => match error {
            DriveError::PeerClosed { stats } => {
                Err(("peer closed mid-session", stats, gained, true))
            }
            DriveError::ReadTimeout { stats } => Err(("read timeout", stats, gained, true)),
            DriveError::Transport(e) => Err((
                "transport error",
                WireStats::default(),
                gained,
                e.is_transient(),
            )),
            DriveError::Machine(_) => Err(("machine error", WireStats::default(), gained, false)),
        },
    }
}

/// Parses a roster token list like `0=127.0.0.1:4000 2=10.0.0.7:4001`
/// (whitespace- or comma-separated), as accepted by the binary's
/// `--roster` flag, the `ICD_NODE_ROSTER` environment variable, and the
/// harness `ROSTER` stdin command.
///
/// # Errors
/// Returns a description of the first malformed token.
pub fn parse_roster(text: &str, next_join: PeerId) -> Result<Roster, String> {
    let mut roster = Roster::new(next_join);
    for token in text.split([' ', ',', '\t']).filter(|t| !t.is_empty()) {
        let (id, addr) = token
            .split_once('=')
            .ok_or_else(|| format!("expected id=addr, got {token:?}"))?;
        let id: PeerId = id.parse().map_err(|_| format!("bad peer id {id:?}"))?;
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("bad addr {addr:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("unresolvable addr {addr:?}"))?;
        roster.set(id, addr);
    }
    Ok(roster)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    #[test]
    fn roster_speaks_the_swarm_event_vocabulary() {
        let mut roster = parse_roster("0=127.0.0.1:4000, 1=127.0.0.1:4001", 2).expect("parse");
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.addr(0), Some(addr(4000)));

        // Leave hides the peer; rejoin restores its old address.
        assert_eq!(roster.apply(SwarmEvent::Leave(1), None), Some(1));
        assert_eq!(roster.addr(1), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(1), None), Some(1));
        assert_eq!(roster.addr(1), Some(addr(4001)));

        // Rejoin on a new address wins over the stored one.
        roster.apply(SwarmEvent::Leave(1), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(1), Some(addr(5001))), Some(1));
        assert_eq!(roster.addr(1), Some(addr(5001)));

        // Join appends at next_join.
        assert_eq!(roster.apply(SwarmEvent::Join, Some(addr(6000))), Some(2));
        assert_eq!(roster.addr(2), Some(addr(6000)));
        // A join without an address cannot apply.
        assert_eq!(roster.apply(SwarmEvent::Join, None), None);

        // Rewire leaves the address book alone.
        assert_eq!(roster.apply(SwarmEvent::Rewire(0), None), Some(0));
        assert_eq!(roster.addr(0), Some(addr(4000)));
        assert_eq!(roster.apply(SwarmEvent::Rewire(99), None), None);

        // Unknown leaves/rejoins are rejected, not panics.
        assert_eq!(roster.apply(SwarmEvent::Leave(42), None), None);
        assert_eq!(roster.apply(SwarmEvent::Rejoin(42), None), None);
    }

    #[test]
    fn roster_parse_rejects_malformed_tokens() {
        assert!(parse_roster("0:127.0.0.1:4000", 1).is_err());
        assert!(parse_roster("x=127.0.0.1:4000", 1).is_err());
        assert!(parse_roster("0=not-an-addr", 1).is_err());
    }
}
