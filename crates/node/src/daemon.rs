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
//!
//! The round policy — freeze at the barrier, choose the dials, resume a
//! cut session, escalate a stalled node — is the [`NodeMachine`]'s,
//! which `predict` drives too. This module keeps only what a real
//! deployment adds: sockets, threads, deadlines, backoff sleeps and the
//! chaos hook.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use icd_core::machine::{DriveError, WireStats};
use icd_obs::{MetricsRegistry, SyncTraceHandle, TraceEvent};
use icd_overlay::session_machine_seeds;
use icd_swarm::{PeerId, SwarmEvent};

use crate::connection::{fetch_session, serve_session_budgeted, FetchError, FetchOutcome, Hello};
use crate::machine::{initial_share, round_seed, Dial, NodeMachine};
use crate::plan::{DistributionSpec, PlannedLink, SwarmPlan};
use crate::retry::RetryPolicy;
use crate::shared::SharedWorkingSet;

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
    /// [`crate::SessionEpoch::Live`] session advertising everything decoded so
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

/// Everything a node's serve and fetch threads share.
struct NodeCtx {
    id: PeerId,
    /// Set when the node stops; the accept loop exits on its next wake.
    stop: AtomicBool,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    retry: RetryPolicy,
    /// The round policy. Lock order: the machine before the shared set.
    machine: Mutex<NodeMachine>,
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

impl NodeCtx {
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

    fn machine(&self) -> MutexGuard<'_, NodeMachine> {
        self.machine.lock().expect("machine lock")
    }
}

/// Counts one serve session as in flight until dropped, which happens
/// after the session is booked, on every path out of [`serve_one`].
struct InFlight<'a>(&'a NodeCtx);

impl<'a> InFlight<'a> {
    fn enter(ctx: &'a NodeCtx) -> Self {
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

/// A running peer: listener thread + shared working set, driving one
/// round machine over sockets and threads.
pub struct Node {
    ctx: Arc<NodeCtx>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
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
        let held = initial_share(&plan, config.id);
        let machine = NodeMachine::new(&plan, config.id, &held);
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        let ServeChaos {
            sever_dialers,
            frame_budget,
        } = config.chaos.unwrap_or_default();
        let ctx = Arc::new(NodeCtx {
            id: config.id,
            stop: AtomicBool::new(false),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            retry: config.retry,
            machine: Mutex::new(machine),
            shared: Arc::new(SharedWorkingSet::new(held, config.spec.universe)),
            log: Mutex::new(Vec::new()),
            chaos_pending: Mutex::new(sever_dialers),
            frame_budget,
            degraded: AtomicU64::new(0),
            in_flight: Mutex::new(0),
            booked: Condvar::new(),
        });

        let accept_ctx = ctx.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut sessions = Vec::new();
            for stream in listener.incoming() {
                if accept_ctx.stop.load(Ordering::SeqCst) {
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
            ctx,
            local_addr,
            accept_thread: Some(accept_thread),
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
        &self.ctx.shared
    }

    /// Per-dialer serve-side wire counters of every serve session
    /// booked so far. Waits (at most the read timeout) for sessions
    /// already past their hello, so a session whose dialer has finished
    /// is always included.
    #[must_use]
    pub fn serve_stats(&self) -> Vec<(u32, WireStats)> {
        self.ctx.settle();
        self.ctx.log.lock().expect("serve log lock").clone()
    }

    /// Serve sessions that ended early (dialer hung up, deadline fired,
    /// stream truncated mid-frame, chaos-severed) but were absorbed —
    /// the daemon logged them and kept serving. Waits for in-flight
    /// sessions like [`Self::serve_stats`].
    #[must_use]
    pub fn degraded_sessions(&self) -> u64 {
        self.ctx.settle();
        self.ctx.degraded.load(Ordering::Relaxed)
    }

    /// Rounds this node ran as speculative escalations, each after a
    /// [`Self::run_fetches`] round that gained nothing while the node was
    /// incomplete. The round machine decides them, and `predict` runs the
    /// same machine; the fault-free goldens never escalate.
    #[must_use]
    pub(crate) fn stall_escalations(&self) -> u64 {
        self.ctx.machine().escalations()
    }

    /// The reconciliation round the node is currently in (0-based).
    #[must_use]
    pub fn current_round(&self) -> u32 {
        self.ctx.machine().round()
    }

    /// One round barrier: freezes the node's held set for the next
    /// round — the one set both its serve and its fetch sessions of
    /// that round run over — and returns the new round number. At the
    /// cap, `MAX_ROUNDS - 1`, the barrier is refused: nothing changes
    /// and the current round is returned.
    ///
    /// The harness calls this on *every* node before any node dials the
    /// next round — only then do both worlds agree on every endpoint's
    /// state, which is what makes per-round byte parity exact.
    pub fn advance_round(&self) -> u32 {
        let mut machine = self.ctx.machine();
        let advanced = self.ctx.shared.with(|held| machine.advance(held));
        advanced.unwrap_or_else(|| machine.round())
    }

    /// Runs every planned fetch of this node concurrently — one thread
    /// per upstream peer — and returns the reports in plan order. Each
    /// fetch dials as the round machine decides, exactly as `predict`
    /// does. A node that was complete at the barrier dials nobody.
    /// Peers missing from `roster` report `"peer not in roster"` without
    /// dialing.
    ///
    /// If the *previous* call gained nothing while the node was still
    /// incomplete, this round escalates to speculative recovery dials —
    /// see `Self::stall_escalations`.
    #[must_use]
    pub fn run_fetches(&self, roster: &Roster) -> Vec<FetchReport> {
        let (round, links, escalated) = {
            let mut machine = self.ctx.machine();
            let round = machine.round();
            let (links, escalated) = machine.open_round();
            (round, links.to_vec(), escalated)
        };
        let handles: Vec<_> = links
            .into_iter()
            .map(|link| {
                let ctx = self.ctx.clone();
                let addr = roster.addr(link.from);
                let trace = self.trace.clone();
                std::thread::spawn(move || fetch_one(&ctx, link, round, addr, trace.as_ref()))
            })
            .collect();
        let reports: Vec<FetchReport> = handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread panicked"))
            .collect();
        // The escalation and the session spans land after the joins, in
        // plan order — the trace is per-round reproducible even though
        // the fetch threads themselves finish in scheduling order.
        if let Some(trace) = &self.trace {
            let mut buf = trace.lock().expect("trace lock");
            if escalated {
                buf.push(
                    u64::from(round),
                    TraceEvent::StallEscalation {
                        peer: self.ctx.id as u64,
                        starved: self.stall_escalations(),
                    },
                );
            }
            for r in &reports {
                buf.push(
                    u64::from(round),
                    TraceEvent::SessionSpan {
                        from: r.from as u64,
                        to: self.ctx.id as u64,
                        round: u64::from(r.round),
                        retries: u64::from(r.retries),
                        ok: r.outcome.is_ok(),
                    },
                );
            }
        }
        if let Some(metrics) = &self.metrics {
            if escalated {
                metrics.counter("node_stall_escalations").inc();
            }
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
        let complete = self.ctx.shared.is_complete();
        if self.ctx.machine().close_round(gained, complete) {
            eprintln!(
                "icd-node: peer {} round {round} gained nothing while incomplete; \
                 escalating next round to speculative dials",
                self.ctx.id
            );
        }
        reports
    }

    /// Stops the listener and joins every serve thread. Idempotent.
    pub fn stop(&mut self) {
        if self.ctx.stop.swap(true, Ordering::SeqCst) {
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

/// Serves one accepted connection: hello, the snapshot the machine
/// picks for the requested epoch, one sender session. Connection-level
/// failures are absorbed as degraded sessions — logged, counted, never
/// fatal to the daemon.
fn serve_one(mut stream: TcpStream, ctx: &NodeCtx) {
    let _ = stream.set_read_timeout(ctx.read_timeout);
    let _ = stream.set_write_timeout(ctx.write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(hello) = Hello::read_from(&mut stream) else {
        return; // not a protocol peer (e.g. the stop wake-up)
    };
    let _in_flight = InFlight::enter(ctx);
    let (_, sender_seed) = session_machine_seeds(hello.seed);
    let snapshot = {
        let machine = ctx.machine();
        ctx.shared
            .with(|held| machine.session_set(hello.epoch, held).clone())
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

/// Runs this round's fetch over `link`: each attempt dials as the
/// machine decides — the planned (or escalated) dial first, then, after
/// each *transient* failure (peer closed, deadline fired, stream
/// truncated mid-frame, dial refused), a resumption under the node's
/// [`RetryPolicy`]. The fetch ends when a session ends, when a failure
/// is not transient or out of retries, or when the machine has nothing
/// left to dial for (the node completed while backing off).
fn fetch_one(
    ctx: &NodeCtx,
    link: PlannedLink,
    round: u32,
    addr: Option<SocketAddr>,
    trace: Option<&SyncTraceHandle>,
) -> FetchReport {
    let mut stats = WireStats::default();
    let (mut gained, mut retries, mut attempt) = (0, 0, 0);
    let outcome = loop {
        attempt += 1;
        let dial = {
            let machine = ctx.machine();
            ctx.shared.with(|held| machine.dial(&link, attempt, held))
        };
        let Some(dial) = dial else { break Ok(false) };
        match dial_once(ctx, addr, dial) {
            Ok(outcome) => {
                stats += outcome.stats;
                gained += outcome.gained;
                break Ok(outcome.rejected);
            }
            Err((msg, partial_stats, partial_gain, transient)) => {
                stats += partial_stats;
                gained += partial_gain;
                if !(transient && ctx.retry.allows_retry(attempt)) {
                    break Err(msg);
                }
                retries += 1;
                if let Some(trace) = trace {
                    trace.lock().expect("trace lock").push(
                        u64::from(round),
                        TraceEvent::Redial {
                            from: ctx.id as u64,
                            to: link.from as u64,
                            round: u64::from(round),
                            attempt: u64::from(attempt),
                        },
                    );
                }
                std::thread::sleep(ctx.retry.backoff(attempt, link.seed));
            }
        }
    };
    FetchReport {
        from: link.from,
        round,
        seed: round_seed(link.seed, round),
        outcome: outcome.map(|rejected| FetchOutcome {
            stats,
            gained,
            rejected,
        }),
        stats,
        retries,
    }
}

/// One dial + one session. The error arm carries the failure message,
/// any partial wire counters and gains, and whether the failure is
/// transient (worth a redial) — protocol and machine errors are not.
fn dial_once(
    ctx: &NodeCtx,
    addr: Option<SocketAddr>,
    dial: Dial,
) -> Result<FetchOutcome, (&'static str, WireStats, u64, bool)> {
    let Some(addr) = addr else {
        return Err(("peer not in roster", WireStats::default(), 0, false));
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        // Refused dials are transient: the peer may be mid-restart.
        return Err(("connect failed", WireStats::default(), 0, true));
    };
    let _ = stream.set_read_timeout(ctx.read_timeout);
    let _ = stream.set_write_timeout(ctx.write_timeout);
    let _ = stream.set_nodelay(true);
    let hello = Hello {
        dialer: ctx.id as u32,
        seed: dial.seed,
        epoch: dial.epoch,
    };
    if hello.write_to(&mut stream).is_err() {
        return Err(("hello write failed", WireStats::default(), 0, true));
    }
    match fetch_session(&mut stream, dial.working, dial.config, &ctx.shared) {
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
