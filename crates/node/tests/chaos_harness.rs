//! Deterministic chaos for the real peer daemon.
//!
//! Four layers, cheapest first:
//!
//! 1. [`read_deadline_trips_fast_on_half_frame`] — a peer that writes
//!    half a frame and stalls trips the read deadline instead of
//!    wedging the fetch thread.
//! 2. [`resumption_after_cut_never_double_counts`] — proptest: a fetch
//!    cut at an arbitrary point and resumed on the now-larger working
//!    set never double-counts a symbol in the [`SharedWorkingSet`].
//! 3. [`in_process_sever_resumes_without_refetching`] — two real
//!    [`Node`]s, the server armed with a [`ServeChaos`] plan: the
//!    dialer's session is cut after a fixed frame budget, the retry
//!    resumes on a Live-epoch session, and the node still completes
//!    with exactly one redial.
//! 4. [`severed_then_killed_swarm_recovers_with_bounded_overhead`] —
//!    the crown: five OS processes, one socket deterministically
//!    severed in round 0, one non-seed peer SIGKILLed mid-round and
//!    restarted. Every leecher completes, the retry counters match the
//!    [`predict_faulty`] replay, and total wire bytes stay under the
//!    replay's documented ceiling.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use icd_core::machine::{DriveError, FramePump};
use icd_core::{ReceiverMachine, SenderMachine, SessionAction, SessionConfig, WorkingSet};
use icd_fountain::EncodedSymbol;
use icd_node::{
    fetch_session, predict_faulty, DaemonConfig, DistributionSpec, Node, Roster, ServeChaos,
    SharedWorkingSet, SwarmPlan, MAX_ROUNDS,
};
use icd_overlay::session_payload;
use icd_swarm::TopologyKind;
use proptest::prelude::*;

/// The workspace reference swarm geometry (same as `swarm_harness.rs`).
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

fn ws_of(ids: impl IntoIterator<Item = u64>, payload: usize) -> WorkingSet {
    WorkingSet::from_symbols(ids.into_iter().map(|id| EncodedSymbol {
        id,
        payload: session_payload(id, payload),
    }))
}

// ---------------------------------------------------------------- layer 1

#[test]
fn read_deadline_trips_fast_on_half_frame() {
    // A server that accepts, writes half a frame prefix, and stalls.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(&[0x2A, 0x00]).expect("half prefix");
        stream.flush().expect("flush");
        // Hold the socket open well past the client's deadline.
        std::thread::sleep(Duration::from_secs(8));
        drop(stream);
    });

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("deadline");
    let shared = SharedWorkingSet::new(ws_of(0..4, 16), 16);
    let started = Instant::now();
    let result = fetch_session(
        &mut stream,
        ws_of(0..4, 16),
        SessionConfig::new().with_request(12).with_seed(5),
        &shared,
    );
    let elapsed = started.elapsed();
    assert!(
        matches!(
            result,
            Err(icd_node::FetchError {
                error: DriveError::ReadTimeout { .. },
                gained: 0,
            })
        ),
        "stalled peer must surface as a read timeout, got {result:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must fire fast, took {elapsed:?}"
    );
    // The fetch thread is free; the server is still asleep. Don't join
    // it — the test must not wait out the stall it just survived.
    drop(server);
}

// ---------------------------------------------------------------- layer 2

/// Runs one fetch against an in-memory sender, cutting it after
/// `cut_steps` pump steps, then resumes a fresh session from the
/// shared set's current state. Returns (gained_first, gained_resumed).
fn cut_and_resume(
    universe: u64,
    share: u64,
    cut_steps: usize,
    seed: u64,
) -> (u64, u64, SharedWorkingSet) {
    const PAYLOAD: usize = 24;
    let shared = SharedWorkingSet::new(ws_of(0..share, PAYLOAD), universe as usize);
    let sender_inventory = ws_of(0..universe, PAYLOAD);

    let ingest = |actions: &mut Vec<SessionAction>, machine: &ReceiverMachine, gained: &mut u64| {
        for action in actions.drain(..) {
            if let SessionAction::SymbolDecoded(id) = action {
                let payload = machine
                    .working()
                    .payload(id)
                    .expect("decoded symbol present")
                    .clone();
                if shared.ingest(EncodedSymbol { id, payload }) {
                    *gained += 1;
                }
            }
        }
    };

    // First attempt: cut after `cut_steps` pump steps — the in-memory
    // twin of a severed socket.
    let mut gained_first = 0u64;
    {
        let mut recv = ReceiverMachine::new(
            ws_of(0..share, PAYLOAD),
            SessionConfig::new()
                .with_request(universe - share)
                .with_seed(seed),
        );
        let mut send = SenderMachine::new(sender_inventory.clone(), seed ^ 1);
        let mut pump = FramePump::new();
        let mut actions = Vec::new();
        pump.start(&mut recv, &mut send, &mut actions)
            .expect("start");
        ingest(&mut actions, &recv, &mut gained_first);
        for _ in 0..cut_steps {
            if pump.is_idle() {
                break;
            }
            pump.step(&mut recv, &mut send, &mut actions).expect("step");
            ingest(&mut actions, &recv, &mut gained_first);
        }
        // The cut: the session is simply abandoned here.
    }

    // Resumption: fresh machines from the shared set's *current* state,
    // new seed — exactly the daemon's Live-epoch redial.
    let mut gained_resumed = 0u64;
    {
        let held = shared.sorted_ids();
        let missing = universe - held.len() as u64;
        if missing > 0 {
            let mut recv = ReceiverMachine::new(
                ws_of(held.iter().copied(), PAYLOAD),
                SessionConfig::new()
                    .with_request(missing)
                    .with_seed(seed ^ 2),
            );
            let mut send = SenderMachine::new(sender_inventory, seed ^ 3);
            let mut pump = FramePump::new();
            let mut actions = Vec::new();
            pump.start(&mut recv, &mut send, &mut actions)
                .expect("start");
            ingest(&mut actions, &recv, &mut gained_resumed);
            while !pump.is_idle() {
                pump.step(&mut recv, &mut send, &mut actions).expect("step");
                ingest(&mut actions, &recv, &mut gained_resumed);
            }
            assert!(recv.is_finished(), "resumed session must finish");
        }
    }
    (gained_first, gained_resumed, shared)
}

proptest! {
    /// However the first session is cut, the gains of the cut attempt
    /// and its resumption partition the missing set: nothing is lost,
    /// nothing is counted twice.
    #[test]
    fn resumption_after_cut_never_double_counts(
        universe in 24u64..56,
        share in 6u64..18,
        cut_steps in 0usize..24,
        seed in 0u64..1_000,
    ) {
        let (first, resumed, shared) = cut_and_resume(universe, share, cut_steps, seed);
        // Dedup is exact: total fresh gains equal the distinct growth.
        prop_assert_eq!(
            first + resumed,
            shared.distinct() as u64 - share,
            "gains must partition the missing set"
        );
        // The resumption finished the job.
        prop_assert!(shared.is_complete());
        prop_assert_eq!(shared.distinct(), universe as usize);
    }
}

// ---------------------------------------------------------------- layer 3

#[test]
fn in_process_sever_resumes_without_refetching() {
    let run = || {
        // Two nodes, one directed link 0 → 1 (a power-law seed clique
        // of two; rings need three nodes).
        let spec = DistributionSpec {
            seed: 11,
            nodes: 2,
            seeders: 1,
            universe: 60,
            share: 20,
            payload: 32,
            topology: TopologyKind::PowerLaw { m: 1 },
        };
        // The server severs dialer 1's first session after 3 data
        // frames; the dialer's retry policy resumes it.
        let server = Node::start(DaemonConfig {
            chaos: Some(ServeChaos {
                sever_dialers: vec![1],
                frame_budget: 3,
            }),
            ..DaemonConfig::local(0, spec)
        })
        .expect("start server");
        let leecher = Node::start(DaemonConfig::local(1, spec)).expect("start leecher");
        let mut roster = Roster::new(spec.nodes);
        roster.set(0, server.local_addr());
        roster.set(1, leecher.local_addr());

        let reports = leecher.run_fetches(&roster);
        assert_eq!(reports.len(), 1, "one planned upstream link");
        let report = reports[0];
        let outcome = report.outcome.expect("fetch must recover");
        assert_eq!(report.retries, 1, "one sever, one redial");
        assert!(leecher.shared().is_complete(), "leecher must complete");
        // No double counting across the cut: fresh gains equal the
        // missing set exactly.
        assert_eq!(outcome.gained, (spec.universe - spec.share) as u64);
        assert_eq!(leecher.shared().distinct(), spec.universe);
        // The server saw both sessions and booked the severed one as
        // degraded.
        assert_eq!(server.degraded_sessions(), 1);
        let stats = server.serve_stats();
        assert_eq!(stats.len(), 2, "severed attempt + successful retry");
        assert!(stats.iter().all(|&(dialer, _)| dialer == 1));
        (outcome.gained, leecher.shared().distinct())
    };
    // The whole recovery is deterministic.
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------- layer 4

/// One `icd-node` child process under harness control (same protocol
/// as `swarm_harness.rs`, plus `RETRY` lines and chaos flags).
struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    fn spawn(id: usize, spec: &DistributionSpec, extra: &[String]) -> Self {
        let mut args = vec![
            "--id".to_string(),
            id.to_string(),
            "--spec".to_string(),
            spec.to_string(),
            "--timeout-ms".to_string(),
            "30000".to_string(),
            "--harness".to_string(),
        ];
        args.extend_from_slice(extra);
        let mut child = Command::new(env!("CARGO_BIN_EXE_icd-node"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn icd-node");
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        Self {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write to child");
        self.stdin.flush().expect("flush to child");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read from child");
        assert!(n > 0, "child closed stdout unexpectedly");
        line.trim().to_string()
    }

    fn expect_prefix(&mut self, prefix: &str) -> String {
        let line = self.read_line();
        assert!(
            line.starts_with(prefix),
            "expected {prefix:?}, got {line:?}"
        );
        line
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One fetch line the harness observed.
#[derive(Debug)]
struct FetchLine {
    round: u32,
    from: usize,
    total: u64,
    ok: bool,
}

/// Drives `GO` on one process and parses its `RETRY*`/`FETCH*`/`DONE`
/// block. Returns (fetches, retries keyed by upstream peer).
fn go(p: &mut NodeProc, me: usize) -> (Vec<FetchLine>, HashMap<usize, u32>, usize, bool) {
    p.send("GO");
    let mut fetches = Vec::new();
    let mut retries: HashMap<usize, u32> = HashMap::new();
    loop {
        let line = p.read_line();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["RETRY", _round, from, count] => {
                let from: usize = from.parse().expect("retry from");
                let count: u32 = count.parse().expect("retry count");
                *retries.entry(from).or_default() += count;
            }
            ["FETCH", r, from, to, total, _frames, _gained, status] => {
                assert_eq!(to.parse::<usize>().expect("to"), me);
                fetches.push(FetchLine {
                    round: r.parse().expect("round"),
                    from: from.parse().expect("from"),
                    total: total.parse().expect("total"),
                    ok: *status == "ok",
                });
            }
            ["DONE", d, c] => {
                return (fetches, retries, d.parse().expect("distinct"), *c == "1");
            }
            _ => panic!("unexpected harness line: {line}"),
        }
    }
}

#[test]
fn severed_then_killed_swarm_recovers_with_bounded_overhead() {
    let spec = spec();
    let plan = SwarmPlan::new(spec);

    // The socket to sever: a planned link served by the seeder, dialed
    // by a peer we will NOT kill (so the two faults stay independent).
    let kill_victim: usize = 1; // non-seed by construction (seeders = 1)
    let sever = plan
        .links
        .iter()
        .find(|l| l.from == 0 && l.to != kill_victim)
        .expect("seeder serves someone we keep alive");
    let (sfrom, sto) = (sever.from, sever.to);
    assert!(kill_victim >= spec.seeders, "kill victim must be non-seed");

    // The simulator twin: replay the sever, get the recovery ceiling.
    let oracle = predict_faulty(&plan, &[(sfrom, sto)], 24);
    assert!(oracle.faulty.completed.iter().all(|&c| c));
    assert_eq!(oracle.retries, 1);

    // Spawn the swarm; the severed link's server gets the chaos flags.
    let chaos_flags = |id: usize| -> Vec<String> {
        if id == sfrom {
            vec![
                "--chaos-sever-dialer".to_string(),
                sto.to_string(),
                "--chaos-sever-after".to_string(),
                "4".to_string(),
            ]
        } else {
            Vec::new()
        }
    };
    let mut procs: Vec<NodeProc> = (0..spec.nodes)
        .map(|i| NodeProc::spawn(i, &spec, &chaos_flags(i)))
        .collect();
    let mut addrs: Vec<String> = procs
        .iter_mut()
        .map(|p| p.expect_prefix("LISTEN ")["LISTEN ".len()..].to_string())
        .collect();
    let send_roster = |procs: &mut [NodeProc], addrs: &[String]| {
        let roster = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{i}={a}"))
            .collect::<Vec<_>>()
            .join(" ");
        for p in procs.iter_mut() {
            p.send(&format!("ROSTER {roster}"));
            p.expect_prefix("ROSTER-OK");
        }
    };
    send_roster(&mut procs, &addrs);

    let mut total_bytes = 0u64;
    let mut sever_retries = 0u32;
    let mut kill_round_retries = 0u32;
    let mut complete = vec![false; spec.nodes];
    let mut distinct = vec![0usize; spec.nodes];

    // Round 0: the sever fires on the armed link; everything recovers.
    for i in 0..spec.nodes {
        let (fetches, retries, d, c) = go(&mut procs[i], i);
        for f in &fetches {
            assert!(f.ok, "round 0 fetch {} -> {i} must recover", f.from);
            assert_eq!(f.round, 0);
            total_bytes += f.total;
        }
        if i == sto {
            sever_retries += retries.get(&sfrom).copied().unwrap_or(0);
        } else {
            assert!(
                retries.is_empty(),
                "only the severed dialer retries in round 0, {i} saw {retries:?}"
            );
        }
        distinct[i] = d;
        complete[i] = c;
    }
    assert_eq!(
        u64::from(sever_retries),
        oracle.retries,
        "daemon redials must match the replay"
    );

    // Round 1: SIGKILL the victim right after its own fetches, while
    // the rest of the round is still running — peers dialing it exhaust
    // their retries and report the failure without hanging.
    for p in &mut procs {
        p.send("ROUND");
        p.expect_prefix("ROUND-OK");
    }
    let mut killed_mid_round = false;
    for i in 0..spec.nodes {
        let (fetches, retries, d, c) = go(&mut procs[i], i);
        for f in &fetches {
            total_bytes += f.total;
            if killed_mid_round && f.from == kill_victim {
                // Dead upstream: the fetch fails after its retry
                // budget, never hangs.
                assert!(!f.ok, "fetch from the killed peer cannot succeed");
            } else {
                assert!(f.ok, "round 1 fetch {} -> {i} failed", f.from);
            }
        }
        if killed_mid_round {
            kill_round_retries += retries.get(&kill_victim).copied().unwrap_or(0);
        }
        distinct[i] = d;
        complete[i] = c;
        if i == kill_victim {
            procs[i].child.kill().expect("SIGKILL victim");
            procs[i].child.wait().expect("reap victim");
            killed_mid_round = true;
        }
    }
    if kill_victim < spec.nodes - 1 {
        assert!(
            kill_round_retries > 0,
            "peers dialing the corpse must have retried before giving up"
        );
    }

    // Restart the victim: fresh process, same id, new port — it lost
    // all progress and rejoins at the swarm's current round via the
    // harness barrier (its hello carries the aligned epoch).
    procs[kill_victim] = NodeProc::spawn(kill_victim, &spec, &[]);
    addrs[kill_victim] = procs[kill_victim].expect_prefix("LISTEN ")["LISTEN ".len()..].to_string();
    // Catch the newcomer up to the current round barrier.
    procs[kill_victim].send("ROUND");
    procs[kill_victim].expect_prefix("ROUND-OK 1");
    send_roster(&mut procs, &addrs);
    complete[kill_victim] = false;

    // Remaining rounds: ordinary lockstep until everyone completes.
    let mut finished = false;
    for _round in 2..MAX_ROUNDS {
        if complete.iter().all(|&c| c) {
            finished = true;
            break;
        }
        for p in &mut procs {
            p.send("ROUND");
            p.expect_prefix("ROUND-OK");
        }
        for i in 0..spec.nodes {
            let (fetches, _retries, d, c) = go(&mut procs[i], i);
            for f in &fetches {
                assert!(f.ok, "post-restart fetch {} -> {i} failed", f.from);
                total_bytes += f.total;
            }
            distinct[i] = d;
            complete[i] = c;
        }
    }
    finished = finished || complete.iter().all(|&c| c);

    for p in &mut procs {
        p.send("QUIT");
        let status = p.child.wait().expect("wait child");
        assert!(status.success(), "child exited {status:?}");
    }

    assert!(finished, "swarm must complete within MAX_ROUNDS");
    assert_eq!(
        distinct[spec.seeders..],
        vec![spec.universe; spec.nodes - spec.seeders][..],
        "every leecher ends with the full universe"
    );

    // Bounded overhead: the replay ceiling for the sever, plus slack
    // for the crash — the restarted peer re-fetches over its links
    // (bounded by twice their fault-free cost), and the post-crash
    // symbol distribution can strand survivors on digest false
    // positives, costing stalled-round handshakes plus one speculative
    // escalation round (bounded by one extra fault-free run's traffic).
    let crash_slack: u64 = plan
        .links
        .iter()
        .enumerate()
        .filter(|(_, l)| l.from == kill_victim || l.to == kill_victim)
        .map(|(i, _)| 2 * oracle.base.link_bytes[i])
        .sum::<u64>()
        + oracle.base.total_bytes();
    let bound = oracle.byte_bound() + crash_slack;
    assert!(
        total_bytes <= bound,
        "recovery overhead unbounded: {total_bytes} > {bound}"
    );
    // And the run wasn't vacuous: at least the object actually moved.
    assert!(total_bytes >= oracle.base.total_bytes() / 2);
}
