//! `icd-node` — a real peer process.
//!
//! ```text
//! icd-node --id 2 --spec seed=7,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2 \
//!          [--listen 127.0.0.1:0] [--roster "0=127.0.0.1:4000 1=127.0.0.1:4001"] \
//!          [--timeout-ms 30000] [--max-retries 2] [--harness] \
//!          [--chaos-sever-dialer <id>]... [--chaos-sever-after 4] \
//!          [--metrics] [--trace-out PATH]
//! ```
//!
//! Every process derives the identical distribution plan from `--spec`
//! alone (see `icd_node::DistributionSpec`); the roster only maps peer ids to
//! addresses. On start the node prints `LISTEN <addr>` and begins
//! serving. With `--roster` it immediately fetches over its planned
//! links, prints one `FETCH` line per session and a final `DONE` line,
//! then keeps seeding until stdin closes. With `--harness` it instead
//! waits for commands on stdin (the multi-process test protocol):
//!
//! ```text
//! ROSTER 0=addr 1=addr ...   replace the address book
//! METRICS                    print the metrics snapshot (with --metrics)
//! GO                         run current round's fetches, print FETCH*/DONE
//! ROUND                      round barrier: freeze next round's snapshot
//!                            (ROUND-ERR max-rounds at MAX_ROUNDS - 1)
//! EVENT LEAVE <id>           apply membership events to the roster
//! EVENT REJOIN <id> [addr]
//! EVENT JOIN <addr>
//! EVENT REWIRE <id>
//! STATS                      print degraded-serve / distinct / complete
//! QUIT                       stop serving and exit
//! ```
//!
//! `GO` additionally prints one `RETRY <round> <from> <count>` line per
//! fetch that needed redials — never on a fault-free run, so existing
//! harnesses that pattern-match `FETCH`/`DONE` are unaffected.
//!
//! `--timeout-ms` sets both the read and write deadline on every
//! socket; `--max-retries` bounds redials after transient failures
//! (peer closed, deadline fired, truncated stream). The
//! `--chaos-sever-*` flags arm deterministic serve-side fault
//! injection: the first session from each listed dialer is cut after a
//! fixed number of data frames (chaos tests only).
//!
//! The harness sends `ROUND` to **every** node (and collects every
//! `ROUND-OK`) before sending any `GO` — that barrier is what makes the
//! swarm's per-link wire bytes exactly match the simulator, which
//! freezes all snapshots at connect time.
//!
//! `--metrics` accumulates session/retry counters and prints one
//! `METRICS {json}` line at shutdown (and on the `METRICS` harness
//! command); `--trace-out PATH` records per-round session spans,
//! redials, and stall escalations — stamped with round numbers, never
//! wall-clock time — and appends each round's records to PATH as JSONL
//! before the round's `DONE` line, so a killed daemon leaves every round
//! it finished.
//!
//! The spec and roster can also come from `ICD_NODE_SPEC` /
//! `ICD_NODE_ROSTER` environment variables (flags win).

use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::sync::Arc;
use std::time::Duration;

use icd_node::{
    parse_roster, DaemonConfig, DistributionSpec, Node, RetryPolicy, Roster, ServeChaos, MAX_ROUNDS,
};
use icd_obs::{MetricsRegistry, SyncTraceHandle, TraceBuf};
use icd_swarm::SwarmEvent;

fn fatal(msg: &str) -> ! {
    eprintln!("icd-node: {msg}");
    std::process::exit(2);
}

/// Trace ring capacity: ample for any harness run (a few spans and
/// redials per round), bounded so a runaway swarm cannot grow it.
const TRACE_CAP: usize = 1 << 16;

struct Args {
    id: usize,
    spec: DistributionSpec,
    listen: String,
    roster: Option<String>,
    timeout_ms: u64,
    max_retries: u32,
    harness: bool,
    chaos_sever_dialers: Vec<u32>,
    chaos_sever_after: u64,
    metrics: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut id = None;
    let mut spec = std::env::var("ICD_NODE_SPEC").ok();
    let mut listen = "127.0.0.1:0".to_string();
    let mut roster = std::env::var("ICD_NODE_ROSTER").ok();
    let mut timeout_ms = 30_000;
    let mut max_retries = RetryPolicy::default().max_retries;
    let mut harness = false;
    let mut chaos_sever_dialers = Vec::new();
    let mut chaos_sever_after = 4;
    let mut metrics = false;
    let mut trace_out = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fatal(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--id" => {
                id = Some(value("--id").parse().unwrap_or_else(|_| fatal("bad --id")));
            }
            "--spec" => spec = Some(value("--spec")),
            "--listen" => listen = value("--listen"),
            "--roster" => roster = Some(value("--roster")),
            "--timeout-ms" => {
                timeout_ms = value("--timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fatal("bad --timeout-ms"));
            }
            "--max-retries" => {
                max_retries = value("--max-retries")
                    .parse()
                    .unwrap_or_else(|_| fatal("bad --max-retries"));
            }
            "--harness" => harness = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--chaos-sever-dialer" => {
                chaos_sever_dialers.push(
                    value("--chaos-sever-dialer")
                        .parse()
                        .unwrap_or_else(|_| fatal("bad --chaos-sever-dialer")),
                );
            }
            "--chaos-sever-after" => {
                chaos_sever_after = value("--chaos-sever-after")
                    .parse()
                    .unwrap_or_else(|_| fatal("bad --chaos-sever-after"));
            }
            other => fatal(&format!("unknown flag {other:?}")),
        }
    }

    let Some(id) = id else {
        fatal("--id is required")
    };
    let Some(spec) = spec else {
        fatal("--spec (or ICD_NODE_SPEC) is required")
    };
    let spec: DistributionSpec = spec
        .parse()
        .unwrap_or_else(|e| fatal(&format!("bad spec: {e}")));
    if id >= spec.nodes {
        fatal(&format!("--id {id} outside roster 0..{}", spec.nodes));
    }
    Args {
        id,
        spec,
        listen,
        roster,
        timeout_ms,
        max_retries,
        harness,
        chaos_sever_dialers,
        chaos_sever_after,
        metrics,
        trace_out,
    }
}

/// The `--trace-out` file, appended round by round.
///
/// Each flush writes only the records pushed since the last one, so the
/// file of a graceful run holds the same bytes as one export at
/// shutdown would (the ring never evicts at `TRACE_CAP` in a harness
/// run). Appended bytes survive the process being killed, not the host
/// crashing: nothing is synced to disk.
struct TraceOut {
    trace: SyncTraceHandle,
    path: String,
    file: File,
    next_seq: u64,
}

impl TraceOut {
    /// Creates (or truncates) `path`; `None`, logged, when it cannot.
    fn create(path: &str) -> Option<Self> {
        match File::create(path) {
            Ok(file) => Some(Self {
                trace: TraceBuf::shared_sync(TRACE_CAP),
                path: path.to_string(),
                file,
                next_seq: 0,
            }),
            Err(e) => {
                eprintln!("icd-node: creating trace file {path}: {e}; tracing off");
                None
            }
        }
    }

    /// Appends the records pushed since the last flush. Failures are
    /// logged: the trace never stops the daemon.
    fn flush(&mut self) {
        let Ok(buf) = self.trace.lock() else {
            eprintln!("icd-node: trace lock poisoned; {} not written", self.path);
            return;
        };
        let mut out = BufWriter::new(&self.file);
        match buf
            .write_jsonl_since(self.next_seq, &mut out)
            .and_then(|next| out.flush().map(|()| next))
        {
            Ok(next) => self.next_seq = next,
            Err(e) => eprintln!("icd-node: writing trace to {}: {e}", self.path),
        }
    }
}

/// Runs the current round's fetches and prints the harness report lines.
/// The round's trace records are appended before `DONE`, so a harness
/// that has read `DONE` finds them in the file.
fn go(node: &Node, roster: &Roster, my_id: usize, trace: Option<&mut TraceOut>) {
    let mut out = std::io::stdout().lock();
    for report in node.run_fetches(roster) {
        let (gained, status): (u64, String) = match report.outcome {
            Ok(outcome) => (outcome.gained, "ok".to_string()),
            Err(msg) => (0, msg.replace(' ', "-")),
        };
        if report.retries > 0 {
            writeln!(
                out,
                "RETRY {} {} {}",
                report.round, report.from, report.retries
            )
            .expect("stdout");
        }
        writeln!(
            out,
            "FETCH {} {} {} {} {} {} {}",
            report.round,
            report.from,
            my_id,
            report.stats.total(),
            report.stats.frames,
            gained,
            status
        )
        .expect("stdout");
    }
    if let Some(trace) = trace {
        trace.flush();
    }
    let shared = node.shared();
    writeln!(
        out,
        "DONE {} {}",
        shared.distinct(),
        u8::from(shared.is_complete())
    )
    .expect("stdout");
    out.flush().expect("stdout");
}

fn apply_event(roster: &mut Roster, words: &[&str]) {
    let parse_addr = |s: &str| s.parse().ok();
    let applied = match words {
        ["LEAVE", id] => id
            .parse()
            .ok()
            .and_then(|p| roster.apply(SwarmEvent::Leave(p), None)),
        ["REJOIN", id] => id
            .parse()
            .ok()
            .and_then(|p| roster.apply(SwarmEvent::Rejoin(p), None)),
        ["REJOIN", id, addr] => match (id.parse().ok(), parse_addr(addr)) {
            (Some(p), a @ Some(_)) => roster.apply(SwarmEvent::Rejoin(p), a),
            _ => None,
        },
        ["JOIN", addr] => roster.apply(SwarmEvent::Join, parse_addr(addr)),
        ["REWIRE", id] => id
            .parse()
            .ok()
            .and_then(|p| roster.apply(SwarmEvent::Rewire(p), None)),
        _ => None,
    };
    match applied {
        Some(p) => println!("EVENT-OK {p}"),
        None => println!("EVENT-ERR"),
    }
}

fn main() {
    let args = parse_args();
    let chaos = (!args.chaos_sever_dialers.is_empty()).then(|| ServeChaos {
        sever_dialers: args.chaos_sever_dialers.clone(),
        frame_budget: args.chaos_sever_after,
    });
    let config = DaemonConfig {
        id: args.id,
        spec: args.spec,
        listen: args.listen.clone(),
        read_timeout: Some(Duration::from_millis(args.timeout_ms)),
        write_timeout: Some(Duration::from_millis(args.timeout_ms)),
        retry: RetryPolicy::with_retries(args.max_retries),
        chaos,
    };
    let mut node = Node::start(config).unwrap_or_else(|e| fatal(&format!("bind failed: {e}")));
    let registry = args.metrics.then(MetricsRegistry::shared);
    if let Some(registry) = &registry {
        node.set_metrics(Arc::clone(registry));
    }
    let mut trace = args.trace_out.as_deref().and_then(TraceOut::create);
    if let Some(trace) = &trace {
        node.set_trace(Arc::clone(&trace.trace));
    }
    println!("LISTEN {}", node.local_addr());
    std::io::stdout().flush().expect("stdout");

    let mut roster = match &args.roster {
        Some(text) => parse_roster(text, args.spec.nodes)
            .unwrap_or_else(|e| fatal(&format!("bad roster: {e}"))),
        None => Roster::new(args.spec.nodes),
    };

    if !args.harness && args.roster.is_some() {
        // Standalone reconciliation loop. Without a cross-process
        // barrier the per-round snapshots are only locally consistent
        // (peers ahead of us serve their live set), so this mode
        // guarantees completion, not simulator byte parity — the
        // harness protocol below provides the lockstep for that.
        go(&node, &roster, args.id, trace.as_mut());
        while !node.shared().is_complete() && node.current_round() + 1 < MAX_ROUNDS {
            node.advance_round();
            go(&node, &roster, args.id, trace.as_mut());
        }
    }

    // Serve until stdin closes (or QUIT); the harness drives commands
    // over the same channel.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => {}
            ["QUIT"] => break,
            ["GO"] => go(&node, &roster, args.id, trace.as_mut()),
            ["ROUND"] if node.current_round() + 1 < MAX_ROUNDS => {
                println!("ROUND-OK {}", node.advance_round());
            }
            ["ROUND"] => println!("ROUND-ERR max-rounds"),
            ["STATS"] => {
                let shared = node.shared();
                println!(
                    "STATS {} {} {}",
                    node.degraded_sessions(),
                    shared.distinct(),
                    u8::from(shared.is_complete())
                );
            }
            ["METRICS"] => match &registry {
                Some(registry) => {
                    node.fill_metrics();
                    println!("METRICS {}", registry.snapshot().to_json());
                }
                None => println!("METRICS-ERR not-enabled"),
            },
            ["ROSTER", rest @ ..] => match parse_roster(&rest.join(" "), args.spec.nodes) {
                Ok(r) => {
                    roster = r;
                    println!("ROSTER-OK {}", roster.len());
                }
                Err(e) => println!("ROSTER-ERR {}", e.replace(' ', "-")),
            },
            ["EVENT", rest @ ..] => apply_event(&mut roster, rest),
            other => println!("ERR unknown-command {}", other.join("-")),
        }
        std::io::stdout().flush().expect("stdout");
    }
    node.stop();
    if let Some(registry) = &registry {
        node.fill_metrics();
        println!("METRICS {}", registry.snapshot().to_json());
        std::io::stdout().flush().expect("stdout");
    }
    if let Some(trace) = &mut trace {
        trace.flush();
    }
}
