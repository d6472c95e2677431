//! `ring5-p16k` and `ring5-p64`: five `icd-node --harness` processes
//! distribute one object over loopback TCP, driven through the daemon's
//! stdin protocol (`ROSTER` / `GO` / `ROUND` / `QUIT`).
//!
//! Harness mode is used because its round barrier makes the traffic a
//! function of the spec; standalone daemons race each other and their
//! wire bytes vary from run to run.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icd_node::{predict, DistributionSpec, SwarmPlan, MAX_ROUNDS};

use super::{op_seed, Env, OpCounts, Workload};
use crate::json::Json;
use crate::procfs;
use crate::spans::Spans;
use crate::stats::median;

const NODES: usize = 5;
const SEEDERS: usize = 1;
/// An operation (and a set-up) that takes longer than this fails.
const DEADLINE: Duration = Duration::from_secs(30);

/// One `icd-node` child. A reader thread stamps each stdout line on
/// arrival, so per-node times are not skewed by the order the driver
/// reads nodes in, and a silent node cannot block the driver past its
/// deadline. Dropping the value kills and reaps the process.
struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl NodeProc {
    fn spawn(bin: &Path, id: usize, spec: &str, stderr: File) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--id", &id.to_string(), "--spec", spec])
            .args(["--listen", "127.0.0.1:0", "--timeout-ms", "30000"])
            .args(["--metrics", "--harness"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write {line:?} to node: {e}"))
    }

    fn recv(&mut self, deadline: Instant) -> Result<(Instant, String), String> {
        let wait = deadline.saturating_duration_since(Instant::now());
        self.lines
            .recv_timeout(wait)
            .map_err(|e| format!("node output: {e}"))
    }

    fn expect(&mut self, prefix: &str, deadline: Instant) -> Result<String, String> {
        let (_, line) = self.recv(deadline)?;
        match line.strip_prefix(prefix) {
            Some(rest) => Ok(rest.trim().to_string()),
            None => Err(format!("expected {prefix:?}, node said {line:?}")),
        }
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        // The process is gone, so its stdout is closed and the reader ends.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

pub struct Cluster {
    spec: String,
    nodes: Vec<NodeProc>,
}

struct Fetch {
    from: usize,
    to: usize,
    bytes: u64,
    frames: u64,
    gained: u64,
}

pub struct Outcome {
    rounds: u32,
    fetches: Vec<Fetch>,
    retries: u64,
    distinct: Vec<usize>,
}

#[derive(Default)]
pub struct Ring5 {
    universe: usize,
    share: usize,
    payload: usize,
    /// The first operation uses the repository's golden `seed=7` spec,
    /// whose per-link bytes must equal the simulator's prediction.
    golden_first: bool,
    stderr: Option<File>,
    ops: f64,
    rounds: f64,
    sessions: f64,
    frames: f64,
    bytes: f64,
    gained: f64,
    retries: f64,
    stall_escalations: f64,
    degraded_sessions: f64,
    predicted: f64,
    predict_matches: f64,
}

impl Ring5 {
    fn new(universe: usize, share: usize, payload: usize, golden_first: bool) -> Self {
        Self {
            universe,
            share,
            payload,
            golden_first,
            ..Self::default()
        }
    }

    /// 1.6 MB object in 16 KiB symbols. The universe stays at 100:
    /// larger ones do not complete within `MAX_ROUNDS`.
    pub fn p16k() -> Self {
        Self::new(100, 37, 16384, false)
    }

    /// README's reference spec: a 5 KB object in 64-byte symbols.
    pub fn p64() -> Self {
        Self::new(80, 30, 64, true)
    }

    fn is_golden(&self, op: u64) -> bool {
        self.golden_first && op == 0
    }
}

fn number<T: std::str::FromStr>(word: &str, line: &str) -> Result<T, String> {
    word.parse()
        .map_err(|_| format!("bad number {word:?} in node line {line:?}"))
}

/// Whether the daemons moved exactly the bytes the simulator predicts on
/// every link of `spec`.
fn matches_prediction(spec: &str, fetches: &[Fetch]) -> Result<bool, String> {
    let spec: DistributionSpec = spec.parse().map_err(|e| format!("{e}"))?;
    let plan = SwarmPlan::new(spec);
    let oracle = predict(&plan);
    Ok(plan
        .links
        .iter()
        .zip(&oracle.link_bytes)
        .all(|(link, &want)| {
            let got: u64 = fetches
                .iter()
                .filter(|f| f.from == link.from && f.to == link.to)
                .map(|f| f.bytes)
                .sum();
            got == want
        }))
}

impl Workload for Ring5 {
    type Input = Cluster;
    type Output = Outcome;

    fn warm_up(&mut self, env: &Env) -> Result<(), String> {
        if env.node_bin.is_file() {
            return Ok(());
        }
        Err(format!(
            "no icd-node at {}; run `cargo build --release -p icd-node` at the repo root \
             or pass --node-bin PATH",
            env.node_bin.display()
        ))
    }

    fn set_up(&mut self, op: u64, env: &Env, spans: &mut Spans) -> Result<Cluster, String> {
        let seed = if self.is_golden(op) {
            7
        } else {
            op_seed(env.seed, op)
        };
        let spec = format!(
            "seed={seed},nodes={NODES},seeders={SEEDERS},universe={},share={},payload={},topo=ring2",
            self.universe, self.share, self.payload
        );
        if self.stderr.is_none() {
            let path = env.out_dir.join("node-stderr.log");
            let file = File::options().create(true).append(true).open(&path);
            self.stderr = Some(file.map_err(|e| format!("open {}: {e}", path.display()))?);
        }
        let stderr = self.stderr.as_ref().expect("opened above");

        let node_bin = &env.node_bin;
        let nodes = spans.time("node.spawn", || {
            let deadline = Instant::now() + DEADLINE;
            let mut nodes = Vec::with_capacity(NODES);
            for id in 0..NODES {
                let stderr = stderr.try_clone().map_err(|e| format!("stderr: {e}"))?;
                nodes.push(NodeProc::spawn(node_bin, id, &spec, stderr)?);
            }
            let mut roster = String::from("ROSTER");
            for (id, node) in nodes.iter_mut().enumerate() {
                let addr = node.expect("LISTEN ", deadline)?;
                roster.push_str(&format!(" {id}={addr}"));
            }
            for node in &mut nodes {
                node.send(&roster)?;
                node.expect("ROSTER-OK", deadline)?;
            }
            Ok::<_, String>(nodes)
        })?;
        Ok(Cluster { spec, nodes })
    }

    fn run(&mut self, cluster: &mut Cluster, spans: &mut Spans) -> Result<Outcome, String> {
        let deadline = Instant::now() + DEADLINE;
        let mut out = Outcome {
            rounds: 0,
            fetches: Vec::new(),
            retries: 0,
            distinct: vec![0; NODES],
        };
        let mut complete = [false; NODES];
        while !complete.iter().all(|&c| c) {
            if out.rounds == MAX_ROUNDS {
                return Err(format!("incomplete after {MAX_ROUNDS} rounds"));
            }
            if out.rounds > 0 {
                // Every node freezes its snapshots before any node dials.
                spans.time("node.barrier", || {
                    for node in &mut cluster.nodes {
                        node.send("ROUND")?;
                    }
                    for node in &mut cluster.nodes {
                        node.expect("ROUND-OK", deadline)?;
                    }
                    Ok::<_, String>(())
                })?;
            }
            out.rounds += 1;
            // GO reaches all five before any reply is read, so the
            // fetches overlap as in a real swarm.
            let go = Instant::now();
            for node in &mut cluster.nodes {
                node.send("GO")?;
            }
            for (id, node) in cluster.nodes.iter_mut().enumerate() {
                loop {
                    let (at, line) = node.recv(deadline)?;
                    let words: Vec<&str> = line.split_whitespace().collect();
                    match words.as_slice() {
                        ["FETCH", _round, from, to, bytes, frames, gained, status] => {
                            if *status != "ok" {
                                return Err(format!("fetch failed: {line}"));
                            }
                            out.fetches.push(Fetch {
                                from: number(from, &line)?,
                                to: number(to, &line)?,
                                bytes: number(bytes, &line)?,
                                frames: number(frames, &line)?,
                                gained: number(gained, &line)?,
                            });
                        }
                        ["RETRY", _round, _from, count] => {
                            out.retries += number::<u64>(count, &line)?;
                        }
                        ["DONE", distinct, done] => {
                            out.distinct[id] = number(distinct, &line)?;
                            complete[id] = *done == "1";
                            spans.record("node.go", go, at);
                            break;
                        }
                        _ => return Err(format!("unexpected node line {line:?}")),
                    }
                }
            }
        }
        Ok(out)
    }

    fn check(
        &mut self,
        op: u64,
        mut cluster: Cluster,
        out: Outcome,
        spans: &mut Spans,
    ) -> Result<OpCounts, String> {
        if let Some(short) = out.distinct[SEEDERS..]
            .iter()
            .find(|&&d| d != self.universe)
        {
            return Err(format!(
                "a leecher holds {short} of {} symbols",
                self.universe
            ));
        }
        // Only the golden spec is byte-asserted: on other seeds a minority
        // of fault-free runs trip stall escalation, which is counted below.
        if self.is_golden(op) || spans.enabled() {
            let matches = matches_prediction(&cluster.spec, &out.fetches)?;
            if self.is_golden(op) && !matches {
                return Err("golden spec: per-link bytes differ from icd_node::predict".to_string());
            }
            self.predicted += 1.0;
            self.predict_matches += f64::from(u8::from(matches));
        }

        let mut peak_rss_mb = 0.0_f64;
        for node in &mut cluster.nodes {
            let rss = procfs::peak_rss_mb(Some(node.child.id()));
            peak_rss_mb = peak_rss_mb.max(rss.unwrap_or(0.0));
            node.send("QUIT")?;
        }
        let deadline = Instant::now() + DEADLINE;
        for node in &mut cluster.nodes {
            // The daemon prints its metrics snapshot on the way out.
            let metrics = loop {
                let (_, line) = node.recv(deadline)?;
                if let Some(text) = line.strip_prefix("METRICS ") {
                    break Json::parse(text)?;
                }
            };
            let gauge = |name: &str| {
                metrics
                    .get("gauges")
                    .and_then(|g| g.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            self.stall_escalations += gauge("node_stall_escalations");
            self.degraded_sessions += gauge("node_degraded_sessions");
            let status = node.child.wait().map_err(|e| format!("wait: {e}"))?;
            if !status.success() {
                return Err(format!("icd-node exited with {status}"));
            }
        }

        let sum = |f: fn(&Fetch) -> u64| out.fetches.iter().map(f).sum::<u64>() as f64;
        let (bytes, frames, gained) = (sum(|f| f.bytes), sum(|f| f.frames), sum(|f| f.gained));
        self.ops += 1.0;
        self.rounds += f64::from(out.rounds);
        self.sessions += out.fetches.len() as f64;
        self.frames += frames;
        self.bytes += bytes;
        self.gained += gained;
        self.retries += out.retries as f64;
        let useful = gained * self.payload as f64;
        Ok(OpCounts {
            work: useful,
            sent: bytes,
            useful,
            // Concurrent sessions race in escalated rounds, so wire bytes
            // are not exact; what every run must deliver is.
            exact: format!("gained={gained}"),
            peak_rss_mb: Some(peak_rss_mb),
        })
    }

    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let med = |name| median(&spans.seconds_of(name)).unwrap_or(0.0);
        let ops = self.ops.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            ("core.sessions", self.sessions / ops),
            ("wire.frames", self.frames / ops),
            ("wire.bytes", self.bytes / ops),
            ("wire.bytes_per_frame", ratio(self.bytes, self.frames)),
            ("node.spawn_s", med("node.spawn")),
            ("node.barrier_s", med("node.barrier")),
            ("node.go_s", med("node.go")),
            ("node.rounds", self.rounds / ops),
            ("node.sessions", self.sessions / ops),
            ("node.fresh_per_frame", ratio(self.gained, self.frames)),
            ("node.retries", self.retries / ops),
            ("node.stall_escalations", self.stall_escalations / ops),
            ("node.degraded_sessions", self.degraded_sessions / ops),
            (
                "node.predict_match_share",
                ratio(self.predict_matches, self.predicted),
            ),
        ]
    }
}
