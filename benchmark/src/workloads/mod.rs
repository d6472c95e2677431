//! The measuring loop every workload runs under, and the workload table.
//!
//! One operation is three calls: `set_up` (timed as set-up), `run` (the
//! timed operation) and `check` (untimed: verifies the output, tears
//! down). Operations run one at a time from this thread — a closed loop
//! with one client — until set-up plus operation time reaches the time
//! box; checks are extra.

use std::path::PathBuf;
use std::time::Instant;

use crate::procfs;
use crate::spans::Spans;

mod fig5;
mod file_pair;
mod ring;
mod swarm;

/// Every workload, in the order the suite runs them. `BENCHMARK.json` and
/// README.md record why each is here.
pub const WORKLOADS: [&str; 7] = [
    "file-pair-32m",
    "ring5-p16k",
    "ring5-p64",
    "swarm10k",
    "swarm10k-shard2",
    "swarm10k-traced",
    "fig5-sweep",
];

/// What the command line fixes for one workload run.
pub struct Env {
    pub seed: u64,
    pub node_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// Seed of operation `op`: a pure function of the run seed and the index,
/// so the traced and untraced passes of one seed share their operations.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    splitmix(seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// SplitMix64 finalizer; the benchmark's own generator, so inputs do not
/// change when the product's hashing does.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one verified operation contributed.
pub struct OpCounts {
    /// Units of work done: useful payload bytes, engine events, or
    /// simulated ticks (README names the unit per workload).
    pub work: f64,
    /// Sent ÷ useful is the paper's figure of merit: wire bytes per useful
    /// byte on socket workloads, packets per needed symbol on simulated.
    pub sent: f64,
    pub useful: f64,
    /// Counts that must repeat exactly for this operation's seed; the
    /// suite compares them between the traced and untraced pass.
    pub exact: String,
    /// Peak RSS of the operation's own processes, where the work is not
    /// done in this one (daemon workloads).
    pub peak_rss_mb: Option<f64>,
}

pub trait Workload {
    type Input;
    type Output;

    /// Untimed work before the loop (caches, lazy set-up).
    fn warm_up(&mut self, _env: &Env) -> Result<(), String> {
        Ok(())
    }
    fn set_up(&mut self, op: u64, env: &Env, spans: &mut Spans) -> Result<Self::Input, String>;
    fn run(&mut self, input: &mut Self::Input, spans: &mut Spans) -> Result<Self::Output, String>;
    fn check(
        &mut self,
        op: u64,
        input: Self::Input,
        output: Self::Output,
        spans: &mut Spans,
    ) -> Result<OpCounts, String>;
    /// Per-layer values once the loop ends; unnamed metrics read 0.
    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)>;
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    pub work_per_s: Vec<f64>,
    pub sent: f64,
    pub useful: f64,
    pub cpu_s: f64,
    /// Peak resident set of this process during each verified operation,
    /// set-up included.
    pub own_peak_rss_mb: Vec<f64>,
    /// Peak resident set of each verified operation's own processes
    /// (daemon workloads; empty otherwise).
    pub node_peak_rss_mb: Vec<f64>,
    /// `(op index, exact counts)` of each verified operation.
    pub exact: Vec<(u64, String)>,
    pub layers: Vec<(&'static str, f64)>,
}

fn measure<W: Workload>(mut w: W, env: &Env, seconds: f64, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    if let Err(e) = w.warm_up(env) {
        report.attempted = 1;
        report.errors.push(format!("warm-up: {e}"));
        return report;
    }
    let cpu_before = procfs::self_cpu_s();
    let mut measured = 0.0;
    let mut op = 0;
    // Three failed operations make the run invalid; stop instead of
    // spending the time box on a workload that cannot run.
    while (op == 0 || measured < seconds) && report.errors.len() < 3 {
        report.attempted += 1;
        spans.set_op(op);
        procfs::reset_peak_rss();
        let t0 = Instant::now();
        spans.begin("setup");
        let input = w.set_up(op, env, spans);
        spans.end();
        let t1 = Instant::now();
        let ran = input.and_then(|mut input| {
            spans.begin("op");
            let output = w.run(&mut input, spans);
            spans.end();
            output.map(|output| (input, output))
        });
        let t2 = Instant::now();
        measured += (t2 - t0).as_secs_f64();
        // Read before the check, which may allocate more than the op did.
        let own_peak_rss_mb = procfs::peak_rss_mb(None);
        match ran.and_then(|(input, output)| w.check(op, input, output, spans)) {
            Ok(counts) => {
                let op_s = (t2 - t1).as_secs_f64();
                report.setup_s.push((t1 - t0).as_secs_f64());
                report.op_s.push(op_s);
                report.work_per_s.push(counts.work / op_s);
                report.sent += counts.sent;
                report.useful += counts.useful;
                report.own_peak_rss_mb.extend(own_peak_rss_mb);
                report.node_peak_rss_mb.extend(counts.peak_rss_mb);
                report.exact.push((op, counts.exact));
            }
            Err(e) => report.errors.push(format!("op {op}: {e}")),
        }
        op += 1;
    }
    if let (Some(before), Some(after)) = (cpu_before, procfs::self_cpu_s()) {
        report.cpu_s = after - before;
    }
    report.layers = w.layers(spans);
    report
}

/// Runs workload `name` for `seconds`; `None` if there is no such workload.
pub fn run(name: &str, env: &Env, seconds: f64, spans: &mut Spans) -> Option<Report> {
    Some(match name {
        "file-pair-32m" => measure(file_pair::FilePair::default(), env, seconds, spans),
        "ring5-p16k" => measure(ring::Ring5::p16k(), env, seconds, spans),
        "ring5-p64" => measure(ring::Ring5::p64(), env, seconds, spans),
        "swarm10k" => measure(swarm::Swarm10k::serial(), env, seconds, spans),
        "swarm10k-shard2" => measure(swarm::Swarm10k::shard2(), env, seconds, spans),
        "swarm10k-traced" => measure(swarm::Swarm10k::traced(), env, seconds, spans),
        "fig5-sweep" => measure(fig5::Fig5::default(), env, seconds, spans),
        _ => return None,
    })
}
