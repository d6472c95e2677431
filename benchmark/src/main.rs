//! The repo benchmark's runner. See `benchmark/README.md`.
//!
//! ```text
//! icd-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one pass
//! icd-benchmark [--seed N] [--workload NAME]... [--quick]          suite: both passes, results.json
//! icd-benchmark agree [--seed N] [--workload NAME]...              two sets of untraced runs, compared
//! ```
//!
//! A single-workload run prints every metric by name and, as its last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The suite runs each workload in a
//! fresh child process of this runner, so peak RSS, CPU time and
//! `ICD_SHARDS` are per workload.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use icd_benchmark::json::Json;
use icd_benchmark::spans::Spans;
use icd_benchmark::workloads::{self, Env, Report, WORKLOADS};
use icd_benchmark::{catalog, stats};

/// Seconds one pass of one workload measures unless `--seconds` says
/// otherwise; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick`: one short time box per workload, for the smoke test only.
const QUICK_SECONDS: f64 = 0.5;

struct Args {
    agree: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    workloads: Vec<String>,
    trace: Option<bool>,
    node_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        agree: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        quick: false,
        workloads: Vec::new(),
        trace: None,
        node_bin: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    if words.peek().map(String::as_str) == Some("agree") {
        args.agree = true;
        words.next();
    }
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--workload" => args.workloads.push(value()?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--node-bin" => args.node_bin = Some(PathBuf::from(value()?)),
            "--quick" => {
                args.quick = true;
                args.seconds = QUICK_SECONDS;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(unknown) = args
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!(
            "no workload {unknown:?}; there are {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.trace.is_some() && (args.workloads.len() != 1 || args.agree) {
        return Err("--trace goes with exactly one --workload".to_string());
    }
    Ok(args)
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where `cargo build --release -p icd-node` at the repo root leaves the
/// daemon: under `CARGO_TARGET_DIR` if set, else `target/`.
fn default_node_bin() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().unwrap_or_default().join(dir),
        None => repo_root().join("target"),
    };
    target.join("release").join("icd-node")
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// End-to-end values of a run, in `catalog::END_TO_END` order; `None`
/// when no operation was verified.
struct EndToEnd {
    values: [f64; 7],
    p50: f64,
    tail_pct: f64,
}

/// Daemon workloads start fresh processes for every operation, so their
/// peaks are independent samples: the median. In-process operations share
/// one heap, and what distorts a reading there only adds to it (pages an
/// earlier, heavier operation left behind), so the lightest operation is
/// the clean reading: the minimum.
fn peak_rss_mb(report: &Report) -> Option<f64> {
    if report.node_peak_rss_mb.is_empty() {
        report.own_peak_rss_mb.iter().copied().reduce(f64::min)
    } else {
        stats::median(&report.node_peak_rss_mb)
    }
}

fn end_to_end(report: &Report) -> Option<EndToEnd> {
    let p50 = stats::median(&report.op_s)?;
    let (tail, tail_pct) = stats::tail(&report.op_s)?;
    let values = [
        stats::median(&report.setup_s)?,
        p50,
        tail,
        stats::median(&report.work_per_s)?,
        report.sent / report.useful,
        report.cpu_s / report.attempted as f64,
        peak_rss_mb(report)?,
    ];
    Some(EndToEnd {
        values,
        p50,
        tail_pct,
    })
}

/// Runs one workload for one pass in this process: the form the driver
/// calls, and the child the suite spawns.
fn run_single(args: &Args, name: &str, trace: bool) -> ExitCode {
    let env = Env {
        seed: args.seed,
        node_bin: args.node_bin.clone().unwrap_or_else(default_node_bin),
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&env.out_dir) {
        eprintln!("icd-benchmark: create {}: {e}", env.out_dir.display());
        return ExitCode::from(2);
    }
    let mut spans = Spans::new(trace);
    let report = workloads::run(name, &env, args.seconds, &mut spans)
        .expect("parse_args checked the workload name");
    for e in &report.errors {
        eprintln!("icd-benchmark: {name}: {e}");
    }
    let Some(EndToEnd {
        values,
        p50,
        tail_pct,
    }) = end_to_end(&report)
    else {
        eprintln!("icd-benchmark: {name}: no operation succeeded");
        return ExitCode::FAILURE;
    };
    let failed = report.errors.len() as u64;
    let samples = report.op_s.len();

    println!(
        "workload {name}  seed {}  seconds {}  trace {}  ops {} ({failed} failed)",
        args.seed,
        args.seconds,
        u8::from(trace),
        report.attempted
    );
    let mut metrics = Vec::new();
    let mut notes = vec![("samples", samples as f64), ("tail_pct", tail_pct)];
    if trace {
        let layer = |name: &str| {
            report
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        };
        for (metric_name, unit) in catalog::PER_LAYER {
            let value = layer(metric_name).unwrap_or(0.0);
            println!("  {metric_name:<30} = {value:<14.6} {unit}");
            metrics.push((metric_name, metric(value, unit)));
        }
        // The traced pass's own operation time, for the suite's
        // span-overhead figure.
        notes.push(("complete_s_p50", p50));
        if let (Some(build), Some(fetch), Some(decode)) = (
            layer("core.workingset_build_s"),
            layer("node.fetch_s"),
            layer("fountain.decode_s"),
        ) {
            // One blocking chain: its three spans should account for the op.
            let share = (build + fetch + decode) / p50;
            println!(
                "  attributed_share = {share:.4} (workingset_build + fetch + decode over op p50)"
            );
            notes.push(("attributed_share", share));
        }
    } else {
        for ((metric_name, unit), value) in catalog::END_TO_END.into_iter().zip(values) {
            let detail = match metric_name {
                "setup_s" | "complete_s_p50" | "work_per_s" => format!("median of {samples}"),
                "complete_s_tail" => format!("p{tail_pct:.1} of {samples}"),
                _ => String::new(),
            };
            println!("  {metric_name:<30} = {value:<14.6} {unit:<6} {detail}");
            metrics.push((metric_name, metric(value, unit)));
        }
    }

    let contract = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    let mut detail = vec![
        ("workload".to_string(), Json::str(name)),
        ("seed".to_string(), Json::str(args.seed.to_string())),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        (
            "notes".to_string(),
            Json::obj(notes.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "errors".to_string(),
            Json::Arr(report.errors.iter().map(Json::str).collect()),
        ),
        (
            "exact".to_string(),
            Json::Arr(
                report
                    .exact
                    .iter()
                    .map(|(op, counts)| Json::Arr(vec![Json::Num(*op as f64), Json::str(counts)]))
                    .collect(),
            ),
        ),
    ];
    detail.extend(
        contract
            .as_obj()
            .expect("built as an object")
            .iter()
            .cloned(),
    );
    let pass = u8::from(trace);
    let mut written = std::fs::write(
        env.out_dir.join(format!("{name}.trace{pass}.json")),
        Json::Obj(detail).render() + "\n",
    );
    if trace {
        written = written.and_then(|()| {
            std::fs::write(
                env.out_dir.join(format!("spans-{name}.jsonl")),
                spans.to_jsonl(),
            )
        });
    }
    if let Err(e) = written {
        eprintln!("icd-benchmark: write under {}: {e}", env.out_dir.display());
        return ExitCode::from(2);
    }

    println!("{}", contract.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each selected workload for one pass, each in a fresh child of
/// this executable, and returns the detail each child wrote.
fn run_pass(args: &Args, seed: u64, trace: bool) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let node_bin = args.node_bin.clone().unwrap_or_else(default_node_bin);
    let names = WORKLOADS
        .into_iter()
        .filter(|name| args.workloads.is_empty() || args.workloads.iter().any(|w| w == name));
    let pass = u8::from(trace);
    let mut details = Vec::new();
    for name in names {
        let path = out_dir().join(format!("{name}.trace{pass}.json"));
        let _ = std::fs::remove_file(&path);
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                &pass.to_string(),
            ])
            .arg("--node-bin")
            .arg(&node_bin)
            .status()
            .map_err(|e| format!("spawn runner for {name}: {e}"))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|_| format!("{name}: the run ended with {status} and left no result"))?;
        let detail = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !status.success() {
            eprintln!("icd-benchmark: {name}: run ended with {status}");
        }
        details.push(detail);
    }
    Ok(details)
}

fn name_of(detail: &Json) -> &str {
    detail.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn failed_ops(detail: &Json) -> f64 {
    detail.get("failed").and_then(Json::as_f64).unwrap_or(1.0)
}

/// Operations two runs of one workload share must report identical exact
/// counts; returns a description of the first that does not.
fn exact_mismatch(a: &Json, b: &Json) -> Option<String> {
    let list = |d: &Json| -> Vec<(f64, String)> {
        let entries = d.get("exact").and_then(Json::as_arr).unwrap_or_default();
        let pair = |e: &Json| {
            Some((
                e.as_arr()?.first()?.as_f64()?,
                e.as_arr()?.get(1)?.as_str()?.to_string(),
            ))
        };
        entries.iter().filter_map(pair).collect()
    };
    let theirs = list(b);
    list(a).into_iter().find_map(|(op, counts)| {
        let (_, other) = theirs.iter().find(|(theirs, _)| *theirs == op)?;
        (*other != counts).then(|| format!("{} op {op}: {counts} vs {other}", name_of(a)))
    })
}

/// Time of a fixed integer loop, so results from different hosts can be
/// put on one scale.
fn calibration_spin_s() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..100_000_000u64 {
        // Through `black_box`, or the compiler folds the recurrence.
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

fn meta(args: &Args) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("host_cores", Json::Num(cores as f64)),
        ("seed", Json::str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("calibration_spin_s", Json::Num(calibration_spin_s())),
    ])
}

/// Both passes of the selected workloads, cross-checked, written to
/// `out/results.json`.
fn run_suite(args: &Args) -> Result<bool, String> {
    let meta = meta(args);
    let untraced = run_pass(args, args.seed, false)?;
    let traced = run_pass(args, args.seed, true)?;
    let mut ok = true;
    let mut rows = Vec::new();
    println!("\nspan overhead (traced op p50 / untraced - 1):");
    for (plain, traced) in untraced.iter().zip(&traced) {
        let name = name_of(plain);
        if failed_ops(plain) + failed_ops(traced) > 0.0 {
            ok = false;
        }
        if let Some(mismatch) = exact_mismatch(plain, traced) {
            eprintln!("icd-benchmark: traced pass did not reproduce exact counts: {mismatch}");
            ok = false;
        }
        let p50 = |d: &Json, path: [&str; 2]| d.get(path[0])?.get(path[1])?.as_f64();
        let untraced_p50 = plain
            .get("metrics")
            .and_then(|m| p50(m, ["complete_s_p50", "value"]));
        let overhead = match (untraced_p50, p50(traced, ["notes", "complete_s_p50"])) {
            (Some(plain), Some(traced)) => traced / plain - 1.0,
            _ => f64::NAN,
        };
        let (overhead_name, unit) = catalog::SPAN_OVERHEAD;
        println!("  {name:<18} {overhead_name} = {overhead:.4} {unit}");
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("untraced", plain.clone()),
            ("traced", traced.clone()),
            (overhead_name, metric(overhead, unit)),
        ]));
    }
    let results = Json::obj([("meta", meta), ("workloads", Json::Arr(rows))]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// Untraced runs per set in `agree`. One run is not enough on a shared
/// host: the same seed re-run differs by up to a quarter when a
/// neighbour takes a core for ten seconds.
const AGREE_ROUNDS: u64 = 3;

/// Runs two sets of untraced runs on this build, alternating between the
/// sets, and holds their medians to the bounds `BENCHMARK.json` fixes.
fn run_agree(args: &Args) -> Result<bool, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let benchmark = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bounds: Vec<(String, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    // sets[set][round][workload]; round r of both sets uses seed + r.
    let mut sets = [Vec::new(), Vec::new()];
    for round in 0..AGREE_ROUNDS {
        for set in &mut sets {
            set.push(run_pass(args, args.seed + round, false)?);
        }
    }
    let meta = meta(args);
    for (label, set) in ["a", "b"].into_iter().zip(&sets) {
        let file = out_dir().join(format!("agree-{label}.json"));
        let rounds = set.iter().map(|round| Json::Arr(round.clone())).collect();
        let doc = Json::obj([("meta", meta.clone()), ("rounds", Json::Arr(rounds))]);
        std::fs::write(&file, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }

    let mut ok = true;
    println!(
        "\n{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median a", "median b", "diff", "bound"
    );
    for w in 0..sets[0][0].len() {
        let name = name_of(&sets[0][0][w]);
        for (a, b) in sets[0].iter().zip(&sets[1]) {
            if failed_ops(&a[w]) + failed_ops(&b[w]) > 0.0 {
                eprintln!("icd-benchmark: {name}: failed operations");
                ok = false;
            }
            if let Some(mismatch) = exact_mismatch(&a[w], &b[w]) {
                eprintln!("icd-benchmark: exact counts differ between the sets: {mismatch}");
                ok = false;
            }
        }
        for (metric_name, bound) in &bounds {
            let median_of = |set: &Vec<Vec<Json>>| {
                let values: Option<Vec<f64>> = set
                    .iter()
                    .map(|round| {
                        round[w]
                            .get("metrics")?
                            .get(metric_name)?
                            .get("value")?
                            .as_f64()
                    })
                    .collect();
                stats::median(&values?)
            };
            let (Some(va), Some(vb)) = (median_of(&sets[0]), median_of(&sets[1])) else {
                eprintln!("icd-benchmark: {name}: no {metric_name}");
                ok = false;
                continue;
            };
            let diff = (vb - va) / va;
            let excess = diff.abs() > *bound;
            println!(
                "{name:<18} {metric_name:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if excess { "  EXCESS" } else { "" }
            );
            ok &= !excess;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("icd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.trace {
        Some(trace) => return run_single(&args, &args.workloads[0], trace),
        None if args.agree => run_agree(&args),
        None => run_suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("icd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
