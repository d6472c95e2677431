//! `--trace-out` is appended round by round, so a daemon that is
//! killed leaves the rounds it finished.
//!
//! Three `--harness` daemons distribute a small object; one leecher is
//! traced. After its round-0 `GO` reports `DONE`, the traced daemon is
//! SIGKILLed — no `QUIT`, no shutdown path — and its trace file must
//! still parse and hold the round's `session_span` records.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use icd_obs::{TraceBuf, TraceEvent};

const SPEC: &str = "seed=3,nodes=3,seeders=1,universe=48,share=18,payload=32,topo=ring1";

/// One `icd-node --harness` child.
struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    fn spawn(id: usize, trace_out: Option<&PathBuf>) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_icd-node"));
        cmd.args(["--id", &id.to_string(), "--spec", SPEC, "--harness"]);
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
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

    /// Runs one `GO` and returns the `FETCH` lines before `DONE`.
    fn go(&mut self) -> Vec<String> {
        self.send("GO");
        let mut fetches = Vec::new();
        loop {
            let line = self.read_line();
            if line.starts_with("DONE ") {
                return fetches;
            }
            if line.starts_with("FETCH ") {
                fetches.push(line);
            }
        }
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

#[test]
fn a_killed_daemon_leaves_the_rounds_it_finished() {
    const TRACED: usize = 1;
    let path = std::env::temp_dir().join(format!("icd-trace-flush-{}.jsonl", std::process::id()));
    let mut procs: Vec<NodeProc> = (0..3)
        .map(|id| NodeProc::spawn(id, (id == TRACED).then_some(&path)))
        .collect();
    let roster: Vec<String> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, p)| format!("{i}={}", &p.read_line()["LISTEN ".len()..]))
        .collect();
    for p in &mut procs {
        p.send(&format!("ROSTER {}", roster.join(" ")));
        assert!(p.read_line().starts_with("ROSTER-OK"));
    }

    let fetches = procs[TRACED].go();
    assert!(!fetches.is_empty(), "the traced leecher fetches in round 0");
    procs[TRACED]
        .child
        .kill()
        .expect("SIGKILL the traced daemon");
    procs[TRACED].child.wait().expect("reap the traced daemon");

    let text = std::fs::read_to_string(&path).expect("trace file exists after SIGKILL");
    let _ = std::fs::remove_file(&path);
    let records = TraceBuf::parse_jsonl(&text).expect("a killed daemon's trace parses");
    let spans: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SessionSpan { to, round, ok, .. } => Some((to, round, ok)),
            _ => None,
        })
        .collect();
    assert_eq!(
        spans.len(),
        fetches.len(),
        "one span per FETCH line: {text}"
    );
    assert!(spans
        .iter()
        .all(|&(to, round, ok)| to == TRACED as u64 && round == 0 && ok));

    for (_, p) in procs.iter_mut().enumerate().filter(|&(id, _)| id != TRACED) {
        p.send("QUIT");
        assert!(p.child.wait().expect("wait child").success());
    }
}
