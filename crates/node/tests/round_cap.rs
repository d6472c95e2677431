//! The harness `ROUND` barrier stops at `MAX_ROUNDS - 1`.
//!
//! A round's hello carries its number in one epoch byte, and the bytes
//! from `0xF0` up are reserved, so a barrier past the cap would send an
//! epoch the server cannot read. Past the cap, `ROUND` answers
//! `ROUND-ERR max-rounds` and changes nothing, and a fetch in the last
//! round still runs to completion.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use icd_node::MAX_ROUNDS;

const SPEC: &str = "seed=3,nodes=3,seeders=1,universe=48,share=18,payload=32,topo=ring1";

/// One `icd-node --harness` child.
struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    fn spawn(id: usize) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_icd-node"))
            .args(["--id", &id.to_string(), "--spec", SPEC, "--harness"])
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

    /// Sends `line` and returns the next reply line.
    fn ask(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write to child");
        self.stdin.flush().expect("flush to child");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read from child");
        assert!(n > 0, "child closed stdout unexpectedly");
        line.trim().to_string()
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
fn round_barriers_stop_at_the_cap_and_the_last_round_still_fetches() {
    let mut procs: Vec<NodeProc> = (0..3).map(NodeProc::spawn).collect();
    let roster: Vec<String> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, p)| format!("{i}={}", &p.read_line()["LISTEN ".len()..]))
        .collect();
    for p in &mut procs {
        assert!(p
            .ask(&format!("ROSTER {}", roster.join(" ")))
            .starts_with("ROSTER-OK"));
    }

    for round in 1..=MAX_ROUNDS {
        for p in &mut procs {
            let reply = p.ask("ROUND");
            if round < MAX_ROUNDS {
                assert_eq!(reply, format!("ROUND-OK {round}"));
            } else {
                assert_eq!(reply, "ROUND-ERR max-rounds");
            }
        }
    }

    // Round MAX_ROUNDS - 1 is a planned round like any other: its hellos
    // carry its epoch, and the leechers fetch the whole object.
    for p in &mut procs[1..] {
        let mut line = p.ask("GO");
        while let Some(fetch) = line.strip_prefix("FETCH ") {
            let words: Vec<&str> = fetch.split_whitespace().collect();
            assert_eq!(words[0], (MAX_ROUNDS - 1).to_string(), "{line}");
            assert_eq!(words.last(), Some(&"ok"), "{line}");
            line = p.read_line();
        }
        assert_eq!(line, "DONE 48 1");
    }

    for p in &mut procs {
        assert_eq!(p.ask("ROUND"), "ROUND-ERR max-rounds");
        assert_eq!(p.ask("STATS"), "STATS 0 48 1");
        writeln!(p.stdin, "QUIT").expect("quit");
        let status = p.child.wait().expect("wait child");
        assert!(status.success(), "child exited {status:?}");
    }
}
