//! `file-pair-32m`: one receiver dials one sender over 127.0.0.1, runs a
//! reconciliation session, and decodes the file it now holds.
//!
//! Geometry is `examples/tcp_reconcile.rs` at the paper's file size:
//! 32 MiB in 1400-byte blocks (l = 23 968), a universe of 1.4·l encoded
//! symbols, the receiver holding the first 60 %, the sender the last
//! 60 %, and a request for l/2 symbols.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use icd_core::summary::diff_estimate;
use icd_core::working_set::FAMILY_SEED;
use icd_core::{
    FramePump, ReceiverMachine, SenderMachine, SessionConfig, SummaryId, TransferPlan, WireStats,
    WorkingSet,
};
use icd_fountain::{CodeSpec, DecodeStatus, Decoder, EncodedSymbol, Encoder};
use icd_node::{fetch_session, serve_session, Hello, SessionEpoch, SharedWorkingSet};
use icd_overlay::session_machine_seeds;
use icd_sketch::{MinwiseSketch, PermutationFamily};

use super::{op_seed, splitmix, Env, OpCounts, Workload};
use crate::spans::Spans;
use crate::stats::median;

const FILE_BYTES: usize = 32 << 20;
const BLOCK_BYTES: usize = 1400;
/// Socket deadline: an operation that stalls this long fails.
const DEADLINE: Duration = Duration::from_secs(30);

pub struct Input {
    content: Vec<u8>,
    spec: CodeSpec,
    universe: usize,
    receiver_symbols: Vec<EncodedSymbol>,
    sender_symbols: Vec<EncodedSymbol>,
    link_seed: u64,
}

impl Input {
    fn blocks(&self) -> usize {
        self.spec.num_blocks()
    }

    fn receiver_config(&self) -> SessionConfig {
        let (receiver_seed, _) = session_machine_seeds(self.link_seed);
        SessionConfig::new()
            .with_request((self.blocks() / 2) as u64)
            .with_seed(receiver_seed)
    }
}

pub struct Output {
    stats: WireStats,
    sender_stats: WireStats,
    gained: u64,
    rejected: bool,
    decoded: Vec<u8>,
    fed: u64,
    pool_reused: u64,
    pool_allocated: u64,
    socket: SocketTimes,
}

/// Time and calls the receiving side spent inside socket reads and writes.
#[derive(Default, Clone, Copy)]
struct SocketTimes {
    read_s: f64,
    write_s: f64,
    reads: u64,
    writes: u64,
}

/// `Read + Write` over a `TcpStream` that times every call, handed to the
/// generic `fetch_session` on the traced pass so socket time is seen
/// without re-implementing the driver.
struct TimedStream {
    inner: TcpStream,
    times: SocketTimes,
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let result = self.inner.read(buf);
        self.times.read_s += start.elapsed().as_secs_f64();
        self.times.reads += 1;
        result
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let result = self.inner.write(buf);
        self.times.write_s += start.elapsed().as_secs_f64();
        self.times.writes += 1;
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Sums over verified operations, for the per-layer metrics.
#[derive(Default)]
pub struct FilePair {
    ops: f64,
    blocks: f64,
    fed: f64,
    pool_reused: f64,
    pool_allocated: f64,
    rejected: f64,
    wire: WireStats,
    socket: SocketTimes,
    sketch_keys: f64,
    summary_bytes: f64,
    summary_id: f64,
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

fn set_deadline(stream: &TcpStream) -> Result<(), String> {
    stream
        .set_read_timeout(Some(DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(DEADLINE)))
        .map_err(|e| err("socket deadline", e))
}

impl Workload for FilePair {
    type Input = Input;
    type Output = Output;

    fn set_up(&mut self, op: u64, env: &Env, spans: &mut Spans) -> Result<Input, String> {
        let seed = op_seed(env.seed, op);
        let mut content = vec![0u8; FILE_BYTES];
        let mut state = seed;
        for chunk in content.chunks_exact_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            chunk.copy_from_slice(&splitmix(state).to_le_bytes());
        }
        let (spec, symbols) = spans.time("fountain.encode", || {
            let encoder = Encoder::for_content(&content, BLOCK_BYTES, splitmix(seed ^ 1));
            let l = encoder.spec().num_blocks();
            let symbols: Vec<EncodedSymbol> = encoder
                .stream(splitmix(seed ^ 2))
                .take(l * 14 / 10)
                .collect();
            (encoder.spec().clone(), symbols)
        });
        let cut = symbols.len() * 6 / 10;
        Ok(Input {
            content,
            spec,
            universe: symbols.len(),
            receiver_symbols: symbols[..cut].to_vec(),
            sender_symbols: symbols[symbols.len() - cut..].to_vec(),
            link_seed: splitmix(seed ^ 3),
        })
    }

    fn run(&mut self, input: &mut Input, spans: &mut Spans) -> Result<Output, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| err("local_addr", e))?;
        // Connect before the serving thread exists (the kernel queues the
        // connection), so a failed dial cannot leave it blocked in accept.
        let mut stream = TcpStream::connect(addr).map_err(|e| err("connect", e))?;
        set_deadline(&stream)?;

        let sender_symbols = &input.sender_symbols;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let (mut stream, _) = listener.accept().map_err(|e| err("accept", e))?;
                set_deadline(&stream)?;
                let hello = Hello::read_from(&mut stream).map_err(|e| err("hello", e))?;
                let (_, sender_seed) = session_machine_seeds(hello.seed);
                let working = WorkingSet::from_symbols(sender_symbols.iter().cloned());
                serve_session(&mut stream, working, sender_seed).map_err(|e| err("serve", e))
            });

            let fetched = (|| {
                Hello {
                    dialer: 1,
                    seed: input.link_seed,
                    epoch: SessionEpoch::Live,
                }
                .write_to(&mut stream)
                .map_err(|e| err("hello", e))?;
                let (snapshot, shared) = spans.time("core.workingset_build", || {
                    let snapshot = WorkingSet::from_symbols(input.receiver_symbols.iter().cloned());
                    let shared = SharedWorkingSet::new(snapshot.clone(), input.universe);
                    (snapshot, shared)
                });
                let config = input.receiver_config();
                spans.begin("node.fetch");
                let (outcome, socket) = if spans.enabled() {
                    let mut timed = TimedStream {
                        inner: stream,
                        times: SocketTimes::default(),
                    };
                    let outcome = fetch_session(&mut timed, snapshot, config, &shared);
                    (outcome, timed.times)
                } else {
                    let outcome = fetch_session(&mut stream, snapshot, config, &shared);
                    drop(stream);
                    (outcome, SocketTimes::default())
                };
                spans.end();
                Ok::<_, String>((outcome.map_err(|e| err("fetch", e))?, socket, shared))
            })();
            // The dialer's stream is closed by now on every path, so the
            // serving thread ends even when the fetch failed.
            let served = sender
                .join()
                .map_err(|_| "serving thread panicked".to_string())?;
            let (outcome, socket, shared) = fetched?;
            let served = served?;

            let working = spans.time("node.snapshot", || shared.snapshot());
            spans.begin("fountain.decode");
            let mut decoder = Decoder::new(input.spec.clone());
            let mut fed = 0;
            // Sorted ids: hash-map order would change the feed from run to run.
            for id in working.sorted_ids() {
                let payload = working.payload(id).expect("id came from this set").clone();
                fed += 1;
                if decoder.receive(&EncodedSymbol { id, payload }) == DecodeStatus::Complete {
                    break;
                }
            }
            let pool = decoder.pool_stats();
            let decoded = decoder.into_content(input.content.len());
            spans.end();
            Ok(Output {
                stats: outcome.stats,
                sender_stats: served.stats,
                gained: outcome.gained,
                rejected: outcome.rejected,
                decoded: decoded
                    .ok_or_else(|| format!("decoder incomplete after {fed} symbols"))?,
                fed,
                pool_reused: pool.reused,
                pool_allocated: pool.allocated,
                socket,
            })
        })
    }

    fn check(
        &mut self,
        _op: u64,
        input: Input,
        output: Output,
        spans: &mut Spans,
    ) -> Result<OpCounts, String> {
        if output.decoded != input.content {
            return Err("decoded file differs from the source".to_string());
        }
        if output.stats != output.sender_stats {
            return Err(format!(
                "wire counters disagree: receiver {:?}, sender {:?}",
                output.stats, output.sender_stats
            ));
        }
        if spans.enabled() {
            self.replay(&input, &output, spans)?;
        }
        self.ops += 1.0;
        self.blocks = input.blocks() as f64;
        self.fed += output.fed as f64;
        self.pool_reused += output.pool_reused as f64;
        self.pool_allocated += output.pool_allocated as f64;
        self.rejected += f64::from(u8::from(output.rejected));
        self.wire += output.stats;
        self.socket.read_s += output.socket.read_s;
        self.socket.write_s += output.socket.write_s;
        self.socket.reads += output.socket.reads;
        self.socket.writes += output.socket.writes;
        let useful = (output.gained as usize * BLOCK_BYTES) as f64;
        Ok(OpCounts {
            work: useful,
            sent: output.stats.total() as f64,
            useful,
            exact: format!(
                "wire_bytes={} frames={} gained={}",
                output.stats.total(),
                output.stats.frames,
                output.gained
            ),
            peak_rss_mb: None,
        })
    }

    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let med = |name| median(&spans.seconds_of(name)).unwrap_or(0.0);
        let ops = self.ops.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            ("fountain.encode_s", med("fountain.encode")),
            ("fountain.decode_s", med("fountain.decode")),
            ("fountain.decode_fed", self.fed / ops),
            (
                "fountain.decode_useful_share",
                ratio(self.blocks * self.ops, self.fed),
            ),
            (
                "util.pool_reuse_share",
                ratio(self.pool_reused, self.pool_reused + self.pool_allocated),
            ),
            ("sketch.build_s", med("sketch.build")),
            ("sketch.keys", self.sketch_keys / ops),
            ("summary.build_s", med("summary.build")),
            ("summary.bytes", self.summary_bytes / ops),
            ("summary.id", self.summary_id),
            ("core.workingset_build_s", med("core.workingset_build")),
            ("core.pump_s", med("core.pump")),
            ("core.sessions", 1.0),
            ("core.rejected_sessions", self.rejected / ops),
            ("wire.frames", self.wire.frames as f64 / ops),
            ("wire.bytes", self.wire.total() as f64 / ops),
            ("wire.control_bytes", self.wire.control_bytes as f64 / ops),
            (
                "wire.control_share",
                ratio(self.wire.control_bytes as f64, self.wire.total() as f64),
            ),
            (
                "wire.bytes_per_frame",
                ratio(self.wire.total() as f64, self.wire.frames as f64),
            ),
            ("node.fetch_s", med("node.fetch")),
            ("node.socket_read_s", self.socket.read_s / ops),
            ("node.socket_write_s", self.socket.write_s / ops),
            ("node.socket_reads", self.socket.reads as f64 / ops),
            ("node.socket_writes", self.socket.writes as f64 / ops),
            ("node.sessions", 1.0),
        ]
    }
}

impl FilePair {
    /// Traced pass only, outside the timed operation: replays single
    /// public calls on this operation's inputs to time the layers the
    /// session hides.
    fn replay(&mut self, input: &Input, output: &Output, spans: &mut Spans) -> Result<(), String> {
        let receiver = WorkingSet::from_symbols(input.receiver_symbols.iter().cloned());
        let sender = WorkingSet::from_symbols(input.sender_symbols.iter().cloned());

        // Cold build of the calling card each working set keeps live.
        let family = PermutationFamily::standard(FAMILY_SEED);
        let (receiver_ids, sender_ids) = (receiver.sorted_ids(), sender.sorted_ids());
        let cards = spans.time("sketch.build", || {
            [&receiver_ids, &sender_ids]
                .map(|ids| MinwiseSketch::from_keys(&family, ids.iter().copied()))
        });
        if cards[0].minima() != receiver.sketch().minima() {
            return Err("cold sketch differs from the working set's live sketch".to_string());
        }
        self.sketch_keys += (receiver_ids.len() + sender_ids.len()) as f64;

        // The identical session in memory: both machines and the frame
        // codec, no socket, no second thread.
        let config = input.receiver_config();
        let (_, sender_seed) = session_machine_seeds(input.link_seed);
        let mut receiver_machine = ReceiverMachine::new(receiver.clone(), config.clone());
        let mut sender_machine = SenderMachine::new(sender.clone(), sender_seed);
        let mut pump = FramePump::new();
        spans
            .time("core.pump", || {
                pump.run(&mut receiver_machine, &mut sender_machine)
            })
            .map_err(|e| err("in-memory session", e))?;
        let (to_sender, to_receiver) = pump.wire_bytes();
        if to_sender + to_receiver != output.stats.total() {
            return Err(format!(
                "in-memory session moved {} wire bytes, the socket session {}",
                to_sender + to_receiver,
                output.stats.total()
            ));
        }

        // The summary the session's plan chose, built once more.
        if let Some(TransferPlan::Reconciled { summary }) = receiver_machine.plan() {
            if summary != SummaryId::NONE {
                let estimate = diff_estimate(&receiver.estimate_against(sender.sketch()));
                let digest = spans
                    .time("summary.build", || {
                        receiver.build_summary(summary, &config.sizing, &estimate, &config.registry)
                    })
                    .map_err(|e| err("summary", e))?;
                self.summary_bytes += digest.wire_bytes() as f64;
                self.summary_id = f64::from(summary.0);
            }
        }
        Ok(())
    }
}
