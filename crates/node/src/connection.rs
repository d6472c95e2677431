//! Per-connection drivers: one dialing (fetch) side, one serving side.
//!
//! A connection is a hello preamble followed by one §3 reconciliation
//! session pumped by the blocking drivers from `icd_core::machine` —
//! the same code path the in-process tests exercise, now over a real
//! socket. The hello is the *only* traffic the session machines do not
//! emit; it is deliberately excluded from [`WireStats`] so a daemon's
//! per-link counters remain byte-identical to the in-memory sessions of
//! [`crate::plan::predict`], which have no connection-establishment
//! phase.
//!
//! The dialer is the **receiver** (it downloads), the listener the
//! **sender** — the same orientation as a planned link's `from → to`
//! (listener = `from`). The hello carries the link seed, so both
//! endpoints derive their machine seeds from the one value via
//! [`icd_overlay::session_machine_seeds`], exactly like `predict`.

use std::io::{Read, Write};

use icd_core::machine::{drive_receiver_with, DriveError, WireStats};
use icd_core::{
    ReceiverMachine, SenderMachine, SessionAction, SessionConfig, SessionEvent, WorkingSet,
};
use icd_fountain::EncodedSymbol;
use icd_wire::message::FRAME_PREFIX_BYTES;
use icd_wire::{buffered_session, read_frame_bytes, FrameError, FrameLimit, Message};

use crate::shared::SharedWorkingSet;

/// Hello preamble magic.
const MAGIC: [u8; 4] = *b"ICDN";
/// Hello preamble protocol version.
const VERSION: u8 = 1;
/// Encoded hello length: magic + version + epoch + dialer + seed.
pub(crate) const HELLO_BYTES: usize = 4 + 1 + 1 + 4 + 8;

/// Wire byte marking a [`SessionEpoch::Live`] hello.
const LIVE_EPOCH: u8 = 0xFF;

/// Which working-set snapshot the serving side should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEpoch {
    /// Serve the snapshot frozen at reconciliation-round barrier `r` —
    /// the sessions a [`crate::plan::SwarmPlan`] schedules, where byte
    /// parity with [`crate::plan::predict`] holds because it freezes all
    /// of a round's inventories before any transfer runs. Round 0 is
    /// the node's initial share. A server keeps only its current
    /// round's snapshot: a hello for any other round gets the live set,
    /// like [`Self::Live`]. That happens only between standalone
    /// daemons, which race each other's barriers; the harness never
    /// dials off the barrier. Values `0xF0..` are reserved on the wire;
    /// the round barrier stops well below them
    /// ([`crate::machine::MAX_ROUNDS`]).
    Round(u8),
    /// Serve the node's *current* shared working set — what a rejoining
    /// or late-dialing peer wants (what [`crate::plan::predict_faulty`]'s
    /// resumption sessions model).
    /// No parity guarantee: the snapshot races in-flight ingestion.
    Live,
}

impl SessionEpoch {
    fn encode(self) -> u8 {
        match self {
            Self::Round(r) => {
                debug_assert!(r < 0xF0, "reserved epoch byte");
                r
            }
            Self::Live => LIVE_EPOCH,
        }
    }

    fn decode(byte: u8) -> Result<Self, HelloError> {
        match byte {
            0x00..=0xEF => Ok(Self::Round(byte)),
            LIVE_EPOCH => Ok(Self::Live),
            reserved => Err(HelloError::BadEpoch(reserved)),
        }
    }
}

/// The fixed-size preamble a dialer sends before the first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Dialing peer's roster id.
    pub dialer: u32,
    /// Link seed; both machine seeds derive from it.
    pub seed: u64,
    /// Snapshot discipline requested from the server.
    pub epoch: SessionEpoch,
}

/// Errors from the hello exchange.
#[derive(Debug)]
pub enum HelloError {
    /// Underlying I/O failed (including EOF inside the preamble).
    Io(std::io::Error),
    /// The first four bytes were not the protocol magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Reserved epoch byte (`0xF0..=0xFE`).
    BadEpoch(u8),
}

impl std::fmt::Display for HelloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "hello i/o: {e}"),
            Self::BadMagic(m) => write!(f, "hello magic mismatch: {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported hello version {v}"),
            Self::BadEpoch(e) => write!(f, "unknown session epoch {e}"),
        }
    }
}

impl std::error::Error for HelloError {}

impl From<std::io::Error> for HelloError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl Hello {
    /// Writes the preamble.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), HelloError> {
        let mut buf = [0u8; HELLO_BYTES];
        buf[..4].copy_from_slice(&MAGIC);
        buf[4] = VERSION;
        buf[5] = self.epoch.encode();
        buf[6..10].copy_from_slice(&self.dialer.to_le_bytes());
        buf[10..18].copy_from_slice(&self.seed.to_le_bytes());
        writer.write_all(&buf)?;
        Ok(())
    }

    /// Reads and validates a preamble.
    ///
    /// # Errors
    /// I/O failure, wrong magic, unsupported version, unknown epoch.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, HelloError> {
        let mut buf = [0u8; HELLO_BYTES];
        reader.read_exact(&mut buf)?;
        let magic: [u8; 4] = buf[..4].try_into().expect("fixed slice");
        if magic != MAGIC {
            return Err(HelloError::BadMagic(magic));
        }
        if buf[4] != VERSION {
            return Err(HelloError::BadVersion(buf[4]));
        }
        let epoch = SessionEpoch::decode(buf[5])?;
        Ok(Self {
            dialer: u32::from_le_bytes(buf[6..10].try_into().expect("fixed slice")),
            seed: u64::from_le_bytes(buf[10..18].try_into().expect("fixed slice")),
            epoch,
        })
    }
}

/// What one fetch session accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Wire-exact counters for every frame either direction (hello
    /// excluded) — the number diffed against the simulator's link.
    pub stats: WireStats,
    /// Symbols this session decoded that were *new to the node* (after
    /// shared-set dedup, so summing over sessions never double-counts).
    pub gained: u64,
    /// Whether the sender's sketch showed nothing worth transferring
    /// and the session ended in a rejection.
    pub rejected: bool,
}

/// A failed fetch session, with the progress it made before dying.
///
/// A session cut mid-stream has usually already decoded symbols into
/// the shared set; dropping that count would make a recovering node's
/// accumulated gains disagree with its distinct-symbol growth. The
/// error therefore carries the partial gains alongside the transport
/// failure, and retry loops fold both into their running totals.
#[derive(Debug)]
pub struct FetchError {
    /// The transport or machine failure that ended the session.
    pub error: DriveError,
    /// Symbols the dead session decoded that were new to the node
    /// (shared-set deduped, same semantics as [`FetchOutcome::gained`]).
    pub gained: u64,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after gaining {}", self.error, self.gained)
    }
}

impl std::error::Error for FetchError {}

/// Drives the dialing (receiver) side of one session: the machine is
/// constructed from `snapshot` and `config`, and every decoded symbol
/// is pushed into `shared` as it lands, so the node's other sessions
/// see progress mid-flight.
///
/// The caller sends the [`Hello`] first and owns socket configuration
/// (read timeouts make a dead peer surface as
/// [`DriveError::ReadTimeout`] instead of wedging the thread).
///
/// # Errors
/// Any [`DriveError`] from the underlying driver, wrapped with the
/// partial gains the session banked before it died.
pub fn fetch_session<S: Read + Write>(
    stream: &mut S,
    snapshot: WorkingSet,
    config: SessionConfig,
    shared: &SharedWorkingSet,
) -> Result<FetchOutcome, FetchError> {
    let mut machine = ReceiverMachine::new(snapshot, config);
    let mut gained = 0u64;
    let driven = drive_receiver_with(
        &mut machine,
        stream,
        FrameLimit::default(),
        |action, m| {
            if let SessionAction::SymbolDecoded(id) = action {
                let payload = m
                    .working()
                    .payload(*id)
                    .expect("decoded symbol is in the machine's working set")
                    .clone();
                if shared.ingest(EncodedSymbol { id: *id, payload }) {
                    gained += 1;
                }
            }
        },
    );
    match driven {
        Ok(stats) => Ok(FetchOutcome {
            stats,
            gained,
            rejected: machine.was_rejected(),
        }),
        Err(error) => Err(FetchError { error, gained }),
    }
}

/// How the serving side of one session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// The session ran to its protocol end (END exchange or rejection).
    Complete,
    /// The dialer hung up mid-session. Routine under churn: the dialer
    /// crashed, was restarted, or decided it was done.
    PeerClosed,
    /// The read deadline fired mid-session — the dialer stalled.
    TimedOut,
    /// The stream died inside a frame ([`FrameError::Truncated`]). The
    /// session is abandoned but the daemon keeps serving others.
    Truncated,
    /// Fault injection severed the stream after its frame budget
    /// (never occurs outside a [`crate::daemon::ServeChaos`] plan).
    Severed,
}

impl ServeStatus {
    /// `true` for every status other than [`ServeStatus::Complete`] —
    /// the session ended early and the dialer saw a partial transfer.
    #[must_use]
    pub(crate) fn is_degraded(self) -> bool {
        !matches!(self, Self::Complete)
    }
}

/// What one serve session accomplished, degraded or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Wire-exact counters for every frame either direction (hello
    /// excluded), including frames of sessions that ended early.
    pub stats: WireStats,
    /// How the session ended.
    pub status: ServeStatus,
}

/// Drives the serving (sender) side of one session over `snapshot`,
/// with the machine RNG seeded `sender_seed` (derive it from the
/// hello's link seed via [`icd_overlay::session_machine_seeds`]).
///
/// Connection-level failures — the dialer hung up, a deadline fired,
/// the stream truncated mid-frame — are *absorbed* into a degraded
/// [`ServeStatus`] rather than surfaced as errors: a serving daemon
/// logs them and moves on to the next connection. Only protocol or
/// machine errors (a misbehaving dialer) reach the `Err` arm.
///
/// # Errors
/// [`DriveError::Machine`] or a non-transient transport failure.
pub fn serve_session<S: Read + Write>(
    stream: &mut S,
    snapshot: WorkingSet,
    sender_seed: u64,
) -> Result<ServeOutcome, DriveError> {
    serve_session_budgeted(stream, snapshot, sender_seed, None)
}

/// [`serve_session`] with an optional chaos budget: after writing
/// `sever_after` *data* frames the serve writes a deliberately
/// truncated frame prefix and abandons the stream, reporting
/// [`ServeStatus::Severed`]. The dialer observes a mid-frame cut —
/// exactly the failure a yanked cable produces — and (with a
/// [`crate::retry::RetryPolicy`]) redials on a Live-epoch session.
///
/// This is the daemon-side hook the deterministic chaos tests use; the
/// loop books frames with [`WireStats::count`] exactly like
/// `fetch_session`, and fault-free runs (`sever_after = None`) are the
/// plain serve.
///
/// # Errors
/// [`DriveError::Machine`] or a non-transient transport failure.
pub(crate) fn serve_session_budgeted<S: Read + Write>(
    stream: &mut S,
    snapshot: WorkingSet,
    sender_seed: u64,
    sever_after: Option<u64>,
) -> Result<ServeOutcome, DriveError> {
    buffered_session(stream, |stream| {
        let limit = FrameLimit::default();
        let budget = sever_after.unwrap_or(u64::MAX);
        let mut machine = SenderMachine::new(snapshot, sender_seed);
        let mut stats = WireStats::default();
        let mut data_written = 0u64;

        let actions = machine
            .handle(SessionEvent::PeerConnected)
            .map_err(DriveError::Machine)?;
        if let Some(outcome) = write_actions(
            stream,
            &actions,
            &mut stats,
            &mut data_written,
            budget,
        )? {
            return Ok(outcome);
        }
        flush(stream)?;

        let mut pulled = Vec::new();
        loop {
            if machine.is_finished() {
                return Ok(ServeOutcome {
                    stats,
                    status: ServeStatus::Complete,
                });
            }
            // The answer goes out as it is pulled, one frame per call,
            // through the write buffer (drained when full and when the
            // session ends, never per frame).
            if machine.next_frame(&mut pulled).map_err(DriveError::Machine)? {
                if let Some(outcome) = write_actions(
                    stream,
                    &pulled,
                    &mut stats,
                    &mut data_written,
                    budget,
                )? {
                    return Ok(outcome);
                }
                pulled.clear();
                continue;
            }
            let frame = match read_frame_bytes(stream, limit) {
                Ok(frame) => frame,
                Err(FrameError::Closed) => {
                    return Ok(ServeOutcome {
                        stats,
                        status: ServeStatus::PeerClosed,
                    })
                }
                Err(FrameError::TimedOut) => {
                    return Ok(ServeOutcome {
                        stats,
                        status: ServeStatus::TimedOut,
                    })
                }
                Err(FrameError::Truncated { .. }) => {
                    return Ok(ServeOutcome {
                        stats,
                        status: ServeStatus::Truncated,
                    })
                }
                Err(e) => return Err(DriveError::Transport(e)),
            };
            stats.count(&frame);
            let actions = machine
                .handle(SessionEvent::FrameReceived(frame))
                .map_err(DriveError::Machine)?;
            if let Some(outcome) = write_actions(
                stream,
                &actions,
                &mut stats,
                &mut data_written,
                budget,
            )? {
                return Ok(outcome);
            }
            flush(stream)?;
        }
    })
}

/// Flushes one batch of replies: see `icd_core::machine`'s `execute`.
fn flush<S: Write>(stream: &mut S) -> Result<(), DriveError> {
    stream
        .flush()
        .map_err(|e| DriveError::Transport(FrameError::from(e)))
}

/// Writes every `SendFrame` action, booking stats; returns the severed
/// outcome once `budget` data frames have gone out.
fn write_actions<S: Write>(
    stream: &mut S,
    actions: &[SessionAction],
    stats: &mut WireStats,
    data_written: &mut u64,
    budget: u64,
) -> Result<Option<ServeOutcome>, DriveError> {
    for action in actions {
        let SessionAction::SendFrame(frame) = action else {
            continue;
        };
        stats.count(frame);
        stream
            .write_all(frame)
            .map_err(|e| DriveError::Transport(FrameError::from(e)))?;
        if frame
            .get(FRAME_PREFIX_BYTES)
            .is_some_and(|&t| Message::is_data_tag(t))
        {
            *data_written += 1;
            if *data_written >= budget {
                // Leave a dangling half-prefix so the dialer sees a
                // mid-frame cut (FrameError::Truncated), not a tidy EOF.
                let _ = stream.write_all(&[0x1C, 0xD0]);
                let _ = stream.flush();
                return Ok(Some(ServeOutcome {
                    stats: *stats,
                    status: ServeStatus::Severed,
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_overlay::session_payload;

    fn working(ids: std::ops::Range<u64>) -> WorkingSet {
        WorkingSet::from_symbols(ids.map(|id| EncodedSymbol {
            id,
            payload: session_payload(id, 32),
        }))
    }

    #[test]
    fn severed_serve_surfaces_as_truncated_at_the_dialer() {
        // Everything the severed serve wrote — the frames before the cut
        // and the dangling half-prefix — must leave its write buffer, so
        // the dialer sees a mid-frame cut and keeps what it decoded.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            serve_session_budgeted(&mut stream, working(0..60), 9, Some(3))
        });
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let shared = SharedWorkingSet::new(working(0..20), 60);
        let config = SessionConfig::new().with_request(30).with_seed(5);
        let result = fetch_session(&mut stream, working(0..20), config, &shared);
        let served = server.join().expect("join").expect("serve");
        assert_eq!(served.status, ServeStatus::Severed);
        match result {
            Err(FetchError {
                error: DriveError::Transport(FrameError::Truncated { needed: 2, got: 2 }),
                gained,
            }) => assert!((1..=3).contains(&gained), "gained {gained} of 3 data frames"),
            other => panic!("expected a mid-prefix truncation, got {other:?}"),
        }
    }

    #[test]
    fn hello_round_trips() {
        for epoch in [
            SessionEpoch::Round(0),
            SessionEpoch::Round(3),
            SessionEpoch::Live,
        ] {
            let hello = Hello {
                dialer: 42,
                seed: 0xDEAD_BEEF_0BAD_F00D,
                epoch,
            };
            let mut buf = Vec::new();
            hello.write_to(&mut buf).expect("write");
            assert_eq!(buf.len(), HELLO_BYTES);
            let back = Hello::read_from(&mut buf.as_slice()).expect("read");
            assert_eq!(back, hello);
        }
    }

    #[test]
    fn hello_rejects_garbage() {
        let mut good = Vec::new();
        Hello {
            dialer: 1,
            seed: 2,
            epoch: SessionEpoch::Round(0),
        }
        .write_to(&mut good)
        .expect("write");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Hello::read_from(&mut bad_magic.as_slice()),
            Err(HelloError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            Hello::read_from(&mut bad_version.as_slice()),
            Err(HelloError::BadVersion(9))
        ));

        let mut bad_epoch = good.clone();
        bad_epoch[5] = 0xF7;
        assert!(matches!(
            Hello::read_from(&mut bad_epoch.as_slice()),
            Err(HelloError::BadEpoch(0xF7))
        ));

        assert!(matches!(
            Hello::read_from(&mut &good[..10]),
            Err(HelloError::Io(_))
        ));
    }
}
