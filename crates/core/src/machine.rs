//! Sans-I/O session machines: events in, actions out, zero I/O, zero
//! internal time.
//!
//! [`ReceiverSession`]/[`SenderSession`] already keep protocol logic
//! free of transport concerns, but they still traffic in decoded
//! [`Message`] values — every driver re-implements framing, byte
//! accounting, and completion detection around them. This module closes
//! that gap with the classic sans-I/O shape: a machine consumes
//! [`SessionEvent`]s (`PeerConnected`, `FrameReceived`, `TickElapsed`)
//! and emits [`SessionAction`]s (`SendFrame`, `SymbolDecoded`,
//! `Completed`, ...). Every `SendFrame` carries the *exact* bytes
//! `icd-wire`'s `write_frame_buf` produces — length prefix included —
//! so whatever the driver sums is by construction the true wire cost.
//!
//! Time never originates inside a machine: the driver's clock arrives
//! via [`SessionEvent::TickElapsed`], and the optional idle timeout is
//! judged purely against those driver-provided ticks. The same machine
//! therefore runs unchanged under the discrete-event overlay engine
//! (simulated ticks), the blocking TCP drivers below (wall-clock ticks,
//! or none), and the in-memory [`FramePump`] used by tests.
//!
//! Drivers in this workspace:
//! * `icd-overlay`'s session links pump one frame per link send slot,
//!   applying rate/latency/loss to real framed byte lengths;
//! * [`drive_receiver`]/[`drive_sender`] run the machines over any
//!   blocking `Read + Write` stream (the `tcp_reconcile` example);
//! * [`FramePump`] interleaves two machines over in-memory queues, one
//!   frame per direction per step, mirroring `SessionPump`.

use bytes::Bytes;
use icd_wire::buffered::buffered_session;
use icd_wire::framing::{read_frame_bytes, write_frame_buf, FrameError, FrameLimit};
use icd_wire::message::FRAME_PREFIX_BYTES;
use icd_wire::{Message, WireError};

use crate::policy::TransferPlan;
use crate::session::{
    PumpStep, ReceiverSession, SenderSession, SessionConfig, SessionError,
};
use crate::summary::SummaryRegistry;
use crate::working_set::WorkingSet;

/// An input to a session machine. Drivers translate their world —
/// sockets, simulated links, test queues — into these three events.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The transport to the peer is up; the machine may start talking.
    PeerConnected,
    /// One complete frame arrived: u32 length prefix plus encoded body,
    /// exactly as read off the wire.
    FrameReceived(Bytes),
    /// The driver's clock advanced to `now` (any monotonic unit — the
    /// machine only compares differences against its idle timeout).
    TickElapsed(u64),
}

/// An output from a session machine. The driver executes these; the
/// machine never performs I/O itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// Transmit these bytes to the peer verbatim. The buffer is a whole
    /// frame (prefix + body), so `frame.len()` *is* the wire cost.
    SendFrame(Bytes),
    /// A new distinct symbol with this id entered the working set.
    SymbolDecoded(u64),
    /// The session finished normally. For a receiver, `gained` is the
    /// count of new distinct symbols; for a sender, the symbols it
    /// streamed (the `End` frame's count).
    Completed {
        /// Symbols gained (receiver) or streamed (sender).
        gained: u64,
    },
    /// Admission control ended the session before any transfer.
    Rejected,
    /// The idle timeout elapsed with the session unfinished.
    TimedOut,
}

/// Failures surfaced by a machine: malformed frames, wire decode
/// errors, or protocol violations from the underlying session.
#[derive(Debug)]
pub enum MachineError {
    /// The driver handed over bytes that are not one whole well-formed
    /// frame, or misused the event API (e.g. a frame before
    /// `PeerConnected`).
    Frame(&'static str),
    /// The frame body failed to decode.
    Wire(WireError),
    /// The session state machine rejected the message.
    Session(SessionError),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(why) => write!(f, "bad frame: {why}"),
            Self::Wire(e) => write!(f, "wire decode failed: {e}"),
            Self::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<SessionError> for MachineError {
    fn from(e: SessionError) -> Self {
        Self::Session(e)
    }
}

/// Splits a raw frame into its message, validating that the buffer is
/// exactly one frame whose prefix agrees with its length. The body
/// decodes as a view of the buffer (no copy for data-plane payloads).
fn decode_frame(frame: &Bytes) -> Result<Message, MachineError> {
    if frame.len() < FRAME_PREFIX_BYTES {
        return Err(MachineError::Frame("frame shorter than its length prefix"));
    }
    let declared = u32::from_le_bytes(
        frame[..FRAME_PREFIX_BYTES]
            .try_into()
            .expect("four prefix bytes"),
    ) as usize;
    if declared != frame.len() - FRAME_PREFIX_BYTES {
        return Err(MachineError::Frame("length prefix disagrees with frame size"));
    }
    Message::decode_from(&frame.slice(FRAME_PREFIX_BYTES..)).map_err(MachineError::Wire)
}

/// Shared non-protocol state: connection flag, driver clock, idle
/// timeout, terminal reporting.
#[derive(Debug)]
struct MachineClock {
    connected: bool,
    now: u64,
    last_activity: u64,
    idle_timeout: Option<u64>,
    timed_out: bool,
    reported: bool,
    scratch: Vec<u8>,
}

impl MachineClock {
    fn new(idle_timeout: Option<u64>) -> Self {
        Self {
            connected: false,
            now: 0,
            last_activity: 0,
            idle_timeout,
            timed_out: false,
            reported: false,
            scratch: Vec::new(),
        }
    }

    fn touch(&mut self) {
        self.last_activity = self.now;
    }

    /// Advances the driver clock; returns true when the idle timeout
    /// fires (at most once).
    fn tick(&mut self, now: u64, finished: bool) -> bool {
        self.now = self.now.max(now);
        match self.idle_timeout {
            Some(timeout)
                if !finished
                    && !self.timed_out
                    && self.now.saturating_sub(self.last_activity) >= timeout =>
            {
                self.timed_out = true;
                true
            }
            _ => false,
        }
    }

    fn encode(&mut self, msg: &Message) -> Result<Bytes, MachineError> {
        let mut out = Vec::with_capacity(msg.frame_len());
        write_frame_buf(&mut out, msg, &mut self.scratch)
            .map_err(|_| MachineError::Frame("message exceeds frame size bounds"))?;
        Ok(Bytes::from(out))
    }
}

/// Receiver-side sans-I/O machine: owns its [`WorkingSet`] and a
/// [`ReceiverSession`], exposing only the event/action surface.
#[derive(Debug)]
pub struct ReceiverMachine {
    session: ReceiverSession,
    working: WorkingSet,
    opening: Vec<Message>,
    clock: MachineClock,
}

impl ReceiverMachine {
    /// Builds the machine over a working set. Nothing is transmitted
    /// until the driver delivers [`SessionEvent::PeerConnected`].
    #[must_use]
    pub fn new(working: WorkingSet, config: SessionConfig) -> Self {
        let (session, opening) = ReceiverSession::start(&working, config);
        Self {
            session,
            working,
            opening,
            clock: MachineClock::new(None),
        }
    }

    /// Sets an idle timeout in driver-clock units: if that much time
    /// passes (per `TickElapsed`) with no connection or frame activity
    /// while the session is unfinished, the machine emits
    /// [`SessionAction::TimedOut`] once and goes terminal.
    #[must_use]
    pub fn with_idle_timeout(mut self, ticks: u64) -> Self {
        self.clock.idle_timeout = Some(ticks);
        self
    }

    /// Feeds one event; returns the actions for the driver to execute,
    /// in order.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => {
                if self.clock.connected {
                    return Err(MachineError::Frame("duplicate PeerConnected"));
                }
                self.clock.connected = true;
                self.clock.touch();
                for msg in std::mem::take(&mut self.opening) {
                    let frame = self.clock.encode(&msg)?;
                    actions.push(SessionAction::SendFrame(frame));
                }
            }
            SessionEvent::FrameReceived(frame) => {
                if !self.clock.connected {
                    return Err(MachineError::Frame("frame before PeerConnected"));
                }
                self.clock.touch();
                let msg = decode_frame(&frame)?;
                let replies = self.session.on_message(&mut self.working, &msg)?;
                for reply in &replies {
                    let frame = self.clock.encode(reply)?;
                    actions.push(SessionAction::SendFrame(frame));
                }
                for id in self.session.take_recovered() {
                    actions.push(SessionAction::SymbolDecoded(id));
                }
                if !self.clock.reported {
                    if self.session.is_done() {
                        self.clock.reported = true;
                        actions.push(SessionAction::Completed {
                            gained: self.session.gained(),
                        });
                    } else if self.session.was_rejected() {
                        self.clock.reported = true;
                        actions.push(SessionAction::Rejected);
                    }
                }
            }
            SessionEvent::TickElapsed(now) => {
                if self.clock.tick(now, self.is_finished()) {
                    actions.push(SessionAction::TimedOut);
                }
            }
        }
        Ok(actions)
    }

    /// The machine has reached a terminal state (done, rejected, or
    /// timed out) and will take no further protocol steps.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.session.is_done() || self.session.was_rejected() || self.clock.timed_out
    }

    /// True when the stream finished normally.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.session.is_done()
    }

    /// True when admission control rejected the peer.
    #[must_use]
    pub fn was_rejected(&self) -> bool {
        self.session.was_rejected()
    }

    /// True when the idle timeout fired.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.clock.timed_out
    }

    /// New distinct symbols gained so far.
    #[must_use]
    pub fn gained(&self) -> u64 {
        self.session.gained()
    }

    /// The plan chosen after the sketch exchange (None before that).
    #[must_use]
    pub fn plan(&self) -> Option<TransferPlan> {
        self.session.plan()
    }

    /// The working set as it stands (symbols accrue during streaming).
    #[must_use]
    pub fn working(&self) -> &WorkingSet {
        &self.working
    }

    /// Consumes the machine, returning the final working set.
    #[must_use]
    pub fn into_working(self) -> WorkingSet {
        self.working
    }

    /// Consumes a (possibly mid-flight) machine and builds a fresh one
    /// over its *current* working set — the §3 re-handshake a resuming
    /// dialer performs after a cut connection. The new session's opening
    /// sketch summarizes everything decoded so far, so symbols that
    /// landed before the cut are advertised as held and never
    /// re-requested; the caller supplies a `config` whose request count
    /// reflects what is still missing. All clock state (idle timeout,
    /// terminal flags) is reset: resumption is a new connection.
    #[must_use]
    pub fn into_resumed(self, config: SessionConfig) -> Self {
        Self::new(self.working, config)
    }
}

/// Sender-side sans-I/O machine over a [`SenderSession`].
#[derive(Debug)]
pub struct SenderMachine {
    session: SenderSession,
    clock: MachineClock,
    streamed: u64,
}

impl SenderMachine {
    /// Creates the sender machine over a snapshot of its working set,
    /// with the standard registry.
    #[must_use]
    pub fn new(working: WorkingSet, seed: u64) -> Self {
        Self {
            session: SenderSession::new(working, seed),
            clock: MachineClock::new(None),
            streamed: 0,
        }
    }

    /// As [`SenderMachine::new`] with an explicit summary registry.
    #[must_use]
    pub fn with_registry(
        working: WorkingSet,
        seed: u64,
        registry: std::sync::Arc<SummaryRegistry>,
    ) -> Self {
        Self {
            session: SenderSession::with_registry(working, seed, registry),
            clock: MachineClock::new(None),
            streamed: 0,
        }
    }

    /// Sets an idle timeout (see [`ReceiverMachine::with_idle_timeout`]).
    #[must_use]
    pub fn with_idle_timeout(mut self, ticks: u64) -> Self {
        self.clock.idle_timeout = Some(ticks);
        self
    }

    /// Feeds one event; returns the actions for the driver to execute.
    /// The sender speaks only in response to the receiver, so
    /// `PeerConnected` produces no frames.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => {
                if self.clock.connected {
                    return Err(MachineError::Frame("duplicate PeerConnected"));
                }
                self.clock.connected = true;
                self.clock.touch();
            }
            SessionEvent::FrameReceived(frame) => {
                if !self.clock.connected {
                    return Err(MachineError::Frame("frame before PeerConnected"));
                }
                self.clock.touch();
                let msg = decode_frame(&frame)?;
                let replies = self.session.on_message(&msg)?;
                for reply in &replies {
                    if let Message::End { sent } = reply {
                        self.streamed = *sent;
                    }
                    let frame = self.clock.encode(reply)?;
                    actions.push(SessionAction::SendFrame(frame));
                }
                if self.session.is_done() && !self.clock.reported {
                    self.clock.reported = true;
                    actions.push(SessionAction::Completed {
                        gained: self.streamed,
                    });
                }
            }
            SessionEvent::TickElapsed(now) => {
                if self.clock.tick(now, self.is_finished()) {
                    actions.push(SessionAction::TimedOut);
                }
            }
        }
        Ok(actions)
    }

    /// The machine has reached a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.session.is_done() || self.clock.timed_out
    }

    /// True when the sender has answered the request (or been rejected).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.session.is_done()
    }

    /// True when the idle timeout fired.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.clock.timed_out
    }

    /// Symbols streamed in answer to the request (the `End` count).
    #[must_use]
    pub fn streamed(&self) -> u64 {
        self.streamed
    }
}

/// In-memory frame-level driver for one receiver/sender machine pair:
/// the sans-I/O analogue of [`crate::SessionPump`]. Each
/// [`FramePump::step`] moves at most one frame in each direction and
/// never blocks, so schedulers can interleave many pumps. Byte counters
/// sum the exact framed lengths crossing each direction.
#[derive(Debug, Default)]
pub struct FramePump {
    to_sender: std::collections::VecDeque<Bytes>,
    to_receiver: std::collections::VecDeque<Bytes>,
    bytes_to_sender: u64,
    bytes_to_receiver: u64,
}

impl FramePump {
    /// Creates an empty pump; call [`FramePump::start`] to connect the
    /// machines.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers `PeerConnected` to both machines and queues the
    /// receiver's opening frames. Non-transport actions are appended to
    /// `actions`.
    pub fn start(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        self.route(receiver.handle(SessionEvent::PeerConnected)?, true, actions);
        self.route(sender.handle(SessionEvent::PeerConnected)?, false, actions);
        Ok(())
    }

    fn route(&mut self, from: Vec<SessionAction>, from_receiver: bool, sink: &mut Vec<SessionAction>) {
        for action in from {
            match action {
                SessionAction::SendFrame(frame) => {
                    if from_receiver {
                        self.bytes_to_sender += frame.len() as u64;
                        self.to_sender.push_back(frame);
                    } else {
                        self.bytes_to_receiver += frame.len() as u64;
                        self.to_receiver.push_back(frame);
                    }
                }
                other => sink.push(other),
            }
        }
    }

    /// True when no frame is queued in either direction.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.to_sender.is_empty() && self.to_receiver.is_empty()
    }

    /// Total framed bytes delivered so far `(to_sender, to_receiver)`.
    #[must_use]
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_to_sender, self.bytes_to_receiver)
    }

    /// Delivers at most one queued frame to each machine. Non-transport
    /// actions are appended to `actions`; frames are re-queued toward
    /// the opposite side.
    pub fn step(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
    ) -> Result<PumpStep, MachineError> {
        let mut progressed = false;
        if let Some(frame) = self.to_sender.pop_front() {
            let out = sender.handle(SessionEvent::FrameReceived(frame))?;
            self.route(out, false, actions);
            progressed = true;
        }
        if let Some(frame) = self.to_receiver.pop_front() {
            let out = receiver.handle(SessionEvent::FrameReceived(frame))?;
            self.route(out, true, actions);
            progressed = true;
        }
        Ok(if progressed {
            PumpStep::Progressed
        } else {
            PumpStep::Idle
        })
    }

    /// Drives both machines to quiescence, returning all non-transport
    /// actions in delivery order.
    pub fn run(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
    ) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        self.start(receiver, sender, &mut actions)?;
        while self.step(receiver, sender, &mut actions)? == PumpStep::Progressed {}
        Ok(actions)
    }
}

/// Wire-exact byte counters a blocking driver accumulates: every frame
/// written or read, prefix included, split by plane (data = encoded or
/// recoded symbol frames, control = everything else).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Framed bytes of control traffic (sketches, summary, request, end).
    pub control_bytes: u64,
    /// Framed bytes of data traffic (encoded/recoded symbol frames).
    pub data_bytes: u64,
    /// Total frames moved in either direction.
    pub frames: u64,
}

impl WireStats {
    /// Books one frame (either direction): the whole framed length,
    /// classified data vs control by its message tag. Public so custom
    /// drive loops (e.g. a daemon's budgeted serve path) book frames
    /// exactly like the built-in drivers.
    pub fn count(&mut self, frame: &Bytes) {
        self.frames += 1;
        let data = frame
            .get(FRAME_PREFIX_BYTES)
            .is_some_and(|&tag| Message::is_data_tag(tag));
        if data {
            self.data_bytes += frame.len() as u64;
        } else {
            self.control_bytes += frame.len() as u64;
        }
    }

    /// Total framed bytes moved.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.control_bytes + self.data_bytes
    }
}

/// Counters accumulate across attempts: a retrying dialer sums the
/// partial stats of every severed attempt into the final report, so
/// wasted wire bytes stay visible instead of vanishing with the failed
/// connection.
impl std::ops::AddAssign for WireStats {
    fn add_assign(&mut self, other: Self) {
        self.control_bytes += other.control_bytes;
        self.data_bytes += other.data_bytes;
        self.frames += other.frames;
    }
}

/// Errors from the blocking stream drivers.
#[derive(Debug)]
pub enum DriveError {
    /// The transport failed (I/O error, oversized, truncated or garbled
    /// frame).
    Transport(FrameError),
    /// The machine rejected an event.
    Machine(MachineError),
    /// The peer closed the stream before the session finished. Carries
    /// the counters for the frames that did cross, so a daemon can book
    /// partial traffic before tearing the connection down.
    PeerClosed {
        /// Wire bytes moved before the premature close.
        stats: WireStats,
    },
    /// A configured read timeout elapsed before the session finished —
    /// the peer is alive-but-silent or gone without a FIN. The stream
    /// must be discarded (a partial frame may be in flight).
    ReadTimeout {
        /// Wire bytes moved before the timeout.
        stats: WireStats,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Machine(e) => write!(f, "machine: {e}"),
            Self::PeerClosed { stats } => write!(
                f,
                "peer closed mid-session after {} bytes in {} frames",
                stats.total(),
                stats.frames
            ),
            Self::ReadTimeout { stats } => write!(
                f,
                "read timeout mid-session after {} bytes in {} frames",
                stats.total(),
                stats.frames
            ),
        }
    }
}

impl std::error::Error for DriveError {}

impl From<FrameError> for DriveError {
    fn from(e: FrameError) -> Self {
        Self::Transport(e)
    }
}

impl From<MachineError> for DriveError {
    fn from(e: MachineError) -> Self {
        Self::Machine(e)
    }
}

fn execute<S: std::io::Write>(
    actions: &[SessionAction],
    stream: &mut S,
    stats: &mut WireStats,
) -> Result<(), DriveError> {
    for action in actions {
        if let SessionAction::SendFrame(frame) = action {
            stats.count(frame);
            // Through `FrameError::from`, so a write deadline
            // (WouldBlock/TimedOut) classifies as the transient
            // `FrameError::TimedOut` a retry policy may redial on,
            // not an opaque I/O failure.
            stream.write_all(frame).map_err(FrameError::from)?;
        }
    }
    // One batch of replies, one write: the stream is buffered (see
    // `buffered_session`), and flushing here rather than at the next
    // read keeps a write failure classified as one.
    stream.flush().map_err(FrameError::from)?;
    Ok(())
}

/// Maps a mid-session read failure to the typed driver error. The drive
/// loops only read while the machine is unfinished, so `Closed` here is
/// always a *premature* close, never a normal shutdown.
fn read_failure(e: FrameError, stats: WireStats) -> DriveError {
    match e {
        FrameError::Closed => DriveError::PeerClosed { stats },
        FrameError::TimedOut => DriveError::ReadTimeout { stats },
        other => DriveError::Transport(other),
    }
}

/// Runs a [`ReceiverMachine`] over a blocking stream until the session
/// finishes. Returns wire-exact byte counters for every frame that
/// crossed the stream in either direction. A peer that closes or goes
/// silent (with a socket read timeout set) before the session finishes
/// yields [`DriveError::PeerClosed`] / [`DriveError::ReadTimeout`]
/// carrying the partial counters.
pub fn drive_receiver<S: std::io::Read + std::io::Write>(
    machine: &mut ReceiverMachine,
    stream: &mut S,
    limit: FrameLimit,
) -> Result<WireStats, DriveError> {
    drive_receiver_with(machine, stream, limit, |_, _| {})
}

/// [`drive_receiver`] with a per-action observer: after each batch of
/// reply frames is written, `observe` sees every action the machine
/// emitted alongside the machine itself. A daemon uses this to ingest
/// [`SessionAction::SymbolDecoded`] ids into a shared working set while
/// the session is still running, so parallel sessions benefit from each
/// other's progress.
pub fn drive_receiver_with<S, F>(
    machine: &mut ReceiverMachine,
    stream: &mut S,
    limit: FrameLimit,
    mut observe: F,
) -> Result<WireStats, DriveError>
where
    S: std::io::Read + std::io::Write,
    F: FnMut(&SessionAction, &ReceiverMachine),
{
    buffered_session(stream, |stream| {
        let mut stats = WireStats::default();
        let actions = machine.handle(SessionEvent::PeerConnected)?;
        execute(&actions, stream, &mut stats)?;
        for action in &actions {
            observe(action, machine);
        }
        while !machine.is_finished() {
            let frame = match read_frame_bytes(stream, limit) {
                Ok(frame) => frame,
                Err(e) => return Err(read_failure(e, stats)),
            };
            stats.count(&frame);
            let actions = machine.handle(SessionEvent::FrameReceived(frame))?;
            execute(&actions, stream, &mut stats)?;
            for action in &actions {
                observe(action, machine);
            }
        }
        Ok(stats)
    })
}

/// Runs a [`SenderMachine`] over a blocking stream: feed inbound frames,
/// write replies, stop when the session completes. Premature peer close
/// or read timeout becomes a typed [`DriveError`] like the receiver
/// side's.
pub fn drive_sender<S: std::io::Read + std::io::Write>(
    machine: &mut SenderMachine,
    stream: &mut S,
    limit: FrameLimit,
) -> Result<WireStats, DriveError> {
    buffered_session(stream, |stream| {
        let mut stats = WireStats::default();
        execute(
            &machine.handle(SessionEvent::PeerConnected)?,
            stream,
            &mut stats,
        )?;
        while !machine.is_finished() {
            let frame = match read_frame_bytes(stream, limit) {
                Ok(frame) => frame,
                Err(e) => return Err(read_failure(e, stats)),
            };
            stats.count(&frame);
            execute(
                &machine.handle(SessionEvent::FrameReceived(frame))?,
                stream,
                &mut stats,
            )?;
        }
        Ok(stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use icd_fountain::EncodedSymbol;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn sym(id: u64) -> EncodedSymbol {
        EncodedSymbol {
            id,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
        }
    }

    fn working(ids: &[u64]) -> WorkingSet {
        WorkingSet::from_symbols(ids.iter().map(|&id| sym(id)))
    }

    fn ids(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Build the canonical overlapping scenario: receiver has
    /// shared ∪ receiver-extra, sender shared ∪ sender-extra.
    fn machines(request: u64) -> (ReceiverMachine, SenderMachine, usize) {
        let shared = ids(600, 1);
        let fresh = ids(250, 2);
        let recv_ws = working(&shared);
        let mut sender_ids = shared.clone();
        sender_ids.extend(fresh.iter().copied());
        let send_ws = working(&sender_ids);
        let receiver =
            ReceiverMachine::new(recv_ws, SessionConfig::new().with_request(request));
        let sender = SenderMachine::new(send_ws, 7);
        (receiver, sender, fresh.len())
    }

    #[test]
    fn machines_complete_a_transfer_with_wire_exact_bytes() {
        let (mut receiver, mut sender, fresh) = machines(1000);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.is_done());
        assert!(sender.is_done());
        let decoded: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(decoded.len() as u64, receiver.gained());
        assert!(receiver.gained() as usize > fresh * 9 / 10);
        // Every decoded id is genuinely in the final working set.
        for id in &decoded {
            assert!(receiver.working().contains(*id));
        }
        // Completion actions fired exactly once per side.
        let completions = actions
            .iter()
            .filter(|a| matches!(a, SessionAction::Completed { .. }))
            .count();
        assert_eq!(completions, 2);
        // Pump byte counters are sums of whole frame lengths, which are
        // at least prefix + tag + something per frame.
        let (to_sender, to_receiver) = pump.wire_bytes();
        assert!(to_sender > 0 && to_receiver > 0);
    }

    #[test]
    fn machine_pump_agrees_with_session_pump_byte_for_byte() {
        // The same scenario through the legacy message-level pump and
        // the frame-level machine pump must exchange identical bytes.
        let shared = ids(500, 11);
        let fresh = ids(200, 12);
        let mut sender_ids = shared.clone();
        sender_ids.extend(fresh.iter().copied());
        let config = SessionConfig::new().with_request(500);

        // Legacy: count encoded frame lengths via the observer.
        let mut recv_ws = working(&shared);
        let send_ws = working(&sender_ids);
        let (mut recv, opening) =
            crate::session::ReceiverSession::start(&recv_ws, config.clone());
        let mut send = crate::session::SenderSession::new(send_ws, 7);
        let mut legacy_bytes = 0u64;
        crate::session::pump_observed(
            &mut recv,
            &mut recv_ws,
            &mut send,
            opening,
            |msg| legacy_bytes += msg.frame_len() as u64,
        )
        .expect("legacy pump");

        // Machines: the pump counters sum actual frame buffers.
        let (mut receiver, mut sender) = (
            ReceiverMachine::new(working(&shared), config),
            SenderMachine::new(working(&sender_ids), 7),
        );
        let mut pump = FramePump::new();
        pump.run(&mut receiver, &mut sender).expect("machine pump");
        let (to_sender, to_receiver) = pump.wire_bytes();
        assert_eq!(legacy_bytes, to_sender + to_receiver);
        assert_eq!(recv.gained(), receiver.gained());
        assert_eq!(recv_ws.sorted_ids(), receiver.working().sorted_ids());
    }

    #[test]
    fn rejection_surfaces_as_an_action() {
        let shared = ids(400, 21);
        let mut receiver =
            ReceiverMachine::new(working(&shared), SessionConfig::default());
        let mut sender = SenderMachine::new(working(&shared), 3);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.was_rejected());
        assert!(actions.contains(&SessionAction::Rejected));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, SessionAction::SymbolDecoded(_))));
    }

    #[test]
    fn idle_timeout_is_driver_clocked() {
        let (receiver, _sender, _) = machines(10);
        let mut receiver = receiver.with_idle_timeout(5);
        let connect = receiver.handle(SessionEvent::PeerConnected).expect("connect");
        assert!(matches!(connect[0], SessionAction::SendFrame(_)));
        // Time only moves when the driver says so.
        assert!(receiver
            .handle(SessionEvent::TickElapsed(4))
            .expect("tick")
            .is_empty());
        let fired = receiver.handle(SessionEvent::TickElapsed(5)).expect("tick");
        assert_eq!(fired, vec![SessionAction::TimedOut]);
        assert!(receiver.timed_out() && receiver.is_finished());
        // The timeout reports once, not every tick.
        assert!(receiver
            .handle(SessionEvent::TickElapsed(100))
            .expect("tick")
            .is_empty());
    }

    #[test]
    fn event_misuse_is_an_error_not_a_panic() {
        let (mut receiver, mut sender, _) = machines(10);
        let frame = Bytes::from_static(&[1, 0, 0, 0, 0x7F]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(frame.clone())),
            Err(MachineError::Frame(_))
        ));
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        assert!(matches!(
            sender.handle(SessionEvent::PeerConnected),
            Err(MachineError::Frame(_))
        ));
        // A frame whose prefix lies about its length is rejected.
        receiver.handle(SessionEvent::PeerConnected).expect("connect");
        let lying = Bytes::from_static(&[9, 0, 0, 0, 0x7F]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(lying)),
            Err(MachineError::Frame(_))
        ));
        // Truncated-at-prefix frames too.
        let stub = Bytes::from_static(&[1, 0]);
        assert!(matches!(
            receiver.handle(SessionEvent::FrameReceived(stub)),
            Err(MachineError::Frame(_))
        ));
    }

    // An in-memory duplex "socket": two Vec-backed half-channels.
    // Exercises drive_receiver/drive_sender — the exact code the real
    // daemon runs — without touching the network.
    struct Half {
        incoming: std::sync::mpsc::Receiver<Vec<u8>>,
        outgoing: std::sync::mpsc::Sender<Vec<u8>>,
        residue: Vec<u8>,
    }
    impl std::io::Read for Half {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.residue.is_empty() {
                match self.incoming.recv() {
                    Ok(chunk) => self.residue = chunk,
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.residue.len());
            buf[..n].copy_from_slice(&self.residue[..n]);
            self.residue.drain(..n);
            Ok(n)
        }
    }
    impl std::io::Write for Half {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            // A send after the peer hung up is a closed stream.
            self.outgoing
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn duplex() -> (Half, Half) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        (
            Half {
                incoming: a_rx,
                outgoing: a_tx,
                residue: Vec::new(),
            },
            Half {
                incoming: b_rx,
                outgoing: b_tx,
                residue: Vec::new(),
            },
        )
    }

    #[test]
    fn blocking_drivers_run_the_same_machines_over_a_duplex_pipe() {
        let (mut receiver_half, mut sender_half) = duplex();

        let (mut receiver, mut sender, fresh) = machines(1000);
        let sender_thread = std::thread::spawn(move || {
            let stats = drive_sender(&mut sender, &mut sender_half, FrameLimit::default())
                .expect("sender drive");
            (sender, stats)
        });
        let recv_stats = drive_receiver(&mut receiver, &mut receiver_half, FrameLimit::default())
            .expect("receiver drive");
        drop(receiver_half);
        let (sender, send_stats) = sender_thread.join().expect("join");

        assert!(receiver.is_done() && sender.is_done());
        assert!(receiver.gained() as usize > fresh * 9 / 10);
        // Both endpoints saw the same frames, so the counters agree.
        assert_eq!(recv_stats, send_stats);
        assert!(recv_stats.data_bytes > recv_stats.control_bytes);
        assert!(recv_stats.control_bytes > 0);
    }

    #[test]
    fn observer_sees_decoded_symbols_as_they_land() {
        let (mut receiver_half, mut sender_half) = duplex();
        let (mut receiver, mut sender, _) = machines(1000);
        let sender_thread = std::thread::spawn(move || {
            drive_sender(&mut sender, &mut sender_half, FrameLimit::default()).expect("sender")
        });
        let mut seen = Vec::new();
        drive_receiver_with(
            &mut receiver,
            &mut receiver_half,
            FrameLimit::default(),
            |action, machine| {
                if let SessionAction::SymbolDecoded(id) = action {
                    // The machine's working set already holds the symbol
                    // when the observer fires — live ingestion is sound.
                    assert!(machine.working().contains(*id));
                    seen.push(*id);
                }
            },
        )
        .expect("receiver");
        drop(receiver_half);
        sender_thread.join().expect("join");
        assert_eq!(seen.len() as u64, receiver.gained());
        assert!(!seen.is_empty());
    }

    #[test]
    fn peer_eof_mid_session_is_a_typed_error() {
        // A stream that accepts the opening sketch then reports EOF:
        // the driver must not report success for an unfinished session.
        struct DeadAfterWrite;
        impl std::io::Read for DeadAfterWrite {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        impl std::io::Write for DeadAfterWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, mut sender, _) = machines(10);
        match drive_receiver(&mut receiver, &mut DeadAfterWrite, FrameLimit::default()) {
            Err(DriveError::PeerClosed { stats }) => {
                // The opening sketch frame was still booked.
                assert_eq!(stats.frames, 1);
                assert!(stats.control_bytes > 0);
            }
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        assert!(!receiver.is_finished());
        // The sender side never even saw a first frame: zero stats.
        match drive_sender(&mut sender, &mut DeadAfterWrite, FrameLimit::default()) {
            Err(DriveError::PeerClosed { stats }) => assert_eq!(stats.total(), 0),
            other => panic!("expected PeerClosed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_mid_session_is_transport_error() {
        // The peer dies three bytes into an eight-byte frame body.
        struct TruncatedFrame {
            data: std::io::Cursor<Vec<u8>>,
        }
        impl std::io::Read for TruncatedFrame {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::io::Read::read(&mut self.data, buf)
            }
        }
        impl std::io::Write for TruncatedFrame {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 3]);
        let mut stream = TruncatedFrame {
            data: std::io::Cursor::new(wire),
        };
        let (mut receiver, _, _) = machines(10);
        assert!(matches!(
            drive_receiver(&mut receiver, &mut stream, FrameLimit::default()),
            Err(DriveError::Transport(FrameError::Truncated { needed: 5, got: 7 }))
        ));
    }

    #[test]
    fn read_timeout_mid_session_is_a_typed_error() {
        // A socket with a read timeout set surfaces WouldBlock/TimedOut;
        // the driver maps it to ReadTimeout with the partial counters.
        struct SilentPeer;
        impl std::io::Read for SilentPeer {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        impl std::io::Write for SilentPeer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, _, _) = machines(10);
        match drive_receiver(&mut receiver, &mut SilentPeer, FrameLimit::default()) {
            Err(DriveError::ReadTimeout { stats }) => assert_eq!(stats.frames, 1),
            other => panic!("expected ReadTimeout, got {other:?}"),
        }
    }

    #[test]
    fn write_deadline_surfaces_as_transient_transport_error() {
        // A socket whose *write* deadline fires: the opening sketch
        // cannot be sent. The driver must classify it as the transient
        // `FrameError::TimedOut`, not an opaque I/O failure, so retry
        // policies treat stalled writes like stalled reads.
        struct FullBuffer;
        impl std::io::Read for FullBuffer {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        impl std::io::Write for FullBuffer {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut receiver, _, _) = machines(10);
        match drive_receiver(&mut receiver, &mut FullBuffer, FrameLimit::default()) {
            Err(DriveError::Transport(e)) => {
                assert!(matches!(e, FrameError::TimedOut));
                assert!(e.is_transient());
            }
            other => panic!("expected Transport(TimedOut), got {other:?}"),
        }
    }

    #[test]
    fn resumed_machine_advertises_prior_progress_and_never_double_counts() {
        // Run a session partway, cut it, resume with a fresh handshake
        // over the now-larger set: nothing decoded before the cut may be
        // gained again afterward.
        let (mut receiver, mut sender, fresh) = machines(1000);
        let mut pump = FramePump::new();
        let mut actions = Vec::new();
        pump.start(&mut receiver, &mut sender, &mut actions).expect("start");
        // Pump only a handful of frames — the "connection" then dies.
        for _ in 0..12 {
            if pump.step(&mut receiver, &mut sender, &mut actions).expect("step") == PumpStep::Idle
            {
                break;
            }
        }
        let first: std::collections::HashSet<u64> = actions
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        let gained_before = receiver.gained();
        assert_eq!(first.len() as u64, gained_before);
        let held_at_cut = receiver.working().len();

        // Resume: re-handshake with a request for what is still missing,
        // against a fresh sender over the same inventory (the serving
        // daemon rebuilds its machine per connection too).
        let missing = 1000 - gained_before;
        let mut resumed =
            receiver.into_resumed(SessionConfig::new().with_request(missing).with_seed(99));
        assert_eq!(resumed.working().len(), held_at_cut);
        let sender_ids: Vec<u64> = {
            let mut v = ids(600, 1);
            v.extend(ids(250, 2));
            v
        };
        let mut sender2 = SenderMachine::new(working(&sender_ids), 8);
        let mut pump2 = FramePump::new();
        let actions2 = pump2.run(&mut resumed, &mut sender2).expect("resumed run");
        assert!(resumed.is_done() || resumed.was_rejected());
        let second: Vec<u64> = actions2
            .iter()
            .filter_map(|a| match a {
                SessionAction::SymbolDecoded(id) => Some(*id),
                _ => None,
            })
            .collect();
        // The resumed handshake summarized the pre-cut gains, so none of
        // them is ever re-decoded.
        for id in &second {
            assert!(!first.contains(id), "symbol {id} double-counted across resume");
        }
        // Combined, the two half-sessions still deliver the transfer.
        assert!(
            gained_before + second.len() as u64 > (fresh * 9 / 10) as u64,
            "resume lost progress: {gained_before} + {}",
            second.len()
        );
        assert_eq!(
            resumed.working().len(),
            held_at_cut + second.len(),
            "working set growth must equal fresh decodes"
        );
    }
}
