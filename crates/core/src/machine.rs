//! Sans-I/O session machines: the §3 exchange as events in, actions
//! out, with zero I/O and zero internal time.
//!
//! The receiver drives:
//!
//! 1. **R → S**: min-wise sketch (the calling card).
//! 2. **S → R**: the sender's sketch in return.
//! 3. Receiver applies the transfer policy ([`crate::policy`]):
//!    * *Reject* — session ends (admission control; no bandwidth spent
//!      beyond two 1 KB packets).
//!    * *Reconciled* — receiver builds the chosen summary through its
//!      [`SummaryRegistry`] and sends it in the generic tagged frame,
//!      plus a `SymbolRequest{count}`. Any registered mechanism —
//!      whole-set, hash-set, bloom, art, riblt, or an out-of-tree
//!      one — takes this path; the machines never name a mechanism.
//!    * *Speculative* — receiver sends only `SymbolRequest{count}`.
//! 4. **S → R**: up to `count` data messages, then `End`. The sender
//!    builds a [`StrategySender`] when the request arrives and frames
//!    what it emits: Random/summary over the ids the decoded summary's
//!    [`Reconciler`](crate::summary::Reconciler) cleared (reconciled),
//!    or Recode/MW over its whole working set in sorted order
//!    (speculative), so every frame is a function of the seeds. The
//!    answer is pulled, not pushed: each [`SenderMachine::next_frame`]
//!    generates one frame, so a driver writes the first symbol while the
//!    rest are still ungenerated and the receiver ingests while the
//!    sender encodes.
//!
//! A machine consumes [`SessionEvent`]s (`PeerConnected`,
//! `FrameReceived`) and emits [`SessionAction`]s (`SendFrame`,
//! `SymbolDecoded`, `Completed`, `Rejected`). Every `SendFrame` carries
//! the *exact* bytes `icd-wire`'s `write_frame_buf` produces — length
//! prefix included — so whatever the driver sums is by construction the
//! true wire cost. A frame is encoded once, straight into the `Bytes`
//! that carries it.
//!
//! A symbol's payload is never copied inside the machines: the receiver
//! shares its held payloads with its substitution buffer by reference
//! count, and a received encoded symbol is kept as a view of the frame
//! it arrived in. Only a recoded symbol with unknown components is
//! copied, into the buffer's accumulator.
//!
//! Time never enters a machine. Deadlines belong to the driver: the
//! blocking drivers below surface socket timeouts as
//! [`DriveError::ReadTimeout`], and [`FramePump`] reports quiescence as
//! [`PumpStep::Idle`]. The same machine therefore runs unchanged over
//! real sockets and in-memory queues.
//!
//! Drivers in this workspace:
//! * [`drive_receiver_with`] runs a receiver over any blocking
//!   `Read + Write` stream (the `icd-node` daemon's fetches; its
//!   `serve_session` drives the sender the same way);
//! * [`FramePump`] interleaves two machines over in-memory queues, one
//!   frame per direction per step (`icd-node`'s `predict` steps one
//!   pump per planned link in lockstep).

use std::collections::VecDeque;

use bytes::Bytes;
use icd_fountain::{EncodedSymbol, RecodeBuffer, SymbolId};
use icd_wire::buffered::buffered_session;
use icd_wire::framing::{
    encode_frame, encode_recoded_frame, read_frame_bytes, FrameError, FrameLimit,
};
use icd_wire::message::FRAME_PREFIX_BYTES;
use icd_wire::{Message, WireError};

use crate::policy::{plan_transfer, PolicyKnobs, TransferPlan};
use crate::strategy::{missing_at_peer, PacketScratch, StrategyKind, StrategySender};
use crate::summary::{
    diff_estimate, standard_registry, SummaryError, SummaryId, SummaryRegistry, SummarySizing,
};
use crate::working_set::WorkingSet;

/// Session-level configuration (receiver side), built with the
/// `with_*` methods:
///
/// ```
/// use icd_core::{SessionConfig, summary::SummaryId};
/// let config = SessionConfig::new()
///     .with_request(256)
///     .with_summary(SummaryId::RIBLT);
/// ```
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Symbols to request (§6.1: chosen "with appropriate allowances for
    /// decoding overhead").
    pub request: u64,
    /// Policy knobs for plan selection.
    pub knobs: PolicyKnobs,
    /// Summary sizing shared by every registered mechanism.
    pub sizing: SummarySizing,
    /// When set, skip policy scoring and ship exactly this summary —
    /// how experiment sweeps pin each mechanism in turn.
    pub summary_override: Option<SummaryId>,
    /// RNG seed (recoding draws on the sender side use the peer's seed).
    pub seed: u64,
    /// The mechanism registry both construction and scoring consult.
    pub registry: &'static SummaryRegistry,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            request: 128,
            knobs: PolicyKnobs::default(),
            sizing: SummarySizing::default(),
            summary_override: None,
            seed: 0x5E55_1014,
            registry: standard_registry(),
        }
    }
}

impl SessionConfig {
    /// Starts a builder chain from the defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of symbols to request.
    #[must_use]
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }

    /// Sets the policy knobs.
    #[must_use]
    pub fn with_knobs(mut self, knobs: PolicyKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Forces a specific summary mechanism instead of policy scoring.
    /// §4 admission control still applies: a peer with nothing useful is
    /// rejected before the pinned digest is built.
    #[must_use]
    pub fn with_summary(mut self, id: SummaryId) -> Self {
        self.summary_override = Some(id);
        self
    }

    /// Sets the session seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Protocol violations: a well-formed message the session cannot
/// accept. Transport failures are the driver's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A message arrived that the current state cannot accept.
    UnexpectedMessage {
        /// The state the machine was in.
        state: &'static str,
        /// A short description of the offending message.
        got: &'static str,
    },
    /// The peer's sketch uses a different permutation family.
    FamilyMismatch,
    /// A summary frame named a mechanism absent from this side's
    /// registry.
    UnknownSummary {
        /// The raw id the frame carried.
        id: u16,
    },
    /// A summary body failed its mechanism's decoder.
    MalformedSummary(&'static str),
    /// A data frame's payload length differs from the session's symbol
    /// length (fixed by the first symbol held or received).
    PayloadLength {
        /// The session's symbol length in bytes.
        expected: usize,
        /// The length the frame carried.
        got: usize,
    },
}

impl From<SummaryError> for SessionError {
    fn from(err: SummaryError) -> Self {
        match err {
            SummaryError::Unknown(id) => Self::UnknownSummary { id: id.0 },
            SummaryError::Malformed(why) => Self::MalformedSummary(why),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedMessage { state, got } => {
                write!(f, "unexpected {got} in state {state}")
            }
            Self::FamilyMismatch => write!(f, "peer sketch from a different permutation family"),
            Self::UnknownSummary { id } => write!(f, "summary id {id} not in registry"),
            Self::MalformedSummary(why) => write!(f, "summary body rejected: {why}"),
            Self::PayloadLength { expected, got } => {
                write!(
                    f,
                    "data payload of {got} bytes, session symbols are {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

fn describe(msg: &Message) -> &'static str {
    match msg {
        Message::Minwise(_) => "minwise sketch",
        Message::Summary { .. } => "summary frame",
        Message::SymbolRequest { .. } => "symbol request",
        Message::EncodedSymbol { .. } => "encoded symbol",
        Message::RecodedSymbol { .. } => "recoded symbol",
        Message::End { .. } => "end",
    }
}

/// An input to a session machine. Drivers translate their world —
/// sockets, simulated links, test queues — into these two events.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The transport to the peer is up; the machine may start talking.
    PeerConnected,
    /// One complete frame arrived: u32 length prefix plus encoded body,
    /// exactly as read off the wire.
    FrameReceived(Bytes),
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
}

/// Failures surfaced by a machine: malformed frames, wire decode
/// errors, or protocol violations.
#[derive(Debug)]
pub enum MachineError {
    /// The driver handed over bytes that are not one whole well-formed
    /// frame, or misused the event API (e.g. a frame before
    /// `PeerConnected`).
    Frame(&'static str),
    /// The frame body failed to decode.
    Wire(WireError),
    /// The session protocol rejected the message.
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

impl From<SummaryError> for MachineError {
    fn from(e: SummaryError) -> Self {
        Self::Session(e.into())
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
        return Err(MachineError::Frame(
            "length prefix disagrees with frame size",
        ));
    }
    Message::decode_from(&frame.slice(FRAME_PREFIX_BYTES..)).map_err(MachineError::Wire)
}

/// Transport-facing state both machines share: the connection flag
/// and whether the terminal action went out.
#[derive(Debug, Default)]
struct Framer {
    connected: bool,
    reported: bool,
}

/// Wraps a frame encoding failure as the machine error drivers see.
fn oversized(_: FrameError) -> MachineError {
    MachineError::Frame("message exceeds frame size bounds")
}

impl Framer {
    /// Accepts `PeerConnected`, once.
    fn connect(&mut self) -> Result<(), MachineError> {
        if self.connected {
            return Err(MachineError::Frame("duplicate PeerConnected"));
        }
        self.connected = true;
        Ok(())
    }

    /// Decodes an inbound frame; none may arrive before `PeerConnected`.
    fn receive(&self, frame: &Bytes) -> Result<Message, MachineError> {
        if !self.connected {
            return Err(MachineError::Frame("frame before PeerConnected"));
        }
        decode_frame(frame)
    }

    /// Encodes `msg` as one whole frame and queues it for sending.
    fn send(&self, msg: &Message, actions: &mut Vec<SessionAction>) -> Result<(), MachineError> {
        actions.push(SessionAction::SendFrame(
            encode_frame(msg).map_err(oversized)?,
        ));
        Ok(())
    }

    /// Emits the terminal action; a machine reports at most one.
    fn finish(&mut self, action: SessionAction, actions: &mut Vec<SessionAction>) {
        if !self.reported {
            self.reported = true;
            actions.push(action);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverState {
    AwaitPeerSketch,
    Streaming,
    Done,
    Rejected,
}

impl ReceiverState {
    fn name(self) -> &'static str {
        match self {
            Self::AwaitPeerSketch => "await-peer-sketch",
            Self::Streaming => "streaming",
            Self::Done => "done",
            Self::Rejected => "rejected",
        }
    }
}

/// Receiver-side sans-I/O machine: owns its [`WorkingSet`], the
/// substitution buffer over it, and the plan it negotiates. The buffer
/// and the working set hold the same payload allocations.
#[derive(Debug)]
pub struct ReceiverMachine {
    config: SessionConfig,
    state: ReceiverState,
    working: WorkingSet,
    buffer: RecodeBuffer<Bytes>,
    /// Symbol length every data frame must carry: set by the first
    /// symbol held or received, so a peer's short payload is a protocol
    /// error instead of an unequal-length XOR in the buffer.
    payload_len: Option<usize>,
    gained: u64,
    plan: Option<TransferPlan>,
    framer: Framer,
}

impl ReceiverMachine {
    /// Builds the machine over a working set. Nothing is transmitted
    /// until the driver delivers [`SessionEvent::PeerConnected`]. The
    /// substitution buffer shares the held payloads; none is copied.
    #[must_use]
    pub fn new(working: WorkingSet, config: SessionConfig) -> Self {
        let mut buffer = RecodeBuffer::new();
        let mut payload_len = None;
        for sym in working.symbols() {
            payload_len.get_or_insert(sym.payload.len());
            buffer.add_known(sym.id, sym.payload, |_, _| {});
        }
        Self {
            config,
            state: ReceiverState::AwaitPeerSketch,
            working,
            buffer,
            payload_len,
            gained: 0,
            plan: None,
            framer: Framer::default(),
        }
    }

    /// Feeds one event; returns the actions for the driver to execute,
    /// in order.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => {
                self.framer.connect()?;
                let card = Message::Minwise(self.working.sketch().clone());
                self.framer.send(&card, &mut actions)?;
            }
            SessionEvent::FrameReceived(frame) => {
                let msg = self.framer.receive(&frame)?;
                self.on_message(&msg, &mut actions)?;
                match self.state {
                    ReceiverState::Done => {
                        let done = SessionAction::Completed {
                            gained: self.gained,
                        };
                        self.framer.finish(done, &mut actions);
                    }
                    ReceiverState::Rejected => {
                        self.framer.finish(SessionAction::Rejected, &mut actions);
                    }
                    ReceiverState::AwaitPeerSketch | ReceiverState::Streaming => {}
                }
            }
        }
        Ok(actions)
    }

    /// One step of the receiver protocol: replies become `SendFrame`s,
    /// newly held symbols `SymbolDecoded`s.
    fn on_message(
        &mut self,
        msg: &Message,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        match (self.state, msg) {
            (ReceiverState::AwaitPeerSketch, Message::Minwise(peer_sketch)) => {
                if peer_sketch.family_seed() != self.working.sketch().family_seed() {
                    return Err(SessionError::FamilyMismatch.into());
                }
                let estimate = self.working.estimate_against(peer_sketch);
                // An override pins the mechanism (sweeps comparing
                // mechanisms must not have policy re-deciding per cell);
                // otherwise policy scores the registry. §4 admission
                // control applies either way — a provably useless peer
                // is rejected before any digest is built.
                let config = &self.config;
                let scored =
                    plan_transfer(&estimate, &config.knobs, &config.sizing, config.registry);
                let plan = match (config.summary_override, scored) {
                    (_, TransferPlan::Reject) => TransferPlan::Reject,
                    (Some(id), _) => TransferPlan::Reconciled { summary: id },
                    (None, scored) => scored,
                };
                // Build the digest *before* committing plan and state: a
                // registry failure (unknown override id, constructor
                // error) must leave the machine awaiting the sketch, not
                // half-streaming.
                let summary = match plan {
                    TransferPlan::Reconciled { summary } if summary != SummaryId::NONE => {
                        let digest = config.registry.build(
                            summary,
                            &config.sizing,
                            &diff_estimate(&estimate),
                            &self.working.sorted_ids(),
                        )?;
                        Some(Message::Summary {
                            summary_id: summary.0,
                            body: digest.encode_body(),
                        })
                    }
                    _ => None,
                };
                self.plan = Some(plan);
                if plan == TransferPlan::Reject {
                    self.state = ReceiverState::Rejected;
                    return self.framer.send(&Message::End { sent: 0 }, actions);
                }
                self.state = ReceiverState::Streaming;
                if let Some(summary) = summary {
                    self.framer.send(&summary, actions)?;
                }
                let count = self.config.request;
                self.framer.send(&Message::SymbolRequest { count }, actions)
            }
            (ReceiverState::Streaming, Message::EncodedSymbol { id, payload }) => {
                self.ingest(std::slice::from_ref(id), payload, actions)
            }
            (
                ReceiverState::Streaming,
                Message::RecodedSymbol {
                    components,
                    payload,
                },
            ) => self.ingest(components, payload, actions),
            (ReceiverState::Streaming, Message::End { .. }) => {
                self.state = ReceiverState::Done;
                Ok(())
            }
            (state, other) => Err(SessionError::UnexpectedMessage {
                state: state.name(),
                got: describe(other),
            }
            .into()),
        }
    }

    /// Substitutes one data message into the buffer. Each symbol it
    /// recovers that is new to the working set is a `SymbolDecoded`. A
    /// payload of the wrong length is rejected before it reaches the
    /// buffer. `payload` is a view of the frame; an encoded symbol is
    /// kept as that view.
    fn ingest(
        &mut self,
        components: &[u64],
        payload: &Bytes,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        let expected = *self.payload_len.get_or_insert(payload.len());
        if payload.len() != expected {
            return Err(SessionError::PayloadLength {
                expected,
                got: payload.len(),
            }
            .into());
        }
        let (working, gained) = (&mut self.working, &mut self.gained);
        self.buffer
            .receive(components, payload.clone(), |id, payload| {
                let payload = payload.clone();
                if working.insert(EncodedSymbol { id, payload }) {
                    *gained += 1;
                    actions.push(SessionAction::SymbolDecoded(id));
                }
            });
        Ok(())
    }

    /// The machine has reached a terminal state (done or rejected) and
    /// will take no further protocol steps.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(self.state, ReceiverState::Done | ReceiverState::Rejected)
    }

    /// True when the stream finished normally.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == ReceiverState::Done
    }

    /// True when admission control rejected the peer.
    #[must_use]
    pub fn was_rejected(&self) -> bool {
        self.state == ReceiverState::Rejected
    }

    /// New distinct symbols gained so far.
    #[must_use]
    pub fn gained(&self) -> u64 {
        self.gained
    }

    /// The plan chosen after the sketch exchange (None before that).
    #[must_use]
    pub fn plan(&self) -> Option<TransferPlan> {
        self.plan
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
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderState {
    AwaitSketch,
    AwaitPlan,
    Streaming,
    Done,
}

impl SenderState {
    fn name(self) -> &'static str {
        match self {
            Self::AwaitSketch => "await-sketch",
            Self::AwaitPlan => "await-plan",
            Self::Streaming => "streaming",
            Self::Done => "done",
        }
    }
}

/// The answer to a symbol request while it is being pulled: the
/// strategy that picks each packet and how many frames are still due.
#[derive(Debug)]
struct Answer {
    sender: StrategySender,
    packet: PacketScratch,
    /// The held payloads' one length, a recoded frame's payload length.
    payload_len: usize,
    count: u64,
    sent: u64,
}

/// Sender-side sans-I/O machine. Owns a snapshot of the sender's working
/// set for the connection's duration (the §6.1 model: summaries and
/// inventories are not updated mid-connection).
#[derive(Debug)]
pub struct SenderMachine {
    working: WorkingSet,
    state: SenderState,
    registry: &'static SummaryRegistry,
    /// Estimated share of this sender's set the receiver holds, from
    /// its sketch: the speculative transfer's degree scaling.
    containment: f64,
    /// The receiver summary's mechanism and the ids it cleared.
    cleared: Option<(SummaryId, Vec<SymbolId>)>,
    seed: u64,
    /// Open from the request until its `End` frame is pulled.
    answer: Option<Answer>,
    framer: Framer,
}

impl SenderMachine {
    /// Creates the sender machine over a snapshot of its working set,
    /// with the standard registry.
    #[must_use]
    pub fn new(working: WorkingSet, seed: u64) -> Self {
        Self {
            working,
            state: SenderState::AwaitSketch,
            registry: standard_registry(),
            containment: 0.0,
            cleared: None,
            seed,
            answer: None,
            framer: Framer::default(),
        }
    }

    /// Feeds one event; returns the actions for the driver to execute.
    /// The sender speaks only in response to the receiver, so
    /// `PeerConnected` produces no frames, and a symbol request produces
    /// none either: it opens the answer that [`SenderMachine::next_frame`]
    /// yields frame by frame.
    pub fn handle(&mut self, event: SessionEvent) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::PeerConnected => self.framer.connect()?,
            SessionEvent::FrameReceived(frame) => {
                let msg = self.framer.receive(&frame)?;
                self.on_message(&msg, &mut actions)?;
                if self.state == SenderState::Done {
                    self.framer
                        .finish(SessionAction::Completed { gained: 0 }, &mut actions);
                }
            }
        }
        Ok(actions)
    }

    /// One step of the sender protocol.
    fn on_message(
        &mut self,
        msg: &Message,
        actions: &mut Vec<SessionAction>,
    ) -> Result<(), MachineError> {
        match (self.state, msg) {
            (SenderState::AwaitSketch, Message::Minwise(sketch)) => {
                if sketch.family_seed() != self.working.sketch().family_seed() {
                    return Err(SessionError::FamilyMismatch.into());
                }
                self.containment = sketch.estimate(self.working.sketch()).containment_of_b();
                self.state = SenderState::AwaitPlan;
                let card = Message::Minwise(self.working.sketch().clone());
                self.framer.send(&card, actions)
            }
            (SenderState::AwaitPlan, Message::Summary { summary_id, body }) => {
                let id = SummaryId(*summary_id);
                let cleared = missing_at_peer(self.registry, id, body, &self.working.sorted_ids())?;
                self.cleared = Some((id, cleared));
                Ok(())
            }
            (SenderState::AwaitPlan, Message::SymbolRequest { count }) => {
                self.open_answer(*count);
                Ok(())
            }
            (SenderState::AwaitPlan, Message::End { .. }) => {
                // Admission control rejected us; nothing to do.
                self.state = SenderState::Done;
                Ok(())
            }
            (state, other) => Err(SessionError::UnexpectedMessage {
                state: state.name(),
                got: describe(other),
            }
            .into()),
        }
    }

    /// Opens the answer to a request for `count` symbols: the
    /// reconciled transfer walks the cleared ids, each at most once; the
    /// speculative one recodes over the whole set with min-wise-scaled
    /// degrees. Either stops at `count` or exhaustion, then sends `End`.
    fn open_answer(&mut self, count: u64) {
        let (kind, pool) = match self.cleared.take() {
            Some((id, cleared)) => (StrategyKind::RandomSummary(id), cleared),
            None => (StrategyKind::RecodeMinwise, self.working.sorted_ids()),
        };
        let hint = usize::try_from(count).unwrap_or(usize::MAX);
        let sender = StrategySender::new(
            kind,
            pool,
            self.containment,
            self.seed,
            hint,
            Some(&self.working),
        );
        self.answer = Some(Answer {
            sender,
            packet: PacketScratch::default(),
            payload_len: self.working.symbols().next().map_or(0, |s| s.payload.len()),
            count,
            sent: 0,
        });
        self.state = SenderState::Streaming;
    }

    /// Generates the next frame of the open answer into `actions` and
    /// returns `true`: a data frame, or — once the request is met or the
    /// strategy is exhausted — the `End` frame followed by `Completed`.
    /// Returns `false`, adding nothing, when no answer is open (before
    /// the request, or after `End`). Each call encodes exactly one
    /// frame, so a driver interleaves generation with writing.
    pub fn next_frame(&mut self, actions: &mut Vec<SessionAction>) -> Result<bool, MachineError> {
        let Some(answer) = self.answer.as_mut() else {
            return Ok(false);
        };
        while answer.sent < answer.count && answer.sender.emit(&mut answer.packet) {
            let packet = &answer.packet;
            let frame = if packet.is_recoded() {
                // The recoder XORs the components straight into the
                // frame's zeroed payload region.
                let sender = &answer.sender;
                encode_recoded_frame(packet.ids(), answer.payload_len, |out| {
                    sender.recoded_payload_into(packet, out);
                })
            } else {
                let id = packet.ids()[0];
                // A reconciler answers from the ids it was given, so
                // every cleared id is held; the payload is shared with
                // the working set (a reference count, not a copy).
                let Some(payload) = self.working.payload(id) else {
                    continue;
                };
                encode_frame(&Message::EncodedSymbol {
                    id,
                    payload: payload.clone(),
                })
            };
            actions.push(SessionAction::SendFrame(frame.map_err(oversized)?));
            answer.sent += 1;
            return Ok(true);
        }
        let sent = answer.sent;
        self.answer = None;
        self.state = SenderState::Done;
        self.framer.send(&Message::End { sent }, actions)?;
        self.framer
            .finish(SessionAction::Completed { gained: sent }, actions);
        Ok(true)
    }

    /// True from the symbol request until the answer's `End` frame has
    /// been pulled with [`SenderMachine::next_frame`].
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.answer.is_some()
    }

    /// The sender has answered the request (or been rejected) and will
    /// take no further protocol steps.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state == SenderState::Done
    }
}

/// What one [`FramePump::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpStep {
    /// At least one frame was delivered.
    Progressed,
    /// Both queues were empty — the exchange is quiescent. Stepping
    /// again stays `Idle`; the call never blocks.
    Idle,
}

/// In-memory driver for one receiver/sender machine pair. Each
/// [`FramePump::step`] moves at most one frame in each direction and
/// never blocks — the shape an event-driven scheduler needs: it can
/// interleave steps of many pumps and detect quiescence without ever
/// parking a thread. [`FramePump::run`] is a loop over `step`, so both
/// drive byte-identical exchanges. Byte counters sum the exact framed
/// lengths delivered in each direction.
///
/// The sender's answer stream behaves as if it were queued behind the
/// sender's other frames, but each frame is pulled from the machine
/// only in the step that delivers it.
#[derive(Debug, Default)]
pub struct FramePump {
    to_sender: VecDeque<Bytes>,
    to_receiver: VecDeque<Bytes>,
    /// Whether the sender has an answer open (frames still to pull).
    sender_streaming: bool,
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

    fn route(
        &mut self,
        from: Vec<SessionAction>,
        from_receiver: bool,
        sink: &mut Vec<SessionAction>,
    ) {
        for action in from {
            match action {
                SessionAction::SendFrame(frame) if from_receiver => self.to_sender.push_back(frame),
                SessionAction::SendFrame(frame) => self.to_receiver.push_back(frame),
                other => sink.push(other),
            }
        }
    }

    /// True when no frame is queued in either direction and the sender
    /// has none left to pull.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.to_sender.is_empty() && self.to_receiver.is_empty() && !self.sender_streaming
    }

    /// Total framed bytes delivered so far `(to_sender, to_receiver)`.
    #[must_use]
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_to_sender, self.bytes_to_receiver)
    }

    /// Delivers at most one queued frame to each machine. Both frames
    /// are taken off their queues before either is delivered, so a frame
    /// a machine answers with waits for the next step; the
    /// receiver-bound frame is delivered first. When nothing is queued
    /// toward the receiver, the sender's next answer frame is pulled
    /// ([`SenderMachine::next_frame`]) in its place. Non-transport
    /// actions are appended to `actions`; frames are re-queued toward
    /// the opposite side.
    pub fn step(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
    ) -> Result<PumpStep, MachineError> {
        self.step_observed(receiver, sender, actions, &mut |_| {})
    }

    fn step_observed(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        actions: &mut Vec<SessionAction>,
        observe: &mut impl FnMut(&Bytes),
    ) -> Result<PumpStep, MachineError> {
        if self.to_receiver.is_empty() && self.sender_streaming {
            let mut pulled = Vec::new();
            sender.next_frame(&mut pulled)?;
            self.sender_streaming = sender.is_streaming();
            self.route(pulled, false, actions);
        }
        let to_receiver = self.to_receiver.pop_front();
        let to_sender = self.to_sender.pop_front();
        if to_receiver.is_none() && to_sender.is_none() {
            return Ok(PumpStep::Idle);
        }
        if let Some(frame) = to_receiver {
            observe(&frame);
            self.bytes_to_receiver += frame.len() as u64;
            let out = receiver.handle(SessionEvent::FrameReceived(frame))?;
            self.route(out, true, actions);
        }
        if let Some(frame) = to_sender {
            observe(&frame);
            self.bytes_to_sender += frame.len() as u64;
            let out = sender.handle(SessionEvent::FrameReceived(frame))?;
            self.sender_streaming = sender.is_streaming();
            self.route(out, false, actions);
        }
        Ok(PumpStep::Progressed)
    }

    /// Drives both machines to quiescence, returning all non-transport
    /// actions in delivery order.
    pub fn run(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
    ) -> Result<Vec<SessionAction>, MachineError> {
        self.run_observed(receiver, sender, |_| {})
    }

    /// [`FramePump::run`] with an observer shown every frame, either
    /// direction, as it is delivered — for harnesses that classify the
    /// bytes a session actually put on the wire.
    pub fn run_observed(
        &mut self,
        receiver: &mut ReceiverMachine,
        sender: &mut SenderMachine,
        mut observe: impl FnMut(&Bytes),
    ) -> Result<Vec<SessionAction>, MachineError> {
        let mut actions = Vec::new();
        self.start(receiver, sender, &mut actions)?;
        while self.step_observed(receiver, sender, &mut actions, &mut observe)?
            == PumpStep::Progressed
        {}
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

/// Writes every `SendFrame` in `actions` to the buffered stream, booking
/// each in `stats`.
fn write_frames<S: std::io::Write>(
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
    Ok(())
}

fn execute<S: std::io::Write>(
    actions: &[SessionAction],
    stream: &mut S,
    stats: &mut WireStats,
) -> Result<(), DriveError> {
    write_frames(actions, stream, stats)?;
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
///
/// After each batch of reply frames is written, `observe` sees every
/// action the machine emitted alongside the machine itself. A daemon
/// uses this to ingest [`SessionAction::SymbolDecoded`] ids into a
/// shared working set while the session is still running, so parallel
/// sessions benefit from each other's progress.
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

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    /// The sender's side of [`drive_receiver_with`] for these tests:
    /// feed inbound frames, write replies, stop when the session
    /// completes, pulling the answer one frame at a time through the
    /// stream's write buffer. (`icd-node`'s `serve_session` is the
    /// product's blocking sender loop.)
    fn drive_sender<S: std::io::Read + std::io::Write>(
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
            let mut pulled = Vec::new();
            while !machine.is_finished() {
                if machine.next_frame(&mut pulled)? {
                    write_frames(&pulled, stream, &mut stats)?;
                    pulled.clear();
                    continue;
                }
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

    /// Drives `receiver` over `stream` with no per-action observer.
    fn drive<S: std::io::Read + std::io::Write>(
        receiver: &mut ReceiverMachine,
        stream: &mut S,
    ) -> Result<WireStats, DriveError> {
        drive_receiver_with(receiver, stream, FrameLimit::default(), |_, _| {})
    }

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

    /// `msg` as the whole frame a peer would deliver.
    fn frame(msg: &Message) -> SessionEvent {
        SessionEvent::FrameReceived(encode_frame(msg).expect("frame"))
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
        let receiver = ReceiverMachine::new(recv_ws, SessionConfig::new().with_request(request));
        let sender = SenderMachine::new(send_ws, 7);
        (receiver, sender, fresh.len())
    }

    /// Runs a receiver over `shared` against a sender over `shared ∪
    /// fresh` to quiescence.
    fn transfer(
        shared: &[u64],
        fresh: &[u64],
        config: SessionConfig,
        seed: u64,
    ) -> ReceiverMachine {
        let mut sender_ids = shared.to_vec();
        sender_ids.extend(fresh.iter().copied());
        let mut receiver = ReceiverMachine::new(working(shared), config);
        let mut sender = SenderMachine::new(working(&sender_ids), seed);
        FramePump::new()
            .run(&mut receiver, &mut sender)
            .expect("run");
        assert!(sender.is_finished());
        receiver
    }

    #[test]
    fn machines_complete_a_transfer_with_wire_exact_bytes() {
        let (mut receiver, mut sender, fresh) = machines(1000);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.is_done());
        assert!(sender.is_finished());
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
            assert!(receiver.working().payload(*id).is_some());
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
    fn held_payloads_are_shared_with_the_substitution_buffer() {
        let working = working(&ids(200, 50));
        let held: Vec<(u64, *const u8)> = working
            .symbols()
            .map(|s| (s.id, s.payload.as_ptr()))
            .collect();
        let receiver = ReceiverMachine::new(working, SessionConfig::default());
        for (id, ptr) in held {
            let payload = receiver
                .buffer
                .known_payload(id)
                .expect("held symbol is known");
            assert_eq!(payload.as_ptr(), ptr, "symbol {id} copied into the buffer");
        }
    }

    #[test]
    fn received_encoded_symbols_are_views_of_their_frame() {
        let shared = ids(300, 51);
        let peer = working(&ids(300, 52));
        let mut receiver = ReceiverMachine::new(working(&shared), SessionConfig::default());
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        receiver
            .handle(frame(&Message::Minwise(peer.sketch().clone())))
            .expect("peer sketch");
        let id = 0xFEED;
        let symbol = Message::EncodedSymbol {
            id,
            payload: Bytes::from(vec![7u8; 8]),
        };
        let raw = encode_frame(&symbol).expect("frame");
        let inside = raw.as_ptr_range();
        let actions = receiver
            .handle(SessionEvent::FrameReceived(raw.clone()))
            .expect("ingest");
        assert_eq!(actions, vec![SessionAction::SymbolDecoded(id)]);
        let stored = receiver.working().payload(id).expect("decoded");
        assert!(
            inside.contains(&stored.as_ptr()),
            "payload copied out of its frame"
        );
        let buffered = receiver.buffer.known_payload(id).expect("known");
        assert_eq!(buffered.as_ptr(), stored.as_ptr());
    }

    #[test]
    fn reconciled_sessions_draw_no_payload_buffer() {
        // Every payload a reconciled session gains is a view of a frame
        // the receiver was handed: nothing is copied out of a frame.
        let (shared, fresh) = (ids(1000, 53), ids(300, 54));
        let mut sender_ids = shared.clone();
        sender_ids.extend(fresh.iter().copied());
        let config = SessionConfig::new().with_request(1000);
        let mut receiver = ReceiverMachine::new(working(&shared), config);
        let mut sender = SenderMachine::new(working(&sender_ids), 55);
        let sends = |actions: Vec<SessionAction>| {
            actions.into_iter().filter_map(|action| match action {
                SessionAction::SendFrame(frame) => Some(frame),
                _ => None,
            })
        };
        let mut to_sender: VecDeque<Bytes> = VecDeque::new();
        let mut to_receiver: VecDeque<Bytes> = VecDeque::new();
        to_sender.extend(sends(
            receiver
                .handle(SessionEvent::PeerConnected)
                .expect("connect"),
        ));
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        let (mut received, mut gained) = (Vec::new(), Vec::new());
        loop {
            if let Some(frame) = to_sender.pop_front() {
                let replies = sender.handle(SessionEvent::FrameReceived(frame));
                to_receiver.extend(sends(replies.expect("sender")));
                continue;
            }
            if to_receiver.is_empty() {
                let mut actions = Vec::new();
                sender.next_frame(&mut actions).expect("next frame");
                to_receiver.extend(sends(actions));
            }
            let Some(frame) = to_receiver.pop_front() else {
                break;
            };
            received.push(frame.clone());
            for action in receiver
                .handle(SessionEvent::FrameReceived(frame))
                .expect("receiver")
            {
                match action {
                    SessionAction::SendFrame(frame) => to_sender.push_back(frame),
                    SessionAction::SymbolDecoded(id) => gained.push(id),
                    _ => {}
                }
            }
        }
        assert!(sender.is_finished() && receiver.is_finished());
        assert!(matches!(
            receiver.plan(),
            Some(TransferPlan::Reconciled { .. })
        ));
        assert!(!gained.is_empty());
        assert_eq!(gained.len() as u64, receiver.gained());
        for id in gained {
            let payload = receiver.working().payload(id).expect("gained").as_ptr();
            assert!(
                received
                    .iter()
                    .any(|frame| frame.as_ptr_range().contains(&payload)),
                "symbol {id} copied out of its frame"
            );
        }
    }

    #[test]
    fn identical_peers_reject_after_three_frames() {
        let shared = ids(400, 21);
        let (recv_ws, send_ws) = (working(&shared), working(&shared));
        // Admission control costs exactly: sketch out, sketch back, End.
        let card = |ws: &WorkingSet| Message::Minwise(ws.sketch().clone()).frame_len() as u64;
        let expected = (
            card(&recv_ws) + Message::End { sent: 0 }.frame_len() as u64,
            card(&send_ws),
        );
        let mut receiver = ReceiverMachine::new(recv_ws, SessionConfig::default());
        let mut sender = SenderMachine::new(send_ws, 3);
        let mut pump = FramePump::new();
        let actions = pump.run(&mut receiver, &mut sender).expect("run");
        assert!(receiver.was_rejected() && receiver.is_finished());
        assert!(sender.is_finished());
        assert_eq!(receiver.plan(), Some(TransferPlan::Reject));
        assert_eq!(receiver.gained(), 0);
        assert_eq!(pump.wire_bytes(), expected);
        assert_eq!(
            actions,
            vec![
                SessionAction::Rejected,
                SessionAction::Completed { gained: 0 }
            ]
        );
    }

    #[test]
    fn bloom_reconciled_transfer_moves_only_useful_symbols() {
        let (shared, fresh) = (ids(1000, 2), ids(300, 3));
        let receiver = transfer(&shared, &fresh, SessionConfig::new().with_request(1000), 8);
        assert!(receiver.is_done());
        assert_eq!(
            receiver.plan(),
            Some(TransferPlan::Reconciled {
                summary: SummaryId::BLOOM
            })
        );
        // Gained symbols ⊆ fresh, and nearly all of fresh (Bloom FPs may
        // withhold a few).
        let gained = receiver.gained() as usize;
        assert!(gained <= fresh.len());
        assert!(
            gained > fresh.len() * 9 / 10,
            "gained {gained} of {}",
            fresh.len()
        );
        for id in fresh
            .iter()
            .filter(|id| receiver.working().payload(**id).is_some())
        {
            let payload = receiver.working().payload(*id).expect("present");
            assert_eq!(payload.as_ref(), &id.to_le_bytes());
        }
    }

    #[test]
    fn art_plan_for_small_differences() {
        // A 1 % difference is ART territory.
        let (shared, fresh) = (ids(3000, 4), ids(30, 5));
        let receiver = transfer(&shared, &fresh, SessionConfig::new().with_request(100), 9);
        assert!(receiver.is_done());
        assert_eq!(
            receiver.plan(),
            Some(TransferPlan::Reconciled {
                summary: SummaryId::ART
            })
        );
        assert!(
            receiver.gained() > 0,
            "ART transfer should deliver something"
        );
        assert_eq!(
            receiver.working().len(),
            shared.len() + receiver.gained() as usize
        );
    }

    #[test]
    fn speculative_transfer_for_weak_clients() {
        let (shared, fresh) = (ids(400, 6), ids(400, 7));
        let config = SessionConfig::new()
            .with_request(2000)
            .with_knobs(PolicyKnobs {
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            });
        let receiver = transfer(&shared, &fresh, config, 10);
        assert!(receiver.is_done());
        assert!(matches!(
            receiver.plan(),
            Some(TransferPlan::Speculative { .. })
        ));
        assert!(
            receiver.gained() as usize > fresh.len() / 2,
            "recoded stream should deliver a good share: {}",
            receiver.gained()
        );
        // Payload integrity through recoded XOR paths.
        for id in fresh
            .iter()
            .filter(|id| receiver.working().payload(**id).is_some())
        {
            let payload = receiver.working().payload(*id).expect("present");
            assert_eq!(payload.as_ref(), &id.to_le_bytes());
        }
    }

    #[test]
    fn request_bounds_the_stream() {
        // Disjoint sets: everything the sender holds is useful.
        let config = SessionConfig::new().with_request(50);
        let receiver = transfer(&ids(100, 13), &ids(500, 14), config, 15);
        assert!(receiver.is_done());
        assert!(receiver.gained() <= 50);
        assert!(receiver.gained() >= 45, "gained {}", receiver.gained());
    }

    #[test]
    fn summary_override_does_not_bypass_admission_control() {
        // §4: an identical peer is rejected even when a sweep pins a
        // mechanism — no digest is built for a provably useless sender.
        let shared = ids(500, 40);
        let config = SessionConfig::new().with_summary(SummaryId::WHOLE_SET);
        let receiver = transfer(&shared, &[], config, 41);
        assert!(receiver.was_rejected());
        assert_eq!(receiver.plan(), Some(TransferPlan::Reject));
        assert_eq!(receiver.gained(), 0);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let ws = working(&ids(10, 11));
        let mut receiver = ReceiverMachine::new(ws.clone(), SessionConfig::default());
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        assert!(matches!(
            receiver.handle(frame(&Message::SymbolRequest { count: 1 })),
            Err(MachineError::Session(
                SessionError::UnexpectedMessage { .. }
            ))
        ));
        let mut sender = SenderMachine::new(ws, 12);
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        assert!(matches!(
            sender.handle(frame(&Message::End { sent: 0 })),
            Err(MachineError::Session(
                SessionError::UnexpectedMessage { .. }
            ))
        ));
    }

    #[test]
    fn receiver_build_failure_leaves_the_machine_intact() {
        // An override naming an unregistered mechanism errors on the
        // peer sketch — and the machine stays awaiting a sketch with no
        // plan, so a corrected retry (or clean teardown) is possible.
        let send_ws = working(&ids(200, 31));
        let config = SessionConfig::new().with_summary(SummaryId(0x8001));
        let mut receiver = ReceiverMachine::new(working(&ids(200, 30)), config);
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
        let peer = Message::Minwise(send_ws.sketch().clone());
        for _ in 0..2 {
            // The second delivery is not "unexpected": still awaiting.
            assert!(matches!(
                receiver.handle(frame(&peer)),
                Err(MachineError::Session(SessionError::UnknownSummary {
                    id: 0x8001
                }))
            ));
            assert!(receiver.plan().is_none(), "no plan may be committed");
        }
    }

    #[test]
    fn unknown_and_malformed_summaries_are_errors() {
        let shared = ids(100, 20);
        let mut sender = SenderMachine::new(working(&shared), 21);
        sender.handle(SessionEvent::PeerConnected).expect("connect");
        let card = Message::Minwise(working(&shared).sketch().clone());
        sender.handle(frame(&card)).expect("sketch accepted");
        // An id outside the registry.
        let unknown = Message::Summary {
            summary_id: 0x7777,
            body: vec![],
        };
        assert!(matches!(
            sender.handle(frame(&unknown)),
            Err(MachineError::Session(SessionError::UnknownSummary {
                id: 0x7777
            }))
        ));
        // A registered id with a garbage body.
        let garbage = Message::Summary {
            summary_id: SummaryId::BLOOM.0,
            body: vec![1, 2, 3],
        };
        assert!(matches!(
            sender.handle(frame(&garbage)),
            Err(MachineError::Session(SessionError::MalformedSummary(_)))
        ));
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
        receiver
            .handle(SessionEvent::PeerConnected)
            .expect("connect");
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
    // Exercises drive_receiver_with/drive_sender — the exact code the real
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
        let recv_stats = drive(&mut receiver, &mut receiver_half).expect("receiver drive");
        drop(receiver_half);
        let (sender, send_stats) = sender_thread.join().expect("join");

        assert!(receiver.is_done() && sender.is_finished());
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
                    assert!(machine.working().payload(*id).is_some());
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
        match drive(&mut receiver, &mut DeadAfterWrite) {
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
            drive(&mut receiver, &mut stream),
            Err(DriveError::Transport(FrameError::Truncated {
                needed: 5,
                got: 7
            }))
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
        match drive(&mut receiver, &mut SilentPeer) {
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
        match drive(&mut receiver, &mut FullBuffer) {
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
        pump.start(&mut receiver, &mut sender, &mut actions)
            .expect("start");
        // Pump only a handful of frames — the "connection" then dies.
        for _ in 0..12 {
            if pump
                .step(&mut receiver, &mut sender, &mut actions)
                .expect("step")
                == PumpStep::Idle
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
        let mut resumed = ReceiverMachine::new(
            receiver.into_working(),
            SessionConfig::new().with_request(missing).with_seed(99),
        );
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
            assert!(
                !first.contains(id),
                "symbol {id} double-counted across resume"
            );
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
