//! The deterministic structured trace plane.
//!
//! A [`TraceBuf`] is a bounded ring of trace records. Every record
//! carries the *engine* clock (`t` — sim ticks for the simulator,
//! reconciliation rounds for the daemon) and a sequence number assigned
//! at push time; wall-clock time never appears. That makes a trace a
//! parity artifact: two executions of the same scenario that claim to
//! be equivalent (a rerun, 1 thread vs. 8) must produce
//! byte-identical [`TraceBuf::to_jsonl`] output.
//!
//! Recording is cheap enough to leave on: the ring stores one 16-byte
//! slot per record and no [`TraceRecord`]. A slot holds the clock as a
//! `u32`, two `u32` fields, a 24-bit field and the event kind, which
//! covers `link_send`, `link_up`, `link_down`, `round_start`,
//! `stall_escalation` and `fault_applied` at engine-range values; a
//! `fault_applied` label is interned once in a small table and the slot
//! holds its index. Anything that does not fit — a clock at or past
//! 2³², an out-of-range field, a label past the table's bound, and the
//! wide `summary_exchanged`, `redial` and `session_span` events — is
//! kept whole in a spill ring, and its slot only marks the spill. Slots
//! and spill entries are evicted together, oldest first. A record's
//! sequence number is not stored: it is the drop count plus the slot's
//! position. [`TraceRecord`]s and JSONL exist only on export.
//!
//! The JSONL codec is hand-rolled (the workspace has no registry
//! access, hence no serde): one flat JSON object per line, round-trips
//! through [`TraceBuf::parse_jsonl`] exactly.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::fmt;
use std::io;

/// One structured event, without its timestamp. Field types are kept
/// flat (u64 / bool / String) so the JSONL codec stays trivial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet link took a send slot (the loss draw already made:
    /// lost frames are recorded too — they consumed the slot — but
    /// pump-exhaustion discoveries are not).
    LinkSend {
        /// Engine link index.
        link: u64,
        /// Recoded (multi-component) payload vs. a plain encoded symbol.
        recoded: bool,
        /// The loss draw consumed this frame.
        lost: bool,
        /// Component count (1 for encoded symbols).
        components: u64,
        /// Framed wire length in bytes.
        frame_len: u64,
    },
    /// A strategy link's connect-time reconciliation handshake.
    SummaryExchanged {
        /// Sender node.
        from: u64,
        /// Receiver node.
        to: u64,
        /// `SummaryId` tag carried by the handshake (0 = none).
        summary: u64,
        /// Digest payload bytes.
        handshake_bytes: u64,
        /// Total control-plane bytes booked for the connect.
        control_bytes: u64,
    },
    /// A link was installed.
    LinkUp {
        /// Engine link index.
        link: u64,
        /// Sender node.
        from: u64,
        /// Receiver node.
        to: u64,
    },
    /// A live link was torn down.
    LinkDown {
        /// Engine link index.
        link: u64,
    },
    /// A swarm maintenance pass (or daemon reconciliation round) began.
    RoundStart {
        /// 0-based round counter.
        round: u64,
    },
    /// A starved peer escalated to the oblivious-recode fallback.
    StallEscalation {
        /// Peer (roster index or daemon id).
        peer: u64,
        /// Consecutive stagnant passes that triggered the escalation.
        starved: u64,
    },
    /// A scheduled fault actually landed (no-op faults are not traced).
    FaultApplied {
        /// Fault kind name (`crash`, `cut_link`, ...): borrowed when the
        /// engine records it, owned when decoded or parsed.
        fault: Cow<'static, str>,
        /// Victim peer (roster index).
        peer: u64,
    },
    /// The daemon redialed a transiently failed fetch session.
    Redial {
        /// Upstream (serving) peer.
        from: u64,
        /// Dialing peer.
        to: u64,
        /// Reconciliation round.
        round: u64,
        /// The attempt that failed (the redial is attempt + 1).
        attempt: u64,
    },
    /// One daemon fetch session completed (accumulated over redials).
    SessionSpan {
        /// Upstream (serving) peer.
        from: u64,
        /// Dialing peer.
        to: u64,
        /// Reconciliation round.
        round: u64,
        /// Redials the session needed (0 on the fault-free path).
        retries: u64,
        /// Whether the session ended in an outcome rather than an error.
        ok: bool,
    },
}

impl TraceEvent {
    /// The event's JSONL tag.
    #[must_use]
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            TraceEvent::LinkSend { .. } => "link_send",
            TraceEvent::SummaryExchanged { .. } => "summary_exchanged",
            TraceEvent::LinkUp { .. } => "link_up",
            TraceEvent::LinkDown { .. } => "link_down",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::StallEscalation { .. } => "stall_escalation",
            TraceEvent::FaultApplied { .. } => "fault_applied",
            TraceEvent::Redial { .. } => "redial",
            TraceEvent::SessionSpan { .. } => "session_span",
        }
    }
}

/// One trace entry: deterministic clock, push-assigned sequence, event.
///
/// `Display` renders the record as one JSONL line, without the newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Engine-clock stamp (sim ticks, or daemon rounds). Never wall
    /// clock.
    pub t: u64,
    /// Sequence number assigned when the record was pushed; with the
    /// ring's drop count it totally orders every record ever recorded.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_record(f, self)
    }
}

/// Shared single-threaded handle — the engine/swarm recorder shape.
pub type TraceHandle = std::rc::Rc<std::cell::RefCell<TraceBuf>>;

/// Shared thread-safe handle — the daemon recorder shape.
pub type SyncTraceHandle = std::sync::Arc<std::sync::Mutex<TraceBuf>>;

/// Interned `fault_applied` labels kept at most. A label past the bound
/// spills with its event, so arbitrary caller strings cannot grow the
/// table without limit.
const LABEL_CAP: usize = 256;

/// What a [`Slot`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The record is the spill ring's next entry.
    Spill,
    /// `a` = link, `b` = frame length, `c` = components · 4 + lost · 2
    /// + recoded.
    LinkSend,
    /// `a` = link, `b` = from, `c` = to.
    LinkUp,
    /// `a` = link.
    LinkDown,
    /// `a` = round.
    RoundStart,
    /// `a` = peer, `b` = starved passes.
    StallEscalation,
    /// `a` = peer, `c` = label index.
    FaultApplied,
}

/// An unsigned 24-bit field, stored little-endian.
#[derive(Debug, Clone, Copy)]
struct U24([u8; 3]);

impl U24 {
    fn new(v: u64) -> Option<Self> {
        let [b0, b1, b2, rest @ ..] = v.to_le_bytes();
        (rest == [0; 5]).then_some(Self([b0, b1, b2]))
    }

    fn get(self) -> u64 {
        let [b0, b1, b2] = self.0;
        u64::from(u32::from_le_bytes([b0, b1, b2, 0]))
    }
}

/// One stored record: 16 bytes, no heap.
#[derive(Debug, Clone, Copy)]
struct Slot {
    t: u32,
    a: u32,
    b: u32,
    c: U24,
    kind: Kind,
}

impl Slot {
    const SPILL: Slot = Slot {
        t: 0,
        a: 0,
        b: 0,
        c: U24([0; 3]),
        kind: Kind::Spill,
    };

    /// A slot of `kind` when `t`, `a` and `b` fit 32 bits and `c` fits
    /// 24.
    fn new(kind: Kind, t: u64, a: u64, b: u64, c: u64) -> Option<Self> {
        Some(Self {
            t: u32::try_from(t).ok()?,
            a: u32::try_from(a).ok()?,
            b: u32::try_from(b).ok()?,
            c: U24::new(c)?,
            kind,
        })
    }
}

/// Bounded ring buffer of trace records.
///
/// Pushing past capacity drops the *oldest* record and counts it in
/// [`TraceBuf::dropped`]; sequence numbers keep advancing, so exported
/// traces state exactly what they are missing.
#[derive(Debug)]
pub struct TraceBuf {
    cap: usize,
    /// One slot per held record, oldest first.
    slots: VecDeque<Slot>,
    /// The records of the [`Kind::Spill`] slots, in slot order.
    spill: VecDeque<(u64, TraceEvent)>,
    /// Interned `fault_applied` labels; never evicted.
    labels: Vec<String>,
    dropped: u64,
    /// [`TraceBuf::records`]' decoded view, built on demand and
    /// discarded by the next push.
    decoded: OnceCell<Vec<TraceRecord>>,
}

impl TraceBuf {
    /// An empty ring holding at most `cap` records (min 1). Nothing is
    /// allocated until the first push.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            slots: VecDeque::new(),
            spill: VecDeque::new(),
            labels: Vec::new(),
            dropped: 0,
            decoded: OnceCell::new(),
        }
    }

    /// [`TraceBuf::new`] behind the engine-side shared handle.
    #[must_use]
    pub fn shared(cap: usize) -> TraceHandle {
        std::rc::Rc::new(std::cell::RefCell::new(Self::new(cap)))
    }

    /// [`TraceBuf::new`] behind the daemon-side thread-safe handle.
    #[must_use]
    pub fn shared_sync(cap: usize) -> SyncTraceHandle {
        std::sync::Arc::new(std::sync::Mutex::new(Self::new(cap)))
    }

    /// Records `event` at engine time `t`, assigning the next sequence
    /// number. Evicts the oldest record when full.
    pub fn push(&mut self, t: u64, event: TraceEvent) {
        self.decoded.take();
        if self.slots.len() == self.cap {
            if let Some(Slot {
                kind: Kind::Spill, ..
            }) = self.slots.pop_front()
            {
                self.spill.pop_front();
            }
            self.dropped += 1;
        }
        let slot = self.pack(t, &event).unwrap_or_else(|| {
            self.spill.push_back((t, event));
            Slot::SPILL
        });
        self.slots.push_back(slot);
    }

    /// The slot for `event` at `t`, or `None` when it must spill.
    fn pack(&mut self, t: u64, event: &TraceEvent) -> Option<Slot> {
        match *event {
            TraceEvent::LinkSend {
                link,
                recoded,
                lost,
                components,
                frame_len,
            } => {
                let c = components.checked_mul(4)? | u64::from(lost) << 1 | u64::from(recoded);
                Slot::new(Kind::LinkSend, t, link, frame_len, c)
            }
            TraceEvent::LinkUp { link, from, to } => Slot::new(Kind::LinkUp, t, link, from, to),
            TraceEvent::LinkDown { link } => Slot::new(Kind::LinkDown, t, link, 0, 0),
            TraceEvent::RoundStart { round } => Slot::new(Kind::RoundStart, t, round, 0, 0),
            TraceEvent::StallEscalation { peer, starved } => {
                Slot::new(Kind::StallEscalation, t, peer, starved, 0)
            }
            TraceEvent::FaultApplied { ref fault, peer } => {
                // Built before interning, so a record that spills anyway
                // never takes a table entry.
                let slot = Slot::new(Kind::FaultApplied, t, peer, 0, 0)?;
                let label = self.intern(fault)?;
                Some(Slot {
                    c: U24::new(label as u64)?,
                    ..slot
                })
            }
            TraceEvent::SummaryExchanged { .. }
            | TraceEvent::Redial { .. }
            | TraceEvent::SessionSpan { .. } => None,
        }
    }

    /// `label`'s index in the table, adding it while there is room.
    fn intern(&mut self, label: &str) -> Option<usize> {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return Some(i);
        }
        if self.labels.len() == LABEL_CAP {
            return None;
        }
        self.labels.push(label.to_owned());
        Some(self.labels.len() - 1)
    }

    /// The event `slot` encodes, or `None` for a spill marker.
    fn unpack(&self, slot: Slot) -> Option<TraceEvent> {
        let (a, b, c) = (u64::from(slot.a), u64::from(slot.b), slot.c.get());
        Some(match slot.kind {
            Kind::Spill => return None,
            Kind::LinkSend => TraceEvent::LinkSend {
                link: a,
                recoded: c & 1 != 0,
                lost: c & 2 != 0,
                components: c >> 2,
                frame_len: b,
            },
            Kind::LinkUp => TraceEvent::LinkUp {
                link: a,
                from: b,
                to: c,
            },
            Kind::LinkDown => TraceEvent::LinkDown { link: a },
            Kind::RoundStart => TraceEvent::RoundStart { round: a },
            Kind::StallEscalation => TraceEvent::StallEscalation {
                peer: a,
                starved: b,
            },
            Kind::FaultApplied => TraceEvent::FaultApplied {
                fault: Cow::Owned(self.labels[c as usize].clone()),
                peer: a,
            },
        })
    }

    /// The held records with `seq >= from`, oldest first, decoded one
    /// at a time.
    fn decode_from(&self, from: u64) -> impl Iterator<Item = TraceRecord> + '_ {
        let skip = usize::try_from(from.saturating_sub(self.dropped))
            .map_or(self.slots.len(), |s| s.min(self.slots.len()));
        let spilled_before = self
            .slots
            .range(..skip)
            .filter(|s| s.kind == Kind::Spill)
            .count();
        let mut spill = self.spill.iter().skip(spilled_before);
        self.slots
            .range(skip..)
            .zip(self.dropped + skip as u64..)
            .filter_map(move |(&slot, seq)| {
                let (t, event) = match self.unpack(slot) {
                    Some(event) => (u64::from(slot.t), event),
                    None => spill.next().cloned()?,
                };
                Some(TraceRecord { t, seq, event })
            })
    }

    /// Records currently held (after any eviction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records evicted by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap bytes the recorder holds: slot ring, spill ring (with the
    /// labels of spilled `fault_applied` events) and label table, by
    /// capacity. The decoded view [`TraceBuf::records`] builds is an
    /// export cost and is not counted.
    #[must_use]
    pub fn bytes_held(&self) -> usize {
        let spilled_labels: usize = self
            .spill
            .iter()
            .map(|(_, event)| match event {
                TraceEvent::FaultApplied {
                    fault: Cow::Owned(fault),
                    ..
                } => fault.capacity(),
                _ => 0,
            })
            .sum();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.spill.capacity() * std::mem::size_of::<(u64, TraceEvent)>()
            + spilled_labels
            + self.labels.capacity() * std::mem::size_of::<String>()
            + self.labels.iter().map(String::capacity).sum::<usize>()
    }

    /// The held records, oldest first. The first call after a push
    /// decodes the ring into a cache that the next push discards.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.decoded
            .get_or_init(|| self.decode_from(0).collect())
            .iter()
    }

    /// Serializes the held records as JSONL, one flat object per line.
    /// Byte-deterministic: equal rings render equal strings.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(self.slots.len() * 64);
        for rec in self.decode_from(0) {
            let _ = writeln!(out, "{rec}");
        }
        out
    }

    /// Streams the held records with sequence number `seq` or later to
    /// `out` as JSONL, in [`TraceBuf::to_jsonl`]'s format, and returns
    /// the sequence number the next push will get — the `seq` that
    /// continues the stream after it. Records evicted before the call
    /// are skipped.
    ///
    /// # Errors
    /// The first error `out` returns.
    pub fn write_jsonl_since(&self, seq: u64, out: &mut impl io::Write) -> io::Result<u64> {
        for rec in self.decode_from(seq) {
            writeln!(out, "{rec}")?;
        }
        Ok(self.dropped + self.slots.len() as u64)
    }

    /// Parses [`TraceBuf::to_jsonl`] output back into records. Blank
    /// lines are skipped; anything else malformed is an error.
    ///
    /// # Errors
    /// [`TraceParseError`] naming the offending line and what went
    /// wrong.
    pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
        input
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| parse_record(l).map_err(|what| TraceParseError { line: i + 1, what }))
            .collect()
    }
}

/// Why a JSONL line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub what: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TraceParseError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn write_record(out: &mut impl fmt::Write, rec: &TraceRecord) -> fmt::Result {
    write!(
        out,
        "{{\"t\":{},\"seq\":{},\"ev\":\"{}\"",
        rec.t,
        rec.seq,
        rec.event.tag()
    )?;
    match &rec.event {
        TraceEvent::LinkSend {
            link,
            recoded,
            lost,
            components,
            frame_len,
        } => write!(
            out,
            ",\"link\":{link},\"recoded\":{recoded},\"lost\":{lost},\
             \"components\":{components},\"frame_len\":{frame_len}"
        )?,
        TraceEvent::SummaryExchanged {
            from,
            to,
            summary,
            handshake_bytes,
            control_bytes,
        } => write!(
            out,
            ",\"from\":{from},\"to\":{to},\"summary\":{summary},\
             \"handshake_bytes\":{handshake_bytes},\"control_bytes\":{control_bytes}"
        )?,
        TraceEvent::LinkUp { link, from, to } => {
            write!(out, ",\"link\":{link},\"from\":{from},\"to\":{to}")?;
        }
        TraceEvent::LinkDown { link } => write!(out, ",\"link\":{link}")?,
        TraceEvent::RoundStart { round } => write!(out, ",\"round\":{round}")?,
        TraceEvent::StallEscalation { peer, starved } => {
            write!(out, ",\"peer\":{peer},\"starved\":{starved}")?;
        }
        TraceEvent::FaultApplied { fault, peer } => {
            out.write_str(",\"fault\":")?;
            write_json_string(out, fault)?;
            write!(out, ",\"peer\":{peer}")?;
        }
        TraceEvent::Redial {
            from,
            to,
            round,
            attempt,
        } => write!(
            out,
            ",\"from\":{from},\"to\":{to},\"round\":{round},\"attempt\":{attempt}"
        )?,
        TraceEvent::SessionSpan {
            from,
            to,
            round,
            retries,
            ok,
        } => write!(
            out,
            ",\"from\":{from},\"to\":{to},\"round\":{round},\"retries\":{retries},\"ok\":{ok}"
        )?,
    }
    out.write_char('}')
}

fn write_json_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

// ---------------------------------------------------------------------
// Decoding — a minimal flat-object JSON parser (u64 / bool / string
// values only), exactly the language `write_record` emits.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Num(u64),
    Bool(bool),
    Str(String),
}

fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let fields = parse_flat_object(line.trim())?;
    let num = |key: &str| -> Result<u64, String> {
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, JsonVal::Num(n))) => Ok(*n),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    };
    let boolean = |key: &str| -> Result<bool, String> {
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, JsonVal::Bool(b))) => Ok(*b),
            Some(_) => Err(format!("field {key:?} is not a bool")),
            None => Err(format!("missing field {key:?}")),
        }
    };
    let string = |key: &str| -> Result<String, String> {
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, JsonVal::Str(s))) => Ok(s.clone()),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    };
    let tag = string("ev")?;
    let event = match tag.as_str() {
        "link_send" => TraceEvent::LinkSend {
            link: num("link")?,
            recoded: boolean("recoded")?,
            lost: boolean("lost")?,
            components: num("components")?,
            frame_len: num("frame_len")?,
        },
        "summary_exchanged" => TraceEvent::SummaryExchanged {
            from: num("from")?,
            to: num("to")?,
            summary: num("summary")?,
            handshake_bytes: num("handshake_bytes")?,
            control_bytes: num("control_bytes")?,
        },
        "link_up" => TraceEvent::LinkUp {
            link: num("link")?,
            from: num("from")?,
            to: num("to")?,
        },
        "link_down" => TraceEvent::LinkDown { link: num("link")? },
        "round_start" => TraceEvent::RoundStart {
            round: num("round")?,
        },
        "stall_escalation" => TraceEvent::StallEscalation {
            peer: num("peer")?,
            starved: num("starved")?,
        },
        "fault_applied" => TraceEvent::FaultApplied {
            fault: Cow::Owned(string("fault")?),
            peer: num("peer")?,
        },
        "redial" => TraceEvent::Redial {
            from: num("from")?,
            to: num("to")?,
            round: num("round")?,
            attempt: num("attempt")?,
        },
        "session_span" => TraceEvent::SessionSpan {
            from: num("from")?,
            to: num("to")?,
            round: num("round")?,
            retries: num("retries")?,
            ok: boolean("ok")?,
        },
        other => return Err(format!("unknown event tag {other:?}")),
    };
    Ok(TraceRecord {
        t: num("t")?,
        seq: num("seq")?,
        event,
    })
}

fn parse_flat_object(s: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = s.char_indices().peekable();
    let expect = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
                  want: char|
     -> Result<(), String> {
        match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    };
    expect(&mut chars, '{')?;
    let mut fields = Vec::new();
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            let key = parse_string(&mut chars)?;
            expect(&mut chars, ':')?;
            let val = match chars.peek() {
                Some((_, '"')) => JsonVal::Str(parse_string(&mut chars)?),
                Some((_, 't' | 'f')) => {
                    let word: String = std::iter::from_fn(|| {
                        chars
                            .next_if(|(_, c)| c.is_ascii_alphabetic())
                            .map(|(_, c)| c)
                    })
                    .collect();
                    match word.as_str() {
                        "true" => JsonVal::Bool(true),
                        "false" => JsonVal::Bool(false),
                        w => return Err(format!("bad literal {w:?}")),
                    }
                }
                Some((_, c)) if c.is_ascii_digit() => {
                    let digits: String = std::iter::from_fn(|| {
                        chars.next_if(|(_, c)| c.is_ascii_digit()).map(|(_, c)| c)
                    })
                    .collect();
                    JsonVal::Num(digits.parse().map_err(|e| format!("bad number: {e}"))?)
                }
                Some((i, c)) => return Err(format!("unexpected value start {c:?} at byte {i}")),
                None => return Err("unexpected end of line in value".into()),
            };
            fields.push((key, val));
            match chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => break,
                Some((i, c)) => {
                    return Err(format!("expected ',' or '}}' at byte {i}, found {c:?}"))
                }
                None => return Err("unexpected end of line in object".into()),
            }
        }
    }
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing content {c:?} at byte {i}"));
    }
    Ok(fields)
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected string".into()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, c)| c))
                        .collect();
                    if hex.len() != 4 {
                        return Err("truncated \\u escape".into());
                    }
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad scalar \\u{hex}"))?);
                }
                Some((_, c)) => return Err(format!("bad escape \\{c}")),
                None => return Err("unterminated escape".into()),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::LinkSend {
                link: 3,
                recoded: true,
                lost: false,
                components: 5,
                frame_len: 1434,
            },
            TraceEvent::SummaryExchanged {
                from: 1,
                to: 2,
                summary: 4,
                handshake_bytes: 320,
                control_bytes: 480,
            },
            TraceEvent::LinkUp {
                link: 9,
                from: 1,
                to: 2,
            },
            TraceEvent::LinkDown { link: 9 },
            TraceEvent::RoundStart { round: 12 },
            TraceEvent::StallEscalation {
                peer: 7,
                starved: 3,
            },
            TraceEvent::FaultApplied {
                fault: "cut_link".into(),
                peer: 4,
            },
            TraceEvent::Redial {
                from: 2,
                to: 0,
                round: 1,
                attempt: 1,
            },
            TraceEvent::SessionSpan {
                from: 2,
                to: 0,
                round: 1,
                retries: 1,
                ok: true,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let mut buf = TraceBuf::new(64);
        for (i, ev) in sample_events().into_iter().enumerate() {
            buf.push(i as u64 * 10, ev);
        }
        let jsonl = buf.to_jsonl();
        let parsed = TraceBuf::parse_jsonl(&jsonl).expect("round trip");
        let original: Vec<TraceRecord> = buf.records().cloned().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts_drops() {
        let mut buf = TraceBuf::new(2);
        for round in 0..5 {
            buf.push(round, TraceEvent::RoundStart { round });
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4], "oldest evicted, numbering global");
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut buf = TraceBuf::new(4);
        buf.push(
            0,
            TraceEvent::FaultApplied {
                fault: "we\"ird\\na\nme\u{1}".into(),
                peer: 0,
            },
        );
        let parsed = TraceBuf::parse_jsonl(&buf.to_jsonl()).expect("escapes round trip");
        assert_eq!(parsed[0], buf.records().next().cloned().unwrap());
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = TraceBuf::parse_jsonl(
            "{\"t\":0,\"seq\":0,\"ev\":\"round_start\",\"round\":1}\nnot json\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        let err = TraceBuf::parse_jsonl("{\"t\":0,\"seq\":0,\"ev\":\"no_such_tag\"}").unwrap_err();
        assert!(err.what.contains("unknown event tag"));
    }

    /// One event of every narrowly stored kind at the top of its range.
    fn widest_narrow_events() -> Vec<TraceEvent> {
        let max32 = u64::from(u32::MAX);
        vec![
            TraceEvent::LinkSend {
                link: max32,
                recoded: true,
                lost: true,
                components: (1 << 22) - 1,
                frame_len: max32,
            },
            TraceEvent::LinkUp {
                link: max32,
                from: max32,
                to: (1 << 24) - 1,
            },
            TraceEvent::LinkDown { link: max32 },
            TraceEvent::RoundStart { round: max32 },
            TraceEvent::StallEscalation {
                peer: max32,
                starved: max32,
            },
            TraceEvent::FaultApplied {
                fault: "crash".into(),
                peer: max32,
            },
        ]
    }

    #[test]
    fn a_slot_is_sixteen_bytes_at_most() {
        assert!(std::mem::size_of::<Slot>() <= 16);
    }

    #[test]
    fn engine_range_events_take_one_slot_and_no_allocation() {
        let mut buf = TraceBuf::new(64);
        let events = widest_narrow_events();
        for ev in &events {
            buf.push(u64::from(u32::MAX), ev.clone());
        }
        assert!(buf.spill.is_empty(), "an engine-range event spilled");
        let held: Vec<TraceEvent> = buf.records().map(|r| r.event.clone()).collect();
        assert_eq!(held, events);
        // Once the ring is full, pushing evicts in place: no allocation.
        let mut buf = TraceBuf::new(4);
        let send = |link| TraceEvent::LinkSend {
            link,
            recoded: false,
            lost: false,
            components: 1,
            frame_len: 1434,
        };
        for link in 0..4 {
            buf.push(link, send(link));
        }
        let bytes = buf.bytes_held();
        for link in 4..1000 {
            buf.push(link, send(link));
            assert_eq!(buf.bytes_held(), bytes, "push {link} allocated");
        }
        assert!(buf.spill.is_empty());
    }

    #[test]
    fn one_past_a_slot_field_spills_and_round_trips() {
        let wide = [
            TraceEvent::LinkSend {
                link: 1,
                recoded: false,
                lost: true,
                components: 1 << 22,
                frame_len: 9,
            },
            TraceEvent::LinkUp {
                link: 1,
                from: 2,
                to: 1 << 24,
            },
            TraceEvent::LinkDown { link: 1 << 32 },
            TraceEvent::StallEscalation {
                peer: 3,
                starved: u64::MAX,
            },
        ];
        let mut buf = TraceBuf::new(64);
        for ev in &wide {
            buf.push(5, ev.clone());
        }
        buf.push(1 << 32, TraceEvent::RoundStart { round: 0 });
        assert_eq!(buf.spill.len(), wide.len() + 1);
        let parsed = TraceBuf::parse_jsonl(&buf.to_jsonl()).expect("round trip");
        assert!(parsed.iter().eq(buf.records()));
        assert_eq!(parsed[4].t, 1 << 32);
    }

    #[test]
    fn labels_past_the_table_bound_spill() {
        let mut buf = TraceBuf::new(8);
        for i in 0..LABEL_CAP as u64 + 40 {
            buf.push(
                i,
                TraceEvent::FaultApplied {
                    fault: format!("fault-{i}").into(),
                    peer: i,
                },
            );
        }
        assert_eq!(buf.labels.len(), LABEL_CAP);
        assert_eq!(
            buf.spill.len(),
            8,
            "the held records are all past the bound"
        );
        let last = buf.records().last().cloned().expect("held");
        assert_eq!(
            last.event,
            TraceEvent::FaultApplied {
                fault: format!("fault-{}", LABEL_CAP + 39).into(),
                peer: LABEL_CAP as u64 + 39,
            }
        );
        // A label already in the table still packs.
        buf.push(
            0,
            TraceEvent::FaultApplied {
                fault: "fault-0".into(),
                peer: 0,
            },
        );
        assert_eq!(buf.spill.len(), 7);
    }

    #[test]
    fn streamed_pieces_concatenate_to_the_export() {
        let mut buf = TraceBuf::new(6);
        let mut streamed = Vec::new();
        let mut next = 0;
        for (i, ev) in sample_events().into_iter().enumerate() {
            buf.push(i as u64, ev);
            if i % 2 == 1 {
                next = buf
                    .write_jsonl_since(next, &mut streamed)
                    .expect("to a Vec");
            }
        }
        next = buf
            .write_jsonl_since(next, &mut streamed)
            .expect("to a Vec");
        assert_eq!(next, 9);
        assert_eq!(buf.dropped(), 3);
        // Nothing was evicted between two writes, so the stream holds
        // every record; the export holds the last six.
        let streamed = String::from_utf8(streamed).expect("utf-8");
        assert_eq!(streamed.lines().count(), 9);
        assert!(streamed.ends_with(&buf.to_jsonl()));
        let mut tail = Vec::new();
        assert_eq!(buf.write_jsonl_since(0, &mut tail).expect("to a Vec"), 9);
        assert_eq!(String::from_utf8(tail).expect("utf-8"), buf.to_jsonl());
        let mut none = Vec::new();
        assert_eq!(buf.write_jsonl_since(9, &mut none).expect("to a Vec"), 9);
        assert!(none.is_empty());
    }

    #[test]
    fn identical_pushes_render_identical_bytes() {
        let build = || {
            let mut buf = TraceBuf::new(16);
            for ev in sample_events() {
                buf.push(42, ev);
            }
            buf.to_jsonl()
        };
        assert_eq!(build(), build());
    }
}
