//! The deterministic structured trace plane.
//!
//! A [`TraceBuf`] is a bounded ring of [`TraceRecord`]s. Every record
//! carries the *engine* clock (`t` — sim ticks for the simulator,
//! reconciliation rounds for the daemon) and a sequence number assigned
//! at push time; wall-clock time never appears. That makes a trace a
//! parity artifact: two executions of the same scenario that claim to
//! be equivalent (a rerun, 1 thread vs. 8) must produce
//! byte-identical [`TraceBuf::to_jsonl`] output.
//!
//! The JSONL codec is hand-rolled (the workspace has no registry
//! access, hence no serde): one flat JSON object per line, round-trips
//! through [`TraceBuf::parse_jsonl`] exactly.

use std::collections::VecDeque;
use std::fmt::Write as _;

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
        /// Fault kind name (`crash`, `cut_link`, ...).
        fault: String,
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

/// Shared single-threaded handle — the engine/swarm recorder shape.
pub type TraceHandle = std::rc::Rc<std::cell::RefCell<TraceBuf>>;

/// Shared thread-safe handle — the daemon recorder shape.
pub type SyncTraceHandle = std::sync::Arc<std::sync::Mutex<TraceBuf>>;

/// Bounded ring buffer of trace records.
///
/// Pushing past capacity drops the *oldest* record and counts it in
/// [`TraceBuf::dropped`]; sequence numbers keep advancing, so exported
/// traces state exactly what they are missing.
#[derive(Debug)]
pub struct TraceBuf {
    cap: usize,
    records: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuf {
    /// An empty ring holding at most `cap` records (min 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            records: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { t, seq, event });
    }

    /// Records currently held (after any eviction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Serializes the held records as JSONL, one flat object per line.
    /// Byte-deterministic: equal rings render equal strings.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 64);
        for rec in &self.records {
            write_record(&mut out, rec);
            out.push('\n');
        }
        out
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
            .map(|(i, l)| {
                parse_record(l).map_err(|what| TraceParseError {
                    line: i + 1,
                    what,
                })
            })
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

fn write_record(out: &mut String, rec: &TraceRecord) {
    let _ = write!(out, "{{\"t\":{},\"seq\":{},\"ev\":\"{}\"", rec.t, rec.seq, rec.event.tag());
    match &rec.event {
        TraceEvent::LinkSend {
            link,
            recoded,
            lost,
            components,
            frame_len,
        } => {
            let _ = write!(
                out,
                ",\"link\":{link},\"recoded\":{recoded},\"lost\":{lost},\
                 \"components\":{components},\"frame_len\":{frame_len}"
            );
        }
        TraceEvent::SummaryExchanged {
            from,
            to,
            summary,
            handshake_bytes,
            control_bytes,
        } => {
            let _ = write!(
                out,
                ",\"from\":{from},\"to\":{to},\"summary\":{summary},\
                 \"handshake_bytes\":{handshake_bytes},\"control_bytes\":{control_bytes}"
            );
        }
        TraceEvent::LinkUp { link, from, to } => {
            let _ = write!(out, ",\"link\":{link},\"from\":{from},\"to\":{to}");
        }
        TraceEvent::LinkDown { link } => {
            let _ = write!(out, ",\"link\":{link}");
        }
        TraceEvent::RoundStart { round } => {
            let _ = write!(out, ",\"round\":{round}");
        }
        TraceEvent::StallEscalation { peer, starved } => {
            let _ = write!(out, ",\"peer\":{peer},\"starved\":{starved}");
        }
        TraceEvent::FaultApplied { fault, peer } => {
            out.push_str(",\"fault\":");
            write_json_string(out, fault);
            let _ = write!(out, ",\"peer\":{peer}");
        }
        TraceEvent::Redial {
            from,
            to,
            round,
            attempt,
        } => {
            let _ = write!(
                out,
                ",\"from\":{from},\"to\":{to},\"round\":{round},\"attempt\":{attempt}"
            );
        }
        TraceEvent::SessionSpan {
            from,
            to,
            round,
            retries,
            ok,
        } => {
            let _ = write!(
                out,
                ",\"from\":{from},\"to\":{to},\"round\":{round},\"retries\":{retries},\"ok\":{ok}"
            );
        }
    }
    out.push('}');
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
            fault: string("fault")?,
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
                Some((i, c)) => return Err(format!("expected ',' or '}}' at byte {i}, found {c:?}")),
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
                    let hex: String = (0..4).filter_map(|_| chars.next().map(|(_, c)| c)).collect();
                    if hex.len() != 4 {
                        return Err("truncated \\u escape".into());
                    }
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("bad scalar \\u{hex}"))?,
                    );
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
        let err = TraceBuf::parse_jsonl("{\"t\":0,\"seq\":0,\"ev\":\"round_start\",\"round\":1}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        let err = TraceBuf::parse_jsonl("{\"t\":0,\"seq\":0,\"ev\":\"no_such_tag\"}").unwrap_err();
        assert!(err.what.contains("unknown event tag"));
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
