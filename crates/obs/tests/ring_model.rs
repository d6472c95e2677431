//! Differential property: the compact slot ring behaves exactly like
//! the plain ring it replaced — a `VecDeque<TraceRecord>` that evicts
//! its oldest record when full. Narrow events, events that spill (wide
//! kinds, out-of-range fields, clocks past 2³²) and interned fault
//! labels are pushed through small capacities so slots and spill
//! entries are evicted, and every observable is compared after every
//! push. Case volume scales with `PROPTEST_CASES`.

use std::collections::VecDeque;

use icd_obs::{TraceBuf, TraceEvent, TraceRecord};
use proptest::collection::vec;
use proptest::prelude::*;

/// The reference: whole records in a bounded deque.
struct ModelRing {
    cap: usize,
    records: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl ModelRing {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            records: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, t: u64, event: TraceEvent) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            t,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    fn to_jsonl(&self) -> String {
        self.records.iter().map(|r| format!("{r}\n")).collect()
    }
}

/// A field value: mostly small, sometimes at or just past a slot
/// field's bound (2²², 2²⁴, 2³²), sometimes anywhere in `u64`.
fn field(sel: u8, raw: u64) -> u64 {
    match sel % 8 {
        0 => (1 << 22) - 1 + raw % 3,
        1 => (1 << 24) - 1 + raw % 3,
        2 => u64::from(u32::MAX) + raw % 3 - 1,
        3 => raw,
        _ => raw % 1000,
    }
}

/// Fault labels: a few repeated engine names plus an arbitrary one.
fn label(sel: u8, raw: u64) -> String {
    match sel % 4 {
        0 => "crash".into(),
        1 => "cut_link".into(),
        2 => "stall_start".into(),
        _ => format!("x\"{raw}\\"),
    }
}

fn event(kind: u8, sels: (u8, u8, u8), raws: (u64, u64, u64)) -> TraceEvent {
    let (a, b, c) = (
        field(sels.0, raws.0),
        field(sels.1, raws.1),
        field(sels.2, raws.2),
    );
    let flag = raws.0 & 1 == 1;
    match kind % 9 {
        0 => TraceEvent::LinkSend {
            link: a,
            recoded: flag,
            lost: raws.1 & 1 == 1,
            components: c,
            frame_len: b,
        },
        1 => TraceEvent::LinkUp {
            link: a,
            from: b,
            to: c,
        },
        2 => TraceEvent::LinkDown { link: a },
        3 => TraceEvent::RoundStart { round: a },
        4 => TraceEvent::StallEscalation {
            peer: a,
            starved: b,
        },
        5 => TraceEvent::FaultApplied {
            fault: label(sels.2, raws.2).into(),
            peer: a,
        },
        6 => TraceEvent::SummaryExchanged {
            from: a,
            to: b,
            summary: c % 8,
            handshake_bytes: c,
            control_bytes: b,
        },
        7 => TraceEvent::Redial {
            from: a,
            to: b,
            round: c,
            attempt: 1,
        },
        _ => TraceEvent::SessionSpan {
            from: a,
            to: b,
            round: c,
            retries: 0,
            ok: flag,
        },
    }
}

proptest! {
    #[test]
    fn slot_ring_matches_the_record_ring(
        cap in 1usize..9,
        pushes in vec(
            (any::<u8>(), (any::<u8>(), any::<u8>(), any::<u8>()), (any::<u64>(), any::<u64>(), any::<u64>()), any::<u8>()),
            0..48,
        ),
    ) {
        let mut buf = TraceBuf::new(cap);
        let mut model = ModelRing::new(cap);
        for (i, &(kind, sels, raws, clock)) in pushes.iter().enumerate() {
            // Mostly small clocks, one in eight at or past 2³².
            let t = if clock % 8 == 0 { (1 << 32) - 1 + u64::from(clock) } else { i as u64 };
            let ev = event(kind, sels, raws);
            buf.push(t, ev.clone());
            model.push(t, ev);
            prop_assert_eq!(buf.len(), model.records.len());
            prop_assert_eq!(buf.dropped(), model.dropped);
            prop_assert!(buf.records().eq(model.records.iter()), "records diverged at push {}", i);
            prop_assert_eq!(buf.to_jsonl(), model.to_jsonl());
            // Stream from a point before, inside or past the held
            // records.
            let from = model.next_seq.saturating_sub(u64::from(clock) % 12);
            let mut streamed = Vec::new();
            let next = buf.write_jsonl_since(from, &mut streamed).expect("to a Vec");
            prop_assert_eq!(next, model.next_seq);
            let want: String = model
                .records
                .iter()
                .filter(|r| r.seq >= from)
                .map(|r| format!("{r}\n"))
                .collect();
            prop_assert_eq!(String::from_utf8(streamed).expect("utf-8"), want);
        }
    }
}
