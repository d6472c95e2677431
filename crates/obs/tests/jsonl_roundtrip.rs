//! Schema round-trip property: any sequence of trace events encodes to
//! JSONL and decodes back to exactly the pushed records — including
//! arbitrary fault-name strings through the escaper. Case volume
//! scales with `PROPTEST_CASES` (the nightly fuzz lane raises it).

use icd_obs::{TraceBuf, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// Builds one event from a kind selector and flat field draws — the
/// shim has no enum strategy, so the selector picks the variant and
/// the u64s fill it.
fn build_event(kind: u8, a: u64, b: u64, c: u64, flag: bool, name: Vec<u8>) -> TraceEvent {
    match kind % 9 {
        0 => TraceEvent::LinkSend {
            link: a,
            recoded: flag,
            lost: !flag,
            components: b,
            frame_len: c,
        },
        1 => TraceEvent::SummaryExchanged {
            from: a,
            to: b,
            summary: c % 8,
            handshake_bytes: c,
            control_bytes: c.wrapping_mul(3),
        },
        2 => TraceEvent::LinkUp {
            link: a,
            from: b,
            to: c,
        },
        3 => TraceEvent::LinkDown { link: a },
        4 => TraceEvent::RoundStart { round: a },
        5 => TraceEvent::StallEscalation {
            peer: a,
            starved: b,
        },
        6 => TraceEvent::FaultApplied {
            // Arbitrary bytes → lossy UTF-8: exercises quotes,
            // backslashes, and control characters in the escaper.
            fault: String::from_utf8_lossy(&name).into_owned().into(),
            peer: a,
        },
        7 => TraceEvent::Redial {
            from: a,
            to: b,
            round: c,
            attempt: c % 7,
        },
        _ => TraceEvent::SessionSpan {
            from: a,
            to: b,
            round: c,
            retries: c % 5,
            ok: flag,
        },
    }
}

proptest! {
    #[test]
    fn jsonl_encode_decode_round_trips(
        draws in vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<bool>()), 0..40),
        name in vec(any::<u8>(), 0..24),
        t0 in 0u64..1_000_000,
    ) {
        let mut buf = TraceBuf::new(64);
        for (i, &(kind, a, b, flag)) in draws.iter().enumerate() {
            let c = a.wrapping_mul(31).wrapping_add(b.rotate_left(17));
            buf.push(t0 + i as u64, build_event(kind, a, b, c, flag, name.clone()));
        }
        let jsonl = buf.to_jsonl();
        let parsed = TraceBuf::parse_jsonl(&jsonl).expect("decode own encoding");
        let original: Vec<_> = buf.records().cloned().collect();
        prop_assert_eq!(parsed, original);
        // Encoding is a pure function of the records.
        prop_assert_eq!(buf.to_jsonl(), jsonl);
    }
}
