//! Property-based tests on the wire format: total decoding (no panics on
//! arbitrary bytes), lossless round-trips for arbitrary messages, and a
//! malformed-frame corpus for the framing layer — oversized length
//! prefixes, mid-frame truncation, unknown tags — all of which must
//! surface as typed errors, never panics or unbounded allocation.

use icd_wire::framing::{read_frame, write_frame, FrameError, FrameLimit};
use icd_wire::{buffered_session, Message, WireError};
use proptest::prelude::*;

/// An in-memory stream that hands out at most `step` bytes per `read`
/// (1 = the slowest socket imaginable, `usize::MAX` = every frame in
/// one call) and swallows writes.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    step: usize,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl std::io::Write for Chunked {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reads frames until the stream errors; returns them with the error.
fn drain<R: std::io::Read>(reader: &mut R) -> (Vec<Message>, FrameError) {
    let mut frames = Vec::new();
    loop {
        match read_frame(reader, FrameLimit::default()) {
            Ok(msg) => frames.push(msg),
            Err(e) => return (frames, e),
        }
    }
}

/// [`drain`] through the buffering the blocking session drivers put
/// under the framing layer, over a stream that reads `step` bytes a call.
fn drain_buffered(data: &[u8], step: usize) -> (Vec<Message>, FrameError) {
    let mut stream = Chunked {
        data: data.to_vec(),
        pos: 0,
        step,
    };
    buffered_session(&mut stream, |io| Ok::<_, FrameError>(drain(io))).expect("flush to a sink")
}

proptest! {
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // Must return Ok or Err, never panic or loop.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn symbol_request_roundtrip(count in any::<u64>()) {
        let msg = Message::SymbolRequest { count };
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn encoded_symbol_roundtrip(id in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let msg = Message::EncodedSymbol { id, payload: bytes::Bytes::from(payload) };
        // decode copies; decode_from views — both must round-trip.
        prop_assert_eq!(Message::decode_from(&bytes::Bytes::from(msg.encode())).unwrap(), msg.clone());
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn recoded_symbol_roundtrip(
        components in proptest::collection::vec(any::<u64>(), 1..64),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let msg = Message::RecodedSymbol { components, payload: bytes::Bytes::from(payload) };
        prop_assert_eq!(Message::decode_from(&bytes::Bytes::from(msg.encode())).unwrap(), msg.clone());
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn truncation_always_detected(
        components in proptest::collection::vec(any::<u64>(), 1..16),
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg = Message::RecodedSymbol { components, payload: bytes::Bytes::from(vec![7; 32]) };
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
            prop_assert!(Message::decode_from(&bytes::Bytes::copy_from_slice(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn trailing_garbage_always_detected(extra in 1usize..16) {
        let mut bytes = Message::SymbolRequest { count: 7 }.encode();
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid(_)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn framing_is_faithful_to_message_decode(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        // A well-prefixed frame around an arbitrary body must land in
        // exactly the same place as decoding the body directly: same
        // message on success, a typed `Wire` error on failure — the
        // framing layer adds no acceptance and no panics of its own.
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let mut cursor = std::io::Cursor::new(framed);
        match (read_frame(&mut cursor, FrameLimit::default()), Message::decode(&body)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(FrameError::Wire(_)), Err(_)) => {}
            (framed, direct) => panic!("framing diverged: {framed:?} vs {direct:?}"),
        }
    }

    #[test]
    fn framed_stream_cut_anywhere_is_typed(
        counts in proptest::collection::vec(any::<u64>(), 1..4),
        cut_fraction in 0.0f64..1.0,
    ) {
        // Frame a few messages, cut the stream at an arbitrary byte,
        // and read until it ends: every outcome must be a typed frame
        // error — clean `Closed` exactly on a frame boundary, `Truncated`
        // with consistent counters mid-frame — and never a panic.
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for &count in &counts {
            write_frame(&mut buf, &Message::SymbolRequest { count }).expect("write");
            boundaries.push(buf.len());
        }
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        let (frames, end) = drain(&mut std::io::Cursor::new(&buf[..cut]));
        let decoded = frames.len();
        for (msg, &count) in frames.iter().zip(&counts) {
            prop_assert_eq!(msg, &Message::SymbolRequest { count });
        }
        // The session drivers' buffering changes nothing: same frames,
        // same typed error with the same counters, whether the stream
        // trickles a byte per read or delivers everything at once.
        for step in [1, 5, usize::MAX] {
            let (buffered_frames, buffered_end) = drain_buffered(&buf[..cut], step);
            prop_assert_eq!(&buffered_frames, &frames);
            prop_assert_eq!(format!("{buffered_end:?}"), format!("{end:?}"));
        }
        match end {
            FrameError::Closed => prop_assert_eq!(cut, boundaries[decoded]),
            FrameError::Truncated { needed, got } => {
                prop_assert!(needed > 0, "truncation must still be missing bytes");
                // The error's counters reconstruct the cut position.
                prop_assert_eq!(boundaries[decoded] + got, cut);
            }
            other => panic!("expected Closed/Truncated, got {other:?}"),
        }
        prop_assert!(decoded <= counts.len());
    }
}

/// Hand-written malformed frames, each of which must be rejected with
/// the *specific* typed error a driver can act on — the corpus the
/// nightly fuzz lane grew out of.
#[test]
fn malformed_frame_corpus_is_rejected_with_typed_errors() {
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body);
        buf
    }
    let valid = {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::SymbolRequest { count: 9 }).expect("write");
        buf
    };

    // (name, stream bytes, check on the resulting error)
    type ErrorCheck = Box<dyn Fn(&FrameError) -> bool>;
    let corpus: Vec<(&str, Vec<u8>, ErrorCheck)> = vec![
        (
            "empty stream is a clean close",
            Vec::new(),
            Box::new(|e| matches!(e, FrameError::Closed)),
        ),
        (
            "truncated length prefix",
            vec![0x01, 0x00],
            Box::new(|e| matches!(e, FrameError::Truncated { needed: 2, got: 2 })),
        ),
        (
            "oversized length prefix is rejected before allocating",
            {
                let mut buf = u32::MAX.to_le_bytes().to_vec();
                buf.extend_from_slice(&[0u8; 8]);
                buf
            },
            Box::new(|e| {
                matches!(
                    e,
                    FrameError::TooLarge {
                        claimed: u32::MAX,
                        ..
                    }
                )
            }),
        ),
        (
            "body cut mid-frame",
            valid[..valid.len() - 3].to_vec(),
            Box::new(|e| matches!(e, FrameError::Truncated { needed: 3, .. })),
        ),
        (
            "unknown message tag",
            framed(&[0xEE]),
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
        (
            "unknown summary id inside a summary frame",
            framed(&[0x07, 0xEE, 0xEE, 0xEE]),
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
        (
            "declared length longer than the message",
            {
                let mut body = Message::SymbolRequest { count: 9 }.encode();
                body.extend_from_slice(&[0u8; 3]);
                framed(&body)
            },
            Box::new(|e| matches!(e, FrameError::Wire(_))),
        ),
    ];

    for (name, bytes, check) in corpus {
        let direct = drain(&mut std::io::Cursor::new(&bytes));
        for (frames, e) in [direct, drain_buffered(&bytes, usize::MAX)] {
            assert!(frames.is_empty(), "{name}: accepted as {frames:?}");
            assert!(check(&e), "{name}: wrong error {e:?}");
        }
    }
}

#[test]
fn framing_roundtrip_over_in_memory_stream() {
    use icd_wire::framing::{read_frame, write_frame, FrameLimit};
    let msgs = vec![
        Message::SymbolRequest { count: 1 },
        Message::EncodedSymbol {
            id: 2,
            payload: bytes::Bytes::from(vec![3; 100]),
        },
        Message::End { sent: 1 },
    ];
    let mut buf = Vec::new();
    for m in &msgs {
        write_frame(&mut buf, m).expect("write");
    }
    let mut cursor = std::io::Cursor::new(buf);
    for m in &msgs {
        assert_eq!(
            &read_frame(&mut cursor, FrameLimit::default()).expect("read"),
            m
        );
    }
}
