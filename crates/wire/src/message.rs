//! Control- and data-plane message encoding.
//!
//! One byte of tag, then a fixed header, then payload. Decoding is
//! total: every byte sequence either decodes to a message or returns a
//! `WireError` — malformed and truncated inputs are exercised by tests
//! and a dedicated proptest in the integration suite.
//!
//! Fine-grained summaries travel in one *generic tagged frame*
//! ([`Message::Summary`]): a stable mechanism id (`icd-sketch`'s
//! `SummaryId`), the declared element width, and an opaque body the
//! mechanism's own codec owns. The wire layer never interprets the body
//! — adding a summary mechanism touches the registry, not this file.
//!
//! Data-plane payloads are [`bytes::Bytes`]: encoding a symbol message
//! writes the shared payload without first copying it into an owned
//! vector (`Message::encode_into` writes straight into the caller's
//! frame buffer, sized in advance by `Message::encoded_size`), and
//! [`Message::decode_from`] materializes a received payload as a
//! zero-copy view of the input buffer.

use bytes::Bytes;
use icd_sketch::MinwiseSketch;

/// The negotiated symbol-id width: every summary in this protocol
/// revision digests 64-bit symbol ids. A frame declaring any other width
/// was built for a different universe; decoding its body against 64-bit
/// ids would silently truncate, so the decoder rejects it outright.
pub(crate) const SYMBOL_ID_BITS: u8 = 64;

/// Errors produced by decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A length field exceeds the decoder's sanity limit.
    Oversized {
        /// The length the message claimed.
        claimed: u64,
    },
    /// A summary frame declared an element width other than the
    /// negotiated `SYMBOL_ID_BITS`.
    ElementWidthMismatch {
        /// The width the frame declared.
        declared: u8,
        /// The width this protocol revision negotiates.
        expected: u8,
    },
    /// Structurally valid but semantically impossible (e.g. a sketch
    /// with no minima).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "message truncated"),
            Self::BadTag(t) => write!(f, "unknown message tag {t:#x}"),
            Self::Oversized { claimed } => write!(f, "length field {claimed} exceeds limit"),
            Self::ElementWidthMismatch { declared, expected } => write!(
                f,
                "summary frame declares {declared}-bit elements, negotiated width is {expected}"
            ),
            Self::Invalid(why) => write!(f, "invalid message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decoder sanity limit on any single vector length (elements).
const MAX_VEC: u64 = 16 * 1024 * 1024;

/// Message tags (stable protocol constants). Tags 0x02/0x03 belonged to
/// the retired random-sample and mod-k sketches, and 0x04/0x05 to the
/// retired mechanism-specific Bloom/ART messages; all four stay reserved.
mod tag {
    pub(super) const MINWISE: u8 = 0x01;
    pub(super) const SUMMARY: u8 = 0x07;
    pub(super) const SYMBOL_REQUEST: u8 = 0x06;
    pub(super) const ENCODED_SYMBOL: u8 = 0x10;
    pub(super) const RECODED_SYMBOL: u8 = 0x11;
    pub(super) const END: u8 = 0x7F;
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Min-wise sketch: the §4 "calling card".
    Minwise(MinwiseSketch),
    /// A fine-grained summary in the generic tagged frame: any mechanism
    /// registered under `summary_id` in the peers' `SummaryRegistry`.
    Summary {
        /// The mechanism's stable `SummaryId` value.
        summary_id: u16,
        /// The mechanism-owned body (decoded via the registry, never
        /// here). The declared element width rides in the frame and must
        /// equal `SYMBOL_ID_BITS`.
        body: Vec<u8>,
    },
    /// "Send me `count` symbols" — the receiver-driven request of §6.1
    /// ("the receiver may specify the number of symbols desired from
    /// each sender with appropriate allowances for decoding overhead").
    SymbolRequest {
        /// Number of symbols requested.
        count: u64,
    },
    /// One encoded symbol (data plane).
    EncodedSymbol {
        /// Symbol id (neighbor set derives from it).
        id: u64,
        /// XOR of the neighbor source blocks.
        payload: Bytes,
    },
    /// One recoded symbol (data plane, partial senders).
    RecodedSymbol {
        /// Component encoded-symbol ids.
        components: Vec<u64>,
        /// XOR of the component payloads.
        payload: Bytes,
    },
    /// End of stream: the sender has satisfied (or cannot further
    /// satisfy) the outstanding request. `sent` reports how many data
    /// messages preceded it.
    End {
        /// Data messages sent since the request.
        sent: u64,
    },
}

/// Byte-writer with the workspace's layout conventions, filling a
/// caller-owned buffer of exactly the encoded size, so a frame is
/// encoded straight into the buffer that carries it.
#[derive(Debug)]
struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// The next `n` bytes, for the caller to write.
    fn take(&mut self, n: usize) -> &mut [u8] {
        let start = self.pos;
        self.pos += n;
        &mut self.buf[start..self.pos]
    }
    fn put(&mut self, v: &[u8]) {
        self.take(v.len()).copy_from_slice(v);
    }
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn length(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("vector too long to encode"));
    }
    fn bytes(&mut self, v: &[u8]) {
        self.length(v.len());
        self.put(v);
    }
    fn u64s(&mut self, v: &[u64]) {
        self.length(v.len());
        for &x in v {
            self.u64(x);
        }
    }
    /// Checks that the layout filled the buffer: its size came from
    /// `Message::encoded_size`, and the two must never disagree.
    fn finish(self) {
        assert_eq!(
            self.pos,
            self.buf.len(),
            "encoding disagrees with its size budget"
        );
    }
}

/// Byte-reader; every accessor checks bounds.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn checked_len(&mut self) -> Result<usize, WireError> {
        let n = u64::from(self.u32()?);
        if n > MAX_VEC {
            return Err(WireError::Oversized { claimed: n });
        }
        Ok(n as usize)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.checked_len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn pos(&self) -> usize {
        self.pos
    }
    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.checked_len()?;
        let raw = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Invalid("trailing bytes after message"))
        }
    }
}

/// Parsed header of a data-plane symbol frame.
enum SymbolHeader {
    Encoded { id: u64 },
    Recoded { components: Vec<u64> },
}

impl SymbolHeader {
    fn into_message(self, payload: Bytes) -> Message {
        match self {
            SymbolHeader::Encoded { id } => Message::EncodedSymbol { id, payload },
            SymbolHeader::Recoded { components } => Message::RecodedSymbol {
                components,
                payload,
            },
        }
    }
}

/// Writes a `RecodedSymbol` body over `components` whose `payload_len`
/// payload bytes `fill` writes in place into `out`, which must be
/// exactly [`recoded_symbol_size`] bytes — the one encoder of that
/// layout, so a payload held in some other form (a word-packed
/// accumulator) is written into the frame once, without first becoming
/// a buffer of its own.
pub(crate) fn encode_recoded_into(
    out: &mut [u8],
    components: &[u64],
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) {
    let mut w = Writer::new(out);
    w.u8(tag::RECODED_SYMBOL);
    w.u64s(components);
    w.length(payload_len);
    fill(w.take(payload_len));
    w.finish();
}

/// Parses an `ENCODED_SYMBOL`/`RECODED_SYMBOL` frame into its header
/// plus the byte range of the payload within `input`. The single parse
/// routine behind both [`Message::decode`] (which copies the range) and
/// [`Message::decode_from`] (which views it).
fn parse_symbol_frame(input: &[u8]) -> Result<(SymbolHeader, std::ops::Range<usize>), WireError> {
    let mut r = Reader::new(input);
    let header = match r.u8()? {
        tag::ENCODED_SYMBOL => SymbolHeader::Encoded { id: r.u64()? },
        tag::RECODED_SYMBOL => {
            let components = r.u64s()?;
            if components.is_empty() {
                return Err(WireError::Invalid("recoded symbol with no components"));
            }
            SymbolHeader::Recoded { components }
        }
        other => return Err(WireError::BadTag(other)),
    };
    let n = r.checked_len()?;
    let start = r.pos();
    let _body = r.take(n)?;
    r.finish()?;
    Ok((header, start..start + n))
}

impl Message {
    /// Encodes the message to bytes (tag + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_size()];
        self.encode_into(&mut out);
        out
    }

    /// Encodes the message into `out`, which must be exactly
    /// [`Message::encoded_size`] bytes — the framing layer's form: the
    /// frame buffer is sized once and written once.
    pub(crate) fn encode_into(&self, out: &mut [u8]) {
        if let Message::RecodedSymbol {
            components,
            payload,
        } = self
        {
            return encode_recoded_into(out, components, payload.len(), |dst| {
                dst.copy_from_slice(payload);
            });
        }
        let mut w = Writer::new(out);
        match self {
            Message::Minwise(s) => {
                w.u8(tag::MINWISE);
                w.u64(s.family_seed());
                w.u64(s.set_size());
                w.u64s(s.minima());
            }
            Message::Summary { summary_id, body } => {
                w.u8(tag::SUMMARY);
                w.u16(*summary_id);
                w.u8(SYMBOL_ID_BITS);
                w.bytes(body);
            }
            Message::SymbolRequest { count } => {
                w.u8(tag::SYMBOL_REQUEST);
                w.u64(*count);
            }
            Message::EncodedSymbol { id, payload } => {
                w.u8(tag::ENCODED_SYMBOL);
                w.u64(*id);
                w.bytes(payload);
            }
            Message::RecodedSymbol { .. } => unreachable!("encoded above"),
            Message::End { sent } => {
                w.u8(tag::END);
                w.u64(*sent);
            }
        }
        w.finish();
    }

    /// Decodes a message. The entire input must be consumed.
    pub fn decode(input: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(input);
        let t = r.u8()?;
        let msg = match t {
            tag::MINWISE => {
                let family_seed = r.u64()?;
                let set_size = r.u64()?;
                let minima = r.u64s()?;
                let sketch = MinwiseSketch::from_parts(family_seed, minima, set_size)
                    .ok_or(WireError::Invalid("empty minwise sketch"))?;
                Message::Minwise(sketch)
            }
            tag::SUMMARY => {
                let summary_id = r.u16()?;
                let declared = r.u8()?;
                if declared != SYMBOL_ID_BITS {
                    return Err(WireError::ElementWidthMismatch {
                        declared,
                        expected: SYMBOL_ID_BITS,
                    });
                }
                let body = r.bytes()?;
                Message::Summary { summary_id, body }
            }
            tag::SYMBOL_REQUEST => Message::SymbolRequest { count: r.u64()? },
            tag::END => Message::End { sent: r.u64()? },
            tag::ENCODED_SYMBOL | tag::RECODED_SYMBOL => {
                let (header, payload) = parse_symbol_frame(input)?;
                return Ok(header.into_message(Bytes::copy_from_slice(&input[payload])));
            }
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Decodes a message from a shared buffer. Identical to
    /// [`Message::decode`] except that data-plane payloads come back as
    /// zero-copy views of `input` — a symbol passes from frame to
    /// decoder without its payload bytes ever being copied. Both paths
    /// parse symbol frames through one shared routine, so they cannot
    /// diverge.
    pub fn decode_from(input: &Bytes) -> Result<Self, WireError> {
        match input.first() {
            Some(&t) if t == tag::ENCODED_SYMBOL || t == tag::RECODED_SYMBOL => {
                let (header, payload) = parse_symbol_frame(input)?;
                Ok(header.into_message(input.slice(payload)))
            }
            _ => Self::decode(input),
        }
    }

    /// Encoded size in bytes, computed in O(1) from the layout — no
    /// allocation, no encoding pass. This is the data plane's length
    /// budget: the engine charges every simulated packet the exact
    /// number of bytes [`Message::encode_into`] would produce, and a
    /// test pins the two to each other for every variant.
    #[must_use]
    pub(crate) fn encoded_size(&self) -> usize {
        match self {
            Message::Minwise(s) => minwise_size(s.minima().len()),
            Message::Summary { body, .. } => summary_size(body.len()),
            Message::SymbolRequest { .. } | Message::End { .. } => COUNT_SIZE,
            Message::EncodedSymbol { payload, .. } => encoded_symbol_size(payload.len()),
            Message::RecodedSymbol {
                components,
                payload,
            } => recoded_symbol_size(components.len(), payload.len()),
        }
    }

    /// Total bytes this message occupies on a framed stream: the
    /// [`crate::framing`] u32 length prefix plus the encoded body.
    #[must_use]
    pub fn frame_len(&self) -> usize {
        FRAME_PREFIX_BYTES + self.encoded_size()
    }

    /// Whether `tag` opens a data-plane symbol frame (encoded or
    /// recoded), as opposed to control traffic — the split byte-counting
    /// drivers report.
    #[must_use]
    #[inline]
    pub const fn is_data_tag(t: u8) -> bool {
        t == tag::ENCODED_SYMBOL || t == tag::RECODED_SYMBOL
    }
}

/// Bytes the length-prefixed framing layer adds to every message.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// Encoded body size of a `Minwise` sketch with `minima` minima: tag +
/// family seed + set size + (count + minima).
const fn minwise_size(minima: usize) -> usize {
    1 + 8 + 8 + 4 + 8 * minima
}

/// Encoded body size of a `Summary` frame with a `body_len`-byte body:
/// tag + summary id + element width + (length + body).
const fn summary_size(body_len: usize) -> usize {
    1 + 2 + 1 + 4 + body_len
}

/// Encoded body size of a `SymbolRequest` or `End`: tag + count.
const COUNT_SIZE: usize = 1 + 8;

/// Encoded body size of an `EncodedSymbol` carrying `payload_len`
/// payload bytes: tag + id + (length + payload).
#[must_use]
pub(crate) const fn encoded_symbol_size(payload_len: usize) -> usize {
    1 + 8 + 4 + payload_len
}

/// Encoded body size of a `RecodedSymbol` with `components` component
/// ids and `payload_len` payload bytes: tag + (count + ids) + (length +
/// payload).
#[must_use]
pub(crate) const fn recoded_symbol_size(components: usize, payload_len: usize) -> usize {
    1 + 4 + 8 * components + 4 + payload_len
}

/// Framed wire length of an `EncodedSymbol` message — what one encoded
/// symbol actually costs on a stream. The discrete-event engine charges
/// its links with this, so simulated byte totals equal the sum of
/// `write_frame_buf` lengths for the equivalent real frames.
#[must_use]
#[inline]
pub const fn encoded_symbol_frame_len(payload_len: usize) -> usize {
    FRAME_PREFIX_BYTES + encoded_symbol_size(payload_len)
}

/// Framed wire length of a `RecodedSymbol` message (see
/// [`encoded_symbol_frame_len`]).
#[must_use]
#[inline]
pub const fn recoded_symbol_frame_len(components: usize, payload_len: usize) -> usize {
    FRAME_PREFIX_BYTES + recoded_symbol_size(components, payload_len)
}

/// Framed wire length of a `Minwise` calling card with `minima` minima —
/// what the engine books for a packet link's sketch exchange.
#[must_use]
pub const fn minwise_frame_len(minima: usize) -> usize {
    FRAME_PREFIX_BYTES + minwise_size(minima)
}

/// Framed wire length of a `Summary` frame with a `body_len`-byte body.
#[must_use]
pub const fn summary_frame_len(body_len: usize) -> usize {
    FRAME_PREFIX_BYTES + summary_size(body_len)
}

/// Framed wire length of a `SymbolRequest`.
#[must_use]
pub const fn symbol_request_frame_len() -> usize {
    FRAME_PREFIX_BYTES + COUNT_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_sketch::PermutationFamily;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn roundtrip(msg: &Message) -> Message {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("roundtrip decode");
        assert_eq!(&back, msg);
        back
    }

    #[test]
    fn minwise_roundtrip_and_budget() {
        let family = PermutationFamily::standard(7);
        let sketch = MinwiseSketch::from_keys(&family, keys(500, 1));
        let msg = Message::Minwise(sketch);
        roundtrip(&msg);
        // 1 tag + 8 seed + 8 size + 4 len + 1024 minima = 1045 — one
        // sketch per 1KB+headroom packet, §3's claim at the wire level.
        assert_eq!(msg.encoded_size(), 1045);
    }

    #[test]
    fn summary_frame_roundtrip_is_mechanism_agnostic() {
        // The wire layer carries any registered (or future) id verbatim.
        for summary_id in [1u16, 4, 5, 0x8001] {
            let msg = Message::Summary {
                summary_id,
                body: keys(32, u64::from(summary_id))
                    .iter()
                    .flat_map(|k| k.to_le_bytes())
                    .collect(),
            };
            roundtrip(&msg);
        }
        roundtrip(&Message::Summary {
            summary_id: 0,
            body: Vec::new(),
        });
    }

    #[test]
    fn summary_frame_layout_is_stable() {
        let msg = Message::Summary {
            summary_id: 0x0104,
            body: vec![0xAB, 0xCD],
        };
        assert_eq!(
            msg.encode(),
            vec![0x07, 0x04, 0x01, 64, 2, 0, 0, 0, 0xAB, 0xCD]
        );
    }

    #[test]
    fn element_width_mismatch_rejected_not_decoded() {
        // Regression for the silent-truncation hazard: a frame declaring
        // 32-bit elements must fail loudly, not decode its body against
        // 64-bit symbol ids.
        let mut bytes = Message::Summary {
            summary_id: 4,
            body: vec![1, 2, 3, 4],
        }
        .encode();
        assert_eq!(bytes[3], SYMBOL_ID_BITS);
        bytes[3] = 32;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::ElementWidthMismatch {
                declared: 32,
                expected: 64
            })
        );
        bytes[3] = 0;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::ElementWidthMismatch { declared: 0, .. })
        ));
    }

    #[test]
    fn symbol_messages_roundtrip() {
        roundtrip(&Message::SymbolRequest { count: 12345 });
        roundtrip(&Message::End { sent: 99 });
        roundtrip(&Message::EncodedSymbol {
            id: 42,
            payload: Bytes::from(vec![1, 2, 3, 4]),
        });
        roundtrip(&Message::RecodedSymbol {
            components: vec![5, 8, 13],
            payload: Bytes::from(vec![0xAA; 16]),
        });
    }

    #[test]
    fn encoded_size_matches_actual_encoding_for_every_variant() {
        let family = PermutationFamily::standard(7);
        let variants = vec![
            Message::Minwise(MinwiseSketch::from_keys(&family, keys(200, 10))),
            Message::Summary {
                summary_id: 4,
                body: vec![0xA5; 37],
            },
            Message::Summary {
                summary_id: 0,
                body: Vec::new(),
            },
            Message::SymbolRequest { count: 7 },
            Message::End { sent: 31 },
            Message::EncodedSymbol {
                id: 9,
                payload: Bytes::from(vec![1; 53]),
            },
            Message::EncodedSymbol {
                id: 9,
                payload: Bytes::new(),
            },
            Message::RecodedSymbol {
                components: vec![1, 2, 3, 4, 5],
                payload: Bytes::from(vec![2; 19]),
            },
        ];
        let mut scratch = Vec::new();
        for msg in &variants {
            let encoded = msg.encode();
            assert_eq!(msg.encoded_size(), encoded.len(), "size budget for {msg:?}");
            // Framed length = prefix + body, cross-checked against the
            // bytes write_frame_buf actually produces.
            let mut framed = Vec::new();
            crate::framing::write_frame_buf(&mut framed, msg, &mut scratch).expect("frame");
            assert_eq!(msg.frame_len(), framed.len(), "frame budget for {msg:?}");
        }
        // The closed-form helpers the engine charges links with, pinned
        // to the encoder's own frame length.
        assert_eq!(encoded_symbol_frame_len(53), 4 + 1 + 8 + 4 + 53);
        assert_eq!(recoded_symbol_frame_len(5, 19), 4 + 1 + 4 + 40 + 4 + 19);
        for msg in &variants {
            let closed_form = match msg {
                Message::Minwise(s) => minwise_frame_len(s.minima().len()),
                Message::Summary { body, .. } => summary_frame_len(body.len()),
                Message::SymbolRequest { .. } => symbol_request_frame_len(),
                Message::EncodedSymbol { payload, .. } => encoded_symbol_frame_len(payload.len()),
                Message::RecodedSymbol {
                    components,
                    payload,
                } => recoded_symbol_frame_len(components.len(), payload.len()),
                Message::End { .. } => continue,
            };
            assert_eq!(closed_form, msg.frame_len(), "closed form for {msg:?}");
        }
        assert!(Message::is_data_tag(tag::ENCODED_SYMBOL));
        assert!(Message::is_data_tag(tag::RECODED_SYMBOL));
        assert!(!Message::is_data_tag(tag::MINWISE));
        assert!(!Message::is_data_tag(tag::END));
    }

    #[test]
    fn decode_from_is_zero_copy_for_symbol_frames() {
        let payload: Vec<u8> = (0u8..64).collect();
        for msg in [
            Message::EncodedSymbol {
                id: 7,
                payload: Bytes::from(payload.clone()),
            },
            Message::RecodedSymbol {
                components: vec![3, 9],
                payload: Bytes::from(payload.clone()),
            },
        ] {
            let frame = Bytes::from(msg.encode());
            let back = Message::decode_from(&frame).expect("decode");
            assert_eq!(back, msg);
            let view = match &back {
                Message::EncodedSymbol { payload, .. } | Message::RecodedSymbol { payload, .. } => {
                    payload
                }
                other => panic!("unexpected {other:?}"),
            };
            // The payload is a view into the frame, not a copy.
            let frame_payload = &frame[frame.len() - payload.len()..];
            assert_eq!(view.as_ptr(), frame_payload.as_ptr(), "payload was copied");
        }
        // Non-symbol frames and malformed inputs fall through to decode.
        let other = Message::SymbolRequest { count: 5 };
        assert_eq!(
            Message::decode_from(&Bytes::from(other.encode())).expect("decode"),
            other
        );
        assert!(Message::decode_from(&Bytes::new()).is_err());
        let truncated = Bytes::from(
            Message::EncodedSymbol {
                id: 1,
                payload: Bytes::from(vec![9; 8]),
            }
            .encode(),
        )
        .slice(..10);
        assert!(Message::decode_from(&truncated).is_err());
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let msg = Message::RecodedSymbol {
            components: vec![1, 2, 3],
            payload: Bytes::from(vec![7; 32]),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut]);
            assert!(err.is_err(), "decode of {cut}-byte prefix should fail");
        }
        let summary = Message::Summary {
            summary_id: 4,
            body: vec![9; 24],
        };
        let bytes = summary.encode();
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "summary cut {cut}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(WireError::BadTag(0xEE)));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
        // The retired sketch and mechanism-specific tags stay dead.
        assert_eq!(Message::decode(&[0x02]), Err(WireError::BadTag(0x02)));
        assert_eq!(Message::decode(&[0x03]), Err(WireError::BadTag(0x03)));
        assert_eq!(Message::decode(&[0x04]), Err(WireError::BadTag(0x04)));
        assert_eq!(Message::decode(&[0x05]), Err(WireError::BadTag(0x05)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::SymbolRequest { count: 1 }.encode();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Invalid("trailing bytes after message"))
        );
    }

    #[test]
    fn oversized_length_rejected() {
        // Hand-craft a MINWISE sketch claiming 2^32 - 1 minima.
        let mut bytes = vec![tag::MINWISE];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // family seed
        bytes.extend_from_slice(&0u64.to_le_bytes()); // set size
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        match Message::decode(&bytes) {
            Err(WireError::Oversized { claimed }) => {
                assert_eq!(claimed, u64::from(u32::MAX));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn empty_recoded_symbol_rejected() {
        let mut bytes = vec![tag::RECODED_SYMBOL];
        bytes.extend_from_slice(&0u32.to_le_bytes()); // zero components
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty payload
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Invalid("recoded symbol with no components"))
        );
    }
}
