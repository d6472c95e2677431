//! Length-prefixed framing over byte streams.
//!
//! A frame is a u32 little-endian length followed by that many bytes of
//! encoded [`crate::Message`]. The reader enforces a caller-chosen
//! [`FrameLimit`] so a corrupt or hostile peer cannot make us allocate
//! unbounded memory — the usual first mistake of hand-rolled protocols.
//!
//! These functions work over any `std::io::Read`/`Write`, so the same
//! code drives the in-memory tests and the `tcp_reconcile` example's
//! real sockets.

use std::io::{Read, Write};

use bytes::Bytes;

use crate::message::{encode_recoded_into, recoded_symbol_frame_len, Message, WireError};

/// Upper bound on accepted frame sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimit {
    /// Maximum frame body length in bytes.
    pub max_bytes: u32,
}

impl Default for FrameLimit {
    /// 16 MiB: generously above any summary this workspace produces
    /// (a 1-GB file's ART summary is ~10 KB) while still bounding a
    /// hostile length field.
    fn default() -> Self {
        Self {
            max_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Errors from the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// Frame length exceeded the limit.
    TooLarge {
        /// Claimed body length.
        claimed: u32,
        /// The configured limit.
        limit: u32,
    },
    /// Frame body failed to decode.
    Wire(WireError),
    /// The stream ended cleanly between frames.
    Closed,
    /// The stream ended *inside* a frame: the peer promised `needed`
    /// more bytes (header or body) and delivered only `got` before EOF.
    /// Distinct from [`FrameError::Closed`] so a driver can tell a
    /// normal shutdown from a truncated transfer.
    Truncated {
        /// Bytes the current frame still required.
        needed: usize,
        /// Bytes actually received before the stream ended.
        got: usize,
    },
    /// A configured read timeout elapsed mid-read. The stream may hold a
    /// partial frame and must not be reused for framed traffic.
    TimedOut,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::TooLarge { claimed, limit } => {
                write!(f, "frame of {claimed} bytes exceeds limit {limit}")
            }
            Self::Wire(e) => write!(f, "frame decode failed: {e}"),
            Self::Closed => write!(f, "stream closed"),
            Self::Truncated { needed, got } => {
                write!(
                    f,
                    "stream ended inside a frame: got {got} of {} bytes",
                    needed + got
                )
            }
            Self::TimedOut => write!(f, "read timeout elapsed mid-frame"),
        }
    }
}

impl FrameError {
    /// Whether a retry over a *fresh* stream could plausibly succeed.
    ///
    /// Connection-level failures — the peer closed, the stream died
    /// mid-frame, a read/write deadline fired, the OS surfaced an I/O
    /// error — say nothing about the protocol state on either side, so
    /// a dialer with a retry budget should redial. Protocol-level
    /// failures ([`FrameError::TooLarge`], [`FrameError::Wire`]) mean
    /// the *bytes themselves* are wrong; redialing the same peer buys
    /// nothing.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io(_) | Self::Closed | Self::Truncated { .. } | Self::TimedOut => true,
            Self::TooLarge { .. } | Self::Wire(_) => false,
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            Self::TimedOut
        } else {
            Self::Io(e)
        }
    }
}

/// Writes one message as a frame.
pub fn write_frame<W: Write>(writer: &mut W, msg: &Message) -> Result<(), FrameError> {
    let mut scratch = Vec::new();
    write_frame_buf(writer, msg, &mut scratch)
}

/// [`write_frame`] through a caller-owned scratch buffer: the length
/// prefix and body are assembled in `scratch` (cleared first) and issued
/// as a single write. A session pumping many symbols reuses one buffer
/// for the whole stream instead of allocating per frame.
pub fn write_frame_buf<W: Write>(
    writer: &mut W,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let prefix = length_prefix(msg.encoded_size())?;
    scratch.clear();
    scratch.resize(msg.frame_len(), 0);
    scratch[..4].copy_from_slice(&prefix);
    msg.encode_into(&mut scratch[4..]);
    writer.write_all(scratch)?;
    Ok(())
}

/// One whole frame of `msg` — length prefix and body, the bytes
/// [`write_frame_buf`] writes — encoded once, straight into the shared
/// buffer that carries it ([`Bytes::from_fill`]), for a caller that
/// hands frames on as buffers.
pub fn encode_frame(msg: &Message) -> Result<Bytes, FrameError> {
    let prefix = length_prefix(msg.encoded_size())?;
    Ok(Bytes::from_fill(msg.frame_len(), |frame| {
        frame[..4].copy_from_slice(&prefix);
        msg.encode_into(&mut frame[4..]);
    }))
}

/// The frame [`encode_frame`] gives for a `RecodedSymbol` over
/// `components` with a `payload_len`-byte payload, the payload written
/// in place by `fill` into a zeroed region: a recoding sender XORs the
/// components' payloads straight into the frame instead of first
/// building a payload buffer and copying it into a `Message`.
pub fn encode_recoded_frame(
    components: &[u64],
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Result<Bytes, FrameError> {
    let frame_len = recoded_symbol_frame_len(components.len(), payload_len);
    let prefix = length_prefix(frame_len - 4)?;
    Ok(Bytes::from_fill(frame_len, |frame| {
        frame[..4].copy_from_slice(&prefix);
        encode_recoded_into(&mut frame[4..], components, payload_len, fill);
    }))
}

/// The u32 length prefix of a `body_len`-byte frame body.
fn length_prefix(body_len: usize) -> Result<[u8; 4], FrameError> {
    let len = u32::try_from(body_len).map_err(|_| FrameError::TooLarge {
        claimed: u32::MAX,
        limit: u32::MAX,
    })?;
    Ok(len.to_le_bytes())
}

/// Reads the 4-byte length prefix. A clean EOF before the first byte is
/// [`FrameError::Closed`] (normal shutdown between frames); EOF after
/// one or more prefix bytes is [`FrameError::Truncated`].
fn read_prefix<R: Read>(reader: &mut R) -> Result<[u8; 4], FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Err(FrameError::Closed),
            0 => {
                return Err(FrameError::Truncated {
                    needed: 4 - filled,
                    got: filled,
                })
            }
            n => filled += n,
        }
    }
    Ok(len_bytes)
}

/// Reads exactly `buf.len()` body bytes; EOF mid-body is
/// [`FrameError::Truncated`] counting the `got_before` frame bytes
/// already consumed (the prefix, for both readers below).
fn read_body<R: Read>(reader: &mut R, buf: &mut [u8], got_before: usize) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..])? {
            0 => {
                return Err(FrameError::Truncated {
                    needed: buf.len() - filled,
                    got: got_before + filled,
                })
            }
            n => filled += n,
        }
    }
    Ok(())
}

/// Reads one frame and returns it raw — length prefix *and* body — as a
/// shared buffer, without decoding. Sans-I/O drivers use this to hand
/// the exact wire bytes to a session machine (which decodes with
/// [`Message::decode_from`] as a view of the same buffer) while
/// accounting the true framed length. Returns [`FrameError::Closed`] on
/// a clean EOF between frames, [`FrameError::Truncated`] when the
/// stream dies inside a frame, and [`FrameError::TimedOut`] when a
/// configured read timeout fires (the stream may then hold a partial
/// frame and must be torn down, not retried).
pub fn read_frame_bytes<R: Read>(reader: &mut R, limit: FrameLimit) -> Result<Bytes, FrameError> {
    let len_bytes = read_prefix(reader)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > limit.max_bytes {
        return Err(FrameError::TooLarge {
            claimed: len,
            limit: limit.max_bytes,
        });
    }
    // Read straight into the shared buffer the frame travels in.
    let mut read = Ok(());
    let frame = Bytes::from_fill(4 + len as usize, |frame| {
        frame[..4].copy_from_slice(&len_bytes);
        read = read_body(reader, &mut frame[4..], 4);
    });
    read?;
    Ok(frame)
}

/// Reads one frame and decodes it. Returns [`FrameError::Closed`] if the
/// stream ends exactly on a frame boundary (normal shutdown); see
/// [`read_frame_bytes`] for the mid-frame error taxonomy.
pub fn read_frame<R: Read>(reader: &mut R, limit: FrameLimit) -> Result<Message, FrameError> {
    let len_bytes = read_prefix(reader)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > limit.max_bytes {
        return Err(FrameError::TooLarge {
            claimed: len,
            limit: limit.max_bytes,
        });
    }
    // Read into a shared buffer so data-plane payloads decode as views
    // of it — the read is the frame's only copy.
    let mut read = Ok(());
    let body = Bytes::from_fill(len as usize, |body| read = read_body(reader, body, 4));
    read?;
    Message::decode_from(&body).map_err(FrameError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn encoded_frames_match_the_written_ones() {
        let msgs = vec![
            Message::SymbolRequest { count: 9 },
            Message::EncodedSymbol {
                id: 7,
                payload: bytes::Bytes::from(vec![1, 2, 3]),
            },
            Message::RecodedSymbol {
                components: vec![4, 5],
                payload: bytes::Bytes::from(vec![6; 10]),
            },
        ];
        for m in &msgs {
            let mut written = Vec::new();
            write_frame(&mut written, m).expect("write");
            let frame = encode_frame(m).expect("encode");
            assert_eq!(frame, written);
            assert_eq!(frame.len(), m.frame_len());
        }
        let filled = encode_recoded_frame(&[4, 5], 10, |out| out.fill(6)).expect("encode");
        assert_eq!(filled, encode_frame(&msgs[2]).expect("encode"));
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let msgs = vec![
            Message::SymbolRequest { count: 9 },
            Message::EncodedSymbol {
                id: 7,
                payload: bytes::Bytes::from(vec![1, 2, 3]),
            },
            Message::RecodedSymbol {
                components: vec![4, 5],
                payload: bytes::Bytes::from(vec![6; 10]),
            },
        ];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for m in &msgs {
            write_frame_buf(&mut buf, m, &mut scratch).expect("write");
        }
        let mut cursor = Cursor::new(buf);
        for m in &msgs {
            let got = read_frame(&mut cursor, FrameLimit::default()).expect("read");
            assert_eq!(&got, m);
        }
        // Clean EOF after the last frame.
        assert!(matches!(
            read_frame(&mut cursor, FrameLimit::default()),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, FrameLimit { max_bytes: 1024 }) {
            Err(FrameError::TooLarge { claimed, limit }) => {
                assert_eq!(claimed, u32::MAX);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_typed() {
        let mut cursor = Cursor::new(vec![1u8, 0]);
        match read_frame(&mut cursor, FrameLimit::default()) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, 2);
                assert_eq!(got, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 10]); // 90 bytes short
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, FrameLimit::default()) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, 90);
                assert_eq!(got, 4 + 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn raw_reader_reports_truncation_too() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 3]);
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame_bytes(&mut cursor, FrameLimit::default()),
            Err(FrameError::Truncated { needed: 5, got: 7 })
        ));
    }

    #[test]
    fn transience_splits_connection_from_protocol_failures() {
        assert!(FrameError::Closed.is_transient());
        assert!(FrameError::TimedOut.is_transient());
        assert!(FrameError::Truncated { needed: 3, got: 1 }.is_transient());
        assert!(FrameError::Io(std::io::Error::other("reset")).is_transient());
        assert!(!FrameError::TooLarge {
            claimed: 9,
            limit: 1
        }
        .is_transient());
        assert!(!FrameError::Wire(WireError::BadTag(0xEE)).is_transient());
    }

    #[test]
    fn garbage_body_is_wire_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xEE); // bad tag
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, FrameLimit::default()),
            Err(FrameError::Wire(WireError::BadTag(0xEE)))
        ));
    }
}
