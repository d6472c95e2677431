//! Bounds-checked byte codec shared by every summary body format.
//!
//! Each mechanism owns its body layout, but all of them use the same
//! little-endian primitives and the same defensive decoding posture as
//! `icd-wire`: every read is bounds-checked, every length field is
//! sanity-capped, and a malformed body is a [`SummaryError`], never a
//! panic. Keeping the codec here (rather than in `icd-wire`) lets the
//! mechanisms encode/decode their digests without a dependency on the
//! message layer.

use super::SummaryError;

/// Sanity cap on any single vector length (elements), mirroring the
/// wire layer's decoder limit.
pub(crate) const MAX_VEC: u64 = 16 * 1024 * 1024;

/// Little-endian byte writer for summary bodies.
#[derive(Debug, Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Creates an empty writer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("vector too long to encode"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed u64 vector.
    pub(crate) fn u64s(&mut self, v: &[u64]) {
        self.u32(u32::try_from(v.len()).expect("vector too long to encode"));
        for &x in v {
            self.u64(x);
        }
    }

    /// Finishes the writer, yielding the encoded body.
    #[must_use]
    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader for summary bodies.
#[derive(Debug)]
pub(crate) struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Wraps a body for decoding.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SummaryError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SummaryError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(SummaryError::Malformed("body truncated"));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, SummaryError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub(crate) fn u16(&mut self) -> Result<u16, SummaryError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian u32.
    pub(crate) fn u32(&mut self) -> Result<u32, SummaryError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub(crate) fn u64(&mut self) -> Result<u64, SummaryError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length prefix, enforcing [`MAX_VEC`].
    pub(crate) fn checked_len(&mut self) -> Result<usize, SummaryError> {
        let n = u64::from(self.u32()?);
        if n > MAX_VEC {
            return Err(SummaryError::Malformed("length field exceeds limit"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, SummaryError> {
        let n = self.checked_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed u64 vector.
    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, SummaryError> {
        let n = self.checked_len()?;
        let raw = self.take(
            n.checked_mul(8)
                .ok_or(SummaryError::Malformed("length overflow"))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads `n` raw bytes (no length prefix).
    pub(crate) fn raw(&mut self, n: usize) -> Result<&'a [u8], SummaryError> {
        self.take(n)
    }

    /// Asserts the entire body was consumed.
    pub(crate) fn finish(self) -> Result<(), SummaryError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SummaryError::Malformed("trailing bytes after body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = FrameWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.bytes(&[1, 2, 3]);
        w.u64s(&[9, 10]);
        let body = w.finish();
        let mut r = FrameReader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64s().unwrap(), vec![9, 10]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = FrameWriter::new();
        w.u64s(&[1, 2, 3]);
        let body = w.finish();
        for cut in 0..body.len() {
            let mut r = FrameReader::new(&body[..cut]);
            assert!(r.u64s().is_err(), "cut at {cut} must fail");
        }
        let mut r = FrameReader::new(&body);
        let _ = r.u32().unwrap();
        assert!(r.finish().is_err(), "unconsumed bytes must be rejected");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = FrameReader::new(&body);
        assert!(matches!(r.u64s(), Err(SummaryError::Malformed(_))));
    }
}
