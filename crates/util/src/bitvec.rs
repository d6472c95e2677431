//! A compact, fixed-length bit vector.
//!
//! Backing store for the Bloom-filter family. Bits are indexed `0..len`
//! and packed into `u64` words. The structure deliberately stays minimal:
//! set/get/clear, popcount, union/intersection (used when peers merge
//! summaries), and serialization to/from bytes (used by the wire format,
//! whose packet-budget audits need exact byte counts).

/// Fixed-length bit vector packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1. Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`. Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union with another vector of the same length.
    ///
    /// Panics if lengths differ: merging summaries of different geometries
    /// is a logic error, not a recoverable condition.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Serializes to little-endian bytes, `ceil(len/8)` of them.
    ///
    /// Trailing bits beyond `len` are guaranteed zero, so equal vectors
    /// serialize identically.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_bytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(n_bytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(n_bytes);
        out
    }

    /// Reconstructs a bit vector of `len` bits from bytes produced by
    /// [`BitVec::to_bytes`]. Returns `None` if `bytes` is too short.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() < len.div_ceil(8) {
            return None;
        }
        let mut v = Self::new(len);
        for (i, chunk) in bytes[..len.div_ceil(8)].chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            v.words[i] = u64::from_le_bytes(word);
        }
        // Mask tail bits so equality semantics hold.
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = v.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert!(!v.get(0));
        v.set(0);
        v.set(64);
        v.set(129);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let v = BitVec::new(10);
        let _ = v.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let mut v = BitVec::new(0);
        v.set(0);
    }

    #[test]
    fn union_sets_both_sides() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(3);
        a.set(50);
        b.set(50);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert!(u.get(3) && u.get(50) && u.get(99));
        assert_eq!(u.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let mut a = BitVec::new(10);
        let b = BitVec::new(11);
        a.union_with(&b);
    }

    #[test]
    fn byte_roundtrip_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 100, 1000] {
            let mut v = BitVec::new(len);
            for i in (0..len).step_by(3) {
                v.set(i);
            }
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            let back = BitVec::from_bytes(&bytes, len).expect("roundtrip");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn from_bytes_rejects_short_input() {
        assert!(BitVec::from_bytes(&[0u8; 1], 16).is_none());
        assert!(BitVec::from_bytes(&[0u8; 2], 16).is_some());
    }

    #[test]
    fn from_bytes_masks_tail_bits() {
        // A stray bit beyond `len` in the input must not affect equality.
        let bytes = [0xFFu8];
        let v = BitVec::from_bytes(&bytes, 3).expect("3 bits from one byte");
        assert_eq!(v.count_ones(), 3);
        let mut w = BitVec::new(3);
        w.set(0);
        w.set(1);
        w.set(2);
        assert_eq!(v, w);
    }

    #[test]
    fn empty_vector_behaves() {
        let v = BitVec::new(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.to_bytes().len(), 0);
    }
}
