//! Source-block handling: partitioning content and reassembling it.
//!
//! §6.1's reference workload: "A 32MB test file was divided into 23,968
//! source blocks of 1400 bytes" — 1400 bytes being a payload that fits a
//! standard Ethernet MTU after headers. [`SourceBlocks`] performs that
//! split (zero-padding the tail block) and the inverse.

use bytes::Bytes;

/// Identifier of an encoded symbol: the 64-bit value from which the
/// symbol's neighbor set is derived, and the key that working sets,
/// sketches, and filters operate on.
pub type SymbolId = u64;

/// The paper's block size (bytes) for the 32 MB reference file.
pub const PAPER_BLOCK_SIZE: usize = 1400;

/// Content partitioned into equal-size source blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceBlocks {
    blocks: Vec<Bytes>,
    block_size: usize,
    content_len: usize,
}

impl SourceBlocks {
    /// Splits `content` into blocks of `block_size` bytes, zero-padding
    /// the final block. Empty content yields a single zero block so that
    /// downstream invariants (`num_blocks ≥ 1`) hold unconditionally.
    ///
    /// Panics if `block_size == 0`.
    #[must_use]
    pub fn split(content: &[u8], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let content_len = content.len();
        let mut blocks: Vec<Bytes> = content
            .chunks(block_size)
            .map(|chunk| {
                if chunk.len() == block_size {
                    Bytes::copy_from_slice(chunk)
                } else {
                    let mut padded = Vec::with_capacity(block_size);
                    padded.extend_from_slice(chunk);
                    padded.resize(block_size, 0);
                    Bytes::from(padded)
                }
            })
            .collect();
        if blocks.is_empty() {
            blocks.push(Bytes::from(vec![0u8; block_size]));
        }
        Self {
            blocks,
            block_size,
            content_len,
        }
    }

    /// Number of source blocks, `l` in the paper's notation.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Size of each block in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Length of the original content (before padding).
    #[must_use]
    pub fn content_len(&self) -> usize {
        self.content_len
    }

    /// The blocks themselves.
    #[must_use]
    pub fn blocks(&self) -> &[Bytes] {
        &self.blocks
    }

    /// Block `i`.
    #[must_use]
    pub fn block(&self, i: usize) -> &Bytes {
        &self.blocks[i]
    }

    /// Reconstructs the original byte string (padding stripped).
    #[must_use]
    pub fn reassemble(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.content_len);
        for b in &self.blocks {
            out.extend_from_slice(b);
        }
        out.truncate(self.content_len);
        out
    }
}

/// XORs `src` into `dst` in place. Panics on length mismatch: symbols in
/// one code always share a block size, so a mismatch is a protocol error.
///
/// Explicitly `u64`-chunked: the main loop XORs eight bytes per
/// operation through `chunks_exact`, with a scalar loop for the tail.
/// Hoping the autovectorizer rescues a byte-wise loop is exactly the
/// kind of luck a data plane must not depend on; [`xor_into_scalar`]
/// keeps the obviously-correct reference for property tests.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "XOR of unequal-length buffers");
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in dst_words.by_ref().zip(src_words.by_ref()) {
        let word = u64::from_le_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&word.to_le_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= s;
    }
}

/// Byte-at-a-time reference implementation of [`xor_into`]. Kept (and
/// exported) so property tests can assert the chunked kernel is
/// byte-identical across every length and tail shape.
pub fn xor_into_scalar(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "XOR of unequal-length buffers");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_reassemble_roundtrip() {
        for len in [0usize, 1, 99, 100, 101, 1399, 1400, 1401, 10_000] {
            let content: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sb = SourceBlocks::split(&content, 100);
            assert_eq!(sb.reassemble(), content, "roundtrip at len {len}");
        }
    }

    #[test]
    fn block_count_and_padding() {
        let content = vec![7u8; 250];
        let sb = SourceBlocks::split(&content, 100);
        assert_eq!(sb.num_blocks(), 3);
        assert_eq!(sb.block_size(), 100);
        assert_eq!(sb.content_len(), 250);
        // Tail block is padded with zeros.
        assert_eq!(&sb.block(2)[..50], &[7u8; 50][..]);
        assert_eq!(&sb.block(2)[50..], &[0u8; 50][..]);
    }

    #[test]
    fn empty_content_yields_one_zero_block() {
        let sb = SourceBlocks::split(&[], 64);
        assert_eq!(sb.num_blocks(), 1);
        assert_eq!(sb.reassemble(), Vec::<u8>::new());
    }

    #[test]
    fn paper_reference_geometry() {
        // §6.1: 32 MB at 1400-byte blocks → 23,968 source blocks.
        let len: usize = 32 * 1024 * 1024;
        let blocks = len.div_ceil(PAPER_BLOCK_SIZE);
        assert_eq!(blocks, 23_968);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = SourceBlocks::split(&[1, 2, 3], 0);
    }

    #[test]
    fn xor_into_is_involution() {
        let a: Vec<u8> = (0..=255).collect();
        let b: Vec<u8> = (0..=255).rev().collect();
        let mut acc = a.clone();
        xor_into(&mut acc, &b);
        assert_ne!(acc, a);
        xor_into(&mut acc, &b);
        assert_eq!(acc, a);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn xor_length_mismatch_panics() {
        let mut a = vec![0u8; 4];
        xor_into(&mut a, &[0u8; 5]);
    }

    #[test]
    fn chunked_xor_matches_scalar_at_every_tail() {
        for len in 0..=64usize {
            let a: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 37 + 3) as u8).collect();
            let mut fast = a.clone();
            let mut slow = a.clone();
            xor_into(&mut fast, &b);
            xor_into_scalar(&mut slow, &b);
            assert_eq!(fast, slow, "divergence at len {len}");
        }
    }
}
