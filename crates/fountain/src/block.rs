//! Source-block handling: partitioning content into blocks.
//!
//! §6.1's reference workload: "A 32MB test file was divided into 23,968
//! source blocks of 1400 bytes" — 1400 bytes being a payload that fits a
//! standard Ethernet MTU after headers. [`SourceBlocks`] performs that
//! split, zero-padding the tail block.

use bytes::Bytes;

/// Identifier of an encoded symbol: the 64-bit value from which the
/// symbol's neighbor set is derived, and the key that working sets,
/// sketches, and filters operate on.
pub type SymbolId = u64;

/// Content partitioned into equal-size source blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SourceBlocks {
    blocks: Vec<Bytes>,
    block_size: usize,
}

impl SourceBlocks {
    /// Splits `content` into blocks of `block_size` bytes, zero-padding
    /// the final block. Empty content yields a single zero block so that
    /// downstream invariants (`num_blocks ≥ 1`) hold unconditionally.
    ///
    /// Panics if `block_size == 0`.
    #[must_use]
    pub(crate) fn split(content: &[u8], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
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
        Self { blocks, block_size }
    }

    /// Number of source blocks, `l` in the paper's notation.
    #[must_use]
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Size of each block in bytes.
    #[must_use]
    pub(crate) fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block `i`.
    #[must_use]
    pub(crate) fn block(&self, i: usize) -> &Bytes {
        &self.blocks[i]
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
            let mut joined: Vec<u8> = sb.blocks.iter().flat_map(|b| b.iter().copied()).collect();
            assert!(joined[len..].iter().all(|&b| b == 0), "zero padding at len {len}");
            joined.truncate(len);
            assert_eq!(joined, content, "roundtrip at len {len}");
        }
    }

    #[test]
    fn block_count_and_padding() {
        let content = vec![7u8; 250];
        let sb = SourceBlocks::split(&content, 100);
        assert_eq!(sb.num_blocks(), 3);
        assert_eq!(sb.block_size(), 100);
        // Tail block is padded with zeros.
        assert_eq!(&sb.block(2)[..50], &[7u8; 50][..]);
        assert_eq!(&sb.block(2)[50..], &[0u8; 50][..]);
    }

    #[test]
    fn empty_content_yields_one_zero_block() {
        let sb = SourceBlocks::split(&[], 64);
        assert_eq!(sb.num_blocks(), 1);
        assert_eq!(&sb.block(0)[..], &[0u8; 64][..]);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = SourceBlocks::split(&[1, 2, 3], 0);
    }
}
