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

/// Content partitioned into equal-size source blocks, held as one
/// contiguous zero-padded buffer: encoding reads many blocks per
/// symbol, and a block is then a plain offset into one allocation rather
/// than a buffer of its own behind a reference-counted header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SourceBlocks {
    data: Bytes,
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
        let blocks = content.len().div_ceil(block_size).max(1);
        let data = Bytes::from_fill(blocks * block_size, |data| {
            data[..content.len()].copy_from_slice(content);
        });
        Self { data, block_size }
    }

    /// Number of source blocks, `l` in the paper's notation.
    #[must_use]
    pub(crate) fn num_blocks(&self) -> usize {
        self.data.len() / self.block_size
    }

    /// Size of each block in bytes.
    #[must_use]
    pub(crate) fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block `i`.
    #[must_use]
    pub(crate) fn block(&self, i: usize) -> &[u8] {
        &self.data[i * self.block_size..(i + 1) * self.block_size]
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
            let mut joined: Vec<u8> = (0..sb.num_blocks())
                .flat_map(|i| sb.block(i).iter().copied())
                .collect();
            assert!(
                joined[len..].iter().all(|&b| b == 0),
                "zero padding at len {len}"
            );
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
        assert_eq!(sb.block(0), &[0u8; 64][..]);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = SourceBlocks::split(&[1, 2, 3], 0);
    }
}
