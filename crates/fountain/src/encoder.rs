//! The memoryless fountain encoder.
//!
//! An encoded symbol is a *pure function* of its 64-bit [`SymbolId`]: the
//! id seeds a PRNG that draws the degree and the neighbor set from the
//! code's shared [`CodeSpec`]. This is what makes the code memoryless
//! (§5.4.1) and gives the digital fountain its §2.3 properties:
//!
//! * **Stateless encoding** — a sender needs no per-connection state,
//!   just a stream of fresh ids;
//! * **Time-invariance** — symbol `id` has the same content whenever and
//!   wherever it is generated;
//! * **Additivity** — senders drawing ids from independent PRNGs produce
//!   uncorrelated streams (64-bit ids make collisions negligible), so
//!   parallel downloads from full senders need no coordination.
//!
//! The decoder re-derives the neighbor set from the id alone, so the wire
//! carries only `(id, payload)` — 8 bytes of header per symbol.

use bytes::Bytes;
use icd_util::hash::hash64;
use icd_util::rng::{DistinctSampler, Rng64, SplitMix64, Xoshiro256StarStar};
use icd_util::symbol::SymbolBuf;

use crate::block::{SourceBlocks, SymbolId};
use crate::degree::DegreeDistribution;

/// Reusable buffers for allocation-free symbol generation
/// ([`Encoder::symbol_into`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct EncodeScratch {
    /// The generated payload (valid after `symbol_into` returns).
    pub payload: SymbolBuf,
    neighbors: Vec<usize>,
    sampler: DistinctSampler,
}

/// Everything two endpoints must agree on to speak one code: number of
/// blocks, block size, degree distribution, and a seed namespacing the
/// id → neighbor-set derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSpec {
    num_blocks: usize,
    block_size: usize,
    distribution: DegreeDistribution,
    code_seed: u64,
}

impl CodeSpec {
    /// Builds a spec for `num_blocks` blocks of `block_size` bytes with
    /// the workspace-default (robust soliton) distribution.
    #[must_use]
    pub fn new(num_blocks: usize, block_size: usize, code_seed: u64) -> Self {
        assert!(num_blocks >= 1, "code needs at least one block");
        assert!(block_size >= 1, "block size must be positive");
        Self {
            num_blocks,
            block_size,
            distribution: DegreeDistribution::paper_default(num_blocks),
            code_seed,
        }
    }

    /// Builds a spec with an explicit degree distribution.
    #[must_use]
    pub(crate) fn with_distribution(
        num_blocks: usize,
        block_size: usize,
        distribution: DegreeDistribution,
        code_seed: u64,
    ) -> Self {
        assert!(num_blocks >= 1, "code needs at least one block");
        assert!(block_size >= 1, "block size must be positive");
        assert!(
            distribution.max_degree() <= num_blocks,
            "degree support exceeds block count"
        );
        Self {
            num_blocks,
            block_size,
            distribution,
            code_seed,
        }
    }

    /// Number of source blocks `l`.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Block size in bytes.
    #[must_use]
    pub(crate) fn block_size(&self) -> usize {
        self.block_size
    }

    /// The degree distribution.
    #[must_use]
    pub(crate) fn distribution(&self) -> &DegreeDistribution {
        &self.distribution
    }

    /// Derives the neighbor set (source-block indices) of symbol `id`.
    /// Deterministic: encoder and decoder call this identically.
    #[must_use]
    pub fn neighbors(&self, id: SymbolId) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_into(id, &mut out);
        out
    }

    /// [`CodeSpec::neighbors`] into a caller-owned vector (cleared
    /// first). The hot path: encoder and decoder derive a neighbor set
    /// per symbol, and this form does it without allocating.
    pub(crate) fn neighbors_into(&self, id: SymbolId, out: &mut Vec<usize>) {
        let mut rng = Xoshiro256StarStar::new(hash64(id, self.code_seed));
        let degree = self.distribution.sample(&mut rng).min(self.num_blocks);
        rng.sample_distinct_into(self.num_blocks, degree, out);
        out.sort_unstable();
    }

    /// [`CodeSpec::neighbors_into`] through a reusable
    /// [`DistinctSampler`], making the per-symbol derivation `O(degree)`
    /// even when the distribution's spike fires. Identical output.
    pub(crate) fn neighbors_sampled(
        &self,
        id: SymbolId,
        sampler: &mut DistinctSampler,
        out: &mut Vec<usize>,
    ) {
        let mut rng = Xoshiro256StarStar::new(hash64(id, self.code_seed));
        let degree = self.distribution.sample(&mut rng).min(self.num_blocks);
        sampler.sample_into(&mut rng, self.num_blocks, degree, out);
        out.sort_unstable();
    }
}

/// An encoded symbol: id plus the XOR of its neighbor blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSymbol {
    /// The symbol's identity (determines its neighbor set).
    pub id: SymbolId,
    /// XOR of the neighbor source blocks.
    pub payload: Bytes,
}

/// A fountain encoder bound to content and a code spec.
#[derive(Debug, Clone)]
pub struct Encoder {
    spec: CodeSpec,
    source: SourceBlocks,
}

impl Encoder {
    /// Creates an encoder. The spec's geometry must match the content's.
    #[must_use]
    pub(crate) fn new(spec: CodeSpec, source: SourceBlocks) -> Self {
        assert_eq!(
            spec.num_blocks(),
            source.num_blocks(),
            "block count mismatch"
        );
        assert_eq!(
            spec.block_size(),
            source.block_size(),
            "block size mismatch"
        );
        Self { spec, source }
    }

    /// Convenience: split `content` and build the spec in one step.
    #[must_use]
    pub fn for_content(content: &[u8], block_size: usize, code_seed: u64) -> Self {
        let source = SourceBlocks::split(content, block_size);
        let spec = CodeSpec::new(source.num_blocks(), block_size, code_seed);
        Self::new(spec, source)
    }

    /// The code spec (share this with receivers).
    #[must_use]
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Produces the symbol with a specific id — time-invariant.
    #[must_use]
    pub fn symbol(&self, id: SymbolId) -> EncodedSymbol {
        self.symbol_with(id, &mut EncodeScratch::default())
    }

    /// [`Encoder::symbol`] through caller-owned scratch.
    fn symbol_with(&self, id: SymbolId, scratch: &mut EncodeScratch) -> EncodedSymbol {
        self.symbol_into(id, scratch);
        let payload = &scratch.payload;
        EncodedSymbol {
            id,
            payload: Bytes::from_fill(payload.len(), |out| payload.write_to(out)),
        }
    }

    /// Generates symbol `id` into reusable scratch — the allocation-free
    /// form of [`Encoder::symbol`]. After the call `scratch.payload`
    /// holds the XOR of the neighbor blocks.
    pub(crate) fn symbol_into(&self, id: SymbolId, scratch: &mut EncodeScratch) {
        self.spec
            .neighbors_sampled(id, &mut scratch.sampler, &mut scratch.neighbors);
        let block_size = self.spec.block_size();
        if scratch.payload.len() == block_size {
            scratch.payload.clear();
        } else {
            scratch.payload = SymbolBuf::zeroed(block_size);
        }
        let block = |b: usize| self.source.block(b);
        let mut quads = scratch.neighbors.chunks_exact(4);
        for q in quads.by_ref() {
            scratch
                .payload
                .xor_bytes4([block(q[0]), block(q[1]), block(q[2]), block(q[3])]);
        }
        for &b in quads.remainder() {
            scratch.payload.xor_bytes(block(b));
        }
    }

    /// An unbounded stream of symbols with pseudorandom ids drawn from
    /// `stream_seed` — one "fountain flow". Distinct seeds give
    /// uncorrelated flows (additivity).
    pub fn stream(&self, stream_seed: u64) -> impl Iterator<Item = EncodedSymbol> + '_ {
        let mut rng = SplitMix64::new(stream_seed);
        let mut scratch = EncodeScratch::default();
        std::iter::from_fn(move || Some(self.symbol_with(rng.next_u64(), &mut scratch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_into(dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    fn content(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 255) as u8).collect()
    }

    #[test]
    fn symbol_is_deterministic() {
        let enc = Encoder::for_content(&content(10_000), 100, 7);
        let a = enc.symbol(42);
        let b = enc.symbol(42);
        assert_eq!(a, b);
    }

    #[test]
    fn neighbors_deterministic_and_sorted_distinct() {
        let spec = CodeSpec::new(500, 10, 3);
        for id in 0..200u64 {
            let n1 = spec.neighbors(id);
            let n2 = spec.neighbors(id);
            assert_eq!(n1, n2);
            assert!(n1.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
            assert!(!n1.is_empty());
            assert!(n1.iter().all(|&b| b < 500));
        }
    }

    #[test]
    fn different_code_seeds_differ() {
        let s1 = CodeSpec::new(500, 10, 1);
        let s2 = CodeSpec::new(500, 10, 2);
        let same = (0..100u64)
            .filter(|&id| s1.neighbors(id) == s2.neighbors(id))
            .count();
        assert!(same < 30, "{same} of 100 ids identical across seeds");
    }

    #[test]
    fn payload_is_xor_of_neighbors() {
        let data = content(1000);
        let enc = Encoder::for_content(&data, 50, 11);
        let sym = enc.symbol(99);
        let neighbors = enc.spec().neighbors(99);
        let source = SourceBlocks::split(&data, 50);
        let mut expect = vec![0u8; 50];
        for &b in &neighbors {
            xor_into(&mut expect, source.block(b));
        }
        assert_eq!(&sym.payload[..], &expect[..]);
    }

    #[test]
    fn degree_one_symbol_is_a_source_block() {
        let data = content(1000);
        let enc = Encoder::for_content(&data, 50, 11);
        let source = SourceBlocks::split(&data, 50);
        // Find a degree-1 symbol among the first ids.
        let mut found = false;
        for id in 0..5000u64 {
            let n = enc.spec().neighbors(id);
            if n.len() == 1 {
                assert_eq!(&enc.symbol(id).payload[..], source.block(n[0]));
                found = true;
                break;
            }
        }
        assert!(found, "no degree-1 symbol in 5000 ids");
    }

    #[test]
    fn streams_with_different_seeds_are_uncorrelated() {
        let enc = Encoder::for_content(&content(5000), 100, 5);
        let a: Vec<SymbolId> = enc.stream(1).take(1000).map(|s| s.id).collect();
        let b: Vec<SymbolId> = enc.stream(2).take(1000).map(|s| s.id).collect();
        let set_a: std::collections::HashSet<_> = a.into_iter().collect();
        let overlap = b.iter().filter(|id| set_a.contains(id)).count();
        assert_eq!(overlap, 0, "64-bit id streams should not collide");
    }

    #[test]
    fn empirical_average_degree_matches_distribution() {
        let spec = CodeSpec::new(2000, 10, 9);
        let samples = 20_000u64;
        let total: usize = (0..samples).map(|id| spec.neighbors(id).len()).sum();
        let emp = total as f64 / samples as f64;
        let expect = spec.distribution().mean();
        assert!(
            (emp - expect).abs() < 0.3,
            "empirical {emp} vs analytic {expect}"
        );
    }

    #[test]
    fn symbol_into_matches_symbol_across_reuse() {
        let enc = Encoder::for_content(&content(3000), 100, 5);
        let mut scratch = EncodeScratch::default();
        for id in [0u64, 1, 42, 999_999, u64::MAX] {
            enc.symbol_into(id, &mut scratch);
            assert_eq!(
                scratch.payload.to_vec(),
                enc.symbol(id).payload.to_vec(),
                "scratch path diverged at id {id}"
            );
        }
    }

    #[test]
    fn stream_equals_symbol_for_the_same_ids() {
        // The flow reuses one scratch; every symbol it emits must still
        // be the pure function of its id (block sizes with and without a
        // partial tail word, degrees above and below the 4-stream batch).
        for block_size in [100, 64] {
            let enc = Encoder::for_content(&content(20_000), block_size, 5);
            let mut ids = SplitMix64::new(77);
            for sym in enc.stream(77).take(300) {
                assert_eq!(sym.id, ids.next_u64());
                assert_eq!(sym, enc.symbol(sym.id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn geometry_mismatch_rejected() {
        let spec = CodeSpec::new(10, 100, 1);
        let source = SourceBlocks::split(&content(500), 100); // 5 blocks
        let _ = Encoder::new(spec, source);
    }

    #[test]
    #[should_panic(expected = "degree support exceeds block count")]
    fn oversized_distribution_rejected() {
        let dist = DegreeDistribution::ideal_soliton(100);
        let _ = CodeSpec::with_distribution(50, 10, dist, 1);
    }
}
