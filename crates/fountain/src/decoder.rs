//! The peeling decoder ("substitution rule" of §5.4.1).
//!
//! A symbol with exactly one unrecovered neighbor block recovers it: the
//! block is the symbol's payload with every other neighbor XORed out.
//! That may leave other buffered symbols with a single unknown — the
//! ripple. Decoding succeeds when all `l` blocks are recovered, which
//! for a well-shaped degree distribution happens after receiving
//! `(1+ε)·l` distinct symbols for small ε ("3-5%" in the paper's
//! implementations; §6.1 measured 6.8 % for theirs — ours lands in the
//! same band, see the `coding_table` experiment).
//!
//! The decoder tracks exactly the bookkeeping the evaluation needs:
//! symbols received, duplicates (same id twice — what an *uninformed*
//! peer transfer wastes), and symbols that arrived already-covered
//! (every neighbor known — what recoding tries to avoid).
//!
//! Release is lazy. A buffered symbol keeps the payload it arrived with
//! (a refcount clone), its neighbor list, a count of still-unknown
//! neighbors and the XOR of their indices; recovering a block updates
//! only those two integers in the symbols watching it. Payload bytes are
//! touched once per recovered block, when a symbol is down to one
//! unknown: its recovered neighbors are XORed in with the multi-stream
//! kernels of [`SymbolBuf`]. Symbols that turn out redundant never touch
//! a payload. Recovered blocks live in word-aligned buffers drawn from a
//! [`SymbolPool`] — exactly `l` per decode, none when the pool comes
//! warm from a previous transfer ([`Decoder::pool_stats`] lets tests
//! assert it).

use bytes::Bytes;
use icd_util::hash::FastHashSet;
use icd_util::rng::DistinctSampler;
use icd_util::symbol::{PoolStats, SymbolBuf, SymbolPool};

use crate::block::SymbolId;
use crate::encoder::{CodeSpec, EncodedSymbol};

/// Outcome of feeding one symbol to the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStatus {
    /// The symbol id was seen before; nothing learned.
    Duplicate,
    /// All neighbors were already recovered; nothing learned.
    Redundant,
    /// Buffered: more than one unknown neighbor remains.
    Buffered,
    /// Recovered `newly_recovered` source blocks (≥ 1, counting ripple).
    Progress {
        /// Blocks recovered by this symbol, including cascades.
        newly_recovered: usize,
    },
    /// Decoding is complete (this symbol finished it).
    Complete,
}

#[derive(Debug, Clone)]
struct PendingSymbol {
    /// The payload as received — shared with the caller, never copied.
    payload: Bytes,
    /// Every neighbor, recovered or not, sorted.
    neighbors: Vec<u32>,
    /// How many neighbors are still unknown …
    remaining: u32,
    /// … and the XOR of their indices: with one left, it *is* that block.
    unknown_xor: u32,
}

/// Counters for the evaluation metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Total symbols fed in.
    pub received: u64,
    /// Symbols rejected as duplicates (same id).
    pub duplicates: u64,
    /// Distinct symbols that carried no new information.
    pub redundant: u64,
}

/// A peeling decoder for one [`CodeSpec`].
#[derive(Debug, Clone)]
pub struct Decoder {
    spec: CodeSpec,
    recovered: Vec<Option<SymbolBuf>>,
    recovered_count: usize,
    /// Slots are never reused; a symbol leaves its slot when the ripple
    /// pops it.
    pending: Vec<Option<PendingSymbol>>,
    /// Symbols in `pending` with more than one unknown neighbor.
    buffered: usize,
    /// block index → slots of the pending symbols that still lack it.
    watchers: Vec<Vec<u32>>,
    seen: FastHashSet<SymbolId>,
    stats: DecodeStats,
    /// Recycler for recovered-block buffers; also the source of truth
    /// for the zero-allocation claim ([`Decoder::pool_stats`]).
    pool: SymbolPool,
    /// Retired `neighbors` vectors, reused for later buffered symbols.
    index_pool: Vec<Vec<u32>>,
    /// Slots that reached one unknown neighbor (empty between calls).
    ripple: Vec<u32>,
    /// Reusable O(degree) neighbor sampler.
    sampler: DistinctSampler,
    /// Reusable neighbor-derivation scratch.
    neighbor_scratch: Vec<usize>,
}

impl Decoder {
    /// Creates a decoder for `spec` with a fresh buffer pool.
    #[must_use]
    pub fn new(spec: CodeSpec) -> Self {
        Self::with_pool(spec, SymbolPool::new())
    }

    /// Creates a decoder that draws block buffers from `pool` — pass
    /// the pool recovered from a previous transfer
    /// ([`Decoder::into_pool`]) and the new decode allocates nothing.
    #[must_use]
    pub fn with_pool(spec: CodeSpec, pool: SymbolPool) -> Self {
        let n = spec.num_blocks();
        Self {
            spec,
            recovered: vec![None; n],
            recovered_count: 0,
            pending: Vec::new(),
            buffered: 0,
            watchers: vec![Vec::new(); n],
            seen: FastHashSet::default(),
            stats: DecodeStats::default(),
            pool,
            index_pool: Vec::new(),
            ripple: Vec::new(),
            sampler: DistinctSampler::new(),
            neighbor_scratch: Vec::new(),
        }
    }

    /// The spec this decoder speaks.
    #[must_use]
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Allocation counters of the block-buffer pool.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Tears the decoder down into its pool, releasing every recovered
    /// block's buffer for the next transfer.
    #[must_use]
    pub fn into_pool(self) -> SymbolPool {
        let mut pool = self.pool;
        for buf in self.recovered.into_iter().flatten() {
            pool.release(buf);
        }
        pool
    }

    /// Feeds one symbol. Panics if the payload length does not match the
    /// code's block size (mixing codes is a protocol error).
    pub fn receive(&mut self, symbol: &EncodedSymbol) -> DecodeStatus {
        assert_eq!(
            symbol.payload.len(),
            self.spec.block_size(),
            "symbol payload does not match code block size"
        );
        self.stats.received += 1;
        if self.is_complete() {
            // Nothing after completion can teach us anything, but the
            // accounting still distinguishes a repeat (Duplicate) from a
            // fresh-but-useless id (Redundant).
            if self.seen.insert(symbol.id) {
                self.stats.redundant += 1;
                return DecodeStatus::Redundant;
            }
            self.stats.duplicates += 1;
            return DecodeStatus::Duplicate;
        }
        if !self.seen.insert(symbol.id) {
            self.stats.duplicates += 1;
            return DecodeStatus::Duplicate;
        }

        let mut neighbors = std::mem::take(&mut self.neighbor_scratch);
        self.spec
            .neighbors_sampled(symbol.id, &mut self.sampler, &mut neighbors);
        let unknown = |b: &&usize| self.recovered[**b].is_none();
        let (remaining, unknown_xor) = neighbors
            .iter()
            .filter(unknown)
            .fold((0u32, 0usize), |(n, x), &b| (n + 1, x ^ b));
        let status = match remaining {
            0 => {
                self.stats.redundant += 1;
                DecodeStatus::Redundant
            }
            1 => {
                let block = self.release(&symbol.payload, neighbors.iter().copied(), unknown_xor);
                let newly = self.recover_and_ripple(unknown_xor, block);
                if self.is_complete() {
                    DecodeStatus::Complete
                } else {
                    DecodeStatus::Progress {
                        newly_recovered: newly,
                    }
                }
            }
            _ => {
                let slot = u32::try_from(self.pending.len()).expect("pending overflow");
                for &b in neighbors.iter().filter(unknown) {
                    self.watchers[b].push(slot);
                }
                let mut list = self.index_pool.pop().unwrap_or_default();
                list.clear();
                list.extend(neighbors.iter().map(|&b| b as u32));
                self.pending.push(Some(PendingSymbol {
                    payload: symbol.payload.clone(),
                    neighbors: list,
                    remaining,
                    unknown_xor: unknown_xor as u32,
                }));
                self.buffered += 1;
                DecodeStatus::Buffered
            }
        };
        self.neighbor_scratch = neighbors;
        status
    }

    /// The block a symbol with one `unknown` neighbor recovers: its
    /// payload with every other (recovered) neighbor XORed out. The only
    /// place payload bytes are read.
    fn release(
        &mut self,
        payload: &[u8],
        neighbors: impl Iterator<Item = usize>,
        unknown: usize,
    ) -> SymbolBuf {
        let mut block = self.pool.acquire_for_overwrite(self.spec.block_size());
        block.copy_from_bytes(payload);
        let recovered = &self.recovered;
        block.xor_word_slices(neighbors.filter(|&b| b != unknown).map(|b| {
            let known = recovered[b].as_ref().expect("one unknown neighbor");
            known.words()
        }));
        block
    }

    /// Pops ripple entries until one still has its unknown neighbor, and
    /// releases that block. An entry whose last unknown was recovered by
    /// an earlier entry retires without its payload being read.
    fn pop_released(&mut self) -> Option<(usize, SymbolBuf)> {
        while let Some(slot) = self.ripple.pop() {
            let p = self.pending[slot as usize]
                .take()
                .expect("ripple entries are pending");
            let released = (p.remaining == 1).then(|| {
                let unknown = p.unknown_xor as usize;
                let neighbors = p.neighbors.iter().map(|&b| b as usize);
                (unknown, self.release(&p.payload, neighbors, unknown))
            });
            self.index_pool.push(p.neighbors);
            if released.is_some() {
                return released;
            }
        }
        None
    }

    /// Recovers `block` with `data` and processes the ripple. Returns
    /// the number of blocks recovered (≥ 1).
    fn recover_and_ripple(&mut self, block: usize, data: SymbolBuf) -> usize {
        let mut newly = 0usize;
        let mut next = Some((block, data));
        while let Some((b, data)) = next.take().or_else(|| self.pop_released()) {
            self.recovered[b] = Some(data);
            self.recovered_count += 1;
            newly += 1;
            for slot in std::mem::take(&mut self.watchers[b]) {
                let Some(p) = self.pending[slot as usize].as_mut() else {
                    continue; // the symbol that just released `b`
                };
                p.remaining -= 1;
                p.unknown_xor ^= b as u32;
                if p.remaining == 1 {
                    self.buffered -= 1;
                    self.ripple.push(slot);
                }
            }
        }
        newly
    }

    /// True when every source block is recovered.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.recovered_count == self.spec.num_blocks()
    }

    /// Number of source blocks recovered so far.
    #[must_use]
    pub fn recovered_blocks(&self) -> usize {
        self.recovered_count
    }

    /// Symbols buffered awaiting more information.
    #[must_use]
    pub fn buffered_symbols(&self) -> usize {
        self.buffered
    }

    /// Decode statistics.
    #[must_use]
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Reception overhead so far: received / l. The decoding overhead of
    /// §5.4.1 is this value at the moment of completion, minus 1.
    #[must_use]
    pub fn reception_overhead(&self) -> f64 {
        self.stats.received as f64 / self.spec.num_blocks() as f64
    }

    /// Extracts the content once complete. `content_len` strips padding.
    ///
    /// Returns `None` while incomplete. Panics if the blocks are too
    /// short to cover `content_len`.
    #[must_use]
    pub fn into_content(self, content_len: usize) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let block_size = self.spec.block_size();
        assert!(
            self.recovered.len() * block_size >= content_len,
            "blocks cover {} bytes, need {content_len}",
            self.recovered.len() * block_size
        );
        let mut out = vec![0u8; content_len];
        for (chunk, block) in out.chunks_mut(block_size).zip(&self.recovered) {
            let block = block.as_ref().expect("complete decoder has all blocks");
            if chunk.len() == block_size {
                block.write_to(chunk);
            } else {
                chunk.copy_from_slice(&block.to_vec()[..chunk.len()]); // padded tail
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use icd_util::rng::{Rng64, SplitMix64};

    fn content(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
    }

    fn roundtrip(len: usize, block_size: usize, seed: u64) -> (f64, Vec<u8>, Vec<u8>) {
        let data = content(len, seed);
        let enc = Encoder::for_content(&data, block_size, seed ^ 1);
        let mut dec = Decoder::new(enc.spec().clone());
        for sym in enc.stream(seed ^ 2) {
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
            assert!(
                dec.stats().received < 50 * enc.spec().num_blocks() as u64 + 1000,
                "decoder failed to converge"
            );
        }
        let overhead = dec.reception_overhead();
        let out = dec.into_content(len).expect("complete");
        (overhead, data, out)
    }

    #[test]
    fn decodes_exactly_small() {
        let (overhead, data, out) = roundtrip(10_000, 100, 1);
        assert_eq!(out, data);
        assert!(overhead >= 1.0);
    }

    #[test]
    fn decodes_exactly_various_geometries() {
        for (len, bs, seed) in [(1usize, 16usize, 2u64), (15, 16, 3), (16, 16, 4), (1000, 7, 5), (5000, 64, 6)] {
            let (_, data, out) = roundtrip(len, bs, seed);
            assert_eq!(out, data, "len {len} bs {bs}");
        }
    }

    #[test]
    fn overhead_is_modest_at_scale() {
        // §5.4.1: sparse parity-check codes need 3-5 % extra (the paper's
        // own heuristic measured 6.8 %). Robust soliton at l = 2000 stays
        // in the same band.
        let (overhead, data, out) = roundtrip(20_000, 10, 7);
        assert_eq!(out, data);
        assert!(
            overhead < 1.25,
            "decoding overhead {overhead} unexpectedly high"
        );
    }

    #[test]
    fn duplicates_detected() {
        let data = content(1000, 8);
        let enc = Encoder::for_content(&data, 50, 9);
        let mut dec = Decoder::new(enc.spec().clone());
        let sym = enc.symbol(1234);
        let first = dec.receive(&sym);
        assert_ne!(first, DecodeStatus::Duplicate);
        assert_eq!(dec.receive(&sym), DecodeStatus::Duplicate);
        assert_eq!(dec.stats().duplicates, 1);
    }

    #[test]
    fn incomplete_decoder_returns_none() {
        let data = content(1000, 10);
        let enc = Encoder::for_content(&data, 50, 11);
        let mut dec = Decoder::new(enc.spec().clone());
        let sym = enc.symbol(1);
        let _ = dec.receive(&sym);
        assert!(!dec.is_complete());
        assert!(dec.into_content(1000).is_none());
    }

    #[test]
    fn post_completion_symbols_are_redundant() {
        let data = content(500, 12);
        let enc = Encoder::for_content(&data, 50, 13);
        let mut dec = Decoder::new(enc.spec().clone());
        for sym in enc.stream(99) {
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
        }
        let extra = enc.symbol(u64::MAX);
        assert_eq!(dec.receive(&extra), DecodeStatus::Redundant);
        // A *repeat* after completion is a duplicate, not redundancy:
        // the sender resent an id, it did not waste a fresh symbol.
        assert_eq!(dec.receive(&extra), DecodeStatus::Duplicate);
        let st = dec.stats();
        assert_eq!(st.duplicates, 1);
    }

    #[test]
    fn second_decode_through_recycled_pool_allocates_nothing() {
        // The steady-state claim at the fig5 bench geometry (l = 2000):
        // decode once, recycle the pool, decode a different stream —
        // zero new payload-buffer allocations.
        let data = content(40_000, 21);
        let enc = Encoder::for_content(&data, 20, 22);
        assert_eq!(enc.spec().num_blocks(), 2000);
        let mut dec = Decoder::new(enc.spec().clone());
        for sym in enc.stream(1) {
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
        }
        let pool = dec.into_pool();
        let warm = pool.stats().allocated;
        let mut dec = Decoder::with_pool(enc.spec().clone(), pool);
        for sym in enc.stream(2) {
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
        }
        assert!(dec.is_complete());
        let stats = dec.pool_stats();
        assert_eq!(
            stats.allocated, warm,
            "second decode must run entirely from the warmed pool"
        );
        assert!(stats.reused > 0);
        assert_eq!(dec.into_content(40_000).expect("complete"), data);
    }

    #[test]
    fn progress_counts_ripple() {
        // Feed symbols and confirm the sum of newly_recovered equals l.
        let data = content(2000, 14);
        let enc = Encoder::for_content(&data, 40, 15);
        let mut dec = Decoder::new(enc.spec().clone());
        let mut total = 0usize;
        for sym in enc.stream(5) {
            match dec.receive(&sym) {
                DecodeStatus::Progress { newly_recovered } => total += newly_recovered,
                DecodeStatus::Complete => {
                    total += dec.spec().num_blocks() - (total);
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(total, dec.spec().num_blocks());
        assert!(dec.is_complete());
    }

    #[test]
    #[should_panic(expected = "does not match code block size")]
    fn wrong_block_size_panics() {
        let spec = CodeSpec::new(10, 50, 1);
        let mut dec = Decoder::new(spec);
        let bad = EncodedSymbol {
            id: 1,
            payload: Bytes::from(vec![0u8; 49]),
        };
        let _ = dec.receive(&bad);
    }

    #[test]
    fn single_block_code() {
        let data = content(30, 16);
        let enc = Encoder::for_content(&data, 64, 17); // one padded block
        let mut dec = Decoder::new(enc.spec().clone());
        let status = dec.receive(&enc.symbol(0));
        assert_eq!(status, DecodeStatus::Complete);
        assert_eq!(dec.into_content(30).expect("complete"), data);
    }

    #[test]
    #[should_panic(expected = "blocks cover 64 bytes, need 65")]
    fn content_len_beyond_the_blocks_is_rejected() {
        let data = content(30, 16);
        let enc = Encoder::for_content(&data, 64, 17);
        let mut dec = Decoder::new(enc.spec().clone());
        assert_eq!(dec.receive(&enc.symbol(0)), DecodeStatus::Complete);
        let _ = dec.into_content(65);
    }

    #[test]
    fn stats_account_everything() {
        let data = content(3000, 18);
        let enc = Encoder::for_content(&data, 60, 19);
        let mut dec = Decoder::new(enc.spec().clone());
        let mut sent = 0u64;
        for sym in enc.stream(1) {
            sent += 1;
            if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                break;
            }
        }
        // Send a few more (redundant + duplicate).
        let s = enc.symbol(424242);
        let _ = dec.receive(&s);
        let _ = dec.receive(&s);
        sent += 2;
        let st = dec.stats();
        assert_eq!(st.received, sent);
        assert_eq!(st.duplicates, 1);
        assert!(st.redundant >= 1);
    }
}
