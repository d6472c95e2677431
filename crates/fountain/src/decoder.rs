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
//! (a refcount clone), its neighbor list (in one append-only arena), a
//! count of still-unknown neighbors and the XOR of their indices;
//! recovering a block updates only those two integers in the symbols
//! watching it. Payload bytes are touched once per recovered block, when
//! a symbol is down to one unknown: its payload is copied into the
//! block's slice of the object and its recovered neighbors are XORed in
//! from the same buffer in one multi-stream [`xor_bytes_into`] pass.
//! Symbols that turn out redundant never touch a payload.
//!
//! The object is one `l × block_size` buffer, written in place, so
//! [`Decoder::into_content`] hands it back without a copy and the decoder
//! allocates no per-symbol buffer. When several buffered symbols are
//! ready for the same block, the one with the fewest neighbors releases
//! it: the ripple is ordered by (neighbor count, slot), not LIFO. The
//! robust soliton's heavy tail makes this matter — at l = 23 968, 2.2 %
//! of symbols have degree > 100 and carry 67 % of all edges. Within one
//! [`Decoder::receive`] call the recovered set is the closure either way,
//! so the order changes only which symbol pays for each block, never
//! what any call reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use icd_util::hash::FastHashSet;
use icd_util::rng::DistinctSampler;
use icd_util::symbol::xor_bytes_into;

use crate::block::SymbolId;
use crate::encoder::{CodeSpec, EncodedSymbol};

/// Per-symbol buffer counters, as [`Decoder::pool_stats`] reports
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-symbol buffers newly heap-allocated.
    pub allocated: u64,
    /// Per-symbol buffers served again without allocating.
    pub reused: u64,
    /// Per-symbol buffers handed back for reuse.
    pub released: u64,
}

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
    /// The payload as received — shared with the caller, never copied;
    /// emptied when the symbol leaves the ripple.
    payload: Bytes,
    /// Every neighbor, recovered or not, sorted: `edges[start..][..degree]`.
    start: usize,
    degree: u32,
    /// How many neighbors are still unknown (0 once the symbol has left
    /// the ripple) …
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
    /// The object: block `b` is `object[b·block_size..][..block_size]`,
    /// valid once `known[b]`.
    object: Vec<u8>,
    known: Vec<bool>,
    recovered_count: usize,
    /// Slots are never reused; a symbol keeps its slot after it leaves
    /// the ripple.
    pending: Vec<PendingSymbol>,
    /// The pending symbols' neighbor lists, back to back (append-only).
    edges: Vec<u32>,
    /// Symbols in `pending` with more than one unknown neighbor.
    buffered: usize,
    /// block index → slots of the pending symbols that still lack it.
    watchers: Vec<Vec<u32>>,
    seen: FastHashSet<SymbolId>,
    stats: DecodeStats,
    /// Slots that reached one unknown neighbor, cheapest (fewest
    /// neighbors) first; empty between calls.
    ripple: BinaryHeap<Reverse<(u32, u32)>>,
    /// Reusable O(degree) neighbor sampler.
    sampler: DistinctSampler,
    /// Reusable neighbor-derivation scratch.
    neighbor_scratch: Vec<usize>,
}

impl Decoder {
    /// Creates a decoder for `spec`.
    #[must_use]
    pub fn new(spec: CodeSpec) -> Self {
        let n = spec.num_blocks();
        Self {
            object: vec![0; n * spec.block_size()],
            spec,
            known: vec![false; n],
            recovered_count: 0,
            pending: Vec::new(),
            edges: Vec::new(),
            buffered: 0,
            watchers: vec![Vec::new(); n],
            seen: FastHashSet::default(),
            stats: DecodeStats::default(),
            ripple: BinaryHeap::new(),
            sampler: DistinctSampler::new(),
            neighbor_scratch: Vec::new(),
        }
    }

    /// Per-symbol buffer counters. The decoder writes every block into
    /// its one object buffer and allocates no per-symbol buffer, so
    /// these stay zero.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
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
        let unknown = |b: &&usize| !self.known[**b];
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
                let block_size = self.spec.block_size();
                let known = neighbors.iter().copied();
                let payload = &symbol.payload;
                write_block(&mut self.object, block_size, payload, known, unknown_xor);
                let newly = self.recover_and_ripple(unknown_xor);
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
                self.pending.push(PendingSymbol {
                    payload: symbol.payload.clone(),
                    start: self.edges.len(),
                    degree: neighbors.len() as u32,
                    remaining,
                    unknown_xor: unknown_xor as u32,
                });
                self.edges.extend(neighbors.iter().map(|&b| b as u32));
                self.buffered += 1;
                DecodeStatus::Buffered
            }
        };
        self.neighbor_scratch = neighbors;
        status
    }

    /// Pops ripple entries, cheapest first, until one still has its
    /// unknown neighbor, and releases that block. An entry whose last
    /// unknown was recovered by an earlier entry retires without its
    /// payload being read.
    fn pop_released(&mut self) -> Option<usize> {
        while let Some(Reverse((_, slot))) = self.ripple.pop() {
            let p = &mut self.pending[slot as usize];
            let payload = std::mem::take(&mut p.payload);
            if std::mem::replace(&mut p.remaining, 0) == 1 {
                let unknown = p.unknown_xor as usize;
                let edges = &self.edges[p.start..][..p.degree as usize];
                let neighbors = edges.iter().map(|&b| b as usize);
                let block_size = self.spec.block_size();
                write_block(&mut self.object, block_size, &payload, neighbors, unknown);
                return Some(unknown);
            }
        }
        None
    }

    /// Marks `block` recovered and processes the ripple. Returns the
    /// number of blocks recovered (≥ 1).
    fn recover_and_ripple(&mut self, block: usize) -> usize {
        let mut newly = 0usize;
        let mut next = Some(block);
        while let Some(b) = next.take().or_else(|| self.pop_released()) {
            self.known[b] = true;
            self.recovered_count += 1;
            newly += 1;
            for slot in std::mem::take(&mut self.watchers[b]) {
                let p = &mut self.pending[slot as usize];
                if p.remaining == 0 {
                    continue; // the symbol that just released `b`
                }
                p.remaining -= 1;
                p.unknown_xor ^= b as u32;
                if p.remaining == 1 {
                    self.buffered -= 1;
                    self.ripple.push(Reverse((p.degree, slot)));
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
    pub(crate) fn reception_overhead(&self) -> f64 {
        self.stats.received as f64 / self.spec.num_blocks() as f64
    }

    /// Extracts the content once complete: the decoder's own buffer,
    /// truncated to `content_len` to strip padding — no copy.
    ///
    /// Returns `None` while incomplete. Panics if the blocks are too
    /// short to cover `content_len`.
    #[must_use]
    pub fn into_content(self, content_len: usize) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut object = self.object;
        assert!(
            object.len() >= content_len,
            "blocks cover {} bytes, need {content_len}",
            object.len()
        );
        object.truncate(content_len);
        Some(object)
    }
}

/// Writes block `unknown` of `object` in place: `payload` with every
/// other neighbor's (recovered) block XORed out of the same buffer.
fn write_block(
    object: &mut [u8],
    block_size: usize,
    payload: &[u8],
    neighbors: impl Iterator<Item = usize>,
    unknown: usize,
) {
    let (before, rest) = object.split_at_mut(unknown * block_size);
    let (block, after) = rest.split_at_mut(block_size);
    block.copy_from_slice(payload);
    xor_bytes_into(
        block,
        neighbors
            .filter(|&b| b != unknown)
            .map(|b| match b.checked_sub(unknown + 1) {
                None => &before[b * block_size..][..block_size],
                Some(k) => &after[k * block_size..][..block_size],
            }),
    );
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
        for (len, bs, seed) in [
            (1usize, 16usize, 2u64),
            (15, 16, 3),
            (16, 16, 4),
            (1000, 7, 5),
            (5000, 64, 6),
        ] {
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
    fn into_content_hands_back_the_decoders_own_buffer() {
        // Whole blocks, and a padded tail block whose size is not a
        // multiple of the 8-byte XOR word: no copy either way.
        for (len, block_size, seed) in [(40_000usize, 20usize, 21u64), (9_995, 13, 22)] {
            let data = content(len, seed);
            let enc = Encoder::for_content(&data, block_size, seed ^ 1);
            let mut dec = Decoder::new(enc.spec().clone());
            for sym in enc.stream(seed ^ 2) {
                if matches!(dec.receive(&sym), DecodeStatus::Complete) {
                    break;
                }
            }
            let object = dec.object.as_ptr();
            let out = dec.into_content(len).expect("complete");
            assert_eq!(out.as_ptr(), object, "len {len} bs {block_size}: copied");
            assert_eq!(out, data, "len {len} bs {block_size}");
        }
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
                    total += dec.spec.num_blocks() - (total);
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(total, dec.spec.num_blocks());
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
