//! Word-aligned symbol buffers and the pool that recycles them.
//!
//! The data plane XORs kilobyte-scale payloads on every encode, decode,
//! and recode step (§5.4's substitution rule is nothing but XOR), so the
//! representation of a payload in flight decides the whole pipeline's
//! throughput. [`SymbolBuf`] stores payload bytes packed little-endian
//! into a `Box<[u64]>`: every XOR between two buffers is a straight-line
//! `u64` loop the compiler vectorizes, with no per-byte tail handling
//! because the final partial word is kept zero-padded as an invariant.
//!
//! [`SymbolPool`] is a free-list of retired buffers. Recode buffers
//! acquire from and release to a pool instead of allocating, so a
//! steady-state transfer performs **zero per-symbol heap allocations**
//! once the pool has warmed up — [`PoolStats`] makes that property
//! assertable in tests rather than aspirational. The decoder needs no
//! pool: it writes every block into one object buffer, XORing with
//! [`xor_bytes_into`], the byte-destination form of the same kernels.
//!
//! Everything here is safe code: byte views are materialized through
//! `u64::from_le_bytes`/`to_le_bytes` on exact chunks, which optimizes to
//! wide loads and stores without any pointer casting.

/// Number of payload bytes packed into each storage word.
const WORD_BYTES: usize = 8;

/// A fixed-length byte buffer stored as little-endian-packed `u64` words.
///
/// Invariants:
/// * `words.len() >= len.div_ceil(8)` (capacity may exceed the live
///   view when a pooled buffer is reused at a shorter length);
/// * the bytes of the live word range beyond `len` are always zero, so
///   whole-word operations ([`SymbolBuf::xor_word_slices`], [`SymbolBuf::eq`])
///   need no tail masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolBuf {
    words: Box<[u64]>,
    len: usize,
}

impl Default for SymbolBuf {
    /// An empty (zero-length) buffer.
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl SymbolBuf {
    /// A zero-filled buffer of `len` bytes.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(WORD_BYTES)].into_boxed_slice(),
            len,
        }
    }

    /// A buffer holding a copy of `bytes`.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = Self::zeroed(bytes.len());
        buf.copy_from_bytes(bytes);
        buf
    }

    /// Length of the byte view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the byte view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live storage words (`len` rounded up to whole words).
    #[inline]
    fn word_len(&self) -> usize {
        self.len.div_ceil(WORD_BYTES)
    }

    /// The live words (read-only; tail padding beyond `len` is zero).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.word_len()]
    }

    /// Zeroes the live words.
    pub fn clear(&mut self) {
        let n = self.word_len();
        self.words[..n].fill(0);
    }

    /// Overwrites the buffer with `bytes`. Panics on length mismatch —
    /// symbols of one code share a block size, so a mismatch is a
    /// protocol error, exactly as in [`crate::symbol`]'s XOR operations.
    pub fn copy_from_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.len, "copy of unequal-length buffers");
        let mut chunks = bytes.chunks_exact(WORD_BYTES);
        // Zip over the word slice directly — no per-word bounds checks,
        // so the loop compiles to straight wide loads and stores.
        for (word, chunk) in self.words.iter_mut().zip(&mut chunks) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; WORD_BYTES];
            last[..tail.len()].copy_from_slice(tail);
            self.words[self.len / WORD_BYTES] = u64::from_le_bytes(last);
        }
    }

    /// XORs a raw word slice in — for callers that keep payloads packed
    /// in word arenas (the recoder). `words` must cover exactly this
    /// buffer's live words, with the same zero-padded-tail convention.
    #[inline]
    pub(crate) fn xor_word_slice(&mut self, words: &[u64]) {
        let n = self.word_len();
        assert_eq!(words.len(), n, "XOR of unequal-length word slices");
        for (d, s) in self.words[..n].iter_mut().zip(words) {
            *d ^= s;
        }
    }

    /// XORs four word slices in at once. One pass with four independent
    /// load streams keeps several cache misses in flight, which is what
    /// actually bounds high-degree recoding over a working set bigger
    /// than L2 — single-stream XOR serializes on L3 latency instead.
    #[inline]
    pub(crate) fn xor_word_slices4(&mut self, s0: &[u64], s1: &[u64], s2: &[u64], s3: &[u64]) {
        let n = self.word_len();
        assert!(
            s0.len() == n && s1.len() == n && s2.len() == n && s3.len() == n,
            "XOR of unequal-length word slices"
        );
        for (i, d) in self.words[..n].iter_mut().enumerate() {
            *d ^= s0[i] ^ s1[i] ^ s2[i] ^ s3[i];
        }
    }

    /// XORs eight word slices in at once (see [`SymbolBuf::xor_word_slices4`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn xor_word_slices8(
        &mut self,
        s0: &[u64], s1: &[u64], s2: &[u64], s3: &[u64],
        s4: &[u64], s5: &[u64], s6: &[u64], s7: &[u64],
    ) {
        let n = self.word_len();
        assert!(
            s0.len() == n && s1.len() == n && s2.len() == n && s3.len() == n
                && s4.len() == n && s5.len() == n && s6.len() == n && s7.len() == n,
            "XOR of unequal-length word slices"
        );
        for (i, d) in self.words[..n].iter_mut().enumerate() {
            *d ^= s0[i] ^ s1[i] ^ s2[i] ^ s3[i] ^ s4[i] ^ s5[i] ^ s6[i] ^ s7[i];
        }
    }

    /// XORs every word slice of `sources` in, eight (then four, then one)
    /// streams per pass — the batching every high-degree XOR over a
    /// working set bigger than cache wants.
    pub fn xor_word_slices<'a>(&mut self, mut sources: impl Iterator<Item = &'a [u64]>) {
        loop {
            let mut batch: [&[u64]; 8] = [&[]; 8];
            let mut n = 0;
            for (slot, s) in batch.iter_mut().zip(sources.by_ref()) {
                *slot = s;
                n += 1;
            }
            let [s0, s1, s2, s3, s4, s5, s6, s7] = batch;
            if n == 8 {
                self.xor_word_slices8(s0, s1, s2, s3, s4, s5, s6, s7);
                continue;
            }
            let rest = if n >= 4 {
                self.xor_word_slices4(s0, s1, s2, s3);
                &batch[4..n]
            } else {
                &batch[..n]
            };
            for s in rest {
                self.xor_word_slice(s);
            }
            return;
        }
    }

    /// XORs a byte slice in, widening it to words on the fly. Panics on
    /// length mismatch.
    pub fn xor_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.len, "XOR of unequal-length buffers");
        let mut chunks = bytes.chunks_exact(WORD_BYTES);
        for (word, chunk) in self.words.iter_mut().zip(&mut chunks) {
            *word ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; WORD_BYTES];
            last[..tail.len()].copy_from_slice(tail);
            self.words[self.len / WORD_BYTES] ^= u64::from_le_bytes(last);
        }
    }

    /// XORs four byte slices in at once: `SymbolBuf::xor_word_slices4`
    /// for sources that are kept as bytes (the encoder's source blocks).
    /// Panics on length mismatch.
    pub fn xor_bytes4(&mut self, sources: [&[u8]; 4]) {
        assert!(
            sources.iter().all(|s| s.len() == self.len),
            "XOR of unequal-length buffers"
        );
        let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let [a, b, c, d] = sources.map(|s| s.chunks_exact(WORD_BYTES));
        for ((((w, a), b), c), d) in self.words.iter_mut().zip(a).zip(b).zip(c).zip(d) {
            *w ^= word(a) ^ word(b) ^ word(c) ^ word(d);
        }
        let full = self.len / WORD_BYTES;
        if full < self.word_len() {
            let mut last = [0u8; WORD_BYTES];
            for s in sources {
                for (l, byte) in last.iter_mut().zip(&s[full * WORD_BYTES..]) {
                    *l ^= byte;
                }
            }
            self.words[full] ^= u64::from_le_bytes(last);
        }
    }

    /// Writes the byte view into `out`. Panics on length mismatch.
    pub fn write_to(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len, "copy into unequal-length buffer");
        let mut chunks = out.chunks_exact_mut(WORD_BYTES);
        for (chunk, word) in (&mut chunks).zip(self.words.iter()) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let last = self.words[self.len / WORD_BYTES].to_le_bytes();
            tail.copy_from_slice(&last[..tail.len()]);
        }
    }

    /// The byte view as a fresh `Vec<u8>` (allocates; boundary use only).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.write_to(&mut out);
        out
    }

    /// Re-views the buffer at a (possibly different) byte length WITHOUT
    /// zeroing: contents of the live range are unspecified (stale bytes
    /// from the previous user), and the zero-padded-tail invariant is
    /// suspended until the caller overwrites the buffer.
    fn reset_unspecified(&mut self, len: usize) {
        assert!(
            len.div_ceil(WORD_BYTES) <= self.words.len(),
            "pooled buffer too small for requested length"
        );
        self.len = len;
    }
}

/// XORs every slice of `sources` into `dst`, eight (then four, then one)
/// streams per pass: [`SymbolBuf::xor_word_slices`] for a destination
/// kept as bytes (the decoder writes blocks straight into the object).
/// Panics on length mismatch.
pub fn xor_bytes_into<'a>(dst: &mut [u8], mut sources: impl Iterator<Item = &'a [u8]>) {
    loop {
        let mut batch: [&[u8]; 8] = [&[]; 8];
        let mut n = 0;
        for (slot, s) in batch.iter_mut().zip(sources.by_ref()) {
            *slot = s;
            n += 1;
        }
        if n == 8 {
            xor_streams(dst, batch);
            continue;
        }
        let rest = if n >= 4 {
            let [s0, s1, s2, s3, ..] = batch;
            xor_streams(dst, [s0, s1, s2, s3]);
            &batch[4..n]
        } else {
            &batch[..n]
        };
        for &s in rest {
            xor_streams(dst, [s]);
        }
        return;
    }
}

/// One pass of [`xor_bytes_into`]: `N` independent load streams, a word
/// at a time, then the bytes past the last whole word.
#[inline]
fn xor_streams<const N: usize>(dst: &mut [u8], sources: [&[u8]; N]) {
    assert!(
        sources.iter().all(|s| s.len() == dst.len()),
        "XOR of unequal-length buffers"
    );
    let (words, tail) = dst.as_chunks_mut::<WORD_BYTES>();
    let full = words.len();
    // Re-slicing to the destination's word count lets the compiler drop
    // the per-word bounds checks below.
    let streams = sources.map(|s| &s.as_chunks::<WORD_BYTES>().0[..full]);
    for (i, word) in words.iter_mut().enumerate() {
        let mut acc = u64::from_le_bytes(*word);
        for s in &streams {
            acc ^= u64::from_le_bytes(s[i]);
        }
        *word = acc.to_le_bytes();
    }
    for (j, byte) in tail.iter_mut().enumerate() {
        for s in &sources {
            *byte ^= s[full * WORD_BYTES + j];
        }
    }
}

/// Counters proving (or disproving) steady-state allocation freedom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers newly heap-allocated by [`SymbolPool::acquire_for_overwrite`].
    pub allocated: u64,
    /// Acquisitions served from the free list (no allocation).
    pub reused: u64,
    /// Buffers returned via [`SymbolPool::release`].
    pub released: u64,
}

/// A free-list of [`SymbolBuf`]s.
///
/// Not thread-safe by design: each decoder / recode buffer owns its pool
/// (or borrows one across sequential transfers), matching the engine's
/// share-nothing parallelism — cells never share mutable state.
#[derive(Debug, Clone, Default)]
pub struct SymbolPool {
    free: Vec<SymbolBuf>,
    stats: PoolStats,
}

impl SymbolPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a buffer of `len` bytes with **unspecified contents** —
    /// possibly stale bytes from its previous user, with the
    /// zero-padded-tail invariant suspended. For callers that overwrite
    /// the whole buffer immediately ([`SymbolBuf::copy_from_bytes`]
    /// re-establishes the invariant), which skips a redundant
    /// block-sized memset on the per-symbol hot path. The pool is
    /// per-session state, so "stale" never crosses a trust boundary.
    pub fn acquire_for_overwrite(&mut self, len: usize) -> SymbolBuf {
        let need = len.div_ceil(WORD_BYTES);
        // Scan a bounded suffix for a fitting buffer; with the homogeneous
        // block sizes of one code every entry fits, making this O(1).
        let scan = self.free.len().saturating_sub(8);
        if let Some(pos) = self.free[scan..]
            .iter()
            .rposition(|b| b.words.len() >= need)
        {
            let mut buf = self.free.swap_remove(scan + pos);
            buf.reset_unspecified(len);
            self.stats.reused += 1;
            return buf;
        }
        self.stats.allocated += 1;
        SymbolBuf::zeroed(len)
    }

    /// Returns a buffer to the free list.
    pub fn release(&mut self, buf: SymbolBuf) {
        self.stats.released += 1;
        self.free.push(buf);
    }

    /// Allocation/reuse counters since construction.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_tail_lengths() {
        for len in 0..=40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 1) as u8).collect();
            let buf = SymbolBuf::from_bytes(&bytes);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.to_vec(), bytes, "roundtrip at len {len}");
        }
    }

    #[test]
    fn xor_bytes_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 100, 1400] {
            let a: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            let mut buf = SymbolBuf::from_bytes(&a);
            buf.xor_bytes(&b);
            let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(buf.to_vec(), expect, "len {len}");
        }
    }

    #[test]
    fn multi_stream_kernels_match_one_at_a_time() {
        // Every batch shape of xor_word_slices (8s, a 4, singles) and
        // xor_bytes4, at lengths with and without a partial tail word.
        for len in [0usize, 5, 8, 13, 64, 1400] {
            let source = |k: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + k * 7) as u8).collect() };
            for count in 0..=21 {
                let bufs: Vec<SymbolBuf> = (0..count).map(|k| SymbolBuf::from_bytes(&source(k))).collect();
                let mut expect = SymbolBuf::from_bytes(&source(99));
                bufs.iter().for_each(|b| expect.xor_bytes(&b.to_vec()));
                let mut got = SymbolBuf::from_bytes(&source(99));
                got.xor_word_slices(bufs.iter().map(SymbolBuf::words));
                assert_eq!(got, expect, "len {len}, {count} sources");
                let bytes: Vec<Vec<u8>> = (0..count).map(source).collect();
                let mut dst = source(99);
                xor_bytes_into(&mut dst, bytes.iter().map(Vec::as_slice));
                assert_eq!(dst, expect.to_vec(), "bytes at len {len}, {count} sources");
            }
            let quad = [source(1), source(2), source(3), source(4)];
            let mut expect = SymbolBuf::from_bytes(&source(99));
            quad.iter().for_each(|s| expect.xor_bytes(s));
            let mut got = SymbolBuf::from_bytes(&source(99));
            got.xor_bytes4([&quad[0], &quad[1], &quad[2], &quad[3]]);
            assert_eq!(got, expect, "xor_bytes4 at len {len}");
        }
    }

    #[test]
    fn tail_padding_stays_zero() {
        let mut buf = SymbolBuf::from_bytes(&[0xFF; 13]);
        buf.xor_bytes(&[0xAA; 13]);
        let last = *buf.words().last().expect("non-empty");
        assert_eq!(last >> 40, 0, "bytes beyond len must stay zero");
    }

    #[test]
    fn write_to_partial_word() {
        let buf = SymbolBuf::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut out = [0u8; 10];
        buf.write_to(&mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn pool_reuses_and_counts() {
        let mut pool = SymbolPool::new();
        let a = pool.acquire_for_overwrite(1400);
        let b = pool.acquire_for_overwrite(1400);
        assert_eq!(pool.stats().allocated, 2);
        pool.release(a);
        pool.release(b);
        for _ in 0..100 {
            let buf = pool.acquire_for_overwrite(1400);
            pool.release(buf);
        }
        let stats = pool.stats();
        assert_eq!(stats.allocated, 2, "steady state must not allocate");
        assert_eq!(stats.reused, 100);
        assert_eq!(stats.released, 102);
    }

    #[test]
    fn acquire_for_overwrite_is_clean_after_copy() {
        // The overwrite discipline: the raw buffer may carry stale bytes,
        // but one copy_from_bytes re-establishes both the contents and
        // the zero-padded-tail invariant — including when reused shorter.
        let mut pool = SymbolPool::new();
        let mut buf = pool.acquire_for_overwrite(64);
        buf.copy_from_bytes(&[0xEE; 64]);
        pool.release(buf);
        let mut again = pool.acquire_for_overwrite(13);
        again.copy_from_bytes(&[0x11; 13]);
        assert_eq!(again.to_vec(), vec![0x11; 13]);
        let last = *again.words().last().expect("non-empty");
        assert_eq!(last >> 40, 0, "tail bytes beyond len must be zero");
    }

    #[test]
    fn pool_grows_for_larger_requests() {
        let mut pool = SymbolPool::new();
        let small = pool.acquire_for_overwrite(8);
        pool.release(small);
        // A bigger request cannot reuse the 1-word buffer.
        let big = pool.acquire_for_overwrite(1024);
        assert_eq!(big.len(), 1024);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn xor_length_mismatch_panics() {
        let mut a = SymbolBuf::zeroed(8);
        a.xor_bytes(&[0u8; 9]);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn xor_bytes_into_length_mismatch_panics() {
        let mut dst = [0u8; 8];
        xor_bytes_into(&mut dst, [&[0u8; 9][..]].into_iter());
    }
}
