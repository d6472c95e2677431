//! The payload XOR kernel.
//!
//! The data plane XORs kilobyte-scale payloads on every encode, decode,
//! and recode step (§5.4's substitution rule is nothing but XOR), so
//! this one loop decides the whole pipeline's throughput.
//! [`xor_bytes_into`] XORs any number of source slices into a byte
//! destination in place, eight (then four, then one) load streams per
//! pass: several streams keep several cache misses in flight, which is
//! what bounds a high-degree XOR over a working set bigger than cache.
//! Callers XOR in place wherever the result lives: the encoder and the
//! recoder into the zeroed `Bytes` (or frame payload region) that
//! carries a symbol, the decoder into its object buffer, the
//! substitution buffer into a pending symbol's accumulator.
//!
//! Everything here is safe code: words are read and written through
//! `u64::from_le_bytes`/`to_le_bytes` on exact chunks, which optimizes to
//! wide loads and stores without any pointer casting.

/// Number of payload bytes XORed per word step.
const WORD_BYTES: usize = 8;

/// XORs every slice of `sources` into `dst`, eight (then four, then one)
/// streams per pass. Panics on length mismatch — symbols of one code
/// share a block size, so a mismatch is a protocol error.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_stream_kernels_match_one_at_a_time() {
        // Every batch shape (8s, a 4, singles), at lengths with and
        // without a partial tail word.
        for len in [0usize, 5, 8, 13, 64, 1400] {
            let source =
                |k: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + k * 7) as u8).collect() };
            for count in 0..=21 {
                let bytes: Vec<Vec<u8>> = (0..count).map(source).collect();
                let mut expect = source(99);
                for s in &bytes {
                    expect.iter_mut().zip(s).for_each(|(d, s)| *d ^= s);
                }
                let mut dst = source(99);
                xor_bytes_into(&mut dst, bytes.iter().map(Vec::as_slice));
                assert_eq!(dst, expect, "len {len}, {count} sources");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn xor_bytes_into_length_mismatch_panics() {
        let mut dst = [0u8; 8];
        xor_bytes_into(&mut dst, [&[0u8; 9][..]].into_iter());
    }
}
