//! Bloom filters for fine-grained approximate reconciliation (§5.2).
//!
//! Peer A summarizes its working set S_A in a Bloom filter and sends it to
//! peer B; B probes each of its own symbols and transmits the ones the
//! filter reports as absent. A false positive makes B withhold a useful
//! symbol — acceptable, because with encoded content any sufficiently
//! large subset of the difference will do. The filter never causes a
//! *redundant* transmission: Bloom filters have no false negatives, so
//! every symbol B sends is genuinely missing at A. That one-sided error is
//! the property the whole protocol leans on, and the property our tests
//! and proptests pin down.
//!
//! Modules:
//!
//! * [`BloomFilter`] — the classic m-bit, k-hash filter with double
//!   hashing and byte-exact serialization.
//! * [`math`] — the analytic machinery: false-positive probability
//!   `f = (1 − e^{−kn/m})^k`, the optimal `k`, and sizing helpers. The
//!   paper's §5.2 calibration points (4 bits/elem + 3 hashes → 14.7 %,
//!   8 bits/elem + 5 hashes → 2.2 %) are regenerated by the
//!   `bloom_fp_table` experiment.
//! * `digest` — the mechanism's plug into the summary trait API
//!   ([`BloomDigest`] and its registry entry).

pub(crate) mod digest;
mod filter;
pub mod math;

pub use digest::BloomDigest;
pub use filter::BloomFilter;
