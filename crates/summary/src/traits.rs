//! The two traits every mechanism implements, plus the sizing and
//! estimate inputs their constructors consume.

use crate::SummaryId;

/// Errors surfaced by summary construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryError {
    /// The body bytes do not decode to a valid digest.
    Malformed(&'static str),
    /// The id is not present in the registry consulted.
    Unknown(SummaryId),
    /// An id was registered twice.
    DuplicateId(SummaryId),
}

impl std::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(why) => write!(f, "malformed summary body: {why}"),
            Self::Unknown(id) => write!(f, "summary id {id} not registered"),
            Self::DuplicateId(id) => write!(f, "summary id {id} registered twice"),
        }
    }
}

impl std::error::Error for SummaryError {}

/// Sizing knobs shared by all mechanisms — the §5 parameters a
/// deployment fixes per connection class. Each constructor reads only
/// the fields relevant to its mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummarySizing {
    /// Bloom filter budget (§5.2's reference point is 8 bits/element).
    pub bloom_bits_per_element: f64,
    /// ART leaf-filter budget in bits per element. The default total ART
    /// budget is *half* the Bloom budget: the correction mechanism
    /// (§5.3) buys back accuracy, which is exactly what makes ARTs
    /// competitive on the wire when the difference is small.
    pub art_leaf_bits_per_element: f64,
    /// ART internal-filter budget in bits per element.
    pub art_internal_bits_per_element: f64,
    /// ART correction level (§5.3; the paper's tables use 0–5).
    pub art_correction: u32,
    /// Truncated-hash width in bits (§5.1's `log h`).
    pub hash_bits: u32,
    /// Characteristic-polynomial bound as a multiple of the estimated
    /// symmetric difference (the sketch estimate is noisy; the margin
    /// absorbs it).
    pub poly_margin: f64,
    /// Flat headroom added to the polynomial bound.
    pub poly_slack: usize,
    /// Hard cap on the polynomial bound: the Θ(m̄³) recovery makes an
    /// unbounded sketch a self-inflicted denial of service when the
    /// estimated difference is huge (§5.1's "prohibitive" regime).
    pub poly_max_bound: usize,
}

impl Default for SummarySizing {
    fn default() -> Self {
        Self {
            bloom_bits_per_element: 8.0,
            art_leaf_bits_per_element: 2.5,
            art_internal_bits_per_element: 1.5,
            art_correction: 5,
            hash_bits: 16,
            poly_margin: 2.0,
            poly_slack: 16,
            poly_max_bound: 4096,
        }
    }
}

impl SummarySizing {
    /// The characteristic-polynomial bound this sizing yields for an
    /// estimated symmetric difference.
    #[must_use]
    pub fn poly_bound(&self, expected_delta: usize) -> usize {
        ((expected_delta.max(1) as f64 * self.poly_margin).ceil() as usize + self.poly_slack)
            .clamp(1, self.poly_max_bound.max(1))
    }
}

/// What the summarizing side knows (or estimates, from the sketch
/// exchange) about the two sets at construction time. Directions follow
/// the session roles: the *summarized* set is the receiver's (peer A),
/// the *searched* set is the candidate sender's (peer B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffEstimate {
    /// |S_A|: size of the set being summarized.
    pub summarized: usize,
    /// |S_B|: size of the peer set that will be searched against the
    /// summary.
    pub searched: usize,
    /// Estimated |S_B ∖ S_A| — the useful symbols an informed transfer
    /// would move.
    pub expected_new: usize,
    /// Estimated |S_A Δ S_B| — what exact methods such as the
    /// characteristic polynomial must bound.
    pub expected_delta: usize,
}

impl DiffEstimate {
    /// Builds an estimate from the set sizes and the expected number of
    /// peer-only elements, deriving the symmetric difference from
    /// inclusion–exclusion (`|A Δ B| = |A∖B| + |B∖A|`).
    #[must_use]
    pub fn new(summarized: usize, searched: usize, expected_new: usize) -> Self {
        let missing_here = (summarized + expected_new).saturating_sub(searched);
        Self {
            summarized,
            searched,
            expected_new,
            expected_delta: expected_new + missing_here,
        }
    }
}

/// Sender-side view of a peer's digest: decoded from wire bytes, it
/// yields the diff that drives an informed transfer.
///
/// The contract is the paper's one-sided-error invariant: every id
/// reported by [`Reconciler::missing_at_peer`] is *probably* absent at
/// the summarizing peer, and for approximate mechanisms the error is in
/// the safe direction — a useful symbol may be withheld (false
/// positive), but a redundant one is never reported as missing beyond
/// the mechanism's advertised accuracy.
pub trait Reconciler: std::fmt::Debug + Send + Sync {
    /// The mechanism this digest belongs to.
    fn id(&self) -> SummaryId;

    /// Ids from `local` (the caller's working set) that the summarizing
    /// peer lacks, per this digest. Always sorted ascending and free of
    /// duplicates, so callers get the same answer however `local` is
    /// ordered.
    fn missing_at_peer(&self, local: &[u64]) -> Vec<u64>;

    /// Whether the mechanism recovers the difference exactly (whole-set
    /// and, within its bound, the characteristic polynomial).
    fn is_exact(&self) -> bool {
        false
    }
}

/// Receiver-side digest of a working set.
///
/// Every summary is also a [`Reconciler`] (supertrait): decoding the
/// encoded body through the registry must yield a reconciler whose
/// answers match the original digest — the round-trip property the
/// integration suite checks for every registered mechanism.
pub trait SetSummary: Reconciler {
    /// Encodes the digest to its self-describing wire body. The
    /// mechanism id and element width travel in the wire frame header,
    /// not the body.
    fn encode_body(&self) -> Vec<u8>;

    /// Membership probe: `false` means the summarized set provably lacks
    /// `key`; `true` means it probably contains it. Mechanisms that
    /// cannot answer per-key probes (the characteristic polynomial)
    /// conservatively return `true`.
    fn probably_contains(&self, key: u64) -> bool;

    /// Estimated |keys ∖ S_A|: how many of `keys` the summarized set
    /// appears to lack. The default counts [`SetSummary::probably_contains`]
    /// misses.
    fn estimated_difference(&self, keys: &[u64]) -> usize {
        keys.iter().filter(|&&k| !self.probably_contains(k)).count()
    }

    /// Encoded body size in bytes.
    fn wire_bytes(&self) -> usize {
        self.encode_body().len()
    }
}
