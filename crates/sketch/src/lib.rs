//! The paper's two kinds of working-set summary, in one crate.
//!
//! Before two peers open a data connection they exchange a single small
//! packet that lets each side estimate how much of the other's working
//! set it already has (§4); once connected, the receiver may send a
//! fine-grained summary that lets the sender find exactly the symbols
//! it lacks (§5). Modules:
//!
//! * `minwise` — §4's calling card: min-wise permutation sketches, a
//!   constant-size vector of per-permutation minima. Any two sketches
//!   built from the same permutation family can be compared, and
//!   sketches compose under set union by coordinate-wise minimum. The
//!   sketch is incremental: one new symbol updates it in `O(1)`
//!   (amortized) time, matching the paper's requirement that estimation
//!   keep functioning "even as new data arrives".
//! * `estimate` — the conversions between resemblance `|A∩B|/|A∪B|`
//!   and containment `|A∩B|/|B|` via inclusion–exclusion, as in §4.
//! * `summary` — the one abstraction every fine-grained mechanism plugs
//!   into: stable [`SummaryId`]s, the [`SetSummary`]/[`Reconciler`]
//!   traits, the bounds-checked body codec, and the immutable
//!   [`standard_registry`] that sessions, policy, the overlay engine and
//!   the experiment grid all dispatch through.
//! * [`bloom`] — Bloom filters (§5.2).
//! * [`art`] — approximate reconciliation trees (§5.3).
//! * [`exact`] — the exact baselines of §5.1 (whole set, truncated
//!   hashes, a rateless IBLT) and the cross-method cost harness.
//!
//! The two calling-card alternatives §4 rejects are not implemented. A
//! random sample of `k` keys costs a search per key on the receiving
//! side, and samples of two third-party peers cannot be compared with
//! each other. Broder's mod-k sample is comparable across peers, but its
//! size varies with the set, which does not fit a fixed-size packet.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod art;
pub mod bloom;
mod estimate;
pub mod exact;
mod minwise;
mod summary;

pub use estimate::OverlapEstimate;
pub use minwise::{MinwiseSketch, PermutationFamily};
pub use summary::{
    cheapest_mechanism, standard_registry, DiffEstimate, Reconciler, SetSummary, SummaryError,
    SummaryId, SummaryRegistry, SummarySizing, SummarySpec,
};

/// A working-set element key: a 64-bit identifier of an encoded symbol.
///
/// §4: "each element of the working sets of peers is identified by an
/// integer key ... If element keys are 64 bits long, then a 1KB packet can
/// hold roughly 128 keys."
pub type Key = u64;
