//! Working-set similarity estimation (§4 of the paper).
//!
//! Before two peers open a data connection they exchange a single small
//! packet that lets each side estimate how much of the other's working set
//! it already has. §4 weighs three estimators for that packet; this crate
//! implements the one the paper ships:
//!
//! * `minwise` — min-wise permutation sketches: a constant-size vector
//!   of per-permutation minima. Any two sketches built from the same
//!   permutation family can be compared, and sketches compose under set
//!   union by coordinate-wise minimum.
//!
//! The two alternatives §4 rejects are not implemented. A random sample
//! of `k` keys costs a search per key on the receiving side, and samples
//! of two third-party peers cannot be compared with each other. Broder's
//! mod-k sample is comparable across peers, but its size varies with the
//! set, which does not fit a fixed-size packet.
//!
//! `estimate` holds the conversions between the two similarity measures
//! involved (resemblance `|A∩B|/|A∪B|` and containment `|A∩B|/|B|`) via
//! inclusion–exclusion, as described in §4.
//!
//! The sketch is incremental: receiving one new symbol updates a
//! sketch in `O(1)` (amortized) time, matching the paper's requirement
//! that estimation keep functioning "even as new data arrives".

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod estimate;
mod minwise;

pub use estimate::OverlapEstimate;
pub use minwise::{MinwiseSketch, PermutationFamily};

/// A working-set element key: a 64-bit identifier of an encoded symbol.
///
/// §4: "each element of the working sets of peers is identified by an
/// integer key ... If element keys are 64 bits long, then a 1KB packet can
/// hold roughly 128 keys."
pub type Key = u64;
