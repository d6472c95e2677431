//! Set reconciliation baselines and cost accounting (§5.1).
//!
//! The paper motivates its *approximate* methods (Bloom filters, ARTs) by
//! arguing that exact approaches are "prohibitive in either computation
//! time or transmission size". This module implements those exact
//! approaches so the claim can be measured rather than assumed:
//!
//! * `wholeset` — peer A ships its entire key set: O(|S_A| log u) bits,
//!   zero error.
//! * [`hashset`] — peer A ships h-bit hashes of its keys: O(|S_A| log h)
//!   bits, inverse-polynomial miss probability (§5.1's middle option).
//! * [`riblt`] — a rateless invertible Bloom lookup table (Eppstein et
//!   al. 2011; Yang, Gilad and Alizadeh 2024), standing in for the
//!   characteristic-polynomial method the paper cites (\[19\]): O(d)
//!   cells for a difference of d, O(ln d) cell updates per key, and a
//!   linear peel instead of a Θ(d³) interpolation.
//! * [`cost`] — a harness that runs every method (exact and approximate)
//!   on one scenario and reports bits sent, time spent, and accuracy —
//!   the `recon_cost_table` experiment.
//! * `digest` — the exact mechanisms' plugs into the summary trait API,
//!   so whole-set, hash-set, and RIBLT run end to end through the
//!   session state machines, not just offline.

pub mod cost;
pub(crate) mod digest;
pub mod hashset;
pub mod riblt;
mod wholeset;
