//! Set reconciliation baselines and cost accounting (§5.1).
//!
//! The paper motivates its *approximate* methods (Bloom filters, ARTs) by
//! arguing that exact approaches are "prohibitive in either computation
//! time or transmission size". This crate implements those exact
//! approaches so the claim can be measured rather than assumed:
//!
//! * `wholeset` — peer A ships its entire key set: O(|S_A| log u) bits,
//!   zero error.
//! * [`hashset`] — peer A ships h-bit hashes of its keys: O(|S_A| log h)
//!   bits, inverse-polynomial miss probability (§5.1's middle option).
//! * [`poly`] — the characteristic-polynomial method of
//!   Minsky–Trachtenberg–Zippel (the paper's reference \[19\]): O(d log u)
//!   bits for discrepancy d, but Θ(d·|S|) field operations of
//!   preprocessing and Θ(d³) recovery — implemented in full over
//!   GF(2^61 − 1), including rational-function interpolation and
//!   root-finding ([`polyfield`] holds the polynomial arithmetic).
//! * [`cost`] — a harness that runs every method (exact and approximate)
//!   on one scenario and reports bits sent, time spent, and accuracy —
//!   the `recon_cost_table` experiment.
//! * `digest` — the exact mechanisms' plugs into the workspace-wide
//!   `icd-summary` trait API, so whole-set, hash-set, and char-poly run
//!   end-to-end through the session state machines, not just offline.
//! * [`registry`] — the assembled standard [`icd_summary::SummaryRegistry`]
//!   holding all five mechanisms.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod cost;
mod digest;
pub mod hashset;
pub mod poly;
pub mod polyfield;
pub mod registry;
mod wholeset;

pub use poly::{CharPolySketch, PolyError};
pub use registry::{shared_registry, standard_registry};
