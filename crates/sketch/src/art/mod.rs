//! Approximate reconciliation trees (§5.3) — the paper's new data
//! structure for finding a peer's missing symbols when the set difference
//! is small.
//!
//! The construction, following the paper:
//!
//! 1. Every element is hashed to a **position** (tree balancing /
//!    randomization) and, independently, to a **value** in [1, h)
//!    (breaking spatial correlation so sibling subtrees get unrelated
//!    hashes).
//! 2. Conceptually, a binary tree over the position space: each node
//!    covers a dyadic interval, the root covers everything. A node's
//!    value is the XOR of the values of all elements in its interval —
//!    order- and structure-independent, so two peers whose subtrees hold
//!    the same elements compute the same node value.
//! 3. The tree is collapsed PATRICIA-style (trivial single-child chains
//!    removed), leaving O(n) nodes and O(log n) depth w.h.p.
//! 4. Instead of shipping the tree, the node values are summarized in two
//!    Bloom filters — one for internal nodes, one for leaves — whose
//!    relative sizing is tunable (Figure 4(a) of the paper explores the
//!    tradeoff).
//!
//! Peer B then searches **its own** tree: any node whose value appears in
//!   A's filter probably has an identical counterpart at A, so the search
//! prunes there (subject to a *correction level*: up to `c` consecutive
//! matches may be tolerated before pruning, recovering accuracy lost to
//! Bloom false positives). Leaves that reach the leaf filter and miss are
//! reported as differences.
//!
//! Divergence from the paper, documented in DESIGN.md: positions use the
//! full 64-bit hash space rather than M = |S|²; this is still poly(n) for
//! every practical n, keeps collapsed depth O(log n), and drives the
//! probability of position collisions to ~n²/2⁶⁴ (so the "reported
//! differences are true differences" guarantee is exact in practice).

pub mod accuracy;
pub(crate) mod digest;
mod search;
mod summary;
mod tree;

pub use digest::ArtDigest;
pub use search::{search_differences, SearchOutcome};
pub use summary::{ArtSummary, SummaryParams};
pub use tree::{ArtParams, ReconciliationTree};
