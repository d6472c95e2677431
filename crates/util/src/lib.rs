//! Foundation utilities for the informed-content-delivery workspace.
//!
//! This crate provides the deterministic, dependency-free substrate that
//! every other crate in the workspace builds on:
//!
//! * [`hash`] — 64-bit mixing and keyed hash functions used to derive
//!   symbol keys, Bloom-filter probe sequences, and reconciliation-tree
//!   node values.
//! * [`rng`] — deterministic pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]). Every simulation in
//!   the workspace is a pure function of a 64-bit seed, which makes all
//!   experiments exactly reproducible.
//! * [`bitvec`] — a compact bit vector backing the Bloom-filter crates.
//! * [`modp`] — arithmetic in GF(p) for the Mersenne prime p = 2^61 - 1,
//!   used by min-wise linear permutations and by the characteristic
//!   polynomial set-reconciliation baseline.
//! * [`stats`] — mean / variance / confidence-interval helpers used by the
//!   experiment harness.
//! * [`idset`] — compressed working-set membership: a rank bitmap over a
//!   shared sorted symbol universe, so per-peer inventory sets cost bits
//!   instead of hash-table entries at swarm scale.
//! * [`symbol`] — word-aligned payload buffers ([`symbol::SymbolBuf`])
//!   and the free-list pool ([`symbol::SymbolPool`]) that make the
//!   encode/decode/recode hot path allocation-free at steady state.
//!
//! Nothing in this crate is specific to the paper's algorithms; it exists
//! so that the algorithmic crates stay focused and so the workspace does
//! not depend on external hashing or PRNG crates.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod hash;
pub mod idset;
pub mod modp;
pub mod rng;
pub mod stats;
pub mod symbol;

pub use bitvec::BitVec;
pub use hash::{FastBuildHasher, FastHashMap, FastHashSet};
pub use idset::{IdSet, IdUniverse};
pub use rng::{Rng64, SplitMix64, Xoshiro256StarStar};
pub use symbol::{PoolStats, SymbolBuf, SymbolPool};
