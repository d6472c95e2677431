//! Digital fountain substrate: sparse parity-check erasure codes (§2.3,
//! §5.4.1) and recoding of encoded symbols (§5.4.2).
//!
//! The paper's delivery architecture assumes an LT-style code: content is
//! divided into `l` fixed-length **source blocks**; an encoder emits an
//! unbounded stream of **encoded symbols**, each the XOR of a random
//! subset of source blocks drawn from an irregular degree distribution;
//! a receiver recovers the content from any ≈ `(1+ε)·l` distinct symbols
//! using the substitution (peeling) rule. Partial senders additionally
//! produce **recoded symbols** — XORs of encoded symbols — to avoid
//! shipping redundant content to a correlated peer.
//!
//! Modules:
//!
//! * `block` — file partitioning into source blocks and reassembly.
//! * `degree` — degree distributions: ideal and robust soliton plus the
//!   capped variants used for recoding (the paper's own distribution is
//!   proprietary; DESIGN.md documents the substitution — the robust
//!   soliton lands in the same sparse Θ(log l) band: mean degree ≈ 16 vs
//!   the paper's 11, decoding overhead in the same few-percent range at
//!   l ≈ 24 000).
//! * `encoder` — the memoryless encoder: a symbol is a pure function of
//!   its 64-bit id, so independently seeded senders emit uncorrelated,
//!   additive streams ("additivity", §2.3).
//! * [`decoder`] — the peeling decoder with full cascade, duplicate
//!   rejection, and overhead accounting.
//! * [`recode`] — recoded symbols, the degree-selection rule driven by
//!   estimated correlation, and the receiver-side substitution buffer.
//! * [`overhead`] — measurement harness for decoding overhead (the
//!   `coding_table` experiment).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod block;
pub mod decoder;
mod degree;
mod encoder;
pub mod overhead;
pub mod recode;

pub use block::SymbolId;
pub use decoder::{DecodeStatus, Decoder};
pub use encoder::{CodeSpec, EncodedSymbol, Encoder};
pub use recode::{RecodeBuffer, RecodePolicy, RecodeScratch, RecodedSymbol, Recoder};
