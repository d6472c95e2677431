//! Deterministic overlay transfer simulator (§6 of the paper).
//!
//! §6's evaluation is itself a simulation: what matters for every
//! reported metric — overhead, speedup, relative rate — is *which symbol
//! identifiers* cross each connection and when, under each transfer
//! strategy. This crate reproduces exactly that: symbols are 64-bit ids
//! (the paper's own §6.1 simplification of a constant 7 % decoding
//! overhead replaces payload-level decoding), recoded packets carry
//! component-id lists and resolve through the real substitution buffer
//! from `icd-fountain`, and every run is a pure function of its seed.
//!
//! * [`net`] — **the overlay engine**: a discrete-event multi-peer
//!   runtime (`OverlayNet`) in which every peer owns a working set and a
//!   cached calling card, every directed link owns a rate/latency/loss
//!   profile and an independent sender pump, and a `(time, seq)`
//!   in-flight queue plus a timing-wheel send calendar make every run
//!   byte-identical to replay. All transfer shapes — the classic
//!   figures, churn, meshes, lossy heterogeneous topologies — run on
//!   this one engine, and `OverlayNet::try_connect` builds every packet
//!   link's handshake (digest, calling cards, difference estimate).
//! * `calendar` — the timing-wheel send calendar behind the engine's
//!   per-tick link scan.
//! * [`receiver`] — receiver state: known-symbol set, pending recoded
//!   symbols (substitution cascade), completion target.
//! * [`strategy`] — the simulator's side of the five §6.2 sender
//!   strategies (Random, Random/BF, Recode, Recode/BF, Recode/MW), which
//!   run in `icd-core`'s one `StrategySender`: the full sender's
//!   digital fountain and its fresh-id bit.
//! * [`scenario`] — §6.3's experiment geometries as plain inventories:
//!   compact/stretched two-peer transfers (Figure 5), full + partial
//!   sender (Figure 6), and k partial senders (Figures 7 and 8).
//! * [`transfer`] — the classic presets (2-node line, line + fountain,
//!   k-sender fan-in), each one fan-in over the engine, and the outcome
//!   metrics.
//! * [`churn`] — connection migration as an event stream over the
//!   engine (the §2.3 statelessness claims, exercised end to end).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod calendar;
pub mod churn;
pub mod net;
pub mod receiver;
pub mod scenario;
pub mod strategy;
pub mod transfer;

pub use net::{
    session_machine_seeds, session_payload, ConnectError, Link, LinkId, NodeId, OverlayNet,
    StopReason,
};
pub use receiver::Receiver;
pub use scenario::{MultiSenderScenario, ScenarioParams, TwoPeerScenario};
pub use strategy::StrategyKind;
pub use transfer::{run_transfer, TransferOutcome};

/// Symbol identifier (shared with the codec crate's `SymbolId`).
pub type SymbolId = u64;
