//! Informed content delivery across adaptive overlay networks — the
//! paper's system, assembled from the workspace's substrates into a
//! public API a downstream application would use.
//!
//! The paper's architecture (§3) has three tiers, each mapped here:
//!
//! 1. **Coarse-grained estimation** — peers exchange min-wise sketches
//!    ("an end-system's calling card") to estimate working-set overlap
//!    before committing bandwidth. [`WorkingSet`] maintains the sketch
//!    incrementally as symbols arrive.
//! 2. **Fine-grained reconciliation** — a receiver ships a digest of its
//!    working set so the sender can filter or personalize its
//!    transmissions. Digests are pluggable: every mechanism implements
//!    the [`summary`] module's `SetSummary`/`Reconciler` traits and
//!    registers in a `SummaryRegistry` under a stable `SummaryId` —
//!    whole-set, hash-set, and a rateless IBLT (exact, §5.1) alongside
//!    Bloom (§5.2) and ART (§5.3) all run through the same machinery.
//!    [`policy`] scores the registered candidates by their advertised
//!    wire/compute/accuracy numbers, following §3's tradeoff discussion.
//! 3. **Informed transfer** — the sender streams encoded symbols the
//!    receiver provably lacks, or recoded symbols tuned to the estimated
//!    correlation. [`machine`] packages the whole exchange as a pair of
//!    sans-I/O state machines — frames in, actions out — that any driver
//!    can pump; summaries travel in the generic tagged frame, so the
//!    machines dispatch purely on `SummaryId` (the `icd-node` daemon runs
//!    them over real sockets, its `predict` oracle and the tests over
//!    [`FramePump`]'s in-memory queues).
//!
//! The §6.2 sender strategies live here too, once: [`strategy`]'s
//! pull-based `StrategySender` emits packet ids, which the
//! [`SenderMachine`] frames with payloads and the `icd-overlay` engine's
//! packet links book as simulated traffic.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod machine;
pub mod policy;
pub mod strategy;
pub mod summary;
pub mod working_set;

pub use machine::{
    drive_receiver_with, DriveError, FramePump, MachineError, PumpStep, ReceiverMachine,
    SenderMachine, SessionAction, SessionConfig, SessionError, SessionEvent, WireStats,
};
pub use policy::{select_summary, PolicyKnobs, TransferPlan};
pub use strategy::{StrategyKind, StrategySender};
pub use summary::{SummaryId, SummaryRegistry, SummarySizing};
pub use working_set::WorkingSet;
