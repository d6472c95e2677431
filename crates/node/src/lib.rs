//! A real networked peer: the §3 reconciliation protocol over TCP.
//!
//! Everything below the socket is shared with the rest of the
//! workspace — the sans-I/O [`icd_core::ReceiverMachine`] /
//! [`icd_core::SenderMachine`] pair emits the exact `icd-wire` frames
//! an in-memory [`icd_core::FramePump`] moves, so a swarm of OS
//! processes and a [`plan::predict`] run of the same topology and seed
//! move **byte-identical traffic on every link**. That is the crate's
//! load-bearing claim, and `tests/swarm_harness.rs` enforces it by
//! spawning real daemons and diffing their per-link wire counters
//! against [`plan::predict`].
//!
//! * `plan` — the deterministic distribution plan: universe ids,
//!   per-node initial shares, directed session links with per-link
//!   seeds, all pure functions of a [`plan::DistributionSpec`]; plus
//!   the [`plan::predict`] oracle, which runs every round's sessions
//!   in-process as lockstep [`icd_core::FramePump`] pairs.
//! * `shared` — the one working set a node's connection threads
//!   share: mutex-guarded cross-session symbol ingestion with
//!   duplicate-free distinct counting.
//! * `connection` — per-connection drivers: the dialer-side
//!   [`connection::fetch_session`], the listener-side
//!   [`connection::serve_session`], and the tiny hello preamble that
//!   carries `(dialer, link seed, epoch)` ahead of the first frame.
//! * `daemon` — the peer runtime: listener thread serving many
//!   inbound sessions, parallel fetches with crash recovery, and a
//!   roster speaking `icd-swarm`'s [`icd_swarm::SwarmEvent`]
//!   membership vocabulary.
//! * `retry` — capped exponential backoff with seeded jitter; the
//!   redial discipline behind the daemon's transient-failure recovery.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod connection;
mod daemon;
mod machine;
mod plan;
mod retry;
mod shared;

pub use connection::{
    fetch_session, serve_session, FetchError, FetchOutcome, Hello, HelloError, ServeOutcome,
    ServeStatus, SessionEpoch,
};
pub use daemon::{parse_roster, DaemonConfig, FetchReport, Node, NodeConfig, Roster, ServeChaos};
pub use machine::MAX_ROUNDS;
pub use plan::{
    link_seed, predict, predict_faulty, DistributionSpec, FaultyPrediction, PlannedLink,
    Prediction, SpecParseError, SwarmPlan,
};
pub use retry::RetryPolicy;
pub use shared::SharedWorkingSet;
