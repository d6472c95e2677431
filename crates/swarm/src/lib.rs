//! Swarm layer over the overlay engine: topology generation + dynamic
//! membership at thousand-node scale.
//!
//! The paper's setting is an *adaptive* overlay (§1, §6): peers arrive,
//! depart, and re-pair mid-download, and the value of informed
//! reconciliation shows up at swarm scale, not on a hand-wired link.
//! This crate layers exactly that on [`icd_overlay::net::OverlayNet`]:
//!
//! * [`topology`] — seeded Erdős–Rényi, power-law preferential
//!   attachment, and ring+chords generators emitting deterministic
//!   edge presets;
//! * [`membership`] — the [`SwarmEvent`] stream
//!   (`Join`/`Leave`/`Rejoin`/`Rewire`) scheduled on the engine clock;
//! * [`faults`] — the deterministic fault-injection plane: a seeded
//!   [`FaultPlan`] of crashes, link cuts, stalls, frame truncations,
//!   and rate collapses, replayed on the same clock;
//! * [`swarm`] — the [`Swarm`] driver interleaving membership events,
//!   fault injection, and connection maintenance with engine execution,
//!   deterministic in `(config, seed)` at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod membership;
pub mod swarm;
pub mod topology;

pub use faults::{FaultConfig, FaultEvent, FaultPlan};
pub use icd_overlay::net::Link;
pub use membership::{churn_plan, ChurnConfig, PeerId, SwarmEvent};
pub use swarm::{
    run_swarm, try_run_swarm, Swarm, SwarmConfig, SwarmConfigError, SwarmOutcome, SwarmStrategy,
    PROFILE_SCOPES,
};
pub use topology::{build_topology, Topology, TopologyKind};
