//! Observability plane: deterministic tracing, metrics, and wall-clock
//! profiling for the ICD workspace.
//!
//! Three strictly separated concerns, because they sit on opposite
//! sides of the repo's load-bearing determinism invariant:
//!
//! * [`trace`] — the **deterministic structured trace plane**. Events
//!   are stamped only with engine time and a push-assigned sequence
//!   number, never with wall clock, so a trace is itself a parity
//!   artifact: two runs of the same `(scenario, seed)` must emit
//!   **byte-identical** JSONL at any thread count
//!   (`crates/swarm/tests/trace_parity.rs` pins exactly that).
//! * [`metrics`] — a dependency-free **metrics registry**: atomic
//!   counters, gauges, and log2-bucket histograms behind shared
//!   handles, snapshotted into a typed, JSON-exportable struct.
//!   Registries are `Sync` so the same type serves the single-threaded
//!   engine and the multi-threaded `icd-node` daemon.
//! * [`profile`] — **wall-clock phase accumulators**, kept strictly
//!   *outside* the parity domain: nothing they measure may ever flow
//!   back into an outcome or a trace. The engine records no scopes
//!   today; the benchmark driver reads the (empty) totals.
//!
//! Every recorder is optional everywhere it can be installed: the hot
//! paths pay one `Option` discriminant check when nothing is installed
//! (the `perf_baseline` A/B pins the disabled-mode overhead at ≤ 2%).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{PhaseProfile, PhaseStat, ProfileHandle};
pub use trace::{SyncTraceHandle, TraceBuf, TraceEvent, TraceHandle, TraceParseError, TraceRecord};
