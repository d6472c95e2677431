//! The repo benchmark: socket-to-decode deliveries, daemon swarms and
//! engine runs, measured end to end and attributed per crate. The runner
//! is `src/main.rs`; `README.md` defines every workload and metric.

pub mod catalog;
pub mod json;
pub mod procfs;
pub mod spans;
pub mod stats;
pub mod workloads;
