//! Wall-clock benchmark of the distributed Bonsai step.
//!
//! Three seeded Milky Way workloads run through `bonsai_sim::Cluster::step`
//! in a closed loop (one process drives one cluster; each step starts when
//! the previous one returns). The end-to-end run reports step times,
//! throughput, accuracy, set-up time and memory; the traced run replays
//! each step's gravity phase through the layers' public functions with a
//! span around every call and reports per-layer metrics. See `README.md`.

pub mod checks;
pub mod probe;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
