//! The repository's end-to-end benchmark: boots `scaddard` in-process,
//! drives it over loopback with seeded lookup sessions and an operator
//! script, checks every answer against an independent oracle engine,
//! and reports end-to-end metrics (untraced run) or per-layer metrics
//! (traced run). See `README.md` in this directory.

pub mod client;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod spans;
pub mod stats;
pub mod workload;
