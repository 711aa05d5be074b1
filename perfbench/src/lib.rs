//! The repository benchmark: four workloads, each timed in fresh child
//! processes with tracing off (end-to-end metrics), then once more traced
//! and followed by replays of each layer's entry point (per-layer
//! metrics). See `README.md` for the workloads and the metric table.

pub mod child;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod runner;
pub mod sink;
pub mod stats;
pub mod workloads;
