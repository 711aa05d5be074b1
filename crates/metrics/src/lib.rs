//! Telemetry for Tango: the state storage fed by Prometheus-style scrapes
//! and the QoS detector (§3 ➋➍).
//!
//! * [`window`] — sliding 100 ms latency windows with exact tail-percentile
//!   queries (the paper's QoS metric is p95 within a 100 ms window, §4.3);
//! * [`qos`] — slack scores δ = 1 − ξ/γ and the per-(node, service)
//!   QoS detector;
//! * [`store`] — the state storage each master consults: per-node resource
//!   snapshots plus RTT and slack, safely shared between the cluster
//!   control threads;
//! * [`counters`] — experiment accounting: per-period utilization,
//!   QoS-guarantee satisfaction rate and BE throughput, i.e. the y-axes of
//!   every figure in §7. Every period metric is declared there alone: a
//!   [`PeriodRecord`] field, an entry in [`PeriodRecord::COLUMNS`] (its
//!   CSV name, CSV format and whether the run digest folds it) and, for
//!   a plain count, a [`Counter`] variant;
//! * [`trace`] — zero-cost stage-boundary trace hooks: the [`TraceSink`]
//!   interface the core runtime emits into and a ring-buffer recorder for
//!   per-request timelines.

pub mod counters;
pub mod percentile;
pub mod qos;
pub mod snapshot;
pub mod store;
pub mod trace;
pub mod window;

pub use counters::{Column, Counter, ExperimentCounters, PeriodRecord};
pub use percentile::percentile;
pub use qos::{slack_score, NodeWindows, QosDetector};
pub use store::{NodeRole, StateStorage, StoreRow};
pub use trace::{TraceEvent, TraceLane, TraceRecorder, TraceSink, DEFAULT_TRACE_CAPACITY};
pub use window::LatencyWindow;
