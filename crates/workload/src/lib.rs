//! Workload synthesis for the Tango experiments.
//!
//! The paper drives its dual-space testbed with the 2019 Google cluster
//! trace (§6.2): records with `<EventType, SCHEDULE>` and
//! `<CollectionType, JOB>` are bucketed into **ten service categories** by
//! the `LatencySensitivity` field, split between Latency-Critical and
//! Best-Effort, and replayed by a request generator. The paper sets QoS
//! targets by PARTIES-style pressure measurement; here they are constants
//! in the service catalog.
//!
//! We cannot ship the 8 GB proprietary trace, so this crate synthesizes a
//! statistically equivalent stream (see DESIGN.md): the same ten-category
//! catalog, heavy-tailed per-request demands, the diurnal load shape of
//! Fig. 1, the three §7.1 request patterns (P1/P2/P3), and a Google-like
//! bursty job-arrival process. Every generator is deterministic per seed,
//! and the system builds its trace from the config on every run; there is
//! no trace file format. A checkpoint stores a [`TraceCursor`]'s drawn
//! state, not the arrivals still to come.

pub mod catalog;
pub mod diurnal;
pub mod patterns;
pub mod trace;

pub use catalog::ServiceCatalog;
pub use diurnal::DiurnalProfile;
pub use patterns::{Pattern, PatternKind};
pub use trace::{TraceCursor, TraceEvent, TraceGenerator, TraceSpec};
