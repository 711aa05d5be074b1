//! Delegated-orchestration control plane for Tango.
//!
//! The paper's deployment (§5) runs a management plane *beside* the
//! scheduler; EDGELESS's ε-ORC shows the same seam as a proxy that
//! mirrors orchestrator state outward and accepts policy decisions from
//! outside. This crate builds that seam for the single-process runtime
//! so it can later be split into communicating processes, in three
//! pillars:
//!
//! * [`mirror`] — a **ClusterStateMirror**: a serializable, versioned
//!   view of cluster/node/QoS/reservation state, published as framed
//!   full-or-delta updates keyed on the candidate-view structure clock,
//!   so calm ticks publish near-nothing;
//! * [`proxy`] — a **ProxyBackend** implementing the LC scheduler
//!   trait: forwards each dispatch round's candidate views to an
//!   external decision source over a framed wire format and falls back
//!   deterministically to the wrapped local scheduler on decline,
//!   deadline miss, or malformed decision;
//! * [`health`] — a **keep-alive failure detector**: per-node heartbeat
//!   bookkeeping driven from sync-tick observations, with a configurable
//!   miss threshold and suspicion decay, so crash handling is triggered
//!   by detection rather than by the fault-plan oracle.
//!
//! The crate deliberately depends only on the substrate crates
//! (tango-types, tango-snap, tango-sched, tango-par); the system runtime
//! in tango-core drives it at stage boundaries. Everything here is
//! deterministic: frames carry sim-time, never wall-clock, and the proxy
//! deadline is judged against the decision source's *claimed* sim-time
//! compute latency.

mod frame;
#[deny(missing_docs)]
pub mod health;
#[deny(missing_docs)]
pub mod mirror;
#[deny(missing_docs)]
pub mod proxy;

pub use health::{HealthDetector, KeepAliveConfig};
pub use mirror::{
    apply_frame, decode_frame, encode_frame, MirrorFrame, MirrorHandle, MirrorNode, MirrorSnapshot,
    MirrorStats,
};
pub use proxy::{
    DecisionReply, DecisionRequest, DecisionSource, NoopProxy, PolicyFn, ProxyBackend, ProxyStats,
    RequestBatch,
};
