//! Shared domain types for the Tango edge-cloud co-location framework.
//!
//! This crate defines the vocabulary every other crate speaks: resource
//! vectors, service classes (Latency-Critical vs Best-Effort), requests,
//! simulation time, and the identifier newtypes for clusters, nodes, pods
//! and containers.
//!
//! Nothing in here does any work — these are plain data types with careful
//! arithmetic, so that the substrate crates (cgroup, kube, net, …) and the
//! algorithm crates (hrm, sched) can interoperate without depending on each
//! other.

pub mod error;
pub mod fxhash;
pub mod ids;
pub mod request;
pub mod resources;
pub mod service;
pub mod snap_impls;
pub mod time;

pub use error::TangoError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{ClusterId, ContainerId, NodeId, RequestId};
pub use request::{Request, RequestOutcome, RequestState};
pub use resources::{ResourceKind, Resources};
pub use service::{ServiceClass, ServiceId, ServiceSpec};
pub use time::SimTime;

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, TangoError>;
