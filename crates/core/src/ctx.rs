//! The typed borrow-view the stage modules operate on.
//!
//! `EdgeCloudSystem` owns all state; for each event it splits itself into
//! a [`SystemCtx`] — one field-level mutable borrow per subsystem — and
//! hands that to the stage function that owns the event. The borrow rules
//! are the architecture:
//!
//! * **Shared substrate** (`cfg`, `catalog`, `topology`, `nodes`,
//!   `clusters`, `store`, `detector`, `reassurer`, `counters`,
//!   `allocator`) is visible to every stage; the field split lets a stage
//!   hold, say, `&mut nodes` and `&mut detector` simultaneously without a
//!   `&mut self` free-for-all.
//! * **Stage-owned state** (`lifecycle`, `dispatch`, `sync`, `fault`)
//!   belongs to one stage module; other stages may read or update it only
//!   through that module's `pub(crate)` functions (e.g. dispatch calls
//!   `lifecycle::requeue_or_abandon`, never touches `requests` directly
//!   from its own logic).
//! * **Trace** is an optional sink; `SystemCtx::emit` is the only
//!   emission point and builds events lazily, so an untraced run pays a
//!   single branch per hook.

use crate::ctrl_rt::CtrlState;
use crate::dispatch::DispatchState;
use crate::lifecycle::LifecycleState;
use crate::runtime::{Allocator, ClusterRt};
use crate::sync_loop::SyncState;
use tango_faults::FaultState;
use tango_hrm::Reassurer;
use tango_kube::Node;
use tango_metrics::{ExperimentCounters, QosDetector, StateStorage, TraceEvent, TraceSink};
use tango_net::NetworkTopology;
use tango_types::SimTime;
use tango_workload::ServiceCatalog;

/// Field-split view over one [`EdgeCloudSystem`](crate::EdgeCloudSystem),
/// alive for the duration of one event. Constructed only by the event
/// router; stage modules receive `&mut SystemCtx` and communicate through
/// it.
pub struct SystemCtx<'a> {
    /// Run configuration (immutable for the whole run).
    pub(crate) cfg: &'a crate::config::TangoConfig,
    /// Service catalog (immutable for the whole run).
    pub(crate) catalog: &'a ServiceCatalog,
    /// WAN/LAN topology; mutated only by the fault stage (degradations,
    /// partitions).
    pub(crate) topology: &'a mut NetworkTopology,
    /// All nodes, masters and workers, indexed by `NodeId`.
    pub(crate) nodes: &'a mut Vec<Node>,
    /// Per-cluster control-plane records, indexed by `ClusterId`.
    pub(crate) clusters: &'a mut Vec<ClusterRt>,
    /// The state storage masters read candidate views from.
    pub(crate) store: &'a mut StateStorage,
    /// Per-(node, service) QoS latency windows.
    pub(crate) detector: &'a mut QosDetector,
    /// Algorithm 1 re-assurance (None = ablated off).
    pub(crate) reassurer: &'a mut Option<Reassurer>,
    /// Experiment accounting (per-period series).
    pub(crate) counters: &'a mut ExperimentCounters,
    /// Node-level admission/allocation.
    pub(crate) allocator: &'a mut Allocator,
    /// Lifecycle stage state (requests, reservations, node wait queues).
    pub(crate) lifecycle: &'a mut LifecycleState,
    /// Dispatch stage state (LC/BE schedulers, central BE queue).
    pub(crate) dispatch: &'a mut DispatchState,
    /// Sync stage scratch.
    pub(crate) sync: &'a mut SyncState,
    /// Fault runtime state (down flags, crash epochs, ledger).
    pub(crate) fault: &'a mut FaultState,
    /// Control-plane state (state mirror, keep-alive detector, proxy
    /// accounting).
    pub(crate) ctrl: &'a mut CtrlState,
    /// Migration stage state (in-flight transfers, defrag cadence,
    /// cloud egress accounting).
    pub(crate) migration: &'a mut crate::migration::MigrationState,
    /// Run horizon (completions projected past it are never scheduled).
    pub(crate) horizon: SimTime,
    /// Optional stage-boundary trace sink.
    pub(crate) trace: Option<&'a mut (dyn TraceSink + Send)>,
}

impl SystemCtx<'_> {
    /// Emit a trace event if a sink is attached. The event is built
    /// lazily so untraced runs pay only this branch.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(at, build());
        }
    }
}
