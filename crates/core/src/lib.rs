//! Tango: harmonious management and scheduling for mixed services
//! co-located among distributed edge-clouds — a full reproduction of the
//! ICPP 2023 paper as a Rust library.
//!
//! The crate wires the substrates together into the system of Fig. 3:
//!
//! * per-cluster **LC traffic dispatchers** running DSS-LC (or a baseline)
//!   over state-storage snapshots;
//! * a central **BE traffic dispatcher** running DCG-BE (or a baseline);
//! * **HRM** on every worker: usage regulations, D-VPA, QoS re-assurance;
//! * the **dual-space** evaluation substrate: behaviour-level K8s nodes
//!   with CGroup-enforced processor sharing, a geographic WAN, and a
//!   Google-trace-shaped workload generator.
//!
//! Entry points: [`TangoConfig`] (presets for the paper's physical
//! testbed, the 104-cluster dual space, and the CERES/DSACO comparison
//! systems) and [`EdgeCloudSystem::run`], which returns a [`RunReport`]
//! with the per-period series every figure of §7 plots.
//!
//! ```
//! use tango::{EdgeCloudSystem, TangoConfig};
//! use tango_types::SimTime;
//!
//! let mut cfg = TangoConfig::physical_testbed();
//! cfg.clusters = 2;
//! cfg.be_policy = tango::BePolicy::LoadGreedy; // fast for doctests
//! let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(2), "demo");
//! assert!(report.lc_arrived > 0);
//! ```

pub mod config;
#[deny(missing_docs)]
pub mod ctrl_rt;
#[deny(missing_docs)]
pub mod ctx;
#[deny(missing_docs)]
pub mod dispatch;
#[deny(missing_docs)]
pub mod fault_rt;
#[deny(missing_docs)]
pub mod lifecycle;
#[deny(missing_docs)]
pub mod migration;
pub mod policy;
pub mod report;
#[deny(missing_docs)]
pub mod runtime;
#[deny(missing_docs)]
pub mod snapshot;
#[deny(missing_docs)]
pub mod sync_loop;
pub mod system;
#[deny(missing_docs)]
pub mod train_hooks;
pub(crate) mod view_cache;

pub use config::{
    Ablations, AllocatorKind, BePolicy, CloudConfig, DefragConfig, LcPolicy, TangoConfig,
    WorkloadSpec,
};
pub use report::{RunAudit, RunReport};
pub use runtime::run_parallel;
pub use snapshot::{config_fingerprint, Checkpoint, CheckpointPolicy, Resumed};
pub use system::{EdgeCloudSystem, Event};
pub use tango_faults::{FaultEvent, FaultPlan, FaultSummary, NodeChurn, NodeRef};
pub use tango_metrics::{TraceEvent, TraceLane, TraceRecorder, TraceSink};
pub use tango_snap::SnapError;
