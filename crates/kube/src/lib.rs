//! A behaviour-level Kubernetes model.
//!
//! The paper's "twin space" (§6.1) simulates 100 of its 104 edge-cloud
//! clusters at the K8s *API behaviour* level: nodes, pods and containers
//! with real resource semantics, but no physical container instances —
//! request processing times come from a pressure-measured service-time
//! model. This crate is that twin space, extended to cover all clusters:
//!
//! * [`node::Node`] — a worker/master with a CGroup tree
//!   ([`tango_cgroup::CgroupFs`]), one continuously-running service pod per
//!   deployed service (paper footnote 3), and a **processor-sharing
//!   execution model**: requests inside a container share its effective
//!   CPU limit equally, each capped at its own demand, so shrinking a
//!   container's quota stretches its requests' latencies exactly the way
//!   CFS throttling does.
//! * [`Container`] — one record per deployed service: the pod and its
//!   single container (§6.2), with both cgroups, the K8s QoS class's
//!   placement (LC → Burstable, BE → BestEffort under the §4.1
//!   regulations), restarts, availability and running requests. A node
//!   keeps its records in one `Vec` in deployment order; callers find one
//!   by naming its service (a scan of about ten) or walk them all, as HRM
//!   does on every admission and completion. A [`tango_types::ContainerId`]
//!   is only a label: the cgroup names, the checkpoint overlay and
//!   [`Node::deploy_service`]'s return value.
//! * [`vpa::NativeVpa`] — the stock K8s Vertical Pod Autoscaler's
//!   delete-and-rebuild scaling (§4.2 "Pain Points"): interrupts running
//!   requests and leaves the pod unavailable for the container start-up
//!   time. D-VPA (in `tango-hrm`) is the paper's replacement.
//!
//! Admission has one entry, [`Node::admit`]: it takes the CPU work left
//! to run, so a fresh request (its service's nominal work) and a migrated
//! pod (the residue shipped from its source, see
//! [`Node::detach_request`]) go through the same container checks and
//! cgroup charge.
//!
//! Clusters (a master, its workers and their dispatch queues) are the
//! core runtime's `ClusterRt`; dispatch policies, including the
//! K8s-native round-robin baseline, live in `tango-sched`.

pub mod node;
pub mod snapshot;
pub mod vpa;

pub use node::{CompletedRequest, Container, Node, RunningRequest};
pub use vpa::NativeVpa;
