//! An in-memory model of the Linux CGroup hierarchy as Kubernetes lays it
//! out (`/sys/fs/cgroup/.../kubepods/<qos>/<pod>/<container>`).
//!
//! Tango's D-VPA (§4.2, Fig. 5) scales pods **without** the delete-and-
//! rebuild dance of the stock K8s VPA by writing resource limits directly
//! into the pod-level and container-level CGroups — and the paper stresses
//! that those writes "must be sequential to prevent failure": on expansion
//! the pod-level group grows first, then the container; on shrinking the
//! order reverses. This crate reproduces exactly the kernel-side semantics
//! that make that ordering mandatory:
//!
//! * a child's limit may never exceed its parent's limit (the write is
//!   rejected, as the kernel rejects an over-parent `cpu.cfs_quota_us` /
//!   the limit would be ineffective for memory);
//! * an incompressible limit (memory, disk) cannot be shrunk below current
//!   usage (the kernel returns `EBUSY`);
//! * usage is charged against every ancestor, so "effective capacity" is
//!   the minimum over the path to the root.
//!
//! Tango's pods run continuously and D-VPA resizes them in place, so a
//! node's tree keeps the shape it had once its services were deployed
//! ([`CgroupFs`]); the model keeps only each group's current limit and
//! usage, and no history of writes. D-VPA counts its own control-file
//! writes (`ScaleOutcome::writes`), and the rejection rules above are what
//! pin its write order.

pub mod fs;
pub mod snapshot;

pub use fs::{CgroupFs, CgroupId, QosLevel};
