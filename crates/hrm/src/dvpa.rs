//! The D-VPA component (§4.2, Fig. 5).
//!
//! Scales a *running* pod by writing its CGroup control files directly —
//! no delete-and-rebuild, no interruption. The kernel-faithful hierarchy
//! in `tango-cgroup` rejects out-of-order writes, so the sequencing here
//! is load-bearing:
//!
//! * pure expansion: pod-level first, then container-level;
//! * pure shrink: container-level first, then pod-level;
//! * mixed per-dimension changes: raise the pod to the element-wise max
//!   first, write the container target, then settle the pod on the target
//!   (at most three writes).
//!
//! Incompressible dimensions are clamped to current usage before writing —
//! the kernel would return `EBUSY` otherwise; the remaining shrink happens
//! naturally as requests complete and usage drains.

use tango_cgroup::CgroupId;
use tango_kube::Node;
use tango_types::{ResourceKind, Resources, ServiceId, SimTime, TangoError};

/// Result of one D-VPA scaling operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Control-file writes performed (2 for pure expand/shrink, 3 mixed,
    /// 0 when already at target).
    pub writes: u32,
    /// When the operation finished (now + per-op latency).
    pub completed_at: SimTime,
    /// The limit actually applied (after usage clamping).
    pub applied: Resources,
}

/// The dynamic vertical pod autoscaler.
#[derive(Debug, Clone)]
pub struct Dvpa {
    /// Modeled latency of one scaling operation. The paper measures 23 ms.
    pub op_latency: SimTime,
    /// Total scaling operations performed.
    pub ops: u64,
    /// Total control-file writes performed.
    pub total_writes: u64,
}

impl Default for Dvpa {
    fn default() -> Self {
        Dvpa {
            op_latency: SimTime::from_millis(23),
            ops: 0,
            total_writes: 0,
        }
    }
}

impl Dvpa {
    /// Scale `service` on `node` to `target` without interrupting it.
    pub fn scale(
        &mut self,
        node: &mut Node,
        service: ServiceId,
        target: Resources,
        now: SimTime,
    ) -> Result<ScaleOutcome, TangoError> {
        let cgroups = node
            .scaling_cgroups(service)
            .ok_or_else(|| TangoError::Unschedulable(format!("{service} not on {}", node.id)))?;
        self.scale_cgroups(node, cgroups, target, now)
    }

    /// [`Self::scale`] for a container whose `(pod, container)` cgroups
    /// the caller already holds ([`tango_kube::node::Container::scaling_cgroups`]).
    pub fn scale_cgroups(
        &mut self,
        node: &mut Node,
        (pod_cg, ctr_cg): (CgroupId, CgroupId),
        target: Resources,
        now: SimTime,
    ) -> Result<ScaleOutcome, TangoError> {
        // Usage clamp on incompressible dimensions.
        let usage = node.cgroups.usage(ctr_cg);
        let mut target = target;
        for kind in [ResourceKind::Memory, ResourceKind::Disk] {
            if target.get(kind) < usage.get(kind) {
                target.set(kind, usage.get(kind));
            }
        }

        let cur_pod = node.cgroups.limit(pod_cg);
        let cur_ctr = node.cgroups.limit(ctr_cg);
        if cur_pod == target && cur_ctr == target {
            return Ok(ScaleOutcome {
                writes: 0,
                completed_at: now,
                applied: target,
            });
        }

        let mut writes = 0u32;
        // Phase 1: make room at the pod level (expand-dims first).
        let pod_tmp = cur_pod.max(&target);
        if pod_tmp != cur_pod {
            node.cgroups.set_limit(pod_cg, pod_tmp)?;
            writes += 1;
        }
        // Phase 2: the container target is now always legal.
        if cur_ctr != target {
            node.cgroups.set_limit(ctr_cg, target)?;
            writes += 1;
        }
        // Phase 3: settle the pod on the target (shrink-dims last).
        if pod_tmp != target {
            node.cgroups.set_limit(pod_cg, target)?;
            writes += 1;
        }

        node.touch();
        self.ops += 1;
        self.total_writes += writes as u64;
        Ok(ScaleOutcome {
            writes,
            completed_at: now + self.op_latency,
            applied: target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_types::{ClusterId, NodeId, RequestId, ServiceClass, ServiceSpec};

    fn setup() -> (Node, ServiceSpec) {
        let mut n = Node::new(
            NodeId(1),
            ClusterId(0),
            false,
            Resources::new(8_000, 16_384, 1_000, 50_000),
        );
        let s = ServiceSpec {
            id: ServiceId(0),
            name: "svc".into(),
            class: ServiceClass::Lc,
            min_request: Resources::cpu_mem(500, 256),
            work_milli_ms: 50_000,
            qos_target: SimTime::from_millis(300),
            payload_kib: 64,
        };
        n.deploy_service(&s, Resources::new(1_000, 1_024, 100, 1_000), SimTime::ZERO)
            .unwrap();
        (n, s)
    }

    /// The (pod, container) limits of `service` on `n`.
    fn limits(n: &Node, service: ServiceId) -> (Resources, Resources) {
        let (pod_cg, ctr_cg) = n.scaling_cgroups(service).unwrap();
        (n.cgroups.limit(pod_cg), n.cgroups.limit(ctr_cg))
    }

    #[test]
    fn pure_expand_is_two_writes_pod_first() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        let target = Resources::new(2_000, 2_048, 200, 2_000);
        let out = dvpa.scale(&mut n, s.id, target, SimTime::ZERO).unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(out.completed_at, SimTime::from_millis(23));
        // the container write only lands under an already-grown pod
        assert_eq!(limits(&n, s.id), (target, target));
    }

    #[test]
    fn pure_shrink_is_two_writes_container_first() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        let target = Resources::new(400, 512, 50, 500);
        let out = dvpa.scale(&mut n, s.id, target, SimTime::ZERO).unwrap();
        assert_eq!(out.writes, 2);
        // the pod write only lands over an already-shrunk container
        assert_eq!(limits(&n, s.id), (target, target));
    }

    #[test]
    fn mixed_change_is_three_writes() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        // grow CPU, shrink memory
        let out = dvpa
            .scale(
                &mut n,
                s.id,
                Resources::new(2_000, 512, 100, 1_000),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.writes, 3);
        assert_eq!(n.effective_cpu(s.id), 2_000);
    }

    #[test]
    fn scaling_does_not_interrupt_running_requests() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        dvpa.scale(
            &mut n,
            s.id,
            Resources::new(2_000, 2_048, 200, 2_000),
            SimTime::from_millis(10),
        )
        .unwrap();
        // request still running, container still available
        assert_eq!(n.running_count(), 1);
        assert!(n.is_available(s.id, SimTime::from_millis(10)));
        // and it completes on schedule (500m cap unchanged -> 100ms)
        n.advance(SimTime::from_millis(100));
        assert_eq!(n.take_completions().len(), 1);
    }

    #[test]
    fn incompressible_shrink_clamps_to_usage() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap(); // charges 256 MiB
        let out = dvpa
            .scale(
                &mut n,
                s.id,
                Resources::new(500, 100, 50, 500),
                SimTime::ZERO,
            )
            .unwrap();
        // memory clamped to the 256 MiB in use; disk clamped to charged 64
        assert_eq!(out.applied.memory_mib, 256);
        assert!(out.applied.disk_mib >= 64);
    }

    #[test]
    fn noop_scale_is_free() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        let cur = Resources::new(1_000, 1_024, 100, 1_000);
        let out = dvpa
            .scale(&mut n, s.id, cur, SimTime::from_millis(5))
            .unwrap();
        assert_eq!(out.writes, 0);
        assert_eq!(out.completed_at, SimTime::from_millis(5));
        assert_eq!(dvpa.ops, 0, "a no-op is not a scaling operation");
        assert_eq!(dvpa.total_writes, 0);
    }

    #[test]
    fn op_accounting_accumulates() {
        let (mut n, s) = setup();
        let mut dvpa = Dvpa::default();
        dvpa.scale(
            &mut n,
            s.id,
            Resources::new(2_000, 2_048, 200, 2_000),
            SimTime::ZERO,
        )
        .unwrap();
        dvpa.scale(
            &mut n,
            s.id,
            Resources::new(500, 512, 50, 500),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(dvpa.ops, 2);
        assert_eq!(dvpa.total_writes, 4);
    }

    #[test]
    fn unknown_service_errors() {
        let (mut n, _s) = setup();
        let mut dvpa = Dvpa::default();
        assert!(dvpa
            .scale(&mut n, ServiceId(99), Resources::ZERO, SimTime::ZERO)
            .is_err());
    }
}
