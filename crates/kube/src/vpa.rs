//! The stock K8s Vertical Pod Autoscaler: delete-and-rebuild scaling.
//!
//! §4.2 "Pain Points": the K8s resource list cannot be modified while
//! containers run, so the K8s-VPA plugin deletes the pod and recreates it
//! with the new limits — interrupting everything in flight and leaving the
//! service dark for the container start-up time. The paper measures
//! D-VPA's 23 ms per scaling operation as "a significant reduction … by a
//! factor of approximately 100"; we model the rebuild at that ~100× mark
//! (2.3 s), which is a typical cold container start on edge hardware.

use crate::node::{Node, RunningRequest};
use tango_types::{Resources, ServiceId, SimTime, TangoError};

/// The delete-and-rebuild vertical scaler.
#[derive(Debug, Clone)]
pub struct NativeVpa {
    /// How long the pod is unavailable while being rebuilt.
    pub rebuild_delay: SimTime,
}

impl Default for NativeVpa {
    fn default() -> Self {
        NativeVpa {
            rebuild_delay: SimTime::from_millis(2_300),
        }
    }
}

/// Result of a delete-and-rebuild scaling operation.
#[derive(Debug)]
pub struct RebuildOutcome {
    /// Requests that were interrupted and need requeueing (or failing).
    pub interrupted: Vec<RunningRequest>,
    /// When the rebuilt pod becomes available again.
    pub ready_at: SimTime,
}

impl NativeVpa {
    /// Scale `service` on `node` to `new_limit` the K8s-VPA way: kill the
    /// pod, rewrite the limits while it is down, and report when it will
    /// be back.
    pub fn scale(
        &self,
        node: &mut Node,
        service: ServiceId,
        new_limit: Resources,
        now: SimTime,
    ) -> Result<RebuildOutcome, TangoError> {
        let (pod_cg, ctr_cg) = node
            .scaling_cgroups(service)
            .ok_or_else(|| TangoError::Unschedulable(format!("{service} not on {}", node.id)))?;
        let ready_at = now + self.rebuild_delay;
        let interrupted = node.kill_container(service, now, ready_at)?;
        // With the container empty, limits can be written in any order;
        // shrink-safe order (container then pod) keeps the cgroup
        // invariants happy for both directions.
        let cur_pod = node.cgroups.limit(pod_cg);
        if new_limit.fits_within(&cur_pod) {
            node.cgroups.set_limit(ctr_cg, new_limit)?;
            node.cgroups.set_limit(pod_cg, new_limit)?;
        } else {
            node.cgroups.set_limit(pod_cg, new_limit)?;
            node.cgroups.set_limit(ctr_cg, new_limit)?;
        }
        node.touch();
        Ok(RebuildOutcome {
            interrupted,
            ready_at,
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
            Resources::new(4_000, 8_192, 1_000, 50_000),
        );
        let s = ServiceSpec {
            id: tango_types::ServiceId(0),
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

    #[test]
    fn scaling_interrupts_and_delays() {
        let (mut n, s) = setup();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let vpa = NativeVpa::default();
        let out = vpa
            .scale(
                &mut n,
                s.id,
                Resources::new(2_000, 2_048, 200, 2_000),
                SimTime::from_millis(10),
            )
            .unwrap();
        assert_eq!(out.interrupted.len(), 1);
        assert_eq!(out.ready_at, SimTime::from_millis(2_310));
        // new limit took effect
        assert_eq!(n.effective_cpu(s.id), 2_000);
        // unavailable until rebuild completes
        assert!(!n.is_available(s.id, SimTime::from_millis(2_000)));
        assert!(n.is_available(s.id, out.ready_at));
    }

    #[test]
    fn shrink_also_works() {
        let (mut n, s) = setup();
        let vpa = NativeVpa::default();
        let out = vpa
            .scale(
                &mut n,
                s.id,
                Resources::new(250, 512, 50, 500),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(out.interrupted.is_empty());
        assert_eq!(n.effective_cpu(s.id), 250);
    }

    #[test]
    fn unknown_service_errors() {
        let (mut n, _s) = setup();
        let vpa = NativeVpa::default();
        assert!(vpa
            .scale(
                &mut n,
                tango_types::ServiceId(9),
                Resources::ZERO,
                SimTime::ZERO
            )
            .is_err());
    }
}
