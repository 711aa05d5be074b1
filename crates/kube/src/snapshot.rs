//! Checkpoint encoding for per-node dynamic state.
//!
//! A node's *structure* — which services are deployed, container ids,
//! the cgroup tree — is rebuilt deterministically from the config, so a
//! snapshot carries what the run changed: the execution clock and
//! generation counter, in-flight requests per container, restart counts,
//! availability windows, the undrained completion buffer, and the cgroup
//! limits and usage. The cgroup table also writes the tree's shape, which
//! the restore checks against the rebuilt tree (see `tango_cgroup`'s
//! `snapshot` module).

use crate::node::{CompletedRequest, Node, RunningRequest};
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ContainerId, SimTime};

snap_record!(RunningRequest {
    request,
    demand,
    remaining_work,
    admitted_at,
});

snap_record!(CompletedRequest {
    request,
    service,
    class,
    admitted_at,
});

/// One container's overlay: its id, restart count, rebuild deadline and
/// running requests.
type ContainerOverlay<R> = (ContainerId, u32, SimTime, R);

impl Node {
    /// Encode everything a run can have changed on this node, one overlay
    /// per container in deployment order.
    pub fn snapshot_dynamic(&self, w: &mut SnapWriter) {
        self.last_advance.encode(w);
        w.put_u64(self.generation);
        w.put_u64(self.next_local_id);
        self.finished.encode(w);
        let overlays: Vec<ContainerOverlay<&[RunningRequest]>> = self
            .containers
            .iter()
            .map(|c| (c.id, c.restarts, c.unavailable_until, c.running.as_slice()))
            .collect();
        overlays.encode(w);
        self.cgroups.snapshot(w);
    }

    /// Overlay a [`Node::snapshot_dynamic`] payload onto a freshly built
    /// node with the same deployed services. The i-th overlay must carry
    /// the i-th deployed container's id; any other list is corrupt.
    pub fn restore_dynamic(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let last_advance = SimTime::decode(r)?;
        let generation = r.u64()?;
        let next_local_id = r.u64()?;
        let finished = Vec::<CompletedRequest>::decode(r)?;
        let overlays = Vec::<ContainerOverlay<Vec<RunningRequest>>>::decode(r)?;
        if overlays.len() != self.containers.len() {
            return Err(SnapError::Corrupt("node container count"));
        }
        if overlays
            .iter()
            .zip(&self.containers)
            .any(|(o, c)| o.0 != c.id)
        {
            return Err(SnapError::Corrupt("container overlay id"));
        }
        self.last_advance = last_advance;
        self.generation = generation;
        self.next_local_id = next_local_id;
        self.finished = finished;
        for (c, (_, restarts, until, running)) in self.containers.iter_mut().zip(overlays) {
            c.restarts = restarts;
            c.unavailable_until = until;
            c.running = running;
        }
        self.running_total = self.containers.iter().map(|c| c.running.len()).sum();
        self.cgroups.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_types::{
        ClusterId, NodeId, RequestId, Resources, ServiceClass, ServiceId, ServiceSpec,
    };

    /// A freshly built node with three services deployed.
    fn deployed() -> Node {
        let mut n = Node::new(
            NodeId(3),
            ClusterId(0),
            false,
            Resources::new(8_000, 8_192, 1_000, 50_000),
        );
        for id in 0..3 {
            let spec = ServiceSpec {
                id: ServiceId(id),
                name: format!("svc{id}"),
                class: ServiceClass::Lc,
                min_request: Resources::cpu_mem(500, 256),
                work_milli_ms: 50_000,
                qos_target: SimTime::from_millis(300),
                payload_kib: 64,
            };
            n.deploy_service(
                &spec,
                Resources::new(1_000, 1_024, 100, 1_000),
                SimTime::ZERO,
            )
            .unwrap();
        }
        n
    }

    /// [`deployed`] with one request running in the second service.
    fn node() -> Node {
        let mut n = deployed();
        n.admit(
            RequestId(7),
            ServiceId(1),
            Resources::cpu_mem(500, 256),
            50_000.0,
            SimTime::ZERO,
        )
        .unwrap();
        n
    }

    fn dynamic_bytes(n: &Node) -> Vec<u8> {
        let mut w = SnapWriter::new();
        n.snapshot_dynamic(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_worker_with_running_requests_round_trips_byte_for_byte() {
        // Move every part of the node's state off the build's: requests
        // running in two containers, part of their work done, and the
        // second container resized in D-VPA's order (pod first).
        let mut src = node();
        src.admit(
            RequestId(8),
            ServiceId(2),
            Resources::cpu_mem(400, 128),
            30_000.0,
            SimTime::from_millis(5),
        )
        .unwrap();
        src.advance(SimTime::from_millis(20));
        let (pod, ctr) = src.scaling_cgroups(ServiceId(1)).unwrap();
        let bigger = Resources::new(2_000, 2_048, 200, 2_000);
        src.cgroups.set_limit(pod, bigger).unwrap();
        src.cgroups.set_limit(ctr, bigger).unwrap();
        let bytes = dynamic_bytes(&src);

        let mut dst = deployed();
        let mut r = SnapReader::new(&bytes);
        dst.restore_dynamic(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(dynamic_bytes(&dst), bytes);
        assert_eq!(dst.cgroups.limit(ctr), bigger);
        assert_eq!(dst.cgroups.usage(ctr), src.cgroups.usage(ctr));
        assert_eq!(dst.effective_cpu(ServiceId(1)), 2_000);
    }

    /// A `snapshot_dynamic` payload of `src` whose overlay list names
    /// `ids`, each overlay with one restart and nothing running.
    fn payload(src: &Node, ids: &[ContainerId]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        SimTime::ZERO.encode(&mut w);
        w.put_u64(src.generation());
        w.put_u64(3);
        Vec::<CompletedRequest>::new().encode(&mut w);
        let overlays: Vec<ContainerOverlay<Vec<RunningRequest>>> = ids
            .iter()
            .map(|&id| (id, 1, SimTime::ZERO, Vec::new()))
            .collect();
        overlays.encode(&mut w);
        src.cgroups.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn overlays_must_name_the_deployed_containers_in_order() {
        let src = node();
        let ids: Vec<ContainerId> = (0..3).map(|k| ContainerId(3 << 32 | k)).collect();
        let restore = |bytes: &[u8]| node().restore_dynamic(&mut SnapReader::new(bytes));

        // The honest list restores, and so does a real snapshot.
        assert!(restore(&payload(&src, &ids)).is_ok());
        assert!(restore(&dynamic_bytes(&src)).is_ok());

        // One container named twice and another omitted: the count
        // matches, but the omitted one would keep its fresh state.
        let twice = payload(&src, &[ids[0], ids[0], ids[2]]);
        assert!(matches!(restore(&twice), Err(SnapError::Corrupt(_))));
        // A container this node never deployed.
        let foreign = payload(&src, &[ids[0], ids[1], ContainerId(9 << 32)]);
        assert!(matches!(restore(&foreign), Err(SnapError::Corrupt(_))));
    }
}
