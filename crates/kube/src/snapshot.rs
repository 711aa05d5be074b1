//! Checkpoint encoding for per-node dynamic state.
//!
//! A node's *structure* — which services are deployed, pod/container ids,
//! cgroup paths — is rebuilt deterministically from the config, so a
//! snapshot carries only what the run changed: the execution clock and
//! generation counter, in-flight requests per container, restart counts,
//! availability windows, the undrained completion buffer, and the full
//! cgroup table (which does hold structure, because limits and charges at
//! tick T are not derivable from the config).

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
    /// Encode everything a run can have changed on this node.
    pub fn snapshot_dynamic(&self, w: &mut SnapWriter) {
        self.snap_last_advance().encode(w);
        w.put_u64(self.generation());
        w.put_u64(self.snap_next_local_id());
        self.snap_finished().encode(w);
        let overlays: Vec<ContainerOverlay<&[RunningRequest]>> = self
            .container_ids()
            .into_iter()
            .map(|ctr| {
                let c = self.container(ctr).expect("listed container exists");
                let until = self.snap_unavailable_until(ctr);
                (ctr, c.restarts, until, self.running_in(ctr))
            })
            .collect();
        overlays.encode(w);
        self.cgroups.snapshot(w);
    }

    /// Overlay a [`Node::snapshot_dynamic`] payload onto a freshly built
    /// node with the same deployed services.
    pub fn restore_dynamic(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let last_advance = SimTime::decode(r)?;
        let generation = r.u64()?;
        let next_local_id = r.u64()?;
        let finished = Vec::<CompletedRequest>::decode(r)?;
        let overlays = Vec::<ContainerOverlay<Vec<RunningRequest>>>::decode(r)?;
        if overlays.len() != self.container_ids().len() {
            return Err(SnapError::Corrupt("node container count"));
        }
        self.snap_apply(last_advance, generation, next_local_id, finished);
        for (ctr, restarts, until, running) in overlays {
            self.snap_apply_container(ctr, restarts, until, running)?;
        }
        self.cgroups.restore(r)?;
        Ok(())
    }
}
