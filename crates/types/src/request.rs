//! Service requests and their lifecycle.
//!
//! A request is born at a master node (the edge access point), waits in the
//! LC or BE scheduling queue, is dispatched to a worker node (possibly in a
//! different cluster, paying WAN latency), executes inside a container, and
//! completes — or is abandoned if it cannot be placed. The timestamps
//! recorded here are what the QoS detector and all evaluation metrics are
//! computed from.

use crate::ids::{ClusterId, NodeId, RequestId};
use crate::resources::Resources;
use crate::service::{ServiceClass, ServiceId};
use crate::time::SimTime;

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Waiting in a master node's scheduling queue.
    Queued,
    /// Dispatched; in flight to (or queued at) the target worker node.
    Dispatched {
        /// The worker chosen by the scheduler.
        target: NodeId,
    },
    /// Executing inside a container on the target node.
    Running {
        /// The worker executing the request.
        target: NodeId,
    },
    /// Detached from `src` and in flight to `dst`: its execution state is
    /// being transferred over the inter-cluster link and resumes on the
    /// destination at `done_at`. The work already performed travels with
    /// the transfer, so a crash of either endpoint neither loses nor
    /// duplicates the request.
    Migrating {
        /// The node the request was detached from.
        src: NodeId,
        /// The node it will resume on.
        dst: NodeId,
        /// When the state transfer lands at `dst`.
        done_at: SimTime,
    },
}

/// Terminal status of a request. A request that reaches one leaves the
/// runtime's request table; only its count by outcome remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Completed successfully; latency = completion − arrival.
    Completed,
    /// Dropped: the scheduler could not place it before its patience/
    /// queueing bound expired (the "abandoned requests" metric of §7.2).
    Abandoned,
    /// Evicted mid-run by an LC preemption (§4.1) and re-queued too many
    /// times; counted as failed.
    Failed,
}

/// One service request flowing through the system.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Service type k.
    pub service: ServiceId,
    /// LC or BE (denormalized from the service spec for cheap access).
    pub class: ServiceClass,
    /// Cluster whose master received the request.
    pub origin: ClusterId,
    /// Time the master received the request.
    pub arrival: SimTime,
    /// Per-request resource demand (the γ^f of Eq. 4; usually the service's
    /// current minimum request, possibly adjusted by re-assurance).
    pub demand: Resources,
    /// Current lifecycle state.
    pub state: RequestState,
    /// When the request started executing (set on admission to a container).
    pub started: Option<SimTime>,
    /// Number of times this request was evicted/requeued.
    pub requeues: u32,
}

impl Request {
    /// Create a fresh queued request.
    pub fn new(
        id: RequestId,
        service: ServiceId,
        class: ServiceClass,
        origin: ClusterId,
        arrival: SimTime,
        demand: Resources,
    ) -> Self {
        Request {
            id,
            service,
            class,
            origin,
            arrival,
            demand,
            state: RequestState::Queued,
            started: None,
            requeues: 0,
        }
    }

    /// Mark the request dispatched to `target`.
    pub fn mark_dispatched(&mut self, target: NodeId) {
        self.state = RequestState::Dispatched { target };
    }

    /// Mark the request running on `target` at time `now`.
    pub fn mark_running(&mut self, target: NodeId, now: SimTime) {
        self.state = RequestState::Running { target };
        self.started = Some(now);
    }

    /// Return the request to the queued state after an eviction.
    pub fn mark_requeued(&mut self) {
        self.state = RequestState::Queued;
        self.started = None;
        self.requeues += 1;
    }

    /// Mark the request as migrating from `src` to `dst`, landing at
    /// `done_at`. Execution is suspended for the transfer; `started` is
    /// preserved so end-to-end latency still counts from first admission.
    pub fn mark_migrating(&mut self, src: NodeId, dst: NodeId, done_at: SimTime) {
        self.state = RequestState::Migrating { src, dst, done_at };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request::new(
            RequestId(1),
            ServiceId(2),
            ServiceClass::Lc,
            ClusterId(0),
            SimTime::from_millis(10),
            Resources::cpu_mem(100, 64),
        )
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut r = req();
        assert_eq!(r.state, RequestState::Queued);

        r.mark_dispatched(NodeId(5));
        assert_eq!(r.state, RequestState::Dispatched { target: NodeId(5) });

        r.mark_running(NodeId(5), SimTime::from_millis(12));
        assert_eq!(r.state, RequestState::Running { target: NodeId(5) });
        assert_eq!(r.started, Some(SimTime::from_millis(12)));
    }

    #[test]
    fn requeue_resets_execution_state() {
        let mut r = req();
        r.mark_running(NodeId(3), SimTime::from_millis(20));
        r.mark_requeued();
        assert_eq!(r.state, RequestState::Queued);
        assert_eq!(r.started, None);
        assert_eq!(r.requeues, 1);
    }

    #[test]
    fn migration_preserves_started_and_is_not_terminal() {
        let mut r = req();
        r.mark_running(NodeId(3), SimTime::from_millis(20));
        r.mark_migrating(NodeId(3), NodeId(7), SimTime::from_millis(95));
        assert_eq!(
            r.state,
            RequestState::Migrating {
                src: NodeId(3),
                dst: NodeId(7),
                done_at: SimTime::from_millis(95),
            }
        );
        assert_eq!(r.started, Some(SimTime::from_millis(20)));
        // landing resumes execution on the destination
        r.mark_running(NodeId(7), SimTime::from_millis(95));
        assert_eq!(r.state, RequestState::Running { target: NodeId(7) });
    }
}
