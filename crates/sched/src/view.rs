//! Scheduler-facing views of system state.
//!
//! The LC dispatcher reads the state storage and builds, per request type
//! k, a batch of pending requests plus the candidate nodes of the local
//! and geo-nearby clusters, each annotated with the attributes of §5.2.1
//! (X_i^k node attributes, Y_{i,j} edge attributes). The schedulers only
//! ever see these views.

use tango_types::{ClusterId, NodeId, RequestId, Resources, ServiceId, SimTime};

/// One candidate worker node as the dispatcher sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateNode {
    /// Node id.
    pub node: NodeId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// Total resources r_total (CPU/memory are what Eq. 2/7 read).
    pub total: Resources,
    /// Resources available to an LC request (idle + preemptible BE,
    /// per the §4.1 regulations).
    pub available_lc: Resources,
    /// Resources available to a BE request (idle only).
    pub available_be: Resources,
    /// The per-type minimum request (r^{c,k}, r^{m,k}) — already adjusted
    /// by the QoS re-assurance factor for this node.
    pub min_request: Resources,
    /// One-way dispatch delay from the deciding master to this node
    /// (t^delay of Y_{i,j}).
    pub delay: SimTime,
    /// Link transmission capacity from the master toward this node, in
    /// requests per dispatch round (c_{i,j} of Eq. 4).
    pub link_capacity: u32,
    /// Current QoS slack δ on this node for the type (1.0 when unknown).
    pub slack: f64,
    /// Whether the node is up. The dispatcher already filters crashed
    /// nodes out of candidate sets; schedulers additionally mask dead
    /// nodes (zero capacity, excluded from action spaces) so a stale view
    /// can never route work onto a down node.
    pub alive: bool,
}

/// What the state storage knows about one worker, as extracted by the
/// system layer: the per-node half of a candidate view, before the
/// vantage-specific annotations (delay, link capacity, min-request) are
/// attached.
#[derive(Debug, Clone)]
pub struct NodeObservation {
    /// Node id.
    pub node: NodeId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// Total resources.
    pub total: Resources,
    /// Resources available to an LC request (idle + preemptible BE).
    pub available_lc: Resources,
    /// Resources available to a BE request (idle only).
    pub available_be: Resources,
    /// QoS slack δ for the request type (1.0 when unknown).
    pub slack: f64,
}

/// The vantage-specific half of a candidate view: what the link between
/// the deciding master and the node looks like.
#[derive(Debug, Clone, Copy)]
pub struct LinkObservation {
    /// One-way dispatch delay (t^delay of Y_{i,j}).
    pub delay: SimTime,
    /// Transmission capacity in requests per dispatch round (c_{i,j}).
    pub capacity: u32,
}

impl CandidateNode {
    /// Assemble a candidate from a node observation, the link toward it,
    /// the (re-assurance-adjusted) minimum request, and the dispatcher's
    /// in-flight reservation against the node. Dead nodes must be
    /// filtered (or passed with `alive = false`) by the caller, which owns
    /// the fault view. The system's view cache builds its rows straight
    /// from the state storage; its oracle builds the reference rows
    /// through here.
    pub fn from_observation(
        obs: NodeObservation,
        link: LinkObservation,
        min_request: Resources,
        reserved: Resources,
        alive: bool,
    ) -> CandidateNode {
        CandidateNode {
            node: obs.node,
            cluster: obs.cluster,
            total: obs.total,
            available_lc: obs.available_lc.saturating_sub(&reserved),
            available_be: obs.available_be.saturating_sub(&reserved),
            min_request,
            delay: link.delay,
            link_capacity: link.capacity,
            slack: obs.slack,
            alive,
        }
    }

    /// Eq. 2 capacity: how many requests of this type the node can host
    /// right now, `min(r_ava^c / r^c, r_ava^m / r^m)`, using the LC or BE
    /// availability view. Dead nodes have no capacity.
    pub fn capacity_now(&self, lc_view: bool) -> u64 {
        if !self.alive {
            return 0;
        }
        let avail = if lc_view {
            self.available_lc
        } else {
            self.available_be
        };
        avail.capacity_for(&self.min_request)
    }

    /// Eq. 7 capacity basis: the same ratio against *total* resources.
    /// Dead nodes contribute nothing to the λ-augmented basis either —
    /// §5.2.2 overflow must route around lost capacity, not into it.
    pub fn capacity_total(&self) -> u64 {
        if !self.alive {
            return 0;
        }
        self.total.capacity_for(&self.min_request)
    }
}

/// Read access to a batch's candidate rows by index.
///
/// A plain row list implements it, and so does the system's candidate-view
/// cache, which builds a row from the state storage only when a scheduler
/// reads it. DSS-LC reads only the rows its delay walk reaches; a policy
/// that reads every row materialises them once with
/// [`CandidateRows::to_vec`].
pub trait CandidateRows {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Row `i`, for `i < len()`.
    fn row(&self, i: usize) -> CandidateNode;

    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, in index order.
    fn to_vec(&self) -> Vec<CandidateNode> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }
}

impl CandidateRows for Vec<CandidateNode> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn row(&self, i: usize) -> CandidateNode {
        self[i]
    }
}

/// The pending requests of one type at one master, with their candidates,
/// as an [`LcScheduler`] reads them: borrowed for one dispatch round.
///
/// `by_delay` is DSS-LC's fill order. Delay is a link attribute, so the
/// order is structural: the view cache derives it from its per-cluster
/// segments whenever it re-derives a view. [`TypeBatch::new`] sorts it
/// for a batch of plain rows.
#[derive(Clone, Copy)]
pub struct LcBatch<'a> {
    /// The request type k.
    pub service: ServiceId,
    /// Pending request ids (t_i^k at this master).
    pub requests: &'a [RequestId],
    /// Candidate nodes (local + geo-nearby clusters' workers).
    pub rows: &'a dyn CandidateRows,
    /// Indices into `rows` in ascending `(delay, node)` order
    /// ([`delay_order`]).
    pub by_delay: &'a [u32],
}

/// A type batch that owns plain candidate rows: what tests and benchmarks
/// build, lent to an [`LcScheduler`] by [`TypeBatch::as_lc`].
#[derive(Debug, Clone)]
pub struct TypeBatch {
    /// The request type k.
    pub service: ServiceId,
    /// Pending request ids (t_i^k at this master).
    pub requests: Vec<RequestId>,
    /// Candidate nodes (local + geo-nearby clusters' workers).
    pub nodes: Vec<CandidateNode>,
    /// Indices into `nodes` in ascending `(delay, node)` order
    /// ([`delay_order`]).
    pub by_delay: Vec<u32>,
}

impl TypeBatch {
    /// A batch over `nodes`, with its delay order sorted here.
    pub fn new(
        service: ServiceId,
        requests: Vec<RequestId>,
        nodes: Vec<CandidateNode>,
    ) -> TypeBatch {
        let by_delay = delay_order(&nodes);
        TypeBatch {
            service,
            requests,
            nodes,
            by_delay,
        }
    }

    /// Lend the batch to an [`LcScheduler`].
    pub fn as_lc(&self) -> LcBatch<'_> {
        LcBatch {
            service: self.service,
            requests: &self.requests,
            rows: &self.nodes,
            by_delay: &self.by_delay,
        }
    }
}

/// The indices of `nodes` in ascending `(delay, node)` order: the order
/// in which DSS-LC fills candidates (Eq. 3's min-cost closed form), with
/// equal delays broken by node id.
pub fn delay_order(nodes: &[CandidateNode]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
    // Unstable sort: keys are unique (one row per node), so the result
    // is identical to a stable sort and skips its buffer allocation.
    order.sort_unstable_by_key(|&i| (nodes[i as usize].delay, nodes[i as usize].node));
    order
}

/// An LC scheduling policy: map a type batch to (request → node)
/// placements. Requests left unplaced stay in the master's queue.
///
/// A batch's rows may be built on demand ([`CandidateRows`]), so a policy
/// reads only the rows it needs, and reads each as often as it likes: a
/// row is the same value for the whole call.
pub trait LcScheduler {
    /// Decide placements for one batch.
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)>;

    /// Decide placements for all of one dispatch round's per-type
    /// batches, one result per batch in batch order. The default runs
    /// [`LcScheduler::assign`] on each batch in turn; a policy that sees
    /// the round as a whole (the external proxy) overrides it.
    fn assign_many(&mut self, batches: &[LcBatch<'_>]) -> Vec<Vec<(RequestId, NodeId)>> {
        batches.iter().map(|b| self.assign(b)).collect()
    }

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Serialize the policy's mutable state for a checkpoint. Stateless
    /// policies return an empty blob (the default). Policies whose state
    /// cannot be captured (e.g. a proxy whose decisions come from an
    /// external source) return `Err` with a reason; checkpointing then
    /// fails loudly instead of resuming with silently-reset state.
    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(Vec::new())
    }

    /// Restore state captured by [`LcScheduler::snapshot_state`].
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err("policy holds no state but blob is non-empty")
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A candidate with `cap` request-slots of capacity and given delay.
    pub fn cand(id: u32, cap: u64, delay_ms: u64) -> CandidateNode {
        CandidateNode {
            node: NodeId(id),
            cluster: ClusterId(id / 8),
            total: Resources::cpu_mem(8_000, 16_384),
            available_lc: Resources::cpu_mem(cap * 500, cap * 256),
            available_be: Resources::cpu_mem(cap * 500, cap * 256),
            min_request: Resources::cpu_mem(500, 256),
            delay: SimTime::from_millis(delay_ms),
            link_capacity: 1_000,
            slack: 1.0,
            alive: true,
        }
    }

    pub fn batch(n_requests: u64, nodes: Vec<CandidateNode>) -> TypeBatch {
        TypeBatch::new(
            ServiceId(0),
            (0..n_requests).map(RequestId).collect(),
            nodes,
        )
    }

    /// Plain rows behind an accessor that records the index of every
    /// row read, as a scheduler would read the view cache's rows.
    pub struct CountingRows<'a> {
        rows: &'a [CandidateNode],
        pub reads: std::cell::RefCell<Vec<usize>>,
    }

    impl<'a> CountingRows<'a> {
        pub fn new(rows: &'a [CandidateNode]) -> Self {
            CountingRows {
                rows,
                reads: Default::default(),
            }
        }

        /// `batch` lent with these rows in place of its own.
        pub fn lend(&'a self, batch: &'a TypeBatch) -> LcBatch<'a> {
            LcBatch {
                rows: self,
                ..batch.as_lc()
            }
        }
    }

    impl CandidateRows for CountingRows<'_> {
        fn len(&self) -> usize {
            self.rows.len()
        }

        fn row(&self, i: usize) -> CandidateNode {
            self.reads.borrow_mut().push(i);
            self.rows[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::cand;
    use super::*;

    #[test]
    fn delay_order_sorts_by_delay_then_node() {
        // rows 0 and 3 tie on delay; row 0 comes first by position and
        // by cluster, row 3 by node id, which decides
        let mut nodes = vec![cand(9, 1, 5), cand(2, 1, 1), cand(7, 1, 9), cand(4, 1, 5)];
        nodes[0].cluster = ClusterId(0);
        nodes[3].cluster = ClusterId(1);
        assert_eq!(delay_order(&nodes), vec![1, 3, 0, 2]);
        let batch = TypeBatch::new(ServiceId(0), Vec::new(), nodes);
        assert_eq!(batch.by_delay, vec![1, 3, 0, 2]);
    }

    #[test]
    fn capacity_now_follows_eq2() {
        let c = cand(1, 4, 10);
        assert_eq!(c.capacity_now(true), 4);
        assert_eq!(c.capacity_now(false), 4);
    }

    #[test]
    fn capacity_total_uses_total_resources() {
        let c = cand(1, 2, 10);
        // total 8000m/16384Mi over 500m/256Mi -> min(16, 64) = 16
        assert_eq!(c.capacity_total(), 16);
    }

    #[test]
    fn dead_nodes_have_zero_capacity() {
        let mut c = cand(1, 4, 10);
        c.alive = false;
        assert_eq!(c.capacity_now(true), 0);
        assert_eq!(c.capacity_now(false), 0);
        assert_eq!(c.capacity_total(), 0);
    }
}
