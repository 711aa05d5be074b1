//! The state storage (Fig. 3 ➋).
//!
//! Each master node keeps a store of node status for the clusters it can
//! dispatch to: resource totals and availability pushed by the
//! Prometheus-style scraper, plus the QoS slack pushed by the QoS detector.
//! The LC traffic dispatcher reads it to build its per-type graphs; the BE
//! traffic dispatcher reads the global one.
//!
//! Layout: node ids are dense (`NodeId.index()` into the system's node
//! vector), so the store keeps structure-of-arrays columns indexed by node
//! instead of a map of owned snapshots. The sync loop overwrites rows in
//! place each round ([`StateStorage::write_row`], zero steady-state
//! allocations), the candidate-view builder iterates borrowed rows
//! ([`StateStorage::row`]) without cloning, and the checkpoint codec
//! (`StateStorage::snapshot` / `StateStorage::restore`) writes and reads
//! the rows directly.

use tango_snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ClusterId, NodeId, Resources, ServiceId, SimTime};

/// Master or worker (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Edge access point, controller, decision maker.
    Master,
    /// Executes container instances.
    Worker,
}

/// A borrowed view of one node's row: its point-in-time status at the
/// last sync push. The hot read path (candidate-view rebuilds) iterates
/// these instead of cloning.
#[derive(Debug, Clone, Copy)]
pub struct StoreRow<'a> {
    /// Which node this describes.
    pub node: NodeId,
    /// The cluster it belongs to.
    pub cluster: ClusterId,
    /// Master or worker.
    pub role: NodeRole,
    /// Total allocatable resources.
    pub total: Resources,
    /// Currently idle resources.
    pub available: Resources,
    /// Resources held by (preemptible) BE services.
    pub be_held: Resources,
    /// Per-service QoS slack δ at the last detector push, sparse pairs
    /// in ascending service order.
    pub slack: &'a [(ServiceId, f64)],
    /// Per-service pending request counts (masters only: the t_i^k > 0
    /// side of Eq. 2), sparse pairs in ascending service order.
    pub pending: &'a [(ServiceId, u32)],
    /// When this row was written.
    pub updated_at: SimTime,
}

impl StoreRow<'_> {
    /// Resources an LC request may draw on: idle plus preemptible BE
    /// holdings (§4.1 — "resources available for scheduling and processing
    /// LC service requests include both idle resources and resources
    /// currently being used by BE services").
    pub fn lc_available(&self) -> Resources {
        self.available + self.be_held
    }

    /// Resources a BE request may draw on (idle only).
    pub fn be_available(&self) -> Resources {
        self.available
    }

    /// Slack δ for one service, if the detector had a signal.
    pub fn slack_for(&self, service: ServiceId) -> Option<f64> {
        self.slack
            .iter()
            .find(|(s, _)| *s == service)
            .map(|&(_, v)| v)
    }
}

/// Whether sparse per-service pairs are in strictly ascending service order.
fn ascending<V>(pairs: &[(ServiceId, V)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Dense structure-of-arrays snapshot store, indexed by node id.
#[derive(Debug, Default)]
pub struct StateStorage {
    present: Vec<bool>,
    clusters: Vec<ClusterId>,
    roles: Vec<NodeRole>,
    totals: Vec<Resources>,
    available: Vec<Resources>,
    be_held: Vec<Resources>,
    updated_at: Vec<SimTime>,
    slack: Vec<Vec<(ServiceId, f64)>>,
    pending: Vec<Vec<(ServiceId, u32)>>,
}

impl StateStorage {
    /// Create an empty store.
    pub fn new() -> Self {
        StateStorage::default()
    }

    fn ensure(&mut self, len: usize) {
        if self.present.len() >= len {
            return;
        }
        self.present.resize(len, false);
        self.clusters.resize(len, ClusterId(0));
        self.roles.resize(len, NodeRole::Worker);
        self.totals.resize(len, Resources::ZERO);
        self.available.resize(len, Resources::ZERO);
        self.be_held.resize(len, Resources::ZERO);
        self.updated_at.resize(len, SimTime::ZERO);
        self.slack.resize_with(len, Vec::new);
        self.pending.resize_with(len, Vec::new);
    }

    /// Overwrite one node's row in place — the sync loop's hot write path.
    /// `slack` / `pending` are sparse per-service pairs in strictly
    /// ascending service order (the order the checkpoint codec writes and
    /// requires); they replace the previous row's wholesale.
    #[allow(clippy::too_many_arguments)]
    pub fn write_row(
        &mut self,
        node: NodeId,
        cluster: ClusterId,
        role: NodeRole,
        total: Resources,
        available: Resources,
        be_held: Resources,
        slack: &[(ServiceId, f64)],
        pending: &[(ServiceId, u32)],
        updated_at: SimTime,
    ) {
        debug_assert!(ascending(slack) && ascending(pending));
        let i = node.index();
        self.ensure(i + 1);
        self.present[i] = true;
        self.clusters[i] = cluster;
        self.roles[i] = role;
        self.totals[i] = total;
        self.available[i] = available;
        self.be_held[i] = be_held;
        self.updated_at[i] = updated_at;
        self.slack[i].clear();
        self.slack[i].extend_from_slice(slack);
        self.pending[i].clear();
        self.pending[i].extend_from_slice(pending);
    }

    /// Upper bound on row indices (not all slots need be present).
    pub fn rows(&self) -> usize {
        self.present.len()
    }

    /// Borrowed view of one row by *index*; `None` for absent slots.
    pub fn row(&self, i: usize) -> Option<StoreRow<'_>> {
        if !*self.present.get(i)? {
            return None;
        }
        Some(StoreRow {
            node: NodeId(i as u32),
            cluster: self.clusters[i],
            role: self.roles[i],
            total: self.totals[i],
            available: self.available[i],
            be_held: self.be_held[i],
            slack: &self.slack[i],
            pending: &self.pending[i],
            updated_at: self.updated_at[i],
        })
    }

    /// Number of nodes known.
    pub fn len(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// `true` if no snapshots have been pushed yet.
    pub fn is_empty(&self) -> bool {
        !self.present.iter().any(|&p| p)
    }
}

impl StateStorage {
    /// Encode every present row, in node-id order: the count, then per
    /// row its node, cluster, role, the three resource vectors, the slack
    /// and pending pairs (each count-prefixed) and the push time.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for row in (0..self.rows()).filter_map(|i| self.row(i)) {
            row.node.encode(w);
            row.cluster.encode(w);
            row.role.encode(w);
            row.total.encode(w);
            row.available.encode(w);
            row.be_held.encode(w);
            row.slack.encode(w);
            row.pending.encode(w);
            row.updated_at.encode(w);
        }
    }

    /// Overlay a [`snapshot`](Self::snapshot) payload onto a store for a
    /// system of `nodes` nodes: each decoded row replaces whatever the
    /// store held for that node. A row naming a node id outside `0..nodes`,
    /// or service pairs out of ascending order or repeated, is
    /// [`SnapError::Corrupt`] — nothing is sized from the bytes alone.
    pub fn restore(&mut self, r: &mut SnapReader<'_>, nodes: usize) -> Result<(), SnapError> {
        for _ in 0..r.len_prefix()? {
            let i = NodeId::decode(r)?.index();
            if i >= nodes {
                return Err(SnapError::Corrupt("store row node id"));
            }
            self.ensure(i + 1);
            self.present[i] = true;
            self.clusters[i] = ClusterId::decode(r)?;
            self.roles[i] = NodeRole::decode(r)?;
            self.totals[i] = Resources::decode(r)?;
            self.available[i] = Resources::decode(r)?;
            self.be_held[i] = Resources::decode(r)?;
            self.slack[i] = decode_pairs(r)?;
            self.pending[i] = decode_pairs(r)?;
            self.updated_at[i] = SimTime::decode(r)?;
        }
        Ok(())
    }
}

/// Decode count-prefixed `(service, value)` pairs, rejecting pairs out
/// of ascending service order or repeated.
fn decode_pairs<V: SnapDecode>(r: &mut SnapReader<'_>) -> Result<Vec<(ServiceId, V)>, SnapError> {
    let pairs = Vec::decode(r)?;
    if !ascending(&pairs) {
        return Err(SnapError::Corrupt("store row service order"));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_row(store: &mut StateStorage, node: u32, cluster: u32, avail_cpu: u64) {
        store.write_row(
            NodeId(node),
            ClusterId(cluster),
            NodeRole::Worker,
            Resources::cpu_mem(4_000, 8_192),
            Resources::cpu_mem(avail_cpu, 1_024),
            Resources::cpu_mem(500, 512),
            &[],
            &[],
            SimTime::ZERO,
        );
    }

    #[test]
    fn lc_sees_idle_plus_preemptible_be() {
        let mut store = StateStorage::new();
        worker_row(&mut store, 1, 0, 1_000);
        let row = store.row(1).unwrap();
        assert_eq!(row.lc_available().cpu_milli, 1_500);
        assert_eq!(row.be_available().cpu_milli, 1_000);
    }

    #[test]
    fn write_row_replaces_in_place() {
        let mut store = StateStorage::new();
        assert!(store.is_empty());
        worker_row(&mut store, 1, 0, 100);
        worker_row(&mut store, 1, 0, 200);
        assert_eq!(store.len(), 1);
        assert_eq!(store.row(1).unwrap().available.cpu_milli, 200);
        assert!(store.row(9).is_none());
    }

    #[test]
    fn write_row_and_row_views_round_trip() {
        let mut store = StateStorage::new();
        let slack = [(ServiceId(1), 0.5), (ServiceId(2), -0.25)];
        let pending = [(ServiceId(1), 3u32)];
        store.write_row(
            NodeId(2),
            ClusterId(0),
            NodeRole::Master,
            Resources::cpu_mem(8_000, 16_384),
            Resources::cpu_mem(4_000, 8_192),
            Resources::cpu_mem(1_000, 512),
            &slack,
            &pending,
            SimTime::from_millis(100),
        );
        // slot 0/1 were never written
        assert!(store.row(0).is_none());
        assert!(store.row(1).is_none());
        let row = store.row(2).expect("row 2 present");
        assert_eq!(row.node, NodeId(2));
        assert_eq!(row.slack_for(ServiceId(2)), Some(-0.25));
        assert_eq!(row.slack_for(ServiceId(9)), None);
        assert_eq!(row.lc_available().cpu_milli, 5_000);
        assert_eq!(row.pending, &pending);
        assert_eq!(store.len(), 1);
    }
}
