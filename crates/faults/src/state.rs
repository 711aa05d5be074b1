//! Runtime fault bookkeeping: which nodes are down, crash epochs, and the
//! summary the run report surfaces.
//!
//! Since the delegated-orchestration work the state distinguishes a
//! node being **physically down** (its containers died) from being
//! **detected down** (the control plane knows). Every crash registers
//! physically first ([`FaultState::on_phys_crash`]) and is promoted to
//! detected by [`FaultState::mark_detected`]: in the same event under
//! the oracle fault model, when the health detector trips under
//! keep-alive detection. Work that was running on the node at crash
//! time parks in a per-node *limbo* until detection or recovery decides
//! its fate.

use tango_types::{NodeId, RequestId, ServiceClass, SimTime};

/// Aggregated fault accounting for a run. All counters are cumulative;
/// [`FaultState::settle`] folds still-open downtime in at the horizon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Node crashes executed (idempotent duplicates not counted).
    pub node_crashes: u64,
    /// Node recoveries executed.
    pub node_recoveries: u64,
    /// Crashes that hit a cluster master (failover routing engaged).
    pub master_failovers: u64,
    /// Link degradations applied.
    pub links_degraded: u64,
    /// Link restorations applied.
    pub links_restored: u64,
    /// Partitions applied.
    pub partitions: u64,
    /// Partitions healed.
    pub heals: u64,
    /// LC requests interrupted mid-execution by a crash.
    pub lc_interrupted: u64,
    /// BE requests interrupted mid-execution by a crash.
    pub be_interrupted: u64,
    /// Requests drained out of a crashed node's wait queue.
    pub wait_drained: u64,
    /// In-flight deliveries that bounced off a crashed target.
    pub bounced_deliveries: u64,
    /// Total requests pushed back into scheduling queues because of a
    /// fault (interrupted + drained + bounced); some of these may later
    /// exhaust their requeue budget and fail.
    pub rescheduled: u64,
    /// Dispatch decisions that targeted a down node. The candidate
    /// masking makes this impossible; it is counted (rather than assumed)
    /// so the invariant tests can assert it stays zero.
    pub down_node_dispatches: u64,
    /// Sum of per-node downtime over the run.
    pub total_downtime: SimTime,
    /// LC completions that missed their QoS target while a fault (node
    /// down, link degraded, or partition) was active.
    pub fault_qos_violations: u64,
}

/// Live fault state, indexed by node.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Detected-down flags: what dispatch masking, candidate views and
    /// failover routing read. Under the oracle model this is also the
    /// physical truth.
    down: Vec<bool>,
    /// Physically-down flags: the ground truth the keep-alive detector
    /// works toward. `phys_down[i] && !down[i]` is the undetected window.
    phys_down: Vec<bool>,
    /// Work interrupted by an undetected crash, parked per node until
    /// detection (requeue then) or recovery (requeue at recovery).
    limbo_run: Vec<Vec<(ServiceClass, RequestId)>>,
    down_since: Vec<SimTime>,
    /// Bumped on every crash: deliveries scheduled before the crash carry
    /// the old epoch and are bounced instead of touching post-recovery
    /// reservations.
    epochs: Vec<u64>,
    down_count: u32,
    active_link_faults: u32,
    partition_active: bool,
    /// Cumulative fault accounting.
    pub summary: FaultSummary,
}

impl FaultState {
    /// State for a system of `n_nodes` nodes, all up.
    pub fn new(n_nodes: usize) -> Self {
        FaultState {
            down: vec![false; n_nodes],
            phys_down: vec![false; n_nodes],
            limbo_run: vec![Vec::new(); n_nodes],
            down_since: vec![SimTime::ZERO; n_nodes],
            epochs: vec![0; n_nodes],
            down_count: 0,
            active_link_faults: 0,
            partition_active: false,
            summary: FaultSummary::default(),
        }
    }

    /// Whether a node is currently *detected* down — what schedulers,
    /// dispatch masking and failover routing act on.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Whether a node is *physically* down, detected or not.
    pub fn is_phys_down(&self, node: NodeId) -> bool {
        self.phys_down[node.index()]
    }

    /// Physically-down flags in node order.
    pub fn phys_down_slice(&self) -> &[bool] {
        &self.phys_down
    }

    /// The node's current crash epoch.
    pub fn epoch(&self, node: NodeId) -> u64 {
        self.epochs[node.index()]
    }

    /// Down flags in node order (for bulk masking).
    pub fn down_slice(&self) -> &[bool] {
        &self.down
    }

    /// Whether any fault (down node, degraded link, partition) is active —
    /// the "fault window" that QoS violations are attributed to.
    pub fn any_fault_active(&self) -> bool {
        self.down_count > 0 || self.active_link_faults > 0 || self.partition_active
    }

    /// Register a physical crash that the control plane has *not* yet
    /// detected: the node's containers die and its epoch bumps, but
    /// `is_down` stays `false` until [`FaultState::mark_detected`] (which
    /// the oracle fault model calls in the same event).
    /// Returns `false` if the node is already physically down.
    pub fn on_phys_crash(&mut self, node: NodeId, now: SimTime, is_master: bool) -> bool {
        let i = node.index();
        if self.phys_down[i] {
            return false;
        }
        self.phys_down[i] = true;
        self.down_since[i] = now;
        self.epochs[i] += 1;
        self.down_count += 1;
        self.summary.node_crashes += 1;
        if is_master {
            self.summary.master_failovers += 1;
        }
        true
    }

    /// Promote a physical crash to detected (the keep-alive detector
    /// tripped). Returns `false` when the node is not physically down or
    /// is already detected.
    pub fn mark_detected(&mut self, node: NodeId) -> bool {
        let i = node.index();
        if !self.phys_down[i] || self.down[i] {
            return false;
        }
        self.down[i] = true;
        true
    }

    /// How long the node has been physically down, for detection-lag
    /// accounting. Meaningless unless [`FaultState::is_phys_down`].
    pub fn down_duration(&self, node: NodeId, now: SimTime) -> SimTime {
        now.saturating_since(self.down_since[node.index()])
    }

    /// Park work interrupted by an undetected crash on the node's limbo
    /// list.
    pub fn push_limbo(&mut self, node: NodeId, items: Vec<(ServiceClass, RequestId)>) {
        self.limbo_run[node.index()].extend(items);
    }

    /// Every request parked in some node's limbo, in node order.
    pub fn limbo(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.limbo_run.iter().flatten().map(|&(_, rid)| rid)
    }

    /// Take (and clear) the node's limbo list — at detection or
    /// recovery, whichever comes first.
    pub fn take_limbo(&mut self, node: NodeId) -> Vec<(ServiceClass, RequestId)> {
        std::mem::take(&mut self.limbo_run[node.index()])
    }

    /// Register a recovery. Returns `false` if the node was not
    /// physically down. Clears both flags: a recovery observed before
    /// detection simply closes the undetected window.
    pub fn on_recover(&mut self, node: NodeId, now: SimTime) -> bool {
        let i = node.index();
        if !self.phys_down[i] {
            return false;
        }
        self.phys_down[i] = false;
        self.down[i] = false;
        self.down_count -= 1;
        self.summary.node_recoveries += 1;
        self.summary.total_downtime += now.saturating_since(self.down_since[i]);
        true
    }

    /// Register a link degradation.
    pub fn on_link_degrade(&mut self) {
        self.active_link_faults += 1;
        self.summary.links_degraded += 1;
    }

    /// Register a link restoration.
    pub fn on_link_restore(&mut self) {
        self.active_link_faults = self.active_link_faults.saturating_sub(1);
        self.summary.links_restored += 1;
    }

    /// Register a partition.
    pub fn on_partition(&mut self) {
        self.partition_active = true;
        self.summary.partitions += 1;
    }

    /// Register a heal.
    pub fn on_heal(&mut self) {
        self.partition_active = false;
        self.summary.heals += 1;
    }

    /// Encode the full fault state for a checkpoint: per-node down flags,
    /// down-since stamps and crash epochs, the active-fault windows and
    /// the cumulative summary.
    pub fn snapshot(&self, w: &mut tango_snap::SnapWriter) {
        use tango_snap::SnapEncode;
        self.down.encode(w);
        self.down_since.encode(w);
        self.epochs.encode(w);
        w.put_u32(self.down_count);
        w.put_u32(self.active_link_faults);
        w.put_bool(self.partition_active);
        self.summary.encode(w);
        self.phys_down.encode(w);
        self.limbo_run.encode(w);
    }

    /// Restore state captured by [`FaultState::snapshot`]. The node count
    /// must match the one this state was built with.
    pub fn restore(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        use tango_snap::{SnapDecode, SnapError};
        let down = Vec::<bool>::decode(r)?;
        let down_since = Vec::<SimTime>::decode(r)?;
        let epochs = Vec::<u64>::decode(r)?;
        if down.len() != self.down.len()
            || down_since.len() != self.down.len()
            || epochs.len() != self.down.len()
        {
            return Err(SnapError::Corrupt("fault state node count"));
        }
        self.down = down;
        self.down_since = down_since;
        self.epochs = epochs;
        self.down_count = r.u32()?;
        self.active_link_faults = r.u32()?;
        self.partition_active = r.bool()?;
        self.summary = crate::FaultSummary::decode(r)?;
        let phys_down = Vec::<bool>::decode(r)?;
        if phys_down.len() != self.down.len() {
            return Err(SnapError::Corrupt("fault state node count"));
        }
        self.phys_down = phys_down;
        let limbo_run = Vec::<Vec<(ServiceClass, RequestId)>>::decode(r)?;
        if limbo_run.len() != self.down.len() {
            return Err(SnapError::Corrupt("fault state node count"));
        }
        self.limbo_run = limbo_run;
        Ok(())
    }

    /// Fold downtime of nodes still down at the horizon into the summary.
    pub fn settle(&mut self, horizon: SimTime) {
        for i in 0..self.phys_down.len() {
            if self.phys_down[i] {
                self.summary.total_downtime += horizon.saturating_since(self.down_since[i]);
                // keep the node marked down; settle is terminal
                self.down_since[i] = horizon;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_recover_tracks_downtime_and_epochs() {
        let mut s = FaultState::new(4);
        assert!(!s.any_fault_active());
        assert!(s.on_phys_crash(NodeId(2), SimTime::from_secs(1), false));
        assert!(s.mark_detected(NodeId(2)));
        assert!(s.is_down(NodeId(2)));
        assert_eq!(s.epoch(NodeId(2)), 1);
        assert!(s.any_fault_active());
        // duplicate crash is a no-op
        assert!(!s.on_phys_crash(NodeId(2), SimTime::from_secs(2), false));
        assert_eq!(s.summary.node_crashes, 1);
        assert!(s.on_recover(NodeId(2), SimTime::from_secs(4)));
        assert!(!s.is_down(NodeId(2)));
        assert!(!s.any_fault_active());
        assert_eq!(s.summary.total_downtime, SimTime::from_secs(3));
        // recover of an up node is a no-op
        assert!(!s.on_recover(NodeId(2), SimTime::from_secs(5)));
        // a second crash bumps the epoch again
        assert!(s.on_phys_crash(NodeId(2), SimTime::from_secs(6), true));
        assert_eq!(s.epoch(NodeId(2)), 2);
        assert_eq!(s.summary.master_failovers, 1);
    }

    #[test]
    fn undetected_crash_is_invisible_until_marked() {
        let mut s = FaultState::new(2);
        assert!(s.on_phys_crash(NodeId(1), SimTime::from_secs(1), false));
        assert!(s.is_phys_down(NodeId(1)));
        assert!(!s.is_down(NodeId(1)));
        assert_eq!(s.epoch(NodeId(1)), 1);
        assert!(s.any_fault_active());
        s.push_limbo(NodeId(1), vec![(ServiceClass::Lc, RequestId(7))]);
        // detector trips: now visible, limbo drains once
        assert!(s.mark_detected(NodeId(1)));
        assert!(s.is_down(NodeId(1)));
        assert!(!s.mark_detected(NodeId(1)));
        assert_eq!(
            s.down_duration(NodeId(1), SimTime::from_secs(3)),
            SimTime::from_secs(2)
        );
        assert_eq!(
            s.take_limbo(NodeId(1)),
            vec![(ServiceClass::Lc, RequestId(7))]
        );
        assert!(s.take_limbo(NodeId(1)).is_empty());
        assert!(s.on_recover(NodeId(1), SimTime::from_secs(4)));
        assert_eq!(s.summary.total_downtime, SimTime::from_secs(3));
    }

    #[test]
    fn recovery_before_detection_closes_the_window() {
        let mut s = FaultState::new(1);
        s.on_phys_crash(NodeId(0), SimTime::from_secs(1), false);
        assert!(s.on_recover(NodeId(0), SimTime::from_secs(2)));
        assert!(!s.is_down(NodeId(0)));
        assert!(!s.is_phys_down(NodeId(0)));
        assert!(!s.mark_detected(NodeId(0)));
        assert!(!s.any_fault_active());
    }

    #[test]
    fn settle_accounts_open_downtime() {
        let mut s = FaultState::new(2);
        s.on_phys_crash(NodeId(0), SimTime::from_secs(7), false);
        s.settle(SimTime::from_secs(10));
        assert_eq!(s.summary.total_downtime, SimTime::from_secs(3));
    }

    #[test]
    fn link_and_partition_windows_nest() {
        let mut s = FaultState::new(1);
        s.on_link_degrade();
        s.on_partition();
        assert!(s.any_fault_active());
        s.on_link_restore();
        assert!(s.any_fault_active());
        s.on_heal();
        assert!(!s.any_fault_active());
        assert_eq!(
            (
                s.summary.links_degraded,
                s.summary.links_restored,
                s.summary.partitions,
                s.summary.heals
            ),
            (1, 1, 1, 1)
        );
    }
}
