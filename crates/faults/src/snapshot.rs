//! Checkpoint codecs for fault events and accounting.
//!
//! [`FaultEvent`]s live inside the simulation event queue and must survive
//! a checkpoint so a restored run replays the exact fault schedule; the
//! [`FaultSummary`] is cumulative accounting that the run report surfaces.
//! The live [`crate::FaultState`] snapshot lives next to the state itself
//! in `state.rs` (its fields are module-private).

use crate::plan::FaultEvent;
use crate::state::FaultSummary;
use tango_snap::{snap_enum, snap_record};

snap_enum!(FaultEvent, "fault event tag" {
    0 => NodeCrash { node },
    1 => NodeRecover { node },
    2 => LinkDegrade { a, b, latency_factor, bandwidth_factor },
    3 => LinkRestore { a, b },
    4 => Partition { side },
    5 => Heal,
});

snap_record!(FaultSummary {
    node_crashes,
    node_recoveries,
    master_failovers,
    links_degraded,
    links_restored,
    partitions,
    heals,
    lc_interrupted,
    be_interrupted,
    wait_drained,
    bounced_deliveries,
    rescheduled,
    down_node_dispatches,
    total_downtime,
    fault_qos_violations,
});

#[cfg(test)]
mod tests {
    use crate::FaultState;
    use tango_snap::{SnapError, SnapReader, SnapWriter};
    use tango_types::{NodeId, SimTime};

    #[test]
    fn fault_state_round_trips_mid_incident() {
        let mut s = FaultState::new(4);
        s.on_phys_crash(NodeId(1), SimTime::from_secs(2), false);
        s.mark_detected(NodeId(1));
        s.on_phys_crash(NodeId(2), SimTime::from_secs(3), true);
        s.mark_detected(NodeId(2));
        s.on_recover(NodeId(1), SimTime::from_secs(4));
        s.on_link_degrade();
        s.on_partition();
        s.summary.rescheduled = 7;

        let mut w = SnapWriter::new();
        s.snapshot(&mut w);
        let bytes = w.into_bytes();

        let mut back = FaultState::new(4);
        let mut r = SnapReader::new(&bytes);
        back.restore(&mut r).unwrap();
        assert!(r.is_empty());
        assert!(!back.is_down(NodeId(1)));
        assert!(back.is_down(NodeId(2)));
        assert_eq!(back.epoch(NodeId(1)), 1);
        assert_eq!(back.epoch(NodeId(2)), 1);
        assert!(back.any_fault_active());
        assert_eq!(back.summary, s.summary);
        // settling both from the same point must agree (down_since restored)
        back.settle(SimTime::from_secs(10));
        s.settle(SimTime::from_secs(10));
        assert_eq!(back.summary.total_downtime, s.summary.total_downtime);
    }

    #[test]
    fn fault_state_restore_rejects_node_count_mismatch() {
        let mut s = FaultState::new(4);
        s.on_phys_crash(NodeId(0), SimTime::from_secs(1), false);
        let mut w = SnapWriter::new();
        s.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = FaultState::new(3);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            back.restore(&mut r),
            Err(SnapError::Corrupt("fault state node count"))
        ));
    }
}
