//! Checkpoint codecs for fault events and accounting.
//!
//! [`FaultEvent`]s live inside the simulation event queue and must survive
//! a checkpoint so a restored run replays the exact fault schedule; the
//! [`FaultSummary`] is cumulative accounting that the run report surfaces.
//! The live [`crate::FaultState`] snapshot lives next to the state itself
//! in `state.rs` (its fields are module-private).

use crate::plan::FaultEvent;
use crate::state::FaultSummary;
use tango_snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ClusterId, NodeId, SimTime};

impl SnapEncode for FaultEvent {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            FaultEvent::NodeCrash { node } => {
                w.put_u8(0);
                node.encode(w);
            }
            FaultEvent::NodeRecover { node } => {
                w.put_u8(1);
                node.encode(w);
            }
            FaultEvent::LinkDegrade {
                a,
                b,
                latency_factor,
                bandwidth_factor,
            } => {
                w.put_u8(2);
                a.encode(w);
                b.encode(w);
                w.put_f64(*latency_factor);
                w.put_f64(*bandwidth_factor);
            }
            FaultEvent::LinkRestore { a, b } => {
                w.put_u8(3);
                a.encode(w);
                b.encode(w);
            }
            FaultEvent::Partition { side } => {
                w.put_u8(4);
                side.encode(w);
            }
            FaultEvent::Heal => w.put_u8(5),
        }
    }
}
impl SnapDecode for FaultEvent {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FaultEvent::NodeCrash {
                node: NodeId::decode(r)?,
            },
            1 => FaultEvent::NodeRecover {
                node: NodeId::decode(r)?,
            },
            2 => FaultEvent::LinkDegrade {
                a: ClusterId::decode(r)?,
                b: ClusterId::decode(r)?,
                latency_factor: r.f64()?,
                bandwidth_factor: r.f64()?,
            },
            3 => FaultEvent::LinkRestore {
                a: ClusterId::decode(r)?,
                b: ClusterId::decode(r)?,
            },
            4 => FaultEvent::Partition {
                side: Vec::<ClusterId>::decode(r)?,
            },
            5 => FaultEvent::Heal,
            _ => return Err(SnapError::Corrupt("fault event tag")),
        })
    }
}

impl SnapEncode for FaultSummary {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.node_crashes);
        w.put_u64(self.node_recoveries);
        w.put_u64(self.master_failovers);
        w.put_u64(self.links_degraded);
        w.put_u64(self.links_restored);
        w.put_u64(self.partitions);
        w.put_u64(self.heals);
        w.put_u64(self.lc_interrupted);
        w.put_u64(self.be_interrupted);
        w.put_u64(self.wait_drained);
        w.put_u64(self.bounced_deliveries);
        w.put_u64(self.rescheduled);
        w.put_u64(self.down_node_dispatches);
        self.total_downtime.encode(w);
        w.put_u64(self.fault_qos_violations);
    }
}
impl SnapDecode for FaultSummary {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FaultSummary {
            node_crashes: r.u64()?,
            node_recoveries: r.u64()?,
            master_failovers: r.u64()?,
            links_degraded: r.u64()?,
            links_restored: r.u64()?,
            partitions: r.u64()?,
            heals: r.u64()?,
            lc_interrupted: r.u64()?,
            be_interrupted: r.u64()?,
            wait_drained: r.u64()?,
            bounced_deliveries: r.u64()?,
            rescheduled: r.u64()?,
            down_node_dispatches: r.u64()?,
            total_downtime: SimTime::decode(r)?,
            fault_qos_violations: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultState;

    #[test]
    fn every_event_variant_round_trips() {
        let events = vec![
            FaultEvent::NodeCrash { node: NodeId(3) },
            FaultEvent::NodeRecover { node: NodeId(3) },
            FaultEvent::LinkDegrade {
                a: ClusterId(0),
                b: ClusterId(1),
                latency_factor: 3.5,
                bandwidth_factor: 2.0,
            },
            FaultEvent::LinkRestore {
                a: ClusterId(0),
                b: ClusterId(1),
            },
            FaultEvent::Partition {
                side: vec![ClusterId(1), ClusterId(2)],
            },
            FaultEvent::Heal,
        ];
        let mut w = SnapWriter::new();
        events.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<FaultEvent>::decode(&mut r).unwrap(), events);
        assert!(r.is_empty());
    }

    #[test]
    fn bad_event_tag_is_typed() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(
            FaultEvent::decode(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

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
