//! Checkpoint codecs for the telemetry state.
//!
//! Everything here is *state*, not cache: the QoS detector's latency
//! windows feed the re-assurer's slack decisions, the experiment counters
//! are the final report, and the state storage is read by dispatch rounds
//! between Sync ticks — none of it can be rebuilt from the config. Hash
//! maps are encoded sorted by key so snapshots are byte-stable. The state
//! storage's own row codec lives beside its columns in the `store`
//! module.

use crate::counters::{Accum, Counter, ExperimentCounters};
use crate::qos::QosDetector;
use crate::store::NodeRole;
use crate::window::LatencyWindow;
use tango_snap::{
    snap_enum, snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter,
};
use tango_types::{NodeId, ServiceId, SimTime};

snap_record!(LatencyWindow { width, samples });

snap_enum!(NodeRole, "node role tag" {
    0 => Master,
    1 => Worker,
});

/// The detector's window width, then its windows sorted by
/// `(node, service)`; [`QosDetector::restore`] reads it back.
impl SnapEncode for QosDetector {
    fn encode(&self, w: &mut SnapWriter) {
        self.width.encode(w);
        self.sorted_windows().encode(w);
    }
}
impl QosDetector {
    /// Replace this detector with one decoded from its [`SnapEncode`]
    /// payload, for a system of `nodes` nodes: one row per node, and a
    /// window naming a node outside `0..nodes` is [`SnapError::Corrupt`]
    /// — nothing is sized from the bytes alone.
    pub fn restore(&mut self, r: &mut SnapReader<'_>, nodes: usize) -> Result<(), SnapError> {
        let width = SimTime::decode(r)?;
        let windows = Vec::<((NodeId, ServiceId), LatencyWindow)>::decode(r)?;
        let mut d = QosDetector::new(width);
        d.ensure_nodes(nodes);
        for ((node, service), window) in windows {
            if node.index() >= nodes {
                return Err(SnapError::Corrupt("detector window node id"));
            }
            d.insert_window(node, service, window);
        }
        *self = d;
        Ok(())
    }
}

impl SnapEncode for Accum {
    fn encode(&self, w: &mut SnapWriter) {
        let (leading, rest) = self.counts.split_at(Counter::LEADING);
        for &n in leading {
            w.put_u64(n);
        }
        self.util_sum.encode(w);
        w.put_u64(self.util_samples);
        self.lc_latencies.encode(w);
        for &n in rest {
            w.put_u64(n);
        }
    }
}
impl SnapDecode for Accum {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut counts = [0; Counter::COUNT];
        let (leading, rest) = counts.split_at_mut(Counter::LEADING);
        for n in leading {
            *n = r.u64()?;
        }
        let util_sum = SnapDecode::decode(r)?;
        let util_samples = r.u64()?;
        let lc_latencies = Vec::<SimTime>::decode(r)?;
        for n in rest {
            *n = r.u64()?;
        }
        Ok(Accum {
            counts,
            util_sum,
            util_samples,
            lc_latencies,
        })
    }
}

impl SnapEncode for ExperimentCounters {
    fn encode(&self, w: &mut SnapWriter) {
        self.period.encode(w);
        self.buckets.encode(w);
    }
}
impl SnapDecode for ExperimentCounters {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let period = SimTime::decode(r)?;
        if period == SimTime::ZERO {
            return Err(SnapError::Corrupt("zero counters period"));
        }
        Ok(ExperimentCounters {
            period,
            buckets: Vec::<Accum>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StateStorage;
    use tango_types::{ClusterId, Resources};

    fn round_trip_bytes<T: SnapEncode>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn qos_detector_round_trips_with_windows() {
        let mut d = QosDetector::paper_default();
        d.record(
            NodeId(2),
            ServiceId(1),
            SimTime::from_millis(10),
            SimTime::from_millis(40),
        );
        d.record(
            NodeId(1),
            ServiceId(0),
            SimTime::from_millis(20),
            SimTime::from_millis(90),
        );
        let bytes = round_trip_bytes(&d);
        let mut r = SnapReader::new(&bytes);
        let mut back = QosDetector::paper_default();
        back.restore(&mut r, 3).unwrap();
        assert!(r.is_empty());
        assert_eq!(
            back.tail(NodeId(1), ServiceId(0), SimTime::from_millis(50)),
            d.tail(NodeId(1), ServiceId(0), SimTime::from_millis(50))
        );
        assert_eq!(
            back.active_pairs(SimTime::from_millis(50)),
            d.active_pairs(SimTime::from_millis(50))
        );
    }

    #[test]
    fn counters_round_trip_preserves_report() {
        let mut c = ExperimentCounters::paper_default();
        c.add(SimTime::from_millis(100), Counter::LcArrived, 1);
        c.on_lc_complete(SimTime::from_millis(200), SimTime::from_millis(42), true);
        c.add(SimTime::from_millis(900), Counter::BeCompleted, 1);
        c.sample_utilization(SimTime::from_millis(400), 0.5, 0.3, 0.2);
        c.add(SimTime::from_millis(850), Counter::FaultQosViolations, 1);
        c.add(SimTime::from_millis(860), Counter::MigrationsStarted, 1);
        c.add(SimTime::from_millis(910), Counter::MigrationsCompleted, 1);
        c.add(SimTime::from_millis(860), Counter::CloudEgressKib, 832);
        let bytes = round_trip_bytes(&c);
        let mut r = SnapReader::new(&bytes);
        let back = ExperimentCounters::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.periods(), c.periods());
        assert_eq!(
            back.total(Counter::BeCompleted),
            c.total(Counter::BeCompleted)
        );
    }

    fn store_with_rows(nodes: &[u32]) -> StateStorage {
        let mut store = StateStorage::new();
        for &node in nodes {
            store.write_row(
                NodeId(node),
                ClusterId(node / 2),
                NodeRole::Worker,
                Resources::cpu_mem(4_000, 8_192),
                Resources::cpu_mem(1_000 * node as u64, 1_024),
                Resources::ZERO,
                &[(ServiceId(0), 0.25), (ServiceId(3), -0.5)],
                &[(ServiceId(1), node)],
                SimTime::from_millis(7),
            );
        }
        store
    }

    fn store_bytes(store: &StateStorage) -> Vec<u8> {
        let mut w = SnapWriter::new();
        store.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn state_storage_round_trips_rows_in_node_order() {
        let store = store_with_rows(&[3, 1, 2]);
        let bytes = store_bytes(&store);
        let mut fresh = StateStorage::new();
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r, 4).unwrap();
        assert!(r.is_empty());
        let nodes: Vec<NodeId> = (0..fresh.rows())
            .filter_map(|i| fresh.row(i))
            .map(|row| row.node)
            .collect();
        assert_eq!(nodes, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let (a, b) = (fresh.row(2).unwrap(), store.row(2).unwrap());
        assert_eq!(a.available, b.available);
        assert_eq!(a.slack, b.slack);
        assert_eq!(a.pending, b.pending);
        assert_eq!(store_bytes(&fresh), bytes);
    }

    #[test]
    fn store_restore_rejects_node_ids_past_the_node_count() {
        let bytes = store_bytes(&store_with_rows(&[1, 2]));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            StateStorage::new().restore(&mut r, 2),
            Err(SnapError::Corrupt("store row node id"))
        ));
        // a hostile id is rejected before any column grows toward it
        let mut w = SnapWriter::new();
        w.put_u64(1);
        NodeId(4_000_000_000).encode(&mut w);
        let bytes = w.into_bytes();
        let mut store = StateStorage::new();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            store.restore(&mut r, 16),
            Err(SnapError::Corrupt("store row node id"))
        ));
        assert_eq!(store.rows(), 0);
    }

    #[test]
    fn store_restore_rejects_unordered_or_repeated_service_pairs() {
        for services in [[3u16, 1], [2, 2]] {
            let mut w = SnapWriter::new();
            w.put_u64(1);
            NodeId(0).encode(&mut w);
            ClusterId(0).encode(&mut w);
            NodeRole::Worker.encode(&mut w);
            for _ in 0..3 {
                Resources::ZERO.encode(&mut w);
            }
            w.put_u64(2);
            for s in services {
                ServiceId(s).encode(&mut w);
                w.put_f64(0.5);
            }
            w.put_u64(0);
            SimTime::ZERO.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert!(
                matches!(
                    StateStorage::new().restore(&mut r, 1),
                    Err(SnapError::Corrupt("store row service order"))
                ),
                "{services:?}"
            );
        }
    }

    #[test]
    fn detector_restore_rejects_node_ids_past_the_node_count() {
        let mut d = QosDetector::paper_default();
        d.record(
            NodeId(5),
            ServiceId(1),
            SimTime::from_millis(10),
            SimTime::from_millis(40),
        );
        let bytes = round_trip_bytes(&d);
        let mut back = QosDetector::paper_default();
        assert!(back.restore(&mut SnapReader::new(&bytes), 6).is_ok());
        assert!(matches!(
            back.restore(&mut SnapReader::new(&bytes), 5),
            Err(SnapError::Corrupt("detector window node id"))
        ));
    }
}
