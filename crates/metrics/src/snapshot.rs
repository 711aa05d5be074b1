//! Checkpoint codecs for the telemetry state.
//!
//! Everything here is *state*, not cache: the QoS detector's latency
//! windows feed the re-assurer's slack decisions, the experiment counters
//! are the final report, and the state storage is read by dispatch rounds
//! between Sync ticks — none of it can be rebuilt from the config. Hash
//! maps are encoded sorted by key so snapshots are byte-stable.

use crate::counters::{Accum, ExperimentCounters};
use crate::qos::QosDetector;
use crate::store::{NodeRole, NodeSnapshot, StateStorage};
use crate::window::LatencyWindow;
use std::collections::VecDeque;
use tango_snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ClusterId, FxHashMap, NodeId, Resources, ServiceId, SimTime};

impl SnapEncode for LatencyWindow {
    fn encode(&self, w: &mut SnapWriter) {
        self.width.encode(w);
        self.samples.encode(w);
    }
}
impl SnapDecode for LatencyWindow {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(LatencyWindow {
            width: SimTime::decode(r)?,
            samples: VecDeque::<(SimTime, SimTime)>::decode(r)?,
        })
    }
}

impl SnapEncode for QosDetector {
    fn encode(&self, w: &mut SnapWriter) {
        self.width.encode(w);
        w.put_u64(self.window_count() as u64);
        for (k, window) in self.sorted_windows() {
            k.encode(w);
            window.encode(w);
        }
    }
}
impl SnapDecode for QosDetector {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let width = SimTime::decode(r)?;
        let n = r.u64()? as usize;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut d = QosDetector::new(width);
        for _ in 0..n {
            let (node, service) = <(NodeId, ServiceId)>::decode(r)?;
            d.insert_window(node, service, LatencyWindow::decode(r)?);
        }
        Ok(d)
    }
}

impl SnapEncode for Accum {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.lc_arrived);
        w.put_u64(self.lc_completed);
        w.put_u64(self.lc_satisfied);
        w.put_u64(self.be_completed);
        w.put_u64(self.abandoned);
        w.put_f64(self.util_sum.0);
        w.put_f64(self.util_sum.1);
        w.put_f64(self.util_sum.2);
        w.put_u64(self.util_samples);
        self.lc_latencies_us.encode(w);
        w.put_u64(self.fault_qos_violations);
        w.put_u64(self.detection_lag_us_sum);
        w.put_u64(self.detections);
        w.put_u64(self.proxy_fallbacks);
        w.put_u64(self.migrations_started);
        w.put_u64(self.migrations_completed);
        w.put_u64(self.cloud_egress_kib);
    }
}
impl SnapDecode for Accum {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Accum {
            lc_arrived: r.u64()?,
            lc_completed: r.u64()?,
            lc_satisfied: r.u64()?,
            be_completed: r.u64()?,
            abandoned: r.u64()?,
            util_sum: (r.f64()?, r.f64()?, r.f64()?),
            util_samples: r.u64()?,
            lc_latencies_us: Vec::<u64>::decode(r)?,
            fault_qos_violations: r.u64()?,
            detection_lag_us_sum: r.u64()?,
            detections: r.u64()?,
            proxy_fallbacks: r.u64()?,
            migrations_started: r.u64()?,
            migrations_completed: r.u64()?,
            cloud_egress_kib: r.u64()?,
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

impl SnapEncode for NodeRole {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            NodeRole::Master => 0,
            NodeRole::Worker => 1,
        });
    }
}
impl SnapDecode for NodeRole {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(NodeRole::Master),
            1 => Ok(NodeRole::Worker),
            _ => Err(SnapError::Corrupt("node role tag")),
        }
    }
}

fn encode_sorted_map<K, V, F>(w: &mut SnapWriter, map: &FxHashMap<K, V>, put_v: F)
where
    K: Copy + Ord + std::hash::Hash + Eq + SnapEncode,
    F: Fn(&mut SnapWriter, &V),
{
    let mut keys: Vec<K> = map.keys().copied().collect();
    keys.sort_unstable();
    w.put_u64(keys.len() as u64);
    for k in keys {
        k.encode(w);
        put_v(w, &map[&k]);
    }
}

fn decode_map<K, V, F>(r: &mut SnapReader<'_>, get_v: F) -> Result<FxHashMap<K, V>, SnapError>
where
    K: Copy + Ord + std::hash::Hash + Eq + SnapDecode,
    F: Fn(&mut SnapReader<'_>) -> Result<V, SnapError>,
{
    let n = r.u64()? as usize;
    if n > r.remaining() {
        return Err(SnapError::Truncated);
    }
    let mut map = FxHashMap::default();
    for _ in 0..n {
        let k = K::decode(r)?;
        map.insert(k, get_v(r)?);
    }
    Ok(map)
}

impl SnapEncode for NodeSnapshot {
    fn encode(&self, w: &mut SnapWriter) {
        self.node.encode(w);
        self.cluster.encode(w);
        self.role.encode(w);
        self.total.encode(w);
        self.available.encode(w);
        self.be_held.encode(w);
        encode_sorted_map(w, &self.slack, |w, v| w.put_f64(*v));
        encode_sorted_map(w, &self.pending, |w, v| w.put_u32(*v));
        self.updated_at.encode(w);
    }
}
impl SnapDecode for NodeSnapshot {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeSnapshot {
            node: NodeId::decode(r)?,
            cluster: ClusterId::decode(r)?,
            role: NodeRole::decode(r)?,
            total: Resources::decode(r)?,
            available: Resources::decode(r)?,
            be_held: Resources::decode(r)?,
            slack: decode_map(r, |r| r.f64())?,
            pending: decode_map(r, |r| r.u32())?,
            updated_at: SimTime::decode(r)?,
        })
    }
}

impl StateStorage {
    /// Encode every pushed node snapshot (sorted by node id).
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.all().encode(w);
    }

    /// Overlay a [`StateStorage::snapshot`] payload: every decoded entry
    /// is pushed, replacing whatever the fresh store held for that node.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for snap in Vec::<NodeSnapshot>::decode(r)? {
            self.push(snap);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut back = QosDetector::decode(&mut r).unwrap();
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
        c.on_lc_arrival(SimTime::from_millis(100));
        c.on_lc_complete(SimTime::from_millis(200), SimTime::from_millis(42), true);
        c.on_be_complete(SimTime::from_millis(900));
        c.sample_utilization(SimTime::from_millis(400), 0.5, 0.3, 0.2);
        c.on_fault_qos_violation(SimTime::from_millis(850));
        c.on_migration_started(SimTime::from_millis(860));
        c.on_migration_completed(SimTime::from_millis(910));
        c.on_cloud_egress(SimTime::from_millis(860), 832);
        let bytes = round_trip_bytes(&c);
        let mut r = SnapReader::new(&bytes);
        let back = ExperimentCounters::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.periods(), c.periods());
        assert_eq!(back.be_throughput(), c.be_throughput());
    }

    #[test]
    fn state_storage_round_trips_sorted() {
        let mut store = StateStorage::new();
        for node in [3u32, 1, 2] {
            let mut slack = FxHashMap::default();
            slack.insert(ServiceId(0), 0.25);
            store.push(NodeSnapshot {
                node: NodeId(node),
                cluster: ClusterId(0),
                role: NodeRole::Worker,
                total: Resources::cpu_mem(4_000, 8_192),
                available: Resources::cpu_mem(1_000 * node as u64, 1_024),
                be_held: Resources::ZERO,
                slack,
                pending: FxHashMap::default(),
                updated_at: SimTime::from_millis(7),
            });
        }
        let mut w = SnapWriter::new();
        store.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = StateStorage::new();
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(fresh.len(), 3);
        assert_eq!(
            fresh.get(NodeId(2)).unwrap().available.cpu_milli,
            store.get(NodeId(2)).unwrap().available.cpu_milli
        );
    }

    #[test]
    fn bad_role_tag_is_typed() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(
            NodeRole::decode(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }
}
