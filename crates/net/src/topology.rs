//! Cluster-level network topology.
//!
//! Latency model: one-way latency between two clusters is
//! `wan_base + distance_km * wan_per_km` (route inflation folded into the
//! per-km factor); within a cluster it is the LAN latency. With the default
//! parameters a ~2,000 km pair sees an RTT just under 100 ms, matching the
//! ">97 ms to the central cluster" production measurement in §5.2.

use crate::geo::GeoPoint;
use tango_simcore::SimRng;
use tango_types::{ClusterId, SimTime};

/// Whether a pair of endpoints is on the same LAN or across the WAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Same cluster: sub-millisecond, high bandwidth.
    Lan,
    /// Different clusters: geographic latency, constrained bandwidth.
    Wan,
}

/// Parameters of the network model.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of clusters to place.
    pub clusters: usize,
    /// Bounding box: (min_lat, max_lat).
    pub lat_range: (f64, f64),
    /// Bounding box: (min_lon, max_lon).
    pub lon_range: (f64, f64),
    /// One-way LAN latency.
    pub lan_latency: SimTime,
    /// LAN bandwidth in Mbps.
    pub lan_bandwidth_mbps: u64,
    /// One-way WAN base latency (switching/serialization floor).
    pub wan_base: SimTime,
    /// One-way WAN latency per kilometre, in microseconds.
    pub wan_us_per_km: f64,
    /// WAN bandwidth range (min, max) in Mbps; sampled per link.
    pub wan_bandwidth_mbps: (u64, u64),
    /// RNG seed for placement and bandwidth sampling.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        // Defaults approximate a province-to-country-scale Chinese edge
        // deployment like PPIO's: clusters spread over ~2,500 km.
        TopologyConfig {
            clusters: 8,
            lat_range: (22.0, 41.0),
            lon_range: (108.0, 122.0),
            lan_latency: SimTime::from_micros(300),
            lan_bandwidth_mbps: 10_000,
            wan_base: SimTime::from_millis(3),
            wan_us_per_km: 20.0,
            wan_bandwidth_mbps: (200, 1_000),
            seed: 7,
        }
    }
}

/// The placed topology: cluster coordinates plus derived latency/bandwidth
/// matrices.
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    positions: Vec<GeoPoint>,
    /// one_way[i][j] latency.
    one_way: Vec<Vec<SimTime>>,
    /// bandwidth[i][j] in Mbps.
    bandwidth: Vec<Vec<u64>>,
    lan_latency: SimTime,
    /// Fault overlay: per-pair (latency multiplier, bandwidth divisor),
    /// keyed by the ordered pair. Empty on the no-fault hot path.
    degraded: Vec<((u32, u32), (f64, f64))>,
    /// Active partition: side flag per cluster; `None` when healed.
    partition: Option<Vec<bool>>,
}

impl NetworkTopology {
    /// Place clusters uniformly in the configured bounding box and derive
    /// the latency/bandwidth matrices. Deterministic per seed.
    pub fn generate(cfg: &TopologyConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let n = cfg.clusters.max(1);
        let positions: Vec<GeoPoint> = (0..n)
            .map(|_| {
                GeoPoint::new(
                    rng.range_f64(cfg.lat_range.0, cfg.lat_range.1),
                    rng.range_f64(cfg.lon_range.0, cfg.lon_range.1),
                )
            })
            .collect();

        let mut one_way = vec![vec![SimTime::ZERO; n]; n];
        let mut bandwidth = vec![vec![cfg.lan_bandwidth_mbps; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = positions[i].distance_km(&positions[j]);
                let lat =
                    cfg.wan_base + SimTime::from_micros((dist * cfg.wan_us_per_km).round() as u64);
                let bw = rng.range_u64(cfg.wan_bandwidth_mbps.0, cfg.wan_bandwidth_mbps.1);
                one_way[i][j] = lat;
                one_way[j][i] = lat;
                bandwidth[i][j] = bw;
                bandwidth[j][i] = bw;
            }
        }
        NetworkTopology {
            positions,
            one_way,
            bandwidth,
            lan_latency: cfg.lan_latency,
            degraded: Vec::new(),
            partition: None,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the topology has no clusters (never happens via
    /// [`NetworkTopology::generate`], which clamps to one).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Geographic position of a cluster.
    pub fn position(&self, c: ClusterId) -> GeoPoint {
        self.positions[c.index()]
    }

    /// LAN or WAN for a pair.
    pub fn link_class(&self, a: ClusterId, b: ClusterId) -> LinkClass {
        if a == b {
            LinkClass::Lan
        } else {
            LinkClass::Wan
        }
    }

    fn ordered(a: ClusterId, b: ClusterId) -> (u32, u32) {
        let (x, y) = (a.raw(), b.raw());
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }

    fn degradation(&self, a: ClusterId, b: ClusterId) -> Option<(f64, f64)> {
        if self.degraded.is_empty() {
            return None;
        }
        let key = Self::ordered(a, b);
        self.degraded
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, f)| *f)
    }

    /// One-way latency between two clusters (LAN latency within a
    /// cluster), including any active link degradation.
    pub fn one_way_latency(&self, a: ClusterId, b: ClusterId) -> SimTime {
        let base = if a == b {
            self.lan_latency
        } else {
            self.one_way[a.index()][b.index()]
        };
        match self.degradation(a, b) {
            Some((lat, _)) => SimTime::from_micros((base.as_micros() as f64 * lat).round() as u64),
            None => base,
        }
    }

    /// Round-trip time between two clusters.
    pub fn rtt(&self, a: ClusterId, b: ClusterId) -> SimTime {
        let one = self.one_way_latency(a, b);
        one + one
    }

    /// Link bandwidth between two clusters, Mbps, including any active
    /// link degradation.
    pub fn bandwidth_mbps(&self, a: ClusterId, b: ClusterId) -> u64 {
        let base = if a == b {
            self.bandwidth[a.index()][a.index()]
        } else {
            self.bandwidth[a.index()][b.index()]
        };
        match self.degradation(a, b) {
            Some((_, bw)) if bw > 1.0 => ((base as f64 / bw) as u64).max(1),
            _ => base,
        }
    }

    /// One-way transfer time for a payload: propagation + serialization.
    pub fn transfer_time(&self, a: ClusterId, b: ClusterId, payload_kib: u64) -> SimTime {
        let prop = self.one_way_latency(a, b);
        let bw = self.bandwidth_mbps(a, b).max(1);
        // bits = KiB * 1024 * 8; time_us = bits / (Mbps * 1e6) * 1e6 = bits / Mbps
        let ser_us = payload_kib.saturating_mul(8_192) / bw;
        prop + SimTime::from_micros(ser_us)
    }

    /// Degrade the `a`–`b` link: one-way latency is multiplied by
    /// `latency_factor`, bandwidth divided by `bandwidth_factor`. A second
    /// degradation of the same pair replaces the first (factors do not
    /// stack — faults are states, not deltas).
    pub fn degrade_link(
        &mut self,
        a: ClusterId,
        b: ClusterId,
        latency_factor: f64,
        bandwidth_factor: f64,
    ) {
        let key = Self::ordered(a, b);
        let factors = (latency_factor.max(1.0), bandwidth_factor.max(1.0));
        match self.degraded.iter_mut().find(|(k, _)| *k == key) {
            Some((_, f)) => *f = factors,
            None => self.degraded.push((key, factors)),
        }
    }

    /// Remove any degradation on the `a`–`b` link.
    pub fn restore_link(&mut self, a: ClusterId, b: ClusterId) {
        let key = Self::ordered(a, b);
        self.degraded.retain(|(k, _)| *k != key);
    }

    /// Partition the WAN: clusters in `side` can no longer reach the
    /// rest (traffic within either side, and within a cluster, still
    /// flows). A new partition replaces the previous one.
    pub fn set_partition(&mut self, side: &[ClusterId]) {
        let mut flags = vec![false; self.len()];
        for c in side {
            if c.index() < flags.len() {
                flags[c.index()] = true;
            }
        }
        self.partition = Some(flags);
    }

    /// Heal the active partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Whether traffic can flow between two clusters under the active
    /// partition (always true within a cluster).
    pub fn is_reachable(&self, a: ClusterId, b: ClusterId) -> bool {
        if a == b {
            return true;
        }
        match &self.partition {
            Some(flags) => flags[a.index()] == flags[b.index()],
            None => true,
        }
    }

    /// Encode the fault overlays (degradations + partition) for a
    /// checkpoint. The placed topology itself — positions and base
    /// latency/bandwidth matrices — is deterministic per seed and is
    /// rebuilt by [`NetworkTopology::generate`] on restore, so only the
    /// overlays are state.
    pub fn snapshot_dynamic(&self, w: &mut tango_snap::SnapWriter) {
        use tango_snap::SnapEncode;
        self.degraded.encode(w);
        self.partition.encode(w);
    }

    /// Restore the fault overlays captured by
    /// [`NetworkTopology::snapshot_dynamic`] onto a freshly generated
    /// topology of the same size.
    pub fn restore_dynamic(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        use tango_snap::{SnapDecode, SnapError};
        let degraded = SnapDecode::decode(r)?;
        let partition = Option::<Vec<bool>>::decode(r)?;
        if partition.as_ref().is_some_and(|p| p.len() != self.len()) {
            return Err(SnapError::Corrupt("partition mask length"));
        }
        self.degraded = degraded;
        self.partition = partition;
        Ok(())
    }

    /// Geographic distance between clusters, km.
    pub fn distance_km(&self, a: ClusterId, b: ClusterId) -> f64 {
        self.positions[a.index()].distance_km(&self.positions[b.index()])
    }

    /// Clusters within `radius_km` of `from` (excluding `from` itself) —
    /// the geo-nearby candidate set for LC dispatch (§5.2 footnote 4:
    /// 500 km in the production dataset).
    pub fn clusters_within(&self, from: ClusterId, radius_km: f64) -> Vec<ClusterId> {
        (0..self.len())
            .map(|i| ClusterId(i as u32))
            .filter(|&c| c != from && self.distance_km(from, c) <= radius_km)
            .collect()
    }

    /// Attach an elastic cloud tier as one extra cluster appended after
    /// the edge clusters. The cloud sits at the geographic centroid of
    /// the existing placement; one-way latency to each edge cluster is
    /// `one_way_base + distance_km * us_per_km` (distance-honest: nearer
    /// edges pay less), and every cloud link shares one uplink bandwidth.
    /// No RNG is drawn, so attaching the cloud never perturbs the edge
    /// layout generated from the same seed. Returns the cloud's id.
    ///
    /// Call before any fault overlay is applied; the degradation and
    /// partition machinery then covers cloud links like any other.
    pub fn attach_cloud(
        &mut self,
        one_way_base: SimTime,
        us_per_km: f64,
        bandwidth_mbps: u64,
    ) -> ClusterId {
        let n = self.len();
        let centroid = GeoPoint::new(
            self.positions.iter().map(|p| p.lat_deg).sum::<f64>() / n as f64,
            self.positions.iter().map(|p| p.lon_deg).sum::<f64>() / n as f64,
        );
        self.positions.push(centroid);
        for i in 0..n {
            let dist = self.positions[i].distance_km(&centroid);
            let lat = one_way_base + SimTime::from_micros((dist * us_per_km).round() as u64);
            self.one_way[i].push(lat);
            self.bandwidth[i].push(bandwidth_mbps.max(1));
        }
        let mut cloud_lat: Vec<SimTime> = (0..n).map(|i| self.one_way[i][n]).collect();
        cloud_lat.push(SimTime::ZERO);
        self.one_way.push(cloud_lat);
        let mut cloud_bw = vec![bandwidth_mbps.max(1); n];
        cloud_bw.push(self.bandwidth[0][0]);
        self.bandwidth.push(cloud_bw);
        ClusterId(n as u32)
    }

    /// The most geographically central cluster: the one minimizing the sum
    /// of distances to all others. Tango places the BE traffic dispatcher
    /// there (§3 footnote 2).
    pub fn most_central(&self) -> ClusterId {
        let n = self.len();
        let mut best = 0usize;
        let mut best_sum = f64::INFINITY;
        for i in 0..n {
            let sum: f64 = (0..n)
                .map(|j| self.positions[i].distance_km(&self.positions[j]))
                .sum();
            if sum < best_sum {
                best_sum = sum;
                best = i;
            }
        }
        ClusterId(best as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: usize, seed: u64) -> NetworkTopology {
        NetworkTopology::generate(&TopologyConfig {
            clusters: n,
            seed,
            ..TopologyConfig::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = topo(10, 42);
        let b = topo(10, 42);
        for i in 0..10 {
            for j in 0..10 {
                let (ci, cj) = (ClusterId(i), ClusterId(j));
                assert_eq!(a.one_way_latency(ci, cj), b.one_way_latency(ci, cj));
                assert_eq!(a.bandwidth_mbps(ci, cj), b.bandwidth_mbps(ci, cj));
            }
        }
    }

    #[test]
    fn latency_is_symmetric_and_lan_is_fast() {
        let t = topo(6, 1);
        for i in 0..6u32 {
            for j in 0..6u32 {
                assert_eq!(
                    t.one_way_latency(ClusterId(i), ClusterId(j)),
                    t.one_way_latency(ClusterId(j), ClusterId(i))
                );
            }
            assert_eq!(
                t.one_way_latency(ClusterId(i), ClusterId(i)),
                SimTime::from_micros(300)
            );
            assert_eq!(t.link_class(ClusterId(i), ClusterId(i)), LinkClass::Lan);
        }
        assert_eq!(t.link_class(ClusterId(0), ClusterId(1)), LinkClass::Wan);
    }

    #[test]
    fn wan_rtt_scales_with_distance_and_can_approach_paper_measurement() {
        // Two hand-placed far clusters ~2300km apart should see RTT near
        // the paper's 97ms figure with default parameters.
        let far = GeoPoint::new(22.5, 114.0); // Shenzhen-ish
        let near = GeoPoint::new(41.0, 122.0); // Liaoning-ish
        let dist = far.distance_km(&near);
        assert!(dist > 2_000.0, "dist = {dist}");
        let cfg = TopologyConfig::default();
        let one_way_ms = cfg.wan_base.as_millis_f64() + dist * cfg.wan_us_per_km / 1_000.0;
        let rtt_ms = 2.0 * one_way_ms;
        assert!((80.0..130.0).contains(&rtt_ms), "rtt = {rtt_ms}ms");
    }

    #[test]
    fn rtt_is_twice_one_way() {
        let t = topo(4, 3);
        let (a, b) = (ClusterId(0), ClusterId(2));
        assert_eq!(
            t.rtt(a, b).as_micros(),
            2 * t.one_way_latency(a, b).as_micros()
        );
    }

    #[test]
    fn transfer_time_adds_serialization() {
        let t = topo(3, 5);
        let (a, b) = (ClusterId(0), ClusterId(1));
        let prop_only = t.transfer_time(a, b, 0);
        assert_eq!(prop_only, t.one_way_latency(a, b));
        let with_payload = t.transfer_time(a, b, 1_024);
        assert!(with_payload > prop_only);
        // 1 MiB over bw Mbps: serialization = 1024*8192/bw µs
        let expect_us = 1_024u64 * 8_192 / t.bandwidth_mbps(a, b);
        assert_eq!(with_payload.as_micros() - prop_only.as_micros(), expect_us);
    }

    #[test]
    fn clusters_within_excludes_self_and_respects_radius() {
        let t = topo(12, 9);
        let from = ClusterId(0);
        let near = t.clusters_within(from, 500.0);
        assert!(!near.contains(&from));
        for c in &near {
            assert!(t.distance_km(from, *c) <= 500.0);
        }
        let all = t.clusters_within(from, 1.0e9);
        assert_eq!(all.len(), 11);
    }

    #[test]
    fn most_central_minimizes_distance_sum() {
        let t = topo(9, 11);
        let central = t.most_central();
        let sum = |c: ClusterId| -> f64 { (0..9).map(|j| t.distance_km(c, ClusterId(j))).sum() };
        let central_sum = sum(central);
        for i in 0..9u32 {
            assert!(central_sum <= sum(ClusterId(i)) + 1e-9);
        }
    }

    #[test]
    fn degraded_link_inflates_latency_and_deflates_bandwidth() {
        let mut t = topo(4, 8);
        let (a, b) = (ClusterId(0), ClusterId(3));
        let base_lat = t.one_way_latency(a, b);
        let base_bw = t.bandwidth_mbps(a, b);
        let base_xfer = t.transfer_time(a, b, 1_024);
        t.degrade_link(a, b, 4.0, 2.0);
        assert_eq!(
            t.one_way_latency(a, b).as_micros(),
            (base_lat.as_micros() as f64 * 4.0).round() as u64
        );
        assert_eq!(t.bandwidth_mbps(a, b), base_bw / 2);
        // symmetric, and transfer time inflates end to end
        assert_eq!(t.one_way_latency(b, a), t.one_way_latency(a, b));
        assert!(t.transfer_time(a, b, 1_024) > base_xfer);
        // other pairs untouched
        assert_eq!(
            t.one_way_latency(ClusterId(1), ClusterId(2)),
            topo(4, 8).one_way_latency(ClusterId(1), ClusterId(2))
        );
        // re-degrading replaces, restoring returns to baseline exactly
        t.degrade_link(b, a, 2.0, 1.0);
        assert_eq!(
            t.one_way_latency(a, b).as_micros(),
            (base_lat.as_micros() as f64 * 2.0).round() as u64
        );
        t.restore_link(a, b);
        assert_eq!(t.one_way_latency(a, b), base_lat);
        assert_eq!(t.bandwidth_mbps(a, b), base_bw);
    }

    #[test]
    fn partition_blocks_cross_side_reachability_only() {
        let mut t = topo(5, 13);
        assert!(t.is_reachable(ClusterId(0), ClusterId(4)));
        t.set_partition(&[ClusterId(0), ClusterId(1)]);
        assert!(!t.is_reachable(ClusterId(0), ClusterId(4)));
        assert!(!t.is_reachable(ClusterId(2), ClusterId(1)));
        assert!(t.is_reachable(ClusterId(0), ClusterId(1)));
        assert!(t.is_reachable(ClusterId(2), ClusterId(3)));
        // within a cluster always reachable
        assert!(t.is_reachable(ClusterId(0), ClusterId(0)));
        t.heal_partition();
        assert!(t.is_reachable(ClusterId(0), ClusterId(4)));
    }

    #[test]
    fn attach_cloud_appends_without_touching_edge_links() {
        let base = topo(6, 21);
        let mut t = topo(6, 21);
        let cloud = t.attach_cloud(SimTime::from_millis(40), 20.0, 5_000);
        assert_eq!(cloud, ClusterId(6));
        assert_eq!(t.len(), 7);
        // edge-to-edge links are byte-identical to the no-cloud topology
        for i in 0..6u32 {
            for j in 0..6u32 {
                let (a, b) = (ClusterId(i), ClusterId(j));
                assert_eq!(t.one_way_latency(a, b), base.one_way_latency(a, b));
                assert_eq!(t.bandwidth_mbps(a, b), base.bandwidth_mbps(a, b));
            }
        }
        // cloud links: symmetric, distance-honest above the base RTT floor
        for i in 0..6u32 {
            let e = ClusterId(i);
            assert_eq!(t.one_way_latency(e, cloud), t.one_way_latency(cloud, e));
            assert!(t.one_way_latency(e, cloud) >= SimTime::from_millis(40));
            assert_eq!(t.bandwidth_mbps(e, cloud), 5_000);
        }
        // the centroid cloud sits inside the bounding box, so the
        // farthest edge pays more than the nearest
        let lats: Vec<u64> = (0..6u32)
            .map(|i| t.one_way_latency(ClusterId(i), cloud).as_micros())
            .collect();
        assert!(lats.iter().max() > lats.iter().min());
        // degradation and partitions cover cloud links like any other
        t.degrade_link(ClusterId(0), cloud, 2.0, 2.0);
        assert_eq!(
            t.one_way_latency(ClusterId(0), cloud).as_micros(),
            (base_cloud_lat(&t, 0) * 2.0).round() as u64
        );
        t.restore_link(ClusterId(0), cloud);
        t.set_partition(&[ClusterId(0)]);
        assert!(!t.is_reachable(ClusterId(0), cloud));
        assert!(t.is_reachable(ClusterId(1), cloud));
    }

    /// Undegraded one-way latency of edge `i` to the cloud, in µs.
    fn base_cloud_lat(t: &NetworkTopology, i: u32) -> f64 {
        let mut clean = t.clone();
        clean.restore_link(ClusterId(i), ClusterId(t.len() as u32 - 1));
        clean
            .one_way_latency(ClusterId(i), ClusterId(t.len() as u32 - 1))
            .as_micros() as f64
    }

    #[test]
    fn single_cluster_topology_is_degenerate_but_valid() {
        let t = topo(1, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.most_central(), ClusterId(0));
        assert!(t.clusters_within(ClusterId(0), 1000.0).is_empty());
    }
}
