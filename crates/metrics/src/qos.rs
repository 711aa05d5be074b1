//! Slack scores and the QoS detector (§4.3).
//!
//! The slack score of service k at node n is δ = 1 − ξ/γ where ξ is the
//! p95 tail latency over the trailing 100 ms window and γ the service's
//! QoS target. Negative slack means the QoS target is being violated; the
//! re-assurance mechanism compares δ against thresholds α and β to decide
//! whether to grow or shrink the service's minimum resource request.

use crate::window::LatencyWindow;
use tango_types::FxHashMap;
use tango_types::{NodeId, ServiceId, SimTime};

/// δ = 1 − ξ/γ. BE services (γ = `SimTime::MAX`) always report full slack.
pub fn slack_score(tail: SimTime, target: SimTime) -> f64 {
    if target == SimTime::MAX {
        return 1.0;
    }
    if target == SimTime::ZERO {
        // degenerate target: any latency is a violation
        return if tail == SimTime::ZERO {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - tail.as_micros() as f64 / target.as_micros() as f64
}

/// One node's latency windows, keyed by service: a row of the detector,
/// indexed by node id.
#[derive(Debug, Default)]
struct NodeWindows {
    windows: FxHashMap<ServiceId, LatencyWindow>,
}

impl NodeWindows {
    /// p95 tail latency ξ for one service at `now`.
    fn tail(&mut self, service: ServiceId, now: SimTime) -> Option<SimTime> {
        self.windows.get_mut(&service)?.p95(now)
    }

    /// Services with a window, in sorted order (empty windows included).
    fn sorted_services(&self) -> Vec<ServiceId> {
        let mut v: Vec<ServiceId> = self.windows.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Collects per-(node, service) latency windows and answers slack queries —
/// the QoS detector of Fig. 3 ➍. Windows are stored as one row per node.
#[derive(Debug)]
pub struct QosDetector {
    pub(crate) width: SimTime,
    nodes: Vec<NodeWindows>,
}

impl QosDetector {
    /// Create a detector using `width` windows (paper: 100 ms).
    pub fn new(width: SimTime) -> Self {
        QosDetector {
            width,
            nodes: Vec::new(),
        }
    }

    /// Detector with the paper's 100 ms window.
    pub fn paper_default() -> Self {
        QosDetector::new(SimTime::from_millis(100))
    }

    /// Grow the row table to cover node ids `0..n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize_with(n, NodeWindows::default);
        }
    }

    /// Record a completed LC request's latency.
    pub fn record(&mut self, node: NodeId, service: ServiceId, at: SimTime, latency: SimTime) {
        self.ensure_nodes(node.index() + 1);
        self.nodes[node.index()]
            .windows
            .entry(service)
            .or_insert_with(|| LatencyWindow::new(self.width))
            .record(at, latency);
    }

    /// p95 tail latency ξ of (node, service) at `now`.
    pub fn tail(&mut self, node: NodeId, service: ServiceId, now: SimTime) -> Option<SimTime> {
        self.nodes.get_mut(node.index())?.tail(service, now)
    }

    /// Slack δ of (node, service) at `now`; `None` when no samples exist
    /// in the window (no signal — the re-assurer leaves the service alone).
    pub fn slack(
        &mut self,
        node: NodeId,
        service: ServiceId,
        target: SimTime,
        now: SimTime,
    ) -> Option<f64> {
        let tail = self.tail(node, service, now)?;
        Some(slack_score(tail, target))
    }

    /// Drop all latency history for a node. Called when the node crashes:
    /// whatever tail-latency behaviour it had before the fault says
    /// nothing about the recovered instance, which re-admits cold.
    pub fn forget_node(&mut self, node: NodeId) {
        if let Some(row) = self.nodes.get_mut(node.index()) {
            row.windows.clear();
        }
    }

    /// All (node, service) pairs with at least one sample in their window.
    pub fn active_pairs(&mut self, now: SimTime) -> Vec<(NodeId, ServiceId)> {
        let mut pairs = Vec::new();
        for (i, row) in self.nodes.iter_mut().enumerate() {
            let mut services: Vec<ServiceId> = row
                .windows
                .iter_mut()
                .filter_map(|(&s, w)| (w.count(now) > 0).then_some(s))
                .collect();
            services.sort_unstable();
            pairs.extend(services.into_iter().map(|s| (NodeId(i as u32), s)));
        }
        pairs
    }

    /// All windows as sorted `((node, service), window)` references, for
    /// the snapshot codec. Node-major with services sorted within a node
    /// equals the former global `(NodeId, ServiceId)` sort order, so the
    /// wire format is unchanged.
    pub(crate) fn sorted_windows(&self) -> Vec<((NodeId, ServiceId), &LatencyWindow)> {
        let mut out = Vec::new();
        for (i, row) in self.nodes.iter().enumerate() {
            for s in row.sorted_services() {
                out.push(((NodeId(i as u32), s), &row.windows[&s]));
            }
        }
        out
    }

    /// Insert one decoded window (snapshot restore path; the rows must
    /// already cover `node`).
    pub(crate) fn insert_window(&mut self, node: NodeId, service: ServiceId, w: LatencyWindow) {
        self.nodes[node.index()].windows.insert(service, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn slack_is_one_minus_ratio() {
        assert!((slack_score(ms(150), ms(300)) - 0.5).abs() < 1e-12);
        assert!((slack_score(ms(300), ms(300)) - 0.0).abs() < 1e-12);
        // violation: tail 450 vs target 300 -> δ = -0.5
        assert!((slack_score(ms(450), ms(300)) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn be_services_always_have_full_slack() {
        assert_eq!(slack_score(ms(10_000), SimTime::MAX), 1.0);
    }

    #[test]
    fn zero_target_is_degenerate() {
        assert_eq!(slack_score(SimTime::ZERO, SimTime::ZERO), 1.0);
        assert_eq!(slack_score(ms(1), SimTime::ZERO), f64::NEG_INFINITY);
    }

    #[test]
    fn detector_tracks_per_pair_windows() {
        let mut d = QosDetector::paper_default();
        let (n1, n2) = (NodeId(1), NodeId(2));
        let s = ServiceId(0);
        d.record(n1, s, ms(10), ms(100));
        d.record(n2, s, ms(10), ms(400));
        let t = ms(50);
        assert_eq!(d.tail(n1, s, t), Some(ms(100)));
        assert_eq!(d.tail(n2, s, t), Some(ms(400)));
        // node 1 healthy, node 2 violating a 300ms target
        assert!(d.slack(n1, s, ms(300), t).unwrap() > 0.0);
        assert!(d.slack(n2, s, ms(300), t).unwrap() < 0.0);
    }

    #[test]
    fn forget_node_drops_only_that_nodes_history() {
        let mut d = QosDetector::paper_default();
        let (n1, n2) = (NodeId(1), NodeId(2));
        let s = ServiceId(0);
        d.record(n1, s, ms(10), ms(100));
        d.record(n2, s, ms(10), ms(400));
        d.forget_node(n1);
        assert_eq!(d.tail(n1, s, ms(50)), None);
        assert_eq!(d.tail(n2, s, ms(50)), Some(ms(400)));
    }

    #[test]
    fn no_samples_means_no_slack_signal() {
        let mut d = QosDetector::paper_default();
        assert_eq!(d.slack(NodeId(9), ServiceId(9), ms(300), ms(50)), None);
    }

    #[test]
    fn samples_age_out_of_the_detector() {
        let mut d = QosDetector::paper_default();
        d.record(NodeId(1), ServiceId(0), ms(10), ms(100));
        assert!(d.tail(NodeId(1), ServiceId(0), ms(50)).is_some());
        assert!(d.tail(NodeId(1), ServiceId(0), ms(500)).is_none());
    }

    #[test]
    fn active_pairs_sorted_and_filtered() {
        let mut d = QosDetector::paper_default();
        d.record(NodeId(2), ServiceId(1), ms(10), ms(1));
        d.record(NodeId(1), ServiceId(3), ms(20), ms(1));
        d.record(NodeId(1), ServiceId(0), ms(990), ms(1));
        let pairs = d.active_pairs(ms(1_000));
        assert_eq!(pairs, vec![(NodeId(1), ServiceId(0))]); // others aged out
    }
}
