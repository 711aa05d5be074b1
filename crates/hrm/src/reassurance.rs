//! The QoS re-assurance mechanism (§4.3, Algorithm 1).
//!
//! Per worker node and per service, the mechanism reads the slack score
//! δ = 1 − ξ/γ from the QoS detector every tick (the paper runs it "at a
//! high frequency with a small proportion" to keep adjustments smooth) and
//! adjusts the service's *minimum requested resource amount*:
//!
//! * δ < α (poor): increase the minimum request;
//! * δ > β (excellent): decrease it;
//! * otherwise (stable): leave it alone.
//!
//! The adjustment is a multiplicative factor on the service's base
//! `min_request`, clamped to a sane band. Both the demand attached to
//! newly dispatched requests and the t_i^k capacity terms of DSS-LC's
//! graphs (Eq. 2) read the adjusted value.

use tango_metrics::QosDetector;
use tango_types::FxHashMap;
use tango_types::{NodeId, Resources, ServiceId, SimTime};

/// Thresholds and step size for Algorithm 1.
#[derive(Debug, Clone)]
pub struct ReassuranceConfig {
    /// Poor-performance threshold α: increase resources when δ < α.
    pub alpha: f64,
    /// Excellent-performance threshold β: decrease resources when δ > β.
    pub beta: f64,
    /// Multiplicative step per tick ("small proportion").
    pub step: f64,
    /// Lower clamp on the factor.
    pub min_factor: f64,
    /// Upper clamp on the factor.
    pub max_factor: f64,
}

impl Default for ReassuranceConfig {
    fn default() -> Self {
        // α/β empirically chosen (§4.3 "we empirically establish two
        // thresholds"): grow when within 5% of the target, shrink only
        // when latency is below 30% of the target, and never shrink a
        // service below 70% of its base request — adjustments stay
        // "timely and smooth" without trading away the QoS margin.
        ReassuranceConfig {
            alpha: 0.05,
            beta: 0.7,
            step: 0.10,
            min_factor: 0.7,
            max_factor: 3.0,
        }
    }
}

/// One adjustment decision from a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjustment {
    /// Node the adjustment applies to.
    pub node: NodeId,
    /// Service being adjusted.
    pub service: ServiceId,
    /// The slack score that triggered it.
    pub slack: f64,
    /// The new factor.
    pub factor: f64,
}

/// The QoS re-assurer (one per master node in the paper's deployment; one
/// shared instance works identically in simulation because state is keyed
/// by node).
#[derive(Debug)]
pub struct Reassurer {
    cfg: ReassuranceConfig,
    factors: FxHashMap<(NodeId, ServiceId), f64>,
}

impl Reassurer {
    /// Create a re-assurer.
    pub fn new(cfg: ReassuranceConfig) -> Self {
        Reassurer {
            cfg,
            factors: FxHashMap::default(),
        }
    }

    /// Current factor for (node, service); 1.0 until adjusted.
    pub fn factor(&self, node: NodeId, service: ServiceId) -> f64 {
        self.factors.get(&(node, service)).copied().unwrap_or(1.0)
    }

    /// The adjusted minimum request for (node, service) given the base.
    pub fn min_request(&self, node: NodeId, service: ServiceId, base: Resources) -> Resources {
        // Skip the per-row hash lookup while no adjustment exists (the
        // common steady state); the scale/max arithmetic is kept so the
        // result stays bit-identical with `factor(..) == 1.0`.
        let f = if self.factors.is_empty() {
            1.0
        } else {
            self.factor(node, service)
        };
        base.scale_f64(f).max(&Resources::new(1, 1, 0, 0))
    }

    /// Drop all factors for a node, returning every service to 1.0. A
    /// node recovering from a crash restarts with fresh containers, so the
    /// pre-crash adjustment history no longer describes it.
    pub fn reset_node(&mut self, node: NodeId) {
        self.factors.retain(|(n, _), _| *n != node);
    }

    /// Encode the adjustment factors for a checkpoint (sorted by key so
    /// the bytes are stable; the config is rebuilt from `TangoConfig`).
    pub fn snapshot(&self, w: &mut tango_snap::SnapWriter) {
        use tango_snap::SnapEncode;
        let mut factors: Vec<(&(NodeId, ServiceId), &f64)> = self.factors.iter().collect();
        factors.sort_unstable_by_key(|&(k, _)| *k);
        factors.encode(w);
    }

    /// Restore factors captured by [`Reassurer::snapshot`].
    pub fn restore(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        use tango_snap::SnapDecode;
        let factors = Vec::<((NodeId, ServiceId), f64)>::decode(r)?;
        self.factors = factors.into_iter().collect();
        Ok(())
    }

    /// Run Algorithm 1 over every (node, service) pair with samples in the
    /// detector's window, using `targets` for γ lookup. Returns the
    /// adjustments made this tick.
    pub fn tick(
        &mut self,
        detector: &mut QosDetector,
        targets: &dyn Fn(ServiceId) -> SimTime,
        now: SimTime,
    ) -> Vec<Adjustment> {
        let mut out = Vec::new();
        for (node, service) in detector.active_pairs(now) {
            let target = targets(service);
            if target == SimTime::MAX {
                continue; // BE: no QoS target, nothing to re-assure
            }
            let Some(slack) = detector.slack(node, service, target, now) else {
                continue;
            };
            let entry = self.factors.entry((node, service)).or_insert(1.0);
            let old = *entry;
            if slack < self.cfg.alpha {
                *entry = (old * (1.0 + self.cfg.step)).min(self.cfg.max_factor);
            } else if slack > self.cfg.beta {
                *entry = (old * (1.0 - self.cfg.step)).max(self.cfg.min_factor);
            }
            if (*entry - old).abs() > f64::EPSILON {
                out.push(Adjustment {
                    node,
                    service,
                    slack,
                    factor: *entry,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn detector_with(node: u32, svc: u16, latency_ms: u64) -> QosDetector {
        let mut d = QosDetector::paper_default();
        for i in 0..5 {
            d.record(NodeId(node), ServiceId(svc), ms(10 + i), ms(latency_ms));
        }
        d
    }

    const TARGET: SimTime = SimTime(300_000); // 300ms

    fn targets(_: ServiceId) -> SimTime {
        TARGET
    }

    #[test]
    fn poor_slack_grows_the_minimum_request() {
        // latency 290ms vs target 300 -> δ ≈ 0.033 < α=0.1 -> grow
        let mut d = detector_with(1, 0, 290);
        let mut r = Reassurer::new(ReassuranceConfig::default());
        let adj = r.tick(&mut d, &targets, ms(50));
        assert_eq!(adj.len(), 1);
        assert!(adj[0].factor > 1.0);
        assert!(r.factor(NodeId(1), ServiceId(0)) > 1.0);
    }

    #[test]
    fn excellent_slack_shrinks_it() {
        // latency 60ms vs 300 -> δ = 0.8 > β=0.5 -> shrink
        let mut d = detector_with(1, 0, 60);
        let mut r = Reassurer::new(ReassuranceConfig::default());
        let adj = r.tick(&mut d, &targets, ms(50));
        assert_eq!(adj.len(), 1);
        assert!(adj[0].factor < 1.0);
    }

    #[test]
    fn stable_slack_leaves_it_alone() {
        // latency 210ms -> δ = 0.3, between α and β
        let mut d = detector_with(1, 0, 210);
        let mut r = Reassurer::new(ReassuranceConfig::default());
        let adj = r.tick(&mut d, &targets, ms(50));
        assert!(adj.is_empty());
        assert_eq!(r.factor(NodeId(1), ServiceId(0)), 1.0);
    }

    #[test]
    fn reset_node_returns_factors_to_one() {
        let mut d = detector_with(1, 0, 290);
        let mut r = Reassurer::new(ReassuranceConfig::default());
        r.tick(&mut d, &targets, ms(50));
        assert!(r.factor(NodeId(1), ServiceId(0)) > 1.0);
        r.reset_node(NodeId(1));
        assert_eq!(r.factor(NodeId(1), ServiceId(0)), 1.0);
    }

    #[test]
    fn factors_clamp_at_band_edges() {
        let cfg = ReassuranceConfig::default();
        let mut r = Reassurer::new(cfg.clone());
        // hammer "poor" for many ticks
        for t in 0..100u64 {
            let mut d = detector_with(1, 0, 400); // violating
            r.tick(&mut d, &targets, ms(50 + t));
        }
        assert!((r.factor(NodeId(1), ServiceId(0)) - cfg.max_factor).abs() < 1e-9);
        // hammer "excellent"
        for t in 0..200u64 {
            let mut d = detector_with(2, 0, 10);
            r.tick(&mut d, &targets, ms(50 + t));
        }
        assert!((r.factor(NodeId(2), ServiceId(0)) - cfg.min_factor).abs() < 1e-9);
    }

    #[test]
    fn be_services_are_ignored() {
        let mut d = detector_with(1, 5, 10_000);
        let mut r = Reassurer::new(ReassuranceConfig::default());
        let be_targets = |_: ServiceId| SimTime::MAX;
        let adj = r.tick(&mut d, &be_targets, ms(50));
        assert!(adj.is_empty());
    }

    #[test]
    fn min_request_scales_base() {
        let mut r = Reassurer::new(ReassuranceConfig::default());
        r.factors.insert((NodeId(1), ServiceId(0)), 2.0);
        let base = Resources::cpu_mem(500, 256);
        let adj = r.min_request(NodeId(1), ServiceId(0), base);
        assert_eq!(adj.cpu_milli, 1_000);
        assert_eq!(adj.memory_mib, 512);
        // unknown pair: factor 1
        assert_eq!(r.min_request(NodeId(9), ServiceId(0), base), base);
    }

    #[test]
    fn adjustments_are_per_node_and_service() {
        let mut d = QosDetector::paper_default();
        d.record(NodeId(1), ServiceId(0), ms(10), ms(400)); // poor
        d.record(NodeId(2), ServiceId(0), ms(10), ms(30)); // excellent
        let mut r = Reassurer::new(ReassuranceConfig::default());
        r.tick(&mut d, &targets, ms(50));
        assert!(r.factor(NodeId(1), ServiceId(0)) > 1.0);
        assert!(r.factor(NodeId(2), ServiceId(0)) < 1.0);
    }
}
