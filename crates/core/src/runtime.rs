//! Shared runtime primitives — the cluster control-plane record, the
//! node-level allocator, static-limit derivation — plus parallel
//! experiment execution.
//!
//! [`ClusterRt`] and [`Allocator`] used to be private appendages of the
//! `system.rs` monolith; they live here so every stage module (lifecycle,
//! dispatch, sync, fault) shares one documented definition instead of
//! reaching into the god-file.

use crate::config::{AllocatorKind, TangoConfig};
use crate::report::RunReport;
use crate::system::EdgeCloudSystem;
use std::collections::VecDeque;
use tango_hrm::{AdmitOutcome, HrmAllocator, StaticAllocator};
use tango_kube::Node;
use tango_types::{
    ClusterId, NodeId, Request, RequestId, Resources, ServiceClass, SimTime, TangoError,
};
use tango_workload::ServiceCatalog;

/// Per-cluster control-plane state: the master's identity and its two
/// dispatch queues.
///
/// Invariants:
/// * `master` and `workers` are fixed at build time; crash/recovery never
///   mutates them — failover is *routing* (see `fault_rt::acting_master_for`),
///   so a recovered master resumes its own cluster without state surgery.
/// * `lc_q` / `be_q` hold requests that are **queued at this master**, in
///   arrival order; a request id appears in at most one queue
///   system-wide (master queues, the central BE queue, or a node wait
///   queue — never two at once).
/// * Queues age even while the master is down: expiry runs every dispatch
///   round regardless of control-plane health.
pub struct ClusterRt {
    /// Cluster id (index into the system's cluster vector).
    pub(crate) id: ClusterId,
    /// The cluster's master node.
    pub(crate) master: NodeId,
    /// Worker nodes, in creation order.
    pub(crate) workers: Vec<NodeId>,
    /// LC requests awaiting this master's next dispatch round.
    pub(crate) lc_q: VecDeque<RequestId>,
    /// BE requests awaiting forwarding (or local scheduling in
    /// `local_only` mode).
    pub(crate) be_q: VecDeque<RequestId>,
}

impl ClusterRt {
    /// Build an empty cluster record.
    pub(crate) fn new(id: ClusterId, master: NodeId, workers: Vec<NodeId>) -> Self {
        ClusterRt {
            id,
            master,
            workers,
            lc_q: VecDeque::new(),
            be_q: VecDeque::new(),
        }
    }

    /// Cluster id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The master node's id.
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Worker node ids, in creation order.
    pub fn workers(&self) -> &[NodeId] {
        &self.workers
    }

    /// The cluster's contiguous node-id range: the master, then its
    /// workers. Clusters are built one after another, so the ranges tile
    /// `0..node_count` in cluster order; the sync shard plan and the
    /// candidate-view segments rely on that layout.
    pub(crate) fn node_range(&self) -> std::ops::Range<usize> {
        let start = self.master.index();
        start..start + 1 + self.workers.len()
    }
}

/// The node-level admission/allocation mode, fixed per run.
///
/// Invariants:
/// * Exactly one variant exists for the whole system; per-node state
///   (limits, cgroups) lives in the nodes, not here.
/// * Only [`Allocator::Hrm`] ever performs D-VPA scaling or evicts BE
///   work; under [`Allocator::Static`] `dvpa_ops()` stays 0 and
///   `rebalance` is a no-op — the Fig. 9 "turbulent allocation"
///   comparison depends on that asymmetry.
pub enum Allocator {
    /// HRM regulations + D-VPA elastic limits (§4).
    Hrm(HrmAllocator),
    /// K8s-native fixed limits.
    Static(StaticAllocator),
}

impl Allocator {
    /// Build the allocator configured in `cfg` for `catalog`'s services.
    pub(crate) fn from_config(cfg: &TangoConfig, catalog: &ServiceCatalog) -> Self {
        match cfg.allocator {
            AllocatorKind::Hrm => {
                let floors = catalog
                    .specs()
                    .iter()
                    .map(|s| (s.id, s.min_request))
                    .collect();
                Allocator::Hrm(HrmAllocator::new(floors))
            }
            AllocatorKind::Static => Allocator::Static(StaticAllocator),
        }
    }

    /// Admit `req` on `node` with its effective `demand` and `work` left
    /// to run — a fresh request's nominal work or a migrated pod's
    /// residual (the §4.1 regulations under HRM; clamp-into-fixed-limits
    /// under static allocation).
    pub(crate) fn admit(
        &mut self,
        node: &mut Node,
        req: &Request,
        demand: Resources,
        work: f64,
        now: SimTime,
    ) -> Result<AdmitOutcome, TangoError> {
        match self {
            Allocator::Hrm(h) => h.admit(node, req, demand, work, now),
            Allocator::Static(s) => s.admit(node, req, demand, work, now),
        }
    }

    /// Post-completion rebalance (D-VPA shrink/regrow). No-op under
    /// static allocation.
    pub(crate) fn rebalance(&mut self, node: &mut Node, now: SimTime) {
        if let Allocator::Hrm(h) = self {
            h.rebalance(node, now);
        }
    }

    /// D-VPA scaling operations performed so far (0 under static
    /// allocation).
    pub(crate) fn dvpa_ops(&self) -> u64 {
        match self {
            Allocator::Hrm(h) => h.dvpa.ops,
            Allocator::Static(_) => 0,
        }
    }
}

/// K8s-native fixed limits "according to the total resource usage ratio
/// in the trace" (§7.1): share ∝ arrival-rate × work, normalized to a
/// true partition (Σ limits ≤ capacity per dimension — fixed allocation
/// means fragmentation, which is exactly the §7.1 "turbulent allocation"
/// the baseline exhibits).
pub(crate) fn static_limits(cfg: &TangoConfig, catalog: &ServiceCatalog) -> Vec<Resources> {
    let lc_count = catalog.lc_ids().len().max(1) as f64;
    let be_count = catalog.be_ids().len().max(1) as f64;
    let weights: Vec<f64> = catalog
        .specs()
        .iter()
        .map(|s| {
            let rate = match s.class {
                ServiceClass::Lc => cfg.workload.lc_rps / lc_count,
                ServiceClass::Be => cfg.workload.be_rps / be_count,
            };
            rate * s.work_milli_ms as f64
        })
        .collect();
    let total: f64 = weights.iter().sum::<f64>().max(1e-9);
    let mut limits: Vec<Resources> = catalog
        .specs()
        .iter()
        .zip(&weights)
        .map(|(s, &w)| {
            let share = w / total;
            cfg.worker_capacity
                .scale_f64(share)
                .max(&s.min_request)
                .min(&cfg.worker_capacity)
        })
        .collect();
    for kind in tango_types::ResourceKind::ALL {
        let sum: u64 = limits.iter().map(|l| l.get(kind)).sum();
        let cap = cfg.worker_capacity.get(kind);
        if sum > cap && sum > 0 {
            let scale = cap as f64 / sum as f64;
            for l in &mut limits {
                l.set(kind, ((l.get(kind) as f64 * scale) as u64).max(1));
            }
        }
    }
    limits
}

/// One experiment to run.
#[derive(Clone)]
pub struct RunSpec {
    /// Report label.
    pub label: String,
    /// System configuration.
    pub config: TangoConfig,
    /// Simulated duration.
    pub duration: SimTime,
}

/// Run every spec to its report, results in input order, fanned out
/// over the process-wide pool ([`tango_par::global`], so `TANGO_THREADS`
/// bounds it). This is the one place a run's work leaves its thread.
///
/// Tango the system is heavily asynchronous (§6: multiprocessing, thread
/// pools); the simulation keeps each *run* on one thread for exact
/// determinism and instead parallelizes across runs — which is what the
/// evaluation needs: Fig. 12 alone is a 4×4 grid of policy pairings.
pub fn run_parallel(specs: Vec<RunSpec>) -> Vec<RunReport> {
    tango_par::global().par_map_collect(&specs, |_, spec| {
        EdgeCloudSystem::new(spec.config.clone()).run(spec.duration, &spec.label)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::testutil::small_cfg;
    use crate::config::BePolicy;

    #[test]
    fn parallel_runs_match_sequential() {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.clusters = 2;
        cfg.topology.clusters = 2;
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg.workload.lc_rps = 20.0;
        cfg.workload.be_rps = 4.0;
        let dur = SimTime::from_secs(3);

        let specs = vec![
            RunSpec {
                label: "a".into(),
                config: cfg.clone(),
                duration: dur,
            },
            RunSpec {
                label: "b".into(),
                config: cfg.clone(),
                duration: dur,
            },
        ];
        let par = run_parallel(specs);
        let seq = EdgeCloudSystem::new(cfg).run(dur, "seq");
        assert_eq!(par.len(), 2);
        assert_eq!(par[0].label, "a");
        assert_eq!(par[1].label, "b");
        // identical configs -> identical deterministic results
        assert_eq!(par[0].lc_arrived, seq.lc_arrived);
        assert_eq!(par[0].be_throughput, par[1].be_throughput);
        assert_eq!(par[0].lc_completed, seq.lc_completed);
    }

    /// The layout the sync shard plan and the candidate-view segments
    /// walk: each cluster's master, then its workers, one cluster after
    /// another, tiling every node id — the cloud tier included.
    #[test]
    fn cluster_node_ranges_tile_the_nodes_in_cluster_order() {
        let mut cloud = small_cfg();
        cloud.cloud = Some(crate::config::CloudConfig::default());
        for cfg in [TangoConfig::paper_scale(), cloud] {
            let edge_clusters = cfg.clusters;
            let has_cloud = cfg.cloud.is_some();
            let sys = EdgeCloudSystem::new(cfg);
            assert_eq!(sys.cluster_count(), edge_clusters + usize::from(has_cloud));
            let mut next = 0;
            for (i, c) in sys.clusters.iter().enumerate() {
                let range = c.node_range();
                assert_eq!(c.id.index(), i);
                assert_eq!(range.start, next, "cluster {i} leaves a gap or overlaps");
                assert_eq!(c.master.index(), range.start, "cluster {i}: master first");
                assert!(
                    c.workers
                        .iter()
                        .map(|w| w.index())
                        .eq(range.start + 1..range.end),
                    "cluster {i}: workers follow the master in id order"
                );
                assert!(sys.nodes[range.clone()].iter().all(|n| n.cluster == c.id));
                next = range.end;
            }
            assert_eq!(next, sys.node_count());
        }
    }

    #[test]
    fn static_limits_form_a_partition_with_floors() {
        let mut cfg = small_cfg();
        cfg.allocator = AllocatorKind::Static;
        let catalog = ServiceCatalog::standard();
        let limits = static_limits(&cfg, &catalog);
        assert_eq!(limits.len(), catalog.len());
        // per-dimension sums never exceed worker capacity (the
        // fragmentation property of fixed allocation)
        for kind in tango_types::ResourceKind::ALL {
            let sum: u64 = limits.iter().map(|l| l.get(kind)).sum();
            assert!(
                sum <= cfg.worker_capacity.get(kind),
                "{kind:?}: {sum} > capacity"
            );
        }
        // every service gets a nonzero slice
        assert!(limits.iter().all(|l| l.cpu_milli >= 1 && l.memory_mib >= 1));
    }

    #[test]
    fn hrm_uses_dvpa_and_static_does_not() {
        let hrm_report = EdgeCloudSystem::new(small_cfg()).run(SimTime::from_secs(5), "hrm");
        assert!(hrm_report.dvpa_ops > 0);

        let mut cfg = small_cfg();
        cfg.allocator = AllocatorKind::Static;
        cfg.reassurance = None;
        let static_report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(5), "static");
        assert_eq!(static_report.dvpa_ops, 0);
    }
}
