//! The edge-cloud system runtime: Tango's dispatch–allocate–adjust loop
//! (§3 "Operation") as a staged discrete-event simulation over the
//! kube/cgroup/net substrates.
//!
//! This file is the *event router and builder* only. The behavior lives
//! in the stage modules, each owning its slice of state and receiving a
//! [`SystemCtx`] borrow-view per event:
//!
//! * [`crate::lifecycle`] — arrival, queue aging/abandonment,
//!   delivery, admission, completion, reservations;
//! * [`crate::dispatch`] — per-master LC rounds, BE forwarding,
//!   the central BE dispatcher, and the candidate-view builder;
//! * [`crate::sync_loop`] — the state-storage sync cycle and
//!   the Algorithm 1 re-assurance tick;
//! * [`crate::fault_rt`] — crash/recover/failover and the
//!   conservation audit.
//!
//! Event alphabet:
//! * `Arrival` — a trace request reaches its origin master and is queued
//!   (LC queue or BE queue);
//! * `Dispatch(c)` — master c's dispatch round: LC requests are planned
//!   per type by the cluster's LC scheduler over geo-nearby candidates;
//!   BE requests are forwarded to the central cluster (or scheduled
//!   locally in `local_only` / CERES mode);
//! * `CentralArrive` — a forwarded BE request lands at the central
//!   cluster's BE traffic dispatcher;
//! * `BeDispatch` — the central dispatcher schedules queued BE requests
//!   with the configured BE scheduler, paying it the §5.3.1 reward for its
//!   previous decision;
//! * `Deliver` — a dispatched request reaches its target worker and is
//!   admitted under the configured allocator (HRM regulations or static
//!   limits); failures requeue, evictions requeue the evicted BE work;
//! * `NodeCheck` — a projected completion: advance the node, collect
//!   completions, feed the QoS detector, reclaim resources;
//! * `Reassure` — Algorithm 1 over the QoS detector;
//! * `Sync` — push node snapshots to the state storage and sample
//!   utilization (the Prometheus/QoS-detector push cycle of Fig. 3);
//! * `MigrateArrive` — a migrating BE pod's checkpoint lands at its
//!   destination node (or bounces off a mid-transfer crash).

use crate::config::{AllocatorKind, TangoConfig};
use crate::ctrl_rt::CtrlState;
use crate::ctx::SystemCtx;
use crate::dispatch::DispatchState;
use crate::fault_rt;
use crate::lifecycle::{self, LifecycleState};
use crate::migration::MigrationState;
use crate::policy::{make_be_scheduler, make_lc_scheduler};
use crate::report::{RunAudit, RunReport};
use crate::runtime::{static_limits, Allocator, ClusterRt};
use crate::sync_loop::SyncState;
use std::collections::VecDeque;
use tango_faults::{FaultEvent, FaultState, SystemLayout};
use tango_hrm::Reassurer;
use tango_kube::Node;
use tango_metrics::{Counter, ExperimentCounters, QosDetector, StateStorage, TraceSink};
use tango_net::NetworkTopology;
use tango_simcore::{Engine, EventHandler, SimRng};
use tango_types::{ClusterId, NodeId, RequestId, Resources, ServiceId, SimTime};
use tango_workload::{ServiceCatalog, TraceCursor};

/// Simulation events.
#[derive(Debug, Clone)]
pub enum Event {
    /// A request arrives at its origin master.
    Arrival {
        /// Service type.
        service: ServiceId,
        /// Origin cluster.
        origin: ClusterId,
        /// Jittered demand from the trace.
        demand: Resources,
    },
    /// Master dispatch round for a cluster.
    Dispatch(ClusterId),
    /// Forwarded BE request reaches the central dispatcher.
    CentralArrive(RequestId),
    /// Central BE dispatch round.
    BeDispatch,
    /// Request payload reaches its target worker. The third field is the
    /// target's crash epoch at dispatch time: if the node crashed while
    /// the payload was in flight, the epochs disagree and the delivery
    /// bounces back to its scheduler instead of touching the (wiped)
    /// reservation table.
    Deliver(RequestId, NodeId, u64),
    /// Projected completion check (with the generation that scheduled it).
    NodeCheck(NodeId, u64),
    /// QoS re-assurance tick (Algorithm 1).
    Reassure,
    /// State-storage sync + metrics sampling.
    Sync,
    /// A compiled fault-plan event fires (crash/recover/degrade/...).
    Fault(FaultEvent),
    /// A migrating BE pod's checkpoint reaches its destination. The third
    /// field is the destination's crash epoch when the transfer started;
    /// a mismatch means the node crashed mid-transfer and the pod bounces
    /// back to its scheduler (same contract as `Deliver`).
    MigrateArrive(RequestId, NodeId, u64),
}

/// The simulated edge-cloud system: owner of all state, router of all
/// events. Stage logic lives in the stage modules.
pub struct EdgeCloudSystem {
    pub(crate) cfg: TangoConfig,
    pub(crate) catalog: ServiceCatalog,
    pub(crate) topology: NetworkTopology,
    pub(crate) nodes: Vec<Node>,
    pub(crate) clusters: Vec<ClusterRt>,
    pub(crate) store: StateStorage,
    pub(crate) allocator: Allocator,
    pub(crate) detector: QosDetector,
    pub(crate) reassurer: Option<Reassurer>,
    pub(crate) counters: ExperimentCounters,
    pub(crate) lifecycle: LifecycleState,
    pub(crate) dispatch: DispatchState,
    pub(crate) sync: SyncState,
    pub(crate) fault: FaultState,
    pub(crate) ctrl: CtrlState,
    pub(crate) migration: MigrationState,
    pub(crate) horizon: SimTime,
    /// Optional stage-boundary trace sink (None = zero-cost no-op).
    pub(crate) trace: Option<Box<dyn TraceSink + Send>>,
}

impl EdgeCloudSystem {
    /// Build the system: place clusters, create nodes, deploy all ten
    /// services on every worker, instantiate policies.
    pub fn new(cfg: TangoConfig) -> Self {
        Self::with_catalog(cfg, ServiceCatalog::standard())
    }

    /// Build with a custom service catalog.
    pub fn with_catalog(cfg: TangoConfig, catalog: ServiceCatalog) -> Self {
        let mut topo_cfg = cfg.topology.clone();
        topo_cfg.clusters = cfg.clusters;
        topo_cfg.seed = cfg.seed ^ 0x7070;
        let mut topology = NetworkTopology::generate(&topo_cfg);
        let mut rng = SimRng::new(cfg.seed);

        let mut nodes: Vec<Node> = Vec::new();
        let mut clusters: Vec<ClusterRt> = Vec::new();
        let mut lc_scheds = Vec::new();

        // Append cluster `cid`: its master, one worker per capacity with
        // every catalog service deployed, and the cluster's LC scheduler.
        let limits = static_limits(&cfg, &catalog);
        let mut push_cluster = |cid: ClusterId, capacities: Vec<Resources>| {
            let master_id = NodeId(nodes.len() as u32);
            nodes.push(Node::new(master_id, cid, true, cfg.master_capacity));
            let mut workers = Vec::with_capacity(capacities.len());
            for capacity in capacities {
                let wid = NodeId(nodes.len() as u32);
                let mut node = Node::new(wid, cid, false, capacity);
                for spec in catalog.specs() {
                    let initial = match cfg.allocator {
                        AllocatorKind::Hrm => spec.min_request,
                        AllocatorKind::Static => limits[spec.id.index()]
                            .min(&capacity)
                            .max(&spec.min_request)
                            .min(&capacity),
                    };
                    node.deploy_service(spec, initial, SimTime::ZERO)
                        .expect("fresh node accepts deployments");
                }
                nodes.push(node);
                workers.push(wid);
            }
            clusters.push(ClusterRt::new(cid, master_id, workers));
            lc_scheds.push(make_lc_scheduler(
                cfg.lc_policy,
                cfg.seed ^ (cid.index() as u64) << 8,
                &cfg.ablations,
            ));
        };
        for c in 0..cfg.clusters {
            let n_workers = rng.range_u64(
                cfg.workers_per_cluster.0 as u64,
                cfg.workers_per_cluster.1 as u64,
            );
            // heterogeneity: ±25% capacity jitter
            let capacities = (0..n_workers)
                .map(|_| cfg.worker_capacity.scale_f64(rng.range_f64(0.75, 1.25)))
                .collect();
            push_cluster(ClusterId(c as u32), capacities);
        }

        let be_sched = make_be_scheduler(cfg.be_policy, cfg.seed ^ 0xbe, &cfg.ablations);
        let allocator = Allocator::from_config(&cfg, &catalog);
        let reassurer = cfg.reassurance.clone().map(Reassurer::new);
        // The BE dispatcher must stay on the edge: pick the central
        // cluster before the cloud tier (if any) joins the topology.
        let central = topology.most_central();
        let counters = ExperimentCounters::new(cfg.period);

        // Elastic cloud tier: one extra cluster appended after every edge
        // cluster, built with zero draws from the shared RNG so the edge
        // layout is bit-identical whether the tier is on or off. It gets
        // an LC scheduler for index/snapshot-shape consistency, though
        // `prime` never schedules a dispatch round for it. Workers are
        // uniform datacenter-grade machines: no capacity jitter.
        let cloud_cluster = cfg.cloud.as_ref().map(|cloud| {
            let cid =
                topology.attach_cloud(cloud.one_way_base, cloud.us_per_km, cloud.bandwidth_mbps);
            debug_assert_eq!(cid.index(), cfg.clusters);
            push_cluster(cid, vec![cloud.worker_capacity; cloud.workers]);
            cid
        });
        let migration = MigrationState::from_config(&cfg, cloud_cluster);

        let lifecycle = LifecycleState::new(nodes.len());
        let fault = FaultState::new(nodes.len());
        let ctrl = CtrlState::from_config(&cfg, nodes.len());
        EdgeCloudSystem {
            cfg,
            catalog,
            topology,
            nodes,
            clusters,
            store: StateStorage::new(),
            allocator,
            detector: QosDetector::paper_default(),
            reassurer,
            counters,
            lifecycle,
            dispatch: DispatchState {
                lc: lc_scheds,
                be: be_sched,
                central,
                central_q: VecDeque::new(),
                be_pending_feedback: None,
                be_completed_frac: 0.0,
                views: Default::default(),
            },
            sync: SyncState::default(),
            fault,
            ctrl,
            migration,
            horizon: SimTime::MAX,
            trace: None,
        }
    }

    /// Access the service catalog.
    pub fn catalog(&self) -> &ServiceCatalog {
        &self.catalog
    }

    /// Number of nodes (masters + workers).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of worker nodes.
    pub fn worker_count(&self) -> usize {
        self.clusters.iter().map(|c| c.workers.len()).sum()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The geographically central cluster hosting the BE dispatcher.
    pub fn central(&self) -> ClusterId {
        self.dispatch.central
    }

    /// Attach a trace sink observing every stage boundary (arrival,
    /// dispatch decision, delivery, admission, completion, abandonment,
    /// fault). Untraced runs pay a single branch per hook.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.trace = Some(sink);
    }

    /// Cross-check every incremental candidate view against a
    /// from-scratch rebuild on each dispatcher query (slow; the
    /// view-cache property tests' assertion hook).
    pub fn set_view_verification(&mut self, on: bool) {
        self.dispatch.views.set_verify(on);
    }

    /// Split `self` into the per-event borrow view the stage modules
    /// consume (see [`crate::ctx`] for the borrow rules).
    fn ctx(&mut self) -> SystemCtx<'_> {
        SystemCtx {
            cfg: &self.cfg,
            catalog: &self.catalog,
            topology: &mut self.topology,
            nodes: &mut self.nodes,
            clusters: &mut self.clusters,
            store: &mut self.store,
            detector: &mut self.detector,
            reassurer: &mut self.reassurer,
            counters: &mut self.counters,
            allocator: &mut self.allocator,
            lifecycle: &mut self.lifecycle,
            dispatch: &mut self.dispatch,
            sync: &mut self.sync,
            fault: &mut self.fault,
            ctrl: &mut self.ctrl,
            migration: &mut self.migration,
            horizon: self.horizon,
            trace: self.trace.as_deref_mut().map(|t| t as _),
        }
    }

    // ------------------------------------------------------------------
    // driving
    // ------------------------------------------------------------------

    /// Run the system for `duration`, driven by a synthesized trace, and
    /// produce the report.
    pub fn run(mut self, duration: SimTime, label: &str) -> RunReport {
        self.run_inner(duration);
        self.finish(label)
    }

    /// Like [`run`](Self::run), but also produce the per-request
    /// conservation audit — the fault tests use it to prove that churn
    /// neither loses requests nor leaves them running on dead nodes.
    pub fn run_audited(mut self, duration: SimTime, label: &str) -> (RunReport, RunAudit) {
        self.run_inner(duration);
        let audit = fault_rt::audit(&self);
        (self.finish(label), audit)
    }

    pub(crate) fn run_inner(&mut self, duration: SimTime) {
        let mut engine: Engine<Event> = Engine::new();
        self.prime(&mut engine, duration);
        engine.run_until(self, duration);
    }

    /// Seed a fresh engine with everything a run needs — the trace's
    /// first arrival (each arrival queues the next), the compiled fault
    /// plan, the periodic drivers — and set the horizon. `run_inner` and
    /// the checkpoint loop both start here.
    pub(crate) fn prime(&mut self, engine: &mut Engine<Event>, duration: SimTime) {
        self.horizon = duration;
        let spec = lifecycle::trace_spec(&self.cfg, duration);
        self.lifecycle.arrivals = Some(TraceCursor::new(&self.catalog, spec));
        if let Some((at, key, event)) = self.lifecycle.next_arrival(&self.catalog) {
            engine.schedule_keyed(at, key, event);
        }
        // fault plan: compiled once, before the engine starts
        if !self.cfg.faults.is_empty() {
            let layout = SystemLayout {
                masters: self.clusters.iter().map(|c| c.master).collect(),
                workers: self.clusters.iter().map(|c| c.workers.clone()).collect(),
            };
            for (at, fe) in self.cfg.faults.compile(&layout, duration) {
                engine.schedule_at(at, Event::Fault(fe));
            }
        }
        // periodic drivers
        engine.schedule_at(SimTime::ZERO, Event::Sync);
        for c in 0..self.cfg.clusters {
            engine.schedule_at(
                self.cfg.dispatch_interval,
                Event::Dispatch(ClusterId(c as u32)),
            );
        }
        engine.schedule_at(self.cfg.dispatch_interval, Event::BeDispatch);
        engine.schedule_at(self.cfg.reassure_interval, Event::Reassure);
    }

    pub(crate) fn finish(mut self, label: &str) -> RunReport {
        self.fault.settle(self.horizon);
        let c = &self.counters;
        self.fault.summary.fault_qos_violations = c.total(Counter::FaultQosViolations);
        RunReport {
            label: label.to_string(),
            periods: c.periods(),
            qos_satisfaction: c.qos_satisfaction_rate().unwrap_or(0.0),
            be_throughput: c.total(Counter::BeCompleted),
            abandoned: c.total(Counter::Abandoned),
            mean_utilization: c.mean_utilization(),
            lc_p95_ms: c.overall_lc_p95_ms(),
            lc_arrived: c.total(Counter::LcArrived),
            lc_completed: c.total(Counter::LcCompleted),
            dvpa_ops: self.allocator.dvpa_ops(),
            be_evictions: self.lifecycle.be_evictions,
            faults: self.fault.summary.clone(),
            migrations_started: c.total(Counter::MigrationsStarted),
            migrations_completed: c.total(Counter::MigrationsCompleted),
            cloud_egress_kib: c.total(Counter::CloudEgressKib),
        }
    }
}

impl EventHandler for EdgeCloudSystem {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut tango_simcore::engine::Scheduler<'_, Event>) {
        let mut ctx = self.ctx();
        match event {
            Event::Arrival {
                service,
                origin,
                demand,
            } => crate::lifecycle::on_arrival(&mut ctx, service, origin, demand, sched),
            Event::Dispatch(cluster) => crate::dispatch::on_dispatch(&mut ctx, cluster, sched),
            Event::CentralArrive(rid) => crate::dispatch::on_central_arrive(&mut ctx, rid),
            Event::BeDispatch => crate::dispatch::on_be_dispatch(&mut ctx, sched),
            Event::Deliver(rid, node, epoch) => {
                crate::lifecycle::on_deliver(&mut ctx, rid, node, epoch, sched)
            }
            Event::NodeCheck(node, generation) => {
                crate::lifecycle::on_node_check(&mut ctx, node, generation, sched)
            }
            Event::Reassure => crate::sync_loop::on_reassure(&mut ctx, sched),
            Event::Sync => crate::sync_loop::on_sync(&mut ctx, sched),
            Event::Fault(fault) => crate::fault_rt::on_fault(&mut ctx, fault, sched),
            Event::MigrateArrive(rid, node, epoch) => {
                crate::migration::on_migrate_arrive(&mut ctx, rid, node, epoch, sched)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::testutil::small_cfg;

    #[test]
    fn system_builds_with_expected_layout() {
        let sys = EdgeCloudSystem::new(small_cfg());
        assert_eq!(sys.clusters.len(), 2);
        assert_eq!(sys.worker_count(), 8); // 4 per cluster
        assert_eq!(sys.node_count(), 10); // + 2 masters
                                          // every worker has all ten services deployed
        for c in &sys.clusters {
            for &w in &c.workers {
                let node = &sys.nodes[w.index()];
                for spec in sys.catalog.specs() {
                    assert!(node.container(spec.id).is_some());
                }
            }
        }
    }
}
