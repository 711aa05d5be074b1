//! Layer replays: each layer's public entry point timed on its own, on
//! inputs sized to the workload the traced run just simulated.

use std::collections::HashMap;
use std::hint::black_box;
use tango::policy::make_be_scheduler;
use tango::TangoConfig;
use tango_bench::microbench;
use tango_bench::scenarios::make_batch;
use tango_gnn::{Encoder, EncoderKind, GnnEncoder};
use tango_hrm::{HrmAllocator, ReassuranceConfig, Reassurer};
use tango_kube::Node;
use tango_metrics::QosDetector;
use tango_net::{NetworkTopology, TopologyConfig};
use tango_sched::dcg_be::{build_graph, FEATURE_DIM};
use tango_sched::DssLc;
use tango_simcore::EventQueue;
use tango_types::{
    ClusterId, NodeId, Request, RequestId, Resources, ServiceClass, ServiceId, SimTime,
};
use tango_workload::{DiurnalProfile, ServiceCatalog, TraceEvent, TraceGenerator, TraceSpec};

/// Minimum timed budget of each replay, in ms.
const REPLAY_MS: u64 = 200;

/// What the replays need to know about the simulated system.
pub struct Scale<'a> {
    pub cfg: &'a TangoConfig,
    pub horizon: SimTime,
    /// Every worker, cloud tier included: the BE dispatcher's view.
    pub workers: usize,
    /// LC dispatch decisions the traced run made.
    pub lc_decisions: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Replays {
    pub trace_gen_ms: f64,
    pub trace_events: u64,
    pub trace_mib: f64,
    pub queue_ns_per_op: f64,
    pub lc_plan_us: f64,
    pub be_pick_us: f64,
    pub build_graph_us: f64,
    pub gnn_forward_us: f64,
    pub admit_cycle_us: f64,
    pub reassure_tick_us: f64,
    /// Central cluster of the regenerated topology, for the caller to
    /// check against the built system's.
    pub central: ClusterId,
}

/// The trace spec `EdgeCloudSystem::prime` builds for this config.
fn trace_spec(cfg: &TangoConfig, horizon: SimTime) -> TraceSpec {
    TraceSpec {
        diurnal: if cfg.workload.diurnal {
            DiurnalProfile::default()
        } else {
            DiurnalProfile::flat()
        },
        ..TraceSpec::new(
            cfg.workload.pattern(),
            cfg.clusters,
            horizon,
            cfg.seed ^ 0x77ace,
        )
    }
}

/// Mean size of an LC candidate set: the origin plus its geo-nearby edge
/// clusters, times the mean edge-cluster worker count; and the topology's
/// central cluster. The topology is regenerated with the seed
/// `EdgeCloudSystem::new` derives for it.
fn mean_geo_nodes(cfg: &TangoConfig, workers: usize) -> (usize, ClusterId) {
    let topo = NetworkTopology::generate(&TopologyConfig {
        clusters: cfg.clusters,
        seed: cfg.seed ^ 0x7070,
        ..cfg.topology.clone()
    });
    let edge_workers = workers - cfg.cloud.as_ref().map_or(0, |c| c.workers);
    let per_cluster = edge_workers as f64 / cfg.clusters as f64;
    let sets: usize = (0..cfg.clusters)
        .map(|c| {
            1 + topo
                .clusters_within(ClusterId(c as u32), cfg.geo_radius_km)
                .len()
        })
        .sum();
    let nodes = ((sets as f64 / cfg.clusters as f64) * per_cluster)
        .round()
        .max(1.0) as usize;
    (nodes, topo.most_central())
}

fn us(s: &microbench::Sample) -> f64 {
    s.ns_per_iter / 1e3
}

pub fn run(scale: &Scale<'_>) -> Replays {
    let cfg = scale.cfg;
    let catalog = ServiceCatalog::standard();

    // workload: the eager trace build `prime()` does before the run
    let spec = trace_spec(cfg, scale.horizon);
    let gen = microbench::run("trace_gen", REPLAY_MS, || {
        TraceGenerator::new(&catalog, spec.clone()).collect_events()
    });
    let events = TraceGenerator::new(&catalog, spec).collect_events();
    let trace_bytes = events.len() * std::mem::size_of::<TraceEvent>();

    // simcore: every arrival pushed into, then popped from, a queue
    let times: Vec<SimTime> = events.iter().map(|e| e.at).collect();
    let queue = microbench::run("event_queue", REPLAY_MS, || {
        let mut q = EventQueue::new();
        for (i, &at) in times.iter().enumerate() {
            q.push(at, i as u32);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });

    // sched: one DSS-LC type batch at the mean geo-nearby size, with the
    // mean number of requests a master plans per type and round
    let rounds = (scale.horizon.as_micros() / cfg.dispatch_interval.as_micros()).max(1);
    let lc_types = catalog.lc_ids().len().max(1) as u64;
    let per_batch = scale
        .lc_decisions
        .div_ceil(rounds * cfg.clusters as u64 * lc_types)
        .max(1);
    let (geo_nodes, central) = mean_geo_nodes(cfg, scale.workers);
    let batch = make_batch(geo_nodes, per_batch);
    let mut dss = DssLc::new(cfg.seed);
    let lc_plan = microbench::run("lc_plan", REPLAY_MS, || dss.plan(black_box(&batch)));

    // sched + gnn: the configured BE policy over every worker
    let rows = make_batch(scale.workers, 1).nodes;
    let demand = Resources::cpu_mem(500, 256);
    let mut be = make_be_scheduler(cfg.be_policy, cfg.seed ^ 0xbe, &cfg.ablations);
    // twice the budget, and a mean rather than a median of batches, so
    // a learning policy's periodic training round is paid for in full
    let be_pick = microbench::run("be_pick", 2 * REPLAY_MS, || {
        let pick = be.schedule(black_box(&demand), &rows);
        be.feedback(0.5, &demand, &rows);
        pick
    });
    let graph_build = microbench::run("build_graph", REPLAY_MS, || {
        build_graph(black_box(&demand), &rows)
    });
    let graph = build_graph(&demand, &rows);
    let mut enc =
        GnnEncoder::paper_shape(EncoderKind::Sage { p: 3 }, FEATURE_DIM, 32, 16, cfg.seed);
    let forward = microbench::run("gnn_forward", REPLAY_MS, || enc.forward(black_box(&graph)));

    Replays {
        trace_gen_ms: gen.ns_per_iter / 1e6,
        trace_events: events.len() as u64,
        trace_mib: trace_bytes as f64 / (1024.0 * 1024.0),
        queue_ns_per_op: queue.ns_per_iter / (2.0 * times.len().max(1) as f64),
        lc_plan_us: us(&lc_plan),
        be_pick_us: be_pick.total_ns as f64 / be_pick.iters as f64 / 1e3,
        build_graph_us: us(&graph_build),
        gnn_forward_us: us(&forward),
        admit_cycle_us: admit_cycle_us(cfg, &catalog),
        reassure_tick_us: reassure_tick_us(scale.workers, &catalog),
        central,
    }
}

/// HRM admission with rebalance, completion and reclaim on one worker of
/// the workload's capacity, cycling through every service.
fn admit_cycle_us(cfg: &TangoConfig, catalog: &ServiceCatalog) -> f64 {
    let mut node = Node::new(NodeId(1), ClusterId(0), false, cfg.worker_capacity);
    let mut floors = HashMap::new();
    for s in catalog.specs() {
        node.deploy_service(s, s.min_request, SimTime::ZERO)
            .expect("fresh node accepts deployments");
        floors.insert(s.id, s.min_request);
    }
    let mut alloc = HrmAllocator::new(floors);
    let specs = catalog.specs();
    let mut t = 0u64;
    let mut rid = 0u64;
    let s = microbench::run("admit_cycle", REPLAY_MS, || {
        let sp = &specs[rid as usize % specs.len()];
        let now = SimTime::from_millis(t);
        let req = Request::new(
            RequestId(rid),
            sp.id,
            sp.class,
            ClusterId(0),
            now,
            sp.min_request,
        );
        let _ = black_box(alloc.try_admit(&mut node, &req, sp.work_milli_ms, now));
        // a long gap lets everything drain before the next admission
        t += 60_000;
        let later = SimTime::from_millis(t);
        node.advance(later);
        node.take_completions();
        alloc.rebalance(&mut node, later);
        rid += 1;
    });
    us(&s)
}

/// One Algorithm 1 tick over every (worker, LC service) pair.
fn reassure_tick_us(workers: usize, catalog: &ServiceCatalog) -> f64 {
    let now = SimTime::from_millis(1_000);
    let lc: Vec<ServiceId> = catalog.lc_ids();
    let mut detector = QosDetector::paper_default();
    for node in 0..workers as u32 {
        for &svc in &lc {
            for k in 0..10u64 {
                detector.record(
                    NodeId(node),
                    svc,
                    now.saturating_since(SimTime::from_millis(k)),
                    SimTime::from_millis(150 + (u64::from(node) + k) % 200),
                );
            }
        }
    }
    let targets = |s: ServiceId| {
        if catalog.get(s).class == ServiceClass::Lc {
            catalog.get(s).qos_target
        } else {
            SimTime::MAX
        }
    };
    let mut reassurer = Reassurer::new(ReassuranceConfig::default());
    let s = microbench::run("reassure_tick", REPLAY_MS, || {
        reassurer.tick(&mut detector, &targets, now)
    });
    us(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn the_regenerated_topology_is_the_systems() {
        let cfg = Workload::TangoFull.config(7, 1);
        let sys = tango::EdgeCloudSystem::new(cfg.clone());
        let (n, central) = mean_geo_nodes(&cfg, sys.worker_count());
        assert!((10..=sys.worker_count()).contains(&n), "{n}");
        assert_eq!(central, sys.central());
    }
}
