//! Integration across substrate crates: DSS-LC plans executed against
//! real kube nodes under the HRM allocator, exercising the full
//! plan → admit → execute → complete → reclaim loop without the system
//! runtime in between.

use std::collections::HashMap;
use tango_repro::hrm::HrmAllocator;
use tango_repro::kube::Node;
use tango_repro::sched::{CandidateNode, DssLc, LcScheduler, TypeBatch};
use tango_repro::types::{
    ClusterId, NodeId, Request, RequestId, Resources, ServiceClass, ServiceId, ServiceSpec, SimTime,
};

fn lc_spec() -> ServiceSpec {
    ServiceSpec {
        id: ServiceId(0),
        name: "lc".into(),
        class: ServiceClass::Lc,
        min_request: Resources::cpu_mem(500, 256),
        work_milli_ms: 50_000, // 100 ms at min request
        qos_target: SimTime::from_millis(300),
        payload_kib: 64,
    }
}

fn make_nodes(n: usize, cpu: u64) -> Vec<Node> {
    (0..n)
        .map(|i| {
            let mut node = Node::new(
                NodeId(i as u32),
                ClusterId(0),
                false,
                Resources::new(cpu, 8_192, 1_000, 50_000),
            );
            node.deploy_service(&lc_spec(), lc_spec().min_request, SimTime::ZERO)
                .unwrap();
            node
        })
        .collect()
}

fn candidates(nodes: &[Node]) -> Vec<CandidateNode> {
    nodes
        .iter()
        .map(|n| {
            let (lc, be) = n.demand_usage();
            let avail = n.capacity().saturating_sub(&lc).saturating_sub(&be);
            CandidateNode {
                node: n.id,
                cluster: n.cluster,
                total: n.capacity(),
                available_lc: avail + be,
                available_be: avail,
                min_request: lc_spec().min_request,
                delay: SimTime::from_millis(1 + n.id.raw() as u64),
                link_capacity: 100,
                slack: 1.0,
                alive: true,
            }
        })
        .collect()
}

/// Plan with DSS-LC, admit with HRM, run to completion, verify every
/// placed request finished within capacity.
#[test]
fn dss_lc_plan_executes_on_real_nodes() {
    let mut nodes = make_nodes(3, 4_000);
    let mut sched = DssLc::new(9);
    let n_requests = 20u64; // 3 nodes × 8 slots = 24 slots > 20
    let batch = TypeBatch::new(
        ServiceId(0),
        (0..n_requests).map(RequestId).collect(),
        candidates(&nodes),
    );
    let placements = sched.assign(&batch.as_lc());
    assert_eq!(placements.len(), n_requests as usize);

    let floors: HashMap<ServiceId, Resources> = [(ServiceId(0), lc_spec().min_request)]
        .into_iter()
        .collect();
    let mut alloc = HrmAllocator::new(floors);
    let t0 = SimTime::from_millis(5);
    for (rid, node_id) in &placements {
        let req = Request::new(
            *rid,
            ServiceId(0),
            ServiceClass::Lc,
            ClusterId(0),
            SimTime::ZERO,
            lc_spec().min_request,
        );
        let node = &mut nodes[node_id.index()];
        alloc
            .try_admit(node, &req, lc_spec().work_milli_ms, t0)
            .unwrap_or_else(|e| panic!("admit {rid} on {node_id} failed: {e}"));
    }
    // all requests run at their demand (capacity suffices) -> done at +100ms
    let t_done = SimTime::from_millis(105);
    let mut completed = 0;
    for node in &mut nodes {
        node.advance(t_done);
        completed += node.take_completions().len();
    }
    assert_eq!(completed, n_requests as usize);
    // resources fully reclaimed
    for node in &mut nodes {
        alloc.rebalance(node, t_done);
        let (lc, be) = node.demand_usage();
        assert!(lc.is_zero() && be.is_zero());
    }
}

/// Overload case: DSS-LC queues the overflow at targets; the targets'
/// processor sharing stretches latency but nothing is lost.
#[test]
fn dss_lc_overload_spreads_and_everything_completes() {
    let mut nodes = make_nodes(2, 2_000); // 4 slots per node by CPU
    let mut sched = DssLc::new(11);
    let n_requests = 20u64; // way over the 8 immediate slots
    let batch = TypeBatch::new(
        ServiceId(0),
        (0..n_requests).map(RequestId).collect(),
        candidates(&nodes),
    );
    let plan = sched.plan(&batch);
    assert!(plan.unrouted.is_empty(), "unrouted: {:?}", plan.unrouted);
    assert!(!plan.queued.is_empty());

    let floors: HashMap<ServiceId, Resources> = [(ServiceId(0), lc_spec().min_request)]
        .into_iter()
        .collect();
    let mut alloc = HrmAllocator::new(floors);

    // The regulations never oversubscribe LC CPU: each 2000m node takes at
    // most 4 concurrent 500m requests; the rest wait (the system layer's
    // per-node wait queues). Emulate the drain loop here.
    let mut waiting: Vec<(RequestId, usize)> = plan.all().map(|(r, n)| (r, n.index())).collect();
    let mut done = 0usize;
    let mut now = SimTime::ZERO;
    let mut rounds = 0;
    while done < n_requests as usize {
        rounds += 1;
        assert!(rounds < 50, "did not converge: {done} done");
        waiting.retain(|&(rid, ni)| {
            let req = Request::new(
                rid,
                ServiceId(0),
                ServiceClass::Lc,
                ClusterId(0),
                SimTime::ZERO,
                lc_spec().min_request,
            );
            alloc
                .try_admit(&mut nodes[ni], &req, lc_spec().work_milli_ms, now)
                .is_err()
        });
        now += SimTime::from_millis(110);
        for node in nodes.iter_mut() {
            node.advance(now);
            done += node.take_completions().len();
            alloc.rebalance(node, now);
        }
    }
    assert_eq!(done, n_requests as usize);
    assert!(waiting.is_empty());
}

/// LC preemption against BE across the kube/hrm boundary: BE saturates a
/// node, an LC burst arrives, QoS of LC is preserved by throttling BE.
#[test]
fn lc_burst_preempts_saturating_be() {
    let be_spec = ServiceSpec {
        id: ServiceId(1),
        name: "be".into(),
        class: ServiceClass::Be,
        min_request: Resources::cpu_mem(1_000, 512),
        work_milli_ms: 4_000_000, // 4s at 1000m
        qos_target: SimTime::MAX,
        payload_kib: 512,
    };
    let mut node = Node::new(
        NodeId(0),
        ClusterId(0),
        false,
        Resources::new(4_000, 8_192, 1_000, 50_000),
    );
    node.deploy_service(&lc_spec(), lc_spec().min_request, SimTime::ZERO)
        .unwrap();
    node.deploy_service(&be_spec, be_spec.min_request, SimTime::ZERO)
        .unwrap();
    let floors: HashMap<ServiceId, Resources> = [
        (ServiceId(0), lc_spec().min_request),
        (ServiceId(1), be_spec.min_request),
    ]
    .into_iter()
    .collect();
    let mut alloc = HrmAllocator::new(floors);

    // saturate with 4 BE requests (4000m demand)
    for i in 0..4 {
        let req = Request::new(
            RequestId(100 + i),
            be_spec.id,
            ServiceClass::Be,
            ClusterId(0),
            SimTime::ZERO,
            be_spec.min_request,
        );
        alloc
            .try_admit(&mut node, &req, be_spec.work_milli_ms, SimTime::ZERO)
            .unwrap();
    }
    // LC burst of 6 (3000m)
    for i in 0..6 {
        let req = Request::new(
            RequestId(i),
            ServiceId(0),
            ServiceClass::Lc,
            ClusterId(0),
            SimTime::ZERO,
            lc_spec().min_request,
        );
        alloc
            .try_admit(&mut node, &req, lc_spec().work_milli_ms, SimTime::ZERO)
            .unwrap();
    }
    // LC runs at full demand: all 6 complete by ~100 ms
    node.advance(SimTime::from_millis(110));
    let done = node.take_completions();
    let lc_done = done.iter().filter(|c| c.class.is_lc()).count();
    assert_eq!(lc_done, 6, "LC QoS preserved under BE saturation");
    // BE is throttled but alive
    let be_cpu = node.effective_cpu(be_spec.id);
    assert!((10..4_000).contains(&be_cpu), "BE throttled to {be_cpu}");
}
