//! Property tests over the schedulers and the execution model.
//!
//! Expressed as deterministic seeded sweeps (see `tests/properties.rs`
//! for why `proptest` itself is not available in this build environment).

mod common;

use common::CountingRows;
use tango_repro::ctrl::{DecisionReply, DecisionRequest, PolicyFn, ProxyBackend};
use tango_repro::gnn::EncoderKind;
use tango_repro::kube::Node;
use tango_repro::sched::{
    CandidateNode, DssLc, KsNative, LcScheduler, LoadGreedy, Scoring, TypeBatch,
};
use tango_repro::simcore::SimRng;
use tango_repro::tango::policy::{make_be_scheduler, make_lc_scheduler};
use tango_repro::tango::{Ablations, BePolicy, LcPolicy};
use tango_repro::types::{
    ClusterId, NodeId, RequestId, Resources, ServiceClass, ServiceId, ServiceSpec, SimTime,
};

fn arb_candidates(rng: &mut SimRng) -> Vec<CandidateNode> {
    let n = 1 + rng.next_below(11) as usize;
    (0..n)
        .map(|i| {
            let cap = rng.next_below(8);
            let delay_ms = 1 + rng.next_below(49);
            let link = 1 + rng.next_below(19) as u32;
            CandidateNode {
                node: NodeId(i as u32),
                cluster: ClusterId((i / 4) as u32),
                total: Resources::cpu_mem(8_000, 16_384),
                available_lc: Resources::cpu_mem(cap * 500, cap * 256),
                available_be: Resources::cpu_mem(cap * 500, cap * 256),
                min_request: Resources::cpu_mem(500, 256),
                delay: SimTime::from_millis(delay_ms),
                link_capacity: link,
                slack: 1.0,
                alive: true,
            }
        })
        .collect()
}

/// Every LC policy: (1) never assigns one request twice, (2) never
/// assigns more requests to a node than its Eq. 2 capacity + the
/// λ-overflow allotment permits for DSS-LC, and never more than
/// capacity for the baselines, (3) never invents request ids.
#[test]
fn lc_policies_respect_capacity_and_uniqueness() {
    let mut rng = SimRng::new(0x1C1C);
    for _ in 0..128 {
        let nodes = arb_candidates(&mut rng);
        let n_requests = rng.next_below(60);
        let seed = rng.next_u64();
        let batch = TypeBatch::new(
            ServiceId(0),
            (0..n_requests).map(RequestId).collect(),
            nodes,
        );
        let caps: Vec<u64> = batch.nodes.iter().map(|n| n.capacity_now(true)).collect();

        // baselines: hard capacity bound
        let mut baselines: Vec<Box<dyn LcScheduler>> = vec![
            Box::new(LoadGreedy),
            Box::new(KsNative::default()),
            Box::new(Scoring::default()),
        ];
        for sched in &mut baselines {
            let out = sched.assign(&batch.as_lc());
            let mut seen = std::collections::HashSet::new();
            let mut per_node = vec![0u64; batch.nodes.len()];
            for &(rid, node) in &out {
                assert!(seen.insert(rid), "{}: duplicate {rid}", sched.name());
                assert!(batch.requests.contains(&rid));
                let idx = batch.nodes.iter().position(|c| c.node == node).unwrap();
                per_node[idx] += 1;
            }
            for (i, &count) in per_node.iter().enumerate() {
                assert!(count <= caps[i], "{}: node {i} over capacity", sched.name());
            }
        }

        // DSS-LC: uniqueness + totality (assigned + unrouted = all)
        let mut dss = DssLc::new(seed);
        let plan = dss.plan(&batch);
        let mut seen = std::collections::HashSet::new();
        for (rid, _) in plan.all() {
            assert!(seen.insert(rid), "dss-lc duplicate {rid}");
        }
        for rid in &plan.unrouted {
            assert!(seen.insert(*rid), "unrouted overlaps assigned");
        }
        assert_eq!(seen.len() as u64, n_requests);
        // immediate set respects instantaneous capacity and link caps
        let mut per_node = vec![0u64; batch.nodes.len()];
        for &(_, node) in &plan.immediate {
            let idx = batch.nodes.iter().position(|c| c.node == node).unwrap();
            per_node[idx] += 1;
        }
        for (i, &count) in per_node.iter().enumerate() {
            assert!(count <= caps[i].min(batch.nodes[i].link_capacity as u64));
        }
    }
}

/// An external decision source that puts every request on its batch's
/// first candidate.
fn first_candidate(req: &DecisionRequest) -> Option<DecisionReply> {
    let placements = req
        .batches
        .iter()
        .map(|b| match b.candidates.first() {
            Some(c) => b.requests.iter().map(|&r| (r, c.node)).collect(),
            None => Vec::new(),
        })
        .collect();
    Some(DecisionReply {
        round: req.round,
        compute_latency: SimTime::ZERO,
        placements,
    })
}

/// Every LC policy, and the proxy in front of one, plans a batch whose
/// rows it reads through an accessor, as the view cache lends them,
/// exactly as it plans the plain rows. The policies that compare every
/// candidate, and the proxy at its wire boundary, read each row once per
/// call.
#[test]
fn lc_policies_plan_identically_through_a_row_accessor() {
    let policies = [
        Some(LcPolicy::DssLc),
        Some(LcPolicy::LoadGreedy),
        Some(LcPolicy::KsNative),
        Some(LcPolicy::Scoring),
        Some(LcPolicy::Dsaco),
        None, // the proxy
    ];
    let mut rng = SimRng::new(0xACCE55);
    for case in 0..64 {
        let nodes = arb_candidates(&mut rng);
        let n_requests = rng.next_below(60);
        let batch = TypeBatch::new(
            ServiceId(0),
            (0..n_requests).map(RequestId).collect(),
            nodes,
        );
        let seed = rng.next_u64();
        let make = |policy: Option<LcPolicy>| -> Box<dyn LcScheduler + Send> {
            let local = make_lc_scheduler(LcPolicy::DssLc, seed, &Ablations::default());
            match policy {
                Some(p) => make_lc_scheduler(p, seed, &Ablations::default()),
                None => Box::new(ProxyBackend::new(
                    local,
                    Box::new(PolicyFn::new(first_candidate)),
                    ClusterId(0),
                    SimTime::from_millis(5),
                )),
            }
        };
        for policy in policies {
            let rows = CountingRows::new(&batch.nodes);
            let lent = make(policy).assign(&rows.lend(&batch));
            assert_eq!(
                lent,
                make(policy).assign(&batch.as_lc()),
                "case {case}: {policy:?} (None = proxy) planned the lent rows differently"
            );
            if policy != Some(LcPolicy::DssLc) && n_requests > 0 {
                let every_row: Vec<usize> = (0..batch.nodes.len()).collect();
                assert_eq!(rows.reads.take(), every_row, "case {case}: {policy:?}");
            }
        }
    }
}

/// Work conservation in the execution model: total completed work
/// equals what was admitted, regardless of when limits change.
#[test]
fn node_conserves_work_across_limit_changes() {
    let mut rng = SimRng::new(0xC0517);
    for _ in 0..48 {
        let n_demands = 1 + rng.next_below(5) as usize;
        let demands: Vec<u64> = (0..n_demands).map(|_| 100 + rng.next_below(700)).collect();
        let n_changes = rng.next_below(4) as usize;
        let limit_changes: Vec<u64> = (0..n_changes)
            .map(|_| 200 + rng.next_below(3_800))
            .collect();
        let spec = ServiceSpec {
            id: ServiceId(0),
            name: "w".into(),
            class: ServiceClass::Lc,
            min_request: Resources::cpu_mem(500, 64),
            work_milli_ms: 20_000,
            qos_target: SimTime::from_millis(300),
            payload_kib: 64,
        };
        let mut node = Node::new(
            NodeId(0),
            ClusterId(0),
            false,
            Resources::new(8_000, 16_384, 1_000, 100_000),
        );
        node.deploy_service(
            &spec,
            Resources::new(4_000, 8_192, 500, 1_000),
            SimTime::ZERO,
        )
        .unwrap();
        for (i, &cpu) in demands.iter().enumerate() {
            node.admit(
                RequestId(i as u64),
                spec.id,
                Resources::cpu_mem(cpu, 64),
                spec.work_milli_ms as f64,
                SimTime::ZERO,
            )
            .unwrap();
        }
        // change the container limit mid-flight a few times
        let (pod_cg, ctr_cg) = node.scaling_cgroups(spec.id).unwrap();
        let mut t = SimTime::from_millis(5);
        for &cpu in &limit_changes {
            node.advance(t);
            let lim = Resources::new(cpu, 8_192, 500, 1_000);
            let cur = node.cgroups.limit(pod_cg);
            let tmp = cur.max(&lim);
            if tmp != cur {
                node.cgroups.set_limit(pod_cg, tmp).unwrap();
            }
            node.cgroups.set_limit(ctr_cg, lim).unwrap();
            if tmp != lim {
                node.cgroups.set_limit(pod_cg, lim).unwrap();
            }
            node.touch();
            t += SimTime::from_millis(7);
        }
        // run long enough for everything to finish at ≥ the 10m/sliver floor
        node.advance(SimTime::from_secs(3_000));
        let done = node.take_completions();
        assert_eq!(done.len(), demands.len(), "all admitted work completes");
        assert_eq!(node.running_count(), 0);
        let (lc, be) = node.demand_usage();
        assert!(lc.is_zero() && be.is_zero(), "all demand released");
    }
}

/// A random BE candidate set: some nodes down (with room to spare, so a
/// policy that ignored liveness would be caught), some alive but too
/// small for a typical demand, some roomy.
fn arb_be_candidates(rng: &mut SimRng) -> Vec<CandidateNode> {
    let n = 1 + rng.next_below(12) as usize;
    (0..n)
        .map(|i| {
            let cap = rng.next_below(6);
            CandidateNode {
                node: NodeId(i as u32),
                cluster: ClusterId((i / 4) as u32),
                total: Resources::cpu_mem(8_000, 16_384),
                available_lc: Resources::cpu_mem(cap * 500, cap * 256),
                available_be: Resources::cpu_mem(cap * 300, cap * 200),
                min_request: Resources::cpu_mem(500, 256),
                delay: SimTime::from_millis(1 + rng.next_below(40)),
                link_capacity: 8,
                slack: 1.0,
                alive: rng.next_below(5) != 0,
            }
        })
        .collect()
}

/// The BE placement contract, for every policy `make_be_scheduler`
/// builds: `schedule` returns `None` or an alive node from the candidate
/// list, with a grant no larger than the demand in any dimension.
/// Discrete policies grant exactly the demand; TD3 may grant less. The
/// grant also fits the chosen node's `available_be` — except for DCG-BE
/// with `dcg_context_filter: false`, whose ablation exists to let it pick
/// too-small nodes (those requests bounce back to the queue).
#[test]
fn be_policies_honour_the_placement_contract() {
    let policies = [
        BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
        BePolicy::GnnSac,
        BePolicy::Td3,
        BePolicy::LoadGreedy,
        BePolicy::KsNative,
    ];
    let ablation_sets = [
        Ablations::default(),
        Ablations {
            dcg_context_filter: false,
            ..Ablations::default()
        },
    ];
    for ablations in &ablation_sets {
        for policy in policies {
            let name = policy.name();
            let filter_off = !ablations.dcg_context_filter && matches!(policy, BePolicy::DcgBe(_));
            let mut sched = make_be_scheduler(policy, 7, ablations);
            let mut rng = SimRng::new(0xBE_C0DE);
            let mut placed = 0;
            for round in 0..96 {
                let nodes = arb_be_candidates(&mut rng);
                let demand =
                    Resources::cpu_mem(100 + rng.next_below(900), 64 + rng.next_below(600));
                let Some((node, granted)) = sched.schedule(&demand, &nodes) else {
                    continue;
                };
                placed += 1;
                let Some(c) = nodes.iter().find(|c| c.node == node) else {
                    panic!("{name}: round {round} picked {node:?}, not a candidate");
                };
                assert!(c.alive, "{name}: round {round} picked dead {node:?}");
                assert!(
                    granted.fits_within(&demand),
                    "{name}: round {round} granted {granted:?} over demand {demand:?}"
                );
                if matches!(policy, BePolicy::Td3) {
                    assert!(granted.cpu_milli > 0 && granted.memory_mib > 0, "{name}");
                } else {
                    assert_eq!(granted, demand, "{name}: discrete grant must be the demand");
                }
                if !filter_off {
                    assert!(
                        granted.fits_within(&c.available_be),
                        "{name}: round {round} grant {granted:?} exceeds {:?}",
                        c.available_be
                    );
                }
                sched.feedback(0.5, &demand, &nodes);
            }
            assert!(placed > 0, "{name}: never placed anything");
        }
    }
}
