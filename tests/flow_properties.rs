//! Property tests for the flow stack, expressed as deterministic seeded
//! sweeps (see `tests/properties.rs` for why `proptest` itself is not
//! available in this build environment).
//!
//! Two oracles check the min-cost max-flow solver:
//!
//! 1. **Brute force** — on graphs small enough (≤ 5 nodes, tiny integer
//!    capacities) that every feasible integer edge-flow assignment can be
//!    enumerated outright, the solver must match the exhaustive optimum
//!    in both flow value and cost.
//! 2. **Closed form** — on the bipartite dispatch graphs DSS-LC builds,
//!    the greedy delay-order routing is provably optimal, so
//!    `DssLc::route` and `DssLc::route_mcmf` must agree on flow and cost
//!    for arbitrary batches.

use tango_repro::flow::{FlowGraph, MinCostMaxFlow};
use tango_repro::sched::{CandidateNode, DssLc, TypeBatch};
use tango_repro::simcore::SimRng;
use tango_repro::types::{ClusterId, NodeId, RequestId, Resources, ServiceId, SimTime};

/// A tiny random DAG flow instance (edges only go low → high node index,
/// so no cycles and therefore no negative cost cycles even with negative
/// edge costs, which deliberately exercise the Bellman–Ford bootstrap).
struct TinyInstance {
    n: usize,
    /// (u, v, cap, cost)
    edges: Vec<(usize, usize, i64, i64)>,
}

fn tiny_instance(rng: &mut SimRng) -> TinyInstance {
    let n = 2 + rng.next_below(4) as usize; // 2..=5 nodes
    let m = 1 + rng.next_below(7) as usize; // 1..=7 edges
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = rng.next_below(n as u64 - 1) as usize;
        let v = u + 1 + rng.next_below((n - u - 1) as u64) as usize;
        let cap = rng.next_below(4) as i64; // 0..=3
        let cost = rng.next_below(15) as i64 - 5; // -5..=9
        edges.push((u, v, cap, cost));
    }
    TinyInstance { n, edges }
}

/// Exhaustively enumerate every integer flow assignment (each edge flow
/// in `0..=cap`), keep the ones satisfying conservation at interior
/// nodes, and return (max flow value, min cost at that value).
fn brute_force_mcmf(inst: &TinyInstance, source: usize, sink: usize) -> (i64, i64) {
    let m = inst.edges.len();
    let mut best_flow = 0i64;
    let mut best_cost = 0i64;
    let mut assign = vec![0i64; m];
    loop {
        // check conservation and tally
        let mut net = vec![0i64; inst.n];
        let mut cost = 0i64;
        for (f, &(u, v, _, c)) in assign.iter().zip(&inst.edges) {
            net[u] -= f;
            net[v] += f;
            cost += f * c;
        }
        let conserved = (0..inst.n)
            .filter(|&v| v != source && v != sink)
            .all(|v| net[v] == 0);
        if conserved {
            let value = net[sink];
            if value > best_flow || (value == best_flow && cost < best_cost) {
                best_flow = value;
                best_cost = cost;
            }
        }
        // odometer increment over 0..=cap per edge
        let mut i = 0;
        loop {
            if i == m {
                return (best_flow, best_cost);
            }
            if assign[i] < inst.edges[i].2 {
                assign[i] += 1;
                break;
            }
            assign[i] = 0;
            i += 1;
        }
    }
}

#[test]
fn mcmf_matches_brute_force_on_tiny_graphs() {
    const CASES: u64 = 300;
    for seed in 0..CASES {
        let mut rng = SimRng::new(0xF10_0000 + seed);
        let inst = tiny_instance(&mut rng);
        let source = 0;
        let sink = inst.n - 1;
        let (want_flow, want_cost) = brute_force_mcmf(&inst, source, sink);

        let mut g = FlowGraph::new(inst.n);
        for &(u, v, cap, cost) in &inst.edges {
            g.add_edge(u, v, cap, cost);
        }
        let got = MinCostMaxFlow::new(&mut g).solve(source, sink, i64::MAX);
        assert_eq!(
            (got.flow, got.cost),
            (want_flow, want_cost),
            "seed {seed}: solver {got:?} vs brute force ({want_flow}, {want_cost}) on {:?}",
            inst.edges
        );
    }
}

fn arb_batch(rng: &mut SimRng) -> TypeBatch {
    let n = 1 + rng.next_below(14) as usize;
    let nodes: Vec<CandidateNode> = (0..n)
        .map(|i| {
            let cap = rng.next_below(9);
            CandidateNode {
                node: NodeId(i as u32),
                cluster: ClusterId((i / 4) as u32),
                total: Resources::cpu_mem(8_000, 16_384),
                available_lc: Resources::cpu_mem(cap * 500, cap * 256),
                available_be: Resources::cpu_mem(cap * 500, cap * 256),
                min_request: Resources::cpu_mem(500, 256),
                delay: SimTime::from_millis(1 + rng.next_below(60)),
                link_capacity: 1 + rng.next_below(10) as u32,
                slack: 1.0,
                alive: true,
            }
        })
        .collect();
    TypeBatch {
        service: ServiceId(0),
        requests: (0..rng.next_below(40)).map(RequestId).collect(),
        nodes: nodes.into(),
    }
}

/// The greedy closed form and the general MCMF solver agree on total
/// flow and total cost over random batches.
#[test]
fn route_matches_route_mcmf_on_random_batches() {
    const CASES: u64 = 200;
    for seed in 0..CASES {
        let mut rng = SimRng::new(0x20_77_00 + seed);
        let batch = arb_batch(&mut rng);
        let caps: Vec<u64> = batch.nodes.iter().map(|c| c.capacity_now(true)).collect();
        let demand = rng.next_below(50);

        let fast = DssLc::route(&batch, &caps, demand);
        let slow = DssLc::route_mcmf(&batch, &caps, demand);

        let total = |v: &[(usize, u64)]| -> u64 { v.iter().map(|&(_, k)| k).sum() };
        let cost = |v: &[(usize, u64)]| -> u64 {
            v.iter()
                .map(|&(i, k)| k * batch.nodes[i].delay.as_micros())
                .sum()
        };
        assert_eq!(total(&fast), total(&slow), "flow mismatch at seed {seed}");
        assert_eq!(cost(&fast), cost(&slow), "cost mismatch at seed {seed}");

        // neither route may exceed any node's effective capacity
        for &(i, k) in &fast {
            let limit = caps[i].min(batch.nodes[i].link_capacity as u64);
            assert!(k <= limit, "greedy overfills node {i} at seed {seed}");
        }
    }
}

/// Planning is a pure function of (seed, batch): two schedulers with the
/// same seed produce identical plans, placement by placement.
#[test]
fn lc_plan_is_deterministic_per_seed() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(0xDE7 + seed);
        let batch = arb_batch(&mut rng);
        let p1 = DssLc::new(seed).plan(&batch);
        let p2 = DssLc::new(seed).plan(&batch);
        assert_eq!(p1.immediate, p2.immediate, "seed {seed}");
        assert_eq!(p1.queued, p2.queued, "seed {seed}");
        assert_eq!(p1.unrouted, p2.unrouted, "seed {seed}");
    }
}
