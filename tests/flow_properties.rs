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
//!
//! A third oracle pins *which* request lands on *which* node: a reference
//! planner that sorts every row by `(delay, node)` per call, computes all
//! Eq. 2 capacities up front and routes Σcap on overload must agree with
//! `DssLc::plan`'s one walk down the batch's carried delay order,
//! placement for placement. Over the same batches, every LC policy must
//! plan rows read through an accessor (as the view cache lends them)
//! exactly as it plans the plain rows.

mod common;

use common::CountingRows;
use tango_repro::flow::{FlowGraph, MinCostMaxFlow};
use tango_repro::sched::{
    CandidateNode, DssLc, KsNative, LcPlan, LcScheduler, LoadGreedy, Scoring, TypeBatch,
};
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
    TypeBatch::new(
        ServiceId(0),
        (0..rng.next_below(40)).map(RequestId).collect(),
        nodes,
    )
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

/// Alg. 2 as planned before the fill order moved into the batch: sort
/// every row by `(delay, node)` per route, compute every Eq. 2 capacity
/// first, and route Σcap (case 2) or the demand (case 1) through G_k.
/// `seed` replays the ρ shuffle of a fresh `DssLc::new(seed)`.
fn reference_plan(seed: u64, overflow_routing: bool, batch: &TypeBatch) -> LcPlan {
    fn route(batch: &TypeBatch, caps: &[u64], demand: u64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        if demand == 0 || batch.nodes.is_empty() {
            return out;
        }
        let mut order: Vec<usize> = (0..batch.nodes.len()).collect();
        order.sort_by_key(|&i| (batch.nodes[i].delay, batch.nodes[i].node));
        let mut remaining = demand;
        for i in order {
            if remaining == 0 {
                break;
            }
            let take = caps[i]
                .min(batch.nodes[i].link_capacity as u64)
                .min(remaining);
            if take > 0 {
                out.push((i, take));
                remaining -= take;
            }
        }
        out.sort_unstable();
        out
    }
    fn materialize(
        batch: &TypeBatch,
        counts: &[(usize, u64)],
        requests: &[RequestId],
        cursor: &mut usize,
        out: &mut Vec<(RequestId, NodeId)>,
    ) {
        for &(i, count) in counts {
            for _ in 0..count {
                let Some(&req) = requests.get(*cursor) else {
                    return;
                };
                *cursor += 1;
                out.push((req, batch.nodes[i].node));
            }
        }
    }

    let mut plan = LcPlan::default();
    if batch.requests.is_empty() {
        return plan;
    }
    let caps: Vec<u64> = batch.nodes.iter().map(|n| n.capacity_now(true)).collect();
    let total_cap: u64 = caps.iter().sum();
    let demand = batch.requests.len() as u64;
    let mut order = batch.requests.clone();
    SimRng::new(seed).shuffle(&mut order);
    let mut cursor = 0;
    if demand <= total_cap {
        let counts = route(batch, &caps, demand);
        materialize(batch, &counts, &order, &mut cursor, &mut plan.immediate);
    } else {
        let counts = route(batch, &caps, total_cap);
        materialize(batch, &counts, &order, &mut cursor, &mut plan.immediate);
        let overflow = (order.len() - cursor) as u64;
        let mut aug: Vec<u64> = batch.nodes.iter().map(|n| n.capacity_total()).collect();
        let basis_sum: u64 = aug.iter().sum();
        if overflow_routing && basis_sum > 0 {
            let lambda = overflow as f64 / basis_sum as f64;
            for b in &mut aug {
                *b = ((*b as f64) * lambda).ceil() as u64;
            }
            let counts = route(batch, &aug, overflow);
            materialize(batch, &counts, &order, &mut cursor, &mut plan.queued);
        }
    }
    plan.unrouted = order[cursor..].to_vec();
    plan
}

/// Which of Alg. 2's situations a batch puts the planner in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Nothing to plan.
    Empty,
    /// Demand fits both Σcap and the links.
    Fits,
    /// Demand fits Σcap, but the links carry less: case 1, with a tail
    /// left unrouted.
    LinkBound,
    /// Demand exceeds Σcap: case 2, the λ phase.
    Overload,
}

/// A batch shaped like the runtime's views or deliberately not:
/// - `clustered`: consecutive rows form clusters with ascending ids, and
///   every row of a cluster shares one delay, as view segments do; the
///   delays come from a small set, so clusters tie;
/// - otherwise each row draws its own delay from a small range, and
///   cluster ids do not ascend with node ids.
///
/// Node ids ascend with gaps (views skip masters and down nodes). Rows
/// may be dead or have zero totals, links are often tighter than the
/// capacities, and the demand is drawn to land in `regime`.
fn shaped_batch(rng: &mut SimRng, regime: Regime) -> TypeBatch {
    let clustered = rng.next_below(2) == 0;
    let n = rng.next_below(65) as usize;
    let tight_links = rng.next_below(3) > 0;
    let mut node = rng.next_below(4) as u32;
    let (mut cluster, mut cluster_left, mut cluster_delay) = (0u32, 0u64, 0u64);
    let nodes: Vec<CandidateNode> = (0..n)
        .map(|_| {
            node += 1 + rng.next_below(3) as u32;
            let (cluster_id, delay_us) = if clustered {
                if cluster_left == 0 {
                    cluster += 1 + rng.next_below(2) as u32;
                    cluster_left = 1 + rng.next_below(12);
                    cluster_delay = 250 * (1 + rng.next_below(6));
                }
                cluster_left -= 1;
                (cluster, cluster_delay)
            } else {
                (rng.next_below(5) as u32, 250 * (1 + rng.next_below(8)))
            };
            let cap = rng.next_below(9);
            let total = match rng.next_below(8) {
                0 => Resources::ZERO,
                1 => Resources::cpu_mem(2_000, 4_096),
                _ => Resources::cpu_mem(8_000, 16_384),
            };
            CandidateNode {
                node: NodeId(node),
                cluster: ClusterId(cluster_id),
                total,
                available_lc: Resources::cpu_mem(cap * 500, cap * 256),
                available_be: Resources::cpu_mem(cap * 500, cap * 256),
                min_request: Resources::cpu_mem(500, 256),
                delay: SimTime::from_micros(delay_us),
                link_capacity: if tight_links {
                    1 + rng.next_below(4) as u32
                } else {
                    1_000
                },
                slack: 1.0,
                alive: rng.next_below(6) > 0,
            }
        })
        .collect();
    let total_cap: u64 = nodes.iter().map(|c| c.capacity_now(true)).sum();
    let routable: u64 = nodes
        .iter()
        .map(|c| c.capacity_now(true).min(c.link_capacity as u64))
        .sum();
    let demand = match regime {
        Regime::Empty => 0,
        Regime::Fits => 1 + rng.next_below(routable.max(1)),
        Regime::LinkBound => routable + 1 + rng.next_below((total_cap - routable).max(1)),
        Regime::Overload => total_cap + 1 + rng.next_below(2 * total_cap + 8),
    };
    let first = rng.next_below(1_000);
    TypeBatch::new(
        ServiceId(0),
        (0..demand).map(|k| RequestId(first + 3 * k)).collect(),
        nodes,
    )
}

/// The regime a batch actually lands in (a drawn demand can miss its
/// target when, say, every row is dead).
fn regime_of(batch: &TypeBatch) -> Regime {
    let demand = batch.requests.len() as u64;
    let total_cap: u64 = batch.nodes.iter().map(|c| c.capacity_now(true)).sum();
    let routable: u64 = batch
        .nodes
        .iter()
        .map(|c| c.capacity_now(true).min(c.link_capacity as u64))
        .sum();
    if demand == 0 {
        Regime::Empty
    } else if demand > total_cap {
        Regime::Overload
    } else if demand > routable {
        Regime::LinkBound
    } else {
        Regime::Fits
    }
}

/// `DssLc::plan` walks the batch's carried delay order and computes
/// capacities only as far as the demand reaches; the reference sorts and
/// computes everything. Over thousands of shaped batches, in every
/// regime and with and without overflow routing, the two must place the
/// same request on the same node, in the same set. Every LC policy also
/// plans the batch read through a counting accessor as it plans the
/// plain rows.
#[test]
fn plan_matches_the_sorting_reference_planner_placement_for_placement() {
    const CASES: u64 = 4_800;
    const REGIMES: [Regime; 4] = [
        Regime::Fits,
        Regime::LinkBound,
        Regime::Overload,
        Regime::Empty,
    ];
    let mut seen = [0u32; 4];
    let mut cross_cluster_ties = 0u32;
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0DE1_A400 + case);
        let batch = shaped_batch(&mut rng, REGIMES[case as usize % 4]);
        let regime = regime_of(&batch);
        seen[REGIMES.iter().position(|&r| r == regime).unwrap()] += 1;
        if batch.by_delay.windows(2).any(|w| {
            let (a, b) = (&batch.nodes[w[0] as usize], &batch.nodes[w[1] as usize]);
            a.delay == b.delay && a.cluster != b.cluster
        }) {
            cross_cluster_ties += 1;
        }
        let seed = rng.next_u64();
        for overflow_routing in [true, false] {
            let mut sched = if overflow_routing {
                DssLc::new(seed)
            } else {
                DssLc::without_overflow_routing(seed)
            };
            let got = sched.plan(&batch);
            let want = reference_plan(seed, overflow_routing, &batch);
            assert_eq!(
                got, want,
                "case {case} ({regime:?}, overflow routing {overflow_routing}): \
                 plan diverged from the reference planner"
            );
        }
        let policies: [fn(u64) -> Box<dyn LcScheduler>; 5] = [
            |seed| Box::new(DssLc::new(seed)),
            |seed| Box::new(DssLc::without_overflow_routing(seed)),
            |_| Box::new(LoadGreedy),
            |_| Box::new(KsNative::default()),
            |_| Box::new(Scoring::default()),
        ];
        for make in policies {
            let rows = CountingRows::new(&batch.nodes);
            let mut sched = make(seed);
            assert_eq!(
                sched.assign(&rows.lend(&batch)),
                make(seed).assign(&batch.as_lc()),
                "case {case} ({regime:?}): {} planned the lent rows differently",
                sched.name()
            );
        }
    }
    assert!(
        seen.iter().all(|&k| k >= 400),
        "every regime must be well covered: {seen:?} (fits, link-bound, overload, empty)"
    );
    assert!(
        cross_cluster_ties >= 1_000,
        "too few delay ties across clusters: {cross_cluster_ties}"
    );
}
