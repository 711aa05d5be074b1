//! Min-cost max-flow: successive shortest augmenting paths with Johnson
//! potentials.
//!
//! Complexity O(F · E log V) for F units of flow — far more than enough
//! for DSS-LC's graphs (≤ ~2,000 nodes, unit-demand requests), and exact:
//! the flow it returns is a true optimum of Eq. 3 subject to Eq. 4–6.

use crate::graph::FlowGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowResult {
    /// Units of flow actually routed.
    pub flow: i64,
    /// Total cost Σ flow·cost over all edges.
    pub cost: i64,
}

const INF: i64 = i64::MAX / 4;

/// Solver scratch: potentials, distances, DFS stacks and the Dijkstra
/// heap. Every buffer is re-sized and re-initialized at the top of
/// [`McmfWorkspace::solve`], so its contents never influence results.
#[derive(Debug, Default)]
struct McmfWorkspace {
    potential: Vec<i64>,
    dist: Vec<i64>,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Current-arc pointers for the blocking-flow DFS (one per node).
    cur: Vec<usize>,
    /// Edge-id stack holding the DFS path under construction.
    path: Vec<usize>,
    /// Nodes on the DFS path (cycle guard for zero-cost admissible cycles).
    on_path: Vec<bool>,
}

impl McmfWorkspace {
    /// Initialize potentials with Bellman–Ford so that negative edge costs
    /// are handled. Called automatically by [`Self::solve`] when needed.
    ///
    /// Nodes unreachable from `source` keep an `INF` potential, which
    /// doubles as a reachability mask read by `dijkstra`. (The previous
    /// implementation clamped them to 0, which fabricates a finite
    /// potential for nodes Bellman–Ford never relaxed; a negative-cost
    /// edge between two such nodes then shows a negative reduced cost.
    /// Unreachable nodes can never join an augmenting path — residual
    /// capacity only ever appears along augmented paths, whose nodes were
    /// already reachable — so masking them out is exact.)
    fn bellman_ford(&mut self, g: &FlowGraph, source: usize) {
        let n = g.node_count();
        self.potential.clear();
        self.potential.resize(n, INF);
        self.potential[source] = 0;
        // standard |V|-1 rounds over residual edges
        for _ in 0..n.saturating_sub(1) {
            let mut changed = false;
            for u in 0..n {
                if self.potential[u] >= INF {
                    continue;
                }
                for &eid in &g.adj[u] {
                    let e = &g.edges[eid];
                    if e.cap - e.flow > 0 && self.potential[u] + e.cost < self.potential[e.to] {
                        self.potential[e.to] = self.potential[u] + e.cost;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Dijkstra on reduced costs, stopping as soon as `sink` is settled
    /// (its label is final once popped). Returns the reduced-cost distance
    /// to `sink`, or `None` when it is unreachable. Tentative labels left
    /// in `dist` for unsettled nodes are all ≥ the returned distance,
    /// which is exactly what the clamped potential update relies on.
    fn dijkstra(&mut self, g: &FlowGraph, source: usize, sink: usize) -> Option<i64> {
        let n = g.node_count();
        self.dist.clear();
        self.dist.resize(n, INF);
        self.dist[source] = 0;
        self.heap.clear();
        self.heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            if u == sink {
                return Some(d);
            }
            let pot_u = self.potential[u];
            for &eid in &g.adj[u] {
                let e = &g.edges[eid];
                if e.cap - e.flow <= 0 {
                    continue;
                }
                let pot_v = self.potential[e.to];
                if pot_v >= INF {
                    // unreachable under the initial residual graph: can
                    // never lie on an augmenting path (see bellman_ford)
                    continue;
                }
                let reduced = e.cost + pot_u - pot_v;
                debug_assert!(reduced >= 0, "negative reduced cost after potentials");
                let nd = d + reduced;
                if nd < self.dist[e.to] {
                    self.dist[e.to] = nd;
                    self.heap.push(Reverse((nd, e.to)));
                }
            }
        }
        None
    }

    /// Saturate the admissible subgraph: push flow along every residual
    /// path whose edges all have zero reduced cost under the current
    /// potentials (i.e. every shortest path found by the preceding
    /// Dijkstra), via a current-arc DFS. Returns (flow, cost) pushed.
    ///
    /// This is the primal-dual refinement of successive shortest paths:
    /// one Dijkstra prices a whole family of equal-length augmenting
    /// paths, instead of one Dijkstra per path.
    fn blocking_flow(
        &mut self,
        g: &mut FlowGraph,
        source: usize,
        sink: usize,
        limit: i64,
    ) -> (i64, i64) {
        let n = g.node_count();
        self.cur.clear();
        self.cur.resize(n, 0);
        self.on_path.clear();
        self.on_path.resize(n, false);
        self.path.clear();
        let mut total = 0i64;
        let mut cost = 0i64;
        'paths: while total < limit {
            // (re)start a DFS descent from wherever the path stack stands;
            // after an augmentation the stack is rewound past the edge
            // that saturated, so established prefixes are reused.
            let mut u = match self.path.last() {
                Some(&eid) => g.edges[eid].to,
                None => source,
            };
            self.on_path[source] = true;
            loop {
                if u == sink {
                    // bottleneck over the stacked edges, then apply
                    let mut push = limit - total;
                    for &eid in &self.path {
                        let e = &g.edges[eid];
                        push = push.min(e.cap - e.flow);
                    }
                    for &eid in &self.path {
                        g.edges[eid].flow += push;
                        g.edges[eid ^ 1].flow -= push;
                        cost += push * g.edges[eid].cost;
                    }
                    total += push;
                    // rewind to just before the first saturated edge
                    let mut cut = self.path.len();
                    for (i, &eid) in self.path.iter().enumerate() {
                        let e = &g.edges[eid];
                        if e.cap - e.flow == 0 {
                            cut = i;
                            break;
                        }
                    }
                    for &eid in &self.path[cut..] {
                        self.on_path[g.edges[eid].to] = false;
                    }
                    self.on_path[sink] = false;
                    self.path.truncate(cut);
                    continue 'paths;
                }
                // advance along the next admissible arc out of `u`
                let mut advanced = false;
                while self.cur[u] < g.adj[u].len() {
                    let eid = g.adj[u][self.cur[u]];
                    let e = &g.edges[eid];
                    let v = e.to;
                    if e.cap - e.flow > 0
                        && !self.on_path[v]
                        && self.potential[v] < INF
                        && e.cost + self.potential[u] - self.potential[v] == 0
                    {
                        self.path.push(eid);
                        self.on_path[v] = true;
                        u = v;
                        advanced = true;
                        break;
                    }
                    self.cur[u] += 1;
                }
                if advanced {
                    continue;
                }
                if u == source {
                    break 'paths; // admissible graph exhausted
                }
                // retreat: drop the edge into `u`, move past it at its tail
                let eid = self.path.pop().expect("non-source dead end has a path");
                self.on_path[u] = false;
                let tail = g.edges[eid ^ 1].to;
                self.cur[tail] += 1;
                u = tail;
            }
        }
        self.on_path[source] = false;
        for &eid in &self.path {
            self.on_path[g.edges[eid].to] = false;
        }
        self.path.clear();
        (total, cost)
    }

    /// Route up to `limit` units of flow from `source` to `sink` at
    /// minimum cost over `g`'s residual network. Use `i64::MAX` for a
    /// true max-flow.
    fn solve(&mut self, g: &mut FlowGraph, source: usize, sink: usize, limit: i64) -> FlowResult {
        let has_negative = g.edges.iter().any(|e| e.cap - e.flow > 0 && e.cost < 0);
        if has_negative {
            self.bellman_ford(g, source);
        } else {
            let n = g.node_count();
            self.potential.clear();
            self.potential.resize(n, 0);
        }

        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        while total_flow < limit {
            let Some(d_sink) = self.dijkstra(g, source, sink) else {
                break;
            };
            // Update potentials, clamping at the sink's distance: the
            // early-exit Dijkstra leaves tentative labels ≥ d_sink on
            // unsettled nodes, and min(dist, d_sink) keeps every residual
            // reduced cost non-negative (nodes at or beyond the sink's
            // distance all shift by the same d_sink). Edges on shortest
            // paths end up with reduced cost exactly 0 — the admissible
            // subgraph the blocking-flow pass saturates.
            for v in 0..g.node_count() {
                if self.potential[v] < INF {
                    self.potential[v] += self.dist[v].min(d_sink);
                }
            }
            let (f, c) = self.blocking_flow(g, source, sink, limit - total_flow);
            debug_assert!(f > 0, "reachable sink must admit flow");
            total_flow += f;
            total_cost += c;
        }
        FlowResult {
            flow: total_flow,
            cost: total_cost,
        }
    }
}

/// Min-cost max-flow solver bound to a graph.
pub struct MinCostMaxFlow<'g> {
    g: &'g mut FlowGraph,
    ws: McmfWorkspace,
}

impl<'g> MinCostMaxFlow<'g> {
    /// Bind a solver to `graph`. Existing flow is preserved (so a second
    /// solve continues on the residual network).
    pub fn new(graph: &'g mut FlowGraph) -> Self {
        MinCostMaxFlow {
            g: graph,
            ws: McmfWorkspace::default(),
        }
    }

    /// Route up to `limit` units of flow from `source` to `sink` at
    /// minimum cost. Use `i64::MAX` for a true max-flow.
    pub fn solve(&mut self, source: usize, sink: usize, limit: i64) -> FlowResult {
        self.ws.solve(self.g, source, sink, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowGraph;

    #[test]
    fn single_edge_routes_all_capacity() {
        let mut g = FlowGraph::new(2);
        let e = g.add_edge(0, 1, 7, 2);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert_eq!(r, FlowResult { flow: 7, cost: 14 });
        assert_eq!(g.flow(e), 7);
    }

    #[test]
    fn prefers_cheap_path_then_spills() {
        // 0 -> 1 -> 3 cheap (cap 1), 0 -> 2 -> 3 expensive (cap 10)
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 3, 1, 1);
        g.add_edge(0, 2, 10, 5);
        g.add_edge(2, 3, 10, 5);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 3, 3);
        assert_eq!(r.flow, 3);
        // 1 unit at cost 2 + 2 units at cost 10 = 22
        assert_eq!(r.cost, 22);
    }

    #[test]
    fn limit_caps_flow() {
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 1, 100, 1);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, 5);
        assert_eq!(r.flow, 5);
        assert_eq!(r.cost, 5);
    }

    #[test]
    fn disconnected_sink_gets_zero() {
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, 5, 1);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 2, i64::MAX);
        assert_eq!(r, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    fn classic_diamond_optimum() {
        // CLRS-style: two paths share a middle edge; check exact optimum.
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 2, 1);
        g.add_edge(0, 2, 2, 4);
        g.add_edge(1, 2, 1, 1);
        g.add_edge(1, 3, 1, 6);
        g.add_edge(2, 3, 3, 1);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 3, i64::MAX);
        assert_eq!(r.flow, 4);
        // optimal: 0-1-2-3 (cost 3), 0-1-3 (cost 7), 2× 0-2-3 (cost 5 each) = 20
        assert_eq!(r.cost, 20);
    }

    /// Regression: a negative-cost edge hanging off a node unreachable
    /// from the source. The old clamp-to-0 fabricated finite potentials
    /// for nodes 2 and 3, making the 2→3 edge's reduced cost −7; the
    /// reachability mask keeps them at INF and out of Dijkstra entirely.
    #[test]
    fn negative_edge_off_unreachable_node_is_masked() {
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 3, 2);
        // appendage: 2 → 3 at cost −7, not reachable from node 0; the
        // −1-cost edge 3 → 1 forces has_negative and the Bellman–Ford path
        g.add_edge(2, 3, 5, -7);
        g.add_edge(3, 1, 5, -1);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert_eq!(r, FlowResult { flow: 3, cost: 6 });
    }

    #[test]
    fn negative_costs_are_handled_via_bellman_ford() {
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, 2, -3);
        g.add_edge(1, 2, 2, 1);
        g.add_edge(0, 2, 2, 0);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 2, i64::MAX);
        assert_eq!(r.flow, 4);
        // 2 units via (−3+1=−2) and 2 via 0 → total −4
        assert_eq!(r.cost, -4);
    }

    #[test]
    fn node_capacity_split_limits_throughput() {
        // source -> [node cap 2] -> sink, with wide outer edges
        let mut g = FlowGraph::new(2); // 0 = source, 1 = sink
        let (inn, out, _e) = g.add_split_node(2);
        g.add_edge(0, inn, 10, 0);
        g.add_edge(out, 1, 10, 0);
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert_eq!(r.flow, 2);
    }

    #[test]
    fn repeated_solve_on_residual_continues() {
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 1, 10, 1);
        let r1 = MinCostMaxFlow::new(&mut g).solve(0, 1, 4);
        let r2 = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert_eq!(r1.flow, 4);
        assert_eq!(r2.flow, 6);
    }

    #[test]
    fn large_random_graph_flow_conservation() {
        // build a layered random-ish graph deterministically; assert
        // conservation at interior nodes.
        let layers = 5;
        let width = 8;
        let n = 2 + layers * width;
        let mut g = FlowGraph::new(n);
        let node = |l: usize, w: usize| 2 + l * width + w;
        let mut x: u64 = 12345;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for w in 0..width {
            g.add_edge(0, node(0, w), (rnd() % 5 + 1) as i64, (rnd() % 10) as i64);
            g.add_edge(
                node(layers - 1, w),
                1,
                (rnd() % 5 + 1) as i64,
                (rnd() % 10) as i64,
            );
        }
        for l in 0..layers - 1 {
            for w in 0..width {
                for _ in 0..3 {
                    let t = (rnd() % width as u64) as usize;
                    g.add_edge(
                        node(l, w),
                        node(l + 1, t),
                        (rnd() % 4 + 1) as i64,
                        (rnd() % 20) as i64,
                    );
                }
            }
        }
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert!(r.flow > 0);
        // conservation: for each interior node, in-flow == out-flow
        let mut balance = vec![0i64; n];
        for (i, e) in g.edges.iter().enumerate().step_by(2) {
            let from = g.edges[i ^ 1].to;
            balance[from] -= e.flow;
            balance[e.to] += e.flow;
        }
        for (v, &b) in balance.iter().enumerate().skip(2) {
            assert_eq!(b, 0, "node {v} unbalanced");
        }
        assert_eq!(balance[0], -r.flow);
        assert_eq!(balance[1], r.flow);
    }
}
