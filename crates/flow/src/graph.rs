//! Flow-network representation.
//!
//! Standard paired-edge layout: every directed edge is stored next to its
//! reverse edge (`id ^ 1`), so residual updates are O(1). Capacities and
//! flows are `i64`; costs are `i64` per unit of flow.

/// Reference to a directed edge in a [`FlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef(pub(crate) usize);

#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub to: usize,
    pub cap: i64,
    pub cost: i64,
    pub flow: i64,
}

/// A directed flow network.
#[derive(Debug, Default)]
pub struct FlowGraph {
    pub(crate) edges: Vec<Edge>,
    /// Outgoing edge ids (forward and reverse) per node.
    pub(crate) adj: Vec<Vec<usize>>,
}

impl FlowGraph {
    /// Create a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowGraph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Add a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add a directed edge `u → v` with capacity `cap` (≥ 0) and per-unit
    /// cost `cost`. Returns a reference usable for flow queries.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> EdgeRef {
        assert!(
            u < self.node_count() && v < self.node_count(),
            "node out of range"
        );
        assert!(cap >= 0, "capacity must be non-negative");
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            cost,
            flow: 0,
        });
        self.edges.push(Edge {
            to: u,
            cap: 0,
            cost: -cost,
            flow: 0,
        });
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
        EdgeRef(id)
    }

    /// Split a node's throughput: creates an internal edge `node_in →
    /// node_out` with the given capacity, returning `(node_in, node_out)`.
    /// Point incoming edges at `node_in` and outgoing edges away from
    /// `node_out` and the node processes at most `cap` units — Eq. 5's
    /// per-node capacity |t_j^k|.
    pub fn add_split_node(&mut self, cap: i64) -> (usize, usize, EdgeRef) {
        let inn = self.add_node();
        let out = self.add_node();
        let e = self.add_edge(inn, out, cap, 0);
        (inn, out, e)
    }

    /// Current flow on a forward edge.
    pub fn flow(&self, e: EdgeRef) -> i64 {
        self.edges[e.0].flow
    }

    /// Capacity of a forward edge.
    pub fn capacity(&self, e: EdgeRef) -> i64 {
        self.edges[e.0].cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_come_in_forward_reverse_pairs() {
        let mut g = FlowGraph::new(2);
        let e = g.add_edge(0, 1, 5, 3);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.edges[e.0].to, 1);
        assert_eq!(g.edges[e.0 ^ 1].to, 0);
        assert_eq!(g.edges[e.0 ^ 1].cap, 0);
        assert_eq!(g.edges[e.0 ^ 1].cost, -3);
    }

    #[test]
    fn split_node_creates_internal_capacity_edge() {
        let mut g = FlowGraph::new(0);
        let (inn, out, e) = g.add_split_node(7);
        assert_ne!(inn, out);
        assert_eq!(g.capacity(e), 7);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowGraph::new(1);
        assert_eq!(g.add_node(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn edge_to_missing_node_panics() {
        let mut g = FlowGraph::new(1);
        g.add_edge(0, 5, 1, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_panics() {
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 1, -1, 0);
    }
}
