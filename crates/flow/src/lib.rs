//! Network-flow machinery for DSS-LC's §5.2 formulation.
//!
//! The paper formulates LC request dispatch as a network-flow problem —
//! one graph G_k per request type k, unit-demand requests as flow,
//! transmission delays as edge costs, link/node capacities as constraints
//! (Eq. 3–6) — and hands it to Google OR-tools. This crate is the
//! from-scratch replacement: an exact **min-cost max-flow** solver
//! (successive shortest augmenting paths with Johnson potentials,
//! Bellman–Ford bootstrap for negative costs) over a paired-edge graph
//! with node-capacity splitting (Eq. 5's per-node processing capacity
//! becomes an internal edge).
//!
//! No dispatch round runs it: on the bipartite dispatch graph the
//! optimum has a closed form, which `tango_sched::DssLc::route` computes
//! directly. The solver is the test oracle that pins that closed form to
//! the paper's formulation (`DssLc::route_mcmf`).

pub mod graph;
pub mod mcmf;

pub use graph::{EdgeRef, FlowGraph};
pub use mcmf::{FlowResult, MinCostMaxFlow};
