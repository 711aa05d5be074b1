//! DCG-BE: centralized, GNN + DRL scheduling of BE requests (Alg. 3), and
//! its learning baseline GNN-SAC.
//!
//! The central dispatcher models the whole edge-cloud system as a graph
//! G′ (§5.3.1): every node carries the seven state features of the Markov
//! game — available/total CPU and memory, the current slack score, and the
//! pending BE request's CPU/memory requirement — and the action is the
//! target node index. A **policy context filter** zeroes the probability
//! of any node whose free resources cannot satisfy the request
//! (`p̂(s_t) = p(s_t) ∗ c_t`). The reward r = r_short + η·r_long combines
//! immediate load avoidance with long-term completed-work throughput.

use crate::view::CandidateNode;
use tango_gnn::{EncoderKind, FeatureGraph};
use tango_nn::Matrix;
use tango_rl::{A2cAgent, A2cConfig, Agent, SacAgent, SacConfig};
use tango_types::{NodeId, Resources};

/// A centralized BE scheduling policy.
pub trait BeScheduler {
    /// Choose a target node for one BE request and the resources to grant
    /// it. `None` = nothing feasible (the request returns to the
    /// scheduling queue, Alg. 3's reschedule-on-failure). Discrete
    /// policies grant exactly `*demand`; continuous-action policies
    /// (TD3-style) size the grant jointly with the placement and may
    /// grant less, never more, in each dimension.
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)>;

    /// Report the reward for the previous `schedule` decision together
    /// with the state that followed it.
    fn feedback(&mut self, reward: f32, next_demand: &Resources, next_nodes: &[CandidateNode]);

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Serialize the policy's mutable state for a checkpoint (see
    /// `LcScheduler::snapshot_state` for the contract).
    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(Vec::new())
    }

    /// Restore state captured by [`BeScheduler::snapshot_state`].
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err("policy holds no state but blob is non-empty")
        }
    }
}

/// Number of node features: the seven of §5.3.1's state T plus the
/// transmission delay of the edge from the deciding dispatcher (the
/// t^delay component of the edge state, folded into the node it leads to
/// so the per-node policy head can read it).
pub const FEATURE_DIM: usize = 8;

/// Build the global graph G′ = (S′, Z′) over candidate nodes: features per
/// §5.3.1, edges star-shaped within each cluster plus a complete WAN mesh
/// between cluster heads.
pub fn build_graph(demand: &Resources, nodes: &[CandidateNode]) -> FeatureGraph {
    let n = nodes.len();
    let max_cpu = nodes
        .iter()
        .map(|c| c.total.cpu_milli)
        .max()
        .unwrap_or(1)
        .max(1);
    let max_mem = nodes
        .iter()
        .map(|c| c.total.memory_mib)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut feats = Matrix::zeros(n, FEATURE_DIM);
    for (i, c) in nodes.iter().enumerate() {
        let tc = c.total.cpu_milli.max(1) as f32;
        let tm = c.total.memory_mib.max(1) as f32;
        feats.set(i, 0, c.available_be.cpu_milli as f32 / tc);
        feats.set(i, 1, c.available_be.memory_mib as f32 / tm);
        feats.set(i, 2, c.total.cpu_milli as f32 / max_cpu as f32);
        feats.set(i, 3, c.total.memory_mib as f32 / max_mem as f32);
        feats.set(i, 4, (c.slack as f32).clamp(-1.0, 1.0));
        feats.set(i, 5, (demand.cpu_milli as f32 / tc).min(2.0));
        feats.set(i, 6, (demand.memory_mib as f32 / tm).min(2.0));
        feats.set(i, 7, (c.delay.as_millis_f64() as f32 / 100.0).min(1.0));
    }
    let mut g = FeatureGraph::new(feats);
    // star within each cluster, rooted at the cluster's first node
    let mut heads: Vec<(u32, usize)> = Vec::new();
    for (i, c) in nodes.iter().enumerate() {
        match heads.iter().find(|&&(cl, _)| cl == c.cluster.raw()) {
            Some(&(_, head)) => g.add_edge(head, i),
            None => heads.push((c.cluster.raw(), i)),
        }
    }
    // complete mesh among cluster heads (the WAN)
    for a in 0..heads.len() {
        for b in (a + 1)..heads.len() {
            g.add_edge(heads[a].1, heads[b].1);
        }
    }
    g
}

/// The policy-context filter c_t: node i is valid iff it is up and its
/// idle resources satisfy the request. Dead nodes are never a valid
/// action, even when the resource-feasibility filter is ablated off.
pub fn context_mask(demand: &Resources, nodes: &[CandidateNode]) -> Vec<bool> {
    nodes
        .iter()
        .map(|c| c.alive && demand.fits_within(&c.available_be))
        .collect()
}

/// Short-term reward (§5.3.1): e^(−max(Σ r_c/r_c_node, Σ r_m/r_m_node))
/// over the BE requests waiting at the chosen node.
pub fn short_term_reward(pending_be: &Resources, node_available: &Resources) -> f32 {
    let frac = pending_be.max_fraction_of(node_available);
    (-frac).exp() as f32
}

/// Long-term reward (§5.3.1): 1 − e^(−Σ completed work fractions) over
/// the requests completed since the last training interval.
pub fn long_term_reward(completed_fraction_sum: f64) -> f32 {
    (1.0 - (-completed_fraction_sum).exp()) as f32
}

/// Configuration for [`DcgBe`].
#[derive(Debug, Clone)]
pub struct DcgBeConfig {
    /// GNN structure (paper: GraphSAGE; Fig. 11(d) swaps this out).
    pub encoder_kind: EncoderKind,
    /// Weight η between short- and long-term reward (paper: 1.0) —
    /// recorded here for the reward computation done by the runtime.
    pub eta: f32,
    /// Collected samples per training round.
    pub train_interval: usize,
    /// Learning rate (paper: 2e-4; experiments may raise it to converge
    /// within shorter simulated horizons).
    pub lr: f32,
    /// Apply the policy-context filter c_t (§5.3.2). Disabling it lets
    /// the agent pick infeasible nodes, whose requests bounce back to the
    /// queue — the ablation showing why the filter exists.
    pub context_filter: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DcgBeConfig {
    fn default() -> Self {
        DcgBeConfig {
            encoder_kind: EncoderKind::Sage { p: 3 },
            eta: 1.0,
            train_interval: 32,
            lr: 1e-3,
            context_filter: true,
            seed: 31,
        }
    }
}

/// DCG-BE: A2C over GraphSAGE embeddings.
pub struct DcgBe {
    agent: A2cAgent,
    /// η for the runtime's reward computation.
    pub eta: f32,
    context_filter: bool,
}

impl DcgBe {
    /// Build from config.
    pub fn new(cfg: DcgBeConfig) -> Self {
        let a2c = A2cConfig {
            encoder_kind: cfg.encoder_kind,
            feature_dim: FEATURE_DIM,
            lr: cfg.lr,
            train_interval: cfg.train_interval,
            seed: cfg.seed,
            ..A2cConfig::default()
        };
        DcgBe {
            agent: A2cAgent::new(a2c),
            eta: cfg.eta,
            context_filter: cfg.context_filter,
        }
    }

    /// Training rounds completed (diagnostics).
    pub fn train_rounds(&self) -> usize {
        self.agent.train_rounds
    }
}

impl BeScheduler for DcgBe {
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)> {
        let graph = build_graph(demand, nodes);
        let mask = if self.context_filter {
            context_mask(demand, nodes)
        } else {
            nodes.iter().map(|c| c.alive).collect()
        };
        let idx = self.agent.act(&graph, &mask)?;
        Some((nodes[idx].node, *demand))
    }

    /// A2C bootstraps from its own buffer, so the next state is not
    /// built.
    fn feedback(&mut self, reward: f32, _: &Resources, _: &[CandidateNode]) {
        self.agent.reward(reward, false);
    }

    fn name(&self) -> &'static str {
        "dcg-be"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(self.agent.snapshot_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.agent
            .restore_bytes(bytes)
            .map_err(|_| "dcg-be agent blob rejected")
    }
}

/// GNN-SAC: the soft-actor-critic baseline sharing DCG-BE's encoder and
/// state/action spaces.
pub struct GnnSacBe {
    agent: SacAgent,
}

impl GnnSacBe {
    /// Build with the given seed (other hyper-parameters follow
    /// [`SacConfig::default`]).
    pub fn new(encoder_kind: EncoderKind, lr: f32, seed: u64) -> Self {
        let cfg = SacConfig {
            encoder_kind,
            feature_dim: FEATURE_DIM,
            lr,
            seed,
            ..SacConfig::default()
        };
        GnnSacBe {
            agent: SacAgent::new(cfg),
        }
    }
}

impl BeScheduler for GnnSacBe {
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)> {
        let graph = build_graph(demand, nodes);
        let mask = context_mask(demand, nodes);
        let idx = self.agent.act(&graph, &mask)?;
        Some((nodes[idx].node, *demand))
    }

    fn feedback(&mut self, reward: f32, next_demand: &Resources, next_nodes: &[CandidateNode]) {
        let graph = build_graph(next_demand, next_nodes);
        let mask = context_mask(next_demand, next_nodes);
        self.agent.observe(reward, &graph, &mask, false);
    }

    fn name(&self) -> &'static str {
        "gnn-sac"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(self.agent.snapshot_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.agent
            .restore_bytes(bytes)
            .map_err(|_| "gnn-sac agent blob rejected")
    }
}

/// BE-side load-greedy: the emptiest feasible node.
#[derive(Debug, Default)]
pub struct GreedyBe;

impl BeScheduler for GreedyBe {
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)> {
        // Single-pass fold computing each candidate's utilization once.
        // Tie rule matches `Iterator::max_by` (last maximum wins, and an
        // incomparable pair counts as a tie): the incumbent survives only
        // when strictly greater.
        let mut best: Option<(NodeId, f64)> = None;
        for c in nodes {
            if !c.alive || !demand.fits_within(&c.available_be) {
                continue;
            }
            let f = c.available_be.utilization_against(&c.total);
            let keep = matches!(
                &best,
                Some((_, fb)) if fb.partial_cmp(&f) == Some(std::cmp::Ordering::Greater)
            );
            if !keep {
                best = Some((c.node, f));
            }
        }
        best.map(|(n, _)| (n, *demand))
    }

    fn feedback(&mut self, _: f32, _: &Resources, _: &[CandidateNode]) {}

    fn name(&self) -> &'static str {
        "load-greedy"
    }
}

/// BE-side K8s-native: round-robin over feasible nodes.
#[derive(Debug, Default)]
pub struct RoundRobinBe {
    cursor: usize,
}

impl BeScheduler for RoundRobinBe {
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)> {
        let n = nodes.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if nodes[i].alive && demand.fits_within(&nodes[i].available_be) {
                self.cursor = (i + 1) % n;
                return Some((nodes[i].node, *demand));
            }
        }
        None
    }

    fn feedback(&mut self, _: f32, _: &Resources, _: &[CandidateNode]) {}

    fn name(&self) -> &'static str {
        "k8s-native"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(tango_snap::to_bytes(&self.cursor))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.cursor = tango_snap::from_bytes(bytes).map_err(|_| "round-robin cursor blob")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::test_support::cand;

    fn demand() -> Resources {
        Resources::cpu_mem(500, 256)
    }

    #[test]
    fn graph_has_paper_features_and_topology() {
        let nodes = vec![cand(0, 4, 1), cand(1, 4, 1), cand(8, 4, 30), cand(9, 4, 30)];
        // ids 0,1 -> cluster 0; ids 8,9 -> cluster 1
        let g = build_graph(&demand(), &nodes);
        assert_eq!(g.len(), 4);
        assert_eq!(g.feature_dim(), FEATURE_DIM);
        // star within cluster: node 1 connects to head 0; node 3 to head 2
        assert!(g.neighbors(1).contains(&0));
        assert!(g.neighbors(3).contains(&2));
        // WAN mesh between heads
        assert!(g.neighbors(0).contains(&2));
    }

    #[test]
    fn context_mask_filters_infeasible() {
        let mut poor = cand(1, 0, 1);
        poor.available_be = Resources::cpu_mem(10, 10);
        let rich = cand(2, 8, 1);
        let mask = context_mask(&demand(), &[poor, rich]);
        assert_eq!(mask, vec![false, true]);
    }

    #[test]
    fn context_mask_excludes_dead_nodes() {
        let mut dead = cand(1, 8, 1);
        dead.alive = false;
        let mask = context_mask(&demand(), &[dead, cand(2, 8, 1)]);
        assert_eq!(mask, vec![false, true]);
    }

    #[test]
    fn baselines_never_pick_dead_nodes() {
        let mut dead = cand(1, 8, 1);
        dead.alive = false;
        let nodes = vec![dead, cand(2, 8, 1)];
        let on_2 = Some((NodeId(2), demand()));
        assert_eq!(GreedyBe.schedule(&demand(), &nodes), on_2);
        let mut rr = RoundRobinBe::default();
        for _ in 0..4 {
            assert_eq!(rr.schedule(&demand(), &nodes), on_2);
        }
        let mut only_dead = nodes;
        only_dead.truncate(1);
        assert_eq!(GreedyBe.schedule(&demand(), &only_dead), None);
        assert_eq!(rr.schedule(&demand(), &only_dead), None);
    }

    #[test]
    fn rewards_match_paper_formulas() {
        // empty node: r_short = e^0 = 1
        let r0 = short_term_reward(&Resources::ZERO, &Resources::cpu_mem(1_000, 1_000));
        assert!((r0 - 1.0).abs() < 1e-6);
        // half-loaded bottleneck: e^-0.5
        let r1 = short_term_reward(
            &Resources::cpu_mem(500, 100),
            &Resources::cpu_mem(1_000, 1_000),
        );
        assert!((r1 - (-0.5f32).exp()).abs() < 1e-6);
        // long-term grows with completed work, saturating at 1
        assert!(long_term_reward(0.0).abs() < 1e-6);
        assert!(long_term_reward(10.0) > 0.99);
        assert!(long_term_reward(1.0) > long_term_reward(0.3));
    }

    #[test]
    fn dcg_be_schedules_only_feasible_nodes() {
        let mut s = DcgBe::new(DcgBeConfig::default());
        let mut poor = cand(1, 0, 1);
        poor.available_be = Resources::ZERO;
        let rich = cand(2, 8, 1);
        let nodes = vec![poor, rich];
        for _ in 0..20 {
            let pick = s.schedule(&demand(), &nodes).unwrap();
            assert_eq!(pick, (NodeId(2), demand()));
            s.feedback(0.5, &demand(), &nodes);
        }
    }

    #[test]
    fn dcg_be_returns_none_when_nothing_fits() {
        let mut s = DcgBe::new(DcgBeConfig::default());
        let mut poor = cand(1, 0, 1);
        poor.available_be = Resources::ZERO;
        assert_eq!(s.schedule(&demand(), &[poor]), None);
    }

    #[test]
    fn dcg_be_trains_after_interval() {
        let cfg = DcgBeConfig {
            train_interval: 8,
            ..DcgBeConfig::default()
        };
        let mut s = DcgBe::new(cfg);
        let nodes = vec![cand(1, 8, 1), cand(2, 8, 5)];
        for _ in 0..16 {
            s.schedule(&demand(), &nodes).unwrap();
            s.feedback(1.0, &demand(), &nodes);
        }
        assert!(s.train_rounds() >= 2);
    }

    #[test]
    fn gnn_sac_schedules_with_mask() {
        let mut s = GnnSacBe::new(EncoderKind::Sage { p: 3 }, 1e-3, 7);
        let nodes = vec![cand(1, 8, 1), cand(2, 8, 5)];
        let (pick, granted) = s.schedule(&demand(), &nodes).unwrap();
        assert!(pick == NodeId(1) || pick == NodeId(2));
        assert_eq!(granted, demand());
        s.feedback(0.3, &demand(), &nodes);
    }

    #[test]
    fn greedy_be_picks_emptiest() {
        let mut s = GreedyBe;
        let mut full = cand(1, 8, 1);
        full.available_be = Resources::cpu_mem(600, 300); // mostly used
        let empty = cand(2, 8, 1);
        let pick = s.schedule(&demand(), &[full, empty]).unwrap();
        assert_eq!(pick, (NodeId(2), demand()));
    }

    #[test]
    fn round_robin_be_cycles() {
        let mut s = RoundRobinBe::default();
        let nodes = vec![cand(1, 8, 1), cand(2, 8, 1)];
        let picks: Vec<u32> = (0..4)
            .map(|_| s.schedule(&demand(), &nodes).unwrap().0.raw())
            .collect();
        assert_eq!(picks, vec![1, 2, 1, 2]);
    }
}
