//! Td3Be: continuous-action BE scheduling over the TD3 learner.
//!
//! DCG-BE and GNN-SAC pick a node and grant the request's nominal
//! demand; right-sizing then falls to D-VPA after the pod lands. Td3Be
//! folds sizing into the scheduling action itself: the [`Td3Agent`]
//! emits per-candidate `[cpu, mem]` fractions in `[min_frac, 1]`, the
//! placement is the critic argmax over feasible nodes, and the chosen
//! node is granted `demand × fractions` through the normal
//! reservation/allocator path (the grant half of
//! [`BeScheduler::schedule`]).
//!
//! Feasibility in the context filter is checked against the *floor*
//! grant (`demand × min_frac`): a node that can host the squeezed
//! request is a valid action even when the nominal demand would not fit,
//! which is precisely the extra packing headroom a continuous action
//! space buys.

use crate::dcg_be::{build_graph, context_mask, BeScheduler, FEATURE_DIM};
use crate::view::CandidateNode;
use tango_gnn::EncoderKind;
use tango_rl::{Td3Agent, Td3Config, ACTION_DIM};
use tango_types::{NodeId, Resources};

/// Configuration for [`Td3Be`].
#[derive(Debug, Clone)]
pub struct Td3BeConfig {
    /// GNN structure (paper default: GraphSAGE).
    pub encoder_kind: EncoderKind,
    /// Learning rate.
    pub lr: f32,
    /// Collected samples per training round.
    pub train_interval: usize,
    /// Floor on grant fractions.
    pub min_frac: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Td3BeConfig {
    fn default() -> Self {
        Td3BeConfig {
            encoder_kind: EncoderKind::Sage { p: 3 },
            lr: 2e-4,
            train_interval: 32,
            min_frac: 0.25,
            seed: 47,
        }
    }
}

/// TD3 continuous-action BE scheduler.
pub struct Td3Be {
    agent: Td3Agent,
    min_frac: f32,
}

impl Td3Be {
    /// Build from config.
    pub fn new(cfg: Td3BeConfig) -> Self {
        let td3 = Td3Config {
            encoder_kind: cfg.encoder_kind,
            feature_dim: FEATURE_DIM,
            lr: cfg.lr,
            train_interval: cfg.train_interval,
            min_frac: cfg.min_frac,
            seed: cfg.seed,
            ..Td3Config::default()
        };
        Td3Be {
            agent: Td3Agent::new(td3),
            min_frac: cfg.min_frac,
        }
    }

    /// Training rounds completed (diagnostics).
    pub fn train_rounds(&self) -> usize {
        self.agent.train_rounds
    }

    /// The floor grant the context filter checks against.
    fn floor_demand(&self, demand: &Resources) -> Resources {
        scale_demand(demand, &[self.min_frac; ACTION_DIM])
    }
}

/// Scale a demand's CPU/memory by the action fractions, keeping at least
/// one unit of each dimension the demand actually uses so a grant never
/// degenerates to zero. Bandwidth and disk pass through unscaled — the
/// action space covers the two dimensions the paper's D-VPA tunes.
pub fn scale_demand(demand: &Resources, frac: &[f32; ACTION_DIM]) -> Resources {
    let scale = |v: u64, f: f32| -> u64 {
        if v == 0 {
            0
        } else {
            ((v as f64 * f as f64).round() as u64).clamp(1, v)
        }
    };
    Resources {
        cpu_milli: scale(demand.cpu_milli, frac[0]),
        memory_mib: scale(demand.memory_mib, frac[1]),
        ..*demand
    }
}

impl BeScheduler for Td3Be {
    fn schedule(
        &mut self,
        demand: &Resources,
        nodes: &[CandidateNode],
    ) -> Option<(NodeId, Resources)> {
        let graph = build_graph(demand, nodes);
        let mask = context_mask(&self.floor_demand(demand), nodes);
        let (idx, frac) = self.agent.act(&graph, &mask)?;
        let granted = scale_demand(demand, &frac);
        // the action floor guarantees fit against the floor grant, but the
        // noised fraction may exceed what the node has free — cap there
        let cap = &nodes[idx].available_be;
        let granted = Resources {
            cpu_milli: granted.cpu_milli.min(cap.cpu_milli),
            memory_mib: granted.memory_mib.min(cap.memory_mib),
            ..granted
        };
        Some((nodes[idx].node, granted))
    }

    fn feedback(&mut self, reward: f32, next_demand: &Resources, next_nodes: &[CandidateNode]) {
        let graph = build_graph(next_demand, next_nodes);
        let mask = context_mask(&self.floor_demand(next_demand), next_nodes);
        self.agent.observe(reward, &graph, &mask, false);
    }

    fn name(&self) -> &'static str {
        "td3-be"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(self.agent.snapshot_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.agent
            .restore_bytes(bytes)
            .map_err(|_| "td3-be agent blob rejected")
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
    fn grants_are_scaled_and_within_demand() {
        let mut s = Td3Be::new(Td3BeConfig::default());
        let nodes = vec![cand(1, 8, 1), cand(2, 8, 5)];
        for _ in 0..10 {
            let (node, granted) = s.schedule(&demand(), &nodes).unwrap();
            assert!(node == NodeId(1) || node == NodeId(2));
            assert!(granted.fits_within(&demand()));
            assert!(granted.cpu_milli >= (demand().cpu_milli as f32 * 0.25) as u64);
            assert!(granted.memory_mib >= (demand().memory_mib as f32 * 0.25) as u64);
            s.feedback(0.4, &demand(), &nodes);
        }
    }

    #[test]
    fn floor_feasibility_admits_tight_nodes() {
        // a node that fits only the floor grant is still a valid action
        let mut tight = cand(1, 0, 1);
        tight.available_be = Resources::cpu_mem(200, 100);
        let mut s = Td3Be::new(Td3BeConfig::default());
        let (node, granted) = s.schedule(&demand(), &[tight]).unwrap();
        assert_eq!(node, NodeId(1));
        // grant is capped at what the node has free
        assert!(granted.fits_within(&tight.available_be));
    }

    #[test]
    fn nothing_feasible_returns_none() {
        let mut empty = cand(1, 0, 1);
        empty.available_be = Resources::ZERO;
        let mut s = Td3Be::new(Td3BeConfig::default());
        assert_eq!(s.schedule(&demand(), &[empty]), None);
    }

    #[test]
    fn snapshot_round_trips_through_scheduler_surface() {
        let mut a = Td3Be::new(Td3BeConfig::default());
        let nodes = vec![cand(1, 8, 1), cand(2, 8, 5)];
        for _ in 0..12 {
            a.schedule(&demand(), &nodes).unwrap();
            a.feedback(0.2, &demand(), &nodes);
        }
        let blob = a.snapshot_state().unwrap();
        let mut b = Td3Be::new(Td3BeConfig::default());
        b.restore_state(&blob).unwrap();
        for _ in 0..8 {
            let pa = a.schedule(&demand(), &nodes).unwrap();
            let pb = b.schedule(&demand(), &nodes).unwrap();
            assert_eq!(pa, pb);
            a.feedback(0.1, &demand(), &nodes);
            b.feedback(0.1, &demand(), &nodes);
        }
        assert!(b.restore_state(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn scale_demand_keeps_nonzero_dimensions_alive() {
        let d = Resources::cpu_mem(3, 0);
        let g = scale_demand(&d, &[0.25, 0.25]);
        assert_eq!(g.cpu_milli, 1);
        assert_eq!(g.memory_mib, 0);
        let full = scale_demand(&demand(), &[1.0, 1.0]);
        assert_eq!(full, demand());
    }
}
