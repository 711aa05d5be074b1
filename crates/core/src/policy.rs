//! Policy construction and the DSACO-style LC scheduler.

use crate::config::{Ablations, BePolicy, LcPolicy};
use tango_gnn::EncoderKind;
use tango_rl::{Agent, SacAgent, SacConfig};
use tango_sched::dcg_be::{build_graph, GreedyBe, RoundRobinBe};
use tango_sched::{
    BeScheduler, DcgBe, DcgBeConfig, DssLc, GnnSacBe, KsNative, LcBatch, LcScheduler, LoadGreedy,
    Scoring, Td3Be, Td3BeConfig,
};
use tango_types::{NodeId, RequestId};

/// Instantiate an LC scheduler for one master node.
pub fn make_lc_scheduler(
    policy: LcPolicy,
    seed: u64,
    ablations: &Ablations,
) -> Box<dyn LcScheduler + Send> {
    match policy {
        LcPolicy::DssLc => {
            if ablations.dss_overflow_routing {
                Box::new(DssLc::new(seed))
            } else {
                Box::new(DssLc::without_overflow_routing(seed))
            }
        }
        LcPolicy::LoadGreedy => Box::new(LoadGreedy),
        LcPolicy::KsNative => Box::new(KsNative::default()),
        LcPolicy::Scoring => Box::new(Scoring::default()),
        LcPolicy::Dsaco => Box::new(DsacoLc::new(seed)),
    }
}

/// Instantiate the central BE scheduler.
pub fn make_be_scheduler(
    policy: BePolicy,
    seed: u64,
    ablations: &Ablations,
) -> Box<dyn BeScheduler + Send> {
    match policy {
        BePolicy::DcgBe(kind) => Box::new(DcgBe::new(DcgBeConfig {
            encoder_kind: kind,
            seed,
            eta: ablations.dcg_eta,
            context_filter: ablations.dcg_context_filter,
            ..DcgBeConfig::default()
        })),
        BePolicy::GnnSac => Box::new(GnnSacBe::new(EncoderKind::Sage { p: 3 }, 1e-3, seed)),
        BePolicy::Td3 => Box::new(Td3Be::new(Td3BeConfig {
            seed,
            ..Td3BeConfig::default()
        })),
        BePolicy::LoadGreedy => Box::new(GreedyBe),
        BePolicy::KsNative => Box::new(RoundRobinBe::default()),
    }
}

/// DSACO-style distributed LC scheduling \[34\]: each master runs its own
/// soft-actor-critic over the geo-nearby candidate graph and offloads one
/// request at a time. Rewarded bandit-style by the load of the node it
/// picked — intelligent offloading, but with no HRM underneath (the
/// pairing the paper's Fig. 13 isolates). Its graph holds every
/// candidate, so it materialises a batch's rows once per call.
pub struct DsacoLc {
    agent: SacAgent,
}

impl DsacoLc {
    /// Create a per-master DSACO scheduler.
    pub fn new(seed: u64) -> Self {
        let cfg = SacConfig {
            feature_dim: tango_sched::dcg_be::FEATURE_DIM,
            lr: 1e-3,
            seed,
            ..SacConfig::default()
        };
        DsacoLc {
            agent: SacAgent::new(cfg),
        }
    }
}

impl LcScheduler for DsacoLc {
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        let nodes = batch.rows.to_vec();
        let mut remaining: Vec<u64> = nodes.iter().map(|n| n.capacity_now(true)).collect();
        let mut out = Vec::with_capacity(batch.requests.len());
        let demand = nodes.first().map(|n| n.min_request).unwrap_or_default();
        for &req in batch.requests {
            let graph = build_graph(&demand, &nodes);
            let mask: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
            let Some(idx) = self.agent.act(&graph, &mask) else {
                break;
            };
            remaining[idx] -= 1;
            out.push((req, nodes[idx].node));
            // bandit reward: free-capacity fraction after placement,
            // discounted by the offloading delay — the latency/load
            // trade-off DSACO's critic optimizes.
            let cap_total = nodes[idx].capacity_total().max(1);
            let load_part = remaining[idx] as f32 / cap_total as f32;
            let delay_ms = nodes[idx].delay.as_millis_f64() as f32;
            let reward = load_part * (-delay_ms / 50.0).exp();
            self.agent.observe(reward, &graph, &mask, true);
        }
        out
    }

    fn name(&self) -> &'static str {
        "dsaco"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(self.agent.snapshot_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.agent
            .restore_bytes(bytes)
            .map_err(|_| "dsaco agent blob rejected")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_sched::TypeBatch;
    use tango_types::{ClusterId, Resources, ServiceId, SimTime};

    fn cand(id: u32, cap: u64) -> tango_sched::CandidateNode {
        tango_sched::CandidateNode {
            node: NodeId(id),
            cluster: ClusterId(0),
            total: Resources::cpu_mem(8_000, 16_384),
            available_lc: Resources::cpu_mem(cap * 500, cap * 256),
            available_be: Resources::cpu_mem(cap * 500, cap * 256),
            min_request: Resources::cpu_mem(500, 256),
            delay: SimTime::from_millis(5),
            link_capacity: 100,
            slack: 1.0,
            alive: true,
        }
    }

    #[test]
    fn factory_builds_every_lc_policy() {
        for p in [
            LcPolicy::DssLc,
            LcPolicy::LoadGreedy,
            LcPolicy::KsNative,
            LcPolicy::Scoring,
            LcPolicy::Dsaco,
        ] {
            let s = make_lc_scheduler(p, 1, &Ablations::default());
            assert_eq!(s.name(), p.name());
        }
    }

    #[test]
    fn factory_builds_every_be_policy() {
        for p in [
            BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
            BePolicy::GnnSac,
            BePolicy::Td3,
            BePolicy::LoadGreedy,
            BePolicy::KsNative,
        ] {
            let s = make_be_scheduler(p, 1, &Ablations::default());
            assert_eq!(s.name(), p.name());
        }
    }

    #[test]
    fn dsaco_respects_capacity() {
        let mut s = DsacoLc::new(3);
        let batch = TypeBatch::new(
            ServiceId(0),
            (0..10).map(RequestId).collect(),
            vec![cand(1, 2), cand(2, 3)],
        );
        let out = s.assign(&batch.as_lc());
        assert_eq!(out.len(), 5, "5 slots total");
        let to1 = out.iter().filter(|&&(_, n)| n == NodeId(1)).count();
        let to2 = out.iter().filter(|&&(_, n)| n == NodeId(2)).count();
        assert!(to1 <= 2 && to2 <= 3);
    }

    #[test]
    fn dsaco_with_no_nodes_assigns_nothing() {
        let mut s = DsacoLc::new(3);
        let batch = TypeBatch::new(ServiceId(0), vec![RequestId(0)], Vec::new());
        assert!(s.assign(&batch.as_lc()).is_empty());
    }
}
