//! Baseline LC schedulers from §7.2, plus the KubeDSM-style
//! batch-migration baseline for the defragmentation pass.
//!
//! * **load-greedy** — always the least-loaded feasible node;
//! * **K8s-native** — the default K8s round-robin dispatch;
//! * **scoring** — a weighted-score policy in the spirit of
//!   history-based harvesting \[42\]: balances free capacity against
//!   dispatch delay;
//! * **KubeDSM** — a batch migration planner in the spirit of KubeDSM's
//!   cloud-assisted edge scheduler: evacuate hot edge nodes by moving
//!   their BE pods to cold edge peers first and spilling the overflow
//!   to the cloud tier.
//!
//! The three LC policies compare every candidate for every request, so
//! each materialises its batch's rows once per call.

use crate::migrate::{MigrationCandidate, MigrationDecision, MigrationPlanner};
use crate::view::{CandidateNode, LcBatch, LcScheduler};
use tango_types::{NodeId, RequestId, Resources};

/// Greedy: requests go one at a time to the node with the most remaining
/// per-type capacity.
#[derive(Debug, Default)]
pub struct LoadGreedy;

impl LcScheduler for LoadGreedy {
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        let nodes = batch.rows.to_vec();
        let mut remaining: Vec<u64> = nodes.iter().map(|n| n.capacity_now(true)).collect();
        let mut out = Vec::with_capacity(batch.requests.len());
        for &req in batch.requests {
            // lowest load == largest remaining capacity fraction
            let best = (0..nodes.len())
                .filter(|&i| remaining[i] > 0)
                .max_by(|&a, &b| {
                    let fa = remaining[a] as f64 / nodes[a].capacity_total().max(1) as f64;
                    let fb = remaining[b] as f64 / nodes[b].capacity_total().max(1) as f64;
                    fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
                });
            match best {
                Some(i) => {
                    remaining[i] -= 1;
                    out.push((req, nodes[i].node));
                }
                None => break, // nothing feasible; rest stay queued
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "load-greedy"
    }
}

/// The K8s-native baseline: round-robin over feasible candidates.
#[derive(Debug, Default)]
pub struct KsNative {
    cursor: usize,
}

impl LcScheduler for KsNative {
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        let nodes = batch.rows.to_vec();
        let n = nodes.len();
        if n == 0 {
            return Vec::new();
        }
        let mut remaining: Vec<u64> = nodes.iter().map(|c| c.capacity_now(true)).collect();
        let mut out = Vec::with_capacity(batch.requests.len());
        for &req in batch.requests {
            let mut placed = false;
            for off in 0..n {
                let i = (self.cursor + off) % n;
                if remaining[i] > 0 {
                    remaining[i] -= 1;
                    out.push((req, nodes[i].node));
                    self.cursor = (i + 1) % n;
                    placed = true;
                    break;
                }
            }
            if !placed {
                break;
            }
        }
        out
    }

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

/// Weighted-score policy: score = w_cap · free-fraction − w_delay ·
/// normalized-delay − w_slack · QoS pressure; highest score wins.
#[derive(Debug)]
pub struct Scoring {
    /// Weight on free capacity fraction.
    pub w_capacity: f64,
    /// Weight on normalized dispatch delay.
    pub w_delay: f64,
    /// Weight on (1 − slack): prefer nodes currently meeting QoS.
    pub w_slack: f64,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            w_capacity: 0.5,
            w_delay: 0.35,
            w_slack: 0.15,
        }
    }
}

impl Scoring {
    fn score(&self, c: &CandidateNode, remaining: u64, max_delay_us: f64) -> f64 {
        let cap_frac = remaining as f64 / c.capacity_total().max(1) as f64;
        let delay_frac = if max_delay_us > 0.0 {
            c.delay.as_micros() as f64 / max_delay_us
        } else {
            0.0
        };
        let qos_pressure = (1.0 - c.slack).clamp(0.0, 2.0);
        self.w_capacity * cap_frac - self.w_delay * delay_frac - self.w_slack * qos_pressure
    }
}

impl LcScheduler for Scoring {
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        let nodes = batch.rows.to_vec();
        let mut remaining: Vec<u64> = nodes.iter().map(|n| n.capacity_now(true)).collect();
        let max_delay = nodes
            .iter()
            .map(|n| n.delay.as_micros() as f64)
            .fold(0.0, f64::max);
        let mut out = Vec::with_capacity(batch.requests.len());
        for &req in batch.requests {
            let best = (0..nodes.len())
                .filter(|&i| remaining[i] > 0)
                .max_by(|&a, &b| {
                    let sa = self.score(&nodes[a], remaining[a], max_delay);
                    let sb = self.score(&nodes[b], remaining[b], max_delay);
                    sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                });
            match best {
                Some(i) => {
                    remaining[i] -= 1;
                    out.push((req, nodes[i].node));
                }
                None => break,
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "scoring"
    }
}

/// KubeDSM-style batch migration: hot edge nodes shed BE pods, smallest
/// first, onto the coldest feasible edge peer; what no edge peer can
/// take spills to the cloud tier. Repacking smallest-first maximizes
/// the number of pods that fit into edge holes before the (egress-
/// charged) cloud is touched.
#[derive(Debug, Clone)]
pub struct KubeDsm {
    /// Utilization at or above which an edge node counts as hot.
    pub hot_threshold: f64,
    /// Utilization below which a node may receive migrated pods —
    /// keeps the pass from ping-ponging pods between two warm nodes.
    pub cold_threshold: f64,
}

impl Default for KubeDsm {
    fn default() -> Self {
        KubeDsm {
            hot_threshold: 0.85,
            cold_threshold: 0.6,
        }
    }
}

impl MigrationPlanner for KubeDsm {
    fn plan(&mut self, view: &[MigrationCandidate], max_moves: usize) -> Vec<MigrationDecision> {
        // Hot edge sources, hottest first (ties: node id — view order).
        let mut hot: Vec<usize> = (0..view.len())
            .filter(|&i| {
                let c = &view[i];
                c.alive && !c.is_cloud && c.utilization >= self.hot_threshold
            })
            .collect();
        hot.sort_by(|&a, &b| {
            view[b]
                .utilization
                .partial_cmp(&view[a].utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(view[a].node.cmp(&view[b].node))
        });
        // Receivers: cold edge nodes (coldest first), then cloud nodes
        // in id order. Headroom is tracked across the whole batch so two
        // sources cannot both fill the same hole.
        let mut edge_rx: Vec<usize> = (0..view.len())
            .filter(|&i| {
                let c = &view[i];
                c.alive && !c.is_cloud && c.utilization < self.cold_threshold
            })
            .collect();
        edge_rx.sort_by(|&a, &b| {
            view[a]
                .utilization
                .partial_cmp(&view[b].utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(view[a].node.cmp(&view[b].node))
        });
        let cloud_rx: Vec<usize> = (0..view.len())
            .filter(|&i| view[i].alive && view[i].is_cloud)
            .collect();
        let mut headroom: Vec<Resources> = view.iter().map(|c| c.available_be).collect();

        let mut out = Vec::new();
        'sources: for &s in &hot {
            // Smallest pods first: most moves per freed hole.
            let mut pods: Vec<&crate::migrate::MigratablePod> = view[s].be_pods.iter().collect();
            pods.sort_by_key(|p| (p.demand.cpu_milli, p.request));
            for pod in pods {
                if out.len() >= max_moves {
                    break 'sources;
                }
                let fits =
                    |i: usize, headroom: &[Resources]| headroom[i].capacity_for(&pod.demand) >= 1;
                let dst = edge_rx
                    .iter()
                    .copied()
                    .find(|&i| fits(i, &headroom))
                    .or_else(|| cloud_rx.iter().copied().find(|&i| fits(i, &headroom)));
                let Some(d) = dst else { continue };
                headroom[d] = headroom[d].saturating_sub(&pod.demand);
                out.push(MigrationDecision {
                    request: pod.request,
                    src: view[s].node,
                    dst: view[d].node,
                });
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "kubedsm-batch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::test_support::worker;
    use crate::view::test_support::{batch, cand};

    #[test]
    fn load_greedy_picks_emptiest() {
        let mut s = LoadGreedy;
        let b = batch(1, vec![cand(1, 1, 5), cand(2, 8, 5)]);
        let out = s.assign(&b.as_lc());
        assert_eq!(out, vec![(tango_types::RequestId(0), NodeId(2))]);
    }

    #[test]
    fn load_greedy_stops_when_everything_full() {
        let mut s = LoadGreedy;
        let b = batch(5, vec![cand(1, 2, 5)]);
        let out = s.assign(&b.as_lc());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn k8s_native_round_robins() {
        let mut s = KsNative::default();
        let b = batch(4, vec![cand(1, 10, 5), cand(2, 10, 5)]);
        let out = s.assign(&b.as_lc());
        let targets: Vec<u32> = out.iter().map(|&(_, n)| n.raw()).collect();
        assert_eq!(targets, vec![1, 2, 1, 2]);
    }

    #[test]
    fn k8s_native_skips_full_nodes() {
        let mut s = KsNative::default();
        let b = batch(3, vec![cand(1, 0, 5), cand(2, 10, 5)]);
        let out = s.assign(&b.as_lc());
        assert!(out.iter().all(|&(_, n)| n == NodeId(2)));
    }

    #[test]
    fn scoring_trades_capacity_against_delay() {
        let mut s = Scoring::default();
        // huge capacity but very far vs modest capacity nearby
        let near = cand(1, 6, 1);
        let far = cand(2, 8, 100);
        let b = batch(1, vec![near, far]);
        let out = s.assign(&b.as_lc());
        assert_eq!(out[0].1, NodeId(1), "nearby node should win");
    }

    #[test]
    fn scoring_penalizes_qos_pressure() {
        let mut s = Scoring::default();
        let mut strained = cand(1, 5, 10);
        strained.slack = -0.5; // violating QoS
        let healthy = cand(2, 5, 10);
        let b = batch(1, vec![strained, healthy]);
        let out = s.assign(&b.as_lc());
        assert_eq!(out[0].1, NodeId(2));
    }

    #[test]
    fn all_policies_handle_empty_inputs() {
        let b0 = batch(0, vec![cand(1, 5, 5)]);
        let bn = batch(3, vec![]);
        assert!(LoadGreedy.assign(&b0.as_lc()).is_empty());
        assert!(LoadGreedy.assign(&bn.as_lc()).is_empty());
        assert!(KsNative::default().assign(&bn.as_lc()).is_empty());
        assert!(Scoring::default().assign(&bn.as_lc()).is_empty());
        assert!(KubeDsm::default().plan(&[], 8).is_empty());
    }

    #[test]
    fn kubedsm_prefers_cold_edge_over_cloud() {
        let view = vec![
            worker(1, 0, 100, 0.95, false, &[(10, 400), (11, 600)]),
            worker(2, 1, 4_000, 0.2, false, &[]),
            worker(3, 2, 8_000, 0.0, true, &[]),
        ];
        let plan = KubeDsm::default().plan(&view, 8);
        // smallest pod moves first; both fit on the cold edge node
        assert_eq!(
            plan,
            vec![
                MigrationDecision {
                    request: RequestId(10),
                    src: NodeId(1),
                    dst: NodeId(2),
                },
                MigrationDecision {
                    request: RequestId(11),
                    src: NodeId(1),
                    dst: NodeId(2),
                },
            ]
        );
    }

    #[test]
    fn kubedsm_spills_to_cloud_when_edge_is_full() {
        let view = vec![
            worker(1, 0, 100, 0.95, false, &[(10, 500), (11, 700)]),
            worker(2, 1, 600, 0.5, false, &[]), // room for the small pod only
            worker(3, 2, 8_000, 0.0, true, &[]),
        ];
        let plan = KubeDsm::default().plan(&view, 8);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].dst, NodeId(2), "small pod repacks onto the edge");
        assert_eq!(plan[1].dst, NodeId(3), "large pod spills to cloud");
    }

    #[test]
    fn kubedsm_respects_batch_limit_and_skips_warm_receivers() {
        let view = vec![
            worker(1, 0, 0, 0.9, false, &[(1, 100), (2, 100), (3, 100)]),
            worker(2, 1, 4_000, 0.7, false, &[]), // warm: not a receiver
            worker(3, 2, 8_000, 0.0, true, &[]),
        ];
        let plan = KubeDsm::default().plan(&view, 2);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|d| d.dst == NodeId(3)));
    }

    #[test]
    fn kubedsm_without_cloud_or_cold_peers_plans_nothing() {
        let view = vec![
            worker(1, 0, 0, 0.95, false, &[(1, 500)]),
            worker(2, 1, 4_000, 0.75, false, &[]),
        ];
        assert!(KubeDsm::default().plan(&view, 8).is_empty());
    }
}
