//! Discrete Soft Actor-Critic over graph embeddings — the GNN-SAC baseline
//! of Fig. 11(c).
//!
//! Twin per-node Q heads with target copies (Polyak averaging), a masked
//! softmax policy head, and a fixed entropy temperature α. The paper notes
//! GNN-SAC "has strong exploration ability \[but\] struggles to calculate
//! strategy differences" compared to DCG-BE's advantage mechanism — with a
//! fixed temperature and off-policy targets this implementation shares
//! those characteristics.

use crate::masked_softmax;
use crate::replay::{ReplayBuffer, Stored};
use crate::Agent;
use tango_gnn::{Encoder, EncoderKind, FeatureGraph, GnnEncoder};
use tango_nn::{Matrix, Mlp};
use tango_simcore::SimRng;

/// Hyper-parameters for [`SacAgent`].
#[derive(Debug, Clone)]
pub struct SacConfig {
    /// GNN structure (GraphSAGE by default, same encoder as DCG-BE).
    pub encoder_kind: EncoderKind,
    /// Node feature dimensionality.
    pub feature_dim: usize,
    /// GNN hidden width.
    pub gnn_hidden: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Entropy temperature α (fixed).
    pub alpha: f32,
    /// Polyak factor τ for target updates.
    pub tau: f32,
    /// Learning rate.
    pub lr: f32,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Mini-batch size per training round.
    pub batch_size: usize,
    /// Train every this many observed transitions.
    pub train_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SacConfig {
    fn default() -> Self {
        SacConfig {
            encoder_kind: EncoderKind::Sage { p: 3 },
            feature_dim: 7,
            gnn_hidden: 32,
            embed_dim: 16,
            gamma: 0.95,
            alpha: 0.1,
            tau: 0.05,
            lr: 2e-4,
            replay_capacity: 4_096,
            batch_size: 32,
            train_interval: 32,
            seed: 23,
        }
    }
}

/// The discrete SAC agent.
pub struct SacAgent {
    cfg: SacConfig,
    encoder: GnnEncoder,
    policy: Mlp,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    rng: SimRng,
    replay: ReplayBuffer,
    pending: Option<(FeatureGraph, Vec<bool>, usize)>,
    observed: usize,
    /// Diagnostics: completed training rounds.
    pub train_rounds: usize,
}

impl SacAgent {
    /// Build an agent from config.
    pub fn new(cfg: SacConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let encoder = GnnEncoder::paper_shape(
            cfg.encoder_kind,
            cfg.feature_dim,
            cfg.gnn_hidden,
            cfg.embed_dim,
            rng.next_u64(),
        );
        let mut head_rng = rng.fork();
        let head = |rng: &mut SimRng, lr: f32, d: usize| Mlp::new(&[d, 128, 64, 1], lr, rng);
        let policy = head(&mut head_rng, cfg.lr, cfg.embed_dim);
        let q1 = head(&mut head_rng, cfg.lr, cfg.embed_dim);
        let q2 = head(&mut head_rng, cfg.lr, cfg.embed_dim);
        let mut q1_target = q1.clone();
        let mut q2_target = q2.clone();
        q1_target.copy_params_from(&q1);
        q2_target.copy_params_from(&q2);
        SacAgent {
            replay: ReplayBuffer::new(cfg.replay_capacity),
            cfg,
            encoder,
            policy,
            q1,
            q2,
            q1_target,
            q2_target,
            rng,
            pending: None,
            observed: 0,
            train_rounds: 0,
        }
    }

    /// Serialize the complete learner state — encoder, all five heads
    /// (with Adam moments), the RNG stream, the replay ring and the
    /// pending decision — so a restored agent continues bit-identically.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        use tango_snap::{SnapEncode, SnapWriter};
        let mut w = SnapWriter::new();
        self.encoder.snap_write(&mut w);
        self.policy.snap_write(&mut w);
        self.q1.snap_write(&mut w);
        self.q2.snap_write(&mut w);
        self.q1_target.snap_write(&mut w);
        self.q2_target.snap_write(&mut w);
        self.rng.state().encode(&mut w);
        self.replay.snap_write(&mut w);
        self.pending.encode(&mut w);
        self.observed.encode(&mut w);
        self.train_rounds.encode(&mut w);
        w.into_bytes()
    }

    /// Restore state captured by [`SacAgent::snapshot_bytes`] into an
    /// agent built from the same config.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), tango_snap::SnapError> {
        use tango_snap::{SnapDecode, SnapReader};
        let mut r = SnapReader::new(bytes);
        self.encoder.snap_read(&mut r)?;
        self.policy.snap_read(&mut r)?;
        self.q1.snap_read(&mut r)?;
        self.q2.snap_read(&mut r)?;
        self.q1_target.snap_read(&mut r)?;
        self.q2_target.snap_read(&mut r)?;
        self.rng = SimRng::from_state(SnapDecode::decode(&mut r)?);
        self.replay.snap_read(&mut r)?;
        self.pending = Option::decode(&mut r)?;
        self.observed = usize::decode(&mut r)?;
        self.train_rounds = usize::decode(&mut r)?;
        r.expect_end("sac agent trailing bytes")
    }

    /// Policy probabilities (inference).
    pub fn policy_probs(&mut self, graph: &FeatureGraph, mask: &[bool]) -> Option<Vec<f32>> {
        let emb = self.encoder.forward(graph);
        let logits = self.policy.forward_inference(&emb);
        let flat: Vec<f32> = (0..logits.rows).map(|r| logits.get(r, 0)).collect();
        masked_softmax(&flat, mask)
    }

    fn per_node(&self, head: &Mlp, emb: &Matrix) -> Vec<f32> {
        let out = head.forward_inference(emb);
        (0..out.rows).map(|r| out.get(r, 0)).collect()
    }

    /// Soft state value under the *target* Q nets:
    /// V(s) = Σ_a π(a|s)[min(Q1ᵗ,Q2ᵗ)(s,a) − α·logπ(a|s)].
    fn soft_value(&mut self, graph: &FeatureGraph, mask: &[bool]) -> f32 {
        let emb = self.encoder.forward(graph);
        let logits = self.policy.forward_inference(&emb);
        let flat: Vec<f32> = (0..logits.rows).map(|r| logits.get(r, 0)).collect();
        let Some(probs) = masked_softmax(&flat, mask) else {
            return 0.0;
        };
        let q1 = self.per_node(&self.q1_target, &emb);
        let q2 = self.per_node(&self.q2_target, &emb);
        probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(i, &p)| p * (q1[i].min(q2[i]) - self.cfg.alpha * p.ln()))
            .sum()
    }

    fn train(&mut self) {
        if self.replay.len() < self.cfg.batch_size {
            return;
        }
        let batch = self.replay.sample(self.cfg.batch_size, &mut self.rng);
        // Pre-compute TD targets (no gradients flow through them).
        let targets: Vec<f32> = batch
            .iter()
            .map(|s| {
                if s.done {
                    s.reward
                } else {
                    s.reward + self.cfg.gamma * self.soft_value(&s.next_graph, &s.next_mask)
                }
            })
            .collect();

        for (s, &y) in batch.iter().zip(&targets) {
            let n = s.graph.len();
            let emb = self.encoder.forward(&s.graph);

            // --- Q updates: L = (Q(s,a) − y)² for both heads ---
            let q1_out = self.q1.forward(&emb);
            let q2_out = self.q2.forward(&emb);
            let mut dq1 = Matrix::zeros(n, 1);
            let mut dq2 = Matrix::zeros(n, 1);
            dq1.set(s.action, 0, 2.0 * (q1_out.get(s.action, 0) - y));
            dq2.set(s.action, 0, 2.0 * (q2_out.get(s.action, 0) - y));
            let d_emb_q1 = self.q1.backward(&dq1);
            let d_emb_q2 = self.q2.backward(&dq2);

            // --- policy update ---
            // L_π = Σ_a π_a (α·logπ_a − minQ_a); dL/dz_i = π_i (f_i − L)
            // with f_i = α·logπ_i − minQ_i (Q treated constant).
            let logits_m = self.policy.forward(&emb);
            let logits: Vec<f32> = (0..n).map(|r| logits_m.get(r, 0)).collect();
            let mut d_emb = d_emb_q1;
            d_emb.add_assign(&d_emb_q2);
            if let Some(probs) = masked_softmax(&logits, &s.mask) {
                let q1v = self.per_node(&self.q1, &emb);
                let q2v = self.per_node(&self.q2, &emb);
                let f: Vec<f32> = (0..n)
                    .map(|i| {
                        if probs[i] > 0.0 {
                            self.cfg.alpha * probs[i].ln() - q1v[i].min(q2v[i])
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let l: f32 = (0..n).map(|i| probs[i] * f[i]).sum();
                let mut dpi = Matrix::zeros(n, 1);
                for i in 0..n {
                    if probs[i] > 0.0 {
                        dpi.set(i, 0, probs[i] * (f[i] - l));
                    }
                }
                let d_emb_pi = self.policy.backward(&dpi);
                d_emb.add_assign(&d_emb_pi);
            }
            self.encoder.backward(&d_emb);
        }
        self.q1.step();
        self.q2.step();
        self.policy.step();
        self.encoder.step(self.cfg.lr);
        // Polyak target sync
        let (q1c, q2c) = (self.q1.clone(), self.q2.clone());
        self.q1_target.polyak_from(&q1c, self.cfg.tau);
        self.q2_target.polyak_from(&q2c, self.cfg.tau);
        self.train_rounds += 1;
    }
}

impl Agent for SacAgent {
    fn act(&mut self, graph: &FeatureGraph, mask: &[bool]) -> Option<usize> {
        let probs = self.policy_probs(graph, mask)?;
        let weights: Vec<f64> = probs.iter().map(|&p| p as f64).collect();
        let action = self.rng.weighted_index(&weights)?;
        self.pending = Some((graph.clone(), mask.to_vec(), action));
        Some(action)
    }

    fn observe(&mut self, reward: f32, next_graph: &FeatureGraph, next_mask: &[bool], done: bool) {
        if let Some((graph, mask, action)) = self.pending.take() {
            self.replay.push(Stored {
                graph,
                mask,
                action,
                reward,
                next_graph: next_graph.clone(),
                next_mask: next_mask.to_vec(),
                done,
            });
            self.observed += 1;
            if self.observed.is_multiple_of(self.cfg.train_interval) {
                self.train();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bandit_graph() -> FeatureGraph {
        let f = Matrix::from_vec(
            3,
            7,
            (0..3)
                .flat_map(|i| {
                    let mut row = vec![0.2f32; 7];
                    row[0] = i as f32 / 2.0;
                    row
                })
                .collect(),
        )
        .unwrap();
        let mut g = FeatureGraph::new(f);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g
    }

    #[test]
    fn respects_mask_and_handles_empty() {
        let mut agent = SacAgent::new(SacConfig::default());
        let g = bandit_graph();
        for _ in 0..30 {
            let a = agent.act(&g, &[false, true, false]).unwrap();
            assert_eq!(a, 1);
            agent.observe(0.0, &g, &[false, true, false], false);
        }
        assert_eq!(agent.act(&g, &[false; 3]), None);
    }

    #[test]
    fn trains_after_interval_and_learns_bandit() {
        let cfg = SacConfig {
            lr: 3e-3,
            alpha: 0.02,
            gamma: 0.0,
            batch_size: 16,
            train_interval: 16,
            seed: 5,
            ..SacConfig::default()
        };
        let mut agent = SacAgent::new(cfg);
        let g = bandit_graph();
        let mask = vec![true; 3];
        for _ in 0..800 {
            let a = agent.act(&g, &mask).unwrap();
            let r = if a == 2 { 1.0 } else { 0.0 };
            agent.observe(r, &g, &mask, true);
        }
        assert!(agent.train_rounds > 10);
        let probs = agent.policy_probs(&g, &mask).unwrap();
        assert!(
            probs[2] > 0.45,
            "policy did not favour arm 2: {probs:?} ({} rounds)",
            agent.train_rounds
        );
    }

    #[test]
    fn soft_value_is_zero_with_no_valid_action() {
        let mut agent = SacAgent::new(SacConfig::default());
        let g = bandit_graph();
        assert_eq!(agent.soft_value(&g, &[false; 3]), 0.0);
    }
}
