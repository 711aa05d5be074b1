//! Advantage Actor-Critic over graph embeddings — the learning core of
//! DCG-BE (§5.3.2).
//!
//! Architecture (paper): the GNN embedding is the actor's input; the actor
//! emits one logit per candidate node (a shared 256/128/32 ReLU head
//! applied to each node embedding), the policy-context filter masks
//! infeasible nodes (`p̂(s) = p(s) ∗ c_t`), and the critic maps the mean-
//! pooled embedding to a state value. Adam, lr = 2e-4. Training fires every
//! `train_interval` collected samples, per Alg. 3 line 10.

use crate::masked_softmax;
use crate::Agent;
use tango_gnn::{Encoder, EncoderKind, FeatureGraph, GnnEncoder};
use tango_nn::{Matrix, Mlp};
use tango_simcore::SimRng;
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};

/// Hyper-parameters for [`A2cAgent`].
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// GNN structure to encode with (paper: GraphSAGE, p = 3).
    pub encoder_kind: EncoderKind,
    /// Node feature dimensionality (paper's state has 7 node features).
    pub feature_dim: usize,
    /// GNN hidden width.
    pub gnn_hidden: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Learning rate (actor, critic — Adam) and encoder (SGD).
    pub lr: f32,
    /// Train after this many collected samples (Alg. 3 line 10).
    pub train_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            encoder_kind: EncoderKind::Sage { p: 3 },
            feature_dim: 7,
            gnn_hidden: 32,
            embed_dim: 16,
            gamma: 0.95,
            entropy_coef: 0.01,
            lr: 2e-4,
            train_interval: 32,
            seed: 17,
        }
    }
}

struct Transition {
    graph: FeatureGraph,
    mask: Vec<bool>,
    action: usize,
    reward: f32,
    done: bool,
}

snap_record!(Transition {
    graph,
    mask,
    action,
    reward,
    done,
});

/// The A2C agent.
pub struct A2cAgent {
    cfg: A2cConfig,
    encoder: GnnEncoder,
    actor: Mlp,
    critic: Mlp,
    rng: SimRng,
    buffer: Vec<Transition>,
    /// The (graph, mask, action) of the last `act`, awaiting its reward.
    pending: Option<(FeatureGraph, Vec<bool>, usize)>,
    /// Diagnostics: number of completed training rounds.
    pub train_rounds: usize,
}

impl A2cAgent {
    /// Build an agent from config.
    pub fn new(cfg: A2cConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let encoder = GnnEncoder::paper_shape(
            cfg.encoder_kind,
            cfg.feature_dim,
            cfg.gnn_hidden,
            cfg.embed_dim,
            rng.next_u64(),
        );
        let mut head_rng = rng.fork();
        let actor = Mlp::new(&[cfg.embed_dim, 256, 128, 32, 1], cfg.lr, &mut head_rng);
        let critic = Mlp::new(&[cfg.embed_dim, 256, 128, 32, 1], cfg.lr, &mut head_rng);
        A2cAgent {
            cfg,
            encoder,
            actor,
            critic,
            rng,
            buffer: Vec::new(),
            pending: None,
            train_rounds: 0,
        }
    }

    /// Serialize the complete learner state — encoder, actor/critic
    /// heads (with Adam moments), the RNG stream, the on-policy buffer
    /// and the pending decision — so a restored agent continues
    /// bit-identically.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.encoder.snap_write(&mut w);
        self.actor.snap_write(&mut w);
        self.critic.snap_write(&mut w);
        self.rng.state().encode(&mut w);
        self.buffer.encode(&mut w);
        self.pending.encode(&mut w);
        self.train_rounds.encode(&mut w);
        w.into_bytes()
    }

    /// Restore state captured by [`A2cAgent::snapshot_bytes`] into an
    /// agent built from the same config.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.encoder.snap_read(&mut r)?;
        self.actor.snap_read(&mut r)?;
        self.critic.snap_read(&mut r)?;
        self.rng = SimRng::from_state(SnapDecode::decode(&mut r)?);
        self.buffer = Vec::decode(&mut r)?;
        self.pending = Option::decode(&mut r)?;
        self.train_rounds = usize::decode(&mut r)?;
        r.expect_end("a2c agent trailing bytes")
    }

    /// Policy probabilities for a state (inference; exposed for tests and
    /// greedy evaluation). The actor runs on the admitted rows only.
    pub fn policy(&mut self, graph: &FeatureGraph, mask: &[bool]) -> Option<Vec<f32>> {
        let emb = self.encoder.forward(graph);
        let logits = self.actor.forward_inference(&admitted_rows(&emb, mask));
        masked_softmax(&scatter(&logits, mask), mask)
    }

    /// State value estimate (inference).
    pub fn value(&mut self, graph: &FeatureGraph) -> f32 {
        let emb = self.encoder.forward(graph);
        let pooled = emb.mean_rows();
        self.critic.forward_inference(&pooled).get(0, 0)
    }

    /// Report the reward for the previous `act`; trains every
    /// `train_interval` samples. Unlike [`Agent::observe`] it takes no
    /// next state, so callers need not build one.
    pub fn reward(&mut self, reward: f32, done: bool) {
        if let Some((graph, mask, action)) = self.pending.take() {
            self.buffer.push(Transition {
                graph,
                mask,
                action,
                reward,
                done,
            });
            if self.buffer.len() >= self.cfg.train_interval {
                self.train();
            }
        }
    }

    fn train(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // bootstrap from the last state's value unless that episode ended
        let mut ret = if self.buffer.last().is_none_or(|t| t.done) {
            0.0
        } else {
            let last_graph = self.buffer.last().expect("nonempty").graph.clone();
            self.value(&last_graph)
        };
        // n-step discounted returns, computed backwards
        let mut returns = vec![0.0f32; self.buffer.len()];
        for (i, t) in self.buffer.iter().enumerate().rev() {
            if t.done {
                ret = 0.0;
            }
            ret = t.reward + self.cfg.gamma * ret;
            returns[i] = ret;
        }

        let buffer = std::mem::take(&mut self.buffer);
        for (t, &ret) in buffer.iter().zip(&returns) {
            let n = t.graph.len();
            // --- forward (training mode, caches everywhere) ---
            // The encoder sees every node (its sampling draws must keep
            // their order); the actor sees only the rows c_t admits.
            let emb = self.encoder.forward(&t.graph);
            let logits = self.actor.forward(&admitted_rows(&emb, &t.mask));
            let Some(probs) = masked_softmax(&scatter(&logits, &t.mask), &t.mask) else {
                continue;
            };
            let pooled = emb.mean_rows();
            let value = self.critic.forward(&pooled).get(0, 0);
            let advantage = ret - value;

            // --- actor gradient wrt logits ---
            // d(-logπ(a)·A)/dz_i = A·(π_i − 1{i=a}) on valid entries.
            // entropy bonus: d(-c_e·H)/dz_i = c_e·π_i(logπ_i + H)
            let entropy: f32 = probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum();
            let mut dlogits = Vec::with_capacity(logits.rows);
            for (i, &p) in probs.iter().enumerate() {
                if !t.mask[i] {
                    continue;
                }
                let onehot = if i == t.action { 1.0 } else { 0.0 };
                let mut g = advantage * (p - onehot);
                if p > 0.0 {
                    g += self.cfg.entropy_coef * p * (p.ln() + entropy);
                }
                dlogits.push(g);
            }
            let dlogits = Matrix::from_vec(logits.rows, 1, dlogits).expect("one per admitted row");
            let d_admitted = self.actor.backward(&dlogits);

            // --- critic gradient: L = (V − R)² → dL/dV = 2(V − R) ---
            let dv = Matrix::from_vec(1, 1, vec![2.0 * (value - ret)]).expect("1x1");
            let d_pooled = self.critic.backward(&dv);
            // Spread the actor's gradient back to full size. A masked
            // node's logit is never read, so its row is zero; the full
            // backward would give it ±0 entries instead, and every
            // gradient sink starts at +0.0, where adding ±0 is a no-op.
            let mut d_emb = Matrix::zeros(n, emb.cols);
            let admitted = (0..n).filter(|&i| t.mask[i]);
            for (i, g) in admitted.zip(d_admitted.as_slice().chunks_exact(emb.cols)) {
                d_emb.row_mut(i).copy_from_slice(g);
            }
            // distribute pooled gradient back to every node embedding
            let inv_n = 1.0 / n as f32;
            for r in 0..n {
                for c in 0..d_pooled.cols {
                    let v = d_emb.get(r, c) + d_pooled.get(0, c) * inv_n;
                    d_emb.set(r, c, v);
                }
            }
            self.encoder.backward(&d_emb);
        }
        // one optimizer step over the accumulated batch gradients
        self.actor.step();
        self.critic.step();
        self.encoder.step(self.cfg.lr);
        self.train_rounds += 1;
    }
}

impl Agent for A2cAgent {
    fn act(&mut self, graph: &FeatureGraph, mask: &[bool]) -> Option<usize> {
        let probs = self.policy(graph, mask)?;
        let weights: Vec<f64> = probs.iter().map(|&p| p as f64).collect();
        let action = self.rng.weighted_index(&weights)?;
        self.pending = Some((graph.clone(), mask.to_vec(), action));
        Some(action)
    }

    /// A2C bootstraps from its own buffer, so the next state is unused:
    /// this is [`A2cAgent::reward`].
    fn observe(
        &mut self,
        reward: f32,
        _next_graph: &FeatureGraph,
        _next_mask: &[bool],
        done: bool,
    ) {
        self.reward(reward, done);
    }
}

/// The rows of `emb` that `mask` admits, in order.
fn admitted_rows(emb: &Matrix, mask: &[bool]) -> Matrix {
    let rows: Vec<usize> = (0..emb.rows).filter(|&r| mask[r]).collect();
    let data = rows.iter().flat_map(|&r| emb.row(r)).copied().collect();
    Matrix::from_vec(rows.len(), emb.cols, data).expect("whole rows")
}

/// Per-node logits from the admitted rows' one-column output; masked
/// entries hold 0.0 and are never read.
fn scatter(logits: &Matrix, mask: &[bool]) -> Vec<f32> {
    let mut admitted = logits.as_slice().iter();
    mask.iter()
        .map(|&m| {
            if m {
                *admitted.next().expect("one logit per admitted row")
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node graph where node features directly indicate reward: the
    /// agent should learn to pick the high-feature node.
    fn bandit_graph() -> FeatureGraph {
        let f = Matrix::from_vec(
            4,
            7,
            (0..4)
                .flat_map(|i| {
                    let mut row = vec![0.1f32; 7];
                    row[0] = i as f32 / 3.0; // "quality" feature
                    row
                })
                .collect(),
        )
        .unwrap();
        let mut g = FeatureGraph::new(f);
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn acts_within_mask() {
        let mut agent = A2cAgent::new(A2cConfig::default());
        let g = bandit_graph();
        let mask = vec![false, true, false, true];
        for _ in 0..50 {
            let a = agent.act(&g, &mask).unwrap();
            assert!(a == 1 || a == 3);
            agent.observe(0.0, &g, &mask, false);
        }
    }

    #[test]
    fn no_valid_action_returns_none() {
        let mut agent = A2cAgent::new(A2cConfig::default());
        let g = bandit_graph();
        assert_eq!(agent.act(&g, &[false; 4]), None);
    }

    #[test]
    fn learns_the_rewarding_arm() {
        let cfg = A2cConfig {
            lr: 5e-3,
            train_interval: 16,
            gamma: 0.0, // pure bandit
            seed: 3,
            ..A2cConfig::default()
        };
        let mut agent = A2cAgent::new(cfg);
        let g = bandit_graph();
        let mask = vec![true; 4];
        for _ in 0..600 {
            let a = agent.act(&g, &mask).unwrap();
            // node 3 pays 1.0, others pay 0
            let r = if a == 3 { 1.0 } else { 0.0 };
            agent.observe(r, &g, &mask, true);
        }
        let probs = agent.policy(&g, &mask).unwrap();
        assert!(
            probs[3] > 0.5,
            "policy did not concentrate: {probs:?} after {} rounds",
            agent.train_rounds
        );
    }

    #[test]
    fn training_fires_at_interval() {
        let cfg = A2cConfig {
            train_interval: 8,
            ..A2cConfig::default()
        };
        let mut agent = A2cAgent::new(cfg);
        let g = bandit_graph();
        let mask = vec![true; 4];
        for i in 0..16 {
            agent.act(&g, &mask).unwrap();
            agent.observe(0.5, &g, &mask, false);
            if i < 7 {
                assert_eq!(agent.train_rounds, 0);
            }
        }
        assert_eq!(agent.train_rounds, 2);
    }

    #[test]
    fn value_estimates_move_toward_returns() {
        let cfg = A2cConfig {
            lr: 5e-3,
            train_interval: 8,
            gamma: 0.0,
            ..A2cConfig::default()
        };
        let mut agent = A2cAgent::new(cfg);
        let g = bandit_graph();
        let mask = vec![true; 4];
        let v0 = agent.value(&g);
        for _ in 0..200 {
            agent.act(&g, &mask).unwrap();
            agent.observe(1.0, &g, &mask, true);
        }
        let v1 = agent.value(&g);
        assert!(
            (v1 - 1.0).abs() < (v0 - 1.0).abs(),
            "value did not improve: {v0} -> {v1}"
        );
    }
}
