//! Twin-Delayed DDPG (TD3) with continuous per-node resource actions.
//!
//! Where DCG-BE picks a node (discrete action) and leaves sizing to
//! D-VPA, the TD3 agent emits a *continuous* action per candidate node:
//! CPU and memory fractions in `[min_frac, 1]` of the request's nominal
//! demand. The scheduler grants the chosen node the scaled demand, so
//! placement and sizing are decided jointly — the TD3-Sched direction
//! from the related-work survey, grafted onto Tango's candidate-view
//! machinery.
//!
//! The three TD3 stabilizers are all here:
//!
//! 1. **Twin critics** `Q1`, `Q2` score `[embedding ; action]` rows; TD
//!    targets use `min(Q1ᵗ, Q2ᵗ)` to damp overestimation.
//! 2. **Delayed policy updates**: the actor (and all target networks)
//!    update every `policy_delay` critic rounds.
//! 3. **Target-policy smoothing**: target actions are perturbed with
//!    clipped Gaussian noise drawn from the agent's seeded [`SimRng`],
//!    so smoothing is deterministic and checkpointable.
//!
//! Node *selection* is the argmax of `Q1` over valid candidates at the
//! actor's (exploration-noised) action — a Wolpertinger-style greedy
//! projection of the continuous policy onto the discrete candidate set.

use crate::replay::ReplayBuffer;
use tango_gnn::{Encoder, EncoderKind, FeatureGraph, GnnEncoder};
use tango_nn::{Matrix, Mlp};
use tango_simcore::SimRng;
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};

/// Per-node action dimensionality: a CPU fraction and a memory fraction.
pub const ACTION_DIM: usize = 2;

/// Hyper-parameters for [`Td3Agent`].
#[derive(Debug, Clone)]
pub struct Td3Config {
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
    /// Polyak factor τ for target updates.
    pub tau: f32,
    /// Learning rate (heads — Adam) and encoder (SGD).
    pub lr: f32,
    /// Std-dev of the exploration noise added to emitted fractions.
    pub explore_noise: f32,
    /// Std-dev of the target-policy smoothing noise.
    pub smoothing_noise: f32,
    /// Clip bound for the smoothing noise (±).
    pub noise_clip: f32,
    /// Critic rounds per actor/target update (TD3's "delayed" part).
    pub policy_delay: usize,
    /// Floor on emitted fractions — a grant never squeezes a request
    /// below this share of its nominal demand.
    pub min_frac: f32,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Mini-batch size per training round.
    pub batch_size: usize,
    /// Train every this many observed transitions.
    pub train_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Td3Config {
    fn default() -> Self {
        Td3Config {
            encoder_kind: EncoderKind::Sage { p: 3 },
            feature_dim: 7,
            gnn_hidden: 32,
            embed_dim: 16,
            gamma: 0.95,
            tau: 0.05,
            lr: 2e-4,
            explore_noise: 0.1,
            smoothing_noise: 0.2,
            noise_clip: 0.25,
            policy_delay: 2,
            min_frac: 0.25,
            replay_capacity: 4_096,
            batch_size: 32,
            train_interval: 32,
            seed: 47,
        }
    }
}

/// One stored continuous-action transition.
#[derive(Clone)]
pub struct Td3Stored {
    /// State at decision time.
    pub graph: FeatureGraph,
    /// Validity mask at decision time.
    pub mask: Vec<bool>,
    /// Candidate node the request was placed on.
    pub node: usize,
    /// Granted `[cpu, mem]` fractions (post-noise, post-clamp).
    pub action: [f32; ACTION_DIM],
    /// Reward received.
    pub reward: f32,
    /// Next state.
    pub next_graph: FeatureGraph,
    /// Next validity mask.
    pub next_mask: Vec<bool>,
    /// Episode terminated after this transition.
    pub done: bool,
}

snap_record!(Td3Stored {
    graph,
    mask,
    node,
    action,
    reward,
    next_graph,
    next_mask,
    done,
});

/// The TD3 agent.
pub struct Td3Agent {
    cfg: Td3Config,
    encoder: GnnEncoder,
    actor: Mlp,
    actor_target: Mlp,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    rng: SimRng,
    replay: ReplayBuffer<Td3Stored>,
    pending: Option<(FeatureGraph, Vec<bool>, usize, [f32; ACTION_DIM])>,
    observed: usize,
    critic_rounds: usize,
    /// Diagnostics: completed training rounds.
    pub train_rounds: usize,
}

impl Td3Agent {
    /// Build an agent from config.
    pub fn new(cfg: Td3Config) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let encoder = GnnEncoder::paper_shape(
            cfg.encoder_kind,
            cfg.feature_dim,
            cfg.gnn_hidden,
            cfg.embed_dim,
            rng.next_u64(),
        );
        let mut head_rng = rng.fork();
        let actor = Mlp::new(&[cfg.embed_dim, 64, 32, ACTION_DIM], cfg.lr, &mut head_rng);
        let critic =
            |rng: &mut SimRng| Mlp::new(&[cfg.embed_dim + ACTION_DIM, 64, 32, 1], cfg.lr, rng);
        let q1 = critic(&mut head_rng);
        let q2 = critic(&mut head_rng);
        let actor_target = actor.clone();
        let q1_target = q1.clone();
        let q2_target = q2.clone();
        Td3Agent {
            replay: ReplayBuffer::new(cfg.replay_capacity),
            cfg,
            encoder,
            actor,
            actor_target,
            q1,
            q2,
            q1_target,
            q2_target,
            rng,
            pending: None,
            observed: 0,
            critic_rounds: 0,
            train_rounds: 0,
        }
    }

    /// tanh-squash a raw actor output into `[min_frac, 1]`.
    fn squash(&self, raw: f32) -> f32 {
        let unit = 0.5 * (raw.tanh() + 1.0);
        self.cfg.min_frac + (1.0 - self.cfg.min_frac) * unit
    }

    /// Per-node actions from a head over embeddings: squashed rows of
    /// the raw `N×ACTION_DIM` output.
    fn actions_from(&self, head: &Mlp, emb: &Matrix) -> Vec<[f32; ACTION_DIM]> {
        let raw = head.forward_inference(emb);
        (0..raw.rows)
            .map(|r| {
                let mut a = [0.0f32; ACTION_DIM];
                for (d, v) in a.iter_mut().enumerate() {
                    *v = self.squash(raw.get(r, d));
                }
                a
            })
            .collect()
    }

    /// Critic scores for per-node `[embedding ; action]` rows.
    fn critic_scores(head: &Mlp, emb: &Matrix, actions: &[[f32; ACTION_DIM]]) -> Vec<f32> {
        let n = emb.rows;
        let mut data = Vec::with_capacity(n * (emb.cols + ACTION_DIM));
        for (r, action) in actions.iter().enumerate().take(n) {
            data.extend_from_slice(emb.row(r));
            data.extend_from_slice(action);
        }
        let x = Matrix::from_vec(n, emb.cols + ACTION_DIM, data).expect("critic input shape");
        let out = head.forward_inference(&x);
        (0..n).map(|r| out.get(r, 0)).collect()
    }

    /// Choose a node and its `[cpu, mem]` grant fractions. `None` when
    /// the mask has no valid entry. Exploration noise is drawn for every
    /// node (valid or not) so the RNG stream is mask-independent.
    pub fn act(
        &mut self,
        graph: &FeatureGraph,
        mask: &[bool],
    ) -> Option<(usize, [f32; ACTION_DIM])> {
        debug_assert_eq!(graph.len(), mask.len());
        if !mask.iter().any(|&m| m) {
            return None;
        }
        let emb = self.encoder.forward(graph);
        let mut actions = self.actions_from(&self.actor, &emb);
        let (lo, hi) = (self.cfg.min_frac, 1.0);
        for a in actions.iter_mut() {
            for v in a.iter_mut() {
                let noise = self.rng.standard_normal() as f32 * self.cfg.explore_noise;
                *v = (*v + noise).clamp(lo, hi);
            }
        }
        let scores = Self::critic_scores(&self.q1, &emb, &actions);
        let node = (0..mask.len())
            .filter(|&i| mask[i])
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))?;
        let action = actions[node];
        self.pending = Some((graph.clone(), mask.to_vec(), node, action));
        Some((node, action))
    }

    /// Report the reward for the previous [`Td3Agent::act`] and the
    /// state that followed it; trains every `train_interval` transitions.
    pub fn observe(
        &mut self,
        reward: f32,
        next_graph: &FeatureGraph,
        next_mask: &[bool],
        done: bool,
    ) {
        if let Some((graph, mask, node, action)) = self.pending.take() {
            self.replay.push(Td3Stored {
                graph,
                mask,
                node,
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

    /// Smoothed target value of a next state: actions from the target
    /// actor plus clipped noise, scored by `min(Q1ᵗ, Q2ᵗ)`, maxed over
    /// valid candidates.
    fn target_value(&mut self, graph: &FeatureGraph, mask: &[bool]) -> f32 {
        if !mask.iter().any(|&m| m) {
            return 0.0;
        }
        let emb = self.encoder.forward(graph);
        let mut actions = self.actions_from(&self.actor_target, &emb);
        let (lo, hi) = (self.cfg.min_frac, 1.0);
        let clip = self.cfg.noise_clip;
        for a in actions.iter_mut() {
            for v in a.iter_mut() {
                let noise = (self.rng.standard_normal() as f32 * self.cfg.smoothing_noise)
                    .clamp(-clip, clip);
                *v = (*v + noise).clamp(lo, hi);
            }
        }
        let s1 = Self::critic_scores(&self.q1_target, &emb, &actions);
        let s2 = Self::critic_scores(&self.q2_target, &emb, &actions);
        (0..mask.len())
            .filter(|&i| mask[i])
            .map(|i| s1[i].min(s2[i]))
            .fold(f32::NEG_INFINITY, f32::max)
    }

    fn train(&mut self) {
        if self.replay.len() < self.cfg.batch_size {
            return;
        }
        let batch = self.replay.sample(self.cfg.batch_size, &mut self.rng);
        // TD targets first (they run their own encoder forwards; no
        // gradients flow through them).
        let targets: Vec<f32> = batch
            .iter()
            .map(|s| {
                if s.done {
                    s.reward
                } else {
                    s.reward + self.cfg.gamma * self.target_value(&s.next_graph, &s.next_mask)
                }
            })
            .collect();

        // --- critic round: L = (Q(s, a) − y)² for both heads ---
        for (s, &y) in batch.iter().zip(&targets) {
            let emb = self.encoder.forward(&s.graph);
            let d = emb.cols;
            let mut row = Vec::with_capacity(d + ACTION_DIM);
            row.extend_from_slice(emb.row(s.node));
            row.extend_from_slice(&s.action);
            let x = Matrix::from_vec(1, d + ACTION_DIM, row).expect("critic input");
            let q1v = self.q1.forward(&x).get(0, 0);
            let q2v = self.q2.forward(&x).get(0, 0);
            let dq1 = Matrix::from_vec(1, 1, vec![2.0 * (q1v - y)]).expect("1x1");
            let dq2 = Matrix::from_vec(1, 1, vec![2.0 * (q2v - y)]).expect("1x1");
            let dx1 = self.q1.backward(&dq1);
            let dx2 = self.q2.backward(&dq2);
            // route the embedding slice of ∂L/∂x back through the encoder
            let mut d_emb = Matrix::zeros(emb.rows, d);
            for c in 0..d {
                d_emb.set(s.node, c, dx1.get(0, c) + dx2.get(0, c));
            }
            self.encoder.backward(&d_emb);
        }
        self.q1.step();
        self.q2.step();
        self.encoder.step(self.cfg.lr);
        self.critic_rounds += 1;

        // --- delayed actor + target update ---
        if self.critic_rounds.is_multiple_of(self.cfg.policy_delay) {
            for s in &batch {
                let emb = self.encoder.forward(&s.graph);
                let d = emb.cols;
                let raw = self.actor.forward(&emb);
                // deterministic (noise-free) action at the stored node
                let mut act = [0.0f32; ACTION_DIM];
                for (k, v) in act.iter_mut().enumerate() {
                    *v = self.squash(raw.get(s.node, k));
                }
                let mut row = Vec::with_capacity(d + ACTION_DIM);
                row.extend_from_slice(emb.row(s.node));
                row.extend_from_slice(&act);
                let x = Matrix::from_vec(1, d + ACTION_DIM, row).expect("actor-critic input");
                self.q1.forward(&x);
                // ascend Q1: dL/dQ = −1, take the action slice of dL/dx
                let dq = Matrix::from_vec(1, 1, vec![-1.0]).expect("1x1");
                let dx = self.q1.backward(&dq);
                let mut d_raw = Matrix::zeros(raw.rows, ACTION_DIM);
                for k in 0..ACTION_DIM {
                    // chain through the [min_frac, 1] tanh squash
                    let t = raw.get(s.node, k).tanh();
                    let dsquash = 0.5 * (1.0 - self.cfg.min_frac) * (1.0 - t * t);
                    d_raw.set(s.node, k, dx.get(0, d + k) * dsquash);
                }
                self.actor.backward(&d_raw);
            }
            self.actor.step();
            // the critic gradients accumulated by the actor pass are a
            // by-product; discard them (encoder was not back-propped here)
            self.q1.zero_grad();
            let tau = self.cfg.tau;
            let (ac, q1c, q2c) = (self.actor.clone(), self.q1.clone(), self.q2.clone());
            self.actor_target.polyak_from(&ac, tau);
            self.q1_target.polyak_from(&q1c, tau);
            self.q2_target.polyak_from(&q2c, tau);
        }
        self.train_rounds += 1;
    }

    /// Serialize the complete learner state — encoder, all six heads
    /// (with Adam moments), the RNG stream, the replay ring, the pending
    /// decision and the update counters — so a restored agent continues
    /// bit-identically.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.encoder.snap_write(&mut w);
        self.actor.snap_write(&mut w);
        self.actor_target.snap_write(&mut w);
        self.q1.snap_write(&mut w);
        self.q2.snap_write(&mut w);
        self.q1_target.snap_write(&mut w);
        self.q2_target.snap_write(&mut w);
        self.rng.state().encode(&mut w);
        self.replay.snap_write(&mut w);
        self.pending.encode(&mut w);
        self.observed.encode(&mut w);
        self.critic_rounds.encode(&mut w);
        self.train_rounds.encode(&mut w);
        w.into_bytes()
    }

    /// Restore state captured by [`Td3Agent::snapshot_bytes`] into an
    /// agent built from the same config.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.encoder.snap_read(&mut r)?;
        self.actor.snap_read(&mut r)?;
        self.actor_target.snap_read(&mut r)?;
        self.q1.snap_read(&mut r)?;
        self.q2.snap_read(&mut r)?;
        self.q1_target.snap_read(&mut r)?;
        self.q2_target.snap_read(&mut r)?;
        self.rng = SimRng::from_state(SnapDecode::decode(&mut r)?);
        self.replay.snap_read(&mut r)?;
        self.pending = Option::decode(&mut r)?;
        self.observed = usize::decode(&mut r)?;
        self.critic_rounds = usize::decode(&mut r)?;
        self.train_rounds = usize::decode(&mut r)?;
        r.expect_end("td3 agent trailing bytes")
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

    fn tiny_cfg() -> Td3Config {
        Td3Config {
            gnn_hidden: 8,
            embed_dim: 8,
            batch_size: 8,
            train_interval: 8,
            replay_capacity: 128,
            ..Td3Config::default()
        }
    }

    #[test]
    fn actions_stay_in_range_and_respect_mask() {
        let mut agent = Td3Agent::new(tiny_cfg());
        let g = bandit_graph();
        for _ in 0..40 {
            let (node, a) = agent.act(&g, &[false, true, true]).unwrap();
            assert!(node == 1 || node == 2);
            for v in a {
                assert!((0.25..=1.0).contains(&v), "fraction out of range: {v}");
            }
            agent.observe(0.1, &g, &[false, true, true], false);
        }
        assert!(agent.act(&g, &[false; 3]).is_none());
    }

    #[test]
    fn trains_on_interval_with_delayed_policy_updates() {
        let mut agent = Td3Agent::new(tiny_cfg());
        let g = bandit_graph();
        let mask = vec![true; 3];
        for _ in 0..64 {
            agent.act(&g, &mask).unwrap();
            agent.observe(0.5, &g, &mask, false);
        }
        assert!(agent.train_rounds >= 4, "rounds: {}", agent.train_rounds);
        assert_eq!(agent.critic_rounds, agent.train_rounds);
    }

    /// The TD3 determinism contract behind checkpoint/resume: snapshot,
    /// restore into a fresh agent, drive both with identical inputs, and
    /// every subsequent decision and weight byte must match.
    #[test]
    fn snapshot_resume_is_bit_identical() {
        let mut a = Td3Agent::new(tiny_cfg());
        let g = bandit_graph();
        let mask = vec![true; 3];
        for i in 0..40 {
            a.act(&g, &mask).unwrap();
            a.observe((i % 5) as f32 * 0.2, &g, &mask, i % 10 == 9);
        }
        let snap = a.snapshot_bytes();
        let mut b = Td3Agent::new(tiny_cfg());
        b.restore_bytes(&snap).unwrap();
        assert_eq!(b.snapshot_bytes(), snap, "restore is byte-stable");
        for i in 0..24 {
            let da = a.act(&g, &mask).unwrap();
            let db = b.act(&g, &mask).unwrap();
            assert_eq!(da.0, db.0);
            assert_eq!(da.1, db.1);
            let r = (i % 3) as f32 - 1.0;
            a.observe(r, &g, &mask, false);
            b.observe(r, &g, &mask, false);
        }
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let agent = Td3Agent::new(tiny_cfg());
        let snap = agent.snapshot_bytes();
        let mut b = Td3Agent::new(tiny_cfg());
        assert!(b.restore_bytes(&snap[..snap.len() - 3]).is_err());
        let mut grown = snap.clone();
        grown.extend_from_slice(&[0, 0, 0]);
        assert!(b.restore_bytes(&grown).is_err());
    }

    /// Two-arm continuous bandit: squeezing (low fraction) pays on one
    /// node, full demand on the other. TD3 should raise its Q estimate
    /// separation — sanity that gradients flow end to end.
    #[test]
    fn critic_learns_reward_structure() {
        let cfg = Td3Config {
            lr: 3e-3,
            gamma: 0.0,
            batch_size: 16,
            train_interval: 8,
            explore_noise: 0.3,
            seed: 11,
            ..tiny_cfg()
        };
        let mut agent = Td3Agent::new(cfg);
        let g = bandit_graph();
        let mask = vec![true; 3];
        for _ in 0..400 {
            let (node, _) = agent.act(&g, &mask).unwrap();
            let r = if node == 2 { 1.0 } else { 0.0 };
            agent.observe(r, &g, &mask, true);
        }
        assert!(agent.train_rounds > 20);
        // greedy decisions should now favour the paying arm
        let mut wins = 0;
        for _ in 0..20 {
            let (node, _) = agent.act(&g, &mask).unwrap();
            agent.observe(if node == 2 { 1.0 } else { 0.0 }, &g, &mask, true);
            if node == 2 {
                wins += 1;
            }
        }
        assert!(wins >= 12, "picked the paying arm {wins}/20 times");
    }
}
