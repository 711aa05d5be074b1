//! Learner goldens: every RL agent driven through several training rounds
//! over a seeded synthetic candidate stream, with its complete learner
//! state (weights, Adam moments, RNG streams, buffers) digested and
//! pinned.
//!
//! A run digest covers only the run's report, so learners whose weights
//! differ can digest the same. These digests see every bit of every
//! parameter.
//!
//! The stream is the scheduler's own state encoding (`build_graph`,
//! `context_mask`) over [`ROWS`] candidates in four clusters. In every
//! step a quarter of the rows are infeasible or dead, so the mask-aware
//! paths of each learner run. The digests must hold at 1, 4 and 8
//! threads: the kernels keep each output element's float sequence fixed
//! whatever the partition.

use std::sync::Mutex;
use tango_gnn::{EncoderKind, FeatureGraph};
use tango_rl::{A2cAgent, A2cConfig, Agent, SacAgent, SacConfig, Td3Agent, Td3Config};
use tango_sched::dcg_be::{build_graph, context_mask, FEATURE_DIM};
use tango_sched::CandidateNode;
use tango_simcore::SimRng;
use tango_snap::fnv1a;
use tango_types::{ClusterId, NodeId, Resources, SimTime};

/// Serializes tests that flip the process-global thread count.
static GLOBAL_THREADS: Mutex<()> = Mutex::new(());

/// Candidate rows per decision.
const ROWS: usize = 24;
/// Decisions per run; with a train interval of 4 that is 6 rounds.
const DECISIONS: usize = 24;
const TRAIN_INTERVAL: usize = 4;

// The NN kernels and the feasible-row A2C actor are exact (DESIGN.md §9
// items 4 and 7): no change to them may move these.
const A2C_SAGE_DIGEST: u64 = 0x44a4397b47bfaa67;
const A2C_GAT_DIGEST: u64 = 0x71f5a1819c0d0c0e;
const SAC_DIGEST: u64 = 0xe3fa07ef37883da6;
const TD3_DIGEST: u64 = 0xcc2809c6672ea24b;

/// One decision's state: a random demand over [`ROWS`] candidates, of
/// which exactly a quarter cannot take it (every third of those is
/// dead, the rest lack free resources).
fn candidates(rng: &mut SimRng) -> (FeatureGraph, Vec<bool>) {
    let demand = Resources::cpu_mem(300 + rng.next_below(500), 128 + rng.next_below(384));
    let mut order: Vec<usize> = (0..ROWS).collect();
    rng.shuffle(&mut order);
    let mut bad = [false; ROWS];
    for &i in &order[..ROWS / 4] {
        bad[i] = true;
    }
    let mut dead_turn = 0;
    let nodes: Vec<CandidateNode> = (0..ROWS)
        .map(|i| {
            let total = Resources::cpu_mem(4_000 + 1_000 * (i as u64 % 5), 8_192);
            let roomy = Resources::cpu_mem(
                demand.cpu_milli + rng.next_below(3_000),
                demand.memory_mib + rng.next_below(4_096),
            );
            let mut alive = true;
            let mut available_be = roomy;
            if bad[i] {
                dead_turn += 1;
                if dead_turn % 3 == 0 {
                    alive = false;
                } else {
                    available_be = Resources::cpu_mem(rng.next_below(demand.cpu_milli), 64);
                }
            }
            CandidateNode {
                node: NodeId(i as u32),
                cluster: ClusterId((i / 6) as u32),
                total,
                available_lc: available_be,
                available_be,
                min_request: Resources::cpu_mem(250, 128),
                delay: SimTime::from_micros(200 + rng.next_below(20_000)),
                link_capacity: 16,
                slack: rng.range_f64(-0.5, 1.0),
                alive,
            }
        })
        .collect();
    let mask = context_mask(&demand, &nodes);
    assert_eq!(mask.iter().filter(|&&m| !m).count(), ROWS / 4);
    (build_graph(&demand, &nodes), mask)
}

/// What the goldens drive: act on a state, learn from the outcome.
trait Learner {
    fn step(&mut self, graph: &FeatureGraph, mask: &[bool]) -> usize;
    fn learn(&mut self, reward: f32, next_graph: &FeatureGraph, next_mask: &[bool], done: bool);
    fn train_rounds(&self) -> usize;
    fn snapshot(&self) -> Vec<u8>;
}

impl Learner for A2cAgent {
    fn step(&mut self, graph: &FeatureGraph, mask: &[bool]) -> usize {
        self.act(graph, mask).expect("a feasible row")
    }
    fn learn(&mut self, reward: f32, next_graph: &FeatureGraph, next_mask: &[bool], done: bool) {
        self.observe(reward, next_graph, next_mask, done);
    }
    fn train_rounds(&self) -> usize {
        self.train_rounds
    }
    fn snapshot(&self) -> Vec<u8> {
        self.snapshot_bytes()
    }
}

impl Learner for SacAgent {
    fn step(&mut self, graph: &FeatureGraph, mask: &[bool]) -> usize {
        self.act(graph, mask).expect("a feasible row")
    }
    fn learn(&mut self, reward: f32, next_graph: &FeatureGraph, next_mask: &[bool], done: bool) {
        self.observe(reward, next_graph, next_mask, done);
    }
    fn train_rounds(&self) -> usize {
        self.train_rounds
    }
    fn snapshot(&self) -> Vec<u8> {
        self.snapshot_bytes()
    }
}

impl Learner for Td3Agent {
    fn step(&mut self, graph: &FeatureGraph, mask: &[bool]) -> usize {
        self.act(graph, mask).expect("a feasible row").0
    }
    fn learn(&mut self, reward: f32, next_graph: &FeatureGraph, next_mask: &[bool], done: bool) {
        self.observe(reward, next_graph, next_mask, done);
    }
    fn train_rounds(&self) -> usize {
        self.train_rounds
    }
    fn snapshot(&self) -> Vec<u8> {
        self.snapshot_bytes()
    }
}

/// Drive `agent` through [`DECISIONS`] decisions and digest its state.
/// The reward is the chosen row's free-CPU feature, so it depends on
/// the decision.
fn digest(mut agent: impl Learner) -> u64 {
    let mut rng = SimRng::new(0x1EA2);
    let (mut graph, mut mask) = candidates(&mut rng);
    for i in 0..DECISIONS {
        let pick = agent.step(&graph, &mask);
        assert!(mask[pick], "decision {i} picked a masked row");
        let reward = graph.features.get(pick, 0);
        let (next_graph, next_mask) = candidates(&mut rng);
        agent.learn(reward, &next_graph, &next_mask, i % 7 == 6);
        graph = next_graph;
        mask = next_mask;
    }
    assert!(agent.train_rounds() >= 5, "{} rounds", agent.train_rounds());
    fnv1a(&agent.snapshot())
}

fn a2c(encoder_kind: EncoderKind) -> A2cAgent {
    A2cAgent::new(A2cConfig {
        encoder_kind,
        feature_dim: FEATURE_DIM,
        train_interval: TRAIN_INTERVAL,
        lr: 1e-3,
        seed: 5,
        ..A2cConfig::default()
    })
}

fn sac() -> SacAgent {
    SacAgent::new(SacConfig {
        feature_dim: FEATURE_DIM,
        batch_size: TRAIN_INTERVAL,
        train_interval: TRAIN_INTERVAL,
        replay_capacity: 64,
        lr: 1e-3,
        seed: 6,
        ..SacConfig::default()
    })
}

fn td3() -> Td3Agent {
    Td3Agent::new(Td3Config {
        feature_dim: FEATURE_DIM,
        batch_size: TRAIN_INTERVAL,
        train_interval: TRAIN_INTERVAL,
        replay_capacity: 64,
        lr: 1e-3,
        seed: 7,
        ..Td3Config::default()
    })
}

/// Run `digest` at 1, 4 and 8 threads and check each against `golden`.
fn pinned_at_every_thread_count(name: &str, golden: u64, digest: impl Fn() -> u64) {
    let got: Vec<(usize, u64)> = {
        let _guard = GLOBAL_THREADS
            .lock()
            .expect("a thread-count test panicked while holding the lock");
        let saved = tango_par::threads();
        let got = [1usize, 4, 8]
            .into_iter()
            .map(|t| {
                tango_par::set_threads(t);
                (t, digest())
            })
            .collect();
        tango_par::set_threads(saved);
        got
    };
    for (t, d) in got {
        assert_eq!(d, golden, "{name} at {t} threads: {d:#018x}");
    }
}

#[test]
fn a2c_sage_learner_state_is_pinned() {
    pinned_at_every_thread_count("a2c/sage", A2C_SAGE_DIGEST, || {
        digest(a2c(EncoderKind::Sage { p: 3 }))
    });
}

#[test]
fn a2c_gat_learner_state_is_pinned() {
    pinned_at_every_thread_count("a2c/gat", A2C_GAT_DIGEST, || digest(a2c(EncoderKind::Gat)));
}

#[test]
fn sac_learner_state_is_pinned() {
    pinned_at_every_thread_count("sac", SAC_DIGEST, || digest(sac()));
}

#[test]
fn td3_learner_state_is_pinned() {
    pinned_at_every_thread_count("td3", TD3_DIGEST, || digest(td3()));
}
