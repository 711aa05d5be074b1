//! Resume-equivalence for the training harness: a killed-and-resumed
//! training run must reproduce the uninterrupted run's final network
//! weights and eval digest bit-for-bit, whatever `parallelism` the
//! checkpoint and the resume were configured with.

use tango::{BePolicy, CheckpointPolicy, TangoConfig};
use tango_repro::train::{TrainConfig, TrainHarness};
use tango_types::SimTime;

const EPISODES: usize = 4;
const CHECKPOINT_AT: usize = 2;

fn base(threads: Option<usize>) -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 20.0;
    cfg.workload.be_rps = 8.0;
    cfg.be_policy = BePolicy::Td3;
    cfg.parallelism = threads;
    cfg
}

fn train_cfg(threads: Option<usize>) -> TrainConfig {
    TrainConfig {
        episodes: EPISODES,
        episode_duration: SimTime::from_secs(1),
        ..TrainConfig::new(base(threads))
    }
}

/// Train to completion; separately train to episode k, checkpoint, build
/// a fresh harness from the bytes and finish — weights and digest must
/// match exactly.
fn assert_resume_equivalence(threads: Option<usize>) {
    let full = TrainHarness::new(train_cfg(threads)).run().unwrap();
    assert_eq!(full.episodes, EPISODES);
    assert!(!full.agent_blob.is_empty());

    let mut h = TrainHarness::new(train_cfg(threads));
    for _ in 0..CHECKPOINT_AT {
        h.step(&mut |_| {}).unwrap();
    }
    let cp = h.checkpoint();
    drop(h); // the "kill": nothing survives but the checkpoint bytes

    let mut resumed = TrainHarness::resume(train_cfg(threads), &cp).unwrap();
    assert_eq!(resumed.episodes_completed(), CHECKPOINT_AT);
    let out = resumed.run().unwrap();
    assert_eq!(
        out.eval_digest, full.eval_digest,
        "resumed eval digest drifted from the uninterrupted run"
    );
    assert_eq!(
        out.agent_blob, full.agent_blob,
        "resumed final weights drifted from the uninterrupted run"
    );
    assert_eq!(out.records, full.records);
}

#[test]
fn resume_matches_uninterrupted_at_one_thread() {
    assert_resume_equivalence(Some(1));
}

#[test]
fn thread_count_never_changes_the_outcome() {
    // checkpoint under `Some(1)`, resume under `Some(4)`: the harness
    // fingerprint masks parallelism exactly like the system snapshot does
    let at1 = TrainHarness::new(train_cfg(Some(1))).run().unwrap();
    let mut h = TrainHarness::new(train_cfg(Some(1)));
    h.step(&mut |_| {}).unwrap();
    let cp = h.checkpoint();
    let out = TrainHarness::resume(train_cfg(Some(4)), &cp)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.eval_digest, at1.eval_digest);
    assert_eq!(out.agent_blob, at1.agent_blob);
}

#[test]
fn mid_episode_checkpoints_resume_identically() {
    // world-bearing checkpoints taken inside an episode also land on the
    // uninterrupted outcome
    let mk = |threads| TrainConfig {
        mid_episode: Some(CheckpointPolicy {
            every_n_ticks: 4,
            keep_last_k: 0,
        }),
        ..train_cfg(threads)
    };
    let full = TrainHarness::new(mk(Some(2))).run().unwrap();
    let mut h = TrainHarness::new(mk(Some(2)));
    let mut last: Option<Vec<u8>> = None;
    h.step(&mut |cp| last = Some(cp.to_vec())).unwrap();
    let cp = last.expect("episode 0 produced mid-episode checkpoints");
    let out = TrainHarness::resume(mk(Some(2)), &cp)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.eval_digest, full.eval_digest);
    assert_eq!(out.agent_blob, full.agent_blob);
}
