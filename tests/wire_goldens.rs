//! Wire-format goldens: the FNV-1a of every byte stream the system puts
//! on a wire, over runs that reach the state `calm_mid.snap` never does.
//!
//! `snapshot_wire_compat.rs` pins one calm checkpoint byte for byte.
//! These pins cover the rest: fault limbo and keep-alive suspicion,
//! seeded node churn, in-flight migrations, every scheduler's policy
//! blob (the round-robin cursors, the DSS-LC and DSACO streams and the
//! three learners), the mirror's full and delta frames, the proxy's
//! decision frames and the training harness's checkpoints. A codec edit
//! that moves any byte moves a constant here.
//!
//! Every constant holds at `TANGO_THREADS=1`, `4` and `8`.

use tango_repro::ctrl::proxy::{encode_reply, encode_request};
use tango_repro::ctrl::{DecisionReply, DecisionRequest, KeepAliveConfig, RequestBatch};
use tango_repro::gnn::EncoderKind;
use tango_repro::sched::CandidateNode;
use tango_repro::tango::{
    BePolicy, CheckpointPolicy, CloudConfig, DefragConfig, EdgeCloudSystem, FaultPlan, LcPolicy,
    NodeRef, TangoConfig,
};
use tango_repro::train::{TrainConfig, TrainHarness};
use tango_repro::types::{ClusterId, NodeId, RequestId, Resources, ServiceId, SimTime};
use tango_snap::{fnv1a_extend, FNV_OFFSET};

// The ten checkpoint-stream pins (churn, node churn, migration, the five
// policy blobs and training) were re-captured at snapshot format 5, which
// retired finished requests, replaced the queued arrivals with the trace
// cursor and checksums by the word; every other section of every
// checkpoint kept its bytes. The mirror and proxy frame pins date from
// before the codecs were generated from one field list, and are
// unchanged by either.
const CHURN_ORACLE_FNV: u64 = 0xc22bc5dcaa97ee02;
const CHURN_KEEPALIVE_FNV: u64 = 0xea5cffdf04062de4;
const NODE_CHURN_FNV: u64 = 0x541ae59a359a5999;
const MIGRATION_FNV: u64 = 0xf80e73560f1ac25a;
const DCG_BE_FNV: u64 = 0x2abe187f054f558b;
const GNN_SAC_FNV: u64 = 0xe38171f8229a6e4c;
const TD3_FNV: u64 = 0x5a2879b587a04b1c;
const DSACO_FNV: u64 = 0x7d31275dae677849;
const KS_NATIVE_FNV: u64 = 0x2f8b508f5b9ffcaa;
const MIRROR_FRAMES_FNV: u64 = 0x60de073ad9379c02;
const PROXY_FRAMES_FNV: u64 = 0x8104a74acf0dcd8e;
const TRAIN_FNV: u64 = 0xd46a01823c9fa30b;

/// The golden calm config of `refactor_equivalence.rs`.
fn calm_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 30.0;
    cfg.workload.be_rps = 4.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg
}

/// The golden churn config of `refactor_equivalence.rs`.
fn churn_cfg() -> TangoConfig {
    let mut cfg = calm_cfg();
    cfg.faults = FaultPlan::new()
        .crash_for(
            SimTime::from_millis(900),
            NodeRef::Worker {
                cluster: ClusterId(0),
                index: 1,
            },
            SimTime::from_millis(1_400),
        )
        .degrade_link_for(
            SimTime::from_millis(1_200),
            ClusterId(0),
            ClusterId(1),
            3.0,
            4.0,
            SimTime::from_millis(1_400),
        );
    cfg
}

/// The cloud config of `migration.rs`.
fn cloud_cfg() -> TangoConfig {
    let mut cfg = calm_cfg();
    cfg.workload.be_rps = 24.0;
    cfg.cloud = Some(CloudConfig::default());
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 8,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    cfg
}

fn fold<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    chunks.into_iter().fold(FNV_OFFSET, fnv1a_extend)
}

/// FNV-1a over every checkpoint of a run, concatenated in order.
fn checkpoint_stream(cfg: TangoConfig, horizon: SimTime, every_n_ticks: u32) -> u64 {
    let (_, checkpoints) = EdgeCloudSystem::new(cfg)
        .run_checkpointed(
            horizon,
            "wire",
            CheckpointPolicy {
                every_n_ticks,
                keep_last_k: 0,
            },
        )
        .expect("the config is snapshottable");
    assert!(checkpoints.len() >= 4, "{} checkpoints", checkpoints.len());
    fold(checkpoints.iter().map(|cp| cp.bytes.as_slice()))
}

fn assert_pinned(name: &str, found: u64, pinned: u64) {
    assert_eq!(
        found, pinned,
        "{name} bytes moved: found {found:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn churn_checkpoints_under_the_oracle_and_keep_alive_detectors() {
    let oracle = checkpoint_stream(churn_cfg(), SimTime::from_secs(3), 2);
    assert_pinned("oracle churn checkpoints", oracle, CHURN_ORACLE_FNV);
    let mut cfg = churn_cfg();
    cfg.detection = Some(KeepAliveConfig::default());
    let keep_alive = checkpoint_stream(cfg, SimTime::from_secs(3), 2);
    assert_pinned(
        "keep-alive churn checkpoints",
        keep_alive,
        CHURN_KEEPALIVE_FNV,
    );
}

#[test]
fn node_churn_checkpoints() {
    let mut cfg = calm_cfg();
    cfg.workload.lc_rps = 60.0;
    cfg.faults = FaultPlan::new().node_churn(
        SimTime::from_millis(1_500),
        SimTime::from_millis(400),
        0xC4012,
    );
    let found = checkpoint_stream(cfg, SimTime::from_secs(4), 3);
    assert_pinned("node-churn checkpoints", found, NODE_CHURN_FNV);
}

#[test]
fn migration_checkpoints_every_tick() {
    let found = checkpoint_stream(cloud_cfg(), SimTime::from_secs(3), 1);
    assert_pinned("migration checkpoints", found, MIGRATION_FNV);
}

#[test]
fn policy_blobs_in_calm_checkpoints() {
    let cases = [
        (
            "dcg-be",
            LcPolicy::DssLc,
            BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
            DCG_BE_FNV,
        ),
        ("gnn-sac", LcPolicy::DssLc, BePolicy::GnnSac, GNN_SAC_FNV),
        ("td3", LcPolicy::DssLc, BePolicy::Td3, TD3_FNV),
        ("dsaco", LcPolicy::Dsaco, BePolicy::LoadGreedy, DSACO_FNV),
        (
            "k8s-native",
            LcPolicy::KsNative,
            BePolicy::KsNative,
            KS_NATIVE_FNV,
        ),
    ];
    for (name, lc, be, pinned) in cases {
        let mut cfg = calm_cfg();
        cfg.workload.be_rps = 8.0;
        cfg.lc_policy = lc;
        cfg.be_policy = be;
        let found = checkpoint_stream(cfg, SimTime::from_secs(3), 4);
        assert_pinned(name, found, pinned);
    }
}

#[test]
fn mirror_frame_stream_of_the_churn_run() {
    let mut sys = EdgeCloudSystem::new(churn_cfg());
    let mirror = sys.attach_mirror();
    mirror.retain_frames(true);
    sys.run(SimTime::from_secs(5), "wire");
    let frames = mirror.take_retained();
    assert!(frames.len() > 10, "{} frames", frames.len());
    let found = fold(frames.iter().map(Vec::as_slice));
    assert_pinned("mirror frames", found, MIRROR_FRAMES_FNV);
}

#[test]
fn proxy_request_and_reply_frames() {
    let candidate = |i: u32| CandidateNode {
        node: NodeId(7 + i),
        cluster: ClusterId(i % 2),
        total: Resources::new(4_000, 8_192, 1_000, 100_000),
        available_lc: Resources::cpu_mem(1_500 + 10 * i as u64, 3_000),
        available_be: Resources::cpu_mem(700, 1_200),
        min_request: Resources::cpu_mem(250, 256),
        delay: SimTime::from_micros(3_125 * (i as u64 + 1)),
        link_capacity: 12 + i,
        slack: 0.85 - 0.5 * i as f64,
        alive: i != 1,
    };
    let request = DecisionRequest {
        round: 41,
        cluster: ClusterId(1),
        deadline: SimTime::from_millis(10),
        batches: vec![
            RequestBatch {
                service: ServiceId(3),
                requests: vec![RequestId(100), RequestId(102)],
                candidates: (0..3).map(candidate).collect(),
            },
            RequestBatch {
                service: ServiceId(0),
                requests: vec![],
                candidates: vec![candidate(5)],
            },
        ],
    };
    let reply = DecisionReply {
        round: 41,
        compute_latency: SimTime::from_micros(2_500),
        placements: vec![
            vec![(RequestId(100), NodeId(8)), (RequestId(102), NodeId(7))],
            vec![],
        ],
    };
    let found = fold([
        encode_request(&request).as_slice(),
        encode_reply(&reply).as_slice(),
    ]);
    assert_pinned("proxy frames", found, PROXY_FRAMES_FNV);
}

#[test]
fn td3_training_checkpoints_with_mid_episode_worlds() {
    let mut base = calm_cfg();
    base.workload.lc_rps = 20.0;
    base.workload.be_rps = 8.0;
    base.be_policy = BePolicy::Td3;
    let cfg = TrainConfig {
        episodes: 2,
        episode_duration: SimTime::from_secs(1),
        mid_episode: Some(CheckpointPolicy {
            every_n_ticks: 3,
            keep_last_k: 0,
        }),
        ..TrainConfig::new(base)
    };
    let mut found = FNV_OFFSET;
    let mut count = 0;
    TrainHarness::new(cfg)
        .run_with(|bytes| {
            found = fnv1a_extend(found, bytes);
            count += 1;
        })
        .expect("training runs");
    assert!(count >= 4, "{count} checkpoints");
    assert_pinned("train checkpoints", found, TRAIN_FNV);
}
