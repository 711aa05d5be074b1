//! Snapshot/resume equivalence tests for the `tango-snap` checkpoint
//! subsystem.
//!
//! The contract under test: checkpoint a run mid-flight, restore the
//! snapshot onto a fresh system built from the same config, run to the
//! end — and the final `RunReport` digest is bit-identical to the
//! uninterrupted run. The uninterrupted goldens are the same constants
//! `refactor_equivalence.rs` pins, so a resumed run is simultaneously
//! checked against the pre-refactor monolith. Corruption of any kind
//! (truncation, bit flips, version bumps, wrong config) must surface as
//! a typed `SnapError`, never a panic or a silently wrong resume.

use tango::{
    BePolicy, CheckpointPolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, SnapError,
    TangoConfig,
};
use tango_types::{ClusterId, SimTime};

/// Uninterrupted-run digests, shared with `refactor_equivalence.rs`.
const CALM_DIGEST: u64 = 0x6338323c1d6cf929;
const CHURN_DIGEST: u64 = 0xee21677c6a08d16d;

const DURATION: SimTime = SimTime::from_secs(5);

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

/// Checkpoint every 8 ticks (800 ms at the paper's 100 ms sync interval),
/// run to the end, restore the mid-run checkpoint and finish from there.
fn resume_digest(cfg: TangoConfig) -> (u64, u64) {
    let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
        .expect("checkpointing a snapshottable config succeeds");
    assert!(
        checkpoints.len() >= 3,
        "expected several checkpoints over 5 s, got {}",
        checkpoints.len()
    );
    // a checkpoint from the middle of the run, with real in-flight state
    let mid = &checkpoints[checkpoints.len() / 2];
    assert!(mid.at > SimTime::ZERO && mid.at < DURATION);
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore succeeds");
    assert_eq!(resumed.now(), mid.at);
    (report.digest(), resumed.finish("golden").digest())
}

#[test]
fn calm_resume_matches_uninterrupted_golden() {
    let (checkpointed, resumed) = resume_digest(calm_cfg());
    assert_eq!(
        checkpointed, CALM_DIGEST,
        "segmented (checkpointed) run drifted from the uninterrupted golden"
    );
    assert_eq!(
        resumed, CALM_DIGEST,
        "restored run drifted from the uninterrupted golden"
    );
}

#[test]
fn churn_resume_matches_uninterrupted_golden() {
    let (checkpointed, resumed) = resume_digest(churn_cfg());
    assert_eq!(
        checkpointed, CHURN_DIGEST,
        "segmented (checkpointed) run under fault churn drifted from the golden"
    );
    assert_eq!(
        resumed, CHURN_DIGEST,
        "restored run under fault churn drifted from the golden"
    );
}

#[test]
fn resume_is_thread_count_invariant() {
    // snapshot at 4 workers, restore at 1 (and vice versa): the config
    // fingerprint masks `parallelism`, and the digest must not move.
    let scenarios: [(fn() -> TangoConfig, u64); 2] =
        [(calm_cfg, CALM_DIGEST), (churn_cfg, CHURN_DIGEST)];
    for (cfg_fn, golden) in scenarios {
        let mut snap_cfg = cfg_fn();
        snap_cfg.parallelism = Some(4);
        let (_, checkpoints) = EdgeCloudSystem::new(snap_cfg)
            .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
            .unwrap();
        let mid = &checkpoints[checkpoints.len() / 2];
        let mut restore_cfg = cfg_fn();
        restore_cfg.parallelism = Some(1);
        let resumed = EdgeCloudSystem::restore(restore_cfg, &mid.bytes).unwrap();
        assert_eq!(resumed.finish("golden").digest(), golden);
    }
}

#[test]
fn restored_state_resnapshots_to_identical_bytes() {
    // every map is encoded in sorted order and every scratch structure is
    // excluded, so snapshot(restore(snapshot(x))) is byte-stable
    let cfg = calm_cfg();
    let (_, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
        .unwrap();
    let mid = &checkpoints[checkpoints.len() / 2];
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).unwrap();
    let again = resumed.snapshot().unwrap();
    assert_eq!(again, mid.bytes, "re-snapshot of restored state drifted");
}

#[test]
fn keep_last_k_bounds_retention() {
    let policy = CheckpointPolicy {
        every_n_ticks: 4,
        keep_last_k: 2,
    };
    let (_, checkpoints) = EdgeCloudSystem::new(calm_cfg())
        .run_checkpointed(DURATION, "golden", policy)
        .unwrap();
    assert_eq!(checkpoints.len(), 2);
    assert!(checkpoints[0].at < checkpoints[1].at, "oldest first");
}

fn sample_snapshot() -> (TangoConfig, Vec<u8>) {
    let cfg = calm_cfg();
    let (_, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(SimTime::from_secs(2), "golden", CheckpointPolicy::default())
        .unwrap();
    (cfg, checkpoints[0].bytes.clone())
}

#[test]
fn truncated_snapshot_is_rejected_not_panicking() {
    let (cfg, bytes) = sample_snapshot();
    for cut in [0, 1, 8, 9, 17, 30, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            EdgeCloudSystem::restore(cfg.clone(), &bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored successfully"
        );
    }
}

#[test]
fn flipped_bit_fails_the_checksum() {
    let (cfg, mut bytes) = sample_snapshot();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(matches!(
        EdgeCloudSystem::restore(cfg, &bytes),
        Err(SnapError::BadChecksum { .. })
    ));
}

#[test]
fn version_bump_is_rejected_before_decoding() {
    let (cfg, mut bytes) = sample_snapshot();
    bytes[8] = 0xFF; // the format-version word follows the 8-byte magic
    assert!(matches!(
        EdgeCloudSystem::restore(cfg, &bytes),
        Err(SnapError::VersionMismatch { .. })
    ));
}

#[test]
fn wrong_config_is_rejected_by_fingerprint() {
    let (_, bytes) = sample_snapshot();
    assert!(matches!(
        EdgeCloudSystem::restore(churn_cfg(), &bytes),
        Err(SnapError::ConfigMismatch { .. })
    ));
}

#[test]
fn garbage_bytes_are_rejected() {
    assert!(matches!(
        EdgeCloudSystem::restore(calm_cfg(), b"not a snapshot at all"),
        Err(SnapError::BadMagic)
    ));
}

/// Overwrite the `u32` node id at `offset` into section `tag`'s payload
/// of a sealed snapshot and re-seal the checksum, so the edited file gets
/// past every framing check and reaches the section decoders.
fn with_node_id(sealed: &[u8], tag: u32, offset: usize, id: u32) -> Vec<u8> {
    let mut bytes = sealed.to_vec();
    // magic (8) + format version (2) + fingerprint (8) + section count (4)
    let mut pos = 22;
    loop {
        let t = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if t == tag {
            let at = pos + 12 + offset;
            bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
            break;
        }
        pos += 12 + len;
    }
    let body = bytes.len() - 8;
    let checksum = tango_snap::fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn hostile_node_ids_are_rejected_without_over_allocating() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/calm_mid.snap");
    let bytes = std::fs::read(fixture).expect("committed calm_mid.snap fixture");
    // (section, offset of its first node id, what the decoder reports):
    // the detector's first window follows its width and count, the
    // store's first row follows its count
    let cases = [
        (7, 16, "detector window node id"),
        (12, 8, "store row node id"),
    ];
    for (tag, offset, what) in cases {
        // re-sealing the id already there leaves a valid snapshot, so the
        // offset really points at a node id
        let original = {
            let file = tango_snap::SnapFile::parse(&bytes).unwrap();
            let mut r = file.section(tag, "section").unwrap();
            r.u64().unwrap();
            if tag == 7 {
                assert!(r.u64().unwrap() > 0, "fixture has detector windows");
            }
            r.u32().unwrap()
        };
        assert_eq!(with_node_id(&bytes, tag, offset, original), bytes);
        let crafted = with_node_id(&bytes, tag, offset, 4_000_000_000);
        match EdgeCloudSystem::restore(calm_cfg(), &crafted) {
            Err(SnapError::Corrupt(found)) => assert_eq!(found, what),
            Err(e) => panic!("section {tag}: expected Corrupt({what}), got {e:?}"),
            Ok(_) => panic!("section {tag}: hostile node id restored"),
        }
    }
}

#[test]
fn rl_policies_round_trip_through_checkpoints() {
    // Learned policies (network weights, optimizer moments, RNG streams,
    // replay rings) ride in the scheduler blob: a resumed RL run must
    // land on the same digest as the uninterrupted one.
    for be in [BePolicy::GnnSac, BePolicy::Td3] {
        let mut cfg = calm_cfg();
        cfg.be_policy = be;
        cfg.workload.be_rps = 8.0; // enough BE traffic to train mid-run
        let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
            .run_checkpointed(DURATION, "rl", CheckpointPolicy::default())
            .expect("RL policies are snapshottable");
        let mid = &checkpoints[checkpoints.len() / 2];
        assert!(mid.at > SimTime::ZERO && mid.at < DURATION);
        let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore succeeds");
        assert_eq!(
            resumed.finish("rl").digest(),
            report.digest(),
            "resumed {} run drifted from the uninterrupted one",
            be.name()
        );
    }
}
