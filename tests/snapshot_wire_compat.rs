//! Snapshot *wire-compatibility* regression test.
//!
//! `tests/fixtures/calm_mid.snap` is a committed mid-run checkpoint of
//! the calm golden scenario, last regenerated at snapshot format 5 (live
//! requests only, the trace cursor instead of queued arrivals, the
//! word-wise checksum). The checkpoint encoder's contract is that the
//! queue section is serialized sorted by `(at, seq)` — independent of
//! the queue's in-memory layout — so this fixture must keep restoring
//! bit-identically, and the current encoder must keep producing exactly
//! these bytes for the same state.
//!
//! If an intentional format change breaks these tests, bump the snapshot
//! version and regenerate the fixture with
//! `cargo test --test snapshot_wire_compat -- --ignored regen_fixture`.

use tango::{BePolicy, CheckpointPolicy, EdgeCloudSystem, LcPolicy, TangoConfig};
use tango_types::SimTime;

/// Uninterrupted-run digest, shared with `refactor_equivalence.rs`.
const CALM_DIGEST: u64 = 0x6338323c1d6cf929;

/// Sim time the committed fixture was captured at.
const FIXTURE_AT: SimTime = SimTime::from_millis(2_400);

const DURATION: SimTime = SimTime::from_secs(5);

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/calm_mid.snap")
}

/// Same scenario as the calm golden in `refactor_equivalence.rs`.
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

/// Reproduce the fixture checkpoint from scratch: the mid-run checkpoint
/// of the calm scenario under the default policy (deterministic, so the
/// bytes are a pure function of the code).
fn regenerate() -> (SimTime, Vec<u8>) {
    let (_, checkpoints) = EdgeCloudSystem::new(calm_cfg())
        .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
        .expect("checkpointing the calm scenario succeeds");
    let mid = checkpoints
        .into_iter()
        .nth(2)
        .expect("calm run produces at least three checkpoints");
    (mid.at, mid.bytes)
}

#[test]
fn committed_fixture_restores_bit_identically() {
    let bytes = std::fs::read(fixture_path())
        .expect("committed fixture tests/fixtures/calm_mid.snap exists");
    let resumed = EdgeCloudSystem::restore(calm_cfg(), &bytes)
        .expect("fixture from an older build still parses");
    assert_eq!(resumed.now(), FIXTURE_AT, "fixture capture point moved");
    assert_eq!(
        resumed.finish("golden").digest(),
        CALM_DIGEST,
        "run resumed from the committed fixture drifted from the golden"
    );
}

#[test]
fn current_encoder_reproduces_committed_fixture_bytes() {
    let committed = std::fs::read(fixture_path())
        .expect("committed fixture tests/fixtures/calm_mid.snap exists");
    let (at, fresh) = regenerate();
    assert_eq!(at, FIXTURE_AT, "checkpoint cadence moved");
    assert_eq!(
        fresh,
        committed,
        "snapshot encoding drifted from the committed wire format \
         (fresh {} bytes vs committed {}); if intentional, bump the \
         snapshot version and regenerate the fixture",
        fresh.len(),
        committed.len()
    );
}

/// Maintainer tool, not a test: rewrite the fixture from the current
/// encoder. Run with `-- --ignored regen_fixture` after an intentional
/// format change.
#[test]
#[ignore]
fn regen_fixture() {
    let (at, bytes) = regenerate();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), &bytes).unwrap();
    println!("wrote {} bytes at t={:?}", bytes.len(), at);
}
