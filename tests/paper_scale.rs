//! Paper-scale (§6.1 dual-space) equivalence tests: the 104-cluster
//! sharded run is bit-identical at every thread count, and
//! checkpoint/restore keeps pace with the ~1000-node system.
//!
//! Horizons are short (a few sync ticks) because these run in debug mode
//! in CI; the full-length scenarios live in the bench binaries.

use tango_repro::tango::{BePolicy, CheckpointPolicy, EdgeCloudSystem, TangoConfig};
use tango_repro::types::SimTime;

/// Digest of the 104-cluster run below, captured at the introduction of
/// the sharded sync loop + incremental candidate views and pinned since.
/// Drift means the paper-scale path stopped being deterministic (or an
/// intentional behavior change — recapture deliberately).
const PAPER_104_DIGEST: u64 = 0xeb7c094ffd83ce86;

const HORIZON: SimTime = SimTime::from_millis(300);

fn cfg_104(threads: usize) -> TangoConfig {
    let mut cfg = TangoConfig::dual_space(104);
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.parallelism = Some(threads);
    cfg
}

#[test]
fn sharded_104_cluster_run_is_bit_identical_across_thread_counts() {
    let (report, audit) = EdgeCloudSystem::new(cfg_104(1)).run_audited(HORIZON, "paper-104");
    assert!(audit.conserved(), "{audit:?}");
    assert_eq!(audit.dangling, 0, "{audit:?}");
    let d1 = report.digest();
    assert_eq!(
        d1, PAPER_104_DIGEST,
        "104-cluster digest drifted at 1 thread: {d1:#018x}"
    );
    let d4 = EdgeCloudSystem::new(cfg_104(4))
        .run(HORIZON, "paper-104")
        .digest();
    assert_eq!(
        d4, PAPER_104_DIGEST,
        "104-cluster digest drifted at 4 threads: {d4:#018x}"
    );
}

#[test]
fn thousand_node_checkpoint_restores_to_identical_digest() {
    let cfg = TangoConfig::paper_scale();
    let horizon = SimTime::from_millis(400);
    let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(
            horizon,
            "paper-1k",
            CheckpointPolicy {
                every_n_ticks: 2, // 200 ms at the 100 ms sync cadence
                keep_last_k: 1,
            },
        )
        .expect("paper_scale is snapshottable (non-learning BE)");
    let mid = checkpoints.last().expect("one mid-run checkpoint");
    assert!(mid.at > SimTime::ZERO && mid.at < horizon);
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore at ~1000 nodes");
    assert_eq!(resumed.now(), mid.at);
    assert_eq!(
        resumed.finish("paper-1k").digest(),
        report.digest(),
        "restored 1000-node run diverged from the uninterrupted one"
    );
}
