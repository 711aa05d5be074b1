//! Cloud-tier + migration end-to-end tests.
//!
//! The elastic cloud tier and the defragmentation pass claim three
//! properties, each pinned here:
//!
//! 1. **Cloud-off is invisible** — with `cloud: None, defrag: None`
//!    (the default) the run is byte-for-byte the pre-cloud run; the
//!    refactor-equivalence goldens carry that check, this file asserts
//!    the defaults themselves.
//! 2. **Cloud-on is deterministic** — a migration-heavy run digests to a
//!    pinned constant.
//! 3. **Migration round-trips through checkpoints** — snapshots taken
//!    while pod checkpoints are mid-transfer restore into runs whose
//!    final digest equals the uninterrupted one.

use tango::{
    BePolicy, CheckpointPolicy, CloudConfig, DefragConfig, EdgeCloudSystem, LcPolicy, RunReport,
    TangoConfig,
};
use tango_types::SimTime;

/// Digest of `cloud_cfg()` run for 5 s, pinned when the cloud tier
/// landed.
const MIGRATION_DIGEST: u64 = 0x397ff8838e721112;

/// A BE-heavy two-cluster run with the cloud tier attached and an
/// aggressive defrag cadence — hot thresholds low enough that the
/// KubeDSM pass fires repeatedly.
fn cloud_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 30.0;
    cfg.workload.be_rps = 24.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.cloud = Some(CloudConfig::default());
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 8,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    cfg
}

const HORIZON: SimTime = SimTime::from_secs(5);

fn run(cfg: TangoConfig) -> RunReport {
    EdgeCloudSystem::new(cfg).run(HORIZON, "cloud")
}

#[test]
fn cloud_and_defrag_are_off_by_default() {
    let cfg = TangoConfig::physical_testbed();
    assert!(cfg.cloud.is_none());
    assert!(cfg.defrag.is_none());
}

#[test]
fn migration_heavy_run_matches_pinned_digest_and_actually_migrates() {
    let (r, audit) = EdgeCloudSystem::new(cloud_cfg()).run_audited(HORIZON, "cloud");
    // every request accounted for, and no queue or transfer names a
    // finished one
    assert!(audit.conserved(), "{audit:?}");
    assert_eq!(audit.dangling, 0, "{audit:?}");
    assert!(r.migrations_started > 0, "defrag pass never fired");
    assert_eq!(
        r.migrations_completed,
        r.migrations_started,
        "calm-weather migrations must all land: {}",
        r.summary()
    );
    assert!(r.cloud_egress_kib > 0, "no traffic crossed to the cloud");
    assert_eq!(
        r.digest(),
        MIGRATION_DIGEST,
        "cloud-enabled run drifted (report: {})",
        r.summary()
    );
}

/// Each run is on one thread and no run reads `parallelism`, so setting
/// it must leave the pin where it is.
#[test]
fn migration_run_is_bit_identical_across_thread_counts() {
    let mut cfg = cloud_cfg();
    cfg.parallelism = Some(8);
    assert_eq!(run(cfg).digest(), MIGRATION_DIGEST);
}

#[test]
fn migration_counters_land_in_the_csv() {
    let r = run(cloud_cfg());
    let csv = r.periods_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.ends_with("migrations_started,migrations_completed,cloud_egress_kib"));
    let started: u64 = r.periods.iter().map(|p| p.migrations_started).sum();
    assert_eq!(started, r.migrations_started);
}

#[test]
fn mid_migration_checkpoint_restores_bit_identically() {
    let uninterrupted = run(cloud_cfg()).digest();
    // Checkpoint every sync tick: defrag fires every second tick and
    // cloud transfers take ≥ the 40 ms one-way base, so the checkpoint
    // taken at a defrag boundary always captures in-flight transfers.
    let (report, checkpoints) = EdgeCloudSystem::new(cloud_cfg())
        .run_checkpointed(
            HORIZON,
            "cloud",
            CheckpointPolicy {
                every_n_ticks: 2,
                keep_last_k: 0,
            },
        )
        .expect("checkpointing succeeds");
    assert_eq!(
        report.digest(),
        uninterrupted,
        "checkpoint hook perturbed the run"
    );
    assert!(report.migrations_started > 0);
    assert!(checkpoints.len() > 3);
    // Restore a prefix of checkpoints spanning the migration bursts and
    // drive each to the horizon: every resume must reproduce the digest.
    for cp in checkpoints.iter().step_by(4) {
        let resumed = EdgeCloudSystem::restore(cloud_cfg(), &cp.bytes)
            .unwrap_or_else(|e| panic!("restore at {:?} failed: {e:?}", cp.at));
        let r = resumed.finish("cloud");
        assert_eq!(
            r.digest(),
            uninterrupted,
            "resume from {:?} diverged ({})",
            cp.at,
            r.summary()
        );
    }
}

#[test]
fn egress_budget_closes_the_cloud_tier() {
    let unlimited = run(cloud_cfg());
    let mut cfg = cloud_cfg();
    cfg.cloud.as_mut().unwrap().egress_budget_kib = Some(8_192);
    let capped = run(cfg);
    assert!(
        capped.cloud_egress_kib < unlimited.cloud_egress_kib,
        "budget had no effect: {} vs {}",
        capped.cloud_egress_kib,
        unlimited.cloud_egress_kib
    );
    // The flip is monotonic: once cumulative egress crosses the budget,
    // every later period ships nothing to the cloud.
    let mut cumulative = 0u64;
    let mut closed_at = None;
    for (i, p) in capped.periods.iter().enumerate() {
        if closed_at.is_some() {
            assert_eq!(
                p.cloud_egress_kib, 0,
                "egress after the budget flip in period {i}"
            );
        }
        cumulative += p.cloud_egress_kib;
        if cumulative >= 8_192 && closed_at.is_none() {
            closed_at = Some(i);
        }
    }
    assert!(closed_at.is_some(), "budget was never reached");
}
