//! Golden refactor-equivalence tests.
//!
//! The staged-runtime decomposition of `EdgeCloudSystem` (lifecycle /
//! dispatch / sync / fault stages over a `SystemCtx` borrow-view) claims
//! to be *behavior-preserving*: same seed in, bit-identical `RunReport`
//! out. These tests pin the digest of two seeded end-to-end runs — one
//! calm-weather, one under fault churn — to constants captured from the
//! pre-refactor monolith. Any drift in event ordering, RNG consumption,
//! candidate construction or accounting changes the digest and fails the
//! test exactly.

use tango::{BePolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, RunReport, TangoConfig};
use tango_snap::fnv1a;
use tango_types::{ClusterId, SimTime};

/// Digest of `calm_cfg()` run for 5 s, captured from the pre-refactor
/// `system.rs` monolith (commit d599896) and unchanged since.
const CALM_DIGEST: u64 = 0x6338323c1d6cf929;
/// FNV-1a of the same run's `periods_csv()`, captured while the CSV was
/// still written by a hand-kept header, format string and argument list.
const CALM_CSV_FNV: u64 = 0x7cb81137ef9499d2;

/// Digest of `churn_cfg()` run for 5 s, captured from the pre-refactor
/// `system.rs` monolith (commit d599896) and unchanged since.
const CHURN_DIGEST: u64 = 0xee21677c6a08d16d;
/// FNV-1a of the same run's `periods_csv()`, captured like `CALM_CSV_FNV`.
const CHURN_CSV_FNV: u64 = 0xe424a07a6f3b4f93;

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

fn run(cfg: TangoConfig) -> RunReport {
    EdgeCloudSystem::new(cfg).run(SimTime::from_secs(5), "golden")
}

#[test]
fn calm_run_matches_pre_refactor_digest() {
    let report = run(calm_cfg());
    assert_eq!(
        report.digest(),
        CALM_DIGEST,
        "calm-weather RunReport drifted from the pre-refactor golden \
         (report: {})",
        report.summary()
    );
    assert_eq!(fnv1a(report.periods_csv().as_bytes()), CALM_CSV_FNV);
}

#[test]
fn churn_run_matches_pre_refactor_digest() {
    let report = run(churn_cfg());
    assert_eq!(
        report.digest(),
        CHURN_DIGEST,
        "fault-churn RunReport drifted from the pre-refactor golden \
         (report: {})",
        report.summary()
    );
    assert_eq!(fnv1a(report.periods_csv().as_bytes()), CHURN_CSV_FNV);
}

/// Each run is on one thread and no run reads `parallelism`, so setting
/// it must leave both pins where they are.
#[test]
fn digests_are_thread_count_invariant() {
    for (cfg_fn, golden) in [
        (calm_cfg as fn() -> TangoConfig, CALM_DIGEST),
        (churn_cfg, CHURN_DIGEST),
    ] {
        let mut cfg = cfg_fn();
        cfg.parallelism = Some(4);
        assert_eq!(run(cfg).digest(), golden);
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(calm_cfg());
    let b = run(calm_cfg());
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.lc_arrived, b.lc_arrived);
    assert_eq!(a.lc_completed, b.lc_completed);
    assert_eq!(a.be_throughput, b.be_throughput);
    assert_eq!(a.abandoned, b.abandoned);
}

#[test]
fn digest_is_sensitive_to_every_top_level_field() {
    let base = run(calm_cfg());
    let d0 = base.digest();
    let mut r = base.clone();
    r.be_throughput ^= 1;
    assert_ne!(r.digest(), d0);
    let mut r = base.clone();
    r.qos_satisfaction += 1e-12;
    assert_ne!(r.digest(), d0);
    let mut r = base.clone();
    r.faults.node_crashes += 1;
    assert_ne!(r.digest(), d0);
    let mut r = base;
    if let Some(p) = r.periods.first_mut() {
        p.lc_arrived ^= 1;
        assert_ne!(r.digest(), d0);
    }
}
