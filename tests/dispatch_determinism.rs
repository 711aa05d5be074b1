//! Determinism tests for the dispatch path.
//!
//! Each `Dispatch(c)` event is one master's round, planned and committed
//! before the next event pops, so the rounds of a tick commit in pop
//! order and each plans against the reservations of the rounds before
//! it. These tests pin that with golden digests of a *dispatch-heavy*
//! scenario (arrival rate high enough that every round carries work for
//! every cluster) in calm weather and under fault churn — plus a
//! conflict-path scenario where two clusters plan
//! onto the *same* nearly-full workers every round, so each round must
//! see what the other just reserved (conflicts resolved by cluster
//! ordering, never by requeue).

use tango::{BePolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, RunReport, TangoConfig};
use tango_types::{ClusterId, SimTime};

/// Golden digest of `dispatch_heavy_calm()` run for 2 s.
const HEAVY_CALM_DIGEST: u64 = 0xb7f3d61af8535834;

/// Golden digest of `dispatch_heavy_churn()` run for 2 s.
const HEAVY_CHURN_DIGEST: u64 = 0x3d287885ad1e8f2e;

/// Golden digest of `shared_node_conflict()` run for 2 s.
const CONFLICT_DIGEST: u64 = 0xa1f194c5b4869e27;

/// Dispatch-heavy calm weather: every dispatch round at every master has
/// pending work, so every round of every tick plans and commits.
fn dispatch_heavy_calm() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 6;
    cfg.topology.clusters = 6;
    cfg.workload.lc_rps = 900.0;
    cfg.workload.be_rps = 90.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.seed = 0xD15;
    cfg
}

/// The same load with a mid-run worker crash and a degraded inter-cluster
/// link: failover re-mastering and link-aware candidate views on the
/// dispatch path.
fn dispatch_heavy_churn() -> TangoConfig {
    let mut cfg = dispatch_heavy_calm();
    cfg.faults = FaultPlan::new()
        .crash_for(
            SimTime::from_millis(400),
            NodeRef::Worker {
                cluster: ClusterId(1),
                index: 0,
            },
            SimTime::from_millis(700),
        )
        .degrade_link_for(
            SimTime::from_millis(500),
            ClusterId(0),
            ClusterId(2),
            2.5,
            3.0,
            SimTime::from_millis(900),
        );
    cfg
}

/// Conflict path: two clusters, one worker each, in the same metro
/// region — every cluster's geo candidate set contains *both* workers,
/// and the load keeps them nearly full. The clusters therefore contend
/// on every round, and cluster 1's plan must observe cluster 0's
/// freshly committed reservations.
fn shared_node_conflict() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workers_per_cluster = (1, 1);
    cfg.workload.lc_rps = 300.0;
    cfg.workload.be_rps = 20.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.seed = 0xC0F;
    cfg
}

fn run(cfg: TangoConfig) -> RunReport {
    EdgeCloudSystem::new(cfg).run(SimTime::from_secs(2), "dispatch-det")
}

#[test]
fn heavy_calm_digest_is_pinned_and_thread_invariant() {
    let report = run(dispatch_heavy_calm());
    assert!(report.lc_arrived > 1_000, "scenario is not dispatch-heavy");
    assert_eq!(
        report.digest(),
        HEAVY_CALM_DIGEST,
        "dispatch-heavy calm digest drifted (report: {})",
        report.summary()
    );
}

#[test]
fn heavy_churn_digest_is_pinned_and_thread_invariant() {
    let report = run(dispatch_heavy_churn());
    assert!(report.lc_arrived > 1_000, "scenario is not dispatch-heavy");
    assert_eq!(
        report.digest(),
        HEAVY_CHURN_DIGEST,
        "dispatch-heavy churn digest drifted (report: {})",
        report.summary()
    );
}

#[test]
fn shared_node_conflict_serializes_identically() {
    let report = run(shared_node_conflict());
    // The scenario must really contend: far more arrivals than two
    // nearly-full workers can absorb, yet some work completes.
    assert!(report.lc_arrived > 400, "not enough load for contention");
    assert!(report.lc_completed > 0, "nothing completed");
    assert!(
        report.lc_completed < report.lc_arrived,
        "workers absorbed everything — nodes are not nearly full"
    );
    assert_eq!(
        report.digest(),
        CONFLICT_DIGEST,
        "conflict-path digest drifted (report: {})",
        report.summary()
    );
}
