//! Property tests for the incremental candidate-view cache.
//!
//! The cache (`crates/core/src/view_cache.rs`) claims that its
//! epoch-invalidated views are always equal to a from-scratch rebuild
//! from the same inputs: the LC views' rows as their accessor builds
//! them on demand, and the BE views' reservation-patched rows.
//! `set_view_verification` turns on an in-cache oracle that performs
//! exactly that comparison on **every** view query, materialising each
//! LC view's rows through its accessor — so these tests drive whole
//! seeded runs, under random fault churn and across config variants,
//! with the oracle armed. Any divergence (a missed invalidation, a stale
//! roster, a stale reservation patch, a BE view not rebuilt after a sync
//! push, a wrong geo set, a segment kept for an inadmissible cluster, a
//! row built from the wrong link or min-request) panics inside the run.
//!
//! The oracle's reference walks the whole store and filters by cluster
//! membership, so it does not share the per-cluster node ranges a roster
//! walks, nor the cache's row builder: it computes every row from the
//! store and the re-assurer through `CandidateNode::from_observation`.
//! The paper-scale churn runs and the last two runs are where cluster
//! stamps dominate: many clusters, so a cluster stamp leaves most of a
//! view's segments untouched; global stamps landing before and after
//! cluster stamps; and the cloud tier's egress gate closing mid-run.
//! The full-horizon runs, `churn_1k`'s, `paper_calm`'s and
//! `spill_ckpt`'s, are `#[ignore]`d in the debug suite; CI runs them in
//! release.

use tango_repro::tango::{
    BePolicy, CloudConfig, DefragConfig, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, RunReport,
    TangoConfig,
};
use tango_repro::types::{ClusterId, SimTime};

fn base_cfg(seed: u64) -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 3;
    cfg.topology.clusters = 3;
    cfg.workload.lc_rps = 40.0;
    cfg.workload.be_rps = 6.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.seed = seed;
    cfg
}

fn run_verified(cfg: TangoConfig, horizon_ms: u64, label: &str) -> RunReport {
    let mut sys = EdgeCloudSystem::new(cfg);
    sys.set_view_verification(true);
    let report = sys.run(SimTime::from_millis(horizon_ms), label);
    assert!(report.lc_arrived > 0, "{label}: run produced no traffic");
    report
}

/// Calm weather across seeds: reservation deltas and sync/reassure
/// invalidations are the only mutation sources.
#[test]
fn cached_views_match_rebuild_on_calm_runs() {
    for seed in [7u64, 99, 20_26] {
        run_verified(base_cfg(seed), 2_000, "view-verify-calm");
    }
}

/// Random mutation sequences: timed crash/recover, link degradation and
/// restore, plus seeded MTTF/MTTR node churn — every fault arm of the
/// invalidation protocol fires while the oracle compares each view
/// against a fresh rebuild.
#[test]
fn cached_views_match_rebuild_under_random_churn() {
    for seed in [3u64, 41] {
        let mut cfg = base_cfg(seed);
        cfg.faults = FaultPlan::new()
            .crash_for(
                SimTime::from_millis(300),
                NodeRef::Worker {
                    cluster: ClusterId(0),
                    index: 1,
                },
                SimTime::from_millis(600),
            )
            .crash_for(
                SimTime::from_millis(500),
                NodeRef::Master(ClusterId(1)),
                SimTime::from_millis(400),
            )
            .degrade_link_for(
                SimTime::from_millis(400),
                ClusterId(0),
                ClusterId(2),
                3.0,
                4.0,
                SimTime::from_millis(700),
            )
            .node_churn(
                SimTime::from_millis(200),
                SimTime::from_millis(150),
                seed ^ 0xC0FFEE,
            );
        run_verified(cfg, 2_000, "view-verify-churn");
    }
}

/// Config variants that exercise the other cache scopes and input
/// branches: local-only dispatch (the BE local filter), re-assurance
/// ablated off (no min-request factors), and the static allocator.
#[test]
fn cached_views_match_rebuild_across_config_variants() {
    let mut local = base_cfg(11);
    local.local_only = true;
    run_verified(local, 1_500, "view-verify-local");

    let mut no_reassure = base_cfg(12);
    no_reassure.reassurance = None;
    run_verified(no_reassure, 1_500, "view-verify-no-reassure");

    let static_alloc = base_cfg(13).as_k8s_native();
    run_verified(static_alloc, 1_500, "view-verify-static");
}

/// `churn_1k`'s shape at paper scale (104 clusters, ~1000 nodes): keep-
/// alive detection and node churn, so detections and recoveries stamp
/// single clusters while each view lists only its geo set.
fn churn_1k_cfg(seed: u64) -> TangoConfig {
    let mut cfg = TangoConfig::paper_scale();
    cfg.detection = Some(Default::default());
    cfg.faults = FaultPlan::default().node_churn(
        SimTime::from_secs(2),
        SimTime::from_millis(500),
        seed ^ 0xC4012,
    );
    cfg.seed = seed;
    cfg
}

/// `churn_1k`'s shape to 600 ms.
#[test]
fn cached_views_match_rebuild_at_paper_scale_under_churn() {
    let report = run_verified(churn_1k_cfg(7), 600, "view-verify-paper-scale");
    assert!(report.faults.node_crashes > 0, "churn crashed no node");
}

/// The same shape over `churn_1k`'s whole 2 s horizon, where cluster
/// stamps are dense: hundreds of crashes and recoveries, each stamping
/// one cluster. A few seconds in a release build, far longer in
/// a debug one, so it runs on request:
/// `cargo test --release --test view_cache_properties -- --ignored`.
#[test]
#[ignore = "the full churn_1k horizon; run in release with --ignored"]
fn cached_views_match_rebuild_over_the_full_churn_1k_horizon() {
    let report = run_verified(churn_1k_cfg(7), 2_000, "view-verify-churn-1k");
    let f = &report.faults;
    assert!(
        f.node_crashes > 0 && f.node_recoveries > 0,
        "churn stamped no cluster: {} crashes, {} recoveries",
        f.node_crashes,
        f.node_recoveries
    );
}

/// `paper_calm`'s shape (the paper-scale preset in calm weather) over
/// its whole 2 s horizon: about 500 LC views lending rows to tens of
/// thousands of plans, and every BE view patched after each placement
/// and rebuilt after each sync push. A few seconds in a release build,
/// far longer in a debug one, so it runs on request:
/// `cargo test --release --test view_cache_properties -- --ignored`.
#[test]
#[ignore = "the full paper_calm horizon; run in release with --ignored"]
fn cached_views_match_rebuild_over_the_full_paper_calm_horizon() {
    let mut cfg = TangoConfig::paper_scale();
    cfg.seed = 7;
    let report = run_verified(cfg, 2_000, "view-verify-paper-calm");
    assert!(report.lc_completed > 0, "the calm run completed no LC work");
}

/// `spill_ckpt`'s shape over its whole 10 s horizon: the cloud tier with
/// KubeDSM defragmentation over sixteen clusters, built as
/// `tango_bench::scenarios::edge_spill_cfg(16)` builds it. Hundreds of
/// migrations land while every BE view lists the cloud segment, and no
/// landing stamps any cluster. The armed run must also digest like an
/// unarmed one. About a second in a release build, so it runs on request
/// with the other full horizons:
/// `cargo test --release --test view_cache_properties -- --ignored`.
#[test]
#[ignore = "the full spill_ckpt horizon; run in release with --ignored"]
fn cached_views_match_rebuild_over_the_full_spill_ckpt_horizon() {
    let mut cfg = TangoConfig::dual_space(16);
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.workload.be_rps = cfg.workload.be_rps.max(12.0 * 16.0);
    cfg.cloud = Some(CloudConfig::default());
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 16,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    cfg.seed = 7;
    let unarmed = EdgeCloudSystem::new(cfg.clone()).run(SimTime::from_secs(10), "spill");
    let report = run_verified(cfg, 10_000, "view-verify-spill");
    assert!(
        report.migrations_completed > 0,
        "no migration landed ({} started)",
        report.migrations_started
    );
    assert_eq!(
        report.digest(),
        unarmed.digest(),
        "the armed run digested unlike the unarmed one"
    );
}

/// Global stamps (partition, heal, link degrade and restore) landing
/// before and after cluster stamps (oracle-mode crashes and recoveries)
/// over eight clusters.
#[test]
fn cached_views_match_rebuild_with_global_and_cluster_stamps_interleaved() {
    let mut cfg = base_cfg(5);
    cfg.clusters = 8;
    cfg.topology.clusters = 8;
    cfg.workload.lc_rps = 80.0;
    cfg.workload.be_rps = 10.0;
    cfg.faults = FaultPlan::new()
        .node_churn(
            SimTime::from_millis(300),
            SimTime::from_millis(150),
            0x5EC7_0125,
        )
        .partition_at(SimTime::from_millis(250), &[ClusterId(0), ClusterId(3)])
        .heal_at(SimTime::from_millis(700))
        .degrade_link_for(
            SimTime::from_millis(500),
            ClusterId(1),
            ClusterId(6),
            3.0,
            4.0,
            SimTime::from_millis(600),
        )
        .partition_at(SimTime::from_millis(1_300), &[ClusterId(5)])
        .heal_at(SimTime::from_millis(1_600));
    let report = run_verified(cfg, 2_000, "view-verify-interleaved");
    let f = &report.faults;
    assert!(
        f.node_crashes > 0 && f.node_recoveries > 0,
        "churn stamped no cluster"
    );
    assert_eq!((f.partitions, f.heals, f.links_degraded), (2, 2, 1));
}

/// The cloud tier with defragmentation and an egress budget small enough
/// that the gate closes mid-run: the flip stamps only the cloud cluster,
/// and every view keeps its edge segments.
#[test]
fn cached_views_match_rebuild_when_the_cloud_gate_closes() {
    const BUDGET_KIB: u64 = 2_048;
    let mut cfg = base_cfg(17);
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 30.0;
    cfg.workload.be_rps = 24.0;
    cfg.cloud = Some(CloudConfig {
        egress_budget_kib: Some(BUDGET_KIB),
        ..CloudConfig::default()
    });
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 8,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    let report = run_verified(cfg, 2_000, "view-verify-cloud");
    assert!(
        report.cloud_egress_kib >= BUDGET_KIB,
        "egress {} KiB never reached the {BUDGET_KIB} KiB budget: the gate never closed",
        report.cloud_egress_kib
    );
}
