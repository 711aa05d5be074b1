//! End-to-end fault-injection tests: the tango-faults subsystem wired
//! through the whole system must (a) never lose a request or leave one
//! on a dead node, (b) actually reroute interrupted work, and (c) replay
//! bit-identically even under heavy churn.

use tango::{
    BePolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, RunAudit, RunReport, TangoConfig,
};
use tango_types::{ClusterId, SimTime};

/// The acceptance scenario from the issue: at least three node crashes
/// (two timed + staggered recoveries, plus seeded churn on top) and one
/// link degradation, on the physical-testbed layout.
fn churn_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 3;
    cfg.topology.clusters = 3;
    cfg.workload.lc_rps = 90.0;
    cfg.workload.be_rps = 12.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.faults = FaultPlan::new()
        .crash_for(
            SimTime::from_secs(1),
            NodeRef::Worker {
                cluster: ClusterId(0),
                index: 0,
            },
            SimTime::from_secs(2),
        )
        .crash_for(
            SimTime::from_secs(2),
            NodeRef::Worker {
                cluster: ClusterId(1),
                index: 1,
            },
            SimTime::from_secs(3),
        )
        .degrade_link_for(
            SimTime::from_secs(3),
            ClusterId(0),
            ClusterId(2),
            8.0,
            4.0,
            SimTime::from_secs(4),
        )
        .node_churn(SimTime::from_secs(6), SimTime::from_secs(1), 0xFA117)
        .master_failover(SimTime::from_secs(5), ClusterId(2), SimTime::from_secs(2));
    cfg
}

fn run_churn() -> (RunReport, RunAudit) {
    EdgeCloudSystem::new(churn_cfg()).run_audited(SimTime::from_secs(10), "churn")
}

#[test]
fn churn_conserves_every_request_and_never_uses_down_nodes() {
    let (report, audit) = run_churn();
    let f = &report.faults;

    // the scenario actually happened: ≥ 3 crashes, a degraded link, a
    // master failover window, real downtime, real rescheduling
    assert!(f.node_crashes >= 3, "only {} crashes", f.node_crashes);
    assert!(f.links_degraded >= 1);
    assert!(f.master_failovers >= 1);
    assert!(f.total_downtime > SimTime::ZERO);
    assert!(f.rescheduled > 0, "no interrupted work was rescheduled");

    // the system survived it: work still completes end to end
    assert!(report.lc_arrived > 100, "workload too small");
    assert!(report.lc_completed > 0);
    assert!(report.be_throughput > 0);

    // invariant 1: nothing is ever dispatched to a node known dead
    assert_eq!(f.down_node_dispatches, 0, "dispatch to a down node");
    // invariant 2: no request is left running on a dead node
    assert_eq!(audit.running_on_down_nodes, 0, "{audit:?}");
    // invariant 3: conservation — every arrival is in exactly one bucket
    assert!(
        audit.conserved(),
        "requests lost or double-counted: {audit:?}"
    );
    // invariant 4: no queue, wait list, limbo or transfer holds the id
    // of a finished (retired) request
    assert_eq!(audit.dangling, 0, "{audit:?}");
    assert_eq!(audit.total, report.lc_arrived + be_total(&report, &audit));
}

/// BE arrivals are not separately reported, so recover them from the
/// audit identity instead of trusting a second counter.
fn be_total(report: &RunReport, audit: &RunAudit) -> u64 {
    audit.total - report.lc_arrived
}

/// No pin covers this scenario, so two runs of one config check that it
/// replays bit-identically. Each run is on one thread, so thread count
/// cannot move it.
#[test]
fn churn_heavy_run_is_bit_identical_across_thread_counts() {
    let (a_report, a_audit) = run_churn();
    let (b_report, b_audit) = run_churn();
    assert!(a_report.faults.node_crashes >= 3, "scenario too calm");
    assert_eq!(a_audit, b_audit);
    assert_eq!(a_report.faults, b_report.faults);
    // Debug formatting of f64 is value-exact (shortest round-trip), so
    // string equality here is bitwise equality of every field.
    assert_eq!(format!("{a_report:?}"), format!("{b_report:?}"));
}

#[test]
fn master_failover_reroutes_dispatch_through_a_stand_in() {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 40.0;
    cfg.workload.be_rps = 6.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    // master of cluster 0 is down for the middle 4 s of a 8 s run
    cfg.faults = FaultPlan::new().master_failover(
        SimTime::from_secs(2),
        ClusterId(0),
        SimTime::from_secs(4),
    );
    let (report, audit) = EdgeCloudSystem::new(cfg).run_audited(SimTime::from_secs(8), "failover");

    assert_eq!(report.faults.master_failovers, 1);
    assert!(report.faults.total_downtime >= SimTime::from_secs(4));
    // the stand-in master kept cluster 0's traffic flowing: far more
    // completions than the calm windows alone could produce
    assert!(
        report.lc_completed as f64 > report.lc_arrived as f64 * 0.5,
        "failover stalled dispatch: {}/{}",
        report.lc_completed,
        report.lc_arrived
    );
    assert!(audit.conserved());
    assert_eq!(report.faults.down_node_dispatches, 0);
    assert_eq!(audit.running_on_down_nodes, 0);
    assert_eq!(audit.dangling, 0, "{audit:?}");
}

/// Cloud-enabled, defrag-heavy run whose fault plan crashes migration
/// *endpoints* mid-transfer: defrag fires on the 200 ms sync-tick grid
/// and cloud transfers take ≥ the 40 ms one-way base, so crashes placed
/// 10 ms after defrag boundaries land while checkpoints are in flight.
/// Cluster 2 is the cloud tier (destinations); clusters 0–1 are the hot
/// edge (sources).
fn migration_churn_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 30.0;
    cfg.workload.be_rps = 24.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.cloud = Some(tango::CloudConfig::default());
    cfg.defrag = Some(tango::DefragConfig {
        every_n_ticks: 2,
        max_moves: 8,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    let mut plan = FaultPlan::new();
    // destination crashes: take down half the cloud workers just after
    // successive defrag boundaries
    for (i, at_ms) in [1_210u64, 1_410, 1_610, 1_810].into_iter().enumerate() {
        plan = plan.crash_for(
            SimTime::from_millis(at_ms),
            NodeRef::Worker {
                cluster: ClusterId(2),
                index: i,
            },
            SimTime::from_millis(at_ms + 900),
        );
    }
    // source crashes: hot edge workers just after defrag boundaries
    plan = plan
        .crash_for(
            SimTime::from_millis(1_010),
            NodeRef::Worker {
                cluster: ClusterId(0),
                index: 1,
            },
            SimTime::from_millis(2_000),
        )
        .crash_for(
            SimTime::from_millis(1_210),
            NodeRef::Worker {
                cluster: ClusterId(1),
                index: 2,
            },
            SimTime::from_millis(2_200),
        );
    cfg.faults = plan;
    cfg
}

#[test]
fn migrations_survive_endpoint_crashes_without_losing_requests() {
    let (report, audit) =
        EdgeCloudSystem::new(migration_churn_cfg()).run_audited(SimTime::from_secs(5), "mc");
    // the scenario is live: migrations actually started, crashes hit
    assert!(report.migrations_started > 0, "defrag never fired");
    assert!(report.faults.node_crashes >= 6);
    // conservation: every request is in exactly one bucket — a crash of
    // a migration source cannot lose the detached work, a crash of the
    // destination bounces it back to the scheduler
    assert!(audit.conserved(), "requests lost: {audit:?}");
    assert_eq!(audit.running_on_down_nodes, 0, "{audit:?}");
    assert_eq!(audit.dangling, 0, "{audit:?}");
    assert_eq!(report.faults.down_node_dispatches, 0);
    // crashes actually interrupted transfers: some migrations never
    // landed, and at least one arrival bounced off a crashed destination
    // (seeded run: 40 started / 32 landed / 1 bounced)
    assert!(
        report.migrations_completed < report.migrations_started,
        "{}/{} — no migration was interrupted",
        report.migrations_completed,
        report.migrations_started
    );
    assert!(
        report.faults.bounced_deliveries >= 1,
        "no mid-transfer destination crash was observed"
    );
}

/// Two runs of one config, as for the churn run above.
#[test]
fn migration_churn_is_bit_identical_across_thread_counts() {
    let run =
        || EdgeCloudSystem::new(migration_churn_cfg()).run_audited(SimTime::from_secs(5), "mc");
    let (a_report, a_audit) = run();
    let (b_report, b_audit) = run();
    assert!(a_report.migrations_started > 0);
    assert_eq!(a_audit, b_audit);
    assert_eq!(a_report.faults, b_report.faults);
    assert_eq!(format!("{a_report:?}"), format!("{b_report:?}"));
}

#[test]
fn calm_weather_run_reports_zero_fault_activity() {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.be_policy = BePolicy::LoadGreedy;
    let (report, audit) = EdgeCloudSystem::new(cfg).run_audited(SimTime::from_secs(3), "calm");
    assert_eq!(report.faults, tango::FaultSummary::default());
    assert!(audit.conserved());
    assert_eq!(audit.dangling, 0, "{audit:?}");
}

/// Work that runs out at the instant its node crashes has finished: it
/// is booked then, not left `Running` on the down node until recovery.
/// At this seed of the `churn_1k` benchmark config, request 14721's work
/// runs out on node 64 in the crash event at 879.571 ms.
#[test]
fn work_finishing_at_a_crash_is_booked_not_left_on_the_down_node() {
    let seed = 11_400_714_819_323_198_489;
    let mut cfg = TangoConfig::paper_scale();
    cfg.detection = Some(Default::default());
    cfg.faults = FaultPlan::default().node_churn(
        SimTime::from_secs(2),
        SimTime::from_millis(500),
        seed ^ 0xC4012,
    );
    cfg.seed = seed;
    let (report, audit) =
        EdgeCloudSystem::new(cfg).run_audited(SimTime::from_millis(1_500), "crash-instant");
    assert!(report.faults.node_crashes > 0);
    assert!(audit.conserved(), "requests lost: {audit:?}");
    assert_eq!(audit.running_on_down_nodes, 0, "{audit:?}");
    assert_eq!(audit.dangling, 0, "{audit:?}");
}
