//! Chaos walkthrough: run the same workload calm and under a fault storm
//! — timed worker crashes, a degraded WAN link, a master failover, and
//! seeded MTTF/MTTR churn — then compare what the scheduler salvaged.
//!
//! ```sh
//! cargo run --release --example chaos_churn
//! ```
//!
//! The fault plan compiles into timed simulation events before the run
//! starts, so the whole scenario is deterministic: same seed, same
//! faults, same report, on every run.

use tango_repro::tango::{BePolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, TangoConfig};
use tango_repro::types::{ClusterId, SimTime};

fn base_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 3;
    cfg.topology.clusters = 3;
    cfg.workload.lc_rps = 90.0;
    cfg.workload.be_rps = 12.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg
}

fn storm() -> FaultPlan {
    FaultPlan::new()
        // two staggered worker crashes with recoveries
        .crash_for(
            SimTime::from_secs(2),
            NodeRef::Worker {
                cluster: ClusterId(0),
                index: 0,
            },
            SimTime::from_secs(3),
        )
        .crash_for(
            SimTime::from_secs(4),
            NodeRef::Worker {
                cluster: ClusterId(1),
                index: 1,
            },
            SimTime::from_secs(4),
        )
        // the 0–2 WAN link gets 8× latency and a quarter of its bandwidth
        .degrade_link_for(
            SimTime::from_secs(5),
            ClusterId(0),
            ClusterId(2),
            8.0,
            4.0,
            SimTime::from_secs(5),
        )
        // cluster 2 loses its master; the nearest live master stands in
        .master_failover(SimTime::from_secs(8), ClusterId(2), SimTime::from_secs(3))
        // and on top of it all, background churn: ~12 s MTTF, 1.5 s MTTR
        .node_churn(SimTime::from_secs(12), SimTime::from_millis(1_500), 0xC4A05)
}

fn main() {
    let duration = SimTime::from_secs(15);

    let calm = EdgeCloudSystem::new(base_cfg()).run(duration, "calm");

    let mut cfg = base_cfg();
    cfg.faults = storm();
    let (stormy, audit) = EdgeCloudSystem::new(cfg).run_audited(duration, "storm");

    println!("{}", calm.summary());
    println!("{}", stormy.summary());

    let f = &stormy.faults;
    println!();
    println!("fault ledger:");
    println!(
        "  crashes / recoveries   {} / {}",
        f.node_crashes, f.node_recoveries
    );
    println!("  master failovers       {}", f.master_failovers);
    println!("  links degraded         {}", f.links_degraded);
    println!(
        "  total downtime         {:.0} ms",
        f.total_downtime.as_millis_f64()
    );
    println!(
        "  interrupted (LC / BE)  {} / {}",
        f.lc_interrupted, f.be_interrupted
    );
    println!("  wait-queue drained     {}", f.wait_drained);
    println!("  bounced deliveries     {}", f.bounced_deliveries);
    println!("  rescheduled total      {}", f.rescheduled);
    println!("  fault-window QoS viol. {}", f.fault_qos_violations);

    println!();
    println!(
        "conservation: {} arrived = {} completed + {} abandoned + {} failed + {} pending",
        audit.total, audit.completed, audit.abandoned, audit.failed, audit.pending
    );
    assert!(audit.conserved(), "requests must never be lost");
    assert_eq!(f.down_node_dispatches, 0, "no work may land on dead nodes");
    assert_eq!(audit.running_on_down_nodes, 0);
    println!("invariants hold: nothing lost, nothing on dead nodes.");
}
