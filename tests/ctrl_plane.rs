//! Control-plane integration tests: the state mirror and a NoopProxy are
//! pure observers (pinned goldens survive attachment), mirror frame
//! streams reconstruct the latest snapshot, an external pin policy
//! really changes placement with deterministic deadline-miss fallback, a proxied run refuses to checkpoint, and
//! keep-alive detection trips within the configured miss bound.

use tango_repro::ctrl::{
    apply_frame, decode_frame, DecisionReply, KeepAliveConfig, NoopProxy, PolicyFn,
};
use tango_repro::metrics::{TraceEvent, TraceRecorder};
use tango_repro::tango::{
    BePolicy, CheckpointPolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef, RunReport,
    SnapError, TangoConfig,
};
use tango_repro::types::{ClusterId, NodeId, SimTime};

/// Same pinned goldens as `refactor_equivalence.rs` /
/// `paper_scale.rs` — attaching a mirror and a declining proxy must not
/// move them by a single bit.
const CALM_DIGEST: u64 = 0x6338323c1d6cf929;
const CHURN_DIGEST: u64 = 0xee21677c6a08d16d;
const PAPER_104_DIGEST: u64 = 0xeb7c094ffd83ce86;

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

/// Attach a mirror plus a declining proxy on every cluster, then run.
fn run_observed(cfg: TangoConfig, horizon: SimTime) -> RunReport {
    let mut sys = EdgeCloudSystem::new(cfg);
    let _mirror = sys.attach_mirror();
    let stats: Vec<_> = (0..sys.cluster_count())
        .map(|ci| {
            sys.attach_lc_proxy(
                ClusterId(ci as u32),
                Box::new(NoopProxy),
                SimTime::from_millis(10),
            )
        })
        .collect();
    let report = sys.run(horizon, "golden");
    for s in &stats {
        let (accepted, _declined, fallbacks) = s.totals();
        assert_eq!(accepted, 0, "NoopProxy never places");
        assert_eq!(fallbacks, 0, "declines are not fallbacks");
    }
    report
}

#[test]
fn mirror_and_noop_proxy_leave_goldens_untouched() {
    for (cfg_fn, golden) in [
        (calm_cfg as fn() -> TangoConfig, CALM_DIGEST),
        (churn_cfg as fn() -> TangoConfig, CHURN_DIGEST),
    ] {
        let report = run_observed(cfg_fn(), SimTime::from_secs(5));
        assert_eq!(
            report.digest(),
            golden,
            "observer attachments moved a golden (report: {})",
            report.summary()
        );
    }
}

#[test]
fn mirror_and_noop_proxy_leave_104_cluster_golden_untouched() {
    let mut cfg = TangoConfig::dual_space(104);
    cfg.be_policy = BePolicy::LoadGreedy;
    let report = run_observed(cfg, SimTime::from_millis(300));
    assert_eq!(
        report.digest(),
        PAPER_104_DIGEST,
        "observer attachments moved the 104-cluster golden"
    );
}

#[test]
fn mirror_frame_stream_reconstructs_latest_snapshot() {
    let mut sys = EdgeCloudSystem::new(churn_cfg());
    let mirror = sys.attach_mirror();
    mirror.retain_frames(true);
    sys.run(SimTime::from_secs(5), "mirror");

    let frames = mirror.take_retained();
    assert!(!frames.is_empty(), "a 5 s run publishes frames");
    // An external consumer replays the wire stream from nothing and must
    // land on exactly the publisher's latest snapshot.
    let mut view = None;
    for bytes in &frames {
        let frame = decode_frame(bytes).expect("published frames decode");
        apply_frame(&mut view, &frame).expect("published frames apply in order");
    }
    let reconstructed = view.expect("stream ends with state");
    let latest = mirror.latest().expect("publisher kept a snapshot");
    assert_eq!(reconstructed, latest);

    let stats = mirror.stats();
    assert!(stats.full_frames >= 1, "first publish is a full frame");
    assert!(
        stats.delta_frames >= 1,
        "steady-state publishes deltas, not fulls (stats: {stats:?})"
    );
    assert!(
        stats.full_frames + stats.delta_frames <= frames.len() as u64,
        "retained stream covers every published frame"
    );
    // The crash/recover churn plus steady traffic must not degenerate
    // into re-sending the whole cluster every tick.
    assert!(
        stats.rows_published < stats.delta_frames * latest.nodes.len() as u64,
        "deltas carry changed rows only"
    );
}

#[test]
fn external_pin_policy_changes_placement_and_is_accepted() {
    let pinned_node = NodeId(2); // a cluster-0 worker in the 2-cluster layout
    let baseline = EdgeCloudSystem::new(calm_cfg()).run(SimTime::from_secs(3), "base");

    let mut sys = EdgeCloudSystem::new(calm_cfg());
    let stats = sys.attach_lc_proxy(
        ClusterId(0),
        Box::new(PolicyFn::new(move |req| {
            let placements = req
                .batches
                .iter()
                .map(|b| {
                    let ok = b
                        .candidates
                        .iter()
                        .any(|c| c.node == pinned_node && c.alive);
                    b.requests
                        .iter()
                        .filter(|_| ok)
                        .map(|&rid| (rid, pinned_node))
                        .collect()
                })
                .collect();
            Some(DecisionReply {
                round: req.round,
                compute_latency: SimTime::from_millis(1),
                placements,
            })
        })),
        SimTime::from_millis(10),
    );
    let recorder = TraceRecorder::new(1 << 16);
    sys.set_trace(Box::new(recorder.clone()));
    let report = sys.run(SimTime::from_secs(3), "pinned");

    let (accepted, _, fallbacks) = stats.totals();
    assert!(accepted > 0, "the pin policy placed rounds");
    assert_eq!(
        fallbacks, 0,
        "well-formed in-deadline replies never fall back"
    );
    assert_ne!(
        report.digest(),
        baseline.digest(),
        "an external policy that pins placement must change behavior"
    );
    // Every cluster-0 LC dispatch decision in the trace goes to the pin.
    let mut pinned = 0u64;
    for (_, ev) in recorder.events() {
        if let TraceEvent::DispatchDecision { target, lane, .. } = ev {
            if lane == tango_repro::metrics::TraceLane::Lc && target == pinned_node {
                pinned += 1;
            }
        }
    }
    assert!(pinned > 0, "pinned dispatches visible in the trace");
}

#[test]
fn deadline_miss_falls_back_to_local_policy_bit_identically() {
    let baseline = EdgeCloudSystem::new(calm_cfg()).run(SimTime::from_secs(3), "base");

    // The policy answers every round, correctly — but claims a sim-time
    // compute latency over the deadline. Every round must fall back to
    // the wrapped local DSS-LC and reproduce the unproxied run exactly.
    let mut sys = EdgeCloudSystem::new(calm_cfg());
    let stats = sys.attach_lc_proxy(
        ClusterId(0),
        Box::new(PolicyFn::new(|req| {
            Some(DecisionReply {
                round: req.round,
                compute_latency: SimTime::from_millis(50),
                placements: req.batches.iter().map(|_| Vec::new()).collect(),
            })
        })),
        SimTime::from_millis(10),
    );
    let report = sys.run(SimTime::from_secs(3), "late");

    let (accepted, _, fallbacks) = stats.totals();
    assert_eq!(accepted, 0);
    assert!(fallbacks > 0, "late replies count as fallbacks");
    assert_eq!(
        report.digest(),
        baseline.digest(),
        "deadline-miss fallback must be bit-identical to the local policy"
    );
    // Fallbacks surface in the per-period series.
    let total: u64 = report.periods.iter().map(|p| p.proxy_fallbacks).sum();
    assert_eq!(total, fallbacks, "period counters account every fallback");
}

#[test]
fn keepalive_detection_trips_within_the_miss_bound() {
    let mut cfg = churn_cfg();
    cfg.detection = Some(KeepAliveConfig {
        miss_threshold: 3,
        suspicion_decay: 0.5,
    });
    let bound = SimTime::from_millis(100 * 3); // miss_threshold × sync_interval

    let mut sys = EdgeCloudSystem::new(cfg);
    let recorder = TraceRecorder::new(1 << 16);
    sys.set_trace(Box::new(recorder.clone()));
    let report = sys.run(SimTime::from_secs(5), "detected");

    let events = recorder.events();
    let crash_at = events
        .iter()
        .find_map(|(at, e)| match e {
            TraceEvent::Fault { kind: "crash", .. } => Some(*at),
            _ => None,
        })
        .expect("the plan crashes a worker");
    let detected_at = events
        .iter()
        .find_map(|(at, e)| match e {
            TraceEvent::Fault {
                kind: "detected", ..
            } => Some(*at),
            _ => None,
        })
        .expect("the keep-alive detector trips");
    assert!(detected_at > crash_at);
    let lag = detected_at.saturating_since(crash_at);
    assert!(
        lag <= bound,
        "detection lag {lag:?} exceeds miss_threshold × sync_interval {bound:?}"
    );
    // The lag is reported in the per-period series (mean ms per period).
    let reported: f64 = report.periods.iter().map(|p| p.detection_lag_ms).sum();
    assert!(reported > 0.0, "detection lag surfaces in the report");
    assert!(reported <= bound.as_millis_f64() + 1e-9);
    // Failover still runs: the interrupted work was rescheduled after
    // the trip and the run conserves every request.
    assert_eq!(report.faults.node_crashes, 1);
    assert_eq!(report.faults.node_recoveries, 1);
}

#[test]
fn recovery_before_detection_never_surfaces_the_crash() {
    let mut cfg = calm_cfg();
    // Down for one sync tick — under a 3-miss threshold the detector
    // never trips, so the control plane never learns of the blip.
    cfg.faults = FaultPlan::new().crash_for(
        SimTime::from_millis(900),
        NodeRef::Worker {
            cluster: ClusterId(0),
            index: 1,
        },
        SimTime::from_millis(150),
    );
    cfg.detection = Some(KeepAliveConfig {
        miss_threshold: 3,
        suspicion_decay: 0.5,
    });

    let mut sys = EdgeCloudSystem::new(cfg);
    let recorder = TraceRecorder::new(1 << 16);
    sys.set_trace(Box::new(recorder.clone()));
    let report = sys.run(SimTime::from_secs(3), "blip");

    assert!(
        !recorder.events().iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Fault {
                kind: "detected",
                ..
            }
        )),
        "a sub-threshold blip must stay undetected"
    );
    assert_eq!(report.faults.node_crashes, 1);
    assert_eq!(report.faults.node_recoveries, 1);
    let reported: f64 = report.periods.iter().map(|p| p.detection_lag_ms).sum();
    assert_eq!(reported, 0.0, "no detection, no lag");
}

/// No pin covers this scenario, so two runs of one config check that
/// detection-driven faults replay identically. Each run is on one
/// thread, so thread count cannot move it.
#[test]
fn detection_runs_are_deterministic_and_thread_invariant() {
    let run = || {
        let mut cfg = churn_cfg();
        cfg.detection = Some(KeepAliveConfig::default());
        EdgeCloudSystem::new(cfg)
            .run(SimTime::from_secs(5), "det")
            .digest()
    };
    assert_eq!(
        run(),
        run(),
        "detection-driven faults must replay identically"
    );
}

/// The proxy's decision source lives outside the simulation, so a run
/// with a proxy attached must refuse to checkpoint: `run_checkpointed`
/// fails with `SnapError::Unsupported` instead of handing back snapshots
/// whose proxied LC slot would restore as the plain local policy.
#[test]
fn proxy_attached_run_refuses_to_checkpoint() {
    let policy = CheckpointPolicy {
        every_n_ticks: 5,
        keep_last_k: 0,
    };
    let horizon = SimTime::from_secs(2);

    let mut sys = EdgeCloudSystem::new(calm_cfg());
    sys.attach_lc_proxy(ClusterId(1), Box::new(NoopProxy), SimTime::from_millis(10));
    match sys.run_checkpointed(horizon, "proxied", policy) {
        Err(SnapError::Unsupported(_)) => {}
        Err(e) => panic!("expected SnapError::Unsupported, got {e:?}"),
        Ok((_, checkpoints)) => panic!(
            "a proxied run produced {} checkpoints instead of refusing",
            checkpoints.len()
        ),
    }

    // the refusal is the proxy's: the same run without it checkpoints
    let (_, checkpoints) = EdgeCloudSystem::new(calm_cfg())
        .run_checkpointed(horizon, "local", policy)
        .expect("local policies are snapshottable");
    assert!(!checkpoints.is_empty());
}
