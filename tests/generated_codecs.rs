//! One contract for every codec `snap_record!` and `snap_enum!` generate.
//!
//! For a sample of each public record and tag enum declared through the
//! macros:
//!
//! * the value round-trips, and re-encoding the decoded value gives the
//!   same bytes;
//! * every strict prefix of the encoding is `Err(Truncated)`, with no
//!   panic;
//! * one trailing byte makes `from_bytes` return `Corrupt`;
//! * for an enum, every tag byte outside its table is `Corrupt` with that
//!   enum's message.

use std::fmt::Debug;
use tango_repro::ctrl::{DecisionReply, DecisionRequest, MirrorNode, MirrorSnapshot, RequestBatch};
use tango_repro::faults::{FaultEvent, FaultSummary};
use tango_repro::gnn::FeatureGraph;
use tango_repro::kube::{CompletedRequest, RunningRequest};
use tango_repro::metrics::{LatencyWindow, NodeRole};
use tango_repro::nn::Matrix;
use tango_repro::rl::replay::Stored;
use tango_repro::rl::Td3Stored;
use tango_repro::sched::CandidateNode;
use tango_repro::tango::Event;
use tango_repro::train::EpisodeRecord;
use tango_repro::types::{
    ClusterId, ContainerId, NodeId, Request, RequestId, RequestOutcome, Resources, ServiceClass,
    ServiceId, SimTime,
};
use tango_repro::workload::TraceEvent;
use tango_snap::{from_bytes, to_bytes, SnapDecode, SnapEncode, SnapError};

/// Check the contract on `v`; `view` picks what the round trip must keep.
fn check<T, V>(v: &T, view: impl Fn(&T) -> V)
where
    T: SnapEncode + SnapDecode,
    V: PartialEq + Debug,
{
    let bytes = to_bytes(v);
    let back: T = from_bytes(&bytes).expect("a value decodes from its own encoding");
    assert_eq!(view(&back), view(v));
    assert_eq!(to_bytes(&back), bytes, "{:?}", view(v));
    for cut in 0..bytes.len() {
        assert_eq!(
            from_bytes::<T>(&bytes[..cut]).err(),
            Some(SnapError::Truncated),
            "{:?} cut to {cut} of {} bytes",
            view(v),
            bytes.len()
        );
    }
    let mut long = bytes;
    long.push(0);
    assert!(
        matches!(from_bytes::<T>(&long), Err(SnapError::Corrupt(_))),
        "{:?} with a trailing byte",
        view(v)
    );
}

fn check_eq<T: SnapEncode + SnapDecode + PartialEq + Debug + Clone>(v: T) {
    check(&v, T::clone);
}

fn check_debug<T: SnapEncode + SnapDecode + Debug>(v: T) {
    check(&v, |v| format!("{v:?}"));
}

/// Every tag byte outside `table` is `Corrupt(what)`.
fn check_tags<T: SnapDecode>(table: &[u8], what: &str) {
    for tag in (0..=u8::MAX).filter(|t| !table.contains(t)) {
        match from_bytes::<T>(&[tag]) {
            Err(SnapError::Corrupt(found)) => assert_eq!(found, what, "tag {tag}"),
            other => panic!("tag {tag} of {what}: {:?}", other.err()),
        }
    }
}

fn graph(rows: usize, edges: &[(usize, usize)]) -> FeatureGraph {
    let features = (0..rows * 3).map(|i| i as f32 * 0.25 - 1.0).collect();
    let mut g = FeatureGraph::new(Matrix::from_vec(rows, 3, features).unwrap());
    for &(a, b) in edges {
        g.add_edge(a, b);
    }
    g
}

type GraphView = (Matrix, Vec<Vec<usize>>);

fn graph_view(g: &FeatureGraph) -> GraphView {
    let adj = (0..g.len()).map(|v| g.neighbors(v).to_vec()).collect();
    (g.features.clone(), adj)
}

fn resources() -> Resources {
    Resources::new(4_000, 8_192, 1_000, 100_000)
}

fn candidate(i: u32) -> CandidateNode {
    CandidateNode {
        node: NodeId(7 + i),
        cluster: ClusterId(2),
        total: Resources::cpu_mem(4000, 8192),
        available_lc: Resources::cpu_mem(1500, 3000),
        available_be: Resources::cpu_mem(700, 1200),
        min_request: Resources::cpu_mem(250, 256),
        delay: SimTime::from_millis(3),
        link_capacity: 12,
        slack: 0.85,
        alive: i % 2 == 1,
    }
}

fn mirror_node(i: u32) -> MirrorNode {
    MirrorNode {
        node: NodeId(i),
        cluster: ClusterId(i / 4),
        is_master: i == 0,
        total: resources(),
        available: Resources::cpu_mem(1_000, 2_048),
        be_held: Resources::cpu_mem(300, 512),
        reserved: Resources::ZERO,
        slack: vec![(ServiceId(0), 0.25), (ServiceId(3), -0.5)],
        pending: vec![(ServiceId(1), i)],
        updated_at: SimTime::from_millis(700),
        alive: i != 2,
        last_heartbeat: SimTime::from_millis(600),
    }
}

#[test]
fn ids_and_time() {
    check_eq(ClusterId(3));
    check_eq(NodeId(u32::MAX));
    check_eq(ContainerId(999));
    check_eq(RequestId(u64::MAX - 1));
    check_eq(ServiceId(65_000));
    check_eq(SimTime::from_micros(123_456_789));
    check_eq(resources());
}

#[test]
fn requests_in_every_state() {
    check_eq(ServiceClass::Lc);
    check_eq(ServiceClass::Be);
    check_tags::<ServiceClass>(&[0, 1], "service class tag");
    for outcome in [
        RequestOutcome::Completed,
        RequestOutcome::Abandoned,
        RequestOutcome::Failed,
    ] {
        check_eq(outcome);
    }
    check_tags::<RequestOutcome>(&[0, 1, 2], "request outcome tag");
    check_tags::<tango_repro::types::RequestState>(&[0, 1, 2, 4], "request state tag");

    let base = Request::new(
        RequestId(7),
        ServiceId(3),
        ServiceClass::Be,
        ClusterId(1),
        SimTime::from_millis(55),
        Resources::cpu_mem(500, 256),
    );
    check_eq(base.clone());
    let mut r = base;
    r.mark_dispatched(NodeId(9));
    check_eq(r.clone());
    r.mark_running(NodeId(9), SimTime::from_millis(60));
    check_eq(r.clone());
    r.mark_requeued();
    check_eq(r.clone());
    r.mark_migrating(NodeId(9), NodeId(11), SimTime::from_millis(80));
    check_eq(r);

    // a pending burst copy in the trace cursor's checkpoint
    check_eq(TraceEvent {
        at: SimTime::from_millis(120),
        service: ServiceId(7),
        class: ServiceClass::Be,
        origin: ClusterId(2),
        demand: resources(),
    });
}

#[test]
fn telemetry_and_fault_records() {
    let mut window = LatencyWindow::new(SimTime::from_secs(1));
    window.record(SimTime::from_millis(10), SimTime::from_millis(40));
    window.record(SimTime::from_millis(20), SimTime::from_millis(90));
    check_debug(window);
    check_eq(NodeRole::Master);
    check_eq(NodeRole::Worker);
    check_tags::<NodeRole>(&[0, 1], "node role tag");

    let events = vec![
        FaultEvent::NodeCrash { node: NodeId(3) },
        FaultEvent::NodeRecover { node: NodeId(3) },
        FaultEvent::LinkDegrade {
            a: ClusterId(0),
            b: ClusterId(1),
            latency_factor: 3.5,
            bandwidth_factor: 2.0,
        },
        FaultEvent::LinkRestore {
            a: ClusterId(0),
            b: ClusterId(1),
        },
        FaultEvent::Partition {
            side: vec![ClusterId(1), ClusterId(2)],
        },
        FaultEvent::Heal,
    ];
    for e in &events {
        check_eq(e.clone());
    }
    check_eq(events);
    check_tags::<FaultEvent>(&[0, 1, 2, 3, 4, 5], "fault event tag");
    check_eq(FaultSummary {
        node_crashes: 3,
        lc_interrupted: 11,
        total_downtime: SimTime::from_millis(1_250),
        fault_qos_violations: 2,
        ..FaultSummary::default()
    });

    check_debug(RunningRequest {
        request: RequestId(41),
        demand: resources(),
        remaining_work: 1_234.5,
        admitted_at: SimTime::from_millis(3),
    });
    check_debug(CompletedRequest {
        request: RequestId(42),
        service: ServiceId(2),
        class: ServiceClass::Lc,
        admitted_at: SimTime::from_millis(4),
    });
}

#[test]
fn simulation_events() {
    let events = [
        Event::Arrival {
            service: ServiceId(1),
            origin: ClusterId(2),
            demand: resources(),
        },
        Event::Dispatch(ClusterId(1)),
        Event::CentralArrive(RequestId(5)),
        Event::BeDispatch,
        Event::Deliver(RequestId(6), NodeId(7), 2),
        Event::NodeCheck(NodeId(8), 31),
        Event::Reassure,
        Event::Sync,
        Event::Fault(FaultEvent::Heal),
        Event::MigrateArrive(RequestId(9), NodeId(10), 1),
    ];
    for e in events {
        check_debug(e);
    }
    check_tags::<Event>(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "event tag");
}

#[test]
fn learner_records() {
    check_eq(EpisodeRecord {
        episode: 2,
        digest: 0xdead_beef,
        qos: 0.93,
        be_throughput: 17,
        utilization: 0.41,
    });
    let stored = Stored {
        graph: graph(3, &[(0, 1), (1, 2)]),
        mask: vec![true, false, true],
        action: 2,
        reward: -0.75,
        next_graph: graph(2, &[(0, 1)]),
        next_mask: vec![false, true],
        done: true,
    };
    check(&stored, |s| {
        let scalars = (s.action, s.reward.to_bits(), s.done);
        let masks = (s.mask.clone(), s.next_mask.clone());
        (
            graph_view(&s.graph),
            graph_view(&s.next_graph),
            masks,
            scalars,
        )
    });
    let td3 = Td3Stored {
        graph: graph(2, &[]),
        mask: vec![true, true],
        node: 1,
        action: [0.25, 0.75],
        reward: 1.5,
        next_graph: graph(3, &[(2, 0)]),
        next_mask: vec![true, false, false],
        done: false,
    };
    check(&td3, |s| {
        let scalars = (
            s.node,
            s.action.map(f32::to_bits),
            s.reward.to_bits(),
            s.done,
        );
        let masks = (s.mask.clone(), s.next_mask.clone());
        (
            graph_view(&s.graph),
            graph_view(&s.next_graph),
            masks,
            scalars,
        )
    });
}

#[test]
fn control_plane_frames_bodies() {
    check_eq(candidate(0));
    check_eq(candidate(1));
    check_eq(mirror_node(2));
    check_eq(MirrorSnapshot {
        version: 4,
        at: SimTime::from_millis(700),
        structure_clock: 3,
        value_clock: 19,
        nodes: (0..3).map(mirror_node).collect(),
    });
    let batch = RequestBatch {
        service: ServiceId(3),
        requests: vec![RequestId(100), RequestId(102)],
        candidates: vec![candidate(0), candidate(1)],
    };
    check_eq(batch.clone());
    check_eq(DecisionRequest {
        round: 41,
        cluster: ClusterId(1),
        deadline: SimTime::from_millis(10),
        batches: vec![batch],
    });
    check_eq(DecisionReply {
        round: 41,
        compute_latency: SimTime::from_micros(2_500),
        placements: vec![vec![(RequestId(100), NodeId(8))], vec![]],
    });
}
