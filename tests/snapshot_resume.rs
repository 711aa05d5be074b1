//! Snapshot/resume equivalence tests for the `tango-snap` checkpoint
//! subsystem.
//!
//! The contract under test: checkpoint a run mid-flight, restore the
//! snapshot onto a fresh system built from the same config, run to the
//! end — and the final `RunReport` digest is bit-identical to the
//! uninterrupted run. The uninterrupted goldens are the same constants
//! `refactor_equivalence.rs` pins, so a resumed run is simultaneously
//! checked against the pre-refactor monolith. Corruption of any kind
//! (truncation, bit flips, version bumps, wrong config) must surface as
//! a typed `SnapError`, never a panic or a silently wrong resume.

use std::collections::VecDeque;
use tango::{
    BePolicy, CheckpointPolicy, CloudConfig, DefragConfig, EdgeCloudSystem, Event, FaultEvent,
    FaultPlan, LcPolicy, NodeRef, SnapError, TangoConfig,
};
use tango_simcore::KEYED_SEQS;
use tango_snap::{SnapDecode, SnapEncode, SnapFile, SnapReader, SnapWriter};
use tango_types::{
    ClusterId, NodeId, Request, RequestId, RequestState, Resources, ServiceClass, ServiceId,
    SimTime,
};
use tango_workload::{ServiceCatalog, TraceEvent};

/// Uninterrupted-run digests, shared with `refactor_equivalence.rs`.
const CALM_DIGEST: u64 = 0x6338323c1d6cf929;
const CHURN_DIGEST: u64 = 0xee21677c6a08d16d;

const DURATION: SimTime = SimTime::from_secs(5);

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

/// Checkpoint every 8 ticks (800 ms at the paper's 100 ms sync interval),
/// run to the end, restore the mid-run checkpoint and finish from there.
fn resume_digest(cfg: TangoConfig) -> (u64, u64) {
    let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
        .expect("checkpointing a snapshottable config succeeds");
    assert!(
        checkpoints.len() >= 3,
        "expected several checkpoints over 5 s, got {}",
        checkpoints.len()
    );
    // a checkpoint from the middle of the run, with real in-flight state
    let mid = &checkpoints[checkpoints.len() / 2];
    assert!(mid.at > SimTime::ZERO && mid.at < DURATION);
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore succeeds");
    assert_eq!(resumed.now(), mid.at);
    (report.digest(), resumed.finish("golden").digest())
}

#[test]
fn calm_resume_matches_uninterrupted_golden() {
    let (checkpointed, resumed) = resume_digest(calm_cfg());
    assert_eq!(
        checkpointed, CALM_DIGEST,
        "segmented (checkpointed) run drifted from the uninterrupted golden"
    );
    assert_eq!(
        resumed, CALM_DIGEST,
        "restored run drifted from the uninterrupted golden"
    );
}

#[test]
fn churn_resume_matches_uninterrupted_golden() {
    let (checkpointed, resumed) = resume_digest(churn_cfg());
    assert_eq!(
        checkpointed, CHURN_DIGEST,
        "segmented (checkpointed) run under fault churn drifted from the golden"
    );
    assert_eq!(
        resumed, CHURN_DIGEST,
        "restored run under fault churn drifted from the golden"
    );
}

#[test]
fn resume_is_thread_count_invariant() {
    // snapshot at 4 workers, restore at 1 (and vice versa): the config
    // fingerprint masks `parallelism`, and the digest must not move.
    let scenarios: [(fn() -> TangoConfig, u64); 2] =
        [(calm_cfg, CALM_DIGEST), (churn_cfg, CHURN_DIGEST)];
    for (cfg_fn, golden) in scenarios {
        let mut snap_cfg = cfg_fn();
        snap_cfg.parallelism = Some(4);
        let (_, checkpoints) = EdgeCloudSystem::new(snap_cfg)
            .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
            .unwrap();
        let mid = &checkpoints[checkpoints.len() / 2];
        let mut restore_cfg = cfg_fn();
        restore_cfg.parallelism = Some(1);
        let resumed = EdgeCloudSystem::restore(restore_cfg, &mid.bytes).unwrap();
        assert_eq!(resumed.finish("golden").digest(), golden);
    }
}

#[test]
fn restored_state_resnapshots_to_identical_bytes() {
    // every map is encoded in sorted order and every scratch structure is
    // excluded, so snapshot(restore(snapshot(x))) is byte-stable
    let cfg = calm_cfg();
    let (_, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(DURATION, "golden", CheckpointPolicy::default())
        .unwrap();
    let mid = &checkpoints[checkpoints.len() / 2];
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).unwrap();
    let again = resumed.snapshot().unwrap();
    assert_eq!(again, mid.bytes, "re-snapshot of restored state drifted");
}

#[test]
fn keep_last_k_bounds_retention() {
    let policy = CheckpointPolicy {
        every_n_ticks: 4,
        keep_last_k: 2,
    };
    let (_, checkpoints) = EdgeCloudSystem::new(calm_cfg())
        .run_checkpointed(DURATION, "golden", policy)
        .unwrap();
    assert_eq!(checkpoints.len(), 2);
    assert!(checkpoints[0].at < checkpoints[1].at, "oldest first");
}

fn sample_snapshot() -> (TangoConfig, Vec<u8>) {
    let cfg = calm_cfg();
    let (_, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(SimTime::from_secs(2), "golden", CheckpointPolicy::default())
        .unwrap();
    (cfg, checkpoints[0].bytes.clone())
}

#[test]
fn truncated_snapshot_is_rejected_not_panicking() {
    let (cfg, bytes) = sample_snapshot();
    for cut in [0, 1, 8, 9, 17, 30, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            EdgeCloudSystem::restore(cfg.clone(), &bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored successfully"
        );
    }
}

#[test]
fn flipped_bit_fails_the_checksum() {
    let (cfg, mut bytes) = sample_snapshot();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(matches!(
        EdgeCloudSystem::restore(cfg, &bytes),
        Err(SnapError::BadChecksum { .. })
    ));
}

#[test]
fn version_bump_is_rejected_before_decoding() {
    let (cfg, mut bytes) = sample_snapshot();
    bytes[8] = 0xFF; // the format-version word follows the 8-byte magic
    assert!(matches!(
        EdgeCloudSystem::restore(cfg, &bytes),
        Err(SnapError::VersionMismatch { .. })
    ));
}

#[test]
fn wrong_config_is_rejected_by_fingerprint() {
    let (_, bytes) = sample_snapshot();
    assert!(matches!(
        EdgeCloudSystem::restore(churn_cfg(), &bytes),
        Err(SnapError::ConfigMismatch { .. })
    ));
}

#[test]
fn garbage_bytes_are_rejected() {
    assert!(matches!(
        EdgeCloudSystem::restore(calm_cfg(), b"not a snapshot at all"),
        Err(SnapError::BadMagic)
    ));
}

/// Replace section `tag`'s payload of a sealed snapshot with
/// `edit(payload)` and re-seal the checksum, so the edited file gets past
/// every framing check and reaches the section decoders.
fn with_section(sealed: &[u8], tag: u32, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    // magic (8) + format version (2) + fingerprint (8) + section count (4)
    let mut bytes = sealed[..22].to_vec();
    let mut pos = 22;
    let mut edit = Some(edit);
    while pos < sealed.len() - 8 {
        let t = u32::from_le_bytes(sealed[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(sealed[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let payload = &sealed[pos + 12..pos + 12 + len];
        let payload = match edit.take() {
            Some(edit) if t == tag => edit(payload),
            other => {
                edit = other;
                payload.to_vec()
            }
        };
        bytes.extend_from_slice(&t.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        pos += 12 + len;
    }
    let checksum = tango_snap::checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Overwrite the `u32` node id at `offset` into section `tag`'s payload.
fn with_node_id(sealed: &[u8], tag: u32, offset: usize, id: u32) -> Vec<u8> {
    with_section(sealed, tag, |payload| {
        let mut payload = payload.to_vec();
        payload[offset..offset + 4].copy_from_slice(&id.to_le_bytes());
        payload
    })
}

fn fixture() -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/calm_mid.snap");
    std::fs::read(path).expect("committed calm_mid.snap fixture")
}

#[test]
fn hostile_node_ids_are_rejected_without_over_allocating() {
    let bytes = fixture();
    // (section, offset of its first node id, what the decoder reports):
    // the detector's first window follows its width and count, the
    // store's first row follows its count
    let cases = [
        (7, 16, "detector window node id"),
        (12, 8, "store row node id"),
    ];
    for (tag, offset, what) in cases {
        // re-sealing the id already there leaves a valid snapshot, so the
        // offset really points at a node id
        let original = {
            let file = tango_snap::SnapFile::parse(&bytes).unwrap();
            let mut r = file.section(tag, "section").unwrap();
            r.u64().unwrap();
            if tag == 7 {
                assert!(r.u64().unwrap() > 0, "fixture has detector windows");
            }
            r.u32().unwrap()
        };
        assert_eq!(with_node_id(&bytes, tag, offset, original), bytes);
        let crafted = with_node_id(&bytes, tag, offset, 4_000_000_000);
        match EdgeCloudSystem::restore(calm_cfg(), &crafted) {
            Err(SnapError::Corrupt(found)) => assert_eq!(found, what),
            Err(e) => panic!("section {tag}: expected Corrupt({what}), got {e:?}"),
            Ok(_) => panic!("section {tag}: hostile node id restored"),
        }
    }
}

#[test]
fn rl_policies_round_trip_through_checkpoints() {
    // Learned policies (network weights, optimizer moments, RNG streams,
    // replay rings) ride in the scheduler blob: a resumed RL run must
    // land on the same digest as the uninterrupted one.
    for be in [BePolicy::GnnSac, BePolicy::Td3] {
        let mut cfg = calm_cfg();
        cfg.be_policy = be;
        cfg.workload.be_rps = 8.0; // enough BE traffic to train mid-run
        let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
            .run_checkpointed(DURATION, "rl", CheckpointPolicy::default())
            .expect("RL policies are snapshottable");
        let mid = &checkpoints[checkpoints.len() / 2];
        assert!(mid.at > SimTime::ZERO && mid.at < DURATION);
        let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore succeeds");
        assert_eq!(
            resumed.finish("rl").digest(),
            report.digest(),
            "resumed {} run drifted from the uninterrupted one",
            be.name()
        );
    }
}

// Section tags of the system snapshot (crates/core/src/snapshot.rs).
const SEC_LIFECYCLE: u32 = 2;
const SEC_CLUSTERS: u32 = 3;
const SEC_ENGINE: u32 = 13;

/// The lifecycle section, split into the parts the hostile-input tests
/// edit; `rest` is the BE eviction count and the trace cursor, verbatim.
struct Lifecycle {
    requests: Vec<Request>,
    next_request_id: u64,
    retired: [u64; 3],
    reserved: Vec<(NodeId, Resources)>,
    node_wait: Vec<VecDeque<RequestId>>,
    rest: Vec<u8>,
}

impl Lifecycle {
    fn decode(payload: &[u8]) -> Self {
        let mut r = SnapReader::new(payload);
        let mut lc = Lifecycle {
            requests: SnapDecode::decode(&mut r).unwrap(),
            next_request_id: r.u64().unwrap(),
            retired: SnapDecode::decode(&mut r).unwrap(),
            reserved: SnapDecode::decode(&mut r).unwrap(),
            node_wait: SnapDecode::decode(&mut r).unwrap(),
            rest: Vec::new(),
        };
        lc.rest = payload[payload.len() - r.remaining()..].to_vec();
        lc
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.requests.encode(&mut w);
        w.put_u64(self.next_request_id);
        self.retired.encode(&mut w);
        self.reserved.encode(&mut w);
        self.node_wait.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&self.rest);
        bytes
    }
}

fn lifecycle_of(sealed: &[u8]) -> Lifecycle {
    let file = SnapFile::parse(sealed).unwrap();
    let mut r = file.section(SEC_LIFECYCLE, "lifecycle").unwrap();
    let payload: Vec<u8> = (0..r.remaining()).map(|_| r.u8().unwrap()).collect();
    Lifecycle::decode(&payload)
}

/// The fixture with its lifecycle section edited.
fn with_lifecycle(edit: impl FnOnce(&mut Lifecycle)) -> Vec<u8> {
    with_section(&fixture(), SEC_LIFECYCLE, |payload| {
        let mut lc = Lifecycle::decode(payload);
        edit(&mut lc);
        lc.encode()
    })
}

/// The engine section's pending events as `(at, seq, event)`.
fn engine_entries(sealed: &[u8]) -> Vec<(SimTime, u64, Event)> {
    let file = SnapFile::parse(sealed).unwrap();
    let mut r = file.section(SEC_ENGINE, "engine").unwrap();
    SimTime::decode(&mut r).unwrap();
    r.u64().unwrap();
    r.u64().unwrap();
    SnapDecode::decode(&mut r).unwrap()
}

fn assert_corrupt(bytes: &[u8], what: &str) {
    match EdgeCloudSystem::restore(calm_cfg(), bytes) {
        Err(SnapError::Corrupt(found)) => assert_eq!(found, what),
        Err(e) => panic!("expected Corrupt({what}), got {e:?}"),
        Ok(_) => panic!("expected Corrupt({what}), the snapshot restored"),
    }
}

/// An id below the next id that names no live request: a retired one.
fn retired_id(lc: &Lifecycle) -> RequestId {
    (0..lc.next_request_id)
        .map(RequestId)
        .find(|id| lc.requests.iter().all(|q| q.id != *id))
        .expect("the fixture has retired requests")
}

#[test]
fn the_edit_helpers_reproduce_the_fixture() {
    assert_eq!(with_lifecycle(|_| {}), fixture());
    let lc = lifecycle_of(&fixture());
    let live = lc.requests.len() as u64;
    assert_eq!(live + lc.retired.iter().sum::<u64>(), lc.next_request_id);
    assert!(lc.retired[0] > 0, "the fixture has completed requests");
}

#[test]
fn restore_rejects_a_duplicate_request_id() {
    let crafted = with_lifecycle(|lc| {
        let dup = lc.requests[0].clone();
        lc.requests.push(dup);
    });
    assert_corrupt(&crafted, "duplicate request id");
}

#[test]
fn restore_rejects_a_request_id_at_or_past_the_next_id() {
    for past in [0, 1, u64::MAX - 1] {
        let crafted = with_lifecycle(|lc| {
            let last = lc.requests.len() - 1;
            lc.requests[last].id = RequestId(lc.next_request_id.saturating_add(past));
        });
        assert_corrupt(&crafted, "request id past the next id");
    }
}

#[test]
fn restore_rejects_a_ledger_that_does_not_add_up() {
    // a running request sits in no queue, so dropping it leaves only the
    // ledger short by one
    let crafted = with_lifecycle(|lc| {
        let running = lc
            .requests
            .iter()
            .position(|q| matches!(q.state, RequestState::Running { .. }))
            .expect("the fixture has running requests");
        lc.requests.remove(running);
    });
    assert_corrupt(&crafted, "request ledger");
    // retired counts that overflow the ledger sum
    assert_corrupt(
        &with_lifecycle(|lc| lc.retired = [u64::MAX; 3]),
        "request ledger",
    );
}

#[test]
fn restore_rejects_queued_ids_that_name_no_live_request() {
    let gone = retired_id(&lifecycle_of(&fixture()));
    let crafted = with_section(&fixture(), SEC_CLUSTERS, |payload| {
        let mut queues: Vec<(VecDeque<RequestId>, VecDeque<RequestId>)> =
            SnapDecode::decode(&mut SnapReader::new(payload)).unwrap();
        queues[0].0.push_back(gone);
        tango_snap::to_bytes(&queues)
    });
    assert_corrupt(&crafted, "dangling request id");
    let crafted = with_lifecycle(|lc| lc.node_wait[1].push_back(gone));
    assert_corrupt(&crafted, "dangling request id");
}

/// The fixture with `bursts` (latest first, as the cursor keeps them)
/// in place of its trace cursor's pending bursts.
fn with_bursts(bursts: &[SimTime]) -> Vec<u8> {
    let catalog = ServiceCatalog::standard();
    with_lifecycle(|lc| {
        let mut r = SnapReader::new(&lc.rest);
        let be_evictions = r.u64().unwrap();
        assert_eq!(r.u8().unwrap(), 1, "the fixture has a trace cursor");
        let rng = <[u64; 4]>::decode(&mut r).unwrap();
        let clocks = <(SimTime, SimTime)>::decode(&mut r).unwrap();
        Vec::<TraceEvent>::decode(&mut r).unwrap();
        let pending: Vec<TraceEvent> = bursts
            .iter()
            .map(|&at| TraceEvent {
                at,
                service: catalog.be_ids()[0],
                class: ServiceClass::Be,
                origin: ClusterId(0),
                demand: Resources::cpu_mem(100, 64),
            })
            .collect();
        let mut w = SnapWriter::new();
        w.put_u64(be_evictions);
        w.put_u8(1);
        (rng, clocks, pending).encode(&mut w);
        lc.rest = w.into_bytes();
    })
}

#[test]
fn restore_rejects_pending_bursts_unsorted_or_outside_the_run() {
    let clock = EdgeCloudSystem::restore(calm_cfg(), &fixture())
        .unwrap()
        .now();
    let at = |ms| clock + SimTime::from_millis(ms);
    // in order and inside [clock, horizon]: restores
    let ok = with_bursts(&[at(4), at(2), at(0)]);
    EdgeCloudSystem::restore(calm_cfg(), &ok).expect("valid bursts restore");
    assert_corrupt(&with_bursts(&[at(2), at(4)]), "trace burst");
    assert_corrupt(
        &with_bursts(&[clock - SimTime::from_micros(1)]),
        "trace burst",
    );
    assert_corrupt(
        &with_bursts(&[DURATION + SimTime::from_micros(1)]),
        "trace burst",
    );
}

/// The fixture with its queued arrival's `(seq, event)` edited.
fn with_arrival(edit: impl FnOnce(&mut u64, &mut Event)) -> Vec<u8> {
    with_section(&fixture(), SEC_ENGINE, |payload| {
        let mut r = SnapReader::new(payload);
        let head = <(SimTime, u64, u64)>::decode(&mut r).unwrap();
        let mut entries = Vec::<(SimTime, u64, Event)>::decode(&mut r).unwrap();
        let (_, seq, event) = entries
            .iter_mut()
            .find(|(_, _, e)| matches!(e, Event::Arrival { .. }))
            .expect("the fixture has its next arrival queued");
        edit(seq, event);
        tango_snap::to_bytes(&(head, entries))
    })
}

#[test]
fn restore_rejects_a_malformed_queued_arrival() {
    assert_corrupt(&with_arrival(|seq, _| *seq = KEYED_SEQS), "keyed event seq");
    let crafted = with_arrival(|_, e| {
        if let Event::Arrival { service, .. } = e {
            *service = ServiceId(999);
        }
    });
    assert_corrupt(&crafted, "arrival payload");
    let crafted = with_arrival(|_, e| {
        if let Event::Arrival { origin, .. } = e {
            *origin = ClusterId(2); // calm_cfg has clusters 0 and 1
        }
    });
    assert_corrupt(&crafted, "arrival payload");
}

/// The fixture with `event` queued at its clock, behind every event it
/// already holds.
fn with_queued(event: Event) -> Vec<u8> {
    with_section(&fixture(), SEC_ENGINE, |payload| {
        let mut r = SnapReader::new(payload);
        let (now, processed, next_seq) = <(SimTime, u64, u64)>::decode(&mut r).unwrap();
        let mut entries = Vec::<(SimTime, u64, Event)>::decode(&mut r).unwrap();
        entries.push((now, next_seq, event));
        tango_snap::to_bytes(&((now, processed, next_seq + 1), entries))
    })
}

#[test]
fn restore_rejects_queued_events_that_name_an_unknown_node_or_cluster() {
    let bytes = fixture();
    let live = lifecycle_of(&bytes).requests[0].id;
    // every event kind that carries a node or cluster id, naming `node`
    // or `cluster` there, with the error a bad id must give
    let events = |node: NodeId, cluster: ClusterId| {
        let (nodes, clusters) = ("queued event node", "queued event cluster");
        [
            (Event::Dispatch(cluster), clusters),
            (Event::Deliver(live, node, 0), nodes),
            (Event::NodeCheck(node, 0), nodes),
            (Event::MigrateArrive(live, node, 0), nodes),
            (Event::Fault(FaultEvent::NodeCrash { node }), nodes),
            (Event::Fault(FaultEvent::NodeRecover { node }), nodes),
            (
                Event::Fault(FaultEvent::LinkDegrade {
                    a: ClusterId(0),
                    b: cluster,
                    latency_factor: 2.0,
                    bandwidth_factor: 2.0,
                }),
                clusters,
            ),
            (
                Event::Fault(FaultEvent::LinkRestore {
                    a: cluster,
                    b: ClusterId(0),
                }),
                clusters,
            ),
            (
                Event::Fault(FaultEvent::Partition {
                    side: vec![ClusterId(0), cluster],
                }),
                clusters,
            ),
        ]
    };
    for (event, what) in events(NodeId(4_000_000_000), ClusterId(4_000_000_000)) {
        assert_corrupt(&with_queued(event), what);
    }
    // the last node and cluster of the rebuilt system are still accepted
    let sys = EdgeCloudSystem::new(calm_cfg());
    let last_node = NodeId(sys.node_count() as u32 - 1);
    let last_cluster = ClusterId(sys.cluster_count() as u32 - 1);
    for (event, _) in events(last_node, last_cluster) {
        let what = format!("{event:?}");
        EdgeCloudSystem::restore(calm_cfg(), &with_queued(event))
            .unwrap_or_else(|e| panic!("{what} at the table edge: {e:?}"));
    }
}

/// The migration suite's cloud config: the cloud tier with defrag.
fn cloud_cfg() -> TangoConfig {
    let mut cfg = calm_cfg();
    cfg.workload.be_rps = 24.0;
    cfg.cloud = Some(CloudConfig::default());
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 8,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    cfg
}

#[test]
fn checkpoints_hold_live_work_only() {
    // every tick of the churn golden and of the cloud tier with defrag
    let runs = [
        (churn_cfg(), DURATION, Some(CHURN_DIGEST)),
        (cloud_cfg(), SimTime::from_secs(3), None),
    ];
    let every_tick = CheckpointPolicy {
        every_n_ticks: 1,
        keep_last_k: 0,
    };
    for (cfg, horizon, golden) in runs {
        let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
            .run_checkpointed(horizon, "shape", every_tick)
            .unwrap();
        if let Some(golden) = golden {
            assert_eq!(report.digest(), golden);
        }
        assert!(checkpoints.len() >= 29, "{} checkpoints", checkpoints.len());
        for cp in &checkpoints {
            let arrivals = engine_entries(&cp.bytes)
                .iter()
                .filter(|(_, _, e)| matches!(e, Event::Arrival { .. }))
                .count();
            assert!(arrivals <= 1, "{arrivals} arrivals queued at {:?}", cp.at);
            let lc = lifecycle_of(&cp.bytes);
            let retired: u64 = lc.retired.iter().sum();
            assert_eq!(lc.requests.len() as u64 + retired, lc.next_request_id);
            let resumed = EdgeCloudSystem::restore(cfg.clone(), &cp.bytes).unwrap();
            assert_eq!(
                resumed.finish("shape").digest(),
                report.digest(),
                "{:?}",
                cp.at
            );
        }
    }
}
