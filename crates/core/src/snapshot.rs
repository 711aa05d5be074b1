//! Versioned whole-system checkpoints: snapshot, deterministic resume,
//! and the periodic checkpoint driver.
//!
//! A snapshot captures every piece of *state* the run holds — the live
//! requests and the retired counts, queues, reservations, node/cgroup
//! dynamics, detector windows, re-assurance factors, D-VPA counters, the
//! fault ledger, topology overlays, the state storage, scheduler policy
//! state, the trace cursor and the pending-event queue (which holds at
//! most one arrival) — and none of the *rebuildables*: the placed
//! topology, the service catalog, the trace spec and candidate-view
//! scratch are all reconstructed from the [`TangoConfig`] and the
//! horizon at restore time (see DESIGN.md §11 for the state-vs-cache
//! inventory). Restoring onto the same config therefore yields a run
//! whose remaining events, RNG draws and final [`RunReport`] digest are
//! bit-identical to the uninterrupted run.
//!
//! The file layout is the `tango-snap` container: magic, format version,
//! a config fingerprint (FNV-1a over the `Debug` rendering of the config
//! with the results-neutral `parallelism` field masked), tagged sections,
//! and a whole-file checksum. Truncation, bit flips, version bumps and
//! config mismatches all fail with a typed [`SnapError`] — never a panic,
//! never a silently wrong resume.

use crate::config::TangoConfig;
use crate::migration::InFlight;
use crate::report::RunReport;
use crate::runtime::Allocator;
use crate::system::{EdgeCloudSystem, Event};
use std::collections::VecDeque;
use tango_faults::FaultEvent;
use tango_metrics::ExperimentCounters;
use tango_simcore::{Engine, EventQueue, KEYED_SEQS};
use tango_snap::{
    fnv1a, snap_enum, snap_record, SnapDecode, SnapEncode, SnapError, SnapFile, SnapFileBuilder,
};
use tango_types::{ClusterId, NodeId, Request, RequestId, Resources, SimTime};
use tango_workload::{ServiceCatalog, TraceCursor};

snap_enum!(Event, "event tag" {
    0 => Arrival { service, origin, demand },
    1 => Dispatch(cluster),
    2 => CentralArrive(request),
    3 => BeDispatch,
    4 => Deliver(request, node, epoch),
    5 => NodeCheck(node, generation),
    6 => Reassure,
    7 => Sync,
    8 => Fault(fault),
    9 => MigrateArrive(request, node, epoch),
});

snap_record!(InFlight {
    service,
    demand,
    remaining_work,
    src,
    dst,
    payload_kib,
    done_at,
});

/// Fingerprint of everything in the config that shapes results. The
/// `parallelism` field, which no run reads, is masked out first, so a
/// snapshot taken under `Some(4)` restores under `Some(1)` (and vice
/// versa).
pub fn config_fingerprint(cfg: &TangoConfig) -> u64 {
    let mut masked = cfg.clone();
    masked.parallelism = None;
    fnv1a(format!("{masked:?}").as_bytes())
}

// Section tags. Stable identifiers inside one FORMAT_VERSION; renumbering
// or re-ordering requires a version bump.
const SEC_META: u32 = 1;
const SEC_LIFECYCLE: u32 = 2;
const SEC_CLUSTERS: u32 = 3;
const SEC_DISPATCH: u32 = 4;
const SEC_NODES: u32 = 5;
const SEC_COUNTERS: u32 = 6;
const SEC_DETECTOR: u32 = 7;
const SEC_REASSURER: u32 = 8;
const SEC_ALLOCATOR: u32 = 9;
const SEC_FAULT: u32 = 10;
const SEC_TOPOLOGY: u32 = 11;
const SEC_STORE: u32 = 12;
const SEC_ENGINE: u32 = 13;
const SEC_CTRL: u32 = 14;
const SEC_MIGRATION: u32 = 15;

/// When and how many checkpoints [`EdgeCloudSystem::run_checkpointed`]
/// takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every N sync ticks (`cfg.sync_interval` each); values
    /// below 1 behave as 1.
    pub every_n_ticks: u32,
    /// Keep only the most recent K checkpoints (0 = keep all).
    pub keep_last_k: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        // one checkpoint per reporting period at the paper's 100 ms sync
        // cadence, unbounded retention
        CheckpointPolicy {
            every_n_ticks: 8,
            keep_last_k: 0,
        }
    }
}

/// One checkpoint taken mid-run: the sealed snapshot bytes and the sim
/// time they describe.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Sim time of the sync-tick boundary the snapshot was taken at.
    pub at: SimTime,
    /// Sealed snapshot file bytes (parseable by
    /// [`EdgeCloudSystem::restore`]).
    pub bytes: Vec<u8>,
}

/// Encode the full system + engine state into a sealed snapshot file.
/// Fails with [`SnapError::Unsupported`] when a configured scheduler
/// cannot serialize its state: an attached `ProxyBackend`, whose decision
/// source lives outside the run. The learned policies checkpoint their
/// weights, optimizer moments, RNG streams and buffers in their blobs.
pub(crate) fn encode(sys: &EdgeCloudSystem, engine: &Engine<Event>) -> Result<Vec<u8>, SnapError> {
    let mut b = SnapFileBuilder::new(config_fingerprint(&sys.cfg));

    b.section(SEC_META, |w| {
        sys.horizon.encode(w);
    });

    b.section(SEC_LIFECYCLE, |w| {
        let mut requests: Vec<&Request> = sys.lifecycle.requests.values().collect();
        requests.sort_unstable_by_key(|q| q.id);
        requests.encode(w);
        w.put_u64(sys.lifecycle.next_request_id);
        sys.lifecycle.retired.encode(w);
        // nonzero entries in node-id order
        let reserved: Vec<(NodeId, Resources)> = sys.lifecycle.reserved.iter_nonzero().collect();
        reserved.encode(w);
        sys.lifecycle.node_wait.encode(w);
        w.put_u64(sys.lifecycle.be_evictions);
        match &sys.lifecycle.arrivals {
            None => w.put_u8(0),
            Some(cursor) => {
                w.put_u8(1);
                cursor.snapshot(w);
            }
        }
    });

    b.section(SEC_CLUSTERS, |w| {
        let queues: Vec<_> = sys.clusters.iter().map(|c| (&c.lc_q, &c.be_q)).collect();
        queues.encode(w);
    });

    // scheduler policy blobs: collected up front so a non-snapshottable
    // policy fails the whole encode instead of sealing a partial file
    let lc_blobs: Vec<Vec<u8>> = sys
        .dispatch
        .lc
        .iter()
        .map(|b| b.snapshot_state().map_err(SnapError::Unsupported))
        .collect::<Result<_, _>>()?;
    let be_blob = sys
        .dispatch
        .be
        .snapshot_state()
        .map_err(SnapError::Unsupported)?;
    b.section(SEC_DISPATCH, |w| {
        sys.dispatch.central_q.encode(w);
        sys.dispatch.be_pending_feedback.encode(w);
        w.put_f64(sys.dispatch.be_completed_frac);
        lc_blobs.encode(w);
        be_blob.encode(w);
    });

    b.section(SEC_NODES, |w| {
        w.put_u64(sys.nodes.len() as u64);
        for n in &sys.nodes {
            n.snapshot_dynamic(w);
        }
    });

    b.section(SEC_COUNTERS, |w| sys.counters.encode(w));
    b.section(SEC_DETECTOR, |w| sys.detector.encode(w));

    b.section(SEC_REASSURER, |w| match &sys.reassurer {
        None => w.put_u8(0),
        Some(re) => {
            w.put_u8(1);
            re.snapshot(w);
        }
    });

    b.section(SEC_ALLOCATOR, |w| match &sys.allocator {
        Allocator::Static(_) => w.put_u8(0),
        Allocator::Hrm(h) => {
            w.put_u8(1);
            w.put_u64(h.dvpa.ops);
            w.put_u64(h.dvpa.total_writes);
        }
    });

    b.section(SEC_FAULT, |w| sys.fault.snapshot(w));
    b.section(SEC_TOPOLOGY, |w| sys.topology.snapshot_dynamic(w));
    b.section(SEC_STORE, |w| sys.store.snapshot(w));

    b.section(SEC_ENGINE, |w| {
        engine.now().encode(w);
        w.put_u64(engine.processed());
        w.put_u64(engine.queue().next_seq());
        let mut entries: Vec<(SimTime, u64, &Event)> = engine.queue().entries().collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        entries.encode(w);
    });

    // Control plane: keep-alive suspicion levels. Mirror/proxy
    // attachments are run-local wiring and are not part of the state
    // (a proxy additionally fails the encode above via its scheduler blob).
    b.section(SEC_CTRL, |w| match &sys.ctrl.detector {
        None => w.put_u8(0),
        Some(det) => {
            w.put_u8(1);
            det.snapshot(w);
        }
    });

    // Migration stage: defrag cadence position, egress spent, and the
    // in-flight transfers (sorted by request id — the canonical order).
    // Cloud wiring and the planner are rebuilt from the config.
    b.section(SEC_MIGRATION, |w| {
        w.put_u32(sys.migration.ticks);
        w.put_u64(sys.migration.egress_kib);
        let mut in_flight: Vec<(&RequestId, &InFlight)> = sys.migration.in_flight.iter().collect();
        in_flight.sort_unstable_by_key(|&(id, _)| *id);
        in_flight.encode(w);
    });

    Ok(b.seal())
}

/// A system restored mid-run: the rebuilt [`EdgeCloudSystem`] plus the
/// engine holding its remaining events. Drive it with
/// [`run_to`](Resumed::run_to) / [`finish`](Resumed::finish), or take
/// further snapshots.
pub struct Resumed {
    pub(crate) sys: EdgeCloudSystem,
    pub(crate) engine: Engine<Event>,
}

impl Resumed {
    /// Sim time the restored run stands at.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The run horizon the snapshot was taken under.
    pub fn horizon(&self) -> SimTime {
        self.sys.horizon
    }

    /// Advance the run to `t` (clamped to the horizon).
    pub fn run_to(&mut self, t: SimTime) {
        let horizon = self.sys.horizon;
        self.engine.run_until(&mut self.sys, t.min(horizon));
    }

    /// Snapshot the restored run's current state.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        encode(&self.sys, &self.engine)
    }

    /// Run the remaining events to the horizon and produce the report —
    /// the same report the uninterrupted run would have produced.
    pub fn finish(mut self, label: &str) -> RunReport {
        let horizon = self.sys.horizon;
        self.engine.run_until(&mut self.sys, horizon);
        self.sys.finish(label)
    }
}

/// Check one queued event against the rebuilt system: an arrival must
/// sit in the keyed sequence range and name a known service and edge
/// origin, and every node or cluster id an event carries must index the
/// system's tables, or the event would index past them when it fires.
fn check_queued(sys: &EdgeCloudSystem, seq: u64, event: &Event) -> Result<(), SnapError> {
    let node = |n: &NodeId| {
        (n.index() < sys.nodes.len())
            .then_some(())
            .ok_or(SnapError::Corrupt("queued event node"))
    };
    let cluster = |c: &ClusterId| {
        (c.index() < sys.clusters.len())
            .then_some(())
            .ok_or(SnapError::Corrupt("queued event cluster"))
    };
    match event {
        Event::Arrival {
            service, origin, ..
        } => {
            if seq >= KEYED_SEQS {
                return Err(SnapError::Corrupt("keyed event seq"));
            }
            if service.index() >= sys.catalog.len() || origin.index() >= sys.cfg.clusters {
                return Err(SnapError::Corrupt("arrival payload"));
            }
            Ok(())
        }
        Event::Dispatch(c) => cluster(c),
        Event::Deliver(_, n, _) | Event::NodeCheck(n, _) | Event::MigrateArrive(_, n, _) => node(n),
        Event::Fault(FaultEvent::NodeCrash { node: n } | FaultEvent::NodeRecover { node: n }) => {
            node(n)
        }
        Event::Fault(FaultEvent::LinkDegrade { a, b, .. } | FaultEvent::LinkRestore { a, b }) => {
            cluster(a).and(cluster(b))
        }
        Event::Fault(FaultEvent::Partition { side }) => side.iter().try_for_each(cluster),
        Event::Fault(FaultEvent::Heal)
        | Event::CentralArrive(_)
        | Event::BeDispatch
        | Event::Reassure
        | Event::Sync => Ok(()),
    }
}

impl EdgeCloudSystem {
    /// Encode the system and its engine into a sealed snapshot.
    pub fn snapshot(&self, engine: &Engine<Event>) -> Result<Vec<u8>, SnapError> {
        encode(self, engine)
    }

    /// Restore a run from snapshot bytes. `cfg` must be the configuration
    /// the snapshot was taken under (checked via fingerprint; the
    /// `parallelism` field is ignored). The substrate — topology placement,
    /// node layout, deployed services, policy objects — is rebuilt from
    /// the config, then every dynamic section is overlaid. A request
    /// ledger that does not add up, an id queued anywhere that names no
    /// live request, a trace cursor out of order, a queued arrival
    /// outside the keyed sequence range or naming an unknown service or
    /// origin, and any queued event naming a node or cluster outside the
    /// rebuilt system are all [`SnapError::Corrupt`].
    pub fn restore(cfg: TangoConfig, bytes: &[u8]) -> Result<Resumed, SnapError> {
        let file = SnapFile::parse(bytes)?;
        let expected = config_fingerprint(&cfg);
        if file.fingerprint != expected {
            return Err(SnapError::ConfigMismatch {
                found: file.fingerprint,
                expected,
            });
        }
        let mut sys = EdgeCloudSystem::with_catalog(cfg, ServiceCatalog::standard());

        let mut r = file.section(SEC_META, "meta section")?;
        sys.horizon = SimTime::decode(&mut r)?;

        // The engine first: the trace cursor is checked against its clock.
        let mut r = file.section(SEC_ENGINE, "engine section")?;
        let now = SimTime::decode(&mut r)?;
        let processed = r.u64()?;
        let next_seq = r.u64()?;
        let entries = Vec::<(SimTime, u64, Event)>::decode(&mut r)?;
        if next_seq < KEYED_SEQS {
            return Err(SnapError::Corrupt("keyed event seq"));
        }
        for (_, seq, event) in &entries {
            check_queued(&sys, *seq, event)?;
        }
        let engine =
            Engine::from_parts(now, processed, EventQueue::from_entries(entries, next_seq));

        let mut r = file.section(SEC_LIFECYCLE, "lifecycle section")?;
        let requests = Vec::<Request>::decode(&mut r)?;
        let next_request_id = r.u64()?;
        let retired = <[u64; 3]>::decode(&mut r)?;
        sys.lifecycle
            .load_ledger(requests, next_request_id, retired)?;
        let reservations = Vec::<(NodeId, Resources)>::decode(&mut r)?;
        sys.lifecycle.reserved.load(&reservations)?;
        let node_wait = Vec::<VecDeque<RequestId>>::decode(&mut r)?;
        if node_wait.len() != sys.nodes.len() {
            return Err(SnapError::Corrupt("node wait-queue count"));
        }
        sys.lifecycle.node_wait = node_wait;
        sys.lifecycle.be_evictions = r.u64()?;
        sys.lifecycle.arrivals = match r.u8()? {
            0 => None,
            1 => {
                let spec = crate::lifecycle::trace_spec(&sys.cfg, sys.horizon);
                let mut cursor = TraceCursor::new(&sys.catalog, spec);
                cursor.restore(&mut r, now)?;
                Some(cursor)
            }
            _ => return Err(SnapError::Corrupt("trace cursor presence")),
        };

        let mut r = file.section(SEC_CLUSTERS, "clusters section")?;
        let queues = Vec::<(VecDeque<RequestId>, VecDeque<RequestId>)>::decode(&mut r)?;
        if queues.len() != sys.clusters.len() {
            return Err(SnapError::Corrupt("cluster count"));
        }
        for (c, (lc_q, be_q)) in sys.clusters.iter_mut().zip(queues) {
            c.lc_q = lc_q;
            c.be_q = be_q;
        }

        let mut r = file.section(SEC_DISPATCH, "dispatch section")?;
        sys.dispatch.central_q = VecDeque::<RequestId>::decode(&mut r)?;
        sys.dispatch.be_pending_feedback = Option::<NodeId>::decode(&mut r)?;
        sys.dispatch.be_completed_frac = r.f64()?;
        let lc_blobs = Vec::<Vec<u8>>::decode(&mut r)?;
        if lc_blobs.len() != sys.dispatch.lc.len() {
            return Err(SnapError::Corrupt("lc backend count"));
        }
        for (backend, blob) in sys.dispatch.lc.iter_mut().zip(&lc_blobs) {
            backend
                .restore_state(blob)
                .map_err(SnapError::Unsupported)?;
        }
        let be_blob = Vec::<u8>::decode(&mut r)?;
        sys.dispatch
            .be
            .restore_state(&be_blob)
            .map_err(SnapError::Unsupported)?;

        let mut r = file.section(SEC_NODES, "nodes section")?;
        if r.u64()? as usize != sys.nodes.len() {
            return Err(SnapError::Corrupt("node count"));
        }
        for n in sys.nodes.iter_mut() {
            n.restore_dynamic(&mut r)?;
        }

        let mut r = file.section(SEC_COUNTERS, "counters section")?;
        sys.counters = ExperimentCounters::decode(&mut r)?;

        let mut r = file.section(SEC_DETECTOR, "detector section")?;
        sys.detector.restore(&mut r, sys.nodes.len())?;

        let mut r = file.section(SEC_REASSURER, "reassurer section")?;
        match (r.u8()?, sys.reassurer.as_mut()) {
            (0, None) => {}
            (1, Some(re)) => re.restore(&mut r)?,
            _ => return Err(SnapError::Corrupt("reassurer presence")),
        }

        let mut r = file.section(SEC_ALLOCATOR, "allocator section")?;
        match (r.u8()?, &mut sys.allocator) {
            (0, Allocator::Static(_)) => {}
            (1, Allocator::Hrm(h)) => {
                h.dvpa.ops = r.u64()?;
                h.dvpa.total_writes = r.u64()?;
            }
            _ => return Err(SnapError::Corrupt("allocator kind")),
        }

        let mut r = file.section(SEC_FAULT, "fault section")?;
        sys.fault.restore(&mut r)?;

        let mut r = file.section(SEC_TOPOLOGY, "topology section")?;
        sys.topology.restore_dynamic(&mut r)?;

        let mut r = file.section(SEC_STORE, "store section")?;
        sys.store.restore(&mut r, sys.nodes.len())?;

        let mut r = file.section(SEC_CTRL, "ctrl section")?;
        match (r.u8()?, sys.ctrl.detector.as_mut()) {
            (0, None) => {}
            (1, Some(det)) => det.restore(&mut r)?,
            _ => return Err(SnapError::Corrupt("ctrl detector presence")),
        }

        let mut r = file.section(SEC_MIGRATION, "migration section")?;
        sys.migration.ticks = r.u32()?;
        sys.migration.egress_kib = r.u64()?;
        let in_flight = Vec::<(RequestId, InFlight)>::decode(&mut r)?;
        sys.migration.in_flight.extend(in_flight);

        if !crate::fault_rt::dangling(&sys).is_empty() {
            return Err(SnapError::Corrupt("dangling request id"));
        }
        Ok(Resumed { sys, engine })
    }

    /// Run to `duration` like [`run`](Self::run), taking a snapshot at
    /// every `policy.every_n_ticks`-th sync-tick boundary (after the
    /// `Sync` event at that instant has fired — the checkpoint hook sits
    /// at the sync-loop stage boundary). Returns the report together with
    /// the retained checkpoints, oldest first.
    pub fn run_checkpointed(
        mut self,
        duration: SimTime,
        label: &str,
        policy: CheckpointPolicy,
    ) -> Result<(RunReport, Vec<Checkpoint>), SnapError> {
        let checkpoints = self.run_inner_checkpointed(duration, policy)?;
        Ok((self.finish(label), checkpoints))
    }

    /// The checkpoint loop behind [`run_checkpointed`](Self::run_checkpointed):
    /// run to `duration`, sealing a snapshot at each checkpoint boundary,
    /// and return the retained checkpoints without finishing the run.
    pub(crate) fn run_inner_checkpointed(
        &mut self,
        duration: SimTime,
        policy: CheckpointPolicy,
    ) -> Result<Vec<Checkpoint>, SnapError> {
        let mut engine: Engine<Event> = Engine::new();
        self.prime(&mut engine, duration);
        let step = SimTime::from_micros(
            self.cfg.sync_interval.as_micros() * policy.every_n_ticks.max(1) as u64,
        );
        let mut checkpoints: VecDeque<Checkpoint> = VecDeque::new();
        let mut at = step;
        while at < duration {
            engine.run_until(self, at);
            checkpoints.push_back(Checkpoint {
                at,
                bytes: encode(self, &engine)?,
            });
            if policy.keep_last_k > 0 && checkpoints.len() > policy.keep_last_k {
                checkpoints.pop_front();
            }
            at += step;
        }
        engine.run_until(self, duration);
        Ok(checkpoints.into())
    }
}
