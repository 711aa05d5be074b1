//! Request lifecycle stage: arrival, queue aging, abandonment, delivery,
//! admission, completion, and the dispatcher's reservation table.
//!
//! Everything between "a trace request exists" and "the request reached a
//! terminal state" that is not a *scheduling decision* lives here. The
//! stage owns [`LifecycleState`]; dispatch and fault stages mutate
//! request state only through the `pub(crate)` functions of this module
//! (requeue, abandon, reservation release), which keeps the single-home
//! invariant — a request id sits in at most one queue system-wide — in
//! one file.
//!
//! The stage holds only live work. The trace is a [`TraceCursor`] that
//! queues one arrival at a time, and a request that reaches a terminal
//! state is retired: it leaves the table, and only its count by outcome
//! remains. Every lookup treats an absent id as finished.

use crate::config::TangoConfig;
use crate::ctx::SystemCtx;
use crate::system::Event;
use std::collections::VecDeque;
use tango_kube::CompletedRequest;
use tango_metrics::{Counter, TraceEvent};
use tango_snap::SnapError;
use tango_types::{
    ClusterId, FxHashMap, NodeId, Request, RequestId, RequestOutcome, Resources, ServiceClass,
    ServiceId, SimTime,
};
use tango_workload::{DiurnalProfile, ServiceCatalog, TraceCursor, TraceSpec};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// The dispatcher's in-flight reservation table: demands dispatched but
/// not yet resolved at their target, per node. Without it, the per-type
/// graphs (and the 100 ms snapshot staleness) would double-book nodes
/// within a dispatch round.
///
/// Dense by node id, with a per-node change stamp off a monotonic clock.
/// The stamps are the candidate-view cache's dirty bits: a view that saw
/// clock `c` refreshes exactly the rows whose `stamp > c` (reservations
/// are the only input that changes *between* structural invalidations).
/// A zero entry and an absent entry are indistinguishable — both read as
/// `Resources::ZERO` — matching the former map's semantics, where fully
/// released entries lingered at zero and crashes removed them outright.
#[derive(Debug, Default)]
pub(crate) struct ReservationTable {
    held: Vec<Resources>,
    stamps: Vec<u64>,
    clock: u64,
    /// Ring of `(clock, node)` change records, ascending by clock — the
    /// candidate-view cache's incremental dirty list. Bounded by
    /// `journal_cap`: once the ring wraps, readers whose last-seen clock
    /// predates the oldest retained record fall back to a full stamp
    /// scan.
    journal: std::collections::VecDeque<(u64, NodeId)>,
    /// Highest clock value already discarded from the journal.
    journal_base: u64,
}

/// Change records the journal keeps before it starts forgetting: a
/// quarter of the nodes. A view takes the journal only for at most a
/// quarter of its rows' worth of changes, and no view holds every node, so
/// a longer journal would list only lags that every view scans for anyway.
fn journal_cap(n_nodes: usize) -> usize {
    (n_nodes / 4).max(1)
}

impl ReservationTable {
    /// Table covering nodes `0..n`.
    pub(crate) fn new(n_nodes: usize) -> Self {
        ReservationTable {
            held: vec![Resources::ZERO; n_nodes],
            stamps: vec![0; n_nodes],
            clock: 0,
            journal: std::collections::VecDeque::with_capacity(journal_cap(n_nodes)),
            journal_base: 0,
        }
    }

    /// Current reservation against a node (zero when none).
    pub(crate) fn get(&self, node: NodeId) -> Resources {
        self.held
            .get(node.index())
            .copied()
            .unwrap_or(Resources::ZERO)
    }

    /// The monotonic change clock; bumped by every mutation.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// When the node's reservation last changed.
    pub(crate) fn stamp(&self, node: NodeId) -> u64 {
        self.stamps.get(node.index()).copied().unwrap_or(0)
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.stamps[i] = self.clock;
        if self.journal.len() == journal_cap(self.held.len()) {
            if let Some((c, _)) = self.journal.pop_front() {
                self.journal_base = c;
            }
        }
        self.journal.push_back((self.clock, NodeId(i as u32)));
    }

    /// The nodes touched since clock `seen`, oldest first (a node appears
    /// once per touch), as `(count, iterator)`. `None` when the journal
    /// has already forgotten part of that range — the caller must fall
    /// back to a full stamp scan.
    pub(crate) fn changes_since(
        &self,
        seen: u64,
    ) -> Option<(usize, impl Iterator<Item = NodeId> + '_)> {
        if seen < self.journal_base {
            return None;
        }
        let start = self.journal.partition_point(|&(c, _)| c <= seen);
        let n = self.journal.len() - start;
        Some((n, self.journal.range(start..).map(|&(_, node)| node)))
    }

    /// Add to a node's reservation.
    pub(crate) fn add(&mut self, node: NodeId, demand: Resources) {
        let i = node.index();
        self.held[i] += demand;
        self.touch(i);
    }

    /// Release (part of) a node's reservation.
    pub(crate) fn release(&mut self, node: NodeId, demand: Resources) {
        let i = node.index();
        self.held[i] = self.held[i].saturating_sub(&demand);
        self.touch(i);
    }

    /// Wipe a node's reservation wholesale (crash path).
    pub(crate) fn clear_node(&mut self, node: NodeId) {
        let i = node.index();
        self.held[i] = Resources::ZERO;
        self.touch(i);
    }

    /// Nonzero entries in node-id order (snapshot codec).
    pub(crate) fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, Resources)> + '_ {
        self.held
            .iter()
            .enumerate()
            .filter(|(_, r)| **r != Resources::ZERO)
            .map(|(i, &r)| (NodeId(i as u32), r))
    }

    /// Replace the table's contents with decoded entries (restore path).
    /// An entry naming a node outside the table is
    /// [`SnapError::Corrupt`]: the table covers exactly the rebuilt
    /// system's nodes and is never sized from the bytes.
    pub(crate) fn load(&mut self, entries: &[(NodeId, Resources)]) -> Result<(), SnapError> {
        self.held.fill(Resources::ZERO);
        for &(node, r) in entries {
            *self
                .held
                .get_mut(node.index())
                .ok_or(SnapError::Corrupt("reservation node id"))? = r;
        }
        // one bump marks every row newer than any pre-restore view; the
        // bulk change is not journaled, so force readers to a full scan
        self.clock += 1;
        self.stamps.fill(self.clock);
        self.journal.clear();
        self.journal_base = self.clock;
        Ok(())
    }
}

/// State owned by the lifecycle stage.
pub struct LifecycleState {
    /// Every live request, by id. A request leaves the map when it
    /// reaches a terminal state ([`LifecycleState::retire`]).
    pub(crate) requests: FxHashMap<RequestId, Request>,
    /// Next request id to allocate: the count of requests injected so
    /// far, live or retired.
    pub(crate) next_request_id: u64,
    /// Retired requests, counted by [`RequestOutcome`] (completed,
    /// abandoned, failed).
    pub(crate) retired: [u64; 3],
    /// The trace's arrival cursor, set when the run is primed. The event
    /// queue holds at most its one next arrival.
    pub(crate) arrivals: Option<TraceCursor>,
    /// The dispatcher's in-flight reservation table.
    pub(crate) reserved: ReservationTable,
    /// Per-node LC wait queues: the R′_k requests that DSS-LC routes to a
    /// node beyond its instantaneous capacity wait *at the node* (§5.2.2)
    /// rather than bouncing back to the master.
    pub(crate) node_wait: Vec<VecDeque<RequestId>>,
    /// BE containers evicted by LC preemption so far.
    pub(crate) be_evictions: u64,
}

impl LifecycleState {
    /// Fresh state for a system with `n_nodes` nodes.
    pub(crate) fn new(n_nodes: usize) -> Self {
        LifecycleState {
            requests: FxHashMap::default(),
            next_request_id: 0,
            retired: [0; 3],
            arrivals: None,
            reserved: ReservationTable::new(n_nodes),
            node_wait: (0..n_nodes).map(|_| VecDeque::new()).collect(),
            be_evictions: 0,
        }
    }

    pub(crate) fn alloc_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        id
    }

    /// Install a decoded request ledger (restore path): the live
    /// requests, the next id and the retired counts. Each live id must
    /// be unique and below `next_request_id`, and live plus retired must
    /// equal `next_request_id`, or the ledger is [`SnapError::Corrupt`].
    pub(crate) fn load_ledger(
        &mut self,
        requests: Vec<Request>,
        next_request_id: u64,
        retired: [u64; 3],
    ) -> Result<(), SnapError> {
        let mut table = FxHashMap::default();
        table.reserve(requests.len());
        for q in requests {
            if q.id.0 >= next_request_id {
                return Err(SnapError::Corrupt("request id past the next id"));
            }
            if table.insert(q.id, q).is_some() {
                return Err(SnapError::Corrupt("duplicate request id"));
            }
        }
        let injected = retired
            .iter()
            .try_fold(table.len() as u64, |n, &r| n.checked_add(r));
        if injected != Some(next_request_id) {
            return Err(SnapError::Corrupt("request ledger"));
        }
        self.requests = table;
        self.next_request_id = next_request_id;
        self.retired = retired;
        Ok(())
    }

    /// Remove a request that reached its terminal `outcome` and count
    /// it. `None` when it had already left.
    pub(crate) fn retire(&mut self, rid: RequestId, outcome: RequestOutcome) -> Option<Request> {
        let req = self.requests.remove(&rid)?;
        self.retired[outcome as usize] += 1;
        Some(req)
    }

    /// Pull the trace's next arrival as `(at, key, event)`. The key is
    /// the id its request will take, a sequence number below
    /// [`KEYED_SEQS`](tango_simcore::KEYED_SEQS): arrivals pop ahead of
    /// every other event at their instant, in trace order, which is the
    /// event order the golden digests pin.
    pub(crate) fn next_arrival(
        &mut self,
        catalog: &ServiceCatalog,
    ) -> Option<(SimTime, u64, Event)> {
        let e = self.arrivals.as_mut()?.next_event(catalog)?;
        let event = Event::Arrival {
            service: e.service,
            origin: e.origin,
            demand: e.demand,
        };
        Some((e.at, self.next_request_id, event))
    }

    /// Release (part of) a node's in-flight reservation.
    pub(crate) fn release_reservation(&mut self, node: NodeId, demand: Resources) {
        self.reserved.release(node, demand);
    }
}

/// The trace a run to `horizon` replays, as the config describes it.
pub(crate) fn trace_spec(cfg: &TangoConfig, horizon: SimTime) -> TraceSpec {
    TraceSpec {
        diurnal: if cfg.workload.diurnal {
            DiurnalProfile::default()
        } else {
            DiurnalProfile::flat()
        },
        ..TraceSpec::new(
            cfg.workload.pattern(),
            cfg.clusters,
            horizon,
            cfg.seed ^ 0x77ace,
        )
    }
}

/// `Arrival`: queue the request at its origin master (LC or BE queue),
/// and the trace's next arrival in the engine.
pub(crate) fn on_arrival(
    ctx: &mut SystemCtx<'_>,
    service: ServiceId,
    origin: ClusterId,
    demand: Resources,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    let spec = ctx.catalog.get(service);
    let class = spec.class;
    let id = ctx.lifecycle.alloc_request_id();
    let req = Request::new(id, service, class, origin, now, demand);
    if class.is_lc() {
        ctx.counters.add(now, Counter::LcArrived, 1);
        ctx.clusters[origin.index()].lc_q.push_back(id);
    } else {
        ctx.clusters[origin.index()].be_q.push_back(id);
    }
    ctx.lifecycle.requests.insert(id, req);
    ctx.emit(now, || TraceEvent::Arrival {
        request: id,
        service,
        origin,
    });
    if let Some((at, key, event)) = ctx.lifecycle.next_arrival(ctx.catalog) {
        sched.schedule_keyed(at, key, event);
    }
}

/// Retire a request as abandoned (shed from a queue).
pub(crate) fn abandon(ctx: &mut SystemCtx<'_>, rid: RequestId, now: SimTime) {
    if ctx
        .lifecycle
        .retire(rid, RequestOutcome::Abandoned)
        .is_some()
    {
        ctx.counters.add(now, Counter::Abandoned, 1);
        ctx.emit(now, || TraceEvent::Abandoned { request: rid });
    }
}

/// Deadline past which a queued request is hopeless: an LC request older
/// than its QoS target γ can no longer satisfy it even if it completed
/// instantly, so it is shed (the "abandoned requests" metric of §7.2);
/// BE requests wait out their patience.
pub(crate) fn queue_deadline(
    catalog: &ServiceCatalog,
    req: &Request,
    patience: SimTime,
) -> SimTime {
    match req.class {
        ServiceClass::Lc => catalog.get(req.service).qos_target.min(patience),
        ServiceClass::Be => patience,
    }
}

/// Remove hopeless queue entries, returning them for abandonment.
pub(crate) fn expire_queue(
    catalog: &ServiceCatalog,
    queue: &mut VecDeque<RequestId>,
    requests: &FxHashMap<RequestId, Request>,
    patience: SimTime,
    now: SimTime,
) -> Vec<RequestId> {
    let mut expired = Vec::new();
    queue.retain(|rid| {
        let keep = requests
            .get(rid)
            .map(|r| now.saturating_since(r.arrival) <= queue_deadline(catalog, r, patience))
            .unwrap_or(false);
        if !keep {
            expired.push(*rid);
        }
        keep
    });
    expired
}

/// Hand a bounced/evicted/interrupted request back to its scheduler: LC
/// requests have a bounce budget; evicted/bounced BE work is "restarted
/// at a later time" (§4.1) and is only bounded by its patience window.
pub(crate) fn requeue_or_abandon(ctx: &mut SystemCtx<'_>, rid: RequestId, now: SimTime) {
    let Some(req) = ctx.lifecycle.requests.get_mut(&rid) else {
        return;
    };
    req.mark_requeued();
    let (class, origin) = (req.class, req.origin);
    if class.is_lc() && req.requeues > ctx.cfg.max_requeues {
        ctx.lifecycle.retire(rid, RequestOutcome::Failed);
        ctx.counters.add(now, Counter::Abandoned, 1);
        ctx.emit(now, || TraceEvent::Abandoned { request: rid });
        return;
    }
    match class {
        ServiceClass::Lc => ctx.clusters[origin.index()].lc_q.push_back(rid),
        ServiceClass::Be => {
            if ctx.cfg.local_only {
                ctx.clusters[origin.index()].be_q.push_back(rid);
            } else {
                ctx.dispatch.central_q.push_back(rid);
            }
        }
    }
}

/// Schedule the node's next projected completion check (skipped past the
/// horizon — scheduling those would livelock the engine at the horizon
/// instant).
pub(crate) fn schedule_node_check(ctx: &mut SystemCtx<'_>, node: NodeId, sched: &mut Sched<'_>) {
    let n = &mut ctx.nodes[node.index()];
    if let Some(t) = n.next_completion(sched.now()) {
        if t <= ctx.horizon {
            sched.schedule_at(t, Event::NodeCheck(node, n.generation()));
        }
    }
}

/// Try to admit a queued/delivered request on a node: applies the
/// re-assurance factor ("encapsulated in the packet of scheduled
/// requests", §3 ➎), runs the configured allocator, and on success
/// updates the request state and processes evictions.
pub(crate) fn try_admit_at(
    ctx: &mut SystemCtx<'_>,
    rid: RequestId,
    node_id: NodeId,
    now: SimTime,
) -> bool {
    if ctx.fault.is_down(node_id) {
        return false; // callers guard this; last line of defense
    }
    let Some(req) = ctx.lifecycle.requests.get(&rid) else {
        return true; // retired: treat as handled
    };
    let service = req.service;
    let work = ctx.catalog.get(service).work_milli_ms;
    let factor = ctx
        .reassurer
        .as_ref()
        .map(|r| r.factor(node_id, service))
        .unwrap_or(1.0);
    let eff_demand = req
        .demand
        .scale_f64(factor)
        .max(&Resources::new(1, 1, 0, 0));
    let node = &mut ctx.nodes[node_id.index()];
    let result = ctx.allocator.admit(node, req, eff_demand, work as f64, now);
    let admitted = result.is_ok();
    ctx.emit(now, || TraceEvent::Admission {
        request: rid,
        node: node_id,
        admitted,
    });
    match result {
        Ok(outcome) => {
            if let Some(r) = ctx.lifecycle.requests.get_mut(&rid) {
                r.demand = eff_demand;
                r.mark_running(node_id, now);
            }
            ctx.lifecycle.be_evictions += outcome.evicted.len() as u64;
            let evicted_ids: Vec<RequestId> =
                outcome.evicted.iter().map(|(_, rr)| rr.request).collect();
            for erid in evicted_ids {
                requeue_or_abandon(ctx, erid, now);
            }
            true
        }
        Err(_) => false,
    }
}

/// The configured patience window for a service class.
pub(crate) fn patience_for(ctx: &SystemCtx<'_>, class: ServiceClass) -> SimTime {
    match class {
        ServiceClass::Lc => ctx.cfg.lc_patience,
        ServiceClass::Be => ctx.cfg.be_patience,
    }
}

/// Admit as many node-waiting LC requests as now fit (FIFO), expiring
/// the ones past their patience.
pub(crate) fn drain_node_wait(ctx: &mut SystemCtx<'_>, node_id: NodeId, sched: &mut Sched<'_>) {
    if ctx.fault.is_down(node_id) {
        return; // the wait queue was drained back at crash time
    }
    let now = sched.now();
    let mut admitted_any = false;
    while let Some(&rid) = ctx.lifecycle.node_wait[node_id.index()].front() {
        let (demand, expired) = match ctx.lifecycle.requests.get(&rid) {
            Some(r) => (
                r.demand,
                now.saturating_since(r.arrival)
                    > queue_deadline(ctx.catalog, r, patience_for(ctx, r.class)),
            ),
            None => (Resources::ZERO, true),
        };
        if expired {
            ctx.lifecycle.node_wait[node_id.index()].pop_front();
            ctx.lifecycle.release_reservation(node_id, demand);
            abandon(ctx, rid, now);
            continue;
        }
        if try_admit_at(ctx, rid, node_id, now) {
            ctx.lifecycle.node_wait[node_id.index()].pop_front();
            ctx.lifecycle.release_reservation(node_id, demand);
            admitted_any = true;
        } else {
            break; // head of line still does not fit
        }
    }
    if admitted_any {
        schedule_node_check(ctx, node_id, sched);
    }
}

/// `Deliver`: a dispatched payload reached its target worker (or bounced
/// off a crash that happened while it was in flight).
pub(crate) fn on_deliver(
    ctx: &mut SystemCtx<'_>,
    rid: RequestId,
    node_id: NodeId,
    epoch: u64,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    let Some(req) = ctx.lifecycle.requests.get(&rid) else {
        return;
    };
    if ctx.fault.is_down(node_id) || ctx.fault.epoch(node_id) != epoch {
        // The target crashed while the payload was in flight (a stale
        // epoch means it also already recovered). Its reservation entry
        // was wiped wholesale at crash time, so do not release anything —
        // just bounce the request back to its scheduler.
        ctx.fault.summary.bounced_deliveries += 1;
        ctx.fault.summary.rescheduled += 1;
        ctx.emit(now, || TraceEvent::Delivery {
            request: rid,
            node: node_id,
            bounced: true,
        });
        requeue_or_abandon(ctx, rid, now);
        return;
    }
    let class = req.class;
    let demand = req.demand;
    ctx.emit(now, || TraceEvent::Delivery {
        request: rid,
        node: node_id,
        bounced: false,
    });
    if try_admit_at(ctx, rid, node_id, now) {
        ctx.lifecycle.release_reservation(node_id, demand);
        schedule_node_check(ctx, node_id, sched);
    } else {
        match class {
            // R′_k semantics (§5.2.2): LC requests routed beyond the
            // node's instantaneous capacity wait at the node. The
            // reservation stays until they run or expire.
            ServiceClass::Lc => {
                ctx.lifecycle.node_wait[node_id.index()].push_back(rid);
            }
            // Alg. 3: BE requests that cannot be processed in time
            // return to the central scheduling queue.
            ServiceClass::Be => {
                ctx.lifecycle.release_reservation(node_id, demand);
                requeue_or_abandon(ctx, rid, now);
            }
        }
    }
}

/// `NodeCheck`: a projected completion — advance the node, collect
/// completions, feed the QoS detector, reclaim resources.
pub(crate) fn on_node_check(
    ctx: &mut SystemCtx<'_>,
    node_id: NodeId,
    generation: u64,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    if ctx.fault.is_down(node_id) {
        return; // crash bumped the generation; this check is void
    }
    {
        let node = &mut ctx.nodes[node_id.index()];
        if node.generation() != generation {
            return; // stale projection; a newer check is scheduled
        }
        node.advance(now);
    }
    let completions = ctx.nodes[node_id.index()].take_completions();
    if !completions.is_empty() {
        book_completions(ctx, node_id, &completions, now);
        ctx.allocator
            .rebalance(&mut ctx.nodes[node_id.index()], now);
        // freed resources may unblock node-waiting LC requests
        drain_node_wait(ctx, node_id, sched);
    }
    schedule_node_check(ctx, node_id, sched);
}

/// Book the requests `node_id` finished by `now` (as drained by
/// `Node::take_completions`): retire each, count it, and feed LC
/// latencies to the QoS detector. Node checks and crashes share it.
pub(crate) fn book_completions(
    ctx: &mut SystemCtx<'_>,
    node_id: NodeId,
    completions: &[CompletedRequest],
    now: SimTime,
) {
    let node_cap = ctx.nodes[node_id.index()].capacity();
    for done in completions {
        let Some(req) = ctx
            .lifecycle
            .retire(done.request, RequestOutcome::Completed)
        else {
            continue;
        };
        let latency = now.saturating_since(req.arrival);
        match done.class {
            ServiceClass::Lc => {
                let within = ctx.catalog.get(done.service).meets_qos(latency);
                if !within && ctx.fault.any_fault_active() {
                    // attribute the miss to the open fault window
                    ctx.counters.add(now, Counter::FaultQosViolations, 1);
                }
                ctx.counters.on_lc_complete(now, latency, within);
                ctx.detector.record(node_id, done.service, now, latency);
            }
            ServiceClass::Be => {
                ctx.counters.add(now, Counter::BeCompleted, 1);
                let d = req.demand;
                ctx.dispatch.be_completed_frac += d.cpu_milli as f64
                    / node_cap.cpu_milli.max(1) as f64
                    + d.memory_mib as f64 / node_cap.memory_mib.max(1) as f64;
            }
        }
        ctx.emit(now, || TraceEvent::Completion {
            request: done.request,
            node: node_id,
            latency,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::testutil::small_cfg;
    use crate::system::EdgeCloudSystem;
    use tango_types::ClusterId;

    #[test]
    fn queue_deadline_shed_rule() {
        let catalog = ServiceCatalog::standard();
        let lc_svc = catalog.lc_ids()[0];
        let be_svc = catalog.be_ids()[0];
        let patience = SimTime::from_secs(60);
        let mk = |svc: ServiceId| {
            let spec = catalog.get(svc);
            Request::new(
                RequestId(1),
                svc,
                spec.class,
                ClusterId(0),
                SimTime::ZERO,
                spec.min_request,
            )
        };
        // LC deadline is its QoS target (smaller than patience)
        let lc_deadline = queue_deadline(&catalog, &mk(lc_svc), patience);
        assert_eq!(lc_deadline, catalog.get(lc_svc).qos_target);
        // BE deadline is the patience window
        let be_deadline = queue_deadline(&catalog, &mk(be_svc), patience);
        assert_eq!(be_deadline, patience);
    }

    #[test]
    fn expire_queue_sheds_only_hopeless_entries() {
        let catalog = ServiceCatalog::standard();
        let lc_svc = catalog.lc_ids()[0];
        let target = catalog.get(lc_svc).qos_target;
        let mut requests = FxHashMap::default();
        let mut queue = VecDeque::new();
        for (i, arrival) in [(0u64, SimTime::ZERO), (1, target)].into_iter() {
            let spec = catalog.get(lc_svc);
            let req = Request::new(
                RequestId(i),
                lc_svc,
                spec.class,
                ClusterId(0),
                arrival,
                spec.min_request,
            );
            requests.insert(RequestId(i), req);
            queue.push_back(RequestId(i));
        }
        // at now = target + 1µs: request 0 (arrived at 0) is past its
        // target; request 1 (arrived at `target`) is still viable
        let now = target + SimTime::from_micros(1);
        let expired = expire_queue(&catalog, &mut queue, &requests, SimTime::from_secs(60), now);
        assert_eq!(expired, vec![RequestId(0)]);
        assert_eq!(queue, VecDeque::from(vec![RequestId(1)]));
    }

    #[test]
    fn reservation_load_rejects_node_ids_outside_the_table() {
        let mut table = ReservationTable::new(4);
        let r = Resources::cpu_mem(100, 64);
        table.load(&[(NodeId(3), r)]).unwrap();
        assert_eq!(table.get(NodeId(3)), r);
        for hostile in [4, 4_000_000_000] {
            assert!(matches!(
                table.load(&[(NodeId(hostile), r)]),
                Err(SnapError::Corrupt("reservation node id"))
            ));
            assert_eq!(table.held.len(), 4, "table never grows toward {hostile}");
        }
    }

    #[test]
    fn reservation_journal_keeps_a_quarter_of_the_nodes() {
        let n = 64;
        let mut table = ReservationTable::new(n);
        let r = Resources::cpu_mem(100, 64);
        let mut touched = Vec::new();
        for k in 0..1_000 {
            let node = NodeId((k * 7 % n) as u32);
            match k % 3 {
                0 => table.add(node, r),
                1 => table.release(node, r),
                _ => table.clear_node(node),
            }
            touched.push(node);
        }
        assert!(table.journal.len() <= n / 4, "{}", table.journal.len());
        let clock = table.clock();
        for lag in 0..=n / 4 {
            let (count, nodes) = table
                .changes_since(clock - lag as u64)
                .unwrap_or_else(|| panic!("lag {lag} is within the journal"));
            assert_eq!(count, lag);
            assert!(nodes.eq(touched[touched.len() - lag..].iter().copied()));
        }
        assert!(table.changes_since(clock - (n / 4 + 1) as u64).is_none());
    }

    #[test]
    fn short_run_completes_requests_and_meets_some_qos() {
        let report = EdgeCloudSystem::new(small_cfg()).run(SimTime::from_secs(10), "test");
        assert!(report.lc_arrived > 100, "arrived {}", report.lc_arrived);
        assert!(
            report.lc_completed as f64 > report.lc_arrived as f64 * 0.5,
            "completed {}/{}",
            report.lc_completed,
            report.lc_arrived
        );
        assert!(
            report.qos_satisfaction > 0.5,
            "qos {}",
            report.qos_satisfaction
        );
        assert!(report.be_throughput > 0);
        assert!(report.mean_utilization > 0.0);
        assert!(!report.periods.is_empty());
    }

    #[test]
    fn overload_causes_abandonment_or_queueing() {
        let mut cfg = small_cfg();
        cfg.workload.lc_rps = 2_000.0; // way beyond 8 small workers
        let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(5), "overload");
        assert!(
            report.abandoned > 0 || report.lc_completed < report.lc_arrived,
            "overload must leave a trace"
        );
    }
}
