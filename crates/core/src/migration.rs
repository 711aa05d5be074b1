//! Migration stage: live BE pod migration and the periodic
//! defragmentation pass (the KubeDSM direction).
//!
//! Every `DefragConfig::every_n_ticks` sync ticks the stage snapshots all
//! live workers into [`MigrationCandidate`]s and asks the configured
//! [`MigrationPlanner`] for a batch of moves. Executing a move is
//! **detach-at-initiation**: the pod's residual work leaves the source
//! node the instant the transfer starts, the request enters
//! `RequestState::Migrating { src, dst, done_at }`, and a
//! [`Event::MigrateArrive`] fires when the checkpoint lands. The transfer
//! time is distance-honest: the source node's `snapshot_dynamic` byte
//! size (its checkpoint stream) over the `src → dst` link.
//!
//! Crash-safety is by construction:
//! * **source crashes mid-transfer** — the work already left the node, so
//!   the crash interrupts nothing of it; the in-flight entry survives and
//!   the pod lands at its destination on time;
//! * **destination crashes mid-transfer** — the arrival bounces on the
//!   crash-epoch check (exactly like a `Deliver`) and the request goes
//!   back to its scheduler: never lost, never duplicated;
//! * **destination filled up meanwhile** — admission fails and the pod
//!   restarts via its scheduler (§4.1 restart semantics).
//!
//! Egress accounting: every KiB that crosses the edge→cloud boundary —
//! BE placement payloads and migration checkpoints alike — is charged
//! against the optional [`CloudConfig::egress_budget_kib`]; exhausting it
//! structurally removes cloud rows from every candidate view.
//!
//! [`CloudConfig::egress_budget_kib`]: crate::config::CloudConfig::egress_budget_kib

use crate::config::TangoConfig;
use crate::ctx::SystemCtx;
use crate::lifecycle;
use crate::system::Event;
use tango_metrics::Counter;
use tango_sched::{
    KubeDsm, MigratablePod, MigrationCandidate, MigrationDecision, MigrationPlanner,
};
use tango_snap::SnapWriter;
use tango_types::{
    ClusterId, FxHashMap, NodeId, RequestId, RequestState, Resources, ServiceId, SimTime,
};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// One pod checkpoint in flight between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InFlight {
    /// Service type (the destination admits into its container).
    pub(crate) service: ServiceId,
    /// Effective demand it charged on the source.
    pub(crate) demand: Resources,
    /// Residual work carried over, millicore-milliseconds.
    pub(crate) remaining_work: f64,
    /// Where it detached from.
    pub(crate) src: NodeId,
    /// Where it resumes.
    pub(crate) dst: NodeId,
    /// Checkpoint size billed to the transfer (and to egress when the
    /// destination is the cloud tier).
    pub(crate) payload_kib: u64,
    /// When the transfer lands.
    pub(crate) done_at: SimTime,
}

/// State owned by the migration stage.
pub struct MigrationState {
    /// The cloud tier's cluster id, when one is attached.
    pub(crate) cloud: Option<ClusterId>,
    /// Egress budget in KiB (`None` = unmetered).
    pub(crate) budget_kib: Option<u64>,
    /// Total KiB charged across the edge→cloud boundary so far.
    pub(crate) egress_kib: u64,
    /// Defrag cadence in sync ticks (0 when defrag is off).
    pub(crate) every_n_ticks: u32,
    /// Migration batch limit per pass.
    pub(crate) max_moves: usize,
    /// Sync ticks since the last pass.
    pub(crate) ticks: u32,
    /// The batch planner (`None` = defrag off).
    pub(crate) planner: Option<Box<dyn MigrationPlanner + Send>>,
    /// Pod checkpoints currently in flight, by request id.
    pub(crate) in_flight: FxHashMap<RequestId, InFlight>,
}

impl MigrationState {
    /// Build the stage from the run configuration. `cloud_cluster` is the
    /// cluster id the builder attached the cloud tier under.
    pub(crate) fn from_config(cfg: &TangoConfig, cloud_cluster: Option<ClusterId>) -> Self {
        let (every_n_ticks, max_moves, planner) = match &cfg.defrag {
            Some(d) => (
                d.every_n_ticks.max(1),
                d.max_moves,
                Some(Box::new(KubeDsm {
                    hot_threshold: d.hot_threshold,
                    cold_threshold: d.cold_threshold,
                }) as Box<dyn MigrationPlanner + Send>),
            ),
            None => (0, 0, None),
        };
        MigrationState {
            cloud: cloud_cluster,
            budget_kib: cfg.cloud.as_ref().and_then(|c| c.egress_budget_kib),
            egress_kib: 0,
            every_n_ticks,
            max_moves,
            ticks: 0,
            planner,
            in_flight: FxHashMap::default(),
        }
    }

    /// Whether the cloud tier is still accepting new work (budget not
    /// exhausted). Meaningless when no tier is attached.
    pub(crate) fn cloud_open(&self) -> bool {
        self.budget_kib.is_none_or(|b| self.egress_kib < b)
    }

    /// The candidate-view gate: the cloud cluster and whether its rows
    /// are currently admissible. Part of `ViewInputs`, so membership
    /// stays a pure function of the inputs (the `set_verify` invariant).
    pub(crate) fn cloud_gate(&self) -> Option<(ClusterId, bool)> {
        self.cloud.map(|c| (c, self.cloud_open()))
    }
}

/// Charge `kib` of edge→cloud egress. Crossing the budget structurally
/// removes cloud rows from every candidate view — a one-way flip, since
/// egress only accumulates.
pub(crate) fn charge_egress(ctx: &mut SystemCtx<'_>, now: SimTime, kib: u64) {
    let was_open = ctx.migration.cloud_open();
    ctx.migration.egress_kib += kib;
    ctx.counters.add(now, Counter::CloudEgressKib, kib);
    if was_open && !ctx.migration.cloud_open() {
        let cloud = ctx
            .migration
            .cloud
            .expect("only an attached cloud tier carries an egress budget");
        ctx.dispatch.views.invalidate_cluster(cloud);
    }
}

/// The defragmentation pass, called once per `Sync` tick (no-op unless
/// configured and due). Runs after the sync phase has advanced every live
/// node to `now`, so candidate utilization is current.
pub(crate) fn defrag_tick(ctx: &mut SystemCtx<'_>, sched: &mut Sched<'_>) {
    if ctx.migration.planner.is_none() {
        return;
    }
    ctx.migration.ticks += 1;
    if ctx.migration.ticks < ctx.migration.every_n_ticks {
        return;
    }
    ctx.migration.ticks = 0;
    let now = sched.now();

    // Candidate view over every live worker, node-id order (nodes were
    // advanced by the sync phase; crashed and undetected-dead nodes are
    // excluded — a planner must not move pods onto or off of them).
    let cloud = ctx.migration.cloud;
    let cloud_open = ctx.migration.cloud_open();
    let mut view: Vec<MigrationCandidate> = Vec::new();
    for node in ctx.nodes.iter() {
        if node.is_master || ctx.fault.is_down(node.id) || ctx.fault.is_phys_down(node.id) {
            continue;
        }
        let is_cloud = Some(node.cluster) == cloud;
        if is_cloud && !cloud_open {
            continue; // budget exhausted: the tier takes no new pods
        }
        let available_be = node
            .idle()
            .saturating_sub(&ctx.lifecycle.reserved.get(node.id));
        view.push(MigrationCandidate {
            node: node.id,
            cluster: node.cluster,
            total: node.capacity(),
            available_be,
            utilization: node.utilization(),
            is_cloud,
            alive: true,
            be_pods: node
                .running_be_pods()
                .map(|(request, service, demand)| MigratablePod {
                    request,
                    service,
                    demand,
                })
                .collect(),
        });
    }

    let max_moves = ctx.migration.max_moves;
    let mut planner = ctx.migration.planner.take().expect("checked above");
    let decisions = planner.plan(&view, max_moves);
    ctx.migration.planner = Some(planner);
    for d in decisions {
        execute_migration(ctx, d, now, sched);
    }
}

/// Start one planned migration: measure the checkpoint, detach the pod,
/// mark the request `Migrating`, and schedule the arrival. Decisions
/// whose endpoints died or whose pod finished since planning are vetoed
/// silently.
fn execute_migration(
    ctx: &mut SystemCtx<'_>,
    d: MigrationDecision,
    now: SimTime,
    sched: &mut Sched<'_>,
) {
    if ctx.fault.is_down(d.src)
        || ctx.fault.is_phys_down(d.src)
        || ctx.fault.is_down(d.dst)
        || ctx.fault.is_phys_down(d.dst)
    {
        return;
    }
    let Some(req) = ctx.lifecycle.requests.get(&d.request) else {
        return;
    };
    if req.is_done() || !matches!(req.state, RequestState::Running { target } if target == d.src) {
        return;
    }
    let service = req.service;
    // Transfer payload: the source node's dynamic snapshot — the
    // checkpoint stream a live migration would actually ship — measured
    // before the pod detaches.
    let payload_kib = {
        let mut w = SnapWriter::new();
        ctx.nodes[d.src.index()].snapshot_dynamic(&mut w);
        (w.into_bytes().len() as u64).div_ceil(1024).max(1)
    };
    // Detach integrates progress to `now` first; a pod that completed at
    // exactly this instant is no longer detachable and the move is moot.
    let Some(rr) = ctx.nodes[d.src.index()].detach_request(d.request, now) else {
        return;
    };
    let src_cluster = ctx.nodes[d.src.index()].cluster;
    let dst_cluster = ctx.nodes[d.dst.index()].cluster;
    let done_at = now
        + ctx
            .topology
            .transfer_time(src_cluster, dst_cluster, payload_kib);
    if let Some(r) = ctx.lifecycle.requests.get_mut(&d.request) {
        r.mark_migrating(d.src, d.dst, done_at);
    }
    ctx.counters.add(now, Counter::MigrationsStarted, 1);
    if Some(dst_cluster) == ctx.migration.cloud && Some(src_cluster) != ctx.migration.cloud {
        charge_egress(ctx, now, payload_kib);
    }
    ctx.migration.in_flight.insert(
        d.request,
        InFlight {
            service,
            demand: rr.demand,
            remaining_work: rr.remaining_work,
            src: d.src,
            dst: d.dst,
            payload_kib,
            done_at,
        },
    );
    sched.schedule_at(
        done_at,
        Event::MigrateArrive(d.request, d.dst, ctx.fault.epoch(d.dst)),
    );
    // The source's completion projections changed with the detach.
    lifecycle::schedule_node_check(ctx, d.src, sched);
}

/// `MigrateArrive`: the pod checkpoint reached its destination (or
/// bounced off a crash that happened while it was in flight).
pub(crate) fn on_migrate_arrive(
    ctx: &mut SystemCtx<'_>,
    rid: RequestId,
    dst: NodeId,
    epoch: u64,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    let Some(mig) = ctx.migration.in_flight.remove(&rid) else {
        return; // stale arrival (already handled elsewhere)
    };
    debug_assert_eq!(mig.dst, dst);
    let Some(req) = ctx.lifecycle.requests.get(&rid) else {
        return;
    };
    if req.is_done() {
        return;
    }
    if ctx.fault.is_down(dst) || ctx.fault.epoch(dst) != epoch {
        // Destination crashed (or crash-recovered) while the checkpoint
        // was in flight. The work already left the source, so it simply
        // restarts from its scheduler: never lost, never duplicated.
        ctx.fault.summary.bounced_deliveries += 1;
        ctx.fault.summary.rescheduled += 1;
        lifecycle::requeue_or_abandon(ctx, rid, now);
        return;
    }
    // The common admission path, resuming from the shipped residue with
    // the demand the pod held on its source.
    let mut pod = req.clone();
    pod.demand = mig.demand;
    match ctx
        .allocator
        .admit(&mut ctx.nodes[dst.index()], &pod, mig.remaining_work, now)
    {
        Ok(_) => {
            if let Some(r) = ctx.lifecycle.requests.get_mut(&rid) {
                r.mark_running(dst, now);
            }
            ctx.counters.add(now, Counter::MigrationsCompleted, 1);
            lifecycle::schedule_node_check(ctx, dst, sched);
            // A committed migration moved placement structure out from
            // under every cached candidate view.
            ctx.dispatch.views.invalidate_structure();
        }
        Err(_) => {
            // The destination filled up (or died undetected) while the
            // checkpoint was in flight: veto — the pod restarts via its
            // scheduler with its nominal work (§4.1 restart semantics).
            lifecycle::requeue_or_abandon(ctx, rid, now);
        }
    }
}
