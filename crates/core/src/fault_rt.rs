//! Fault runtime stage: applying compiled fault-plan events, master
//! failover routing, and the per-request conservation audit.
//!
//! The stage state is [`tango_faults::FaultState`] itself (down flags,
//! crash epochs, the fault ledger); this module owns every mutation of it
//! that originates from a plan event, plus the failover routing query the
//! dispatch stage consults each round.

use crate::ctx::SystemCtx;
use crate::lifecycle::{self, LifecycleState};
use crate::report::RunAudit;
use crate::system::Event;
use tango_faults::{FaultEvent, FaultState};
use tango_metrics::TraceEvent;
use tango_types::{
    ClusterId, NodeId, RequestId, RequestOutcome, RequestState, ServiceClass, SimTime,
};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// Which master acts for `cluster` this dispatch round. Normally the
/// cluster's own; if that master is down, the nearest reachable cluster
/// with a live master steps in (deterministic tiebreak: distance, then
/// cluster id) and every delivery pays the extra control hop back from
/// the stand-in. `None` means no live master is reachable — the round is
/// skipped and queues age in place.
pub(crate) fn acting_master_for(
    ctx: &SystemCtx<'_>,
    cluster: ClusterId,
) -> Option<(ClusterId, SimTime)> {
    let own = ctx.clusters[cluster.index()].master;
    if !ctx.fault.is_down(own) {
        // Under detection-driven faults the master may be physically
        // dead while still *believed* alive; nothing answers, so the
        // round is silently lost until the keep-alive detector trips
        // and failover kicks in. (Oracle mode: phys == detected, so
        // this branch never fires there.)
        if ctx.fault.is_phys_down(own) {
            return None;
        }
        return Some((cluster, SimTime::ZERO));
    }
    let mut best: Option<(f64, ClusterId)> = None;
    for c in ctx.clusters.iter() {
        if c.id == cluster
            || ctx.fault.is_down(c.master)
            || !ctx.topology.is_reachable(cluster, c.id)
        {
            continue;
        }
        let d = ctx.topology.distance_km(cluster, c.id);
        let better = match best {
            None => true,
            Some((bd, bid)) => d < bd || (d == bd && c.id.index() < bid.index()),
        };
        if better {
            best = Some((d, c.id));
        }
    }
    best.and_then(|(_, backup)| {
        // A backup chosen on believed liveness can itself be physically
        // dead and undetected — that round is lost too.
        if ctx.fault.is_phys_down(ctx.clusters[backup.index()].master) {
            return None;
        }
        Some((backup, ctx.topology.one_way_latency(cluster, backup)))
    })
}

/// Apply one compiled fault-plan event. Crashes interrupt everything on
/// the node and hand the work back to the schedulers; recoveries bring
/// the node back *cold* — stale QoS history and re-assurance factors are
/// forgotten so the control loops re-learn it.
pub(crate) fn on_fault(ctx: &mut SystemCtx<'_>, fault: FaultEvent, sched: &mut Sched<'_>) {
    let now = sched.now();
    match fault {
        FaultEvent::NodeCrash { node } => {
            let is_master = ctx.nodes[node.index()].is_master;
            if !ctx.fault.on_phys_crash(node, now, is_master) {
                return; // already down (overlapping churn draw)
            }
            // Work that runs out by the crash instant finished: book it
            // before the crash interrupts the rest.
            let host = &mut ctx.nodes[node.index()];
            host.advance(now);
            let completions = host.take_completions();
            lifecycle::book_completions(ctx, node, &completions, now);
            ctx.emit(now, || TraceEvent::Fault {
                kind: "crash",
                node: Some(node),
            });
            // Everything running on the node dies and parks in limbo
            // until the control plane learns of the crash.
            let limbo: Vec<(ServiceClass, RequestId)> = ctx.nodes[node.index()]
                .crash(now)
                .into_iter()
                .map(|(class, rr)| (class, rr.request))
                .collect();
            ctx.fault.push_limbo(node, limbo);
            if ctx.cfg.detection.is_some() {
                // Detection-driven fault model: the crash is physical
                // only. Nothing the control plane owns may react yet —
                // wait queues and reservations stay, candidate views are
                // NOT invalidated (the *believed* state did not change,
                // and an attached mirror must not telegraph the crash).
                // The keep-alive detector trips later in
                // `ctrl_rt::keepalive_tick` and runs the reaction.
                return;
            }
            // Oracle fault model: the crash is detected in the same event.
            ctx.fault.mark_detected(node);
            on_crash_detected(ctx, node, now);
        }
        FaultEvent::NodeRecover { node } => {
            // A recovery can land before the keep-alive detector ever
            // tripped. The limbo work still has to go back to the
            // schedulers — it does so here, at the recovery edge, with
            // the same interruption accounting detection would have run.
            let undetected = ctx.fault.is_phys_down(node) && !ctx.fault.is_down(node);
            if !ctx.fault.on_recover(node, now) {
                return; // was not down
            }
            ctx.emit(now, || TraceEvent::Fault {
                kind: "recover",
                node: Some(node),
            });
            if undetected {
                requeue_limbo(ctx, node, now);
            }
            // Accumulated keep-alive suspicion no longer describes the
            // restarted node.
            if let Some(det) = ctx.ctrl.detector.as_mut() {
                det.reset_node(node);
            }
            ctx.nodes[node.index()].recover(now, ctx.cfg.faults.restart_delay);
            // The node comes back cold: pre-crash latency windows and
            // re-assurance factors no longer describe it.
            ctx.detector.forget_node(node);
            if let Some(r) = ctx.reassurer.as_mut() {
                r.reset_node(node);
            }
            lifecycle::schedule_node_check(ctx, node, sched);
        }
        FaultEvent::LinkDegrade {
            a,
            b,
            latency_factor,
            bandwidth_factor,
        } => {
            ctx.topology
                .degrade_link(a, b, latency_factor, bandwidth_factor);
            ctx.fault.on_link_degrade();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "degrade",
                node: None,
            });
        }
        FaultEvent::LinkRestore { a, b } => {
            ctx.topology.restore_link(a, b);
            ctx.fault.on_link_restore();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "restore",
                node: None,
            });
        }
        FaultEvent::Partition { side } => {
            ctx.topology.set_partition(&side);
            ctx.fault.on_partition();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "partition",
                node: None,
            });
        }
        FaultEvent::Heal => {
            ctx.topology.heal_partition();
            ctx.fault.on_heal();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "heal",
                node: None,
            });
        }
    }
    // Every arm that falls through changed structural view inputs (down
    // flags or topology); arms that found nothing to do returned early
    // above. Cached candidate views rebuild on their next use.
    ctx.dispatch.views.invalidate_structure();
}

/// The control plane has learned that `node` crashed — in the crash
/// event itself under the oracle fault model, at the keep-alive trip
/// under detection. The interrupted work goes back to the schedulers,
/// requests waiting *at* the node (§5.2.2 R′_k) drain back to their
/// origin queues, and the node's in-flight reservation entry is wiped
/// wholesale: deliveries still in the air bounce on the epoch check
/// instead of decrementing a table that no longer exists. The caller
/// invalidates the candidate views.
pub(crate) fn on_crash_detected(ctx: &mut SystemCtx<'_>, node: NodeId, now: SimTime) {
    requeue_limbo(ctx, node, now);
    let waiting: Vec<RequestId> = ctx.lifecycle.node_wait[node.index()].drain(..).collect();
    ctx.fault.summary.wait_drained += waiting.len() as u64;
    ctx.fault.summary.rescheduled += waiting.len() as u64;
    for rid in waiting {
        lifecycle::requeue_or_abandon(ctx, rid, now);
    }
    ctx.lifecycle.reserved.clear_node(node);
}

/// Hand the work a crash interrupted on `node` back to the schedulers:
/// LC at its origin master, BE at the central dispatcher.
fn requeue_limbo(ctx: &mut SystemCtx<'_>, node: NodeId, now: SimTime) {
    for (class, rid) in ctx.fault.take_limbo(node) {
        match class {
            ServiceClass::Lc => ctx.fault.summary.lc_interrupted += 1,
            ServiceClass::Be => ctx.fault.summary.be_interrupted += 1,
        }
        ctx.fault.summary.rescheduled += 1;
        lifecycle::requeue_or_abandon(ctx, rid, now);
    }
}

/// Bucket every injected request by its terminal state — the fault tests
/// use this to prove that churn neither loses requests nor leaves them
/// running on dead nodes.
pub(crate) fn audit(lifecycle: &LifecycleState, fault: &FaultState) -> RunAudit {
    let mut a = RunAudit {
        total: lifecycle.requests.len() as u64,
        ..RunAudit::default()
    };
    for req in lifecycle.requests.values() {
        match req.outcome() {
            Some(RequestOutcome::Completed) => a.completed += 1,
            Some(RequestOutcome::Abandoned) => a.abandoned += 1,
            Some(RequestOutcome::Failed) => a.failed += 1,
            None => {
                a.pending += 1;
                match req.state {
                    RequestState::Running { target } if fault.is_down(target) => {
                        a.running_on_down_nodes += 1;
                    }
                    // A mid-transfer pod is on neither endpoint: its
                    // residual work rides the in-flight checkpoint, so a
                    // crash on either side can't lose or duplicate it.
                    RequestState::Migrating { .. } => a.in_migration += 1,
                    _ => {}
                }
            }
        }
    }
    a
}
