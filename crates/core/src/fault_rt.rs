//! Fault runtime stage: applying compiled fault-plan events, master
//! failover routing, and the per-request conservation audit.
//!
//! The stage state is [`tango_faults::FaultState`] itself (down flags,
//! crash epochs, the fault ledger); this module owns every mutation of it
//! that originates from a plan event, plus the failover routing query the
//! dispatch stage consults each round.

use crate::ctx::SystemCtx;
use crate::lifecycle;
use crate::report::RunAudit;
use crate::system::{EdgeCloudSystem, Event};
use tango_faults::FaultEvent;
use tango_metrics::TraceEvent;
use tango_types::{ClusterId, NodeId, RequestId, RequestState, ServiceClass, SimTime};

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
    // The cluster whose rows the event changed, or `None` when it may
    // have changed any row.
    let touched = match fault {
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
            Some(ctx.nodes[node.index()].cluster)
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
            Some(ctx.nodes[node.index()].cluster)
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
            None
        }
        FaultEvent::LinkRestore { a, b } => {
            ctx.topology.restore_link(a, b);
            ctx.fault.on_link_restore();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "restore",
                node: None,
            });
            None
        }
        FaultEvent::Partition { side } => {
            ctx.topology.set_partition(&side);
            ctx.fault.on_partition();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "partition",
                node: None,
            });
            None
        }
        FaultEvent::Heal => {
            ctx.topology.heal_partition();
            ctx.fault.on_heal();
            ctx.emit(now, || TraceEvent::Fault {
                kind: "heal",
                node: None,
            });
            None
        }
    };
    // Every arm that falls through changed structural view inputs: a
    // node's down flag, which only its own cluster's roster reads, or the
    // topology, which any row may. (The factors a recovery resets reach
    // LC rows when they are built.) Arms that found nothing to do
    // returned early above. Cached candidate views re-derive the affected
    // segments on their next use.
    match touched {
        Some(cluster) => ctx.dispatch.views.invalidate_cluster(cluster),
        None => ctx.dispatch.views.invalidate_structure(),
    }
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

/// Bucket every injected request: terminal ones by their retired
/// counts, live ones by their state. The fault tests use it to prove
/// that churn neither loses requests nor leaves them running on dead
/// nodes, and that no queue holds a retired id.
pub(crate) fn audit(sys: &EdgeCloudSystem) -> RunAudit {
    let lifecycle = &sys.lifecycle;
    let [completed, abandoned, failed] = lifecycle.retired;
    let mut a = RunAudit {
        total: lifecycle.next_request_id,
        completed,
        abandoned,
        failed,
        pending: lifecycle.requests.len() as u64,
        dangling: dangling(sys).len() as u64,
        ..RunAudit::default()
    };
    for req in lifecycle.requests.values() {
        match req.state {
            RequestState::Running { target } if sys.fault.is_down(target) => {
                a.running_on_down_nodes += 1;
            }
            // A mid-transfer pod is on neither endpoint: its residual
            // work rides the in-flight checkpoint, so a crash on either
            // side can't lose or duplicate it.
            RequestState::Migrating { .. } => a.in_migration += 1,
            _ => {}
        }
    }
    a
}

/// Every id held by a cluster's LC or BE queue, the central BE queue, a
/// node's wait queue, a fault limbo or an in-flight migration that names
/// no live request. Retiring a request is safe only while this is empty:
/// a retired id left in a queue would be shed as abandoned a second
/// time. The audit counts them and a restore rejects them.
pub(crate) fn dangling(sys: &EdgeCloudSystem) -> Vec<RequestId> {
    let queues = sys
        .clusters
        .iter()
        .flat_map(|c| c.lc_q.iter().chain(&c.be_q));
    let waits = sys.lifecycle.node_wait.iter().flatten();
    queues
        .chain(&sys.dispatch.central_q)
        .chain(waits)
        .copied()
        .chain(sys.fault.limbo())
        .chain(sys.migration.in_flight.keys().copied())
        .filter(|rid| !sys.lifecycle.requests.contains_key(rid))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::testutil::small_cfg;
    use crate::migration::InFlight;
    use tango_types::{Request, Resources};

    #[test]
    fn dangling_walks_every_holder_of_a_request_id() {
        let mut sys = EdgeCloudSystem::new(small_cfg());
        let rid = RequestId(0);
        let service = sys.catalog.be_ids()[0];
        let demand = Resources::cpu_mem(100, 64);
        let req = Request::new(
            rid,
            service,
            ServiceClass::Be,
            ClusterId(0),
            SimTime::ZERO,
            demand,
        );
        sys.lifecycle.requests.insert(rid, req);
        let (src, dst) = (sys.clusters[0].workers[0], sys.clusters[1].workers[0]);
        sys.clusters[0].lc_q.push_back(rid);
        sys.clusters[1].be_q.push_back(rid);
        sys.dispatch.central_q.push_back(rid);
        sys.lifecycle.node_wait[src.index()].push_back(rid);
        sys.fault.push_limbo(src, vec![(ServiceClass::Be, rid)]);
        let transfer = InFlight {
            service,
            demand,
            remaining_work: 1.0,
            src,
            dst,
            payload_kib: 1,
            done_at: SimTime::from_millis(5),
        };
        sys.migration.in_flight.insert(rid, transfer);
        assert_eq!(dangling(&sys), vec![]);
        sys.lifecycle.requests.clear();
        assert_eq!(dangling(&sys), vec![rid; 6]);
    }
}
