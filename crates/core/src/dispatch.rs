//! Dispatch stage: per-master LC dispatch rounds, BE forwarding, and the
//! central BE dispatcher — the ➋/➌ arrows of Fig. 3.
//!
//! The stage owns [`DispatchState`] (the two schedulers, the central BE
//! queue, and the incremental candidate-view cache): both the LC and the
//! BE paths read their scheduler views from
//! `crate::view_cache::CandidateViewCache`, whose single row builder
//! serves both — so reservation subtraction, liveness filtering and
//! reachability cannot drift between the two dispatcher roles.

use crate::ctx::SystemCtx;
use crate::lifecycle;
use crate::system::Event;
use crate::view_cache::{CandidateViewCache, ViewInputs};
use std::collections::{BTreeMap, VecDeque};
use tango_metrics::{TraceEvent, TraceLane};
use tango_net::NetworkTopology;
use tango_sched::{BeScheduler, LcBatch, LcScheduler};
use tango_types::{ClusterId, FxHashSet, NodeId, RequestId, Resources, ServiceId, SimTime};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// State owned by the dispatch stage.
pub struct DispatchState {
    /// Per-cluster LC schedulers, indexed by `ClusterId`.
    pub(crate) lc: Vec<Box<dyn LcScheduler + Send>>,
    /// The central BE scheduler.
    pub(crate) be: Box<dyn BeScheduler + Send>,
    /// The geographically central cluster hosting the BE dispatcher.
    pub(crate) central: ClusterId,
    /// The central BE scheduling queue.
    pub(crate) central_q: VecDeque<RequestId>,
    /// Node chosen by the previous BE decision, awaiting its reward.
    pub(crate) be_pending_feedback: Option<NodeId>,
    /// Σ completed-BE demand fractions since the last reward payout
    /// (the §5.3.1 long-term reward basis).
    pub(crate) be_completed_frac: f64,
    /// Incremental candidate views, invalidated by the sync loop, the
    /// re-assurer, the fault runtime, keep-alive detection and the
    /// migration stage.
    pub(crate) views: CandidateViewCache,
}

/// Assemble the candidate-view inputs from a `SystemCtx`, reborrowing
/// only the fields a view is derived from. A macro (not a function) so
/// the borrow checker sees the disjoint field projections and still
/// allows `ctx.dispatch.views` and the schedulers to be borrowed
/// alongside.
macro_rules! view_inputs {
    ($ctx:expr) => {
        ViewInputs {
            cfg: $ctx.cfg,
            catalog: $ctx.catalog,
            topology: &*$ctx.topology,
            store: &*$ctx.store,
            fault: &*$ctx.fault,
            reassurer: $ctx.reassurer.as_ref(),
            reserved: &$ctx.lifecycle.reserved,
            central: $ctx.dispatch.central,
            cloud_gate: $ctx.migration.cloud_gate(),
            clusters: &*$ctx.clusters,
        }
    };
}

/// Which vantage a candidate view is built from.
#[derive(Debug, Clone, Copy)]
pub enum ViewScope {
    /// LC dispatch: origin cluster + geo-nearby clusters (or origin only
    /// in `local_only` mode), viewed from the origin master.
    LcGeo(ClusterId),
    /// BE dispatch: the whole system, viewed from the central cluster.
    BeGlobal,
}

/// Requests-per-round transmission capacity of the master→node link
/// (Eq. 4's c_{i,j} discretized to the dispatch interval).
pub(crate) fn link_capacity(
    topology: &NetworkTopology,
    dispatch_interval: SimTime,
    from: ClusterId,
    to: ClusterId,
    payload_kib: u64,
) -> u32 {
    let bw = topology.bandwidth_mbps(from, to).max(1);
    let bits_per_round = bw as u128 * dispatch_interval.as_micros() as u128;
    let bits_per_req = (payload_kib.max(1) as u128) * 8_192;
    ((bits_per_round / bits_per_req).clamp(1, 100_000)) as u32
}

fn cluster_of_node(ctx: &SystemCtx<'_>, node: NodeId) -> ClusterId {
    ctx.nodes[node.index()].cluster
}

/// `Dispatch(c)`: one master's dispatch round, handled completely before
/// the next event pops. All masters share the dispatch interval, so the
/// rounds of one tick pop one after another at the same instant, and
/// each round plans against the reservations that every earlier round
/// committed. The golden digests pin that order.
pub(crate) fn on_dispatch(ctx: &mut SystemCtx<'_>, cluster: ClusterId, sched: &mut Sched<'_>) {
    let now = sched.now();
    let ci = cluster.index();
    // Expire hopeless entries in both queues regardless of master
    // health — waiting requests age even while the control plane is
    // down.
    let expired = lifecycle::expire_queue(
        ctx.catalog,
        &mut ctx.clusters[ci].lc_q,
        &ctx.lifecycle.requests,
        ctx.cfg.lc_patience,
        now,
    );
    for rid in expired {
        lifecycle::abandon(ctx, rid, now);
    }
    let expired = lifecycle::expire_queue(
        ctx.catalog,
        &mut ctx.clusters[ci].be_q,
        &ctx.lifecycle.requests,
        ctx.cfg.be_patience,
        now,
    );
    for rid in expired {
        lifecycle::abandon(ctx, rid, now);
    }
    // Master failover: a dead master's round is either taken over by
    // the nearest live one (extra control hop on every delivery) or
    // skipped entirely when none is reachable.
    let Some((_acting, failover_delay)) = crate::fault_rt::acting_master_for(ctx, cluster) else {
        sched.schedule_in(ctx.cfg.dispatch_interval, Event::Dispatch(cluster));
        return;
    };

    if !ctx.clusters[ci].lc_q.is_empty() {
        dispatch_lc(ctx, cluster, failover_delay, sched);
    }

    // BE queue: forward to the central dispatcher (or local round-
    // robin in CERES mode, where BE never leaves the cluster).
    if ctx.cfg.local_only {
        // schedule BE within the cluster using the central policy but
        // with local candidates only
        let drained: Vec<RequestId> = ctx.clusters[ci].be_q.drain(..).collect();
        for rid in drained {
            let Some(req) = ctx.lifecycle.requests.get(&rid) else {
                continue;
            };
            let (service, demand) = (req.service, req.demand);
            match decide_be(ctx, service, &demand, Some(cluster)) {
                Some((node, _)) if ctx.fault.is_down(node) => {
                    ctx.fault.summary.down_node_dispatches += 1;
                    ctx.clusters[ci].be_q.push_back(rid);
                }
                Some((node, granted)) => {
                    commit_be_placement(ctx, rid, node, granted, cluster, failover_delay, sched);
                }
                None => ctx.clusters[ci].be_q.push_back(rid),
            }
        }
    } else if ctx.topology.is_reachable(cluster, ctx.dispatch.central) {
        let forward_delay = failover_delay
            + ctx
                .topology
                .transfer_time(cluster, ctx.dispatch.central, 64);
        for rid in ctx.clusters[ci].be_q.drain(..) {
            sched.schedule_in(forward_delay, Event::CentralArrive(rid));
        }
    }
    // (partitioned away from the central cluster: BE stays queued
    // locally until the partition heals)

    sched.schedule_in(ctx.cfg.dispatch_interval, Event::Dispatch(cluster));
}

/// A round's LC lane (Alg. 2): drain the master's queue into per-type
/// batches, bring the candidate view of every type current, lend the
/// views to the cluster's scheduler while it plans, and commit every
/// placement after. Unplaced requests go back on the queue in their
/// original order.
///
/// A lent row is built when the scheduler reads it, so it must see the
/// reservations the views' upkeep saw: nothing commits until planning
/// ends, planning writes no table, and no other round runs in between.
fn dispatch_lc(
    ctx: &mut SystemCtx<'_>,
    cluster: ClusterId,
    failover_delay: SimTime,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    let ci = cluster.index();
    let drained: Vec<RequestId> = ctx.clusters[ci].lc_q.drain(..).collect();
    let mut by_type: BTreeMap<ServiceId, Vec<RequestId>> = BTreeMap::new();
    for rid in &drained {
        if let Some(r) = ctx.lifecycle.requests.get(rid) {
            by_type.entry(r.service).or_default().push(*rid);
        }
    }
    {
        let views = &mut ctx.dispatch.views;
        let inp = view_inputs!(ctx);
        for &service in by_type.keys() {
            views.prepare_lc(&inp, service, cluster);
        }
    }
    let plans = {
        let views = &ctx.dispatch.views;
        let inp = view_inputs!(ctx);
        let lent: Vec<_> = by_type
            .keys()
            .map(|&service| views.lc_rows(&inp, service, cluster))
            .collect();
        let batches: Vec<LcBatch<'_>> = by_type
            .iter()
            .zip(&lent)
            .map(|((&service, requests), rows)| LcBatch {
                service,
                requests,
                rows,
                by_delay: rows.by_delay(),
            })
            .collect();
        ctx.dispatch.lc[ci].assign_many(&batches)
    };

    let mut assigned: FxHashSet<RequestId> = FxHashSet::default();
    for (&service, placements) in by_type.keys().zip(&plans) {
        let payload = ctx.catalog.get(service).payload_kib;
        for &(rid, node) in placements {
            if ctx.fault.is_down(node) {
                // A dead node slipped through the masking layers; count
                // it (the invariant tests assert this stays zero) and
                // leave the request queued.
                ctx.fault.summary.down_node_dispatches += 1;
                continue;
            }
            assigned.insert(rid);
            if let Some(r) = ctx.lifecycle.requests.get_mut(&rid) {
                r.mark_dispatched(node);
                let demand = r.demand;
                ctx.lifecycle.reserved.add(node, demand);
            }
            ctx.emit(now, || TraceEvent::DispatchDecision {
                request: rid,
                target: node,
                lane: TraceLane::Lc,
            });
            let delay = failover_delay
                + ctx
                    .topology
                    .transfer_time(cluster, cluster_of_node(ctx, node), payload);
            sched.schedule_in(delay, Event::Deliver(rid, node, ctx.fault.epoch(node)));
        }
    }
    for &rid in &drained {
        if !assigned.contains(&rid) {
            ctx.clusters[ci].lc_q.push_back(rid);
        }
    }
}

/// Commit one BE placement decided at cluster `from`: the request is
/// dispatched with the scheduler's grant — continuous-action policies may
/// grant less than the nominal demand, and the grant is what the node
/// reserves and the pod gets — the decision awaits its reward, and the
/// payload is delivered after the failover hop plus its transfer time. A
/// placement on the cloud tier ships its payload across the metered
/// edge→cloud boundary.
fn commit_be_placement(
    ctx: &mut SystemCtx<'_>,
    rid: RequestId,
    node: NodeId,
    granted: Resources,
    from: ClusterId,
    failover_delay: SimTime,
    sched: &mut Sched<'_>,
) {
    let now = sched.now();
    let Some(r) = ctx.lifecycle.requests.get_mut(&rid) else {
        return;
    };
    r.mark_dispatched(node);
    r.demand = granted;
    ctx.lifecycle.reserved.add(node, granted);
    let payload = ctx.catalog.get(r.service).payload_kib;
    ctx.dispatch.be_pending_feedback = Some(node);
    ctx.emit(now, || TraceEvent::DispatchDecision {
        request: rid,
        target: node,
        lane: TraceLane::Be,
    });
    let target_cluster = cluster_of_node(ctx, node);
    if Some(target_cluster) == ctx.migration.cloud {
        crate::migration::charge_egress(ctx, now, payload);
    }
    let delay = failover_delay + ctx.topology.transfer_time(from, target_cluster, payload);
    sched.schedule_in(delay, Event::Deliver(rid, node, ctx.fault.epoch(node)));
}

/// The §5.3.1 reward for the previous BE decision, when one awaits it.
fn take_be_reward(ctx: &mut SystemCtx<'_>) -> Option<f32> {
    let prev_node = ctx.dispatch.be_pending_feedback.take()?;
    let node = &ctx.nodes[prev_node.index()];
    let (_, be_held) = node.demand_usage();
    let r_short = tango_sched::dcg_be::short_term_reward(&be_held, &node.capacity());
    let r_long = tango_sched::dcg_be::long_term_reward(ctx.dispatch.be_completed_frac);
    ctx.dispatch.be_completed_frac = 0.0;
    // r = r_short + η·r_long (§5.3.1; η = 1 in the paper)
    Some(r_short + ctx.cfg.ablations.dcg_eta * r_long)
}

/// One BE decision for a request of `service`: pay the BE scheduler the
/// reward for its previous decision, then let it pick over the service's
/// global view, or only `local`'s rows of it (CERES mode).
fn decide_be(
    ctx: &mut SystemCtx<'_>,
    service: ServiceId,
    demand: &Resources,
    local: Option<ClusterId>,
) -> Option<(NodeId, Resources)> {
    let reward = take_be_reward(ctx);
    let views = &mut ctx.dispatch.views;
    let inp = view_inputs!(ctx);
    let rows = views.be_candidates(&inp, service, local);
    let be = &mut ctx.dispatch.be;
    if let Some(reward) = reward {
        be.feedback(reward, demand, rows);
    }
    be.schedule(demand, rows)
}

/// `CentralArrive`: a forwarded BE request lands in the central queue.
pub(crate) fn on_central_arrive(ctx: &mut SystemCtx<'_>, rid: RequestId) {
    if ctx.lifecycle.requests.contains_key(&rid) {
        ctx.dispatch.central_q.push_back(rid);
    }
}

/// `BeDispatch`: the central dispatcher's round — schedule queued BE
/// requests with the configured policy, paying it the reward for its
/// previous decision.
pub(crate) fn on_be_dispatch(ctx: &mut SystemCtx<'_>, sched: &mut Sched<'_>) {
    let now = sched.now();
    let expired = lifecycle::expire_queue(
        ctx.catalog,
        &mut ctx.dispatch.central_q,
        &ctx.lifecycle.requests,
        ctx.cfg.be_patience,
        now,
    );
    for rid in expired {
        lifecycle::abandon(ctx, rid, now);
    }
    // The central dispatcher itself can lose its master.
    let central = ctx.dispatch.central;
    let Some((_acting, failover_delay)) = crate::fault_rt::acting_master_for(ctx, central) else {
        sched.schedule_in(ctx.cfg.dispatch_interval, Event::BeDispatch);
        return;
    };
    let mut deferred = VecDeque::new();
    // The central dispatcher has finite decision throughput per round
    // (each decision is a GNN forward); cap it so a bounce storm —
    // e.g. with the context filter ablated off — degrades throughput
    // instead of wedging the simulation.
    let mut budget = 512usize;
    while let Some(rid) = ctx.dispatch.central_q.pop_front() {
        if budget == 0 {
            deferred.push_back(rid);
            break;
        }
        budget -= 1;
        let Some(req) = ctx.lifecycle.requests.get(&rid) else {
            continue;
        };
        let (service, demand) = (req.service, req.demand);
        match decide_be(ctx, service, &demand, None) {
            Some((node, _)) if ctx.fault.is_down(node) => {
                ctx.fault.summary.down_node_dispatches += 1;
                deferred.push_back(rid);
            }
            Some((node, granted)) => {
                commit_be_placement(ctx, rid, node, granted, central, failover_delay, sched);
            }
            None => {
                // nothing feasible system-wide right now: try again
                // next round (Alg. 3's reschedule path)
                deferred.push_back(rid);
                break;
            }
        }
    }
    // keep order: deferred head goes back in front
    while let Some(rid) = deferred.pop_back() {
        ctx.dispatch.central_q.push_front(rid);
    }
    sched.schedule_in(ctx.cfg.dispatch_interval, Event::BeDispatch);
}

#[cfg(test)]
mod tests {
    use crate::config::testutil::small_cfg;
    use crate::config::LcPolicy;
    use crate::system::EdgeCloudSystem;
    use tango_types::SimTime;

    #[test]
    fn central_cluster_is_geographically_central() {
        let sys = EdgeCloudSystem::new(small_cfg());
        assert!(sys.central().index() < sys.cluster_count());
    }

    #[test]
    fn local_only_restricts_candidates() {
        let mut cfg = small_cfg();
        cfg.local_only = true;
        let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(5), "local");
        // still functions end to end
        assert!(report.lc_completed > 0);
        assert!(report.be_throughput > 0);
    }

    #[test]
    fn all_lc_policies_run_end_to_end() {
        for p in [
            LcPolicy::DssLc,
            LcPolicy::LoadGreedy,
            LcPolicy::KsNative,
            LcPolicy::Scoring,
        ] {
            let mut cfg = small_cfg();
            cfg.lc_policy = p;
            let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(3), p.name());
            assert!(report.lc_completed > 0, "{} completed nothing", p.name());
        }
    }
}
