//! Dispatch stage: per-master LC dispatch rounds, BE forwarding, and the
//! central BE dispatcher — the ➋/➌ arrows of Fig. 3.
//!
//! The stage owns [`DispatchState`] (the two schedulers, the central BE
//! queue, and the incremental candidate-view cache): both the LC and the
//! BE paths read their scheduler views from
//! `crate::view_cache::CandidateViewCache`, whose single row builder
//! goes through `CandidateNode::from_observation` — so reservation
//! subtraction, liveness filtering and reachability cannot drift between
//! the two dispatcher roles.

use crate::ctx::SystemCtx;
use crate::lifecycle;
use crate::system::Event;
use crate::view_cache::{CandidateViewCache, ViewInputs};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use tango_metrics::{TraceEvent, TraceLane};
use tango_net::NetworkTopology;
use tango_par::Pool;
use tango_sched::{BeScheduler, CandidateNode, LcScheduler, TypeBatch};
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
/// allows `&mut ctx.dispatch.views` alongside.
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

/// One cluster's round within a coalesced dispatch batch.
struct Round {
    cluster: ClusterId,
    /// Extra control hop when a remote master took the round over.
    failover_delay: SimTime,
    /// Whether any live master could take the round at all.
    alive: bool,
    /// LC requests drained from the queue, in queue order.
    drained: Vec<RequestId>,
    /// Per-service plan inputs, built against the wave's frozen views.
    batches: Vec<TypeBatch>,
    /// Per-batch placements produced by the plan phase.
    plans: Vec<Vec<(RequestId, NodeId)>>,
}

/// `Dispatch(c)`: entry point for a master's dispatch round. All masters
/// share the dispatch interval, so the rounds of one tick sit at the same
/// instant as one consecutive run in the event queue; this handler absorbs
/// that run via same-instant coalescing and hands the whole batch to the
/// two-phase dispatcher. Coalescing stops at the first non-`Dispatch`
/// event, so any event interleaved into the run (by sequence number) still
/// fires exactly where it would have.
pub(crate) fn on_dispatch(ctx: &mut SystemCtx<'_>, first: ClusterId, sched: &mut Sched<'_>) {
    let mut clusters = vec![first];
    while let Some(e) = sched.take_coalesced(|e| matches!(e, Event::Dispatch(_))) {
        match e {
            Event::Dispatch(c) => clusters.push(c),
            _ => unreachable!("coalescing predicate admits only Dispatch"),
        }
    }
    dispatch_batch(ctx, &clusters, sched);
}

/// The two-phase dispatch plane. Per batch (in event-pop order):
///
/// * **Phase 0 (sequential)** — queue expiry for both lanes and the
///   master-failover check. Expiry touches only the cluster's own queues
///   and request records, so hoisting it ahead of every round commutes
///   with the rounds themselves; `acting_master_for` is a pure read of
///   fault/topology state, which no commit in the batch can change.
/// * **Wave formation** — consecutive rounds whose read/write footprints
///   (the origin's geo cluster set) are pairwise disjoint form a wave.
///   A conflicting round closes the wave and opens the next one, so
///   conflicts are resolved by *ordering*, never by re-planning.
/// * **Plan (parallel within a wave)** — candidate views are prefetched
///   sequentially, then each round's `assign_many` runs on its own scheduler
///   over `tango-par`. Disjoint footprints mean no plan can observe
///   another wave member's writes, so the frozen views equal what strict
///   sequential execution would have read.
/// * **Commit (sequential)** — placements, reservations, BE forwarding
///   and the round reschedule are applied in pop order, reproducing the
///   exact event-push sequence of the pre-batched dispatcher. Golden
///   digests pin this equivalence at every thread count.
fn dispatch_batch(ctx: &mut SystemCtx<'_>, clusters: &[ClusterId], sched: &mut Sched<'_>) {
    let now = sched.now();

    // Phase 0: expiry + failover check, sequential in pop order.
    let mut rounds: Vec<Round> = Vec::with_capacity(clusters.len());
    for &cluster in clusters {
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
        let (alive, failover_delay) = match crate::fault_rt::acting_master_for(ctx, cluster) {
            Some((_acting, d)) => (true, d),
            None => (false, SimTime::ZERO),
        };
        rounds.push(Round {
            cluster,
            failover_delay,
            alive,
            drained: Vec::new(),
            batches: Vec::new(),
            plans: Vec::new(),
        });
    }

    let words = ctx.cfg.clusters.div_ceil(64).max(1);
    let mut wave_mask = vec![0u64; words];
    let mut fp_mask = vec![0u64; words];
    let mut i = 0;
    while i < rounds.len() {
        // Wave formation: greedily extend while footprints stay disjoint.
        // A round with no LC work (and no local-BE work) has an empty
        // footprint — central-mode BE forwarding only pushes events — and
        // joins any wave.
        wave_mask.iter_mut().for_each(|w| *w = 0);
        let mut j = i;
        while j < rounds.len() {
            let r = &rounds[j];
            let ci = r.cluster.index();
            let needs_views = r.alive
                && (!ctx.clusters[ci].lc_q.is_empty()
                    || (ctx.cfg.local_only && !ctx.clusters[ci].be_q.is_empty()));
            if needs_views {
                fp_mask.iter_mut().for_each(|w| *w = 0);
                {
                    let views = &mut ctx.dispatch.views;
                    let inp = view_inputs!(ctx);
                    views.or_geo_mask(&inp, r.cluster, &mut fp_mask);
                }
                if fp_mask.iter().zip(&wave_mask).any(|(f, w)| f & w != 0) && j > i {
                    break;
                }
                wave_mask
                    .iter_mut()
                    .zip(&fp_mask)
                    .for_each(|(w, f)| *w |= f);
            }
            j += 1;
        }

        // Prefetch: drain LC queues and build per-type batches against
        // the current views, sequentially in pop order. All batches of a
        // wave are built before any wave member commits, so they share
        // one frozen reservation clock; disjointness makes that snapshot
        // identical to the one sequential execution would read.
        for round in &mut rounds[i..j] {
            let ci = round.cluster.index();
            if !round.alive || ctx.clusters[ci].lc_q.is_empty() {
                continue;
            }
            round.drained = ctx.clusters[ci].lc_q.drain(..).collect();
            let mut by_type: BTreeMap<ServiceId, Vec<RequestId>> = BTreeMap::new();
            for rid in &round.drained {
                if let Some(r) = ctx.lifecycle.requests.get(rid) {
                    by_type.entry(r.service).or_default().push(*rid);
                }
            }
            let views = &mut ctx.dispatch.views;
            let inp = view_inputs!(ctx);
            round.batches = by_type
                .into_iter()
                .map(|(service, requests)| TypeBatch {
                    service,
                    requests,
                    nodes: views.candidates(&inp, service, ViewScope::LcGeo(round.cluster)),
                })
                .collect();
        }

        // Plan: one scheduler per round, disjoint `&mut` borrows, cluster-
        // level fan-out. A single planning round keeps the shared pool so
        // its per-type fan-out still parallelizes; with several, each
        // planner runs single-threaded inside the cluster-level fan-out —
        // the pool-size-invariance contract makes both choices
        // bit-identical, so the branch is on workload shape only.
        let planning: Vec<usize> = (i..j).filter(|&k| !rounds[k].batches.is_empty()).collect();
        if let [k] = planning[..] {
            let ci = rounds[k].cluster.index();
            rounds[k].plans = ctx.dispatch.lc[ci].assign_many(&rounds[k].batches, ctx.pool);
        } else if !planning.is_empty() {
            let mut want: Vec<Option<usize>> = vec![None; ctx.dispatch.lc.len()];
            for &k in &planning {
                want[rounds[k].cluster.index()] = Some(k);
            }
            struct PlanJob<'b> {
                round: usize,
                batches: Vec<TypeBatch>,
                plans: Vec<Vec<(RequestId, NodeId)>>,
                sched: &'b mut Box<dyn LcScheduler + Send>,
            }
            let mut jobs: Vec<PlanJob<'_>> = Vec::with_capacity(planning.len());
            for (ci, sched) in ctx.dispatch.lc.iter_mut().enumerate() {
                if let Some(k) = want[ci] {
                    jobs.push(PlanJob {
                        round: k,
                        batches: std::mem::take(&mut rounds[k].batches),
                        plans: Vec::new(),
                        sched,
                    });
                }
            }
            ctx.pool.par_chunks_mut(&mut jobs, 1, |_, chunk| {
                for job in chunk {
                    let inner = Pool::single();
                    job.plans = job.sched.assign_many(&job.batches, &inner);
                }
            });
            for job in jobs {
                rounds[job.round].batches = job.batches;
                rounds[job.round].plans = job.plans;
            }
        }

        // Commit: apply every wave member in pop order, reproducing the
        // exact per-round push sequence (LC deliveries, then BE, then the
        // round reschedule) of strict sequential dispatch.
        for round in &rounds[i..j] {
            commit_round(ctx, round, now, sched);
        }
        i = j;
    }
}

/// Apply one planned round: LC placements, the BE lane, and the round's
/// reschedule — the writeback half of the two-phase dispatcher.
fn commit_round(ctx: &mut SystemCtx<'_>, round: &Round, now: SimTime, sched: &mut Sched<'_>) {
    let cluster = round.cluster;
    let ci = cluster.index();
    if !round.alive {
        sched.schedule_in(ctx.cfg.dispatch_interval, Event::Dispatch(cluster));
        return;
    }
    let failover_delay = round.failover_delay;

    if !round.drained.is_empty() {
        let mut assigned: FxHashSet<RequestId> = FxHashSet::default();
        for (batch, placements) in round.batches.iter().zip(round.plans.iter()) {
            let payload = ctx.catalog.get(batch.service).payload_kib;
            for &(rid, node) in placements {
                if ctx.fault.is_down(node) {
                    // A dead node slipped through the masking layers;
                    // count it (the invariant tests assert this stays
                    // zero) and leave the request queued.
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
        // unplaced requests stay queued, original order
        for &rid in &round.drained {
            if !assigned.contains(&rid) {
                ctx.clusters[ci].lc_q.push_back(rid);
            }
        }
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
            let service = req.service;
            let demand = req.demand;
            let local: Vec<CandidateNode> = {
                let views = &mut ctx.dispatch.views;
                let inp = view_inputs!(ctx);
                let global = views.candidates(&inp, service, ViewScope::BeGlobal);
                global
                    .iter()
                    .filter(|c| c.cluster == cluster)
                    .cloned()
                    .collect()
            };
            pay_be_feedback(ctx, &demand, &local, now);
            match ctx.dispatch.be.schedule(&demand, &local) {
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

/// Pay the §5.3.1 reward for the previous BE decision.
pub(crate) fn pay_be_feedback(
    ctx: &mut SystemCtx<'_>,
    next_demand: &Resources,
    next_nodes: &[CandidateNode],
    _now: SimTime,
) {
    if let Some(prev_node) = ctx.dispatch.be_pending_feedback.take() {
        let node = &ctx.nodes[prev_node.index()];
        let (_, be_held) = node.demand_usage();
        let r_short = tango_sched::dcg_be::short_term_reward(&be_held, &node.capacity());
        let r_long = tango_sched::dcg_be::long_term_reward(ctx.dispatch.be_completed_frac);
        ctx.dispatch.be_completed_frac = 0.0;
        // r = r_short + η·r_long (§5.3.1; η = 1 in the paper)
        let reward = r_short + ctx.cfg.ablations.dcg_eta * r_long;
        ctx.dispatch.be.feedback(reward, next_demand, next_nodes);
    }
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
        let service = req.service;
        let demand = req.demand;
        let candidates: Arc<Vec<CandidateNode>> = {
            let views = &mut ctx.dispatch.views;
            let inp = view_inputs!(ctx);
            views.candidates(&inp, service, ViewScope::BeGlobal)
        };
        pay_be_feedback(ctx, &demand, &candidates, now);
        match ctx.dispatch.be.schedule(&demand, &candidates) {
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
