//! Sync stage: the periodic state-storage push + metrics sampling cycle
//! (the Prometheus/QoS-detector loop of Fig. 3) and the Algorithm 1
//! re-assurance tick.
//!
//! The per-node phase is **sharded per cluster** over `tango-par`: shards
//! are groups of whole clusters (never splitting one), and each shard
//! owns its nodes' state advance, usage accounting *and* QoS slack
//! queries — possible because the detector stores one window row per node
//! and slack reads only mutate that row. Results are written in place
//! into per-node drafts, so the shard layout cannot affect them; the
//! cross-cluster "merge" — store rows, pending-queue summaries and the
//! utilization sample — runs sequentially in fixed node order, which is
//! the deterministic batched merge of the `tango-par` contract.

use crate::ctx::SystemCtx;
use crate::system::Event;
use tango_metrics::NodeRole;
use tango_types::{Resources, ServiceId, SimTime};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// Per-node accounting draft produced by the sharded sync phase. Buffers
/// are reused across syncs; every field is rewritten each round.
#[derive(Clone, Default)]
pub(crate) struct SyncDraft {
    pub(crate) available: Resources,
    pub(crate) be_held: Resources,
    pub(crate) overall: f64,
    pub(crate) lc_frac: f64,
    pub(crate) be_frac: f64,
    /// Per-LC-service slack pairs, for the node's store row.
    pub(crate) slack: Vec<(ServiceId, f64)>,
    /// Physically down but not yet detected: phase 2 must keep the
    /// node's stale pre-crash store row instead of overwriting it —
    /// schedulers keep routing to the node until the keep-alive
    /// detector trips, which is exactly the cost detection lag measures.
    pub(crate) stale: bool,
}

/// State owned by the sync stage: reusable per-node drafts plus the shard
/// plan and per-sync scratch buffers.
#[derive(Default)]
pub struct SyncState {
    pub(crate) drafts: Vec<SyncDraft>,
    /// Ascending end offset of each cluster's contiguous node range
    /// (nodes are laid out master-then-workers per cluster).
    cluster_bounds: Vec<usize>,
    /// Shard plan scratch: end offsets of each shard (whole clusters).
    shard_bounds: Vec<usize>,
    /// `(service, qos_target)` for every LC service, cached once.
    lc_targets: Vec<(ServiceId, SimTime)>,
    /// Dense per-service pending counters (masters), reused.
    pending_counts: Vec<u32>,
    /// Sparse pending pairs for the current row, reused.
    pending_pairs: Vec<(ServiceId, u32)>,
}

/// Group whole clusters into at most `parts` contiguous shards of
/// roughly equal node counts. Pure function of the bounds and the thread
/// budget — and even if it were not, shard layout cannot affect results,
/// only load balance.
fn plan_shards(cluster_bounds: &[usize], parts: usize, out: &mut Vec<usize>) {
    out.clear();
    let n = cluster_bounds.last().copied().unwrap_or(0);
    if n == 0 {
        return;
    }
    let parts = parts.clamp(1, cluster_bounds.len());
    let target = n.div_ceil(parts);
    let mut next_cut = target;
    for &end in cluster_bounds {
        if end >= next_cut && out.len() + 1 < parts && end < n {
            out.push(end);
            next_cut = end + target;
        }
    }
    out.push(n);
}

/// `Sync`: push node snapshots to the state storage and sample
/// utilization.
pub(crate) fn on_sync(ctx: &mut SystemCtx<'_>, sched: &mut Sched<'_>) {
    let now = sched.now();
    // Keep-alive probe round first: a detector trip this tick marks the
    // node detected-down before phase 1 reads the down flags, so the
    // store row zeroes on the same tick the control plane learns of the
    // crash. No-op under the oracle fault model.
    crate::ctrl_rt::keepalive_tick(ctx, now);
    let n = ctx.nodes.len();
    ctx.detector.ensure_nodes(n);
    let sync = &mut *ctx.sync;
    if sync.drafts.len() != n {
        sync.drafts.clear();
        sync.drafts.resize_with(n, SyncDraft::default);
    }
    if sync.cluster_bounds.len() != ctx.clusters.len() {
        sync.cluster_bounds = ctx.clusters.iter().map(|c| c.node_range().end).collect();
        debug_assert_eq!(sync.cluster_bounds.last().copied().unwrap_or(0), n);
    }
    if sync.lc_targets.is_empty() {
        sync.lc_targets = ctx
            .catalog
            .lc_ids()
            .iter()
            .map(|&s| (s, ctx.catalog.get(s).qos_target))
            .collect();
    }
    plan_shards(
        &sync.cluster_bounds,
        ctx.pool.threads(),
        &mut sync.shard_bounds,
    );

    // Phase 1 (sharded): per-node state advance, usage accounting, and
    // QoS slack queries. Each shard exclusively owns its clusters' nodes,
    // drafts and detector rows; every write is node-local, so drafts land
    // identically at any thread count.
    let down: &[bool] = ctx.fault.down_slice();
    let phys_down: &[bool] = ctx.fault.phys_down_slice();
    let lc_targets = &sync.lc_targets;
    ctx.pool.par_parts_zip3_mut(
        &sync.shard_bounds,
        ctx.nodes,
        &mut sync.drafts,
        ctx.detector.rows_mut(),
        |_, nodes, drafts, det_rows| {
            for ((node, draft), det) in nodes
                .iter_mut()
                .zip(drafts.iter_mut())
                .zip(det_rows.iter_mut())
            {
                draft.slack.clear();
                for &(svc, target) in lc_targets {
                    if let Some(s) = det.slack(svc, target, now) {
                        draft.slack.push((svc, s));
                    }
                }
                draft.stale = false;
                if down[node.id.index()] {
                    // Crashed node: it advertises zero capacity (the
                    // snapshot keeps schedulers honest between the
                    // crash and the next sync) and contributes zero
                    // utilization — its containers are dead.
                    draft.available = Resources::ZERO;
                    draft.be_held = Resources::ZERO;
                    draft.overall = 0.0;
                    draft.lc_frac = 0.0;
                    draft.be_frac = 0.0;
                    continue;
                }
                if phys_down[node.id.index()] {
                    // Physically dead but not yet detected: no probe
                    // answer, so the store keeps the stale pre-crash row
                    // and the node contributes zero utilization. The
                    // schedulers keep believing the old row until the
                    // keep-alive detector trips.
                    draft.overall = 0.0;
                    draft.lc_frac = 0.0;
                    draft.be_frac = 0.0;
                    draft.stale = true;
                    continue;
                }
                node.advance(now);
                let (lc_held, be_held) = node.demand_usage();
                let cap = node.capacity();
                draft.available = cap.saturating_sub(&lc_held).saturating_sub(&be_held);
                draft.be_held = be_held;
                if !node.is_master {
                    let (lc, be) = node.actual_usage();
                    draft.overall = (lc + be).utilization_against(&cap);
                    draft.lc_frac = lc.utilization_against(&cap);
                    draft.be_frac = be.utilization_against(&cap);
                } else {
                    draft.overall = 0.0;
                    draft.lc_frac = 0.0;
                    draft.be_frac = 0.0;
                }
            }
        },
    );

    // Phase 2 (sequential merge): store rows in fixed node order, then
    // one utilization sample. Row writes reuse the store's per-node
    // buffers — no allocation in steady state.
    let n_services = ctx.catalog.len();
    for (node, draft) in ctx.nodes.iter().zip(sync.drafts.iter()) {
        if draft.stale {
            continue; // undetected crash: keep the pre-crash row
        }
        sync.pending_pairs.clear();
        if node.is_master {
            let counts = &mut sync.pending_counts;
            counts.clear();
            counts.resize(n_services, 0);
            let cluster = &ctx.clusters[node.cluster.index()];
            for rid in cluster.lc_q.iter().chain(cluster.be_q.iter()) {
                if let Some(r) = ctx.lifecycle.requests.get(rid) {
                    counts[r.service.index()] += 1;
                }
            }
            sync.pending_pairs.extend(
                counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(s, &c)| (ServiceId(s as u16), c)),
            );
        }
        ctx.store.write_row(
            node.id,
            node.cluster,
            if node.is_master {
                NodeRole::Master
            } else {
                NodeRole::Worker
            },
            node.capacity(),
            draft.available,
            draft.be_held,
            &draft.slack,
            &sync.pending_pairs,
            now,
        );
    }
    // utilization sample over workers (drafts are zero for masters)
    let n_workers = ctx.nodes.iter().filter(|n| !n.is_master).count();
    if n_workers > 0 {
        let nw = n_workers as f64;
        let overall: f64 = sync.drafts.iter().map(|d| d.overall).sum();
        let lc_frac: f64 = sync.drafts.iter().map(|d| d.lc_frac).sum();
        let be_frac: f64 = sync.drafts.iter().map(|d| d.be_frac).sum();
        ctx.counters
            .sample_utilization(now, overall / nw, lc_frac / nw, be_frac / nw);
    }
    // Fresh store contents invalidate every cached candidate view's row
    // values; membership and link attributes are untouched by a push.
    ctx.dispatch.views.invalidate_values();
    // Defragmentation pass (every N ticks when configured): the sync
    // phase just advanced every live node to `now`, so the migration
    // planner sees current utilization.
    crate::migration::defrag_tick(ctx, sched);
    // Control-plane epilogue: proxy fallback accounting, then a mirror
    // frame if one is attached. Publishing reads state and clocks only.
    crate::ctrl_rt::after_sync(ctx, now);
    sched.schedule_in(ctx.cfg.sync_interval, Event::Sync);
}

/// `Reassure`: Algorithm 1 over the QoS detector.
pub(crate) fn on_reassure(ctx: &mut SystemCtx<'_>, sched: &mut Sched<'_>) {
    let now = sched.now();
    if let Some(reassurer) = ctx.reassurer.as_mut() {
        let catalog = ctx.catalog;
        let targets = |svc: ServiceId| catalog.get(svc).qos_target;
        let adjustments = reassurer.tick(ctx.detector, &targets, now);
        // Factors feed cached candidate views' min-requests — a row
        // value, not membership — so only a tick that actually moved a
        // factor needs to invalidate, and value-level suffices.
        if !adjustments.is_empty() {
            ctx.dispatch.views.invalidate_values();
        }
    }
    sched.schedule_in(ctx.cfg.reassure_interval, Event::Reassure);
}

#[cfg(test)]
mod tests {
    use super::plan_shards;

    #[test]
    fn shard_plan_groups_whole_clusters() {
        // 4 clusters of 3 nodes each, 2 parts -> split at the cluster
        // boundary nearest the midpoint
        let bounds = [3usize, 6, 9, 12];
        let mut out = Vec::new();
        plan_shards(&bounds, 2, &mut out);
        assert_eq!(out, vec![6, 12]);
        // more parts than clusters: one cluster per part
        plan_shards(&bounds, 9, &mut out);
        assert_eq!(out, vec![3, 6, 9, 12]);
        // single part
        plan_shards(&bounds, 1, &mut out);
        assert_eq!(out, vec![12]);
        // empty system
        plan_shards(&[], 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shard_plan_covers_uneven_clusters() {
        // ragged cluster sizes; every plan must end at the total and be
        // strictly ascending
        let bounds = [5usize, 6, 20, 23, 30];
        for parts in 1..8 {
            let mut out = Vec::new();
            plan_shards(&bounds, parts, &mut out);
            assert_eq!(out.last().copied(), Some(30), "parts = {parts}");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "parts = {parts}");
            assert!(out.len() <= parts, "parts = {parts}");
            assert!(out.iter().all(|e| bounds.contains(e)), "parts = {parts}");
        }
    }
}
