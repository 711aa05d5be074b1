//! Sync stage: the periodic state-storage push + metrics sampling cycle
//! (the Prometheus/QoS-detector loop of Fig. 3) and the Algorithm 1
//! re-assurance tick.
//!
//! A sync walks the nodes once, in node order: each node is advanced,
//! its usage accounted, its QoS slack queried and its store row written
//! before the next node is touched.

use crate::ctx::SystemCtx;
use crate::system::Event;
use tango_metrics::NodeRole;
use tango_types::{Resources, ServiceId, SimTime};

type Sched<'a> = tango_simcore::engine::Scheduler<'a, Event>;

/// Scratch owned by the sync stage, reused across syncs.
#[derive(Default)]
pub struct SyncState {
    /// `(service, qos_target)` for every LC service, cached once.
    lc_targets: Vec<(ServiceId, SimTime)>,
    /// Per-LC-service slack pairs for the current row.
    slack: Vec<(ServiceId, f64)>,
    /// Dense per-service pending counters (masters).
    pending_counts: Vec<u32>,
    /// Sparse pending pairs for the current row.
    pending_pairs: Vec<(ServiceId, u32)>,
}

/// `Sync`: push node snapshots to the state storage and sample
/// utilization.
pub(crate) fn on_sync(ctx: &mut SystemCtx<'_>, sched: &mut Sched<'_>) {
    let now = sched.now();
    // Keep-alive probe round first: a detector trip this tick marks the
    // node detected-down before the walk reads the down flags, so the
    // store row zeroes on the same tick the control plane learns of the
    // crash. No-op under the oracle fault model.
    crate::ctrl_rt::keepalive_tick(ctx, now);
    let sync = &mut *ctx.sync;
    if sync.lc_targets.is_empty() {
        sync.lc_targets = ctx
            .catalog
            .lc_ids()
            .iter()
            .map(|&s| (s, ctx.catalog.get(s).qos_target))
            .collect();
    }
    let n_services = ctx.catalog.len();
    // Worker utilization sums, in node order; masters and down nodes
    // add nothing.
    let (mut overall, mut lc_frac, mut be_frac) = (0.0, 0.0, 0.0);
    for node in ctx.nodes.iter_mut() {
        sync.slack.clear();
        for &(svc, target) in &sync.lc_targets {
            if let Some(s) = ctx.detector.slack(node.id, svc, target, now) {
                sync.slack.push((svc, s));
            }
        }
        let (available, be_held) = if ctx.fault.is_down(node.id) {
            // Crashed node: it advertises zero capacity (the snapshot
            // keeps schedulers honest between the crash and the next
            // sync) and contributes zero utilization — its containers
            // are dead.
            (Resources::ZERO, Resources::ZERO)
        } else if ctx.fault.is_phys_down(node.id) {
            // Physically dead but not yet detected: no probe answer, so
            // the store keeps the stale pre-crash row and the node
            // contributes zero utilization. The schedulers keep
            // believing the old row until the keep-alive detector trips,
            // which is exactly the cost detection lag measures.
            continue;
        } else {
            node.advance(now);
            let (lc_held, be_held) = node.demand_usage();
            let cap = node.capacity();
            if !node.is_master {
                let (lc, be) = node.actual_usage();
                overall += (lc + be).utilization_against(&cap);
                lc_frac += lc.utilization_against(&cap);
                be_frac += be.utilization_against(&cap);
            }
            let available = cap.saturating_sub(&lc_held).saturating_sub(&be_held);
            (available, be_held)
        };
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
        // Row writes reuse the store's per-node buffers — no allocation
        // in steady state.
        ctx.store.write_row(
            node.id,
            node.cluster,
            if node.is_master {
                NodeRole::Master
            } else {
                NodeRole::Worker
            },
            node.capacity(),
            available,
            be_held,
            &sync.slack,
            &sync.pending_pairs,
            now,
        );
    }
    let n_workers = ctx.nodes.iter().filter(|n| !n.is_master).count();
    if n_workers > 0 {
        let nw = n_workers as f64;
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
        // No cached row reads a factor (LC rows read the re-assurer when
        // they are built, BE rows never do), but the mirror publishes the
        // value clock in every frame, so a tick that moved a factor still
        // bumps it.
        if !adjustments.is_empty() {
            ctx.dispatch.views.invalidate_values();
        }
    }
    sched.schedule_in(ctx.cfg.reassure_interval, Event::Reassure);
}
