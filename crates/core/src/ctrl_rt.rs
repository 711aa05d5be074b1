//! Control-plane runtime stage: keep-alive failure detection, the
//! cluster-state mirror refresh, and external-proxy accounting.
//!
//! This module is the bridge between the simulation core and the
//! `tango-ctrl` crate. It owns three hooks:
//!
//! * `keepalive_tick` runs at the **top** of every sync tick. Alive
//!   nodes answer their probe (heartbeat recorded, suspicion decays);
//!   physically-down-but-undetected nodes miss, and when the miss count
//!   trips the threshold the crash becomes *detected*: limbo work and
//!   node-waiting requests go back to the schedulers, reservations are
//!   wiped, candidate views rebuild, and the detection lag (sim-time from
//!   physical crash to trip) is recorded. With `cfg.detection = None`
//!   this is a no-op and faults stay oracle-driven.
//! * `after_sync` runs at the **end** of every sync tick. It folds new
//!   proxy fallbacks into the period counters and, when a mirror is
//!   attached, publishes a full-or-delta frame keyed on the candidate
//!   view cache's structure/value clocks — a calm tick publishes nothing.
//! * The [`EdgeCloudSystem`] attach methods wire a [`MirrorHandle`] or an
//!   external LC decision source ([`ProxyBackend`]) into a built system
//!   before `run`.

use crate::config::TangoConfig;
use crate::ctx::SystemCtx;
use crate::fault_rt;
use crate::system::EdgeCloudSystem;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tango_ctrl::{
    DecisionSource, HealthDetector, MirrorHandle, MirrorNode, ProxyBackend, ProxyStats,
};
use tango_metrics::{Counter, TraceEvent};
use tango_types::{ClusterId, NodeId, SimTime};

/// Control-plane state owned by the system: the optional keep-alive
/// detector, the optional state mirror, and the attached proxies' stats.
#[derive(Default)]
pub struct CtrlState {
    /// Attached state mirror, if any (`EdgeCloudSystem::attach_mirror`).
    pub(crate) mirror: Option<MirrorHandle>,
    /// Keep-alive detector, present iff `cfg.detection` is set.
    pub(crate) detector: Option<HealthDetector>,
    /// Stats handles of every attached [`ProxyBackend`], in attach order.
    pub(crate) proxy_stats: Vec<Arc<ProxyStats>>,
}

impl CtrlState {
    /// Build from the run configuration: a detector when
    /// `cfg.detection` is set, nothing attached otherwise.
    pub(crate) fn from_config(cfg: &TangoConfig, n_nodes: usize) -> Self {
        CtrlState {
            mirror: None,
            detector: cfg
                .detection
                .clone()
                .map(|kc| HealthDetector::new(kc, n_nodes)),
            proxy_stats: Vec::new(),
        }
    }
}

/// Keep-alive probe round at the top of a sync tick. No-op without a
/// detector (oracle fault model).
pub(crate) fn keepalive_tick(ctx: &mut SystemCtx<'_>, now: SimTime) {
    // Take the detector out so the loop can hand `ctx` to lifecycle
    // helpers without aliasing the ctrl borrow.
    let Some(mut det) = ctx.ctrl.detector.take() else {
        return;
    };
    for i in 0..ctx.nodes.len() {
        let node = NodeId(i as u32);
        if ctx.fault.is_down(node) {
            continue; // already detected; recovery resets suspicion
        }
        if !ctx.fault.is_phys_down(node) {
            ctx.nodes[i].record_heartbeat(now);
            det.observe_heartbeat(node);
            continue;
        }
        // Physically down, not yet detected: a missed probe.
        if det.observe_miss(node) && ctx.fault.mark_detected(node) {
            on_detected(ctx, node, now);
        }
    }
    ctx.ctrl.detector = Some(det);
}

/// The detector tripped on `node`: record the detection lag, then run
/// the crash reaction the oracle fault model runs at crash time.
fn on_detected(ctx: &mut SystemCtx<'_>, node: NodeId, now: SimTime) {
    let lag = ctx.fault.down_duration(node, now);
    ctx.counters
        .add(now, Counter::DetectionLagUs, lag.as_micros());
    ctx.counters.add(now, Counter::Detections, 1);
    ctx.emit(now, || TraceEvent::Fault {
        kind: "detected",
        node: Some(node),
    });
    fault_rt::on_crash_detected(ctx, node, now);
    // The detected-down flag is a structural view input.
    ctx.dispatch.views.invalidate_structure();
}

/// End-of-sync control-plane bookkeeping: proxy fallback deltas into the
/// period counters, then a mirror frame if a mirror is attached.
pub(crate) fn after_sync(ctx: &mut SystemCtx<'_>, now: SimTime) {
    let total: u64 = ctx
        .ctrl
        .proxy_stats
        .iter()
        .map(|s| s.fallbacks.load(Ordering::Relaxed))
        .sum();
    // the counters already hold every fallback folded so far; with no
    // proxy attached there is nothing to fold
    if total > 0 {
        let fresh = total.saturating_sub(ctx.counters.total(Counter::ProxyFallbacks));
        if fresh > 0 {
            ctx.counters.add(now, Counter::ProxyFallbacks, fresh);
        }
    }
    let Some(mirror) = ctx.ctrl.mirror.clone() else {
        return;
    };
    let mut rows = Vec::with_capacity(ctx.nodes.len());
    for node in ctx.nodes.iter() {
        let i = node.id.index();
        // Rows exist for every node from the first sync on; an
        // undetected-crashed node keeps its stale pre-crash row — the
        // mirror reflects what the control plane believes, not ground
        // truth.
        let (total, available, be_held, slack, pending, updated_at) = match ctx.store.row(i) {
            Some(r) => (
                r.total,
                r.available,
                r.be_held,
                r.slack.to_vec(),
                r.pending.to_vec(),
                r.updated_at,
            ),
            None => (
                node.capacity(),
                tango_types::Resources::ZERO,
                tango_types::Resources::ZERO,
                Vec::new(),
                Vec::new(),
                SimTime::ZERO,
            ),
        };
        rows.push(MirrorNode {
            node: node.id,
            cluster: node.cluster,
            is_master: node.is_master,
            total,
            available,
            be_held,
            reserved: ctx.lifecycle.reserved.get(node.id),
            slack,
            pending,
            updated_at,
            alive: !ctx.fault.is_down(node.id),
            last_heartbeat: node.last_heartbeat(),
        });
    }
    mirror.publish(
        now,
        ctx.dispatch.views.structure_clock(),
        ctx.dispatch.views.value_clock(),
        rows,
    );
}

impl EdgeCloudSystem {
    /// Attach a cluster-state mirror. From the next sync tick on, every
    /// tick publishes a versioned full-or-delta frame of the believed
    /// cluster state; calm ticks (no structural or value change since
    /// the last publish) publish nothing. Returns the shared read
    /// handle. Attaching a mirror never changes scheduling decisions.
    pub fn attach_mirror(&mut self) -> MirrorHandle {
        let handle = self.ctrl.mirror.get_or_insert_with(MirrorHandle::new);
        handle.clone()
    }

    /// Route `cluster`'s LC dispatch rounds through an external decision
    /// `source`, falling back to the configured local policy whenever the
    /// source declines, replies malformed, or blows the sim-time
    /// `deadline`. Returns the proxy's outcome counters. The proxy cannot
    /// be checkpointed — snapshotting a run with a proxy attached fails
    /// loudly with `SnapError::Unsupported`.
    pub fn attach_lc_proxy(
        &mut self,
        cluster: ClusterId,
        source: Box<dyn DecisionSource + Send>,
        deadline: SimTime,
    ) -> Arc<ProxyStats> {
        let ci = cluster.index();
        let inner = self.dispatch.lc.remove(ci);
        let proxy = ProxyBackend::new(inner, source, cluster, deadline);
        let stats = proxy.stats();
        self.dispatch.lc.insert(ci, Box::new(proxy));
        self.ctrl.proxy_stats.push(Arc::clone(&stats));
        stats
    }
}
