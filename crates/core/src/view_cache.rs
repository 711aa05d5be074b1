//! Incremental candidate views — the dispatchers' replacement for
//! rebuilding `CandidateNode` sets from the state storage on every round.
//!
//! A candidate view is a pure function of three kinds of input, and
//! [`CandidateViewCache`] tracks each with its own clock:
//!
//! * **Structure**: which store rows a view holds (live workers inside
//!   the scope's clusters, reachable from its vantage, cloud rows only
//!   while the egress gate is open) and each row's link attributes. The
//!   structure clock advances once per structural event, and the event
//!   leaves a stamp saying how far it reaches:
//!   - a *cluster stamp* ([`CandidateViewCache::invalidate_cluster`]) for
//!     an event confined to one cluster's rows: a crash under the oracle
//!     fault model, a keep-alive detection, a recovery (which also
//!     resets the node's re-assurance factors), and the cloud egress
//!     gate closing;
//!   - the *global stamp* ([`CandidateViewCache::invalidate_structure`])
//!     for an event that may touch any row: link degrade and restore,
//!     partition and heal, and a committed migration.
//! * **Values**: row availability, slack and re-assured min-request. The
//!   value clock advances on every sync push and on every re-assurance
//!   tick that moved a factor; a view behind it re-reads each row's
//!   values through its membership cache (the store row per view row)
//!   without re-running the filters.
//! * **Reservations**: the dispatcher's own reservation table, which
//!   moves with every placement. Each view keeps the pre-reservation
//!   availability baseline per row, and the [`ReservationTable`]'s
//!   per-node change stamps are the dirty bits: a view that saw
//!   reservation clock `c` re-derives exactly the rows whose stamp
//!   exceeds `c` (`available = base − reserved`, saturating).
//!
//! **Segments.** A view's cluster list is the origin's geo set for an LC
//! view and every cluster for the BE-global view, in cluster order. Each
//! cluster's nodes form one contiguous id range, the master and then its
//! workers ([`ClusterRt::node_range`]), so a view's node-ordered rows
//! fall into one segment per listed cluster, and the view records where
//! each segment ends. A view built under an older structure clock
//! re-derives only the segments whose cluster stamp is newer, walking
//! only those clusters' node ranges, and splices them into its own
//! buffers. Kept segments stay as they are; the value refresh or the
//! reservation patch then catches them up, so a partial re-derivation
//! leaves the view's value and reservation clocks where they were. A
//! never-built view, or one older than the global stamp, re-derives
//! every segment: the from-scratch build is the all-stale case of the
//! same path.
//!
//! D-VPA resizes surface through node capacity, which dispatchers only
//! ever observe via sync-pushed snapshots — so the sync push's value bump
//! covers them by construction and no extra invalidation hook is needed.
//!
//! Views are keyed by `(scope, service)` and store their rows in an
//! `Arc`, so handing a round's `TypeBatch` its candidate set is a
//! refcount bump, not a clone; the next round's in-place patch
//! (`Arc::make_mut`) is alloc-free once the batches are dropped.
//!
//! The cache is deliberately *not* serialized into checkpoints: it is a
//! pure cache, rebuilt on first use after restore, and the equivalence
//! invariant guarantees a resumed run sees the same views an
//! uninterrupted run would. [`CandidateViewCache::set_verify`] checks it
//! on every query against a whole-store rebuild that filters rows by
//! cluster membership instead of trusting the node ranges.

use crate::config::TangoConfig;
use crate::lifecycle::ReservationTable;
use crate::runtime::ClusterRt;
use std::ops::Range;
use std::sync::Arc;
use tango_faults::FaultState;
use tango_hrm::Reassurer;
use tango_metrics::{NodeRole, StateStorage, StoreRow};
use tango_net::NetworkTopology;
use tango_sched::{CandidateNode, LinkObservation, NodeObservation};
use tango_types::{ClusterId, FxHashMap, NodeId, Resources, ServiceId};
use tango_workload::ServiceCatalog;

use crate::dispatch::{link_capacity, ViewScope};

/// Borrowed bundle of everything a candidate view is derived from.
pub(crate) struct ViewInputs<'a> {
    pub cfg: &'a TangoConfig,
    pub catalog: &'a ServiceCatalog,
    pub topology: &'a NetworkTopology,
    pub store: &'a StateStorage,
    pub fault: &'a FaultState,
    pub reassurer: Option<&'a Reassurer>,
    pub reserved: &'a ReservationTable,
    pub central: ClusterId,
    /// The cloud tier's cluster and whether its rows are currently
    /// admissible (egress budget not exhausted). `None` = no tier
    /// attached. Part of the inputs so view membership stays a pure
    /// function of them (the budget flip stamps the cloud cluster).
    pub cloud_gate: Option<(ClusterId, bool)>,
    /// The cluster records, indexed by `ClusterId`: a view segment walks
    /// exactly its cluster's node range.
    pub clusters: &'a [ClusterRt],
}

/// One cached `(scope, service)` view.
#[derive(Default)]
struct View {
    /// Structure clock this view was (re)derived under; 0 = never built.
    built_at: u64,
    /// Value clock the row values currently reflect.
    values_at: u64,
    /// Reservation clock the rows currently reflect.
    seen_res: u64,
    /// The candidate rows, shared with outstanding `TypeBatch`es.
    rows: Arc<Vec<CandidateNode>>,
    /// Pre-reservation LC availability baseline, parallel to `rows`.
    lc_base: Vec<Resources>,
    /// Pre-reservation BE availability baseline, parallel to `rows`.
    be_base: Vec<Resources>,
    /// Store row index per view row — the membership cache, through
    /// which a value refresh re-reads rows without re-running the
    /// filters.
    member_rows: Vec<u32>,
    /// Node id per view row, parallel to `rows` (ascending). The
    /// reservation patch scans this slim array instead of the ~100-byte
    /// candidate rows, touching `rows` (and `Arc::make_mut`'s potential
    /// clone) only on hits.
    node_ids: Vec<NodeId>,
    /// End offset of each listed cluster's segment in the row arrays,
    /// parallel to the view's cluster list.
    seg_ends: Vec<u32>,
    /// Scratch: row indices hit by the current reservation patch.
    patch_hits: Vec<u32>,
}

impl View {
    /// Drop every row, leaving `segments` empty segments to re-derive.
    fn clear(&mut self, segments: usize) {
        Arc::make_mut(&mut self.rows).clear();
        self.lc_base.clear();
        self.be_base.clear();
        self.member_rows.clear();
        self.node_ids.clear();
        self.seg_ends.clear();
        self.seg_ends.resize(segments, 0);
    }

    /// Size every row buffer to its rows. Views hold most of a run's row
    /// memory, and doubling growth would leave up to half of it unused.
    fn shrink_to_fit(&mut self) {
        Arc::make_mut(&mut self.rows).shrink_to_fit();
        self.lc_base.shrink_to_fit();
        self.be_base.shrink_to_fit();
        self.member_rows.shrink_to_fit();
        self.node_ids.shrink_to_fit();
    }
}

/// One re-derived segment, before its elements move into a view. Only
/// elements move, never buffers: each view's vectors keep a capacity of
/// their own.
#[derive(Default)]
struct Segment {
    rows: Vec<CandidateNode>,
    lc_base: Vec<Resources>,
    be_base: Vec<Resources>,
    member_rows: Vec<u32>,
    node_ids: Vec<NodeId>,
}

/// Key: origin cluster for LC scopes, `u32::MAX` for the BE-global scope.
type ViewKey = (u32, ServiceId);

fn key_of(scope: ViewScope, service: ServiceId) -> ViewKey {
    match scope {
        ViewScope::LcGeo(origin) => (origin.0, service),
        ViewScope::BeGlobal => (u32::MAX, service),
    }
}

/// The per-system cache of incremental candidate views.
pub(crate) struct CandidateViewCache {
    /// Advanced by every structural change; views re-derive lazily on
    /// next use.
    structure_clock: u64,
    /// Per cluster index: the structure clock at the cluster's latest
    /// own change (0 = none).
    cluster_stamps: Vec<u64>,
    /// The structure clock at the latest change that may touch any row.
    global_stamp: u64,
    /// Bumped when only row *values* moved (sync pushes): membership and
    /// link attributes survive, values re-read through the membership
    /// cache.
    value_clock: u64,
    views: FxHashMap<ViewKey, View>,
    /// Sorted geo-nearby cluster sets per origin. Cluster geometry is
    /// static (link degradation changes latency/bandwidth, not
    /// distance), so these never invalidate.
    geo_sets: FxHashMap<ClusterId, Vec<ClusterId>>,
    /// Every cluster in index order: the BE-global view's cluster list.
    all_clusters: Vec<ClusterId>,
    /// Scratch for the segment being re-derived.
    segment: Segment,
    /// When set, every query re-runs the whole-store build and asserts
    /// equality — the property-test hook for the delta ≡ rebuild
    /// invariant.
    verify: bool,
}

impl Default for CandidateViewCache {
    fn default() -> Self {
        CandidateViewCache {
            // Both > View::default().built_at: a fresh view is stale
            // everywhere.
            structure_clock: 1,
            global_stamp: 1,
            cluster_stamps: Vec::new(),
            value_clock: 1,
            views: FxHashMap::default(),
            geo_sets: FxHashMap::default(),
            all_clusters: Vec::new(),
            segment: Segment::default(),
            verify: false,
        }
    }
}

impl CandidateViewCache {
    /// Invalidate every view's structural basis (a change that may touch
    /// any row); each re-derives all its segments on its next use.
    pub(crate) fn invalidate_structure(&mut self) {
        self.structure_clock += 1;
        self.global_stamp = self.structure_clock;
    }

    /// Invalidate the structural basis of `cluster`'s rows only; views
    /// listing it re-derive that one segment on their next use.
    pub(crate) fn invalidate_cluster(&mut self, cluster: ClusterId) {
        self.structure_clock += 1;
        let i = cluster.index();
        if self.cluster_stamps.len() <= i {
            self.cluster_stamps.resize(i + 1, 0);
        }
        self.cluster_stamps[i] = self.structure_clock;
    }

    /// Invalidate only row values (a sync push): views keep their
    /// membership and link attributes and re-read values lazily.
    pub(crate) fn invalidate_values(&mut self) {
        self.value_clock += 1;
    }

    /// Toggle verification mode (every query cross-checked against a
    /// whole-store rebuild).
    pub(crate) fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Current structure epoch — the mirror's structural change key.
    pub(crate) fn structure_clock(&self) -> u64 {
        self.structure_clock
    }

    /// Current value epoch — bumped by every sync push.
    pub(crate) fn value_clock(&self) -> u64 {
        self.value_clock
    }

    /// The candidate view for `(scope, service)`, current as of the
    /// latest structural clock and reservation table. The returned `Arc`
    /// is a shared handle; it stays valid (and frozen) even as later
    /// queries patch the cache.
    pub(crate) fn candidates(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
        scope: ViewScope,
    ) -> Arc<Vec<CandidateNode>> {
        let Self {
            structure_clock,
            cluster_stamps,
            global_stamp,
            value_clock,
            views,
            geo_sets,
            all_clusters,
            segment,
            verify,
        } = self;
        let list: &[ClusterId] = match scope {
            ViewScope::LcGeo(origin) => geo_set_entry(geo_sets, inp, origin),
            ViewScope::BeGlobal => {
                if all_clusters.len() != inp.clusters.len() {
                    *all_clusters = inp.clusters.iter().map(|c| c.id).collect();
                }
                all_clusters
            }
        };
        let view = views.entry(key_of(scope, service)).or_default();
        if view.built_at != *structure_clock {
            let since = view.built_at;
            let full = since < *global_stamp;
            if full {
                view.clear(list.len());
            }
            let stale = |c: ClusterId| {
                full || cluster_stamps
                    .get(c.index())
                    .is_some_and(|&stamp| stamp > since)
            };
            rederive(view, inp, service, scope, list, stale, segment);
            view.built_at = *structure_clock;
            if full {
                view.shrink_to_fit();
                view.values_at = *value_clock;
                view.seen_res = inp.reserved.clock();
            }
        }
        if view.values_at != *value_clock {
            refresh_values(view, inp, service, scope);
            view.values_at = *value_clock;
        } else {
            patch_reservations(view, inp.reserved);
        }
        if *verify {
            check_view(view, inp, service, scope, list);
        }
        Arc::clone(&view.rows)
    }

    /// OR `origin`'s geo-nearby cluster set — the read *and* write
    /// footprint of its LC dispatch round — into `mask`, one bit per
    /// cluster index. The batched dispatcher uses these masks to form
    /// waves of rounds with pairwise-disjoint footprints that can plan in
    /// parallel against frozen views.
    pub(crate) fn or_geo_mask(
        &mut self,
        inp: &ViewInputs<'_>,
        origin: ClusterId,
        mask: &mut [u64],
    ) {
        for &c in geo_set_entry(&mut self.geo_sets, inp, origin) {
            mask[c.index() >> 6] |= 1 << (c.index() & 63);
        }
    }
}

/// The cached (static) geo-nearby cluster set for an LC origin: nearby
/// clusters within the configured radius plus the origin itself, sorted.
/// Cluster geometry never changes, so entries are computed once.
fn geo_set_entry<'a>(
    geo_sets: &'a mut FxHashMap<ClusterId, Vec<ClusterId>>,
    inp: &ViewInputs<'_>,
    origin: ClusterId,
) -> &'a Vec<ClusterId> {
    geo_sets.entry(origin).or_insert_with(|| {
        let mut set = if inp.cfg.local_only {
            Vec::new()
        } else {
            inp.topology.clusters_within(origin, inp.cfg.geo_radius_km)
        };
        // LC never runs on the cloud tier: only edge clusters (index
        // below `cfg.clusters`) belong in a geo set, however close the
        // tier's centroid placement puts it.
        set.retain(|c| c.index() < inp.cfg.clusters);
        set.push(origin);
        set.sort_unstable();
        set.dedup();
        set
    })
}

/// The cluster a view's links are measured from.
fn vantage(inp: &ViewInputs<'_>, scope: ViewScope) -> ClusterId {
    match scope {
        ViewScope::LcGeo(origin) => origin,
        ViewScope::BeGlobal => inp.central,
    }
}

/// Whether `cluster`'s rows may enter a view seen from `vantage` at all:
/// reachable, and not the cloud tier after its egress budget ran out.
fn cluster_admissible(inp: &ViewInputs<'_>, vantage: ClusterId, cluster: ClusterId) -> bool {
    inp.topology.is_reachable(vantage, cluster) && inp.cloud_gate != Some((cluster, false))
}

/// Link attributes are a function of (vantage, cluster, payload).
fn link_to(
    inp: &ViewInputs<'_>,
    vantage: ClusterId,
    cluster: ClusterId,
    payload_kib: u64,
) -> LinkObservation {
    LinkObservation {
        delay: inp.topology.transfer_time(vantage, cluster, payload_kib),
        capacity: link_capacity(
            inp.topology,
            inp.cfg.dispatch_interval,
            vantage,
            cluster,
            payload_kib,
        ),
    }
}

/// The row min-request for `service` under `scope`: re-assured per node
/// in LC views while any factor is in effect, else one value for every
/// row, computed once (bit-identical: it is exactly `min_request` at
/// factor 1.0).
fn min_request_fn<'a>(
    inp: &ViewInputs<'a>,
    service: ServiceId,
    scope: ViewScope,
) -> impl Fn(NodeId) -> Resources + 'a {
    let base = inp.catalog.get(service).min_request;
    let reassurer = match scope {
        ViewScope::LcGeo(_) => inp.reassurer,
        ViewScope::BeGlobal => None,
    };
    let per_row = reassurer.filter(|r| r.has_factors());
    let uniform = match reassurer {
        Some(r) if per_row.is_none() => r.min_request(NodeId(0), service, base),
        _ => base,
    };
    move |node| match per_row {
        Some(r) => r.min_request(node, service, base),
        None => uniform,
    }
}

/// The candidate row for one store row, with reservation-adjusted
/// availabilities.
fn candidate(
    row: &StoreRow<'_>,
    service: ServiceId,
    link: LinkObservation,
    min_request: Resources,
    reserved: Resources,
) -> CandidateNode {
    let obs = NodeObservation {
        node: row.node,
        cluster: row.cluster,
        total: row.total,
        available_lc: row.lc_available(),
        available_be: row.be_available(),
        slack: row.slack_for(service).unwrap_or(1.0),
    };
    CandidateNode::from_observation(obs, link, min_request, reserved, true)
}

/// Re-derive, in list order, the segments of `view` whose cluster is
/// `stale`, splicing each into the view's own buffers; kept segments stay
/// as they are. A cleared view (every segment empty) is built from
/// scratch this way.
fn rederive(
    view: &mut View,
    inp: &ViewInputs<'_>,
    service: ServiceId,
    scope: ViewScope,
    list: &[ClusterId],
    stale: impl Fn(ClusterId) -> bool,
    seg: &mut Segment,
) {
    debug_assert_eq!(view.seg_ends.len(), list.len());
    let vantage = vantage(inp, scope);
    let min_request = min_request_fn(inp, service, scope);
    let payload_kib = inp.catalog.get(service).payload_kib;
    // `old_end` walks the segment bounds as recorded, `at` the arrays as
    // spliced so far: segment k currently sits at `at..at + old_len`.
    let (mut old_end, mut at) = (0usize, 0usize);
    for (k, &c) in list.iter().enumerate() {
        let old_len = view.seg_ends[k] as usize - old_end;
        old_end = view.seg_ends[k] as usize;
        let mut len = old_len;
        if stale(c) {
            derive_segment(
                inp,
                service,
                vantage,
                payload_kib,
                &min_request,
                &inp.clusters[c.index()],
                seg,
            );
            len = seg.node_ids.len();
            let old = at..at + old_len;
            splice(Arc::make_mut(&mut view.rows), &old, &mut seg.rows);
            splice(&mut view.lc_base, &old, &mut seg.lc_base);
            splice(&mut view.be_base, &old, &mut seg.be_base);
            splice(&mut view.member_rows, &old, &mut seg.member_rows);
            splice(&mut view.node_ids, &old, &mut seg.node_ids);
        }
        at += len;
        view.seg_ends[k] = at as u32;
    }
    // The reservation patch binary-searches rows by node id; segments
    // follow the node ranges in order, so this holds by construction.
    debug_assert!(view.node_ids.windows(2).all(|w| w[0] < w[1]));
}

/// Move `src`'s elements into `dst` in place of the elements in `old`.
fn splice<T>(dst: &mut Vec<T>, old: &Range<usize>, src: &mut Vec<T>) {
    dst.splice(old.clone(), src.drain(..));
}

/// Derive `cluster`'s segment into `seg`: walk exactly the cluster's
/// node range of the node-dense store and keep its live workers,
/// annotated with the cluster's link observation and the
/// reservation-adjusted availabilities.
fn derive_segment(
    inp: &ViewInputs<'_>,
    service: ServiceId,
    vantage: ClusterId,
    payload_kib: u64,
    min_request: &impl Fn(NodeId) -> Resources,
    cluster: &ClusterRt,
    seg: &mut Segment,
) {
    debug_assert!(seg.rows.is_empty() && seg.node_ids.is_empty());
    if !cluster_admissible(inp, vantage, cluster.id) {
        return;
    }
    let mut link = None;
    for i in cluster.node_range() {
        let Some(row) = inp.store.row(i) else {
            continue;
        };
        debug_assert_eq!(
            row.cluster, cluster.id,
            "store row {i} lies outside its cluster's node range"
        );
        if row.role != NodeRole::Worker || inp.fault.is_down(row.node) {
            continue;
        }
        let link = *link.get_or_insert_with(|| link_to(inp, vantage, cluster.id, payload_kib));
        seg.lc_base.push(row.lc_available());
        seg.be_base.push(row.be_available());
        seg.member_rows.push(i as u32);
        seg.node_ids.push(row.node);
        seg.rows.push(candidate(
            &row,
            service,
            link,
            min_request(row.node),
            inp.reserved.get(row.node),
        ));
    }
}

/// The `set_verify` oracle: compare `view` with a whole-store rebuild,
/// and check that each recorded segment holds only its cluster's rows.
fn check_view(
    view: &View,
    inp: &ViewInputs<'_>,
    service: ServiceId,
    scope: ViewScope,
    list: &[ClusterId],
) {
    let geo = match scope {
        ViewScope::LcGeo(_) => Some(list),
        ViewScope::BeGlobal => None,
    };
    assert_eq!(
        *view.rows,
        rebuild(inp, service, scope, geo),
        "candidate view cache diverged from full rebuild \
         (service {service:?}, scope {scope:?})"
    );
    let mut start = 0;
    for (&c, &end) in list.iter().zip(&view.seg_ends) {
        let end = end as usize;
        assert!(
            view.rows[start..end].iter().all(|r| r.cluster == c),
            "segment of cluster {c:?} holds foreign rows (scope {scope:?})"
        );
        start = end;
    }
    assert_eq!(start, view.rows.len(), "segments do not cover the view");
}

/// The oracle's reference build: iterate every store row in node-id
/// order, filtering by cluster membership (not by the node ranges the
/// segment walk trusts) exactly as the dispatchers always have — workers
/// only, live, reachable, in the geo set for LC scopes.
fn rebuild(
    inp: &ViewInputs<'_>,
    service: ServiceId,
    scope: ViewScope,
    geo: Option<&[ClusterId]>,
) -> Vec<CandidateNode> {
    let vantage = vantage(inp, scope);
    let min_request = min_request_fn(inp, service, scope);
    let payload_kib = inp.catalog.get(service).payload_kib;
    let mut rows = Vec::new();
    for i in 0..inp.store.rows() {
        let Some(row) = inp.store.row(i) else {
            continue;
        };
        if row.role != NodeRole::Worker
            || geo.is_some_and(|set| set.binary_search(&row.cluster).is_err())
            || inp.fault.is_down(row.node)
            || !cluster_admissible(inp, vantage, row.cluster)
        {
            continue;
        }
        rows.push(candidate(
            &row,
            service,
            link_to(inp, vantage, row.cluster, payload_kib),
            min_request(row.node),
            inp.reserved.get(row.node),
        ));
    }
    rows
}

/// Re-read row *values* (availability, slack, re-assured min-request)
/// through the membership cache after a sync push or re-assure tick.
/// Membership and link attributes are structure-stable and survive
/// untouched.
fn refresh_values(view: &mut View, inp: &ViewInputs<'_>, service: ServiceId, scope: ViewScope) {
    let min_request = min_request_fn(inp, service, scope);
    let rows = Arc::make_mut(&mut view.rows);
    for (k, &ri) in view.member_rows.iter().enumerate() {
        let row = inp
            .store
            .row(ri as usize)
            .expect("store membership is stable between structural bumps");
        let c = &mut rows[k];
        let r = inp.reserved.get(c.node);
        view.lc_base[k] = row.lc_available();
        view.be_base[k] = row.be_available();
        c.total = row.total;
        c.available_lc = view.lc_base[k].saturating_sub(&r);
        c.available_be = view.be_base[k].saturating_sub(&r);
        c.slack = row.slack_for(service).unwrap_or(1.0);
        c.min_request = min_request(c.node);
    }
    view.seen_res = inp.reserved.clock();
}

/// Refresh exactly the rows whose reservation changed since the view last
/// looked. `Arc::make_mut` patches in place when no batch still holds the
/// previous rows, and copy-on-writes otherwise (outstanding batches keep
/// their frozen snapshot).
fn patch_reservations(view: &mut View, reserved: &ReservationTable) {
    let clock = reserved.clock();
    if view.seen_res == clock {
        return;
    }
    let seen = view.seen_res;
    // Journal fast path: when the reservation table still remembers every
    // change since `seen` and the change list is small relative to the
    // view, visit only the changed nodes (binary search by node id)
    // instead of scanning every row. A first read-only pass finds whether
    // any change hits this view at all, so untouched views never
    // copy-on-write rows shared with outstanding batches.
    if let Some((n, probe)) = reserved.changes_since(seen) {
        if n * 4 <= view.rows.len() {
            view.patch_hits.clear();
            for node in probe {
                if let Ok(k) = view.node_ids.binary_search(&node) {
                    view.patch_hits.push(k as u32);
                }
            }
            if !view.patch_hits.is_empty() {
                let rows = Arc::make_mut(&mut view.rows);
                for &k in &view.patch_hits {
                    let k = k as usize;
                    let r = reserved.get(view.node_ids[k]);
                    rows[k].available_lc = view.lc_base[k].saturating_sub(&r);
                    rows[k].available_be = view.be_base[k].saturating_sub(&r);
                }
            }
            view.seen_res = clock;
            return;
        }
    }
    // Full scan over the slim node-id array; the fat candidate rows are
    // only touched (and `Arc::make_mut` only pays a potential clone) when
    // some row actually changed.
    view.patch_hits.clear();
    for (i, &node) in view.node_ids.iter().enumerate() {
        if reserved.stamp(node) > seen {
            view.patch_hits.push(i as u32);
        }
    }
    if !view.patch_hits.is_empty() {
        let rows = Arc::make_mut(&mut view.rows);
        for &k in &view.patch_hits {
            let k = k as usize;
            let r = reserved.get(view.node_ids[k]);
            rows[k].available_lc = view.lc_base[k].saturating_sub(&r);
            rows[k].available_be = view.be_base[k].saturating_sub(&r);
        }
    }
    view.seen_res = clock;
}
