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
//!   tick that moved a factor. Values live in one table per service
//!   (below), never in a view.
//! * **Reservations**: the dispatcher's own reservation table, which
//!   moves with every placement. A row subtracts its node's current
//!   reservation from the table's pre-reservation bases when it is built
//!   (`available = base − reserved`, saturating).
//!
//! **An LC view is its structure.** It keeps the store rows it holds in
//! segment order, where each segment ends, the link toward each segment's
//! cluster and its delay order, and no rows. A dispatch round first
//! brings the views of its types current
//! ([`CandidateViewCache::prepare_lc`]: the value tables and the stale
//! segments, moving `u32`s), then lends each batch an [`LcRows`] accessor
//! ([`CandidateViewCache::lc_rows`]) that builds row `i` when a scheduler
//! reads it, from the value-table entry of its store row, the node's
//! current reservation and its segment's link and cluster. DSS-LC reads a
//! few rows per plan of a view's ~200. A row read at plan time sees the
//! reservations the round's upkeep saw: the round commits only after
//! planning, planning writes no table, and no other round runs in
//! between.
//!
//! **BE-global views keep rows.** Every BE pick reads every row of its
//! service's global view, so that view keeps its rows materialised
//! ([`CandidateViewCache::be_candidates`]): built in full after a
//! re-derivation or a value-clock move, otherwise patched where a
//! reservation changed. The [`ReservationTable`]'s per-node change stamps
//! (and its journal) are the dirty bits: a view that saw reservation clock
//! `c` rebuilds exactly the rows whose stamp exceeds `c`. One row builder
//! ([`build_row`]) serves the LC accessor and the BE rows alike.
//!
//! **Value tables.** A worker's row sits in every view whose cluster list
//! holds its cluster, about 20 LC views per service at paper scale, so
//! its values are computed once per service rather than once per view.
//! Each queried service has one table with, per store row, the total,
//! the LC and BE availability before reservations, the slack for the
//! service and the LC-scope re-assured min-request. A query brings its
//! service's table current before any row is built: every row after a
//! value-clock move or a newer global stamp, otherwise the node range of
//! each cluster stamped since the table's last upkeep. The value clock
//! alone would not do: a recovery resets its node's re-assurance factors
//! and stamps only its cluster. Every row the cache builds reads the
//! table; the `set_verify` oracle never does, so it checks the table too.
//!
//! **Segments.** A view's cluster list is the origin's geo set for an LC
//! view and every cluster for the BE-global view, in cluster order. Each
//! cluster's nodes form one contiguous id range, the master and then its
//! workers ([`ClusterRt::node_range`]), so a view's node-ordered store
//! rows fall into one segment per listed cluster, and the view records
//! where each segment ends. A view built under an older structure clock
//! re-derives only the segments whose cluster stamp is newer, walking
//! only those clusters' node ranges, in one pass: it derives every stale
//! segment's store rows into a scratch, then lays its own list out anew
//! ([`relayout`]), moving each kept segment at most once (those moving
//! left in list order, those moving right in reverse list order, so no
//! move overwrites rows still to move) and copying the derived rows in.
//! Each stale segment takes its cluster's link afresh. A never-built
//! view, or one older than the global stamp, is cleared and derives every
//! segment straight into its own list.
//!
//! **Delay order.** Each LC view also derives its rows' fill order for
//! DSS-LC, row indices in ascending `(delay, node)` order
//! ([`tango_sched::delay_order`]). Like membership it is structural, and
//! only a re-derivation that derived some segment (full or partial)
//! rebuilds it. A segment's rows share their cluster's link, so its delay
//! is one value. The order is therefore the non-empty segments sorted by
//! `(link delay, list position)`, rows ascending inside each; list
//! position is node order because the node ranges ascend in cluster
//! order. That sorts a view's ~20 segments instead of its ~200 rows.
//!
//! D-VPA resizes surface through node capacity, which dispatchers only
//! ever observe via sync-pushed snapshots — so the sync push's value bump
//! covers them by construction and no extra invalidation hook is needed.
//!
//! The cache is deliberately *not* serialized into checkpoints: it is a
//! pure cache, rebuilt on first use after restore, and the equivalence
//! invariant guarantees a resumed run sees the same views an
//! uninterrupted run would. [`CandidateViewCache::set_verify`] checks it
//! on every query: it materialises each LC view's rows through the
//! accessor and compares them, and each BE view's rows, with a
//! whole-store rebuild that reads the store and the re-assurer directly
//! and filters rows by cluster membership instead of trusting the node
//! ranges, and checks the delay order against a plain sort of the rows.

use crate::config::TangoConfig;
use crate::lifecycle::ReservationTable;
use crate::runtime::ClusterRt;
use std::ops::Range;
use tango_faults::FaultState;
use tango_hrm::Reassurer;
use tango_metrics::{NodeRole, StateStorage, StoreRow};
use tango_net::NetworkTopology;
use tango_sched::{delay_order, CandidateNode, CandidateRows, LinkObservation, NodeObservation};
use tango_types::{ClusterId, FxHashMap, NodeId, Resources, ServiceId, SimTime};
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

/// The link an empty segment records; no row reads it.
const NO_LINK: LinkObservation = LinkObservation {
    delay: SimTime::ZERO,
    capacity: 0,
};

/// One cached view's structure: the store rows it holds, in segment
/// order, and the link toward each segment's cluster.
#[derive(Default)]
struct View {
    /// Structure clock this view was (re)derived under; 0 = never built.
    built_at: u64,
    /// Store row per view row, ascending. Store row `i` is node `i`.
    member_rows: Vec<u32>,
    /// End offset of each listed cluster's segment in `member_rows`,
    /// parallel to the view's cluster list.
    seg_ends: Vec<u32>,
    /// The link toward each listed cluster, parallel to `seg_ends`: every
    /// row of a segment shares it. [`NO_LINK`] for an empty segment.
    seg_links: Vec<LinkObservation>,
    /// LC views: row indices in ascending `(delay, node)` order, rebuilt
    /// after every re-derivation. BE views leave it empty.
    by_delay: Vec<u32>,
}

impl View {
    /// The segment holding row `i`.
    fn segment_of(&self, i: usize) -> usize {
        self.seg_ends.partition_point(|&end| end as usize <= i)
    }
}

/// One service's BE-global view: its structure and its rows, which every
/// BE pick reads in full.
#[derive(Default)]
struct BeView {
    view: View,
    rows: Vec<CandidateNode>,
    /// Value clock the rows reflect.
    values_at: u64,
    /// Reservation clock the rows reflect.
    seen_res: u64,
    /// Scratch: row indices hit by the current reservation patch.
    patch_hits: Vec<u32>,
}

/// One listed cluster's part in a partial re-derivation.
#[derive(Clone, Copy, Debug)]
enum Part {
    /// The segment keeps its rows.
    Kept,
    /// The segment's rows become the derived rows `start..start + len`.
    Fresh { start: u32, len: u32 },
}

/// Scratch shared by every view's re-derivation. Only elements move
/// between it and a view, never buffers: each view's vectors keep a
/// capacity of their own.
#[derive(Default)]
struct Scratch {
    /// The store rows of the segments being re-derived, in list order.
    fresh: Vec<u32>,
    /// Each listed cluster's part in a partial re-derivation.
    parts: Vec<Part>,
    /// `(delay, list position)` per non-empty segment, for sorting a
    /// view's segments into delay order.
    seg_order: Vec<(SimTime, u32)>,
}

/// What a candidate row reads from one store row for one service.
#[derive(Clone, Copy, Default)]
struct RowValues {
    total: Resources,
    /// LC availability before reservations.
    lc: Resources,
    /// BE availability before reservations.
    be: Resources,
    slack: f64,
    /// The LC-scope (re-assured) min-request.
    min_request: Resources,
}

/// One service's [`RowValues`] per store row, shared by every view of the
/// service.
#[derive(Default)]
struct ValueTable {
    /// Value clock the rows reflect; 0 = never computed.
    values_at: u64,
    /// Structure clock at the last upkeep: rows of the clusters stamped
    /// after it are out of date.
    stamped_at: u64,
    rows: Vec<RowValues>,
}

impl ValueTable {
    /// Recompute the rows of the store rows in `range`, with exactly the
    /// expressions the oracle's reference build uses.
    fn compute(&mut self, inp: &ViewInputs<'_>, service: ServiceId, range: Range<usize>) {
        let min_request = min_request_fn(inp.catalog, service, inp.reassurer);
        for i in range {
            if let Some(row) = inp.store.row(i) {
                self.rows[i] = RowValues {
                    total: row.total,
                    lc: row.lc_available(),
                    be: row.be_available(),
                    slack: row.slack_for(service).unwrap_or(1.0),
                    min_request: min_request(row.node),
                };
            }
        }
    }
}

/// The structure clock and its stamps.
struct StructureClock {
    /// Advanced by every structural change; views re-derive lazily on
    /// next use.
    now: u64,
    /// Per cluster index: the clock at the cluster's latest own change
    /// (0 = none).
    cluster_stamps: Vec<u64>,
    /// The clock at the latest change that may touch any row.
    global_stamp: u64,
}

/// The per-system cache of incremental candidate views.
pub(crate) struct CandidateViewCache {
    structure: StructureClock,
    /// Bumped when only row *values* moved (sync pushes): membership and
    /// link attributes survive, values re-read from the value tables.
    value_clock: u64,
    /// LC views by `(origin, service)`.
    lc_views: FxHashMap<(ClusterId, ServiceId), View>,
    /// Per service index: its BE-global view.
    be_views: Vec<BeView>,
    /// Per service index: its value table, filled on the service's first
    /// query.
    tables: Vec<ValueTable>,
    /// Sorted geo-nearby cluster sets per origin. Cluster geometry is
    /// static (link degradation changes latency/bandwidth, not
    /// distance), so these never invalidate.
    geo_sets: FxHashMap<ClusterId, Vec<ClusterId>>,
    /// Every cluster in index order: the BE-global view's cluster list.
    all_clusters: Vec<ClusterId>,
    scratch: Scratch,
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
            structure: StructureClock {
                now: 1,
                cluster_stamps: Vec::new(),
                global_stamp: 1,
            },
            // > ValueTable::default().values_at: a fresh table is
            // computed in full.
            value_clock: 1,
            lc_views: FxHashMap::default(),
            be_views: Vec::new(),
            tables: Vec::new(),
            geo_sets: FxHashMap::default(),
            all_clusters: Vec::new(),
            scratch: Scratch::default(),
            verify: false,
        }
    }
}

impl CandidateViewCache {
    /// Invalidate every view's structural basis (a change that may touch
    /// any row); each re-derives all its segments on its next use.
    pub(crate) fn invalidate_structure(&mut self) {
        self.structure.now += 1;
        self.structure.global_stamp = self.structure.now;
    }

    /// Invalidate the structural basis of `cluster`'s rows only; views
    /// listing it re-derive that one segment on their next use.
    pub(crate) fn invalidate_cluster(&mut self, cluster: ClusterId) {
        self.structure.now += 1;
        let stamps = &mut self.structure.cluster_stamps;
        let i = cluster.index();
        if stamps.len() <= i {
            stamps.resize(i + 1, 0);
        }
        stamps[i] = self.structure.now;
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
        self.structure.now
    }

    /// Current value epoch — bumped by every sync push.
    pub(crate) fn value_clock(&self) -> u64 {
        self.value_clock
    }

    /// Bring the LC view of `service` seen from `origin` current for a
    /// dispatch round: the service's value table and the view's
    /// structure. [`Self::lc_rows`] then lends its rows, until the round
    /// commits.
    pub(crate) fn prepare_lc(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
        origin: ClusterId,
    ) {
        self.bring_table_current(inp, service);
        let list = geo_set_entry(&mut self.geo_sets, inp, origin);
        let scope = ViewScope::LcGeo(origin);
        let src = RowSource::new(inp, &self.tables[service.index()], service, scope);
        let view = self.lc_views.entry((origin, service)).or_default();
        if update_structure(view, &src, list, &self.structure, &mut self.scratch) {
            order_by_delay(view, &mut self.scratch.seg_order);
        }
        if self.verify {
            let rows = self.lc_rows(inp, service, origin);
            check_view(
                &rows.to_vec(),
                rows.view,
                inp,
                service,
                scope,
                rows.clusters,
            );
        }
    }

    /// The rows of the LC view that [`Self::prepare_lc`] brought current
    /// in this round, each built when a scheduler reads it.
    pub(crate) fn lc_rows<'a>(
        &'a self,
        inp: &ViewInputs<'a>,
        service: ServiceId,
        origin: ClusterId,
    ) -> LcRows<'a> {
        let view = self
            .lc_views
            .get(&(origin, service))
            .expect("an LC view is prepared before its rows are lent");
        let table = &self.tables[service.index()];
        debug_assert!(
            view.built_at == self.structure.now
                && table.values_at == self.value_clock
                && table.stamped_at == self.structure.now,
            "LC rows lent without their round's upkeep"
        );
        LcRows {
            view,
            table,
            reserved: inp.reserved,
            clusters: &self.geo_sets[&origin],
        }
    }

    /// The BE-global candidate rows of `service`, current as of the
    /// latest clocks and reservation table.
    pub(crate) fn be_candidates(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
    ) -> &[CandidateNode] {
        self.bring_table_current(inp, service);
        if self.all_clusters.len() != inp.clusters.len() {
            self.all_clusters = inp.clusters.iter().map(|c| c.id).collect();
        }
        let i = service.index();
        if self.be_views.len() <= i {
            self.be_views.resize_with(i + 1, BeView::default);
        }
        let scope = ViewScope::BeGlobal;
        let src = RowSource::new(inp, &self.tables[i], service, scope);
        let list = &self.all_clusters;
        let be = &mut self.be_views[i];
        let derived =
            update_structure(&mut be.view, &src, list, &self.structure, &mut self.scratch);
        if derived || be.values_at != self.value_clock {
            materialise(be, &src, list);
            be.values_at = self.value_clock;
            be.seen_res = inp.reserved.clock();
        } else {
            patch_reservations(be, &src, list);
        }
        if self.verify {
            check_view(&be.rows, &be.view, inp, service, scope, list);
        }
        &be.rows
    }

    /// Bring `service`'s value table current: every row after a
    /// value-clock move or a newer global stamp, otherwise the node range
    /// of each cluster stamped since the table's last upkeep (a recovery
    /// resets its node's re-assurance factors and stamps only its
    /// cluster; the value clock does not move).
    fn bring_table_current(&mut self, inp: &ViewInputs<'_>, service: ServiceId) {
        let i = service.index();
        if self.tables.len() <= i {
            self.tables.resize_with(i + 1, ValueTable::default);
        }
        let table = &mut self.tables[i];
        if table.values_at == self.value_clock && table.stamped_at == self.structure.now {
            return;
        }
        if table.values_at != self.value_clock || table.stamped_at < self.structure.global_stamp {
            table.rows.resize(inp.store.rows(), RowValues::default());
            table.compute(inp, service, 0..inp.store.rows());
        } else {
            for (c, &stamp) in self.structure.cluster_stamps.iter().enumerate() {
                if stamp > table.stamped_at {
                    table.compute(inp, service, inp.clusters[c].node_range());
                }
            }
        }
        table.values_at = self.value_clock;
        table.stamped_at = self.structure.now;
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

/// The row min-request for `service` under `reassurer`: re-assured per
/// node while any factor is in effect, else one value for every row,
/// computed once (bit-identical: it is exactly `min_request` at factor
/// 1.0). Without a re-assurer it is the catalog base.
fn min_request_fn<'a>(
    catalog: &ServiceCatalog,
    service: ServiceId,
    reassurer: Option<&'a Reassurer>,
) -> impl Fn(NodeId) -> Resources + 'a {
    let base = catalog.get(service).min_request;
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

/// The oracle's candidate row for one store row, with
/// reservation-adjusted availabilities.
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

/// The one row builder: the candidate row of store row `store_row` from
/// its value-table entry, the node's current reservation, its segment's
/// link and cluster, and the scope's min-request. The LC accessor and the
/// BE views build every row here; the oracle's [`rebuild`] goes through
/// `CandidateNode::from_observation` instead, so that it checks this.
fn build_row(
    store_row: u32,
    v: &RowValues,
    reserved: Resources,
    link: LinkObservation,
    cluster: ClusterId,
    min_request: Resources,
) -> CandidateNode {
    CandidateNode {
        node: NodeId(store_row),
        cluster,
        total: v.total,
        available_lc: v.lc.saturating_sub(&reserved),
        available_be: v.be.saturating_sub(&reserved),
        min_request,
        delay: link.delay,
        link_capacity: link.capacity,
        slack: v.slack,
        alive: true,
    }
}

/// An LC view's rows, each built when a scheduler reads it: what a
/// dispatch round lends each batch.
pub(crate) struct LcRows<'a> {
    view: &'a View,
    table: &'a ValueTable,
    reserved: &'a ReservationTable,
    /// The view's cluster list: segment `k` holds `clusters[k]`'s rows.
    clusters: &'a [ClusterId],
}

impl<'a> LcRows<'a> {
    /// The rows' DSS-LC fill order.
    pub(crate) fn by_delay(&self) -> &'a [u32] {
        &self.view.by_delay
    }
}

impl CandidateRows for LcRows<'_> {
    fn len(&self) -> usize {
        self.view.member_rows.len()
    }

    fn row(&self, i: usize) -> CandidateNode {
        let store_row = self.view.member_rows[i];
        let k = self.view.segment_of(i);
        let v = &self.table.rows[store_row as usize];
        build_row(
            store_row,
            v,
            self.reserved.get(NodeId(store_row)),
            self.view.seg_links[k],
            self.clusters[k],
            v.min_request,
        )
    }
}

/// What one view's structure is derived from, and its BE rows built
/// from: the inputs, the service's value table (current for this query)
/// and the scope's link vantage.
struct RowSource<'a, 'i> {
    inp: &'a ViewInputs<'i>,
    table: &'a ValueTable,
    vantage: ClusterId,
    payload_kib: u64,
    /// The service's catalog min-request, which every BE-global row
    /// carries (an LC row carries the table's re-assured one).
    be_min_request: Resources,
}

impl<'a, 'i> RowSource<'a, 'i> {
    fn new(
        inp: &'a ViewInputs<'i>,
        table: &'a ValueTable,
        service: ServiceId,
        scope: ViewScope,
    ) -> Self {
        let spec = inp.catalog.get(service);
        RowSource {
            inp,
            table,
            vantage: vantage(inp, scope),
            payload_kib: spec.payload_kib,
            be_min_request: spec.min_request,
        }
    }

    /// The BE-global row of store row `i` in a segment with `link`
    /// toward `cluster`. A view only ever holds a present worker: store
    /// membership is stable between structural bumps.
    fn be_row(&self, i: u32, link: LinkObservation, cluster: ClusterId) -> CandidateNode {
        debug_assert!(
            self.inp
                .store
                .row(i as usize)
                .is_some_and(|row| row.role == NodeRole::Worker),
            "store row {i} left a view's membership without a structural bump"
        );
        let v = &self.table.rows[i as usize];
        build_row(
            i,
            v,
            self.inp.reserved.get(NodeId(i)),
            link,
            cluster,
            self.be_min_request,
        )
    }
}

/// Bring `view`'s structure current under `clock`: derive every segment
/// afresh when the view was never built or is older than the global
/// stamp, otherwise re-derive only the segments whose cluster was stamped
/// since. Returns whether any segment was derived; a catch-up (no listed
/// cluster stamped since) moves no row.
fn update_structure(
    view: &mut View,
    src: &RowSource<'_, '_>,
    list: &[ClusterId],
    clock: &StructureClock,
    scratch: &mut Scratch,
) -> bool {
    let since = view.built_at;
    if since == clock.now {
        return false;
    }
    view.built_at = clock.now;
    if since < clock.global_stamp {
        build(view, src, list);
        return true;
    }
    let stale = |c: ClusterId| {
        clock
            .cluster_stamps
            .get(c.index())
            .is_some_and(|&stamp| stamp > since)
    };
    rederive(view, src, list, stale, scratch)
}

/// Build `view`'s structure from scratch: derive every listed cluster's
/// segment straight into its own arrays.
fn build(view: &mut View, src: &RowSource<'_, '_>, list: &[ClusterId]) {
    view.member_rows.clear();
    view.seg_ends.clear();
    view.seg_links.clear();
    for &c in list {
        let link = derive_segment(src, &src.inp.clusters[c.index()], &mut view.member_rows);
        view.seg_ends.push(view.member_rows.len() as u32);
        view.seg_links.push(link);
    }
    // Views hold most of a run's index memory, and doubling growth would
    // leave up to half of it unused.
    view.member_rows.shrink_to_fit();
    // The reservation patch binary-searches rows by node id; segments
    // follow the node ranges in order, so this holds by construction.
    debug_assert!(view.member_rows.windows(2).all(|w| w[0] < w[1]));
}

/// Re-derive the segments of `view` whose cluster is `stale` in one pass:
/// derive each one's store rows into the scratch in list order, then lay
/// the view's list out anew, moving each kept row at most once. Returns
/// whether any segment was re-derived.
fn rederive(
    view: &mut View,
    src: &RowSource<'_, '_>,
    list: &[ClusterId],
    stale: impl Fn(ClusterId) -> bool,
    scratch: &mut Scratch,
) -> bool {
    debug_assert_eq!(view.seg_ends.len(), list.len());
    let Scratch { fresh, parts, .. } = scratch;
    fresh.clear();
    parts.clear();
    let mut any = false;
    for (k, &c) in list.iter().enumerate() {
        if !stale(c) {
            parts.push(Part::Kept);
            continue;
        }
        let start = fresh.len();
        view.seg_links[k] = derive_segment(src, &src.inp.clusters[c.index()], fresh);
        parts.push(Part::Fresh {
            start: start as u32,
            len: (fresh.len() - start) as u32,
        });
        any = true;
    }
    if !any {
        return false;
    }
    relayout(&mut view.member_rows, &view.seg_ends, parts, fresh);
    relayout_ends(&mut view.seg_ends, parts);
    debug_assert!(view.member_rows.windows(2).all(|w| w[0] < w[1]));
    true
}

/// Lay `v` out anew in one pass. Segment `k` of `v` ends at `ends[k]`;
/// `parts[k]` keeps it, or replaces it with `derived[start..start + len]`.
/// Each kept segment moves at most once, straight to its new offset:
/// those moving left in list order, then those moving right in reverse
/// list order, so no move lands on rows still to move. The reverse walk
/// copies the derived rows in too, once no kept row still to move lies
/// under their new place.
fn relayout(v: &mut Vec<u32>, ends: &[u32], parts: &[Part], derived: &[u32]) {
    debug_assert_eq!(ends.len(), parts.len());
    debug_assert_eq!(v.len(), ends.last().map_or(0, |&e| e as usize));
    let old = |k: usize| k.checked_sub(1).map_or(0, |p| ends[p] as usize)..ends[k] as usize;
    let new_len = |k: usize| match parts[k] {
        Part::Kept => old(k).len(),
        Part::Fresh { len, .. } => len as usize,
    };
    let new_total: usize = (0..parts.len()).map(new_len).sum();
    // Room for the segments that move right. The layout grows by at most
    // the derived rows, which serve as filler: every slot is overwritten.
    v.extend_from_slice(&derived[..new_total.saturating_sub(v.len())]);
    let mut at = 0;
    for (k, part) in parts.iter().enumerate() {
        if matches!(part, Part::Kept) && at < old(k).start {
            v.copy_within(old(k), at);
        }
        at += new_len(k);
    }
    for (k, part) in parts.iter().enumerate().rev() {
        at -= new_len(k);
        match *part {
            Part::Kept if at > old(k).start => v.copy_within(old(k), at),
            Part::Kept => {}
            Part::Fresh { start, len } => {
                let fresh = &derived[start as usize..][..len as usize];
                v[at..at + fresh.len()].copy_from_slice(fresh);
            }
        }
    }
    v.truncate(new_total);
}

/// Rewrite the segment ends `ends` for the layout [`relayout`] gives.
fn relayout_ends(ends: &mut [u32], parts: &[Part]) {
    let (mut old_start, mut at) = (0, 0);
    for (end, part) in ends.iter_mut().zip(parts) {
        at += match *part {
            Part::Kept => *end - old_start,
            Part::Fresh { len, .. } => len,
        };
        old_start = *end;
        *end = at;
    }
}

/// Rebuild `view.by_delay` from its segments: sort the non-empty ones
/// by `(link delay, list position)`, every row of a segment sharing its
/// cluster's link, and list each one's rows in order. The keys are
/// unique, so the unstable sort is deterministic, and list position
/// breaks delay ties in node order.
fn order_by_delay(view: &mut View, seg_order: &mut Vec<(SimTime, u32)>) {
    seg_order.clear();
    let mut start = 0;
    for (k, (&end, link)) in view.seg_ends.iter().zip(&view.seg_links).enumerate() {
        if end > start {
            seg_order.push((link.delay, k as u32));
        }
        start = end;
    }
    seg_order.sort_unstable();
    let order = &mut view.by_delay;
    order.clear();
    order.reserve_exact(view.member_rows.len());
    for &(_, k) in seg_order.iter() {
        let k = k as usize;
        let start = k.checked_sub(1).map_or(0, |p| view.seg_ends[p]);
        order.extend(start..view.seg_ends[k]);
    }
}

/// Derive `cluster`'s segment: walk exactly the cluster's node range of
/// the node-dense store, push the store rows of its live workers onto
/// `out`, and return the link toward the cluster ([`NO_LINK`] for an
/// empty segment).
fn derive_segment(
    src: &RowSource<'_, '_>,
    cluster: &ClusterRt,
    out: &mut Vec<u32>,
) -> LinkObservation {
    let inp = src.inp;
    if !cluster_admissible(inp, src.vantage, cluster.id) {
        return NO_LINK;
    }
    let start = out.len();
    for i in cluster.node_range() {
        let Some(row) = inp.store.row(i) else {
            continue;
        };
        debug_assert_eq!(
            row.cluster, cluster.id,
            "store row {i} lies outside its cluster's node range"
        );
        debug_assert_eq!(row.node, NodeId(i as u32));
        if row.role != NodeRole::Worker || inp.fault.is_down(row.node) {
            continue;
        }
        out.push(i as u32);
    }
    if out.len() > start {
        link_to(inp, src.vantage, cluster.id, src.payload_kib)
    } else {
        NO_LINK
    }
}

/// Build every row of a BE view from its structure, into a buffer sized
/// to them (doubling growth would leave a third of it unused).
fn materialise(be: &mut BeView, src: &RowSource<'_, '_>, list: &[ClusterId]) {
    let BeView { view, rows, .. } = be;
    rows.clear();
    rows.reserve_exact(view.member_rows.len());
    let mut start = 0;
    for (k, &end) in view.seg_ends.iter().enumerate() {
        let end = end as usize;
        let (link, cluster) = (view.seg_links[k], list[k]);
        rows.extend(
            view.member_rows[start..end]
                .iter()
                .map(|&i| src.be_row(i, link, cluster)),
        );
        start = end;
    }
}

/// Rebuild exactly the rows of a BE view whose reservation changed since
/// it last looked.
fn patch_reservations(be: &mut BeView, src: &RowSource<'_, '_>, list: &[ClusterId]) {
    let reserved = src.inp.reserved;
    let clock = reserved.clock();
    if be.seen_res == clock {
        return;
    }
    let seen = be.seen_res;
    let BeView {
        view,
        rows,
        patch_hits,
        ..
    } = be;
    patch_hits.clear();
    // Journal fast path: when the reservation table still remembers every
    // change since `seen` and the change list is small relative to the
    // view, visit only the changed nodes (binary search by node id, which
    // is the store row) instead of scanning every row. Otherwise scan the
    // slim store-row array. Either way only the rows that changed are
    // rebuilt.
    match reserved.changes_since(seen) {
        Some((n, probe)) if n * 4 <= rows.len() => {
            for node in probe {
                if let Ok(k) = view.member_rows.binary_search(&node.raw()) {
                    patch_hits.push(k as u32);
                }
            }
        }
        _ => {
            for (i, &ri) in view.member_rows.iter().enumerate() {
                if reserved.stamp(NodeId(ri)) > seen {
                    patch_hits.push(i as u32);
                }
            }
        }
    }
    for &k in patch_hits.iter() {
        let k = k as usize;
        let s = view.segment_of(k);
        rows[k] = src.be_row(view.member_rows[k], view.seg_links[s], list[s]);
    }
    be.seen_res = clock;
}

/// The `set_verify` oracle: compare a view's rows with a whole-store
/// rebuild, check that each recorded segment holds only its cluster's
/// store rows, and, for an LC view, check its delay order against a sort
/// of the rows.
fn check_view(
    rows: &[CandidateNode],
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
        rows,
        rebuild(inp, service, scope, geo).as_slice(),
        "candidate view cache diverged from full rebuild \
         (service {service:?}, scope {scope:?})"
    );
    assert_eq!(view.seg_ends.len(), list.len(), "one segment per cluster");
    let mut start = 0;
    for (&c, &end) in list.iter().zip(&view.seg_ends) {
        let end = end as usize;
        assert!(
            view.member_rows[start..end].iter().all(|&i| inp
                .store
                .row(i as usize)
                .is_some_and(|row| row.cluster == c)),
            "segment of cluster {c:?} holds foreign rows (scope {scope:?})"
        );
        start = end;
    }
    assert_eq!(
        start,
        view.member_rows.len(),
        "segments do not cover the view"
    );
    if geo.is_some() {
        assert_eq!(
            view.by_delay,
            delay_order(rows),
            "segment-derived delay order diverged from a sort of the rows \
             (service {service:?}, scope {scope:?})"
        );
    }
}

/// The oracle's reference build: iterate every store row in node-id
/// order, filtering by cluster membership (not by the node ranges the
/// segment walk trusts) exactly as the dispatchers always have — workers
/// only, live, reachable, in the geo set for LC scopes — and computing
/// each row from the store and the re-assurer, never the value table.
fn rebuild(
    inp: &ViewInputs<'_>,
    service: ServiceId,
    scope: ViewScope,
    geo: Option<&[ClusterId]>,
) -> Vec<CandidateNode> {
    let vantage = vantage(inp, scope);
    let reassurer = match scope {
        ViewScope::LcGeo(_) => inp.reassurer,
        ViewScope::BeGlobal => None,
    };
    let min_request = min_request_fn(inp.catalog, service, reassurer);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tango_simcore::SimRng;

    /// The layout the one-pass move must reproduce: splice each fresh
    /// segment over its old rows in list order, as re-derivation once did.
    fn splice_reference(v: &[u32], ends: &[u32], parts: &[Part], derived: &[u32]) -> Vec<u32> {
        let mut v = v.to_vec();
        let (mut old_end, mut at) = (0, 0);
        for (&end, part) in ends.iter().zip(parts) {
            let old_len = end as usize - old_end;
            old_end = end as usize;
            at += match *part {
                Part::Kept => old_len,
                Part::Fresh { start, len } => {
                    let fresh = &derived[start as usize..(start + len) as usize];
                    v.splice(at..at + old_len, fresh.iter().copied());
                    len as usize
                }
            };
        }
        v
    }

    #[test]
    fn one_pass_relayout_matches_splicing_each_stale_segment() {
        const CASES: usize = 12_000;
        let mut rng = SimRng::new(0x5E6_1A70);
        let mut stale_kinds = [0usize; 6];
        let (mut grew, mut shrank, mut emptied, mut refilled) = (0, 0, 0, 0);
        let (mut empty_views, mut single_segment) = (0, 0);
        for case in 0..CASES {
            let n = match case % 10 {
                0 => 0,
                1 => 1,
                _ => rng.range_u64(2, 12) as usize,
            };
            // Old segments: often empty, so that empty ones refill.
            let old_lens: Vec<u32> = (0..n)
                .map(|_| match rng.next_below(4) {
                    0 => 0,
                    _ => rng.range_u64(1, 9) as u32,
                })
                .collect();
            let kind = case % 6;
            let stale: Vec<bool> = (0..n)
                .map(|k| match kind {
                    0 => false,
                    1 => true,
                    2 => k % 2 == case % 4 / 2,
                    3 => k == 0,
                    4 => k + 1 == n,
                    _ => rng.chance(0.3),
                })
                .collect();
            if n > 0 {
                stale_kinds[kind] += 1;
            }
            // Rows labelled by segment and position, so any misplaced
            // move shows.
            let mut v = Vec::new();
            let mut ends = Vec::new();
            for (k, &len) in old_lens.iter().enumerate() {
                v.extend((0..len).map(|j| (k as u32) * 1_000 + j));
                ends.push(v.len() as u32);
            }
            let mut derived = Vec::new();
            let mut parts = Vec::new();
            for (k, &is_stale) in stale.iter().enumerate() {
                if !is_stale {
                    parts.push(Part::Kept);
                    continue;
                }
                let len = match rng.next_below(5) {
                    0 => 0,
                    _ => rng.range_u64(1, 13) as u32,
                };
                let start = derived.len() as u32;
                derived.extend((0..len).map(|j| 1_000_000 + (k as u32) * 1_000 + j));
                parts.push(Part::Fresh { start, len });
                match (old_lens[k], len) {
                    (0, 0) => {}
                    (0, _) => refilled += 1,
                    (_, 0) => emptied += 1,
                    (o, l) if l > o => grew += 1,
                    (o, l) if l < o => shrank += 1,
                    _ => {}
                }
            }
            empty_views += usize::from(v.is_empty());
            single_segment += usize::from(n == 1);

            let want = splice_reference(&v, &ends, &parts, &derived);
            relayout(&mut v, &ends, &parts, &derived);
            assert_eq!(v, want, "case {case}: ends {ends:?}, parts {parts:?}");
            let mut want_ends = Vec::new();
            let mut at = 0;
            for (k, part) in parts.iter().enumerate() {
                at += match *part {
                    Part::Kept => old_lens[k],
                    Part::Fresh { len, .. } => len,
                };
                want_ends.push(at);
            }
            relayout_ends(&mut ends, &parts);
            assert_eq!(ends, want_ends, "case {case}: segment ends");
        }
        // Every shape the satellite list names actually occurred.
        assert!(
            stale_kinds.iter().all(|&c| c > 1_000),
            "stale patterns (none, all, alternate, first, last, random): {stale_kinds:?}"
        );
        assert!(
            [grew, shrank, emptied, refilled].iter().all(|&c| c > 1_000),
            "grew {grew}, shrank {shrank}, emptied {emptied}, refilled {refilled}"
        );
        assert!(empty_views > 1_000 && single_segment > 1_000);
    }
}
