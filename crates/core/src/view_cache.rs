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
//!     partition and heal.
//!
//!   Rosters and views each ask the clock one question
//!   ([`StructureClock::stamped_since`]): was cluster `c` stamped, by its
//!   own stamp or the global one, since clock `t`?
//! * **Values**: row availability, slack and re-assured min-request. The
//!   value clock advances on every sync push and on every re-assurance
//!   tick that moved a factor. A row reads them from its store row (and
//!   an LC row its min-request from the re-assurer) when it is built
//!   (below).
//! * **Reservations**: the dispatcher's own reservation table, which
//!   moves with every placement. A row subtracts its node's current
//!   reservation from its store row's availability when it is built
//!   (`available = base − reserved`, saturating).
//!
//! **Rosters.** Each cluster, the cloud tier included, has one roster:
//! the ascending store rows of its present workers that are not believed
//! down. Each cluster's nodes form one contiguous id range, the master
//! and then its workers ([`ClusterRt::node_range`]), and a roster walks
//! exactly that range, again only once its cluster was stamped since the
//! last walk. No view keeps store rows of its own: every view indexes the
//! rosters, so a crash, detection or recovery costs one walk of its
//! cluster however many views list it.
//!
//! **Segments.** A view's cluster list is the origin's geo set for an LC
//! view and every cluster for the BE-global view, in cluster order. A
//! view has one segment per listed cluster: the cluster's whole roster,
//! or nothing when the cluster is unreachable from the view's vantage or
//! is the cloud tier behind a shut egress gate. Per segment the view
//! keeps only where it ends among the view's rows and the link toward its
//! cluster, so row `i` of segment `k` is store row
//! `rosters[list[k]][i − start(k)]`, and the rows are in node order
//! because the node ranges ascend in cluster order. A view built under an
//! older structure clock takes the segment of each listed cluster stamped
//! since afresh, with that cluster's link, and lays its segment ends out
//! again. A never-built view, or one older than the global stamp, finds
//! every listed cluster stamped.
//!
//! **An LC view is its structure.** It keeps where each segment ends, the
//! link toward each segment's cluster and its delay order, and no rows. A
//! dispatch round first brings the views of its types current
//! ([`CandidateViewCache::prepare_lc`]: the rosters and the stale
//! segments), then lends each batch an [`LcRows`] accessor
//! ([`CandidateViewCache::lc_rows`]) that builds row `i` when a scheduler
//! reads it, from its store row, the node's current reservation and
//! re-assured min-request, and its segment's link and cluster. DSS-LC
//! reads a few rows per plan of a view's ~200. A row read at plan time
//! sees the store, factors and reservations the round's upkeep saw: the
//! round commits only after planning, planning writes none of them, and
//! no other event runs in between.
//!
//! **BE-global views keep rows.** Every BE pick reads every row of its
//! service's global view, so that view keeps its rows materialised
//! ([`CandidateViewCache::be_candidates`]): built in full from its
//! segments' roster slices after a segment was taken afresh or the value
//! clock moved, otherwise patched where a reservation changed. The
//! [`ReservationTable`]'s per-node change stamps (and its journal) are
//! the dirty bits: a view that saw reservation clock `c` rebuilds exactly
//! the rows whose stamp exceeds `c`, found by a binary search of the
//! node-ordered rows for each journalled node, or by a scan of the roster
//! slices when the journal is too long or no longer reaches back to `c`.
//! A CERES pick (`local_only`) reads only its cluster's rows, which are
//! one segment of the view. A BE-global row carries the service's catalog
//! min-request and full slack, 1.0: a BE service has no QoS target, and
//! the sync push writes slack for LC services only. One row builder
//! ([`build_row`]) serves the LC accessor and the BE rows alike.
//!
//! **Row values.** A row reads its store row, and an LC row the
//! re-assurer, at the moment it is built; nothing keeps a copy of either
//! that a sync push, a re-assurance tick or a recovery's factor reset
//! could leave stale. A copy would save no work: a plan builds a few LC
//! rows, and each BE service has one view.
//!
//! **Delay order.** Each LC view also derives its rows' fill order for
//! DSS-LC, row indices in ascending `(delay, node)` order
//! ([`tango_sched::delay_order`]). Like membership it is structural, and
//! only an upkeep that took some segment afresh rebuilds it. A segment's
//! rows share their cluster's link, so its delay is one value. The order
//! is therefore the non-empty segments sorted by `(link delay, list
//! position)`, rows ascending inside each; list position is node order
//! because the node ranges ascend in cluster order. That sorts a view's
//! ~20 segments instead of its ~200 rows.
//!
//! D-VPA resizes surface through node capacity, and a committed migration
//! through node usage: dispatchers observe both only via sync-pushed
//! store rows, so the sync push's value bump covers them by construction
//! and neither leaves a stamp.
//!
//! The cache is deliberately *not* serialized into checkpoints: it is a
//! pure cache, rebuilt on first use after restore, and the equivalence
//! invariant guarantees a resumed run sees the same views an
//! uninterrupted run would. [`CandidateViewCache::set_verify`] checks it
//! on every query: it materialises each LC view's rows through the
//! accessor and compares them, and each BE view's rows, with a
//! whole-store rebuild that computes every row from the store and the
//! re-assurer through `CandidateNode::from_observation`, never through
//! [`build_row`], and filters rows by cluster membership instead of
//! trusting the node ranges; it also checks the delay order against a
//! plain sort of the rows.

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
    /// The cluster records, indexed by `ClusterId`: a roster walks
    /// exactly its cluster's node range.
    pub clusters: &'a [ClusterRt],
}

/// The link an empty segment records; no row reads it.
const NO_LINK: LinkObservation = LinkObservation {
    delay: SimTime::ZERO,
    capacity: 0,
};

/// One cluster's live workers, shared by every view that lists it.
#[derive(Default)]
struct Roster {
    /// Structure clock of the last walk; 0 = never walked.
    walked_at: u64,
    /// The store rows of the cluster's present workers that are not
    /// believed down, ascending. Store row `i` is node `i`.
    rows: Vec<u32>,
}

impl Roster {
    /// Bring the roster current: walk exactly `cluster`'s node range of
    /// the node-dense store again when the cluster was stamped since the
    /// last walk.
    fn bring_current(&mut self, inp: &ViewInputs<'_>, cluster: &ClusterRt, clock: &StructureClock) {
        if !clock.stamped_since(cluster.id, self.walked_at) {
            return;
        }
        self.walked_at = clock.now;
        self.rows.clear();
        for i in cluster.node_range() {
            let Some(row) = inp.store.row(i) else {
                continue;
            };
            debug_assert_eq!(
                row.cluster, cluster.id,
                "store row {i} lies outside its cluster's node range"
            );
            debug_assert_eq!(row.node, NodeId(i as u32));
            if row.role == NodeRole::Worker && !inp.fault.is_down(row.node) {
                self.rows.push(i as u32);
            }
        }
    }
}

/// One cached view's structure: per listed cluster, where its segment
/// ends and the link toward it. A segment is its cluster's whole roster,
/// or empty.
#[derive(Default)]
struct View {
    /// Structure clock this view was brought current under; 0 = never
    /// built.
    built_at: u64,
    /// End offset of each listed cluster's segment among the view's rows,
    /// parallel to the view's cluster list.
    seg_ends: Vec<u32>,
    /// The link toward each listed cluster, parallel to `seg_ends`: every
    /// row of a segment shares it. [`NO_LINK`] for an empty segment.
    seg_links: Vec<LinkObservation>,
    /// LC views: row indices in ascending `(delay, node)` order, rebuilt
    /// whenever a segment is taken afresh. BE views leave it empty.
    by_delay: Vec<u32>,
}

impl View {
    /// The number of rows.
    fn len(&self) -> usize {
        self.seg_ends.last().map_or(0, |&end| end as usize)
    }

    /// The segment holding row `i`.
    fn segment_of(&self, i: usize) -> usize {
        self.seg_ends.partition_point(|&end| end as usize <= i)
    }

    /// The rows of segment `k`.
    fn seg_range(&self, k: usize) -> Range<usize> {
        k.checked_sub(1).map_or(0, |p| self.seg_ends[p] as usize)..self.seg_ends[k] as usize
    }

    /// The store rows of segment `k`, whose cluster is `list[k]`: that
    /// cluster's roster, or none.
    fn segment<'r>(&self, k: usize, rosters: &'r [Roster], list: &[ClusterId]) -> &'r [u32] {
        &rosters[list[k].index()].rows[..self.seg_range(k).len()]
    }
}

/// One service's BE-global view: its structure and its rows, which every
/// BE pick reads in full.
#[derive(Default)]
struct BeView {
    view: View,
    /// In node order: segments follow the node ranges in cluster order.
    rows: Vec<CandidateNode>,
    /// Value clock the rows reflect.
    values_at: u64,
    /// Reservation clock the rows reflect.
    seen_res: u64,
    /// Scratch: row indices hit by the current reservation patch.
    patch_hits: Vec<u32>,
}

/// The structure clock and its stamps.
struct StructureClock {
    /// Advanced by every structural change; rosters and views catch up
    /// lazily on next use.
    now: u64,
    /// Per cluster index: the clock at the cluster's latest own change
    /// (0 = none).
    cluster_stamps: Vec<u64>,
    /// The clock at the latest change that may touch any row.
    global_stamp: u64,
}

impl StructureClock {
    /// Whether `cluster` was stamped since clock `t`, by its own stamp or
    /// the global one: what was derived from its rows at `t` is stale.
    fn stamped_since(&self, cluster: ClusterId, t: u64) -> bool {
        t < self.global_stamp
            || self
                .cluster_stamps
                .get(cluster.index())
                .is_some_and(|&stamp| stamp > t)
    }
}

/// The per-system cache of incremental candidate views.
pub(crate) struct CandidateViewCache {
    structure: StructureClock,
    /// Bumped when only row *values* moved (sync pushes, factor moves):
    /// membership and link attributes survive, BE views rebuild their
    /// rows.
    value_clock: u64,
    /// Per cluster index: its roster, which every view listing the
    /// cluster indexes.
    rosters: Vec<Roster>,
    /// LC views by `(origin, service)`.
    lc_views: FxHashMap<(ClusterId, ServiceId), View>,
    /// Per service index: its BE-global view.
    be_views: Vec<BeView>,
    /// Sorted geo-nearby cluster sets per origin. Cluster geometry is
    /// static (link degradation changes latency/bandwidth, not
    /// distance), so these never invalidate.
    geo_sets: FxHashMap<ClusterId, Vec<ClusterId>>,
    /// Every cluster in index order: the BE-global view's cluster list.
    all_clusters: Vec<ClusterId>,
    /// Scratch: `(delay, list position)` per non-empty segment, for
    /// sorting an LC view's segments into delay order.
    seg_order: Vec<(SimTime, u32)>,
    /// When set, every query re-runs the whole-store build and asserts
    /// equality — the property-test hook for the delta ≡ rebuild
    /// invariant.
    verify: bool,
}

impl Default for CandidateViewCache {
    fn default() -> Self {
        CandidateViewCache {
            // Both > View::default().built_at and Roster::default().walked_at:
            // a fresh view or roster is stale everywhere.
            structure: StructureClock {
                now: 1,
                cluster_stamps: Vec::new(),
                global_stamp: 1,
            },
            // The mirror publishes the value clock in every frame, from
            // 1.
            value_clock: 1,
            rosters: Vec::new(),
            lc_views: FxHashMap::default(),
            be_views: Vec::new(),
            geo_sets: FxHashMap::default(),
            all_clusters: Vec::new(),
            seg_order: Vec::new(),
            verify: false,
        }
    }
}

impl CandidateViewCache {
    /// Invalidate every row's structural basis (a change that may touch
    /// any row): every roster and view catches up in full on next use.
    pub(crate) fn invalidate_structure(&mut self) {
        self.structure.now += 1;
        self.structure.global_stamp = self.structure.now;
    }

    /// Invalidate the structural basis of `cluster`'s rows only: its
    /// roster is walked again, and each view listing it re-derives that
    /// one segment, on next use. A recovery stamps its node's cluster for
    /// the roster; the re-assurance factors it resets reach LC rows when
    /// they are built.
    pub(crate) fn invalidate_cluster(&mut self, cluster: ClusterId) {
        self.structure.now += 1;
        let stamps = &mut self.structure.cluster_stamps;
        let i = cluster.index();
        if stamps.len() <= i {
            stamps.resize(i + 1, 0);
        }
        stamps[i] = self.structure.now;
    }

    /// Invalidate only row values (a sync push, or a re-assurance tick
    /// that moved a factor): views keep their membership and link
    /// attributes, and BE views rebuild their rows on next use.
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
    /// dispatch round: the rosters it lists and the view's structure.
    /// [`Self::lc_rows`] then lends its rows, until the round commits.
    pub(crate) fn prepare_lc(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
        origin: ClusterId,
    ) {
        self.rosters
            .resize_with(inp.clusters.len(), Roster::default);
        let list = geo_set_entry(&mut self.geo_sets, inp, origin);
        let scope = ViewScope::LcGeo(origin);
        let src = RowSource::new(inp, service, scope);
        let view = self.lc_views.entry((origin, service)).or_default();
        if update_structure(view, &src, list, &self.structure, &mut self.rosters) {
            order_by_delay(view, &mut self.seg_order);
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
                rows.rosters,
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
        debug_assert!(
            view.built_at == self.structure.now,
            "LC rows lent without their round's upkeep"
        );
        LcRows {
            view,
            rosters: &self.rosters,
            store: inp.store,
            reassurer: inp.reassurer,
            reserved: inp.reserved,
            service,
            min_request: inp.catalog.get(service).min_request,
            clusters: &self.geo_sets[&origin],
        }
    }

    /// The BE-global candidate rows of `service`, current as of the
    /// latest clocks and reservation table; with `local`, only that
    /// cluster's (a CERES pick), which are its segment.
    pub(crate) fn be_candidates(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
        local: Option<ClusterId>,
    ) -> &[CandidateNode] {
        self.rosters
            .resize_with(inp.clusters.len(), Roster::default);
        if self.all_clusters.len() != inp.clusters.len() {
            self.all_clusters = inp.clusters.iter().map(|c| c.id).collect();
        }
        let i = service.index();
        if self.be_views.len() <= i {
            self.be_views.resize_with(i + 1, BeView::default);
        }
        let scope = ViewScope::BeGlobal;
        let src = RowSource::new(inp, service, scope);
        let list = &self.all_clusters;
        let be = &mut self.be_views[i];
        let derived =
            update_structure(&mut be.view, &src, list, &self.structure, &mut self.rosters);
        if derived || be.values_at != self.value_clock {
            materialise(be, &src, list, &self.rosters);
            be.values_at = self.value_clock;
            be.seen_res = inp.reserved.clock();
        } else {
            patch_reservations(be, &src, list, &self.rosters);
        }
        if self.verify {
            check_view(&be.rows, &be.view, inp, service, scope, list, &self.rosters);
        }
        match local {
            // The list is every cluster in index order: segment `c.index()`
            // holds exactly cluster `c`'s rows.
            Some(c) => &be.rows[be.view.seg_range(c.index())],
            None => &be.rows,
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

/// Store row `i` of a view. A view only ever holds a present worker:
/// store membership is stable between structural bumps.
fn view_row(store: &StateStorage, i: u32) -> StoreRow<'_> {
    let row = store
        .row(i as usize)
        .expect("a view's store row stays present between structural bumps");
    debug_assert_eq!(
        row.role,
        NodeRole::Worker,
        "store row {i} left a view's membership without a structural bump"
    );
    row
}

/// The one row builder: the candidate row of `row` with the node's
/// current reservation, its segment's link and cluster, and the scope's
/// min-request and slack. The LC accessor and the BE views build every
/// row here; the oracle's [`rebuild`] goes through
/// `CandidateNode::from_observation` instead, so that it checks this.
fn build_row(
    row: &StoreRow<'_>,
    reserved: Resources,
    link: LinkObservation,
    cluster: ClusterId,
    min_request: Resources,
    slack: f64,
) -> CandidateNode {
    CandidateNode {
        node: row.node,
        cluster,
        total: row.total,
        available_lc: row.lc_available().saturating_sub(&reserved),
        available_be: row.be_available().saturating_sub(&reserved),
        min_request,
        delay: link.delay,
        link_capacity: link.capacity,
        slack,
        alive: true,
    }
}

/// An LC view's rows, each built when a scheduler reads it: what a
/// dispatch round lends each batch.
pub(crate) struct LcRows<'a> {
    view: &'a View,
    rosters: &'a [Roster],
    store: &'a StateStorage,
    reassurer: Option<&'a Reassurer>,
    reserved: &'a ReservationTable,
    service: ServiceId,
    /// The service's catalog min-request, which the re-assurer scales per
    /// node.
    min_request: Resources,
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
        self.view.len()
    }

    fn row(&self, i: usize) -> CandidateNode {
        let k = self.view.segment_of(i);
        let start = self.view.seg_range(k).start;
        let row = view_row(
            self.store,
            self.view.segment(k, self.rosters, self.clusters)[i - start],
        );
        let min_request = match self.reassurer {
            Some(r) => r.min_request(row.node, self.service, self.min_request),
            None => self.min_request,
        };
        build_row(
            &row,
            self.reserved.get(row.node),
            self.view.seg_links[k],
            self.clusters[k],
            min_request,
            row.slack_for(self.service).unwrap_or(1.0),
        )
    }
}

/// What one view's structure is derived from, and its BE rows built
/// from: the inputs and the scope's link vantage.
struct RowSource<'a, 'i> {
    inp: &'a ViewInputs<'i>,
    vantage: ClusterId,
    payload_kib: u64,
    /// The service's catalog min-request, which every BE-global row
    /// carries (an LC row carries the re-assured one).
    be_min_request: Resources,
}

impl<'a, 'i> RowSource<'a, 'i> {
    fn new(inp: &'a ViewInputs<'i>, service: ServiceId, scope: ViewScope) -> Self {
        let spec = inp.catalog.get(service);
        RowSource {
            inp,
            vantage: vantage(inp, scope),
            payload_kib: spec.payload_kib,
            be_min_request: spec.min_request,
        }
    }

    /// The BE-global row of store row `i` in a segment with `link`
    /// toward `cluster`, at full slack: no BE service has a QoS target.
    fn be_row(&self, i: u32, link: LinkObservation, cluster: ClusterId) -> CandidateNode {
        let row = view_row(self.inp.store, i);
        build_row(
            &row,
            self.inp.reserved.get(row.node),
            link,
            cluster,
            self.be_min_request,
            1.0,
        )
    }
}

/// Bring `view`'s structure current under `clock`: for each listed
/// cluster stamped since the view was last brought current (every one,
/// when it never was or is older than the global stamp), bring the
/// cluster's roster current, take the segment afresh (the whole roster,
/// or nothing when the cluster is inadmissible from the vantage) with its
/// link, and lay the segment ends out again. Returns whether any segment
/// was taken afresh; a catch-up (no listed cluster stamped since) changes
/// nothing.
fn update_structure(
    view: &mut View,
    src: &RowSource<'_, '_>,
    list: &[ClusterId],
    clock: &StructureClock,
    rosters: &mut [Roster],
) -> bool {
    let since = view.built_at;
    if since == clock.now {
        return false;
    }
    view.built_at = clock.now;
    let inp = src.inp;
    // A never-built view lists no segment yet; every cluster is stamped
    // since clock 0.
    view.seg_ends.resize(list.len(), 0);
    view.seg_links.resize(list.len(), NO_LINK);
    let (mut any, mut old_start, mut end) = (false, 0, 0);
    for (k, &c) in list.iter().enumerate() {
        let old_end = view.seg_ends[k];
        let len = if clock.stamped_since(c, since) {
            any = true;
            let roster = &mut rosters[c.index()];
            roster.bring_current(inp, &inp.clusters[c.index()], clock);
            let len = if cluster_admissible(inp, src.vantage, c) {
                roster.rows.len() as u32
            } else {
                0
            };
            view.seg_links[k] = if len > 0 {
                link_to(inp, src.vantage, c, src.payload_kib)
            } else {
                NO_LINK
            };
            len
        } else {
            old_end - old_start
        };
        old_start = old_end;
        end += len;
        view.seg_ends[k] = end;
    }
    any
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
    let len = view.len();
    let order = &mut view.by_delay;
    order.clear();
    order.reserve_exact(len);
    for &(_, k) in seg_order.iter() {
        let k = k as usize;
        let start = k.checked_sub(1).map_or(0, |p| view.seg_ends[p]);
        order.extend(start..view.seg_ends[k]);
    }
}

/// Build every row of a BE view from its segments' roster slices, into a
/// buffer sized to them (doubling growth would leave a third of it
/// unused).
fn materialise(be: &mut BeView, src: &RowSource<'_, '_>, list: &[ClusterId], rosters: &[Roster]) {
    let BeView { view, rows, .. } = be;
    rows.clear();
    rows.reserve_exact(view.len());
    for (k, &c) in list.iter().enumerate() {
        let link = view.seg_links[k];
        rows.extend(
            view.segment(k, rosters, list)
                .iter()
                .map(|&i| src.be_row(i, link, c)),
        );
    }
}

/// Rebuild exactly the rows of a BE view whose reservation changed since
/// it last looked.
fn patch_reservations(
    be: &mut BeView,
    src: &RowSource<'_, '_>,
    list: &[ClusterId],
    rosters: &[Roster],
) {
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
    // view, visit only the changed nodes (binary search by node: the rows
    // are in node order) instead of scanning every row. Otherwise scan the
    // segments' slim roster slices. Either way only the rows that changed
    // are rebuilt.
    match reserved.changes_since(seen) {
        Some((n, probe)) if n * 4 <= rows.len() => {
            for node in probe {
                if let Ok(k) = rows.binary_search_by_key(&node, |row| row.node) {
                    patch_hits.push(k as u32);
                }
            }
        }
        _ => {
            for k in 0..list.len() {
                let start = view.seg_range(k).start;
                for (j, &i) in view.segment(k, rosters, list).iter().enumerate() {
                    if reserved.stamp(NodeId(i)) > seen {
                        patch_hits.push((start + j) as u32);
                    }
                }
            }
        }
    }
    for &k in patch_hits.iter() {
        let k = k as usize;
        let s = view.segment_of(k);
        rows[k] = src.be_row(rows[k].node.raw(), view.seg_links[s], list[s]);
    }
    be.seen_res = clock;
}

/// The `set_verify` oracle: compare a view's rows with a whole-store
/// rebuild, check that each segment holds only its cluster's store rows
/// and that the segments cover the view, and, for an LC view, check its
/// delay order against a sort of the rows.
fn check_view(
    rows: &[CandidateNode],
    view: &View,
    inp: &ViewInputs<'_>,
    service: ServiceId,
    scope: ViewScope,
    list: &[ClusterId],
    rosters: &[Roster],
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
    for (k, &c) in list.iter().enumerate() {
        assert!(
            view.segment(k, rosters, list).iter().all(|&i| inp
                .store
                .row(i as usize)
                .is_some_and(|row| row.cluster == c)),
            "segment of cluster {c:?} holds foreign rows (scope {scope:?})"
        );
    }
    assert_eq!(view.len(), rows.len(), "segments do not cover the view");
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
/// roster walk trusts) exactly as the dispatchers always have — workers
/// only, live, reachable, in the geo set for LC scopes — and computing
/// each row from the store and the re-assurer, never through
/// [`build_row`].
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
    let spec = inp.catalog.get(service);
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
            link_to(inp, vantage, row.cluster, spec.payload_kib),
            reassurer.map_or(spec.min_request, |r| {
                r.min_request(row.node, service, spec.min_request)
            }),
            inp.reserved.get(row.node),
        ));
    }
    rows
}
