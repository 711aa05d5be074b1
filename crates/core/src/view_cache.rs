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
//!   tick that moved a factor; a view behind it gathers each row's
//!   values from its service's value table (below) through its
//!   membership cache (the store row per view row), without re-running
//!   the filters, and subtracts the row's current reservation.
//! * **Reservations**: the dispatcher's own reservation table, which
//!   moves with every placement. The [`ReservationTable`]'s per-node
//!   change stamps are the dirty bits: a view that saw reservation clock
//!   `c` re-derives exactly the rows whose stamp exceeds `c`
//!   (`available = base − reserved`, saturating), reading each
//!   pre-reservation base from the value table.
//!
//! **Value tables.** A worker's row sits in every view whose cluster list
//! holds its cluster, about 20 LC views per service at paper scale, so
//! its values are computed once per service rather than once per view.
//! Each queried service has one table with, per store row, the total,
//! the LC and BE availability before reservations, the slack for the
//! service and the LC-scope re-assured min-request. A query brings its
//! service's table current before any view reads it: every row after a
//! value-clock move or a newer global stamp, otherwise the node range of
//! each cluster stamped since the table's last upkeep. The value clock
//! alone would not do: a recovery resets its node's re-assurance factors
//! and stamps only its cluster. Segment derivation, the value refresh
//! and the reservation patch all read the table; the `set_verify`
//! oracle never does, so it checks the table too.
//!
//! **Segments.** A view's cluster list is the origin's geo set for an LC
//! view and every cluster for the BE-global view, in cluster order. Each
//! cluster's nodes form one contiguous id range, the master and then its
//! workers ([`ClusterRt::node_range`]), so a view's node-ordered rows
//! fall into one segment per listed cluster, and the view records where
//! each segment ends. A view built under an older structure clock
//! re-derives only the segments whose cluster stamp is newer, walking
//! only those clusters' node ranges, in one pass: it derives every stale
//! segment into a scratch, then lays its own arrays out anew
//! ([`relayout`]), moving each kept segment at most once (those moving
//! left in list order, those moving right in reverse list order, so no
//! move overwrites rows still to move) and copying the derived rows in.
//! The value refresh or the reservation patch then catches kept segments
//! up, so a partial re-derivation leaves the view's value and
//! reservation clocks where they were. A never-built view, or one older
//! than the global stamp, is cleared and derives every segment straight
//! into its own arrays.
//!
//! **Delay order.** Beside its rows and the membership cache, each view
//! derives a third artefact: the rows' fill order for DSS-LC, row indices
//! in ascending `(delay, node)` order ([`tango_sched::delay_order`]).
//! Like membership it is structural, and only a re-derivation that
//! derived some segment (full or partial) rebuilds it. A segment's rows
//! share their cluster's link, so its delay is one value. The order is
//! therefore the non-empty segments sorted by `(delay, list position)`,
//! rows ascending inside each; list position is node order because the
//! node ranges ascend in cluster order. That sorts a view's ~20 segments
//! instead of its ~200 rows. A value refresh or a reservation patch
//! moves neither delay nor membership and leaves the order as it is.
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
//! on every query against a whole-store rebuild that reads the store and
//! the re-assurer directly and filters rows by cluster membership instead
//! of trusting the node ranges, and checks the delay order against a
//! plain sort of the rows.

use crate::config::TangoConfig;
use crate::lifecycle::ReservationTable;
use crate::runtime::ClusterRt;
use std::ops::Range;
use std::sync::Arc;
use tango_faults::FaultState;
use tango_hrm::Reassurer;
use tango_metrics::{NodeRole, StateStorage, StoreRow};
use tango_net::NetworkTopology;
use tango_sched::{delay_order, CandidateNode, LinkObservation, NodeObservation};
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
    /// Store row index per view row (ascending) — the membership cache,
    /// through which a value refresh and the reservation patch read the
    /// value table without re-running the filters. Store row `i` is node
    /// `i`, so the reservation patch scans this slim array instead of the
    /// ~100-byte candidate rows, touching `rows` (and `Arc::make_mut`'s
    /// potential clone) only on hits.
    member_rows: Vec<u32>,
    /// End offset of each listed cluster's segment in the row arrays,
    /// parallel to the view's cluster list.
    seg_ends: Vec<u32>,
    /// Row indices in ascending `(delay, node)` order, shared with
    /// outstanding `TypeBatch`es; rebuilt after every re-derivation.
    by_delay: Arc<Vec<u32>>,
    /// Scratch: row indices hit by the current reservation patch.
    patch_hits: Vec<u32>,
}

impl View {
    /// Drop every row and segment.
    fn clear(&mut self) {
        Arc::make_mut(&mut self.rows).clear();
        self.member_rows.clear();
        self.seg_ends.clear();
    }

    /// Size every row buffer to its rows. Views hold most of a run's row
    /// memory, and doubling growth would leave up to half of it unused.
    fn shrink_to_fit(&mut self) {
        Arc::make_mut(&mut self.rows).shrink_to_fit();
        self.member_rows.shrink_to_fit();
        Arc::make_mut(&mut self.by_delay).shrink_to_fit();
    }
}

/// The parallel row arrays a segment is derived into: a view's own on a
/// full build, the [`Segment`] scratch on a partial one.
struct Columns<'v> {
    rows: &'v mut Vec<CandidateNode>,
    member_rows: &'v mut Vec<u32>,
}

impl Columns<'_> {
    fn push(&mut self, store_row: u32, row: CandidateNode) {
        debug_assert_eq!(row.node, NodeId(store_row));
        self.member_rows.push(store_row);
        self.rows.push(row);
    }
}

/// The stale segments of one partial re-derivation, in list order, before
/// their elements move into a view. Only elements move, never buffers:
/// each view's vectors keep a capacity of their own.
#[derive(Default)]
struct Segment {
    rows: Vec<CandidateNode>,
    member_rows: Vec<u32>,
}

impl Segment {
    fn clear(&mut self) {
        self.rows.clear();
        self.member_rows.clear();
    }

    fn columns(&mut self) -> Columns<'_> {
        Columns {
            rows: &mut self.rows,
            member_rows: &mut self.member_rows,
        }
    }
}

/// One listed cluster's part in a partial re-derivation.
#[derive(Clone, Copy, Debug)]
enum Part {
    /// The segment keeps its rows.
    Kept,
    /// The segment's rows become the derived rows `start..start + len`.
    Fresh { start: u32, len: u32 },
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
    /// Per service index: its value table, filled on the service's first
    /// query.
    tables: Vec<ValueTable>,
    /// Sorted geo-nearby cluster sets per origin. Cluster geometry is
    /// static (link degradation changes latency/bandwidth, not
    /// distance), so these never invalidate.
    geo_sets: FxHashMap<ClusterId, Vec<ClusterId>>,
    /// Every cluster in index order: the BE-global view's cluster list.
    all_clusters: Vec<ClusterId>,
    /// Scratch for the segments being re-derived.
    segment: Segment,
    /// Scratch: each listed cluster's part in a partial re-derivation.
    parts: Vec<Part>,
    /// Scratch for sorting a view's segments into delay order:
    /// `(delay, list position)` per non-empty segment.
    seg_order: Vec<(SimTime, u32)>,
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
            // > ValueTable::default().values_at: a fresh table is
            // computed in full.
            value_clock: 1,
            views: FxHashMap::default(),
            tables: Vec::new(),
            geo_sets: FxHashMap::default(),
            all_clusters: Vec::new(),
            segment: Segment::default(),
            parts: Vec::new(),
            seg_order: Vec::new(),
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
    /// latest structural clock and reservation table, with its rows'
    /// delay order. The returned `Arc`s are shared handles; they stay
    /// valid (and frozen) even as later queries patch the cache.
    pub(crate) fn candidates(
        &mut self,
        inp: &ViewInputs<'_>,
        service: ServiceId,
        scope: ViewScope,
    ) -> (Arc<Vec<CandidateNode>>, Arc<Vec<u32>>) {
        // Before any re-derivation, refresh or patch reads it.
        self.bring_table_current(inp, service);
        let Self {
            structure_clock,
            cluster_stamps,
            global_stamp,
            value_clock,
            views,
            tables,
            geo_sets,
            all_clusters,
            segment,
            parts,
            seg_order,
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
        let src = RowSource::new(inp, &tables[service.index()], service, scope);
        let view = views.entry(key_of(scope, service)).or_default();
        if view.built_at != *structure_clock {
            let since = view.built_at;
            if since < *global_stamp {
                build(view, &src, list);
                order_by_delay(view, seg_order);
                view.shrink_to_fit();
                view.values_at = *value_clock;
                view.seen_res = inp.reserved.clock();
            } else {
                let stale = |c: ClusterId| {
                    cluster_stamps
                        .get(c.index())
                        .is_some_and(|&stamp| stamp > since)
                };
                // A catch-up (no listed cluster stamped since) moves no
                // row, so the order stands.
                if rederive(view, &src, list, stale, segment, parts) {
                    order_by_delay(view, seg_order);
                }
            }
            view.built_at = *structure_clock;
        }
        if view.values_at != *value_clock {
            refresh_values(view, &src);
            view.values_at = *value_clock;
        } else {
            patch_reservations(view, &src);
        }
        if *verify {
            check_view(view, inp, service, scope, list);
        }
        (Arc::clone(&view.rows), Arc::clone(&view.by_delay))
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
        if table.values_at == self.value_clock && table.stamped_at == self.structure_clock {
            return;
        }
        if table.values_at != self.value_clock || table.stamped_at < self.global_stamp {
            table.rows.resize(inp.store.rows(), RowValues::default());
            table.compute(inp, service, 0..inp.store.rows());
        } else {
            for (c, &stamp) in self.cluster_stamps.iter().enumerate() {
                if stamp > table.stamped_at {
                    table.compute(inp, service, inp.clusters[c].node_range());
                }
            }
        }
        table.values_at = self.value_clock;
        table.stamped_at = self.structure_clock;
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

/// Where one view's rows come from: the inputs, the service's value table
/// (current for this query) and the scope's link vantage.
struct RowSource<'a, 'i> {
    inp: &'a ViewInputs<'i>,
    table: &'a ValueTable,
    vantage: ClusterId,
    payload_kib: u64,
    /// The BE-global scope's min-request, the catalog base for every
    /// row; `None` for an LC scope, whose rows read the table's
    /// re-assured one.
    uniform_min_request: Option<Resources>,
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
            uniform_min_request: match scope {
                ViewScope::LcGeo(_) => None,
                ViewScope::BeGlobal => Some(spec.min_request),
            },
        }
    }

    /// Store row `i`'s values, which a view only ever reads for a present
    /// worker: store membership is stable between structural bumps.
    fn values(&self, i: u32) -> &RowValues {
        debug_assert!(
            self.inp
                .store
                .row(i as usize)
                .is_some_and(|row| row.role == NodeRole::Worker),
            "store row {i} left a view's membership without a structural bump"
        );
        &self.table.rows[i as usize]
    }

    fn min_request(&self, v: &RowValues) -> Resources {
        self.uniform_min_request.unwrap_or(v.min_request)
    }
}

/// Build a cleared `view` from scratch: derive every listed cluster's
/// segment straight into the view's own arrays.
fn build(view: &mut View, src: &RowSource<'_, '_>, list: &[ClusterId]) {
    view.clear();
    let View {
        rows,
        member_rows,
        seg_ends,
        ..
    } = view;
    let mut out = Columns {
        rows: Arc::make_mut(rows),
        member_rows,
    };
    for &c in list {
        derive_segment(src, &src.inp.clusters[c.index()], &mut out);
        seg_ends.push(out.member_rows.len() as u32);
    }
    // The reservation patch binary-searches rows by node id; segments
    // follow the node ranges in order, so this holds by construction.
    debug_assert!(view.member_rows.windows(2).all(|w| w[0] < w[1]));
}

/// Re-derive the segments of `view` whose cluster is `stale` in one pass:
/// derive each into `seg` in list order, then lay the view's arrays out
/// anew, moving each kept row at most once. Returns whether any segment
/// was re-derived.
fn rederive(
    view: &mut View,
    src: &RowSource<'_, '_>,
    list: &[ClusterId],
    stale: impl Fn(ClusterId) -> bool,
    seg: &mut Segment,
    parts: &mut Vec<Part>,
) -> bool {
    debug_assert_eq!(view.seg_ends.len(), list.len());
    seg.clear();
    parts.clear();
    let mut any = false;
    for &c in list {
        if !stale(c) {
            parts.push(Part::Kept);
            continue;
        }
        let start = seg.member_rows.len();
        derive_segment(src, &src.inp.clusters[c.index()], &mut seg.columns());
        parts.push(Part::Fresh {
            start: start as u32,
            len: (seg.member_rows.len() - start) as u32,
        });
        any = true;
    }
    if !any {
        return false;
    }
    let View {
        rows,
        member_rows,
        seg_ends,
        ..
    } = view;
    relayout(Arc::make_mut(rows), seg_ends, parts, &seg.rows);
    relayout(member_rows, seg_ends, parts, &seg.member_rows);
    relayout_ends(seg_ends, parts);
    debug_assert!(member_rows.windows(2).all(|w| w[0] < w[1]));
    true
}

/// Lay `v` out anew in one pass. Segment `k` of `v` ends at `ends[k]`;
/// `parts[k]` keeps it, or replaces it with `derived[start..start + len]`.
/// Each kept segment moves at most once, straight to its new offset:
/// those moving left in list order, then those moving right in reverse
/// list order, so no move lands on rows still to move. The reverse walk
/// copies the derived rows in too, once no kept row still to move lies
/// under their new place.
fn relayout<T: Copy>(v: &mut Vec<T>, ends: &[u32], parts: &[Part], derived: &[T]) {
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
/// by `(delay, list position)`, every row of a segment sharing its
/// cluster's delay, and list each one's rows in order. The keys are
/// unique, so the unstable sort is deterministic, and list position
/// breaks delay ties in node order.
fn order_by_delay(view: &mut View, seg_order: &mut Vec<(SimTime, u32)>) {
    seg_order.clear();
    let mut start = 0;
    for (k, &end) in view.seg_ends.iter().enumerate() {
        if end as usize > start {
            seg_order.push((view.rows[start].delay, k as u32));
        }
        start = end as usize;
    }
    seg_order.sort_unstable();
    let order = Arc::make_mut(&mut view.by_delay);
    order.clear();
    for &(_, k) in seg_order.iter() {
        let k = k as usize;
        let start = k.checked_sub(1).map_or(0, |p| view.seg_ends[p]);
        order.extend(start..view.seg_ends[k]);
    }
}

/// Derive `cluster`'s segment into `out`: walk exactly the cluster's
/// node range of the node-dense store and keep its live workers,
/// annotated with the cluster's link observation and their values from
/// the value table, reservation-adjusted.
fn derive_segment(src: &RowSource<'_, '_>, cluster: &ClusterRt, out: &mut Columns<'_>) {
    let inp = src.inp;
    if !cluster_admissible(inp, src.vantage, cluster.id) {
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
        let link =
            *link.get_or_insert_with(|| link_to(inp, src.vantage, cluster.id, src.payload_kib));
        let v = &src.table.rows[i];
        let obs = NodeObservation {
            node: row.node,
            cluster: row.cluster,
            total: v.total,
            available_lc: v.lc,
            available_be: v.be,
            slack: v.slack,
        };
        out.push(
            i as u32,
            CandidateNode::from_observation(
                obs,
                link,
                src.min_request(v),
                inp.reserved.get(row.node),
                true,
            ),
        );
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
    assert_eq!(
        *view.by_delay,
        delay_order(&view.rows),
        "segment-derived delay order diverged from a sort of the rows \
         (service {service:?}, scope {scope:?})"
    );
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

/// Gather row *values* (availability, slack, re-assured min-request)
/// from the value table through the membership cache after a sync push
/// or re-assure tick, less each row's current reservation. Membership
/// and link attributes are structure-stable and survive untouched.
fn refresh_values(view: &mut View, src: &RowSource<'_, '_>) {
    let reserved = src.inp.reserved;
    let rows = Arc::make_mut(&mut view.rows);
    for (c, &ri) in rows.iter_mut().zip(&view.member_rows) {
        let v = src.values(ri);
        let r = reserved.get(c.node);
        c.total = v.total;
        c.available_lc = v.lc.saturating_sub(&r);
        c.available_be = v.be.saturating_sub(&r);
        c.slack = v.slack;
        c.min_request = src.min_request(v);
    }
    view.seen_res = reserved.clock();
}

/// Refresh exactly the rows whose reservation changed since the view last
/// looked, from their pre-reservation bases in the value table.
/// `Arc::make_mut` patches in place when no batch still holds the
/// previous rows, and copy-on-writes otherwise (outstanding batches keep
/// their frozen snapshot).
fn patch_reservations(view: &mut View, src: &RowSource<'_, '_>) {
    let reserved = src.inp.reserved;
    let clock = reserved.clock();
    if view.seen_res == clock {
        return;
    }
    let seen = view.seen_res;
    view.patch_hits.clear();
    // Journal fast path: when the reservation table still remembers every
    // change since `seen` and the change list is small relative to the
    // view, visit only the changed nodes (binary search by node id, which
    // is the store row) instead of scanning every row. Otherwise scan the
    // slim store-row array. Either way the fat candidate rows are only
    // touched (and `Arc::make_mut` only pays a potential clone) when some
    // row of this view actually changed.
    match reserved.changes_since(seen) {
        Some((n, probe)) if n * 4 <= view.rows.len() => {
            for node in probe {
                if let Ok(k) = view.member_rows.binary_search(&node.raw()) {
                    view.patch_hits.push(k as u32);
                }
            }
        }
        _ => {
            for (i, &ri) in view.member_rows.iter().enumerate() {
                if reserved.stamp(NodeId(ri)) > seen {
                    view.patch_hits.push(i as u32);
                }
            }
        }
    }
    if !view.patch_hits.is_empty() {
        let rows = Arc::make_mut(&mut view.rows);
        for &k in &view.patch_hits {
            let k = k as usize;
            let ri = view.member_rows[k];
            let v = src.values(ri);
            let r = reserved.get(NodeId(ri));
            rows[k].available_lc = v.lc.saturating_sub(&r);
            rows[k].available_be = v.be.saturating_sub(&r);
        }
    }
    view.seen_res = clock;
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
