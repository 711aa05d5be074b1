//! DSS-LC: distributed LC request scheduling (Alg. 2).
//!
//! Per type k the paper routes the master's pending queue over the graph
//! G_k of §5.2.1: a source, one split node per candidate worker (the
//! internal edge carries the Eq. 2 capacity |t_i^k|), link edges carrying
//! the Eq. 4 transmission capacity c_{i,j} at cost t^delay, and a sink.
//! That graph is bipartite with all cost on the link edges, so its
//! min-cost max-flow optimum (Eq. 3) has a closed form: fill candidates
//! in ascending delay order, each up to min(link capacity, node
//! capacity). [`DssLc::route`] is that greedy and is what every dispatch
//! round runs; [`DssLc::route_mcmf`] builds G_k and solves it with the
//! general `tango-flow` solver, and is kept only as the test oracle that
//! pins the two equal.
//!
//! Overload (Σ pending > Σ capacity) follows the paper exactly: ρ(·)
//! shuffles the requests, the first Σcap go through G_k, and the rest —
//! R′_k — are routed over Ĝ′_k whose node capacities are the *total*-
//! resource ratios scaled by the augmentation factor λ (Eq. 7–8), so the
//! backlog spreads across heterogeneous nodes proportionally to their
//! size. Queued-set requests still get dispatched; they simply wait at
//! their target node.
//!
//! The fill order is not sorted here: every [`LcBatch`] carries it as
//! `by_delay`, and the system's candidate-view cache derives it only
//! when a structural change re-derives the view (delay is a link
//! attribute). A plan is one walk down that order, which reads each row
//! it reaches, computes its Eq. 2 capacity and stops once the demand is
//! placed. The rows past that point are never read, so a batch whose rows
//! are built on demand ([`crate::view::CandidateRows`]) builds only the
//! rows the walk reaches; only the overload case reads every row, for the
//! λ basis. The walk also settles which of Alg. 2's two cases holds: it
//! stops early only after placing the demand, so Σcap ≥ demand; if it
//! runs out of rows, its running sum is the whole Σcap. And when
//! Σcap < demand, each row's take is min(capacity, link capacity) either
//! way, so routing the demand places exactly what routing Σcap would:
//! the one walk is the G_k phase of both cases.

use crate::view::{CandidateRows, LcBatch, LcScheduler, TypeBatch};
use tango_flow::{EdgeRef, FlowGraph, MinCostMaxFlow};
use tango_simcore::SimRng;
use tango_types::{NodeId, RequestId};

/// Buffers shared by the G_k and λ-augmented Ĝ′_k phases of a plan;
/// every plan the scheduler makes reuses its own.
#[derive(Debug, Default)]
struct DispatchScratch {
    /// ρ-shuffled request queue being consumed this call.
    order: Vec<RequestId>,
    /// Per-row assignment counts from the last route, by row index.
    counts: Vec<(usize, u64)>,
    /// Per row: its Eq. 7 total-resource capacity basis and its link
    /// capacity (Ĝ′_k phase), by row index.
    basis: Vec<(u64, u32)>,
}

/// The DSS-LC scheduler.
#[derive(Debug)]
pub struct DssLc {
    rng: SimRng,
    /// Route the overload set R′_k over the λ-augmented total-resource
    /// graph Ĝ′_k (Eq. 7–8). Disabling this leaves overflow requests
    /// queued at the master — the ablation that shows why the paper
    /// dispatches them proactively.
    pub overflow_routing: bool,
    scratch: DispatchScratch,
}

/// A per-type plan with immediate and queued-at-target placements kept
/// distinguishable for diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LcPlan {
    /// Placements for requests the targets can execute immediately (R_k).
    pub immediate: Vec<(RequestId, NodeId)>,
    /// Placements for requests that will queue at their target (R′_k).
    pub queued: Vec<(RequestId, NodeId)>,
    /// Requests that could not be routed at all (no capacity anywhere).
    pub unrouted: Vec<RequestId>,
}

impl LcPlan {
    /// All placements, immediate first.
    pub fn all(&self) -> impl Iterator<Item = (RequestId, NodeId)> + '_ {
        self.immediate.iter().chain(self.queued.iter()).copied()
    }
}

impl DssLc {
    /// Create a DSS-LC instance; `seed` drives the ρ(·) shuffle.
    pub fn new(seed: u64) -> Self {
        DssLc {
            rng: SimRng::new(seed),
            overflow_routing: true,
            scratch: DispatchScratch::default(),
        }
    }

    /// Variant without the Eq. 7–8 overflow routing (ablation).
    pub fn without_overflow_routing(seed: u64) -> Self {
        DssLc {
            rng: SimRng::new(seed),
            overflow_routing: false,
            scratch: DispatchScratch::default(),
        }
    }

    /// Route `demand` unit requests over the candidates with the given
    /// per-node capacities; returns per-node assigned counts.
    ///
    /// The dispatch graph is bipartite (source → link edge → split node →
    /// sink) with all cost on the link edges, so the min-cost max-flow
    /// optimum has a closed form: saturate nodes in ascending delay
    /// order, each up to min(link capacity, node capacity).
    /// [`DssLc::route_mcmf`] solves the same graph with the general
    /// solver and the test suite pins their equality.
    pub fn route(batch: &TypeBatch, capacities: &[u64], demand: u64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        Self::route_into(
            &batch.by_delay,
            demand,
            |i| capacities[i].min(batch.nodes[i].link_capacity as u64),
            &mut out,
        );
        out
    }

    /// [`Self::route`] writing into a caller-provided buffer (cleared
    /// first). It walks `by_delay` and asks `limit` for each row it
    /// reaches (the row's capacity, already capped by its link), stopping
    /// once `demand` is placed; the counts come back sorted by row index,
    /// the order `materialize` hands out requests in.
    fn route_into(
        by_delay: &[u32],
        demand: u64,
        mut limit: impl FnMut(usize) -> u64,
        out: &mut Vec<(usize, u64)>,
    ) {
        out.clear();
        let mut remaining = demand;
        for &i in by_delay {
            if remaining == 0 {
                break;
            }
            let i = i as usize;
            let take = limit(i).min(remaining);
            if take > 0 {
                out.push((i, take));
                remaining -= take;
            }
        }
        out.sort_unstable();
    }

    /// The same routing via the general min-cost max-flow solver over the
    /// §5.2.1 graph G_k — the paper's formulation, kept as the test
    /// oracle for [`Self::route`]. No dispatch round calls it.
    pub fn route_mcmf(batch: &TypeBatch, capacities: &[u64], demand: u64) -> Vec<(usize, u64)> {
        if demand == 0 || batch.nodes.is_empty() {
            return Vec::new();
        }
        // graph: 0 = source, 1 = sink, then one split node per candidate
        // carrying its Eq. 2 capacity behind an Eq. 4 link edge
        let mut g = FlowGraph::new(2);
        let node_edges: Vec<EdgeRef> = batch
            .nodes
            .iter()
            .zip(capacities)
            .map(|(cand, &cap)| {
                let (inn, out, _) = g.add_split_node(cap as i64);
                // cost: microseconds of dispatch delay (Eq. 3 objective)
                g.add_edge(
                    0,
                    inn,
                    cand.link_capacity as i64,
                    cand.delay.as_micros() as i64,
                );
                g.add_edge(out, 1, i64::MAX / 8, 0)
            })
            .collect();
        MinCostMaxFlow::new(&mut g).solve(0, 1, demand as i64);
        node_edges
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| {
                let f = g.flow(e);
                (f > 0).then_some((i, f as u64))
            })
            .collect()
    }

    /// Expand per-node counts into per-request placements, consuming from
    /// `requests[*cursor..]` front to back — FIFO with respect to the
    /// ρ-sorted queue, so the R_k prefix (Alg. 2) really is the *first*
    /// Σcap requests of the shuffled order. (An earlier version popped
    /// from the back, silently reversing the queue.)
    fn materialize(
        rows: &dyn CandidateRows,
        counts: &[(usize, u64)],
        requests: &[RequestId],
        cursor: &mut usize,
        out: &mut Vec<(RequestId, NodeId)>,
    ) {
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        out.reserve(total.min((requests.len() - *cursor) as u64) as usize);
        for &(node_idx, count) in counts {
            for _ in 0..count {
                let Some(&req) = requests.get(*cursor) else {
                    return;
                };
                *cursor += 1;
                out.push((req, rows.row(node_idx).node));
            }
        }
    }

    /// Run Alg. 2 on one type batch.
    pub fn plan(&mut self, batch: &TypeBatch) -> LcPlan {
        self.plan_lent(&batch.as_lc())
    }

    /// [`Self::plan`] on a lent batch.
    fn plan_lent(&mut self, batch: &LcBatch<'_>) -> LcPlan {
        Self::plan_with(
            &mut self.scratch,
            &mut self.rng,
            self.overflow_routing,
            batch,
        )
    }

    /// Run Alg. 2 on each of a master's per-type batches, in batch
    /// order. Each batch's ρ(·) shuffle draws from its own stream, forked
    /// from this scheduler's RNG once per batch, so a batch's plan does
    /// not depend on how many requests the batches before it shuffled.
    pub fn plan_many(&mut self, batches: &[LcBatch<'_>]) -> Vec<LcPlan> {
        batches
            .iter()
            .map(|batch| {
                let mut rng = self.rng.fork();
                Self::plan_with(&mut self.scratch, &mut rng, self.overflow_routing, batch)
            })
            .collect()
    }

    /// Alg. 2 with its ρ(·) stream explicit, shared by [`Self::plan`]
    /// and [`Self::plan_many`] so they cannot drift.
    fn plan_with(
        scratch: &mut DispatchScratch,
        rng: &mut SimRng,
        overflow_routing: bool,
        batch: &LcBatch<'_>,
    ) -> LcPlan {
        let mut plan = LcPlan::default();
        if batch.requests.is_empty() {
            return plan;
        }
        let demand = batch.requests.len() as u64;
        let rows = batch.rows;
        debug_assert_eq!(batch.by_delay.len(), rows.len());

        // ρ(·): random sorting function; LC requests share one priority.
        scratch.order.clear();
        scratch.order.extend_from_slice(batch.requests);
        rng.shuffle(&mut scratch.order);
        let mut cursor = 0usize;

        // G_k: one walk in delay order, reading each row it reaches once.
        // `total_cap` sums the Eq. 2 capacities it reached, which settles
        // the case (module doc).
        let mut total_cap = 0u64;
        Self::route_into(
            batch.by_delay,
            demand,
            |i| {
                let row = rows.row(i);
                let cap = row.capacity_now(true);
                total_cap += cap;
                cap.min(row.link_capacity as u64)
            },
            &mut scratch.counts,
        );
        Self::materialize(
            rows,
            &scratch.counts,
            &scratch.order,
            &mut cursor,
            &mut plan.immediate,
        );

        if demand > total_cap {
            // Case 2: overload. The walk placed R_k, the first Σcap of
            // the ρ order; Ĝ′_k routes R′_k over capacities from *total*
            // resources × λ (Eq. 7–8).
            let overflow = (scratch.order.len() - cursor) as u64;
            scratch.basis.clear();
            scratch.basis.extend((0..rows.len()).map(|i| {
                let row = rows.row(i);
                (row.capacity_total(), row.link_capacity)
            }));
            let basis_sum: u64 = scratch.basis.iter().map(|&(b, _)| b).sum();
            if overflow_routing && basis_sum > 0 {
                let lambda = overflow as f64 / basis_sum as f64;
                let basis = &scratch.basis;
                Self::route_into(
                    batch.by_delay,
                    overflow,
                    |i| {
                        let (b, link) = basis[i];
                        (((b as f64) * lambda).ceil() as u64).min(link as u64)
                    },
                    &mut scratch.counts,
                );
                Self::materialize(
                    rows,
                    &scratch.counts,
                    &scratch.order,
                    &mut cursor,
                    &mut plan.queued,
                );
            }
        }
        plan.unrouted = scratch.order[cursor..].to_vec();
        plan
    }
}

impl LcScheduler for DssLc {
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        self.plan_lent(batch).all().collect()
    }

    fn assign_many(&mut self, batches: &[LcBatch<'_>]) -> Vec<Vec<(RequestId, NodeId)>> {
        self.plan_many(batches)
            .iter()
            .map(|p| p.all().collect())
            .collect()
    }

    fn name(&self) -> &'static str {
        "dss-lc"
    }

    /// The ρ-shuffle RNG is the only mutable state; the scratch buffers
    /// are rebuilt per call and never affect results.
    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Ok(tango_snap::to_bytes(&self.rng.state()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let state = tango_snap::from_bytes(bytes).map_err(|_| "dss-lc rng blob")?;
        self.rng = SimRng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::test_support::{batch, cand, CountingRows};

    #[test]
    fn empty_batch_is_noop() {
        let mut s = DssLc::new(1);
        let b = batch(0, vec![cand(1, 5, 10)]);
        let p = s.plan(&b);
        assert!(p.immediate.is_empty() && p.queued.is_empty() && p.unrouted.is_empty());
    }

    #[test]
    fn under_capacity_all_requests_place_immediately() {
        let mut s = DssLc::new(1);
        let b = batch(6, vec![cand(1, 4, 5), cand(2, 4, 15)]);
        let p = s.plan(&b);
        assert_eq!(p.immediate.len(), 6);
        assert!(p.queued.is_empty());
        assert!(p.unrouted.is_empty());
    }

    #[test]
    fn dead_nodes_are_masked_out_of_the_dispatch_graph() {
        let mut s = DssLc::new(11);
        // the near node is down: everything must route to the far one,
        // and the λ-augmented overflow must not lean on dead capacity
        let mut near = cand(1, 10, 1);
        near.alive = false;
        let b = batch(6, vec![near, cand(2, 4, 50)]);
        let p = s.plan(&b);
        assert!(
            p.immediate
                .iter()
                .chain(p.queued.iter())
                .all(|&(_, n)| n == NodeId(2)),
            "placed on a dead node: {:?} / {:?}",
            p.immediate,
            p.queued
        );
        assert_eq!(p.immediate.len() + p.queued.len() + p.unrouted.len(), 6);
    }

    #[test]
    fn min_cost_prefers_low_delay_nodes() {
        let mut s = DssLc::new(2);
        // node 1: near (1ms), cap 3; node 2: far (50ms), cap 10
        let b = batch(3, vec![cand(1, 3, 1), cand(2, 10, 50)]);
        let p = s.plan(&b);
        assert_eq!(p.immediate.len(), 3);
        assert!(
            p.immediate.iter().all(|&(_, n)| n == NodeId(1)),
            "all should go near: {:?}",
            p.immediate
        );
    }

    #[test]
    fn spills_to_far_node_when_near_is_full() {
        let mut s = DssLc::new(3);
        let b = batch(5, vec![cand(1, 3, 1), cand(2, 10, 50)]);
        let p = s.plan(&b);
        assert_eq!(p.immediate.len(), 5);
        let near = p.immediate.iter().filter(|&&(_, n)| n == NodeId(1)).count();
        let far = p.immediate.iter().filter(|&&(_, n)| n == NodeId(2)).count();
        assert_eq!(near, 3);
        assert_eq!(far, 2);
    }

    #[test]
    fn overload_splits_into_immediate_and_queued() {
        let mut s = DssLc::new(4);
        // capacity 4 total, 10 requests -> 4 immediate, 6 queued
        let b = batch(10, vec![cand(1, 2, 5), cand(2, 2, 10)]);
        let p = s.plan(&b);
        assert_eq!(p.immediate.len(), 4);
        assert_eq!(p.queued.len(), 6);
        assert!(p.unrouted.is_empty());
    }

    #[test]
    fn lambda_spreads_overflow_by_total_resources() {
        let mut s = DssLc::new(5);
        // zero current capacity everywhere: pure overflow routing.
        let mut small = cand(1, 0, 5);
        small.total = tango_types::Resources::cpu_mem(4_000, 8_192); // basis 8
        let mut large = cand(2, 0, 5);
        large.total = tango_types::Resources::cpu_mem(16_000, 32_768); // basis 32
        let b = batch(20, vec![small, large]);
        let p = s.plan(&b);
        assert_eq!(p.queued.len(), 20);
        let to_small = p.queued.iter().filter(|&&(_, n)| n == NodeId(1)).count();
        let to_large = p.queued.iter().filter(|&&(_, n)| n == NodeId(2)).count();
        // 1:4 resource ratio -> roughly 4 and 16 (ceil rounding allows ±2)
        assert!(to_large > to_small, "large {to_large} vs small {to_small}");
        assert!((3..=6).contains(&to_small), "small got {to_small}");
    }

    #[test]
    fn link_capacity_constrains_dispatch() {
        let mut s = DssLc::new(6);
        let mut c1 = cand(1, 10, 5);
        c1.link_capacity = 2; // Eq. 4: at most 2 requests over this link
        let b = batch(5, vec![c1, cand(2, 10, 9)]);
        let p = s.plan(&b);
        let via_1 = p.all().filter(|&(_, n)| n == NodeId(1)).count();
        assert!(via_1 <= 2, "link cap violated: {via_1}");
        assert_eq!(p.all().count(), 5);
    }

    #[test]
    fn no_nodes_leaves_requests_unrouted() {
        let mut s = DssLc::new(7);
        let b = batch(3, vec![]);
        let p = s.plan(&b);
        assert_eq!(p.unrouted.len(), 3);
    }

    #[test]
    fn zero_capacity_and_zero_totals_leave_unrouted() {
        let mut s = DssLc::new(8);
        let mut c = cand(1, 0, 5);
        c.total = tango_types::Resources::ZERO;
        let b = batch(4, vec![c]);
        let p = s.plan(&b);
        assert_eq!(p.unrouted.len(), 4);
    }

    /// The greedy closed form and the general MCMF solver agree on total
    /// cost and per-node counts across assorted instances.
    #[test]
    fn greedy_route_matches_mcmf() {
        for seed in 0..20u64 {
            let mut rng = tango_simcore::SimRng::new(seed);
            let n = 1 + rng.next_below(12) as usize;
            let nodes: Vec<_> = (0..n)
                .map(|i| {
                    let mut c = cand(i as u32, rng.next_below(6), 1 + rng.next_below(40));
                    c.link_capacity = 1 + rng.next_below(8) as u32;
                    c
                })
                .collect();
            let caps: Vec<u64> = nodes.iter().map(|c| c.capacity_now(true)).collect();
            let demand = rng.next_below(30);
            let b = batch(0, nodes);
            let fast = DssLc::route(&b, &caps, demand);
            let slow = DssLc::route_mcmf(&b, &caps, demand);
            let total = |v: &[(usize, u64)]| -> u64 { v.iter().map(|&(_, k)| k).sum() };
            let cost = |v: &[(usize, u64)]| -> u64 {
                v.iter()
                    .map(|&(i, k)| k * b.nodes[i].delay.as_micros())
                    .sum()
            };
            assert_eq!(total(&fast), total(&slow), "flow mismatch seed {seed}");
            assert_eq!(cost(&fast), cost(&slow), "cost mismatch seed {seed}");
        }
    }

    /// `materialize` consumes the ρ-shuffled queue front to back: the
    /// immediate set is exactly the first Σcap requests of the shuffled
    /// order, the queued set the next slice, unrouted the tail. Guards
    /// against the old `pop()`-based consumption that silently reversed
    /// the FIFO order.
    #[test]
    fn materialize_consumes_rho_order_front_to_back() {
        let seed = 11u64;
        let b = batch(10, vec![cand(1, 3, 5)]); // cap 3, basis 16 -> all queue-routable
        let mut s = DssLc::new(seed);
        let p = s.plan(&b);

        // replay the ρ shuffle: plan() is the constructor's first rng use
        let mut expected = b.requests.clone();
        tango_simcore::SimRng::new(seed).shuffle(&mut expected);

        let consumed: Vec<RequestId> = p
            .immediate
            .iter()
            .chain(p.queued.iter())
            .map(|&(r, _)| r)
            .collect();
        assert_eq!(p.immediate.len(), 3);
        assert_eq!(
            consumed,
            expected[..consumed.len()].to_vec(),
            "placements must follow the shuffled queue in FIFO order"
        );
        assert_eq!(p.unrouted, expected[consumed.len()..].to_vec());
    }

    /// A mixed bag of per-type batches: under-capacity, overloaded, and
    /// empty-candidate.
    fn batch_bag(n: usize) -> Vec<TypeBatch> {
        (0..n)
            .map(|k| {
                let nodes: Vec<_> = (0..1 + k % 5)
                    .map(|i| {
                        cand(
                            (k * 8 + i) as u32,
                            (i as u64 * 3) % 7,
                            1 + (i as u64 * 13) % 40,
                        )
                    })
                    .collect();
                batch(3 + (k as u64 * 7) % 25, nodes)
            })
            .collect()
    }

    /// The ρ-stream contract a dispatch round relies on: `plan_many`
    /// plans batch `i` exactly as `plan` does on a scheduler whose RNG is
    /// the `i`-th fork, in batch order, of the scheduler's seed stream.
    #[test]
    fn plan_many_plans_each_batch_on_its_own_forked_stream() {
        let batches = batch_bag(17);
        let lent: Vec<LcBatch<'_>> = batches.iter().map(TypeBatch::as_lc).collect();
        for seed in [3u64, 99, 1 << 40] {
            let plans = DssLc::new(seed).plan_many(&lent);
            assert_eq!(plans.len(), batches.len());
            assert!(plans.iter().any(|p| !p.immediate.is_empty()));
            assert!(plans.iter().any(|p| !p.queued.is_empty()));
            let mut root = SimRng::new(seed);
            for (i, (batch, plan)) in batches.iter().zip(&plans).enumerate() {
                let mut one = DssLc::new(0);
                one.rng = root.fork();
                assert_eq!(one.plan(batch), *plan, "seed {seed}, batch {i}");
            }
        }
    }

    /// `plan_many` leaves the scheduler's RNG in the same state as the
    /// equivalent sequence of forks, so interleaving it with `plan` stays
    /// deterministic.
    #[test]
    fn plan_many_advances_rng_like_sequential_forks() {
        let batches = batch_bag(5);
        let lent: Vec<LcBatch<'_>> = batches.iter().map(TypeBatch::as_lc).collect();
        let mut a = DssLc::new(3);
        a.plan_many(&lent);
        let mut b = DssLc::new(3);
        for _ in 0..batches.len() {
            b.rng.fork();
        }
        let single = batch(4, vec![cand(1, 9, 2)]);
        assert_eq!(a.plan(&single), b.plan(&single));
    }

    /// DSS-LC builds only the rows its delay walk reaches: over seeded
    /// batches whose demand fits Σcap, a counting accessor sees exactly
    /// the rows of the delay order up to the one that placed the last
    /// request. A planner that materialised the batch's rows first would
    /// read every row.
    #[test]
    fn plan_reads_only_the_rows_its_delay_walk_reaches() {
        let mut short_walks = 0;
        for seed in 0..400u64 {
            let mut rng = SimRng::new(0x1A2_0000 + seed);
            let nodes: Vec<_> = (0..1 + rng.next_below(40) as u32)
                .map(|i| {
                    let mut c = cand(i, rng.next_below(6), 1 + rng.next_below(60));
                    c.link_capacity = 1 + rng.next_below(6) as u32;
                    c
                })
                .collect();
            let total_cap: u64 = nodes.iter().map(|c| c.capacity_now(true)).sum();
            let b = batch(1 + rng.next_below(total_cap.max(1)), nodes);
            if b.requests.len() as u64 > total_cap {
                continue; // overloaded: the λ phase reads every row
            }
            // The walk: every row of the delay order until the demand is
            // placed.
            let mut remaining = b.requests.len() as u64;
            let mut reached = Vec::new();
            for &i in &b.by_delay {
                if remaining == 0 {
                    break;
                }
                let c = &b.nodes[i as usize];
                remaining -= c
                    .capacity_now(true)
                    .min(c.link_capacity as u64)
                    .min(remaining);
                reached.push(i as usize);
            }
            let rows = CountingRows::new(&b.nodes);
            let placed = DssLc::new(seed).assign(&rows.lend(&b));
            assert_eq!(placed, DssLc::new(seed).assign(&b.as_lc()), "seed {seed}");
            let mut read = rows.reads.take();
            read.sort_unstable();
            read.dedup();
            reached.sort_unstable();
            assert_eq!(read, reached, "seed {seed}: rows read beyond the walk");
            short_walks += usize::from(reached.len() < b.nodes.len());
        }
        assert!(
            short_walks >= 200,
            "too few walks stopped early: {short_walks}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let b = batch(9, vec![cand(1, 3, 5), cand(2, 3, 7), cand(3, 10, 20)]);
        let p1 = DssLc::new(42).plan(&b);
        let p2 = DssLc::new(42).plan(&b);
        assert_eq!(p1.immediate, p2.immediate);
        assert_eq!(p1.queued, p2.queued);
    }
}
