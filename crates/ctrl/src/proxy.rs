//! ProxyBackend: delegate LC dispatch decisions to an external source.
//!
//! The inbound half of the delegated-orchestration seam. Each dispatch
//! round the proxy serializes the round's candidate views into a framed
//! [`DecisionRequest`] (`TGDQ`), offers it to a [`DecisionSource`], and
//! validates whatever comes back as a [`DecisionReply`] (`TGDR`). The
//! wrapped local scheduler (DSS-LC or a baseline) remains the authority of
//! last resort — the proxy falls back to it deterministically when the
//! source declines, misses its sim-time deadline, or returns a malformed
//! or inconsistent decision. Fallback therefore never depends on
//! wall-clock: the source *claims* a sim-time compute latency in its
//! reply, and the proxy judges it against the configured deadline, so a
//! run is bit-identical regardless of how slow the external process
//! really was.
//!
//! The proxy is an [`LcScheduler`] itself: delegation covers LC round
//! planning, the one decision with a wire-shaped batch view. Node state
//! leaves through the proxy as whole [`CandidateNode`] rows, never as the
//! system's internal tables: the proxy materialises each lent batch's
//! rows at this boundary, once per round, and validates replies against
//! exactly the rows it sent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::frame;
use tango_sched::{CandidateNode, LcBatch, LcScheduler};
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError};
use tango_types::{ClusterId, NodeId, RequestId, ServiceId, SimTime};

/// Wire magic for a decision request frame.
pub const DECISION_REQUEST_MAGIC: u32 = u32::from_le_bytes(*b"TGDQ");
/// Wire magic for a decision reply frame.
pub const DECISION_REPLY_MAGIC: u32 = u32::from_le_bytes(*b"TGDR");
/// Decision wire-format version, bumped on any layout change.
pub const DECISION_FORMAT_VERSION: u16 = 1;

/// One per-type batch as it travels in a decision request: the pending
/// requests plus the full candidate views the local policy would see.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBatch {
    /// The request type k.
    pub service: ServiceId,
    /// Pending request ids, in queue order.
    pub requests: Vec<RequestId>,
    /// Candidate nodes with their §5.2.1 attributes.
    pub candidates: Vec<CandidateNode>,
}

/// One dispatch round offered to an external decision source.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRequest {
    /// Monotone per-proxy round counter; the reply must echo it.
    pub round: u64,
    /// The deciding master's cluster.
    pub cluster: ClusterId,
    /// Sim-time compute budget: replies claiming more are discarded.
    pub deadline: SimTime,
    /// The round's per-type batches.
    pub batches: Vec<RequestBatch>,
}

/// An external source's placements for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionReply {
    /// Echo of [`DecisionRequest::round`].
    pub round: u64,
    /// Sim-time the source claims the decision took. Judged against the
    /// request's deadline — never wall-clock, so runs stay deterministic.
    pub compute_latency: SimTime,
    /// Placements per batch, in batch order. Requests left out stay
    /// queued, exactly as with a local policy.
    pub placements: Vec<Vec<(RequestId, NodeId)>>,
}

snap_record!(RequestBatch {
    service,
    requests,
    candidates,
});

snap_record!(DecisionRequest {
    round,
    cluster,
    deadline,
    batches,
});

snap_record!(DecisionReply {
    round,
    compute_latency,
    placements,
});

/// Encode a decision request frame.
pub fn encode_request(req: &DecisionRequest) -> Vec<u8> {
    frame::seal(DECISION_REQUEST_MAGIC, DECISION_FORMAT_VERSION, |w| {
        req.encode(w)
    })
}

/// Decode and validate a decision request frame.
pub fn decode_request(bytes: &[u8]) -> Result<DecisionRequest, SnapError> {
    let (_, mut r) = frame::open(bytes, &[DECISION_REQUEST_MAGIC], DECISION_FORMAT_VERSION)?;
    let req = DecisionRequest::decode(&mut r)?;
    r.expect_end("decision request")?;
    Ok(req)
}

/// Encode a decision reply frame.
pub fn encode_reply(reply: &DecisionReply) -> Vec<u8> {
    frame::seal(DECISION_REPLY_MAGIC, DECISION_FORMAT_VERSION, |w| {
        reply.encode(w)
    })
}

/// Decode and validate a decision reply frame.
pub fn decode_reply(bytes: &[u8]) -> Result<DecisionReply, SnapError> {
    let (_, mut r) = frame::open(bytes, &[DECISION_REPLY_MAGIC], DECISION_FORMAT_VERSION)?;
    let reply = DecisionReply::decode(&mut r)?;
    r.expect_end("decision reply")?;
    Ok(reply)
}

/// An external decision authority as the proxy sees it: give it encoded
/// request bytes, get encoded reply bytes back — or `None` to decline
/// the round (the wrapped local policy then plans it). The byte-level
/// surface is what a socket transport will implement; the in-process
/// sources below speak it already.
pub trait DecisionSource: Send {
    /// Offer one round. `None` = decline (not a failure).
    fn decide(&mut self, request: &[u8]) -> Option<Vec<u8>>;
}

/// A decision source that declines every round: attaching it must leave
/// runs bit-identical to local mode — the golden-digest proof that the
/// proxy seam is inert until someone actually decides.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProxy;

impl DecisionSource for NoopProxy {
    fn decide(&mut self, _request: &[u8]) -> Option<Vec<u8>> {
        None
    }
}

/// Wrap a decoded-level policy closure as a byte-level decision source:
/// decodes each request, runs the closure, encodes its reply. Malformed
/// requests (impossible from the in-process proxy) are declined.
pub struct PolicyFn<F>(F);

impl<F> PolicyFn<F>
where
    F: FnMut(&DecisionRequest) -> Option<DecisionReply> + Send,
{
    /// Lift `f` into a [`DecisionSource`].
    pub fn new(f: F) -> Self {
        PolicyFn(f)
    }
}

impl<F> DecisionSource for PolicyFn<F>
where
    F: FnMut(&DecisionRequest) -> Option<DecisionReply> + Send,
{
    fn decide(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let req = decode_request(request).ok()?;
        (self.0)(&req).map(|reply| encode_reply(&reply))
    }
}

/// Why delegation handed a round back to the local policy, per round.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Rounds the external source placed (validated replies).
    pub accepted: AtomicU64,
    /// Rounds the source declined (no reply) — the NoopProxy path.
    pub declined: AtomicU64,
    /// Rounds with a reply that was malformed, inconsistent, or over
    /// the sim-time deadline — the deterministic-fallback path.
    pub fallbacks: AtomicU64,
}

impl ProxyStats {
    /// Snapshot of (accepted, declined, fallbacks).
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.accepted.load(Ordering::Relaxed),
            self.declined.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }
}

/// An [`LcScheduler`] that delegates LC round planning to a
/// [`DecisionSource`], falling back to the wrapped scheduler whenever the
/// source does not produce a valid in-deadline decision.
pub struct ProxyBackend {
    inner: Box<dyn LcScheduler + Send>,
    source: Box<dyn DecisionSource + Send>,
    cluster: ClusterId,
    deadline: SimTime,
    round: u64,
    stats: Arc<ProxyStats>,
}

impl ProxyBackend {
    /// Wrap `inner`, delegating each LC round to `source` with the given
    /// sim-time decision deadline.
    pub fn new(
        inner: Box<dyn LcScheduler + Send>,
        source: Box<dyn DecisionSource + Send>,
        cluster: ClusterId,
        deadline: SimTime,
    ) -> Self {
        ProxyBackend {
            inner,
            source,
            cluster,
            deadline,
            round: 0,
            stats: Arc::new(ProxyStats::default()),
        }
    }

    /// Shared handle to this proxy's outcome counters.
    pub fn stats(&self) -> Arc<ProxyStats> {
        Arc::clone(&self.stats)
    }

    /// Validate a reply against the round's batches as sent; `Err` names
    /// the first inconsistency (drives the fallback counter).
    fn validate(
        &self,
        reply: &DecisionReply,
        batches: &[RequestBatch],
    ) -> Result<Vec<Vec<(RequestId, NodeId)>>, &'static str> {
        if reply.round != self.round {
            return Err("round mismatch");
        }
        if reply.compute_latency > self.deadline {
            return Err("deadline miss");
        }
        if reply.placements.len() != batches.len() {
            return Err("batch count mismatch");
        }
        let mut out = Vec::with_capacity(batches.len());
        for (placed, batch) in reply.placements.iter().zip(batches) {
            let mut seen: Vec<RequestId> = Vec::with_capacity(placed.len());
            for &(rid, node) in placed {
                if !batch.requests.contains(&rid) {
                    return Err("placement for a request not in the batch");
                }
                if seen.contains(&rid) {
                    return Err("request placed twice");
                }
                let Some(cand) = batch.candidates.iter().find(|c| c.node == node) else {
                    return Err("placement onto a non-candidate node");
                };
                if !cand.alive {
                    return Err("placement onto a dead node");
                }
                seen.push(rid);
            }
            out.push(placed.clone());
        }
        Ok(out)
    }
}

impl LcScheduler for ProxyBackend {
    /// A lone batch is offered as a one-batch round.
    fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
        self.assign_many(std::slice::from_ref(batch))
            .pop()
            .unwrap_or_default()
    }

    fn assign_many(&mut self, batches: &[LcBatch<'_>]) -> Vec<Vec<(RequestId, NodeId)>> {
        if batches.iter().all(|b| b.requests.is_empty()) {
            return self.inner.assign_many(batches);
        }
        self.round += 1;
        let request = DecisionRequest {
            round: self.round,
            cluster: self.cluster,
            deadline: self.deadline,
            batches: batches
                .iter()
                .map(|b| RequestBatch {
                    service: b.service,
                    requests: b.requests.to_vec(),
                    candidates: b.rows.to_vec(),
                })
                .collect(),
        };
        let Some(reply_bytes) = self.source.decide(&encode_request(&request)) else {
            self.stats.declined.fetch_add(1, Ordering::Relaxed);
            return self.inner.assign_many(batches);
        };
        let placements = decode_reply(&reply_bytes)
            .map_err(|_| "malformed reply frame")
            .and_then(|reply| self.validate(&reply, &request.batches));
        match placements {
            Ok(p) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                p
            }
            Err(_) => {
                self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.inner.assign_many(batches)
            }
        }
    }

    fn name(&self) -> &'static str {
        "proxy"
    }

    fn snapshot_state(&self) -> Result<Vec<u8>, &'static str> {
        Err("proxy backend delegates to an external source and cannot checkpoint it")
    }

    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
        Err("proxy backend delegates to an external source and cannot restore it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_sched::TypeBatch;
    use tango_types::Resources;

    fn cand(node: u32, alive: bool) -> CandidateNode {
        CandidateNode {
            node: NodeId(node),
            cluster: ClusterId(0),
            total: Resources::cpu_mem(4000, 8192),
            available_lc: Resources::cpu_mem(2000, 4096),
            available_be: Resources::cpu_mem(1000, 2048),
            min_request: Resources::cpu_mem(250, 256),
            delay: SimTime::from_millis(2),
            link_capacity: 8,
            slack: 1.0,
            alive,
        }
    }

    fn batch(reqs: &[u64], nodes: Vec<CandidateNode>) -> TypeBatch {
        TypeBatch::new(
            ServiceId(0),
            reqs.iter().map(|&r| RequestId(r)).collect(),
            nodes,
        )
    }

    /// A local stand-in that places every request on a fixed node.
    struct PinAll(NodeId);
    impl LcScheduler for PinAll {
        fn assign(&mut self, batch: &LcBatch<'_>) -> Vec<(RequestId, NodeId)> {
            batch.requests.iter().map(|&r| (r, self.0)).collect()
        }
        fn name(&self) -> &'static str {
            "pin-all"
        }
    }

    #[test]
    fn request_and_reply_frames_round_trip() {
        let req = DecisionRequest {
            round: 7,
            cluster: ClusterId(3),
            deadline: SimTime::from_millis(5),
            batches: vec![RequestBatch {
                service: ServiceId(1),
                requests: vec![RequestId(10), RequestId(11)],
                candidates: vec![cand(0, true), cand(1, false)],
            }],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let reply = DecisionReply {
            round: 7,
            compute_latency: SimTime::from_millis(1),
            placements: vec![vec![(RequestId(10), NodeId(0))]],
        };
        assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
    }

    #[test]
    fn corrupt_decision_frames_map_to_snap_errors() {
        let bytes = encode_reply(&DecisionReply {
            round: 1,
            compute_latency: SimTime::ZERO,
            placements: vec![],
        });
        assert_eq!(decode_reply(&bytes[..5]), Err(SnapError::Truncated));
        let mut flipped = bytes.clone();
        flipped[6] ^= 1;
        assert!(matches!(
            decode_reply(&flipped),
            Err(SnapError::BadChecksum { .. })
        ));
        assert!(matches!(
            decode_request(&bytes),
            Err(SnapError::BadMagic) | Err(SnapError::BadChecksum { .. })
        ));
    }

    #[test]
    fn accepted_decision_overrides_the_local_policy() {
        let source = PolicyFn::new(|req: &DecisionRequest| {
            Some(DecisionReply {
                round: req.round,
                compute_latency: SimTime::from_millis(1),
                placements: req
                    .batches
                    .iter()
                    .map(|b| b.requests.iter().map(|&r| (r, NodeId(1))).collect())
                    .collect(),
            })
        });
        let mut proxy = ProxyBackend::new(
            Box::new(PinAll(NodeId(0))),
            Box::new(source),
            ClusterId(0),
            SimTime::from_millis(5),
        );
        let b = batch(&[1, 2], vec![cand(0, true), cand(1, true)]);
        let out = proxy.assign_many(&[b.as_lc()]);
        assert_eq!(
            out,
            vec![vec![(RequestId(1), NodeId(1)), (RequestId(2), NodeId(1))]]
        );
        assert_eq!(proxy.stats().totals(), (1, 0, 0));
    }

    #[test]
    fn deadline_miss_falls_back_to_the_local_policy() {
        let source = PolicyFn::new(|req: &DecisionRequest| {
            Some(DecisionReply {
                round: req.round,
                compute_latency: SimTime::from_millis(50), // over the 5 ms budget
                placements: req
                    .batches
                    .iter()
                    .map(|b| b.requests.iter().map(|&r| (r, NodeId(1))).collect())
                    .collect(),
            })
        });
        let mut proxy = ProxyBackend::new(
            Box::new(PinAll(NodeId(0))),
            Box::new(source),
            ClusterId(0),
            SimTime::from_millis(5),
        );
        let b = batch(&[1], vec![cand(0, true), cand(1, true)]);
        let out = proxy.assign_many(&[b.as_lc()]);
        assert_eq!(out, vec![vec![(RequestId(1), NodeId(0))]]);
        assert_eq!(proxy.stats().totals(), (0, 0, 1));
    }

    #[test]
    fn invalid_placements_fall_back() {
        // Places onto a dead node → rejected, local policy plans.
        let source = PolicyFn::new(|req: &DecisionRequest| {
            Some(DecisionReply {
                round: req.round,
                compute_latency: SimTime::ZERO,
                placements: req
                    .batches
                    .iter()
                    .map(|b| b.requests.iter().map(|&r| (r, NodeId(1))).collect())
                    .collect(),
            })
        });
        let mut proxy = ProxyBackend::new(
            Box::new(PinAll(NodeId(0))),
            Box::new(source),
            ClusterId(0),
            SimTime::from_millis(5),
        );
        let b = batch(&[1], vec![cand(0, true), cand(1, false)]);
        let out = proxy.assign_many(&[b.as_lc()]);
        assert_eq!(out, vec![vec![(RequestId(1), NodeId(0))]]);
        assert_eq!(proxy.stats().totals(), (0, 0, 1));
    }

    #[test]
    fn noop_proxy_declines_and_the_local_policy_plans() {
        let mut proxy = ProxyBackend::new(
            Box::new(PinAll(NodeId(0))),
            Box::new(NoopProxy),
            ClusterId(0),
            SimTime::from_millis(5),
        );
        let b = batch(&[1], vec![cand(0, true)]);
        let out = proxy.assign_many(&[b.as_lc()]);
        assert_eq!(out, vec![vec![(RequestId(1), NodeId(0))]]);
        assert_eq!(proxy.stats().totals(), (0, 1, 0));
        // a lone batch is offered to the source as a one-batch round
        assert_eq!(proxy.assign(&b.as_lc()), out[0]);
        assert_eq!(proxy.stats().totals(), (0, 2, 0));
        assert!(proxy.snapshot_state().is_err());
    }
}
