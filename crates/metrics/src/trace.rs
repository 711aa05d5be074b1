//! Zero-cost trace hooks over the staged system runtime.
//!
//! The core runtime's stage boundaries (arrival → dispatch decision →
//! delivery → admission → completion, plus fault events) each emit a
//! [`TraceEvent`] into a [`TraceSink`]. A run has no sink by default, and
//! each emission site is a single branch on the sink's presence with the
//! event built lazily, so an untraced run pays nothing measurable. The
//! [`TraceRecorder`] ring buffer keeps the last N events for post-run
//! inspection (see `examples/trace_tap.rs` in the workspace root).
//!
//! Events carry only plain ids and times from `tango-types`, so sinks can
//! be implemented anywhere without pulling in the core crate.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use tango_types::{ClusterId, NodeId, RequestId, ServiceId, SimTime};

/// Which dispatch lane produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLane {
    /// Per-master latency-critical dispatch (DSS-LC or a baseline).
    Lc,
    /// Central best-effort dispatch (DCG-BE or a baseline).
    Be,
}

/// One event crossing a stage boundary of the system runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request arrived at its origin master and was queued.
    Arrival {
        /// The request.
        request: RequestId,
        /// Its service type.
        service: ServiceId,
        /// The cluster whose master queued it.
        origin: ClusterId,
    },
    /// A scheduler picked a target node for a request.
    DispatchDecision {
        /// The request.
        request: RequestId,
        /// The chosen worker.
        target: NodeId,
        /// Which dispatcher decided.
        lane: TraceLane,
    },
    /// A dispatched payload reached its target worker.
    Delivery {
        /// The request.
        request: RequestId,
        /// The worker it landed on.
        node: NodeId,
        /// `true` when the target had crashed while the payload was in
        /// flight and the request bounced back to its scheduler.
        bounced: bool,
    },
    /// The allocator ruled on a delivered (or node-waiting) request.
    Admission {
        /// The request.
        request: RequestId,
        /// The worker that ruled.
        node: NodeId,
        /// `true` = admitted and running; `false` = parked or bounced.
        admitted: bool,
    },
    /// A request finished executing.
    Completion {
        /// The request.
        request: RequestId,
        /// The worker it ran on.
        node: NodeId,
        /// Arrival-to-completion latency.
        latency: SimTime,
    },
    /// A request was abandoned (queue deadline, patience, or requeue
    /// budget exhaustion).
    Abandoned {
        /// The request.
        request: RequestId,
    },
    /// A fault-plan event fired.
    Fault {
        /// Short static label of the fault kind (`"crash"`, `"recover"`,
        /// `"degrade"`, `"restore"`, `"partition"`, `"heal"`).
        kind: &'static str,
        /// The affected node, when the fault targets one.
        node: Option<NodeId>,
    },
}

/// A consumer of stage-boundary trace events.
///
/// Implementations must be cheap: `record` runs inline in the simulation
/// event loop. They must also be deterministic observers — a sink must
/// never feed information back into the run.
pub trait TraceSink: Send {
    /// Consume one event stamped with its simulation time.
    fn record(&mut self, at: SimTime, event: TraceEvent);
}

/// A bounded ring-buffer recorder with a cloneable read handle.
///
/// Clone the recorder before handing it to the system; after the run the
/// retained events (the most recent `capacity`) are read back with
/// [`TraceRecorder::events`]. The shared buffer is mutex-guarded, but the
/// simulation event loop is single-threaded so the lock is uncontended.
///
/// # Overwrite semantics
///
/// The buffer is a fixed-capacity ring: once `capacity` events are
/// retained, each new event **evicts the oldest one** and increments
/// [`TraceRecorder::dropped`]. [`TraceRecorder::events`] therefore
/// always returns the most recent window of history, and
/// `dropped() == 0` is the test for that window being complete.
/// [`TraceRecorder::total_seen`] keeps counting across evictions, so
/// `total_seen() == dropped() + len()` at all times. Consumers that
/// poll mid-run should use [`TraceRecorder::drain`], which takes the
/// retained window and resets `dropped` in one atomic step — polling
/// with `events()` + `dropped()` separately can double-count an
/// eviction that lands between the two calls.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

struct RecorderInner {
    buf: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    seen: u64,
    dropped: u64,
}

/// Ring capacity used by [`TraceRecorder::default`]. Pick an explicit
/// capacity with [`TraceRecorder::new`] when the run is long or events
/// must not be lost; check [`TraceRecorder::dropped`] afterwards.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder retaining the most recent `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                buf: VecDeque::with_capacity(capacity),
                capacity,
                seen: 0,
                dropped: 0,
            })),
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("trace recorder poisoned").capacity
    }

    /// Number of records the ring has evicted to make room — events that
    /// were seen but are no longer retained. Zero means
    /// [`TraceRecorder::events`] is the complete history.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace recorder poisoned").dropped
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<(SimTime, TraceEvent)> {
        let inner = self.inner.lock().expect("trace recorder poisoned");
        inner.buf.iter().cloned().collect()
    }

    /// Take the retained events (oldest first), emptying the ring and
    /// resetting the [`TraceRecorder::dropped`] counter in one locked
    /// step. Returns the events together with the number dropped since
    /// the previous drain, so an incremental consumer knows exactly how
    /// large the gap before this window is. `total_seen` keeps
    /// accumulating across drains.
    pub fn drain(&self) -> (Vec<(SimTime, TraceEvent)>, u64) {
        let mut inner = self.inner.lock().expect("trace recorder poisoned");
        let events = inner.buf.drain(..).collect();
        let dropped = std::mem::take(&mut inner.dropped);
        (events, dropped)
    }

    /// Retained events for one request, oldest first — a per-request
    /// timeline.
    pub fn timeline(&self, request: RequestId) -> Vec<(SimTime, TraceEvent)> {
        self.events()
            .into_iter()
            .filter(|(_, e)| e.request() == Some(request))
            .collect()
    }

    /// Total events ever recorded, including ones the ring has evicted.
    pub fn total_seen(&self) -> u64 {
        self.inner.lock().expect("trace recorder poisoned").seen
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("trace recorder poisoned")
            .buf
            .len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("trace recorder poisoned");
        inner.seen += 1;
        if inner.buf.len() == inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back((at, event));
    }
}

impl TraceEvent {
    /// The request this event concerns, when it concerns one.
    pub fn request(&self) -> Option<RequestId> {
        match self {
            TraceEvent::Arrival { request, .. }
            | TraceEvent::DispatchDecision { request, .. }
            | TraceEvent::Delivery { request, .. }
            | TraceEvent::Admission { request, .. }
            | TraceEvent::Completion { request, .. }
            | TraceEvent::Abandoned { request } => Some(*request),
            TraceEvent::Fault { .. } => None,
        }
    }

    /// Short static label for displays.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::DispatchDecision { .. } => "dispatch",
            TraceEvent::Delivery { .. } => "deliver",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::Completion { .. } => "complete",
            TraceEvent::Abandoned { .. } => "abandoned",
            TraceEvent::Fault { .. } => "fault",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Arrival {
            request: RequestId(i),
            service: ServiceId(0),
            origin: ClusterId(0),
        }
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut rec = TraceRecorder::new(3);
        for i in 0..5 {
            rec.record(SimTime::from_millis(i), ev(i));
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.total_seen(), 5);
        assert_eq!(events[0].1.request(), Some(RequestId(2)));
        assert_eq!(events[2].1.request(), Some(RequestId(4)));
    }

    #[test]
    fn timeline_filters_by_request() {
        let mut rec = TraceRecorder::new(16);
        rec.record(SimTime::ZERO, ev(1));
        rec.record(
            SimTime::from_millis(1),
            TraceEvent::DispatchDecision {
                request: RequestId(1),
                target: NodeId(7),
                lane: TraceLane::Lc,
            },
        );
        rec.record(SimTime::from_millis(2), ev(2));
        let tl = rec.timeline(RequestId(1));
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[1].1.kind(), "dispatch");
    }

    #[test]
    fn fault_events_have_no_request() {
        assert_eq!(
            TraceEvent::Fault {
                kind: "crash",
                node: Some(NodeId(3))
            }
            .request(),
            None
        );
    }

    #[test]
    fn drain_takes_events_and_resets_dropped_atomically() {
        let mut rec = TraceRecorder::new(3);
        for i in 0..5 {
            rec.record(SimTime::from_millis(i), ev(i));
        }
        let (events, dropped) = rec.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].1.request(), Some(RequestId(2)));
        assert_eq!(dropped, 2);
        // the ring and the dropped counter restart together
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.total_seen(), 5);
        rec.record(SimTime::from_millis(9), ev(9));
        let (events, dropped) = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        assert_eq!(rec.total_seen(), 6);
    }

    #[test]
    fn clones_share_one_buffer() {
        let rec = TraceRecorder::new(8);
        let mut writer = rec.clone();
        writer.record(SimTime::ZERO, ev(9));
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
    }
}
