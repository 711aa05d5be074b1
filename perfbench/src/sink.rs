//! The traced run's [`TraceSink`]: a count per event kind, plus one
//! `Instant` each time simulated time crosses into a new 10 ms window, so
//! tracing stays cheap enough to leave the run's cost nearly unchanged.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tango::{TraceEvent, TraceLane, TraceSink};
use tango_types::SimTime;

/// Width of one wall-time window, in simulated time.
pub const WINDOW: SimTime = SimTime::from_millis(10);

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounts {
    pub arrivals: u64,
    pub lc_decisions: u64,
    pub be_decisions: u64,
    pub deliveries: u64,
    pub bounced: u64,
    pub admissions: u64,
    pub admitted: u64,
    pub completions: u64,
    pub abandoned: u64,
    pub faults: u64,
    /// Wall time spent in each window of simulated time, in ms.
    pub window_ms: Vec<f64>,
}

impl TraceCounts {
    pub fn events(&self) -> u64 {
        self.arrivals
            + self.lc_decisions
            + self.be_decisions
            + self.deliveries
            + self.admissions
            + self.completions
            + self.abandoned
            + self.faults
    }
}

/// Counts events and stamps windows; publishes its counts to the shared
/// slot when the system drops it at the end of the run.
pub struct WindowSink {
    counts: TraceCounts,
    window_start: Option<Instant>,
    next_edge: SimTime,
    out: Arc<Mutex<Option<TraceCounts>>>,
}

impl WindowSink {
    /// A sink and the slot its counts land in once the run is over.
    pub fn new() -> (WindowSink, Arc<Mutex<Option<TraceCounts>>>) {
        let out = Arc::new(Mutex::new(None));
        let sink = WindowSink {
            counts: TraceCounts::default(),
            window_start: None,
            next_edge: WINDOW,
            out: Arc::clone(&out),
        };
        (sink, out)
    }

    fn close_windows(&mut self, at: SimTime) {
        let now = Instant::now();
        let start = self.window_start.replace(now).unwrap_or(now);
        self.counts
            .window_ms
            .push(now.duration_since(start).as_secs_f64() * 1e3);
        // windows without a single event took no wall time of their own
        while self.next_edge <= at {
            self.next_edge += WINDOW;
            if self.next_edge <= at {
                self.counts.window_ms.push(0.0);
            }
        }
    }
}

impl TraceSink for WindowSink {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.window_start.is_none() {
            self.window_start = Some(Instant::now());
        }
        if at >= self.next_edge {
            self.close_windows(at);
        }
        let c = &mut self.counts;
        match event {
            TraceEvent::Arrival { .. } => c.arrivals += 1,
            TraceEvent::DispatchDecision {
                lane: TraceLane::Lc,
                ..
            } => c.lc_decisions += 1,
            TraceEvent::DispatchDecision {
                lane: TraceLane::Be,
                ..
            } => c.be_decisions += 1,
            TraceEvent::Delivery { bounced, .. } => {
                c.deliveries += 1;
                c.bounced += bounced as u64;
            }
            TraceEvent::Admission { admitted, .. } => {
                c.admissions += 1;
                c.admitted += admitted as u64;
            }
            TraceEvent::Completion { .. } => c.completions += 1,
            TraceEvent::Abandoned { .. } => c.abandoned += 1,
            TraceEvent::Fault { .. } => c.faults += 1,
        }
    }
}

impl Drop for WindowSink {
    fn drop(&mut self) {
        if let Some(start) = self.window_start {
            self.counts
                .window_ms
                .push(start.elapsed().as_secs_f64() * 1e3);
        }
        // never panic in drop: a poisoned slot just loses the counts,
        // which the caller reports as a failed run
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.counts));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_types::{ClusterId, NodeId, RequestId, ServiceId};

    #[test]
    fn counts_events_and_fills_empty_windows() {
        let (mut sink, out) = WindowSink::new();
        let arrival = TraceEvent::Arrival {
            request: RequestId(1),
            service: ServiceId(0),
            origin: ClusterId(0),
        };
        sink.record(SimTime::from_millis(1), arrival.clone());
        sink.record(
            SimTime::from_millis(2),
            TraceEvent::Delivery {
                request: RequestId(1),
                node: NodeId(3),
                bounced: true,
            },
        );
        // jumps from window 0 to window 3: windows 1 and 2 saw nothing
        sink.record(SimTime::from_millis(35), arrival);
        drop(sink);
        let c = out.lock().unwrap().take().unwrap();
        assert_eq!((c.arrivals, c.deliveries, c.bounced), (2, 1, 1));
        assert_eq!(c.events(), 3);
        assert_eq!(c.window_ms.len(), 4);
        assert_eq!(&c.window_ms[1..3], &[0.0, 0.0]);
    }
}
