//! The simulation engine loop.
//!
//! The engine owns the clock and the event queue; domain logic lives in an
//! [`EventHandler`] implementation which receives each event together with a
//! [`Scheduler`] handle for scheduling follow-up events. The loop runs until
//! a time horizon is reached or the queue drains.

use crate::queue::EventQueue;
use tango_types::SimTime;

/// Handle given to event handlers for scheduling future events.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute instant. Events scheduled in the
    /// past are clamped to fire "now" (they run after the current event,
    /// preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Like [`schedule_at`](Self::schedule_at), under a caller-chosen
    /// sequence key below [`KEYED_SEQS`](crate::queue::KEYED_SEQS) (see
    /// [`EventQueue::push_keyed`]).
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        self.queue.push_keyed(at.max(self.now), key, event);
    }
}

/// Domain logic driven by the engine.
pub trait EventHandler {
    /// The event alphabet of the simulation.
    type Event;

    /// Handle one event at its firing time; schedule follow-ups through
    /// `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// A discrete-event simulation engine.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulation time (the timestamp of the last handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seed an event before (or during) the run.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Seed an event under a sequence key (see
    /// [`Scheduler::schedule_keyed`]).
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        self.queue.push_keyed(at.max(self.now), key, event);
    }

    /// Read access to the pending-event queue, for checkpointing.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Rebuild an engine mid-run from checkpointed parts. The clock,
    /// processed-event counter and queue (including its sequence counter)
    /// must all come from the same snapshot or determinism is lost.
    pub fn from_parts(now: SimTime, processed: u64, queue: EventQueue<E>) -> Self {
        Engine {
            queue,
            now,
            processed,
        }
    }

    /// Run until the queue drains or the next event would fire *after*
    /// `horizon`. Events exactly at the horizon are processed. Returns the
    /// number of events handled by this call.
    pub fn run_until<H>(&mut self, handler: &mut H, horizon: SimTime) -> u64
    where
        H: EventHandler<Event = E>,
    {
        let mut handled = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > horizon {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event must pop");
            debug_assert!(at >= self.now, "event queue must be monotonic");
            self.now = at;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            handler.handle(event, &mut sched);
            self.processed += 1;
            handled += 1;
        }
        // Advance the clock to the horizon so periodic drivers observe
        // consistent window boundaries even when the tail was quiet. A MAX
        // horizon means "run to completion": the clock stays at the last
        // event rather than jumping to infinity.
        if horizon < SimTime::MAX
            && self.now < horizon
            && self.queue.peek_time().is_none_or(|t| t > horizon)
        {
            self.now = horizon;
        }
        handled
    }

    /// Run until the queue is fully drained.
    pub fn run_to_completion<H>(&mut self, handler: &mut H) -> u64
    where
        H: EventHandler<Event = E>,
    {
        self.run_until(handler, SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler that records firing times and chains follow-up events.
    struct Recorder {
        fired: Vec<(SimTime, u32)>,
        chain_until: u32,
    }

    impl EventHandler for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.fired.push((sched.now(), event));
            if event < self.chain_until {
                sched.schedule_in(SimTime::from_millis(10), event + 1);
            }
        }
    }

    #[test]
    fn chained_events_advance_the_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_millis(5), 0);
        let mut h = Recorder {
            fired: vec![],
            chain_until: 3,
        };
        let n = eng.run_to_completion(&mut h);
        assert_eq!(n, 4);
        assert_eq!(
            h.fired,
            vec![
                (SimTime::from_millis(5), 0),
                (SimTime::from_millis(15), 1),
                (SimTime::from_millis(25), 2),
                (SimTime::from_millis(35), 3),
            ]
        );
        assert_eq!(eng.now(), SimTime::from_millis(35));
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn horizon_cuts_off_and_clock_lands_on_horizon() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_millis(5), 0);
        let mut h = Recorder {
            fired: vec![],
            chain_until: 100,
        };
        let n = eng.run_until(&mut h, SimTime::from_millis(26));
        assert_eq!(n, 3); // fires at 5, 15, 25
        assert_eq!(eng.now(), SimTime::from_millis(26));
        assert_eq!(eng.pending(), 1); // the one at 35 still queued

        // resuming continues from where we stopped
        let n2 = eng.run_until(&mut h, SimTime::from_millis(1000));
        assert!(n2 > 0);
        assert!(h.fired.iter().any(|&(t, _)| t == SimTime::from_millis(35)));
    }

    #[test]
    fn event_at_exact_horizon_fires() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_millis(10), 0);
        let mut h = Recorder {
            fired: vec![],
            chain_until: 0,
        };
        let n = eng.run_until(&mut h, SimTime::from_millis(10));
        assert_eq!(n, 1);
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct PastScheduler {
            seen: Vec<SimTime>,
        }
        impl EventHandler for PastScheduler {
            type Event = bool;
            fn handle(&mut self, first: bool, sched: &mut Scheduler<'_, bool>) {
                self.seen.push(sched.now());
                if first {
                    // try to schedule into the past
                    sched.schedule_at(SimTime::ZERO, false);
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_millis(50), true);
        let mut h = PastScheduler { seen: vec![] };
        eng.run_to_completion(&mut h);
        assert_eq!(h.seen.len(), 2);
        assert_eq!(h.seen[1], SimTime::from_millis(50)); // clamped, not time-travel
    }
}
