//! The event queue: a time-ordered priority queue with stable tie-breaking.
//!
//! Implemented as a bucketed **calendar queue** (a timing wheel with a
//! far-future overflow heap) rather than a single binary heap. The hot
//! traffic of a Tango run — dispatch rounds every 10 ms, deliveries a few
//! ms out, node-completion checks — lands within about a simulated second
//! of "now", so those events go straight into a ring of fixed-width time
//! buckets: push is a binary-search insert into a short sorted bucket,
//! pop is an O(1) `Vec::pop` off the cursor bucket. Only genuinely
//! far-future events (BE patience timers, long completions) pay for the
//! heap, and they migrate into the ring as the cursor sweeps forward.
//! Bucket vectors keep their capacity across drains, so steady-state
//! operation allocates nothing per push.
//!
//! Ordering contract (unchanged from the binary-heap implementation):
//! events pop in ascending `(time, seq)` order, so events scheduled for
//! the same instant pop in the order they were pushed (FIFO), which keeps
//! simulations deterministic. Sequence numbers below [`KEYED_SEQS`] are
//! chosen by the caller ([`EventQueue::push_keyed`]); plain pushes
//! number upward from that boundary, so a keyed event pops ahead of
//! every plain event at the same instant, and keyed events among
//! themselves in key order. Snapshot wire-compat is likewise unchanged:
//! [`EventQueue::entries`] exposes every pending `(at, seq, event)` and
//! [`EventQueue::from_entries`] rebuilds from them, with checkpointing
//! sorting by `(at, seq)` before encoding exactly as before.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tango_types::SimTime;

/// The first sequence number of plain pushes. Everything below it is a
/// key handed to [`EventQueue::push_keyed`].
pub const KEYED_SEQS: u64 = 1 << 63;

/// log2 of the bucket width in microseconds: 1024 µs ≈ 1 ms buckets.
const BUCKET_SHIFT: u32 = 10;
/// Number of ring buckets (must be a power of two): with 1024 µs buckets
/// the ring spans ~1.07 simulated seconds ahead of the cursor.
const NUM_BUCKETS: usize = 1024;

/// Absolute bucket index ("day") of a timestamp.
#[inline]
fn day_of(at: SimTime) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

/// Internal entry. Ordered by (time, seq) ascending — `BinaryHeap` is a
/// max-heap so `Ord` is reversed (the heap only holds overflow entries).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed for min-heap behaviour
        other.key().cmp(&self.key())
    }
}

/// A future-event list. Events scheduled for the same instant pop in the
/// order they were pushed (FIFO), which keeps simulations deterministic.
pub struct EventQueue<E> {
    /// Ring of time buckets. Bucket `d % NUM_BUCKETS` holds entries whose
    /// day `d` lies in `[cursor_day, cursor_day + NUM_BUCKETS)`, kept
    /// sorted **descending** by `(at, seq)` so the minimum pops off the
    /// tail in O(1).
    buckets: Vec<Vec<Entry<E>>>,
    /// Day the cursor bucket corresponds to; nothing earlier than the
    /// cursor bucket remains anywhere in the ring.
    cursor_day: u64,
    /// Entries currently held in the ring (as opposed to `overflow`).
    ring_len: usize,
    /// Entries beyond the ring window, drained in as the cursor advances.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cursor_day: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: KEYED_SEQS,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_raw(Entry { at, seq, event });
    }

    /// Schedule `event` at `at` under the caller's sequence number `key`
    /// (below [`KEYED_SEQS`]): it pops ahead of every plain push at the
    /// same instant, and after keyed events with smaller keys.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(key < KEYED_SEQS, "key {key} is in the plain range");
        self.push_raw(Entry {
            at,
            seq: key,
            event,
        });
    }

    /// Insert an entry with an already-assigned sequence number.
    fn push_raw(&mut self, e: Entry<E>) {
        let day = day_of(e.at);
        if day >= self.cursor_day + NUM_BUCKETS as u64 {
            self.overflow.push(e);
            return;
        }
        // Entries at or before the cursor day (the engine clamps
        // past-scheduling to "now", but the queue stays correct for
        // arbitrary pushes) share the cursor bucket: every earlier bucket
        // has already fully drained, and in-bucket ordering still puts
        // them ahead of later keys.
        let day = day.max(self.cursor_day);
        let bucket = &mut self.buckets[(day % NUM_BUCKETS as u64) as usize];
        // Sorted-descending insert; the common case (monotonically
        // increasing schedule order within a bucket) hits index 0.
        let key = e.key();
        let idx = bucket
            .binary_search_by(|probe| key.cmp(&probe.key()))
            .unwrap_or_else(|i| i);
        bucket.insert(idx, e);
        self.ring_len += 1;
    }

    /// Advance the cursor to the first non-empty bucket and migrate any
    /// overflow entries whose day has entered the ring window. No-op when
    /// the cursor bucket already has entries.
    fn advance_to_next(&mut self) {
        loop {
            if !self.buckets[(self.cursor_day % NUM_BUCKETS as u64) as usize].is_empty() {
                return;
            }
            if self.ring_len == 0 {
                // Ring is dry: jump straight to the earliest overflow
                // day (if any) instead of stepping bucket by bucket.
                match self.overflow.peek() {
                    Some(top) => {
                        let top_day = day_of(top.at);
                        debug_assert!(top_day >= self.cursor_day);
                        self.cursor_day = self.cursor_day.max(top_day);
                    }
                    None => return,
                }
            } else {
                self.cursor_day += 1;
            }
            // The window moved: any overflow entries now inside it join
            // the ring.
            while let Some(top) = self.overflow.peek() {
                if day_of(top.at) >= self.cursor_day + NUM_BUCKETS as u64 {
                    break;
                }
                let e = self.overflow.pop().expect("peeked overflow entry");
                let day = day_of(e.at);
                let bucket = &mut self.buckets[(day % NUM_BUCKETS as u64) as usize];
                let key = e.key();
                let idx = bucket
                    .binary_search_by(|probe| key.cmp(&probe.key()))
                    .unwrap_or_else(|i| i);
                bucket.insert(idx, e);
                self.ring_len += 1;
            }
        }
    }

    /// Remove and return the earliest event, with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.advance_to_next();
        let bucket = &mut self.buckets[(self.cursor_day % NUM_BUCKETS as u64) as usize];
        let e = bucket.pop()?;
        self.ring_len -= 1;
        Some((e.at, e.event))
    }

    /// Timestamp of the earliest pending event. Takes `&mut self` because
    /// locating the minimum may sweep the calendar cursor forward (a pure
    /// cache-state movement; the pending set is unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.advance_to_next();
        self.buckets[(self.cursor_day % NUM_BUCKETS as u64) as usize]
            .last()
            .map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next [`EventQueue::push`] will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending entry as `(at, seq, event)`, in **arbitrary** order
    /// (the calendar's internal layout). Checkpointing sorts by
    /// `(at, seq)` before encoding so snapshots are deterministic.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.buckets
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .map(|e| (e.at, e.seq, &e.event))
    }

    /// Rebuild a queue from captured entries and the captured `next_seq`
    /// counter. Entry order does not matter: ordering is re-established
    /// by the calendar, and the original sequence numbers keep same-time
    /// events popping exactly as they would have in the original run.
    pub fn from_entries(entries: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        let mut q = EventQueue::new();
        q.cursor_day = entries
            .iter()
            .map(|(at, _, _)| day_of(*at))
            .min()
            .unwrap_or(0);
        for (at, seq, event) in entries {
            q.push_raw(Entry { at, seq, event });
        }
        q.next_seq = next_seq;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_millis(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn far_future_events_round_trip_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Far beyond the ring window (~1 s): exercises overflow + the
        // cursor jump when the ring drains dry.
        q.push(SimTime::from_secs(90), "far");
        q.push(SimTime::from_millis(1), "near");
        q.push(SimTime::from_secs(60), "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(60)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(60), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(90), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_fifo_survives_overflow_migration() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(30);
        for i in 0..50 {
            q.push(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn keyed_pushes_pop_ahead_of_plain_ones_in_key_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        q.push(t, "plain 0");
        q.push_keyed(t, 9, "key 9");
        q.push(t, "plain 1");
        q.push_keyed(t, 2, "key 2");
        q.push_keyed(SimTime::from_millis(4), 0, "later key 0");
        assert_eq!(q.next_seq(), KEYED_SEQS + 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["key 2", "key 9", "plain 0", "plain 1", "later key 0"]
        );
    }

    #[test]
    fn from_entries_restores_order_and_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(10), "b");
        q.push(SimTime::from_secs(45), "z");
        q.push(SimTime::from_millis(5), "first");
        let entries: Vec<(SimTime, u64, &str)> =
            q.entries().map(|(at, seq, e)| (at, seq, *e)).collect();
        let next_seq = q.next_seq();
        let mut r = EventQueue::from_entries(entries, next_seq);
        assert_eq!(r.len(), 4);
        assert_eq!(r.next_seq(), next_seq);
        assert_eq!(r.pop(), Some((SimTime::from_millis(5), "first")));
        assert_eq!(r.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(r.pop(), Some((SimTime::from_millis(10), "b")));
        assert_eq!(r.pop(), Some((SimTime::from_secs(45), "z")));
    }
}
