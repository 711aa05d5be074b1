//! The event queue: a time-ordered priority queue with stable tie-breaking.
//!
//! One `BinaryHeap` of pending entries, so its storage is sized by the
//! events pending (a few thousand at paper scale), not by how far ahead
//! of the clock they lie.
//!
//! Ordering contract: events pop in ascending `(time, seq)` order, so
//! events scheduled for the same instant pop in the order they were
//! pushed (FIFO), which keeps simulations deterministic. Sequence numbers
//! below [`KEYED_SEQS`] are chosen by the caller
//! ([`EventQueue::push_keyed`]); plain pushes number upward from that
//! boundary, so a keyed event pops ahead of every plain event at the
//! same instant, and keyed events among themselves in key order.
//! [`EventQueue::entries`] exposes every pending `(at, seq, event)` and
//! [`EventQueue::from_entries`] rebuilds from them; checkpointing sorts
//! by `(at, seq)` before encoding, so snapshots do not depend on the
//! heap's layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tango_types::SimTime;

/// The first sequence number of plain pushes. Everything below it is a
/// key handed to [`EventQueue::push_keyed`].
pub const KEYED_SEQS: u64 = 1 << 63;

/// Internal entry. Ordered by (time, seq) ascending — `BinaryHeap` is a
/// max-heap so `Ord` is reversed.
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
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::new(),
            next_seq: KEYED_SEQS,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` at `at` under the caller's sequence number `key`
    /// (below [`KEYED_SEQS`]): it pops ahead of every plain push at the
    /// same instant, and after keyed events with smaller keys.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(key < KEYED_SEQS, "key {key} is in the plain range");
        self.heap.push(Entry {
            at,
            seq: key,
            event,
        });
    }

    /// Remove and return the earliest event, with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`EventQueue::push`] will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending entry as `(at, seq, event)`, in **arbitrary** order
    /// (the heap's internal layout). Checkpointing sorts by `(at, seq)`
    /// before encoding so snapshots are deterministic.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.heap.iter().map(|e| (e.at, e.seq, &e.event))
    }

    /// Rebuild a queue from captured entries and the captured `next_seq`
    /// counter. Entry order does not matter: the original sequence
    /// numbers keep same-time events popping exactly as they would have
    /// in the original run.
    pub fn from_entries(entries: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        let heap = entries
            .into_iter()
            .map(|(at, seq, event)| Entry { at, seq, event })
            .collect();
        EventQueue { heap, next_seq }
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
    fn far_apart_times_pop_in_order() {
        let mut q = EventQueue::new();
        // a minute or more apart, as BE patience timers are
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
    fn far_future_instant_pops_fifo() {
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
