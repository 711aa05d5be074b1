//! Property tests for the event queue against an independent oracle.
//!
//! The queue's contract is exactly "pop in ascending `(at, seq)` order,
//! FIFO within an instant". The oracle implements it with its own
//! sequence counter and plain tuple keys, sharing none of the queue's
//! entry ordering. These tests drive both structures through randomized
//! interleavings of push / pop / peek — including pushes *behind* the
//! last popped instant ("schedule in the past", which the engine clamps
//! but the queue must survive) and pushes seconds ahead — and assert the
//! queue never diverges from the oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tango_repro::simcore::{EventQueue, SimRng};
use tango_types::SimTime;

/// Reference implementation: a min-heap over `(at, seq, payload)` with
/// the same push-assigned sequence numbers.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
}

impl Oracle {
    fn push(&mut self, at: SimTime, ev: u32) {
        self.heap.push(Reverse((at, self.next_seq, ev)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// About one simulated second (2^20 µs): pushes land up to three of
/// these ahead of the frontier, so the pending set spans seconds.
const SPAN_US: u64 = 1024 * 1024;

/// Draw a timestamp for the next push: usually near the current popped
/// frontier, sometimes seconds ahead, sometimes in the past (behind the
/// frontier).
fn arb_time(rng: &mut SimRng, frontier: SimTime) -> SimTime {
    let base = frontier.as_micros();
    match rng.next_below(10) {
        // same-instant pile-up: exactly the frontier (exercises FIFO)
        0 | 1 => frontier,
        // behind the frontier: anywhere in [0, frontier]
        2 => SimTime::from_micros(rng.next_below(base + 1)),
        // far future: one to three spans ahead
        3 | 4 => SimTime::from_micros(base + SPAN_US + rng.next_below(2 * SPAN_US)),
        // near future: within half a span
        _ => SimTime::from_micros(base + rng.next_below(SPAN_US / 2)),
    }
}

#[test]
fn random_interleavings_match_binary_heap_oracle() {
    for seed in 0..20u64 {
        let mut rng = SimRng::new(0xE0_0001 + seed * 7919);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut oracle = Oracle::default();
        let mut frontier = SimTime::ZERO;
        let mut next_ev = 0u32;
        for _ in 0..4000 {
            match rng.next_below(100) {
                // 55%: push
                0..=54 => {
                    let at = arb_time(&mut rng, frontier);
                    q.push(at, next_ev);
                    oracle.push(at, next_ev);
                    next_ev += 1;
                }
                // 35%: pop
                55..=89 => {
                    let got = q.pop();
                    let want = oracle.pop();
                    assert_eq!(got, want, "seed {seed}: pop diverged");
                    if let Some((at, _)) = got {
                        frontier = at;
                    }
                }
                // 10%: peek
                _ => {
                    assert_eq!(
                        q.peek_time(),
                        oracle.peek_time(),
                        "seed {seed}: peek diverged"
                    );
                }
            }
            assert_eq!(q.len(), oracle.heap.len(), "seed {seed}: len diverged");
        }
        // drain both to exhaustion — total order must match exactly
        loop {
            let got = q.pop();
            let want = oracle.pop();
            assert_eq!(got, want, "seed {seed}: drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}

#[test]
fn same_instant_pushes_pop_fifo() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let t = SimTime::from_millis(5);
    // interleave two instants; within each, push order must be preserved
    for i in 0..50 {
        q.push(t, i);
        q.push(SimTime::from_millis(7), 100 + i);
    }
    for i in 0..50 {
        assert_eq!(q.pop(), Some((t, i)));
    }
    for i in 0..50 {
        assert_eq!(q.pop(), Some((SimTime::from_millis(7), 100 + i)));
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn past_pushes_still_pop_in_key_order() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut oracle = Oracle::default();
    // pop the 10 ms event, then push behind it and between the rest
    for (i, at) in [10_000u64, 2_000_000, 2_000_000].into_iter().enumerate() {
        q.push(SimTime::from_micros(at), i as u32);
        oracle.push(SimTime::from_micros(at), i as u32);
    }
    assert_eq!(q.pop(), oracle.pop()); // the frontier is now 10 ms
    for (i, at) in [5u64, 1_500_000, 0].into_iter().enumerate() {
        q.push(SimTime::from_micros(at), 10 + i as u32);
        oracle.push(SimTime::from_micros(at), 10 + i as u32);
    }
    loop {
        let got = q.pop();
        assert_eq!(got, oracle.pop());
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn entries_roundtrip_preserves_pop_order_mid_stream() {
    for seed in 0..5u64 {
        let mut rng = SimRng::new(0x5EED + seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut frontier = SimTime::ZERO;
        for i in 0..800 {
            let at = arb_time(&mut rng, frontier);
            q.push(at, i);
            if rng.chance(0.3) {
                if let Some((at, _)) = q.pop() {
                    frontier = at;
                }
            }
        }
        // capture the pending set (arbitrary order) and rebuild
        let entries: Vec<(SimTime, u64, u32)> =
            q.entries().map(|(at, seq, &ev)| (at, seq, ev)).collect();
        let mut rebuilt = EventQueue::from_entries(entries, q.next_seq());
        assert_eq!(rebuilt.len(), q.len());
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        loop {
            let got = rebuilt.pop();
            assert_eq!(got, q.pop(), "seed {seed}: rebuilt queue diverged");
            if got.is_none() {
                break;
            }
        }
    }
}
