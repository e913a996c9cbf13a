//! Reference event queue: the original binary-heap implementation.
//!
//! This is the original `EventQueue` — a binary min-heap keyed on
//! `(time, seq)` — retained (plus the queue's reserve-now / insert-later
//! ticket API, which on a heap is just a push under the given `seq`) as the
//! **oracle** for the calendar queue's differential property test
//! (`tests/wheel_differential.rs`, named for the timing wheel that came
//! between them). It is deliberately simple and obviously correct
//! for the orderings the simulator relies on. It is test support, not part
//! of the `desim` library: the test and `examples/wheel_profile.rs` include
//! it with `#[path]`.

use desim::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Ordering considers only (time, seq); the payload never participates, so
// `E` needs no trait bounds.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("time", &self.time)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// The heap queue, API-compatible with [`desim::EventQueue`] plus
/// `peek_time`, the oracle for `pop_due`.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    last_popped: SimTime,
    last_popped_seq: Option<u64>,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            last_popped_seq: None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, payload);
    }

    /// Take the next tie-break ticket without creating an entry.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Ticket of the last popped event; `None` before the first pop.
    pub fn last_popped_seq(&self) -> Option<u64> {
        self.last_popped_seq
    }

    /// File `payload` at `time` under a ticket taken earlier with
    /// [`Self::reserve_seq`]; the heap orders it by `(time, seq)` like any
    /// other entry.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, payload: E) {
        debug_assert!(
            (time, Some(seq)) > (self.last_popped, self.last_popped_seq),
            "scheduling into the past: ({time}, ticket {seq}) is not after ({}, {:?})",
            self.last_popped,
            self.last_popped_seq
        );
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        desim::invariants::monotonic_time("ReferenceEventQueue::pop", self.last_popped, entry.time);
        self.last_popped = entry.time;
        self.last_popped_seq = Some(entry.seq);
        Some((entry.time, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn orders_by_time_with_fifo_ties() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_reports_the_next_pop() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(20), "b");
        q.schedule(t(10), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.peek_time(), Some(t(20)));
    }
}
