//! Reference event queue: the pre-wheel binary-heap implementation.
//!
//! This is the original `EventQueue` — a binary min-heap keyed on
//! `(time, seq)` with a `BTreeSet` tombstone set for cancellation — retained
//! (plus the wheel's reserve-now / insert-later ticket API, which on a heap
//! is just a push under the given `seq`) as the **oracle** for the timing
//! wheel's differential property test (`tests/wheel_differential.rs`) and for
//! the `event_queue/wheel_*` before/after bench rows. It is deliberately
//! simple and obviously correct for the orderings the simulator relies on.
//! It is test support, not part of the `desim` library: the test and
//! `examples/wheel_profile.rs` include it with `#[path]`.
//!
//! Known oracle limitation, inherited from the original: `cancel` on an id
//! that has already fired still inserts a tombstone and decrements `len`.
//! The differential test therefore only cancels ids it knows are pending —
//! which is also the only pattern the engine ever used. The wheel detects
//! fired ids exactly (arena generations) and is strictly better here.

use desim::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

/// Opaque handle to an event scheduled on the reference queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefEventId(u64);

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

/// The heap + tombstone-set queue, API-compatible with
/// [`desim::EventQueue`] (modulo the id type).
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
    len: usize,
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
            cancelled: BTreeSet::new(),
            next_seq: 0,
            len: 0,
            last_popped: SimTime::ZERO,
            last_popped_seq: None,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at absolute time `time`, returning a cancellable id.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> RefEventId {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, payload)
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
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, payload: E) -> RefEventId {
        debug_assert!(
            (time, Some(seq)) > (self.last_popped, self.last_popped_seq),
            "scheduling into the past: ({time}, ticket {seq}) is not after ({}, {:?})",
            self.last_popped,
            self.last_popped_seq
        );
        self.heap.push(Reverse(Entry { time, seq, payload }));
        self.len += 1;
        RefEventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if a tombstone
    /// was inserted (see the module docs for the fired-id caveat).
    pub fn cancel(&mut self, id: RefEventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        if self.cancelled.insert(id.0) {
            self.len = self.len.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// Time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let Reverse(entry) = self.heap.pop()?;
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.len -= 1;
            desim::invariants::monotonic_time(
                "ReferenceEventQueue::pop",
                self.last_popped,
                entry.time,
            );
            self.last_popped = entry.time;
            self.last_popped_seq = Some(entry.seq);
            return Some((entry.time, entry.payload));
        }
    }

    /// Drop cancelled entries sitting at the top of the heap so `peek_time`
    /// reports a live event.
    fn skim_cancelled(&mut self) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                break;
            }
        }
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
    fn cancel_pending_and_peek() {
        let mut q = ReferenceEventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
    }
}
