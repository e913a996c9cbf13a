//! Deterministic two-level calendar event queue.
//!
//! The queue is a calendar queue (Brown, "Calendar queues", CACM 31(10),
//! 1988) sized for packet traffic, where nearly every event lies a few
//! microseconds ahead:
//!
//! * **Level 0** is a ring of 4096 buckets of 16 ns: a 64 µs window that
//!   starts on a half-window (32 768 ns) boundary and always holds the
//!   queue's floor in its first half. An entry inside the window is filed
//!   in its bucket once and never moved, so anything at most 32 µs ahead —
//!   a serialization, a pacer gap, a hop — costs one list insertion.
//! * **Level 1** is a ring of 4096 half-window buckets (≈ 134 ms) beyond
//!   the window. When the window slides by a half, the level-1 bucket of
//!   the half it now covers is drained into level 0 whole.
//! * Entries beyond level 1's reach wait in a `BinaryHeap` keyed on time
//!   and migrate into the calendar as its reach passes them.
//!
//! Each level finds its first occupied bucket through a two-level bitmap (a
//! bit per bucket and a summary bit per 64-bucket word). A level-0 bucket
//! is kept sorted by `(time, ticket)`, with a tail pointer: events for one
//! instant arrive in ticket order and append, so a pop is two word scans
//! and an unlink of the bucket's head. When level 0 runs dry the window
//! jumps straight to the next occupied level-1 bucket (or the heap's
//! earliest half), however far ahead it is.
//!
//! **Layout.** Events live in a split arena: a dense record (`time`, `seq`,
//! intrusive `next` link) that the bucket lists thread through, and a
//! parallel payload vector touched only at push and pop. The free list
//! reuses the `next` field. After the arena reaches its high-water mark,
//! push, pop and drain are index relinking and allocate nothing (the heap,
//! unused by packet runs, aside).
//!
//! **Determinism.** Events pop in `(time, ticket)` order and in no other:
//! the ticket (`seq`) is a counter that [`EventQueue::reserve_seq`] hands
//! out, and [`EventQueue::schedule`] takes one per insertion, so events
//! scheduled for the same instant pop in insertion order (stable FIFO).
//! This property is load-bearing for reproducibility: a switch that
//! enqueues a packet and arms a timer "at the same time" must always
//! process them in the same order. A ticket may be taken before its entry
//! exists: [`EventQueue::schedule_reserved`] files an entry under a ticket
//! reserved earlier, and it pops where it would have popped had it been
//! scheduled when the ticket was taken — so a caller that knows an event
//! will most likely change nothing can keep it off the queue and still
//! dispatch it, or account for it, at its place in the order: it sorts
//! into its bucket by its ticket, not by when it arrived.
//!
//! There is no cancellation: every entry pops exactly once, and memory is
//! proportional to the number of **pending** events.
//!
//! **One search per event.** A simulator's run loop asks one question per
//! step — "what is the next event, if it is due by the horizon?" — and
//! [`EventQueue::pop_due`] answers it with one bitmap search and a read of
//! one bucket head. The window moves to a later half only if that half starts by the
//! horizon, so after a `None` the floor is still at or before the limit.
//! [`EventQueue::pop`] is `pop_due(SimTime::MAX)`; there is no second pop
//! implementation.
//!
//! The binary-heap queue this replaced, less its cancellation, is retained
//! as `ReferenceEventQueue` in `tests/support/event_ref.rs` and serves as
//! the oracle for the differential property test in
//! `tests/wheel_differential.rs`.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Level-0 bucket width: 2^4 = 16 ns.
const BUCKET_BITS: u32 = 4;
/// Half-window (level-1 bucket) width: 2^15 = 32 768 ns.
const HALF_BITS: u32 = 15;
/// Buckets per level. Level 0's 4096 buckets of 16 ns span two halves.
const BUCKETS: usize = 1 << 12;
/// Mask for a bucket's ring position.
const MASK: u64 = BUCKETS as u64 - 1;
/// Null link in the intrusive bucket and free lists.
const NIL: u32 = u32::MAX;

/// Indices into [`EventQueue::stats`], the locally batched obs counters.
const STAT_SCHEDULED: usize = 0;
const STAT_POPPED: usize = 1;
const STAT_DRAINS: usize = 2;

/// Global metrics counter names, indexed like [`EventQueue::stats`].
/// `desim.wheel_cascades` keeps its name and counts batches moved toward
/// level 0: level-1 buckets drained and heap migrations.
const STAT_NAMES: [&str; 3] = [
    "desim.events_scheduled",
    "desim.events_popped",
    "desim.wheel_cascades",
];

/// Arena record (24 bytes): what the bucket walks need. `next` threads both
/// the bucket lists and the free list. The payload lives in a parallel
/// vector touched only at push/pop.
struct Hot {
    time_ns: u64,
    seq: u64,
    next: u32,
}

/// One ring of 4096 buckets: intrusive list heads plus a two-level
/// occupancy bitmap (a bit per bucket, a summary bit per 64-bucket word).
struct Level {
    heads: Box<[u32; BUCKETS]>,
    words: [u64; BUCKETS / 64],
    summary: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            heads: Box::new([NIL; BUCKETS]),
            words: [0; BUCKETS / 64],
            summary: 0,
        }
    }

    /// Mark bucket `b` occupied.
    #[inline]
    fn mark(&mut self, b: usize) {
        self.words[b >> 6] |= 1 << (b & 63);
        self.summary |= 1 << (b >> 6);
    }

    /// Mark bucket `b` empty.
    #[inline]
    fn clear(&mut self, b: usize) {
        let w = &mut self.words[b >> 6];
        *w &= !(1 << (b & 63));
        if *w == 0 {
            self.summary &= !(1 << (b >> 6));
        }
    }

    /// First occupied bucket at or after `from` in ring order (wrapping past
    /// the last bucket to the first).
    #[inline]
    fn first_from(&self, from: usize) -> Option<usize> {
        let w = from >> 6;
        let bits = self.words[w] & (!0 << (from & 63));
        if bits != 0 {
            return Some((w << 6) | bits.trailing_zeros() as usize);
        }
        // Words after `w`, else from the first word on: word `w` itself has
        // nothing at or after `from`, so its lowest bit lies a lap ahead.
        let after = self.summary & (!1 << w);
        let words = if after != 0 { after } else { self.summary };
        if words == 0 {
            return None;
        }
        let w = words.trailing_zeros() as usize;
        Some((w << 6) | self.words[w].trailing_zeros() as usize)
    }
}

/// Level-0 ring position of time `t_ns`.
#[inline]
fn bucket(t_ns: u64) -> usize {
    ((t_ns >> BUCKET_BITS) & MASK) as usize
}

/// A deterministic discrete-event queue over payload type `E`.
///
/// ```
/// use desim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), "b");
/// q.schedule(SimTime::from_nanos(5), "a");
/// q.schedule(SimTime::from_nanos(10), "c");
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b"); // FIFO among equal times
/// assert_eq!(q.pop().unwrap().1, "c");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// The 64 µs window: halves `base_half` and `base_half + 1`, each
    /// bucket sorted by `(time, ticket)`.
    l0: Level,
    /// Last entry of each level-0 bucket (stale while the bucket is empty).
    l0_tails: Box<[u32; BUCKETS]>,
    /// Halves `base_half + 2 .. base_half + 4096`, one bucket each, in no
    /// order.
    l1: Level,
    /// Entries at half `base_half + 4096` or later, as `(time, arena index)`.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// Half-window index (`time >> 15`) of the window's start.
    base_half: u64,
    hot: Vec<Hot>,
    payloads: Vec<Option<E>>,
    free_head: u32,
    /// No pending event precedes this time; it lies in the window's first
    /// half. Equals the time of the last popped event after any pop.
    floor_ns: u64,
    next_seq: u64,
    len: usize,
    last_popped: SimTime,
    /// Ticket of the last popped event; `None` before the first pop, which
    /// orders below every ticket at `SimTime::ZERO`.
    last_popped_seq: Option<u64>,
    /// Locally accumulated obs counts (scheduled, popped, drains), flushed
    /// to the global metrics registry in one `counter_add` each when the
    /// queue drops. Batching keeps the registry's totals exact at every
    /// point a snapshot is actually taken (queues are dropped before
    /// `ObsGuard::finish` writes metrics) while keeping the per-event hot
    /// path free of atomic traffic.
    stats: [u64; 3],
    /// Flight-recorder linkage: ticket of a pending event → the flight
    /// sequence of its `schedule` entry, so the `dispatch` entry recorded at
    /// pop can back-point to it. Touched only while the flight recorder is
    /// enabled; empty (and cleared) otherwise.
    flight_seq: std::collections::BTreeMap<u64, u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("floor_ns", &self.floor_ns)
            .field("next_seq", &self.next_seq)
            .field("arena", &self.hot.len())
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            l0: Level::new(),
            l0_tails: Box::new([NIL; BUCKETS]),
            l1: Level::new(),
            far: BinaryHeap::new(),
            base_half: 0,
            hot: Vec::new(),
            payloads: Vec::new(),
            free_head: NIL,
            floor_ns: 0,
            next_seq: 0,
            len: 0,
            last_popped: SimTime::ZERO,
            last_popped_seq: None,
            stats: [0; 3],
            flight_seq: std::collections::BTreeMap::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at absolute time `time`: [`Self::reserve_seq`]
    /// followed by [`Self::schedule_reserved`].
    ///
    /// Scheduling in the past (before the last popped event, or before the
    /// limit of a `pop_due` that found nothing due) is a logic error in the
    /// caller and panics in debug builds; in release it is accepted (the
    /// event fires "now") to favour robustness, matching how real simulators
    /// clamp late timers.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, payload);
    }

    /// Take the next tie-break ticket without creating an entry. The
    /// ticket's place in the `(time, ticket)` order is fixed now; an entry
    /// may be filed under it later ([`Self::schedule_reserved`]) or never.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Ticket of the last popped event; `None` before the first pop.
    #[inline]
    pub fn last_popped_seq(&self) -> Option<u64> {
        self.last_popped_seq
    }

    /// Entries popped so far (what `desim.events_popped` will be credited
    /// with when the queue drops).
    pub fn popped(&self) -> u64 {
        self.stats[STAT_POPPED]
    }

    /// File `payload` at `time` under the ticket `seq` taken earlier with
    /// [`Self::reserve_seq`]: it pops exactly where it would have popped had
    /// it been scheduled when the ticket was taken. `(time, seq)` must sort
    /// after the last popped event (the same logic error as scheduling into
    /// the past, handled the same way), and a ticket files at most one
    /// entry.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, payload: E) {
        debug_assert!(
            (time, Some(seq)) > (self.last_popped, self.last_popped_seq),
            "scheduling into the past: ({time}, ticket {seq}) is not after ({}, {:?})",
            self.last_popped,
            self.last_popped_seq
        );
        debug_assert!(seq < self.next_seq, "ticket {seq} was never reserved");
        debug_assert!(
            time.as_nanos() >= self.floor_ns,
            "scheduling behind the queue: {time} is before its floor {} ns",
            self.floor_ns
        );
        // Release-mode clamp: a late timer fires at the floor rather than
        // corrupting bucket placement.
        let t_ns = time.as_nanos().max(self.floor_ns);
        let idx = if self.free_head != NIL {
            let i = self.free_head;
            let h = &mut self.hot[i as usize];
            self.free_head = h.next;
            h.time_ns = t_ns;
            h.seq = seq;
            self.payloads[i as usize] = Some(payload);
            i
        } else {
            let i = self.hot.len() as u32;
            self.hot.push(Hot {
                time_ns: t_ns,
                seq,
                next: NIL,
            });
            self.payloads.push(Some(payload));
            i
        };
        self.file(idx, t_ns);
        self.len += 1;
        self.stats[STAT_SCHEDULED] += 1;
        // Flight recorder: a `schedule` entry back-pointing to the dispatch
        // being handled right now (the causal edge). The `enabled` guard
        // keeps the disabled cost to one relaxed load and a branch — the
        // arguments (a float conversion, a thread-local read) must not be
        // evaluated on the hot path.
        if obs::flight::enabled() {
            if let Some(fseq) = obs::flight::record(
                time.as_secs_f64(),
                "schedule",
                self.len as f64,
                obs::flight::current_cause(),
            ) {
                self.flight_seq.insert(seq, fseq);
            }
        }
    }

    /// Pop the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pop the earliest event if its time is at or before `limit`; `None`
    /// when the queue is empty or its earliest event is later.
    ///
    /// One bitmap search and a read of one bucket head: the run loop of a
    /// simulator asks exactly that question once per event. When level 0 is empty the
    /// window moves to the next occupied half only if that half starts at
    /// or before `limit`, so after a `None` the floor is still at or before
    /// `limit`, and an event may be scheduled anywhere from `limit` on — a
    /// later `pop_due` with a larger limit resumes where this one stopped.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit_ns = limit.as_nanos();
        loop {
            if let Some(b) = self.l0.first_from(bucket(self.floor_ns)) {
                return self.pop_bucket(b, limit_ns);
            }
            // Level 0 is empty: the earliest event lies in the next
            // occupied level-1 bucket, or else on the heap.
            let half = match self.l1.first_from(((self.base_half + 2) & MASK) as usize) {
                Some(b) => {
                    self.base_half + 2 + ((b as u64).wrapping_sub(self.base_half + 2) & MASK)
                }
                None => self.far.peek()?.0 .0 >> HALF_BITS,
            };
            let start_ns = half << HALF_BITS;
            if start_ns > limit_ns {
                return None;
            }
            self.floor_ns = start_ns;
            self.slide_to(half);
        }
    }

    /// Pop the head of occupied level-0 bucket `b` — its minimum `(time,
    /// ticket)` — if it is due by `limit_ns`, and slide the window when the
    /// pop moves the floor into its second half.
    #[inline]
    fn pop_bucket(&mut self, b: usize, limit_ns: u64) -> Option<(SimTime, E)> {
        let head = self.l0.heads[b];
        let h = &mut self.hot[head as usize];
        let (t_ns, seq, next) = (h.time_ns, h.seq, h.next);
        if t_ns > limit_ns {
            return None;
        }
        h.next = self.free_head;
        self.free_head = head;
        self.l0.heads[b] = next;
        if next == NIL {
            self.l0.clear(b);
        }
        let Some(payload) = self.payloads[head as usize].take() else {
            unreachable!("a filed entry holds its payload")
        };
        let time = SimTime::from_nanos(t_ns);
        crate::invariants::monotonic_time("EventQueue::pop", self.last_popped, time);
        self.last_popped = time;
        self.last_popped_seq = Some(seq);
        self.floor_ns = t_ns;
        if t_ns >> HALF_BITS > self.base_half {
            self.slide_to(self.base_half + 1);
        }
        self.len -= 1;
        self.stats[STAT_POPPED] += 1;
        // Flight recorder: a `dispatch` entry back-pointing to this event's
        // own `schedule`, then installed as the cause of everything
        // scheduled while handling it.
        if obs::flight::enabled() {
            let by = self.flight_seq.remove(&seq);
            let d = obs::flight::record(time.as_secs_f64(), "dispatch", self.len as f64, by);
            obs::flight::set_cause(d);
        } else if !self.flight_seq.is_empty() {
            // Recorder turned off mid-run: drop the stale linkage instead
            // of letting it accumulate.
            self.flight_seq.clear();
        }
        Some((time, payload))
    }

    /// File arena entry `idx` at `t_ns`: in its level-0 bucket inside the
    /// window, at the head of its level-1 bucket within level 1's reach,
    /// else on the heap.
    #[inline]
    fn file(&mut self, idx: u32, t_ns: u64) {
        let half = t_ns >> HALF_BITS;
        if half < self.base_half + 2 {
            self.file_l0(idx);
        } else if half < self.base_half + BUCKETS as u64 {
            let b = (half & MASK) as usize;
            self.hot[idx as usize].next = self.l1.heads[b];
            self.l1.heads[b] = idx;
            self.l1.mark(b);
        } else {
            self.far.push(Reverse((t_ns, idx)));
        }
    }

    /// Link arena entry `idx` into its level-0 bucket where its `(time,
    /// ticket)` sorts: after the tail (the usual case: events for one
    /// instant arrive in ticket order), before the head, or else where a
    /// walk from the head finds its place.
    #[inline]
    fn file_l0(&mut self, idx: u32) {
        let key = |h: &Hot| (h.time_ns, h.seq);
        let k = key(&self.hot[idx as usize]);
        let b = bucket(k.0);
        let (head, tail) = (self.l0.heads[b], self.l0_tails[b]);
        if head == NIL {
            self.hot[idx as usize].next = NIL;
            self.l0.heads[b] = idx;
            self.l0_tails[b] = idx;
            self.l0.mark(b);
        } else if k > key(&self.hot[tail as usize]) {
            self.hot[idx as usize].next = NIL;
            self.hot[tail as usize].next = idx;
            self.l0_tails[b] = idx;
        } else if k < key(&self.hot[head as usize]) {
            self.hot[idx as usize].next = head;
            self.l0.heads[b] = idx;
        } else {
            // Between head and tail: some successor of `prev` sorts after.
            let mut prev = head;
            loop {
                let next = self.hot[prev as usize].next;
                if k < key(&self.hot[next as usize]) {
                    self.hot[idx as usize].next = next;
                    self.hot[prev as usize].next = idx;
                    return;
                }
                prev = next;
            }
        }
    }

    /// Start the window at half `base` (the floor already lies in it):
    /// drain the level-1 buckets of the halves it newly covers into level
    /// 0, then file the heap entries that level 1 now reaches. Level 1
    /// holds nothing between the old window and `base`, because the window
    /// only jumps to the first occupied half.
    fn slide_to(&mut self, base: u64) {
        let old = self.base_half;
        debug_assert!(base > old && self.floor_ns >> HALF_BITS == base);
        self.base_half = base;
        for half in (old + 2).max(base)..base + 2 {
            let b = (half & MASK) as usize;
            let mut cur = self.l1.heads[b];
            if cur == NIL {
                continue;
            }
            self.l1.heads[b] = NIL;
            self.l1.clear(b);
            let mut batch = 0usize;
            while cur != NIL {
                let next = self.hot[cur as usize].next;
                self.file_l0(cur);
                cur = next;
                batch += 1;
            }
            self.moved(1, batch);
        }
        let mut batch = 0usize;
        while let Some(&Reverse((t_ns, idx))) = self.far.peek() {
            if t_ns >> HALF_BITS >= base + BUCKETS as u64 {
                break;
            }
            self.far.pop();
            self.file(idx, t_ns);
            batch += 1;
        }
        if batch > 0 {
            self.moved(2, batch);
        }
    }

    /// Count one batch of `batch` entries moved toward level 0 from `from`
    /// (1: a level-1 bucket, 2: the heap). Queue telemetry rides the drain
    /// (rare) rather than the pop (per event).
    fn moved(&mut self, from: u64, batch: usize) {
        self.stats[STAT_DRAINS] += 1;
        if obs::timeseries::enabled() {
            obs::timeseries::observe("desim.wheel_occupancy", from, self.len as f64);
            obs::timeseries::observe("desim.wheel_cascade_batch", from, batch as f64);
        }
    }

    /// Length of the free list (test support).
    #[cfg(test)]
    fn free_list_len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.free_head;
        while cur != NIL {
            n += 1;
            cur = self.hot[cur as usize].next;
        }
        n
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        for (name, &n) in STAT_NAMES.iter().zip(&self.stats) {
            if n > 0 {
                obs::metrics::counter_add(name, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(42), i)));
        }
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), 0);
        q.schedule(t(2), 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn memory_is_bounded_by_pending_events() {
        // Schedule and drain far more events than fit in memory if the
        // queue retained history; the arena must stay at the high-water
        // mark of *pending* events (free-list reuse), and no tombstone
        // state may accrete across rounds.
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..1000u64 {
                q.schedule(t(round * 1_000_000 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(q.hot.len() <= 1000, "arena grew past pending high-water");
        assert_eq!(q.free_list_len(), q.hot.len(), "all entries recycled");
    }

    #[test]
    fn interleaved_schedule_pop_is_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 5u64);
        q.schedule(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        q.schedule(t(3), 3);
        q.schedule(t(2), 2);
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), Some((t(5), 5)));
    }

    #[test]
    fn far_future_rollover_crosses_all_levels() {
        // Times in both window halves, in level 1, and on the heap up to
        // the top of the range, scheduled in reverse.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            15,
            16,
            32_767,
            32_768,
            65_535,
            65_536,
            1 << 24,
            (1 << 27) - 1,
            1 << 27,
            (1 << 32) - 1,
            1 << 32,
            1 << 48,
            1 << 60,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (i, &ns) in times.iter().enumerate().rev() {
            q.schedule(t(ns), i);
        }
        for (i, &ns) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t(ns), i)), "time {ns}");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_preserved_across_cascade() {
        // Same-time events filed in level 1 must still pop FIFO after the
        // window drains their bucket into level 0.
        let mut q = EventQueue::new();
        q.schedule(t(1), 0u32);
        for i in 1..=10u32 {
            q.schedule(t(1 << 20), i);
        }
        assert_eq!(q.pop(), Some((t(1), 0)));
        for i in 1..=10u32 {
            assert_eq!(q.pop(), Some((t(1 << 20), i)));
        }
    }

    #[test]
    fn the_near_future_is_filed_once_and_the_rest_moves_once_per_level() {
        // 32 µs ahead lands in level 0 directly; 1 ms ahead waits in level
        // 1 and is drained once; 1 s ahead starts on the heap, migrates to
        // level 1 as the window nears, and is drained once more.
        let mut q = EventQueue::new();
        q.schedule(t(32_768), "near");
        assert_eq!(q.pop(), Some((t(32_768), "near")));
        assert_eq!(q.stats[STAT_DRAINS], 0);
        q.schedule(t(1_000_000), "level 1");
        assert_eq!(q.pop(), Some((t(1_000_000), "level 1")));
        assert_eq!(q.stats[STAT_DRAINS], 1);
        q.schedule(t(1_000_000_000), "heap");
        assert_eq!(q.far.len(), 1);
        assert_eq!(q.pop(), Some((t(1_000_000_000), "heap")));
        assert!(q.far.is_empty());
        assert_eq!(q.stats[STAT_DRAINS], 2, "one jump moves it straight in");
    }

    #[test]
    fn held_pop_due_leaves_the_wheel_at_or_before_its_limit() {
        // Nothing is due by 1 ms, so the window must not move toward the
        // 10 ms event: an event then scheduled for 2 ms pops at 2 ms.
        let mut q = EventQueue::new();
        q.schedule(t(10_000_000), "held");
        assert_eq!(q.pop_due(t(1_000_000)), None);
        assert!(q.floor_ns <= 1_000_000, "floor at {} ns", q.floor_ns);
        q.schedule(t(2_000_000), "later");
        assert_eq!(q.pop(), Some((t(2_000_000), "later")));
        assert_eq!(q.pop(), Some((t(10_000_000), "held")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling behind the queue")]
    fn scheduling_before_a_held_limit_is_refused() {
        // A limit 1 ns short of the event moves the window to the event's
        // half; the release clamp would move an event filed behind that.
        let mut q = EventQueue::new();
        q.schedule(t(10_000_000), 0);
        assert_eq!(q.pop_due(t(9_999_999)), None);
        q.schedule(t(1), 1);
    }
}
