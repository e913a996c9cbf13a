//! Deterministic hierarchical timing-wheel event queue.
//!
//! The queue is a Varghese–Lauck hierarchical timing wheel with a
//! mixed-radix layout: level 0 spans the low **12 bits** of the 64-bit
//! nanosecond timestamp (4096 slots ≈ a 4 µs near horizon — packet
//! serialization and RTT-scale timers land here directly), and seven 8-bit
//! levels above it cover the remaining bits, so the full `u64` range is
//! addressable without overflow lists. An event whose time first differs
//! from the wheel's current position at bit `b` lives in the level owning
//! bit `b`, in the slot named by that level's digit of the timestamp. Push
//! and pop are O(1) amortized: each event is touched at most once per level
//! as it cascades toward level 0, and per-level occupancy bitmaps locate
//! the next non-empty slot with a few word scans instead of a heap
//! traversal.
//!
//! **Layout.** Events live in a split arena: a dense "hot" record (`time`,
//! `seq`, intrusive `next` link) that the cascade and pop scans walk, and a
//! parallel payload vector touched only at push/pop. Level-0 slots are
//! intrusive singly-linked lists threaded through the `next` fields; the
//! free list reuses the same field; upper-level slots are index vectors.
//! After the arena reaches its high-water mark the queue performs **zero
//! allocations**: push, pop and cascade are all index relinking. This —
//! not the asymptotics — is what makes the wheel beat the old binary heap
//! on the `event_queue/*` bench rows.
//!
//! **Determinism.** Events pop in `(time, ticket)` order and in no other:
//! the ticket (`seq`) is a counter that [`EventQueue::reserve_seq`] hands
//! out, and [`EventQueue::schedule`] takes one per insertion, so events
//! scheduled for the same instant pop in insertion order (stable FIFO) —
//! exactly the contract the old binary-heap queue provided. This property
//! is load-bearing for reproducibility: a switch that enqueues a packet and
//! arms a timer "at the same time" must always process them in the same
//! order. A ticket may be taken before its entry exists:
//! [`EventQueue::schedule_reserved`] files an entry under a ticket reserved
//! earlier, and it pops where it would have popped had it been scheduled
//! when the ticket was taken — so a caller that knows an event will most
//! likely change nothing can keep it off the wheel and still dispatch it,
//! or account for it, at its place in the order. All entries in a reachable
//! level-0 slot share one absolute timestamp (coarser times still live in
//! higher levels), so the tie-break is a min-`seq` scan of one short slot
//! list, whatever order the entries arrived in.
//!
//! There is no cancellation: every entry pops exactly once, and memory is
//! proportional to the number of **pending** events.
//!
//! **One search per event.** A simulator's run loop asks one question per
//! step — "what is the next event, if it is due by the horizon?" —
//! and [`EventQueue::pop_due`] answers it with one occupancy search and one
//! walk of the level-0 slot list: the slot's absolute time is known from
//! the wheel position before any entry is read, so the due check costs
//! nothing, and the walk finds the minimum `seq`. An upper slot is
//! cascaded only if its time range starts by the horizon, so the wheel
//! never moves past it. [`EventQueue::pop`] is `pop_due(SimTime::MAX)`;
//! there is no second pop implementation.
//!
//! The previous heap implementation, less its cancellation, is retained as
//! `ReferenceEventQueue` in `tests/support/event_ref.rs` and serves as the
//! oracle for the differential property test in
//! `tests/wheel_differential.rs`.

use crate::time::SimTime;

/// Bits covered by level 0.
const L0_BITS: u32 = 12;
/// Slots in level 0.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Mask for level 0's digit.
const L0_MASK: u64 = (L0_SLOTS - 1) as u64;
/// Bitmap words for level 0.
const L0_WORDS: usize = L0_SLOTS / 64;
/// Upper levels: 8 bits each above bit 12 (the top level holds bits 60..63,
/// using 16 of its 256 slots).
const UP_LEVELS: usize = 7;
/// Bits covered by each upper level.
const UP_BITS: u32 = 8;
/// Slots per upper level.
const UP_SLOTS: usize = 1 << UP_BITS;
/// Null link in the intrusive slot/free lists.
const NIL: u32 = u32::MAX;

/// Indices into [`EventQueue::stats`], the locally batched obs counters.
const STAT_SCHEDULED: usize = 0;
const STAT_POPPED: usize = 1;
const STAT_CASCADES: usize = 2;

/// Global metrics counter names, indexed like [`EventQueue::stats`].
const STAT_NAMES: [&str; 3] = [
    "desim.events_scheduled",
    "desim.events_popped",
    "desim.wheel_cascades",
];

/// Hot arena record (24 bytes): everything the cascade/pop scans need.
/// `next` threads both the level-0 slot lists and the free list. The
/// payload lives in a parallel vector touched only at push/pop, keeping
/// these records dense for the pointer-chasing paths.
struct Hot {
    time_ns: u64,
    seq: u64,
    next: u32,
}

/// An upper wheel level: 256 index-vector slots plus an occupancy bitmap.
/// Upper slots hold the big cascade batches, so they are contiguous index
/// vectors (prefetchable scans, capacity reused across cascades) rather
/// than linked lists, whose dependent loads serialize the walk.
struct UpLevel {
    slots: Vec<Vec<u32>>,
    occupied: [u64; 4],
}

impl UpLevel {
    fn new() -> Self {
        UpLevel {
            slots: (0..UP_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; 4],
        }
    }
}

/// Retired wheel storage, recycled through a per-thread pool.
///
/// A queue's slot arrays and hot arena total several hundred kilobytes once
/// a simulation has run; building a fresh queue per run (as every engine
/// invocation and every bench iteration does) would allocate, fault in, and
/// release those pages each time — the general allocator returns large
/// freed blocks to the OS, so the cost recurs forever. Retiring the
/// *non-generic* storage (payloads are type-specific and cannot be pooled)
/// keeps the pages warm: `EventQueue::new` becomes a pool pop plus zeroed
/// bookkeeping, and steady-state queue construction performs no large
/// allocations at all. The pool is per-thread (no locks, `par_map` workers
/// each get their own) and capped, and has no observable effect other than
/// speed: retired storage is reset to empty before reuse.
struct Storage {
    l0_heads: Vec<u32>,
    l0_occupied: Vec<u64>,
    up: Vec<UpLevel>,
    hot: Vec<Hot>,
}

/// Retired [`Storage`] blocks kept per thread, newest first.
const POOL_CAP: usize = 8;

std::thread_local! {
    static STORAGE_POOL: core::cell::RefCell<Vec<Storage>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// First set bit at index `from` or later in an occupancy bitmap.
#[inline]
fn next_occupied(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from >> 6;
    if word >= words.len() {
        return None;
    }
    let mut bits = words[word] & (!0u64 << (from & 63));
    loop {
        if bits != 0 {
            return Some((word << 6) + bits.trailing_zeros() as usize);
        }
        word += 1;
        if word == words.len() {
            return None;
        }
        bits = words[word];
    }
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
    l0_heads: Vec<u32>,
    l0_occupied: Vec<u64>,
    /// Number of set bits in `l0_occupied`. Lets the hot search skip the
    /// 64-word level-0 bitmap scan entirely once the current near-horizon
    /// window drains — the common state between cascades.
    l0_slot_count: usize,
    up: Vec<UpLevel>,
    hot: Vec<Hot>,
    payloads: Vec<Option<E>>,
    free_head: u32,
    /// Wheel position: no pending event precedes this time. Equals the time
    /// of the last popped event after any pop.
    floor_ns: u64,
    next_seq: u64,
    len: usize,
    last_popped: SimTime,
    /// Ticket of the last popped event; `None` before the first pop, which
    /// orders below every ticket at `SimTime::ZERO`.
    last_popped_seq: Option<u64>,
    /// Locally accumulated obs counts (scheduled, popped, cascades),
    /// flushed to the global metrics registry in one `counter_add` each
    /// when the queue retires. Batching keeps the registry's totals exact
    /// at every point a snapshot is actually taken (queues are dropped
    /// before `ObsGuard::finish` writes metrics) while keeping the
    /// per-event hot path free of atomic traffic.
    stats: [u64; 3],
    /// Flight-recorder linkage: wheel sequence number of a pending event →
    /// the flight sequence of its `schedule` entry, so the `dispatch` entry
    /// recorded at pop can back-point to it. Touched only while the flight
    /// recorder is enabled; empty (and cleared) otherwise.
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

/// Shift of an upper level's digit within the timestamp.
#[inline]
fn up_shift(level: usize) -> u32 {
    L0_BITS + UP_BITS * level as u32
}

impl<E> EventQueue<E> {
    /// Create an empty queue, reusing retired wheel storage (slot arrays
    /// and the hot arena) from a per-thread pool when available, so building
    /// a queue per run allocates nothing large.
    pub fn new() -> Self {
        let storage = STORAGE_POOL.with(|p| p.borrow_mut().pop());
        let s = storage.unwrap_or_else(|| Storage {
            l0_heads: vec![NIL; L0_SLOTS],
            l0_occupied: vec![0; L0_WORDS],
            up: (0..UP_LEVELS).map(|_| UpLevel::new()).collect(),
            hot: Vec::new(),
        });
        debug_assert!(s.hot.is_empty() && s.l0_occupied.iter().all(|&w| w == 0));
        // The payload vector is type-specific and cannot be pooled, but the
        // retired arena's capacity predicts this queue's high-water mark:
        // reserving it up front turns the payload vector's growth-by-
        // doubling (a dozen reallocations copying the whole vector) into
        // one allocation.
        let payloads = Vec::with_capacity(s.hot.capacity());
        EventQueue {
            l0_heads: s.l0_heads,
            l0_occupied: s.l0_occupied,
            l0_slot_count: 0,
            up: s.up,
            hot: s.hot,
            payloads,
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
    /// with when the queue retires).
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
            "scheduling behind the wheel: {time} is before its position {} ns",
            self.floor_ns
        );
        // Release-mode clamp: a late timer fires at the wheel's current
        // position rather than corrupting slot placement.
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
        self.link_in(idx, t_ns);
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
    /// One wheel search and one walk of the level-0 slot list: the run loop
    /// of a simulator asks exactly that question once per event. An upper
    /// slot is cascaded down only when its time range starts at or before
    /// `limit`, so after a `None` the wheel position is still at or before
    /// `limit`, and an event may be scheduled anywhere from `limit` on — a
    /// later `pop_due` with a larger limit resumes where this one stopped.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit_ns = limit.as_nanos();
        loop {
            match self.earliest_slot() {
                Slot::Level0(slot) => {
                    // All entries in a reachable level-0 slot share the
                    // slot's absolute time, so the due check needs no arena
                    // read.
                    let t_ns = (self.floor_ns & !L0_MASK) | slot as u64;
                    if t_ns > limit_ns {
                        return None;
                    }
                    let (wheel_seq, payload) = self.take_min_seq(slot, t_ns);
                    let time = SimTime::from_nanos(t_ns);
                    crate::invariants::monotonic_time("EventQueue::pop", self.last_popped, time);
                    self.last_popped = time;
                    self.last_popped_seq = Some(wheel_seq);
                    self.floor_ns = t_ns;
                    self.len -= 1;
                    self.stats[STAT_POPPED] += 1;
                    // Flight recorder: a `dispatch` entry back-pointing to
                    // this event's own `schedule`, then installed as the
                    // cause of everything scheduled while handling it.
                    if obs::flight::enabled() {
                        let by = self.flight_seq.remove(&wheel_seq);
                        let d = obs::flight::record(
                            time.as_secs_f64(),
                            "dispatch",
                            self.len as f64,
                            by,
                        );
                        obs::flight::set_cause(d);
                    } else if !self.flight_seq.is_empty() {
                        // Recorder turned off mid-run: drop the stale
                        // linkage instead of letting it accumulate.
                        self.flight_seq.clear();
                    }
                    return Some((time, payload));
                }
                Slot::Upper(level, slot) => {
                    let start_ns = self.slot_start(level, slot);
                    if start_ns > limit_ns {
                        return None;
                    }
                    self.cascade(level, slot, start_ns);
                }
                Slot::None => return None,
            }
        }
    }

    /// Mark a level-0 slot occupied, keeping the slot count exact.
    #[inline]
    fn l0_set(&mut self, slot: usize) {
        let w = &mut self.l0_occupied[slot >> 6];
        let bit = 1u64 << (slot & 63);
        if *w & bit == 0 {
            *w |= bit;
            self.l0_slot_count += 1;
        }
    }

    /// Clear a level-0 slot's (set) occupancy bit.
    #[inline]
    fn l0_clear(&mut self, slot: usize) {
        debug_assert!(self.l0_occupied[slot >> 6] & (1u64 << (slot & 63)) != 0);
        self.l0_occupied[slot >> 6] &= !(1u64 << (slot & 63));
        self.l0_slot_count -= 1;
    }

    /// Lowest occupied slot at or after the wheel position. Because a
    /// level's times agree with the wheel position on all digits above it,
    /// the lowest occupied level holds the globally earliest event, and
    /// within a level earlier slots hold earlier times.
    ///
    /// Linked level-0 entries never sit behind the wheel position (a pop
    /// empties every slot it passes over), so when `l0_slot_count` is zero
    /// the 64-word level-0 bitmap scan is skipped outright — the common
    /// state between cascades once the current 4 µs window drains.
    #[inline]
    fn earliest_slot(&self) -> Slot {
        if self.l0_slot_count > 0 {
            let cur0 = (self.floor_ns & L0_MASK) as usize;
            if let Some(slot) = next_occupied(&self.l0_occupied[..], cur0) {
                return Slot::Level0(slot);
            }
        }
        for level in 0..UP_LEVELS {
            let cur = ((self.floor_ns >> up_shift(level)) & 0xFF) as usize;
            if let Some(slot) = next_occupied(&self.up[level].occupied, cur) {
                return Slot::Upper(level, slot);
            }
        }
        Slot::None
    }

    /// Link `idx` (with time `t_ns`) into the level owning the highest bit
    /// in which `t_ns` differs from the wheel position — level 0 if they
    /// agree on everything above the level-0 digit. Head insertion: list
    /// order carries no meaning, the FIFO tie-break is the entries' `seq`.
    #[inline]
    fn link_in(&mut self, idx: u32, t_ns: u64) {
        let x = t_ns ^ self.floor_ns;
        let high_bit = 63 - (x | 1).leading_zeros();
        if high_bit < L0_BITS {
            let slot = (t_ns & L0_MASK) as usize;
            self.hot[idx as usize].next = self.l0_heads[slot];
            self.l0_heads[slot] = idx;
            self.l0_set(slot);
        } else {
            let level = ((high_bit - L0_BITS) / UP_BITS) as usize;
            let slot = ((t_ns >> up_shift(level)) & 0xFF) as usize;
            let lv = &mut self.up[level];
            lv.slots[slot].push(idx);
            lv.occupied[slot >> 6] |= 1u64 << (slot & 63);
        }
    }

    /// Take the popped entry at `idx` (already unlinked): its payload, and
    /// its arena record onto the free list.
    #[inline]
    fn release(&mut self, idx: u32) -> E {
        self.hot[idx as usize].next = self.free_head;
        self.free_head = idx;
        let Some(payload) = self.payloads[idx as usize].take() else {
            unreachable!("a linked entry holds its payload")
        };
        payload
    }

    /// Start of the time range of `slot` in upper level `level` (at or
    /// after the wheel position): the position with all digits at and below
    /// `level` zeroed and this level's digit set to the slot index.
    #[inline]
    fn slot_start(&self, level: usize, slot: usize) -> u64 {
        let span = up_shift(level);
        let keep_mask = if span + UP_BITS >= 64 {
            0
        } else {
            !((1u64 << (span + UP_BITS)) - 1)
        };
        (self.floor_ns & keep_mask) | ((slot as u64) << span)
    }

    /// Advance the wheel to `start_ns`, the start of `slot` of upper level
    /// `level`, and re-file that slot's entries at strictly lower levels
    /// (their digits at and above `level` now match the wheel position).
    /// Reading each entry's hot record here also warms the cache for the
    /// pop that follows shortly after.
    fn cascade(&mut self, level: usize, slot: usize, start_ns: u64) {
        let lv = &mut self.up[level];
        let mut batch = std::mem::take(&mut lv.slots[slot]);
        self.stats[STAT_CASCADES] += 1;
        // Wheel telemetry rides the cascade (rare) rather than the pop
        // (per-event): occupancy and the re-filed batch size are exactly
        // the quantities that explain cascade cost.
        if obs::timeseries::enabled() {
            obs::timeseries::observe("desim.wheel_occupancy", level as u64, self.len as f64);
            obs::timeseries::observe(
                "desim.wheel_cascade_batch",
                level as u64,
                batch.len() as f64,
            );
        }
        lv.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        // The search guarantees slot > current digit, so the wheel strictly
        // advances.
        debug_assert!(start_ns > self.floor_ns, "cascade must advance the wheel");
        self.floor_ns = start_ns;
        for &idx in &batch {
            let t_ns = self.hot[idx as usize].time_ns;
            if level == 0 {
                // Cascading out of the bottom upper level: every digit at
                // and above it now matches the wheel position, so the entry
                // can only land in level 0 — link it there directly,
                // skipping `link_in`'s level computation.
                debug_assert_eq!(t_ns >> L0_BITS, self.floor_ns >> L0_BITS);
                let slot = (t_ns & L0_MASK) as usize;
                self.hot[idx as usize].next = self.l0_heads[slot];
                self.l0_heads[slot] = idx;
                self.l0_set(slot);
            } else {
                self.link_in(idx, t_ns);
            }
        }
        // Hand the (empty) allocation back so the slot keeps its capacity.
        batch.clear();
        self.up[level].slots[slot] = batch;
    }

    /// Remove and return the minimum-`seq` entry of a non-empty level-0
    /// slot as `(wheel seq, payload)` (the seq is the FIFO tie-break among
    /// same-time events; `pop_due` also uses it as the flight-recorder
    /// linkage key), clearing the occupancy bit when the slot empties.
    /// `t_ns` is the slot's absolute time, used only to check the level-0
    /// time invariant.
    fn take_min_seq(&mut self, slot: usize, t_ns: u64) -> (u64, E) {
        let head = self.l0_heads[slot];
        let (mut best, mut best_prev, mut best_seq) = (head, NIL, self.hot[head as usize].seq);
        let (mut prev, mut cur) = (head, self.hot[head as usize].next);
        while cur != NIL {
            let h = &self.hot[cur as usize];
            if h.seq < best_seq {
                (best, best_prev, best_seq) = (cur, prev, h.seq);
            }
            prev = cur;
            cur = h.next;
        }
        debug_assert_eq!(self.hot[best as usize].time_ns, t_ns, "level-0 slot time");
        let nxt = self.hot[best as usize].next;
        if best_prev == NIL {
            self.l0_heads[slot] = nxt;
            if nxt == NIL {
                self.l0_clear(slot);
            }
        } else {
            self.hot[best_prev as usize].next = nxt;
        }
        (best_seq, self.release(best))
    }

    /// Reset the wheel to empty (occupancy-guided, so cost is proportional
    /// to what was pending, not to the slot count) and hand the storage to
    /// the per-thread pool. Called on drop; pending payloads are dropped by
    /// the `payloads` vector itself.
    fn retire(&mut self) {
        for (i, name) in STAT_NAMES.iter().enumerate() {
            if self.stats[i] > 0 {
                obs::metrics::counter_add(name, self.stats[i]);
                self.stats[i] = 0;
            }
        }
        for w in 0..L0_WORDS {
            let mut bits = self.l0_occupied[w];
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.l0_heads[slot] = NIL;
            }
            self.l0_occupied[w] = 0;
        }
        self.l0_slot_count = 0;
        for lv in &mut self.up {
            for w in 0..lv.occupied.len() {
                let mut bits = lv.occupied[w];
                while bits != 0 {
                    let slot = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    lv.slots[slot].clear();
                }
                lv.occupied[w] = 0;
            }
        }
        self.hot.clear();
        self.free_head = NIL;
        let s = Storage {
            l0_heads: std::mem::take(&mut self.l0_heads),
            l0_occupied: std::mem::take(&mut self.l0_occupied),
            up: std::mem::take(&mut self.up),
            hot: std::mem::take(&mut self.hot),
        };
        // An empty storage block (this queue was itself built during thread
        // teardown, or the vectors were never allocated) is not worth
        // pooling; `with` can also fail during thread destruction — then
        // the storage simply drops.
        if s.l0_heads.is_empty() {
            return;
        }
        let _ = STORAGE_POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(s);
            }
        });
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
        self.retire();
    }
}

/// Result of the occupied-slot search.
enum Slot {
    /// A level-0 slot (pop directly).
    Level0(usize),
    /// An upper-level slot (cascade it down).
    Upper(usize, usize),
    /// The wheel is empty.
    None,
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
        // Times chosen so consecutive pops cross digit boundaries at every
        // level, including the top bits.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            255,
            256,
            4_095,
            4_096,
            65_535,
            65_536,
            1 << 24,
            (1 << 32) - 1,
            1 << 32,
            1 << 40,
            1 << 48,
            1 << 56,
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
        // Same-time events inserted at a coarse level must still pop FIFO
        // after cascading down to level 0.
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
    fn held_pop_due_leaves_the_wheel_at_or_before_its_limit() {
        // Nothing is due by 1 ms, so the wheel must not cascade toward the
        // 10 ms event: an event then scheduled for 2 ms pops at 2 ms.
        let mut q = EventQueue::new();
        q.schedule(t(10_000_000), "held");
        assert_eq!(q.pop_due(t(1_000_000)), None);
        assert!(q.floor_ns <= 1_000_000, "wheel at {} ns", q.floor_ns);
        q.schedule(t(2_000_000), "later");
        assert_eq!(q.pop(), Some((t(2_000_000), "later")));
        assert_eq!(q.pop(), Some((t(10_000_000), "held")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling behind the wheel")]
    fn scheduling_before_a_held_limit_is_refused() {
        // A limit 1 ns short of the event cascades the wheel to the start
        // of the event's level-0 window; the release clamp would move an
        // event filed behind that.
        let mut q = EventQueue::new();
        q.schedule(t(10_000_000), 0);
        assert_eq!(q.pop_due(t(9_999_999)), None);
        q.schedule(t(1), 1);
    }
}
