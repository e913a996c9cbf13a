//! Differential property test: the calendar event queue vs. the retained
//! reference heap queue (the file keeps the name of the timing wheel that
//! came between them).
//!
//! Both queues are driven through identical randomized schedules of push
//! and pop operations — including same-timestamp ties, pops held back by a
//! horizon, far-future jumps onto level 1 and the overflow heap, and times
//! on the calendar's bucket, window and reach edges — and must produce
//! byte-for-byte identical pop sequences `(time, tag)` and identical
//! `len()` at every step. Payload tags identify events across the two
//! queues.
//!
//! The op mix includes the ticket API: `reserve_seq` now,
//! `schedule_reserved` later (or never) — into a later bucket, into the
//! current instant behind the event just popped, into level 1 before its
//! bucket is drained. On the heap a late insertion is a push under the
//! given `seq`, so the oracle says where each must pop.

use desim::{EventQueue, SimRng, SimTime};

#[path = "support/event_ref.rs"]
mod event_ref;
use event_ref::ReferenceEventQueue;

struct Harness {
    queue: EventQueue<u64>,
    oracle: ReferenceEventQueue<u64>,
    /// Tags of the events pending on both queues.
    pending: Vec<u64>,
    now_ns: u64,
    next_tag: u64,
    pops: u64,
    /// Tickets taken on both queues and not yet filed.
    reserved: Vec<u64>,
    /// Time of the last pop (the queue's `last_popped_seq` is its ticket).
    last_pop_ns: Option<u64>,
    late_inserts: u64,
    late_into_now: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            queue: EventQueue::new(),
            oracle: ReferenceEventQueue::new(),
            pending: Vec::new(),
            now_ns: 0,
            next_tag: 0,
            pops: 0,
            reserved: Vec::new(),
            last_pop_ns: None,
            late_inserts: 0,
            late_into_now: 0,
        }
    }

    /// Take the next ticket on both queues without filing an entry.
    fn reserve(&mut self) {
        let seq = self.queue.reserve_seq();
        assert_eq!(seq, self.oracle.reserve_seq(), "tickets diverged");
        self.reserved.push(seq);
    }

    /// File an entry under the reserved ticket at `pos`, at `at_ns` — or one
    /// nanosecond later if `(at_ns, ticket)` would not sort after the last
    /// popped event (the one thing the contract forbids).
    fn insert_reserved(&mut self, pos: usize, at_ns: u64) {
        let seq = self.reserved.swap_remove(pos);
        let into_now = self.last_pop_ns == Some(at_ns);
        let behind_last = self.queue.last_popped_seq().is_some_and(|s| s >= seq);
        let at_ns = if into_now && behind_last {
            at_ns + 1
        } else {
            at_ns
        };
        let tag = self.next_tag;
        self.next_tag += 1;
        let t = SimTime::from_nanos(at_ns);
        self.queue.schedule_reserved(t, seq, tag);
        self.oracle.schedule_reserved(t, seq, tag);
        self.pending.push(tag);
        self.late_inserts += 1;
        self.late_into_now += (self.last_pop_ns == Some(at_ns)) as u64;
    }

    fn push(&mut self, at_ns: u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let t = SimTime::from_nanos(at_ns);
        self.queue.schedule(t, tag);
        self.oracle.schedule(t, tag);
        self.pending.push(tag);
    }

    fn pop(&mut self) {
        self.pop_tag();
    }

    /// Pop both queues, check them against each other, return the tag.
    fn pop_tag(&mut self) -> Option<u64> {
        let got = self.queue.pop();
        let want = self.oracle.pop();
        self.settle(got, want);
        got.map(|(_, tag)| tag)
    }

    /// The run loop's step: pop the earliest event iff it is due by
    /// `limit_ns`. The oracle spells it out — `peek_time`, then `pop` iff
    /// the peeked time is `≤ limit`. Returns whether an event popped.
    fn pop_due(&mut self, limit_ns: u64) -> bool {
        let limit = SimTime::from_nanos(limit_ns);
        let next = self.oracle.peek_time();
        let got = self.queue.pop_due(limit);
        if next.is_some_and(|t| t <= limit) {
            let want = self.oracle.pop();
            self.settle(got, want);
            return true;
        }
        assert_eq!(got, None, "pop #{}: nothing due by {limit}", self.pops);
        // The run has reached `limit`: whatever is scheduled next goes at or
        // after it, and so often between it and the held event.
        self.now_ns = self.now_ns.max(limit_ns);
        false
    }

    /// Check one pop of the queue against the oracle's and retire its tag.
    fn settle(&mut self, got: Option<(SimTime, u64)>, want: Option<(SimTime, u64)>) {
        match (got, want) {
            (Some((tw, pw)), Some((tr, pr))) => {
                assert_eq!(tw, tr, "pop #{}: time diverged", self.pops);
                assert_eq!(pw, pr, "pop #{}: payload diverged at {tw}", self.pops);
                self.now_ns = tw.as_nanos();
                self.last_pop_ns = Some(self.now_ns);
                assert_eq!(
                    self.queue.last_popped_seq(),
                    self.oracle.last_popped_seq(),
                    "pop #{}: ticket diverged",
                    self.pops
                );
                let pos = self
                    .pending
                    .iter()
                    .position(|&tag| tag == pw)
                    .expect("popped tag must be tracked");
                self.pending.swap_remove(pos);
            }
            (None, None) => {}
            (got, want) => panic!("pop #{}: queue {got:?} vs oracle {want:?}", self.pops),
        }
        self.pops += 1;
    }

    fn check_len(&self) {
        assert_eq!(self.queue.len(), self.oracle.len(), "len diverged");
        assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
        assert_eq!(self.queue.len(), self.pending.len(), "tracker diverged");
    }

    fn drain(&mut self) {
        while !self.pending.is_empty() {
            self.pop();
        }
        assert!(self.queue.pop().is_none());
        assert!(self.oracle.pop().is_none());
    }
}

/// Pick an offset that exercises every level: mostly near-future (level 0
/// and 1), often zero (same-instant ties), occasionally a far-future jump
/// onto the heap.
fn random_offset(rng: &mut SimRng) -> u64 {
    match rng.next_below(100) {
        0..=24 => 0,                              // tie with "now"
        25..=59 => rng.next_below(1_000),         // sub-microsecond
        60..=84 => rng.next_below(1_000_000),     // sub-millisecond
        85..=94 => rng.next_below(1_000_000_000), // sub-second
        95..=98 => rng.next_below(1 << 40),       // ~18-minute horizon
        _ => (1 << 56) + rng.next_below(1 << 40), // top-byte rollover
    }
}

#[test]
fn random_schedules_pop_identically() {
    for seed in 0..8u64 {
        let mut rng = SimRng::new(0xD1FF_0000 + seed);
        let mut h = Harness::new();
        for _ in 0..5_000 {
            let op = rng.next_below(100);
            if op < 55 || h.pending.is_empty() {
                let at_ns = h.now_ns.saturating_add(random_offset(&mut rng));
                h.push(at_ns);
            } else {
                h.pop();
            }
            h.check_len();
        }
        h.drain();
        assert!(h.pops > 1_000, "seed {seed}: schedule too pop-starved");
    }
}

#[test]
fn tie_heavy_schedule_pops_in_insertion_order() {
    // Many events on few distinct timestamps: the FIFO tie-break carries
    // all the ordering information.
    let mut rng = SimRng::new(0x7135);
    let mut h = Harness::new();
    for _ in 0..3_000 {
        let op = rng.next_below(10);
        if op < 6 || h.pending.is_empty() {
            let at_ns = h.now_ns + rng.next_below(4) * 100;
            h.push(at_ns);
        } else {
            h.pop();
        }
        h.check_len();
    }
    h.drain();
}

#[test]
fn far_future_rollover_matches_oracle() {
    // Jumps through level 1 and onto the heap, including times near
    // u64::MAX.
    let mut h = Harness::new();
    let times = [
        0u64,
        255,
        256,
        65_535,
        1 << 24,
        (1 << 32) + 7,
        1 << 48,
        (1 << 56) | 42,
        u64::MAX - 1,
        u64::MAX,
    ];
    // Insert in a scrambled order with duplicates for tie coverage.
    for &ns in times.iter().rev() {
        h.push(ns);
        h.push(ns);
    }
    h.check_len();
    h.drain();
}

#[test]
fn pop_due_matches_peek_then_pop() {
    // The same op mix as `random_schedules_pop_identically` (ties,
    // far-future jumps), popping through `pop_due` with limits on, just
    // before, between, before and beyond the next event. A held pop moves
    // the harness's clock to its limit, so later pushes land between the
    // limit and the held event.
    for seed in 0..8u64 {
        let mut rng = SimRng::new(0xD0E0_0000 + seed);
        let mut h = Harness::new();
        let mut held_back = 0u64;
        for _ in 0..5_000 {
            let op = rng.next_below(100);
            if op < 50 || h.pending.is_empty() {
                let at_ns = h.now_ns.saturating_add(random_offset(&mut rng));
                h.push(at_ns);
            } else {
                let now = h.now_ns;
                let next = h.oracle.peek_time().expect("pending").as_nanos();
                let limit = match rng.next_below(6) {
                    0 => next,
                    1 => next.saturating_sub(1),
                    2 => now + rng.next_below(next - now + 1),
                    3 => now,
                    4 => next.saturating_add(random_offset(&mut rng)),
                    _ => u64::MAX,
                };
                if !h.pop_due(limit) {
                    held_back += 1;
                    // Asking again changes nothing; raising the limit to the
                    // event's time releases it.
                    assert!(!h.pop_due(limit));
                    if rng.next_below(2) == 0 {
                        assert!(h.pop_due(next));
                    }
                }
            }
            h.check_len();
        }
        assert!(h.pops > 1_000, "seed {seed}: schedule too pop-starved");
        assert!(held_back > 100, "seed {seed}: limits never held an event");
        h.drain();
    }
}

#[test]
fn pop_due_holds_far_future_events_until_their_time() {
    // Each event sits further out than the last; a limit one nanosecond
    // short may move the window toward it, never past the
    // limit, and does not release it.
    let mut h = Harness::new();
    let times = [
        300u64,
        65_535,
        1 << 24,
        (1 << 32) + 7,
        1 << 48,
        (1 << 56) | 42,
        u64::MAX,
    ];
    for &ns in times.iter().rev() {
        h.push(ns);
        h.push(ns);
    }
    assert!(!h.pop_due(0), "limit before every event");
    for &ns in &times {
        assert!(!h.pop_due(ns - 1));
        assert!(!h.pop_due(ns - 1), "repeat after a None");
        assert!(h.pop_due(ns));
        assert!(h.pop_due(ns), "the tie is due too");
        assert!(!h.pop_due(ns));
        h.check_len();
    }
    assert!(!h.pop_due(u64::MAX), "empty queue");
}

#[test]
fn reserved_tickets_filed_later_pop_where_the_oracle_says() {
    // The `random_schedules_pop_identically` mix plus reserve-now /
    // insert-later: tickets are taken, other events are scheduled and
    // popped in between, and each ticket is filed (or abandoned) at a
    // random later point — often for the current instant.
    for seed in 0..8u64 {
        let mut rng = SimRng::new(0x71C4_0000 + seed);
        let mut h = Harness::new();
        for _ in 0..6_000 {
            let op = rng.next_below(100);
            if op < 35 || (h.pending.is_empty() && h.reserved.is_empty()) {
                let at_ns = h.now_ns.saturating_add(random_offset(&mut rng));
                h.push(at_ns);
            } else if op < 47 {
                if h.reserved.len() < 32 {
                    h.reserve();
                }
            } else if op < 61 && !h.reserved.is_empty() {
                let pos = rng.next_below(h.reserved.len() as u64) as usize;
                let at_ns = h.now_ns.saturating_add(random_offset(&mut rng));
                h.insert_reserved(pos, at_ns);
            } else if op < 63 && !h.reserved.is_empty() {
                // A ticket may never get an entry.
                let pos = rng.next_below(h.reserved.len() as u64) as usize;
                h.reserved.swap_remove(pos);
            } else {
                h.pop();
            }
            h.check_len();
        }
        assert!(h.late_inserts > 300, "seed {seed}: {}", h.late_inserts);
        assert!(h.late_into_now > 20, "seed {seed}: {}", h.late_into_now);
        h.drain();
    }
}

#[test]
fn late_insertion_sorts_by_its_ticket_not_its_arrival() {
    let mut h = Harness::new();
    let pop_tags = |h: &mut Harness, n: usize| -> Vec<u64> {
        (0..n).map(|_| h.pop_tag().expect("pending")).collect()
    };
    // Into a later level-0 slot: tickets 0 and 2 are taken around ordinary
    // events (tickets 1 and 3), all four for t = 500, and filed last.
    h.reserve();
    h.push(500); // tag 0, ticket 1
    h.reserve();
    h.push(500); // tag 1, ticket 3
    h.insert_reserved(1, 500); // tag 2, ticket 2
    h.insert_reserved(0, 500); // tag 3, ticket 0
    assert_eq!(pop_tags(&mut h, 4), [3, 0, 2, 1]);
    assert_eq!(h.queue.last_popped_seq(), Some(3));

    // Into the current instant: ticket 4 has popped at t = 900 when ticket 5
    // (taken before) is filed for t = 900 — it still pops before ticket 6.
    h.push(900); // tag 4, ticket 4
    h.reserve(); // ticket 5
    h.push(900); // tag 5, ticket 6
    assert_eq!(pop_tags(&mut h, 1), [4]);
    h.insert_reserved(0, 900); // tag 6
    assert_eq!(h.late_into_now, 1);
    assert_eq!(pop_tags(&mut h, 2), [6, 5]);

    // Into level 1, drained later: four events at one far
    // instant, the two reserved tickets filed last and out of order.
    let far = 900 + (1u64 << 33) + 12_345;
    h.push(far); // tag 7
    h.reserve();
    h.reserve();
    h.push(far); // tag 8
    h.insert_reserved(1, far); // tag 9
    h.insert_reserved(0, far); // tag 10
    h.check_len();
    h.push(1_000); // tag 11: pops first, the window jumps after it
    assert_eq!(pop_tags(&mut h, 5), [11, 7, 10, 9, 8]);
    h.drain();
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "scheduling into the past")]
fn filing_a_ticket_at_or_before_the_last_popped_event_is_refused() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let early = q.reserve_seq();
    q.schedule(SimTime::from_nanos(10), 0);
    assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 0)));
    // (10, ticket 0) sorts before the popped (10, ticket 1).
    q.schedule_reserved(SimTime::from_nanos(10), early, 1);
}

/// Level-0 bucket width, half-window, and level 1's reach (4096 halves), as
/// the calendar lays them out.
const BUCKET_NS: u64 = 16;
const HALF_NS: u64 = 1 << 15;
const REACH_NS: u64 = 4096 * HALF_NS;

/// A time at or after `now` on one of the calendar's edges: a 16 ns bucket
/// edge (or 1 ns short of one), a 32 / 64 µs half-window edge, exactly
/// 32 µs ahead, level 1's reach ≈ 134 ms out, well beyond it on the heap,
/// near `u64::MAX`, or `now` itself.
fn edge_time(rng: &mut SimRng, now: u64) -> u64 {
    let k = rng.next_below(4);
    let short = rng.next_below(2);
    let up = |unit: u64, n: u64| (now / unit).saturating_add(1 + n).saturating_mul(unit);
    let t = match rng.next_below(100) {
        0..=24 => up(BUCKET_NS, k * 3).saturating_sub(short),
        25..=44 => up(HALF_NS, k).saturating_sub(short),
        45..=54 => now.saturating_add(HALF_NS - 1 + k.min(2)),
        55..=69 => up(HALF_NS, 4094 + k).saturating_sub(short),
        70..=79 => now.saturating_add(REACH_NS * (1 + k) + rng.next_below(HALF_NS)),
        80..=81 => u64::MAX - rng.next_below(1 << 16),
        _ => now,
    };
    t.max(now)
}

#[test]
fn calendar_edges_pop_identically() {
    // Pushes on the bucket, window and reach edges, pops through `pop` and
    // through `pop_due` at limits on and around the next event.
    for seed in 0..8u64 {
        let mut rng = SimRng::new(0xCA1E_0000 + seed);
        let mut h = Harness::new();
        for _ in 0..4_000 {
            let op = rng.next_below(100);
            if op < 55 || h.pending.is_empty() {
                let at_ns = edge_time(&mut rng, h.now_ns);
                h.push(at_ns);
            } else if op < 80 {
                h.pop();
            } else {
                let next = h.oracle.peek_time().expect("pending").as_nanos();
                let limit = match rng.next_below(4) {
                    0 => next,
                    1 => next.saturating_sub(1),
                    2 => edge_time(&mut rng, h.now_ns).min(next),
                    _ => h.now_ns + rng.next_below(next - h.now_ns + 1),
                };
                h.pop_due(limit);
            }
            h.check_len();
        }
        assert!(h.pops > 1_000, "seed {seed}: schedule too pop-starved");
        h.drain();
    }
}

#[test]
fn an_idle_jump_drains_level_one_into_an_empty_window() {
    // Level 0 is empty whenever these pops run: every event lies at least
    // two halves ahead, so each pop jumps the window to its half and drains
    // that half's level-1 bucket (and the next one's) whole.
    let mut rng = SimRng::new(0x1D1E);
    let mut h = Harness::new();
    for _ in 0..300 {
        for _ in 0..1 + rng.next_below(6) {
            let halves = 2 + rng.next_below(200);
            let at_ns = (h.now_ns / HALF_NS + halves) * HALF_NS + rng.next_below(3) * 16_384;
            h.push(at_ns);
            // A tie, and a neighbour in the same bucket.
            if rng.next_below(3) == 0 {
                h.push(at_ns);
                h.push(at_ns + rng.next_below(BUCKET_NS));
            }
        }
        while !h.pending.is_empty() && rng.next_below(4) != 0 {
            h.pop();
        }
        h.check_len();
    }
    h.drain();
}

#[test]
fn heap_entries_beyond_level_one_and_near_the_top_of_time() {
    let mut h = Harness::new();
    let times = [
        REACH_NS - 1,
        REACH_NS,
        REACH_NS + 1,
        2 * REACH_NS - HALF_NS,
        2 * REACH_NS,
        1 << 40,
        (1 << 40) + HALF_NS,
        u64::MAX - HALF_NS,
        u64::MAX - 1,
        u64::MAX,
    ];
    for &ns in times.iter().rev() {
        h.push(ns);
        h.push(ns);
    }
    // Each pop of one of those re-files what level 1 now reaches; events
    // scheduled just after it land in level 0, level 1 and the heap.
    while let Some(tag) = h.pop_tag() {
        let now = h.now_ns;
        if tag < 2 * times.len() as u64 && now < u64::MAX - 2 * REACH_NS {
            h.push(now + 7);
            h.push(now + HALF_NS);
            h.push(now + REACH_NS);
        }
        h.check_len();
    }
    h.drain();
}

#[test]
fn pop_due_limits_between_the_window_and_level_one_keep_the_floor_at_or_before_them() {
    // A held event in level 1 (10 ms) or on the heap (1 s); limits between
    // the window and it. After each `None` an event filed exactly at the
    // limit is accepted (a floor past the limit would refuse it in debug
    // builds and misplace it in release) and pops there, before the held
    // one.
    for held in [10_000_000u64, 1_000_000_000] {
        let mut h = Harness::new();
        h.push(held);
        let half_start = held / HALF_NS * HALF_NS;
        let limits = [
            2 * HALF_NS,
            2 * HALF_NS + 1,
            REACH_NS - 1,
            REACH_NS,
            half_start - 1,
            half_start,
            held - 1,
        ];
        let mut limits: Vec<u64> = limits.into_iter().filter(|&l| l < held).collect();
        limits.sort_unstable();
        for limit in limits {
            if limit < h.now_ns {
                continue;
            }
            assert!(!h.pop_due(limit), "nothing is due by {limit}");
            assert!(!h.pop_due(limit), "asking again changes nothing");
            h.push(limit);
            assert!(h.pop_due(limit), "an event at the limit pops");
            h.check_len();
        }
        assert!(h.pop_due(held));
        h.drain();
    }
}

#[test]
fn ticket_ties_straddle_a_drain() {
    // Events for one far instant: some filed while it lies in level 1, one
    // under a ticket taken before them but filed after the window reached
    // the instant's half (so after the drain), and one fresh afterwards.
    // They pop by ticket.
    let mut h = Harness::new();
    let far = 10 * HALF_NS + 123;
    h.reserve(); // ticket 0
    h.push(far); // tag 0, ticket 1, level 1
    h.push(far); // tag 1, ticket 2, level 1
    h.reserve(); // ticket 3
    h.push(far - 100); // tag 2: same half; its pop drains `far`'s bucket
    assert_eq!(h.pop_tag(), Some(2));
    h.insert_reserved(1, far); // tag 3, ticket 3: after the drain
    h.insert_reserved(0, far); // tag 4, ticket 0: first of all
    h.push(far); // tag 5, ticket 5
    let order: Vec<u64> = (0..4).map(|_| h.pop_tag().expect("pending")).collect();
    assert_eq!(order, [4, 0, 1, 3]);
    assert_eq!(h.pop_tag(), Some(5));
    h.drain();
}
