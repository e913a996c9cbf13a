//! Scratch profiling harness for the event queue (not shipped; examples are
//! outside the simlint scope and the wall-clock ban).

use desim::{EventQueue, SimRng, SimTime};
use std::time::Instant;

#[path = "../tests/support/event_ref.rs"]
#[expect(
    dead_code,
    reason = "the whole oracle; this harness only schedules and pops"
)]
mod event_ref;

fn ref_bench() {
    use event_ref::ReferenceEventQueue;
    let reps = 300u32;
    let mut acc = 0u64;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let mut q = ReferenceEventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    let fifo = t0.elapsed().as_nanos() / reps as u128;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let mut rng = SimRng::new(7);
        let mut q = ReferenceEventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i);
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    let rand = t0.elapsed().as_nanos() / reps as u128;
    println!("ref:  fifo total {fifo:>8} ns   rand total {rand:>8} ns  (acc {acc})");
}

fn warm_bench() {
    // Reuse one queue across reps: isolates allocation/page-fault churn from
    // algorithmic cost (the arena stays at its high-water mark).
    let reps = 300u32;
    let mut acc = 0u64;
    let mut q = EventQueue::new();
    let t0 = Instant::now();
    for rep in 0..reps as u64 {
        let base = rep * 10_000;
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(base + i), i);
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    let fifo = t0.elapsed().as_nanos() / reps as u128;
    let mut q = EventQueue::new();
    let t0 = Instant::now();
    for rep in 0..reps as u64 {
        let base = rep * 1_000_000;
        let mut rng = SimRng::new(7);
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(base + rng.next_below(1_000_000)), i);
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    let rand = t0.elapsed().as_nanos() / reps as u128;
    println!("warm: fifo total {fifo:>8} ns   rand total {rand:>8} ns  (acc {acc})");
}

fn l0_only_bench() {
    // 4096 events all inside the level-0 window: pure push/pop cost with no
    // level-1 drain, isolating the pop path from drain cost.
    let reps = 300u32;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut q = EventQueue::new();
        for i in 0..4_096u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    let total = t0.elapsed().as_nanos() / reps as u128;
    println!(
        "l0:   4096-event total {total:>8} ns  ({:.1} ns/event, acc {acc})",
        total as f64 / 4096.0
    );
}

fn main() {
    ref_bench();
    l0_only_bench();
    warm_bench();
    let reps = 300;
    // Phase timing: fifo
    let mut t_new = 0u128;
    let mut t_sched = 0u128;
    let mut t_drain = 0u128;
    let mut acc = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut q = EventQueue::new();
        let t1 = Instant::now();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let t2 = Instant::now();
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        let t3 = Instant::now();
        t_new += (t1 - t0).as_nanos();
        t_sched += (t2 - t1).as_nanos();
        t_drain += (t3 - t2).as_nanos();
    }
    println!(
        "fifo: new {:>8} ns  sched {:>8} ns  drain {:>8} ns  (per iter, acc {acc})",
        t_new / reps as u128,
        t_sched / reps as u128,
        t_drain / reps as u128
    );

    let mut t_new = 0u128;
    let mut t_sched = 0u128;
    let mut t_drain = 0u128;
    for _ in 0..reps {
        let mut rng = SimRng::new(7);
        let t0 = Instant::now();
        let mut q = EventQueue::new();
        let t1 = Instant::now();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i);
        }
        let t2 = Instant::now();
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        let t3 = Instant::now();
        t_new += (t1 - t0).as_nanos();
        t_sched += (t2 - t1).as_nanos();
        t_drain += (t3 - t2).as_nanos();
    }
    println!(
        "rand: new {:>8} ns  sched {:>8} ns  drain {:>8} ns  (per iter, acc {acc})",
        t_new / reps as u128,
        t_sched / reps as u128,
        t_drain / reps as u128
    );
}
// appended: reference-queue comparison in the same process
