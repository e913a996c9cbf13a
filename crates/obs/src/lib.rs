//! # obs — zero-cost, deterministic instrumentation
//!
//! The simulator's one recorder (DESIGN.md §8.4) and its five instruments:
//!
//! * [`trace`] — typed sim-time [`Event`]s, exported as JSONL keyed by
//!   *simulation* time only (never wall clock);
//! * [`metrics`] — named counters with a name-sorted JSON snapshot;
//! * [`span`] — wall-clock phase timers for bench attribution. This is the
//!   module of the sim layer that reads the wall clock (its two reads carry
//!   the `#[expect]` for the `Instant::now` ban of `clippy.toml`, as
//!   `desim::par` does for the `thread::scope` one);
//! * [`timeseries`] — windowed, downsampled series plus log-bucketed
//!   streaming histograms, O(windows + buckets) rather than O(samples);
//! * [`flight`] — the causal flight recorder: recent event-core operations
//!   with scheduled-by back-pointers, dumped as JSONL when a `SimError` site
//!   calls [`flight::dump_on_error`];
//!
//! and [`json`], the workspace's one JSON value tree, reader and writers
//! (`obs` is the bottom of the crate graph).
//!
//! The core they share lives in this file:
//!
//! * **One capability word.** [`enable`] / [`disable`] set and clear the
//!   bits [`TRACE`], [`METRICS`], [`SPANS`], [`SERIES`], [`FLIGHT`] of one
//!   atomic byte. Everything is off by default, and every module's
//!   `enabled()` is one relaxed load and a bit test — a disabled
//!   instrumentation point takes no lock, allocates nothing and reads no
//!   clock. Figure binaries switch instruments on per flag
//!   (`bench::obs_cli`).
//! * **One state.** Counters, the trace and flight rings, the flight dump
//!   path and reason, and the time-series maps sit behind one mutex;
//!   [`reset`] clears all of it and the span totals.
//! * **One job context.** A thread-local `(ctx, cause)`: trace, flight and
//!   time-series records are keyed by `ctx`, and flight `schedule` entries
//!   back-point to `cause`. [`in_context`] runs a `desim::par` job under its
//!   own context with no cause and restores both on return *and* on unwind.
//! * **One ring type.** Trace and flight keep the newest items of each
//!   context in a bounded ring with per-context sequence numbers (oldest
//!   dropped and counted) and export in `(ctx, seq)` order.
//!
//! ## Determinism contract
//!
//! * A context never spans threads: the main thread records under 0 and
//!   `desim::par` job *i* under [`child_context`]`(parent, i)` — derived
//!   from the *input index*, never the worker — so every ctx-keyed export
//!   is independent of worker count and scheduling.
//! * Counters are commutative sums of per-event increments; their totals do
//!   not depend on thread interleaving.
//! * Wall-clock readings never enter traces, metrics or series — span
//!   totals are separate atomics drained only by the bench harness.

#![deny(missing_docs)]
// The determinism, crash-safety and panic bans (root `clippy.toml`,
// DESIGN.md §8.1); `xtask`'s `headers_deny_what_the_table_demands` test holds
// this header to `xtask::CRATE_LINTS`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use span::Phase;
pub use trace::Event;

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Capability bit: sim-time event tracing ([`trace`]).
pub const TRACE: u8 = 1;
/// Capability bit: named counters ([`metrics`]).
pub const METRICS: u8 = 1 << 1;
/// Capability bit: wall-clock phase spans ([`span`]).
pub const SPANS: u8 = 1 << 2;
/// Capability bit: windowed series and histograms ([`timeseries`]).
pub const SERIES: u8 = 1 << 3;
/// Capability bit: the causal flight recorder ([`flight`]).
pub const FLIGHT: u8 = 1 << 4;

/// The capability word: which instruments record.
static ON: AtomicU8 = AtomicU8::new(0);

/// Switch on the instruments whose bits are set in `caps`.
pub fn enable(caps: u8) {
    ON.fetch_or(caps, Ordering::Relaxed);
}

/// Switch off the instruments whose bits are set in `caps`; what they
/// recorded is kept for export.
pub fn disable(caps: u8) {
    ON.fetch_and(!caps, Ordering::Relaxed);
}

/// Is the instrument `cap` on? One relaxed load and a bit test.
#[inline(always)]
fn on(cap: u8) -> bool {
    ON.load(Ordering::Relaxed) & cap != 0
}

/// Everything the instruments record (span totals aside: they are atomics
/// in [`span`]), behind one lock that no disabled instrumentation point
/// takes.
struct State {
    counters: BTreeMap<&'static str, u64>,
    trace: Rings<trace::Record>,
    flight: Rings<flight::Entry>,
    dump_path: Option<PathBuf>,
    dump_reason: Option<String>,
    series: timeseries::Collector,
}

impl State {
    const fn new() -> Self {
        State {
            counters: BTreeMap::new(),
            trace: Rings::new(trace::CAPACITY),
            flight: Rings::new(flight::CAPACITY),
            dump_path: None,
            dump_reason: None,
            series: timeseries::Collector::new(),
        }
    }
}

static STATE: Mutex<State> = Mutex::new(State::new());

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    // Poisoning cannot corrupt a ring or a sum; recover rather than propagate.
    f(&mut STATE.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Discard everything recorded — counters, trace and flight rings, the
/// flight dump path and reason, series and histograms — and the span
/// totals. The capability word is left as it is.
pub fn reset() {
    with_state(|s| *s = State::new());
    span::drain();
}

thread_local! {
    /// The current thread's `(ctx, cause)`: its recording context (0 =
    /// main/serial) and the flight sequence number of the dispatch being
    /// handled in it, if any.
    static JOB: Cell<(u64, Option<u64>)> = const { Cell::new((0, None)) };
}

/// Stride between sibling context namespaces when parallel fan-outs nest.
pub const CONTEXT_STRIDE: u64 = 1 << 16;

/// The recording context for parallel job `index` (0-based) forked from
/// `parent`. Top-level jobs (parent 0) get `1 + index`; nested fan-outs land
/// in disjoint ranges as long as every fan-out is narrower than
/// [`CONTEXT_STRIDE`] jobs.
pub fn child_context(parent: u64, index: u64) -> u64 {
    parent * CONTEXT_STRIDE + 1 + index
}

/// The current thread's recording context.
pub fn current_context() -> u64 {
    JOB.with(|j| j.get().0)
}

/// Run `f` under recording context `ctx` with no flight cause, then restore
/// the thread's previous `(ctx, cause)`. The restore runs from a drop guard,
/// so a job that panics under `catch_unwind` leaves nothing behind on its
/// (reused) worker thread.
pub fn in_context<R>(ctx: u64, f: impl FnOnce() -> R) -> R {
    struct Restore((u64, Option<u64>));
    impl Drop for Restore {
        fn drop(&mut self) {
            JOB.with(|j| j.set(self.0));
        }
    }
    let _restore = Restore(JOB.with(|j| j.replace((ctx, None))));
    f()
}

/// Bounded per-context rings: each context keeps its newest `cap` items
/// under per-context sequence numbers; a push into a full ring drops the
/// oldest item and counts it.
struct Rings<T> {
    cap: usize,
    by_ctx: BTreeMap<u64, Ring<T>>,
}

struct Ring<T> {
    items: VecDeque<(u64, T)>,
    next_seq: u64,
    dropped: u64,
}

impl<T> Rings<T> {
    /// Empty rings of `cap ≥ 1` items per context.
    const fn new(cap: usize) -> Self {
        Rings {
            cap,
            by_ctx: BTreeMap::new(),
        }
    }

    /// Append `item` to context `ctx`'s ring; returns its sequence number.
    fn push(&mut self, ctx: u64, item: T) -> u64 {
        let cap = self.cap;
        let ring = self.by_ctx.entry(ctx).or_insert_with(|| Ring {
            items: VecDeque::with_capacity(cap.min(1024)),
            next_seq: 0,
            dropped: 0,
        });
        if ring.items.len() == cap {
            ring.items.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.items.push_back((seq, item));
        seq
    }

    /// Items overwritten by ring wrap-around, summed over contexts.
    fn dropped(&self) -> u64 {
        self.by_ctx.values().map(|r| r.dropped).sum()
    }

    /// One JSONL line per buffered item in `(ctx, seq)` order, each of the
    /// form `{"ctx": 1, "seq": 7, "t_s": …}`: `rest` writes from the `t_s`
    /// value to just before the closing brace.
    fn export_jsonl(&self, mut rest: impl FnMut(&mut String, &T)) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (ctx, ring) in &self.by_ctx {
            for (seq, item) in &ring.items {
                let _ = write!(out, "{{\"ctx\": {ctx}, \"seq\": {seq}, \"t_s\": ");
                rest(&mut out, item);
                out.push_str("}\n");
            }
        }
        out
    }
}

/// The one lock for tests that touch the capability word or the state.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u8 = TRACE | METRICS | SPANS | SERIES | FLIGHT;

    fn ids(rings: &Rings<u64>) -> String {
        rings.export_jsonl(|out, v| out.push_str(&format!("{v}")))
    }

    #[test]
    fn rings_keep_the_newest_per_context_and_count_drops() {
        let mut r = Rings::new(2);
        for i in 0..5u64 {
            assert_eq!(r.push(0, i), i, "seq counts pushes, not survivors");
        }
        r.push(3, 9);
        assert_eq!(r.dropped(), 3);
        assert_eq!(
            ids(&r),
            "{\"ctx\": 0, \"seq\": 3, \"t_s\": 3}\n\
             {\"ctx\": 0, \"seq\": 4, \"t_s\": 4}\n\
             {\"ctx\": 3, \"seq\": 0, \"t_s\": 9}\n"
        );
    }

    #[test]
    fn child_contexts_are_disjoint_across_nesting() {
        // Two sibling top-level jobs with nested fan-outs of up to
        // CONTEXT_STRIDE-1 jobs never collide.
        let a = child_context(0, 0);
        let b = child_context(0, 1);
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_ne!(
            child_context(a, CONTEXT_STRIDE - 2),
            child_context(b, 0),
            "sibling namespaces must not overlap"
        );
        assert_eq!(child_context(a, 0), CONTEXT_STRIDE + 1);
    }

    #[test]
    fn in_context_isolates_and_restores_on_return_and_unwind() {
        flight::set_cause(Some(7));
        in_context(5, || {
            assert_eq!(current_context(), 5);
            assert_eq!(flight::current_cause(), None, "jobs start causally clean");
            flight::set_cause(Some(9));
            in_context(6, || assert_eq!(current_context(), 6));
            assert_eq!(current_context(), 5);
            assert_eq!(flight::current_cause(), Some(9));
        });
        assert_eq!((current_context(), flight::current_cause()), (0, Some(7)));
        let caught = std::panic::catch_unwind(|| {
            in_context(2, || {
                flight::set_cause(Some(3));
                panic!("job fails");
            })
        });
        assert!(caught.is_err());
        assert_eq!(
            (current_context(), flight::current_cause()),
            (0, Some(7)),
            "a panicking job leaves no context behind"
        );
        flight::set_cause(None);
    }

    #[test]
    fn capability_bits_switch_instruments_independently() {
        let _g = test_lock();
        disable(ALL);
        enable(TRACE | FLIGHT);
        assert!(trace::enabled() && flight::enabled());
        assert!(!metrics::enabled() && !span::enabled() && !timeseries::enabled());
        disable(TRACE);
        assert!(!trace::enabled() && flight::enabled());
        metrics::enable();
        assert!(metrics::enabled() && flight::enabled());
        disable(ALL);
        assert!(!flight::enabled() && !metrics::enabled());
    }

    #[test]
    fn disabled_instruments_record_nothing_and_reset_clears_all() {
        let _g = test_lock();
        let record_one_of_each = || {
            trace::record(1.0, Event::CnpSent { flow: 1 });
            metrics::counter_inc("test.noop");
            drop(span::enter(Phase::Integrate));
            timeseries::sample("test.noop", 0, 1.0, 0.5, 1.0);
            timeseries::observe("test.noop", 0, 1.0);
            flight::record(1.0, "schedule", 0.0, None)
        };
        let empty = || {
            trace::export_jsonl().is_empty()
                && metrics::counter_value("test.noop") == 0
                && span::drain().is_empty()
                && timeseries::export_jsonl().is_empty()
                && flight::export_jsonl().is_empty()
        };
        disable(ALL);
        reset();
        assert_eq!(record_one_of_each(), None);
        assert!(empty(), "a disabled instrument records nothing");
        enable(ALL);
        assert_eq!(record_one_of_each(), Some(0));
        disable(ALL);
        assert!(!trace::export_jsonl().is_empty());
        assert_eq!(metrics::counter_value("test.noop"), 1);
        reset();
        assert!(empty(), "reset clears every instrument");
    }
}
