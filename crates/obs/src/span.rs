//! Wall-clock span timers for bench-phase attribution.
//!
//! This module is the sim-layer surface that reads the wall clock: its two
//! `Instant::now` calls carry the `#[expect]` for the ban in `clippy.toml`
//! (the analogue of `desim::par` for `thread::scope`), and simlint's
//! `determinism-taint` holds the readings to measuring.
//! Sim crates call [`enter`] with a [`Phase`]; the `Instant` reads happen
//! in here, and only when spans are explicitly enabled by the bench
//! harness. Wall-clock durations never flow into traces, metrics or any
//! simulation decision — they are drained by `bench::harness` into
//! `BENCH_*.json` rows only.
//!
//! Phases may nest (a `Locate` or `Compact` span runs inside an
//! `Integrate` span), so per-phase totals are not disjoint; they attribute
//! where time is spent, not a partition of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The bench phases spans can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// DDE integration step loop (RK4 stages + projection).
    Integrate,
    /// History knot lookup (`History::locate` / `eval_all`).
    Locate,
    /// History buffer compaction (`History::trim_before` drain).
    Compact,
    /// Packet-engine event dispatch (`Engine::handle`).
    EventDispatch,
}

/// All phases, in display order.
const PHASES: [Phase; 4] = [
    Phase::Integrate,
    Phase::Locate,
    Phase::Compact,
    Phase::EventDispatch,
];

impl Phase {
    /// The name used in `BENCH_*.json` span rows.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Integrate => "integrate",
            Phase::Locate => "locate",
            Phase::Compact => "compact",
            Phase::EventDispatch => "event_dispatch",
        }
    }
}

/// Per-phase accumulators: (total nanoseconds, span count).
struct Slot {
    ns: AtomicU64,
    count: AtomicU64,
}

impl Slot {
    // Exists solely as a repeat-element initializer for the TOTALS array;
    // each array slot is a distinct atomic, never this const itself.
    #[allow(clippy::declare_interior_mutable_const)]
    const NEW: Slot = Slot {
        ns: AtomicU64::new(0),
        count: AtomicU64::new(0),
    };
}

static TOTALS: [Slot; PHASES.len()] = [Slot::NEW; PHASES.len()];

/// Are spans enabled? One relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    crate::on(crate::SPANS)
}

/// `obs::enable(obs::SPANS)`, kept for `benchmark/`.
pub fn enable() {
    crate::enable(crate::SPANS);
}

/// `obs::disable(obs::SPANS)`, kept for `benchmark/`.
pub fn disable() {
    crate::disable(crate::SPANS);
}

/// An RAII phase timer; records elapsed wall time on drop. Inert (no clock
/// read at all) when spans are disabled.
#[must_use = "a span guard records on drop; binding it to _ discards the span immediately"]
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Start timing `phase`. The returned guard attributes the elapsed wall
/// time to the phase when it goes out of scope.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the one profiling timer: the reading goes to the span totals, never into simulation state"
)]
pub fn enter(phase: Phase) -> SpanGuard {
    SpanGuard {
        phase,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            let slot = &TOTALS[self.phase as usize];
            slot.ns.fetch_add(ns, Ordering::Relaxed);
            slot.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A plain wall-clock stopwatch for result-side annotations (e.g. per-cell
/// `wall_ms` in `results/ext_incast.json`). Lives here because span.rs is
/// where the sim layer's sanctioned clock reads are; callers elsewhere stay
/// clean under the `Instant::now` ban of `clippy.toml`. Readings must never
/// feed back into simulation state or byte-compared outputs — determinism
/// gates scrub or skip them.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start a stopwatch now.
    #[expect(
        clippy::disallowed_methods,
        reason = "result-side wall_ms annotation; determinism gates scrub or skip it"
    )]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Drain the accumulators: returns `(phase, span count, total ns)` for every
/// phase with at least one span, resetting the totals to zero.
pub fn drain() -> Vec<(Phase, u64, u64)> {
    let mut out = Vec::new();
    for phase in PHASES {
        let slot = &TOTALS[phase as usize];
        let count = slot.count.swap(0, Ordering::Relaxed);
        let ns = slot.ns.swap(0, Ordering::Relaxed);
        if count > 0 {
            out.push((phase, count, ns));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_only_while_enabled_and_drain_resets() {
        let _g = crate::test_lock();
        disable();
        drain();
        drop(enter(Phase::Integrate));
        assert!(drain().is_empty(), "a disabled span reads no clock");
        enable();
        for _ in 0..3 {
            let _s = enter(Phase::Locate);
        }
        drop(enter(Phase::Compact));
        disable();
        let rows = drain();
        let count = |p| rows.iter().find(|r| r.0 == p).map(|r| r.1);
        assert_eq!(count(Phase::Locate), Some(3));
        assert_eq!(count(Phase::Compact), Some(1));
        assert!(drain().is_empty(), "drain resets");
    }

    #[test]
    fn stopwatch_elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["integrate", "locate", "compact", "event_dispatch"]);
    }
}
