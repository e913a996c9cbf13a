//! Causal flight recorder: a bounded ring of recent scheduling decisions.
//!
//! When a simulation dies with a `SimError` (a watchdog trip, a fault-plane
//! failure), counters and figures say *what* the end state was but not *how
//! the run got there*. The flight recorder is the post-mortem black box: a
//! bounded per-context ring of the most recent event-core operations, each
//! carrying a **scheduled-by back-pointer** to the entry whose dispatch
//! caused it, dumped as JSONL when an error site calls [`dump_on_error`].
//!
//! ## Causality
//!
//! `desim::event::EventQueue` records a `schedule` entry for every event it
//! accepts and a `dispatch` entry for every event it pops. While a dispatch
//! is being handled, its entry's sequence number is installed as the
//! thread-local *current cause* ([`set_cause`]); any `schedule` recorded
//! until the next dispatch back-points to it. Walking `by` links from the
//! final entries therefore reconstructs the causal chain that led to the
//! failure — which timer scheduled the packet whose delivery scheduled the
//! CNP that tripped the error.
//!
//! ## Determinism contract
//!
//! Entries are keyed `(ctx, seq)` exactly like [`crate::trace`] records:
//! contexts derive from `desim::par` job input indices, sequence numbers
//! count per context, timestamps are simulation time only, and back-pointers
//! reference sequence numbers *within the same context*. The export is
//! byte-identical across `SIM_THREADS` settings. The thread-local cause is
//! cleared around every parallel job ([`with_clean_cause`]) so causality
//! never leaks between jobs that happened to share a worker thread.
//!
//! Off by default: a disabled recording point costs one relaxed atomic load
//! and a branch.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default per-context ring capacity (entries). Post-mortems care about the
/// last few thousand decisions, not the whole run.
pub const DEFAULT_CAPACITY: usize = 1 << 12;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Sequence number of the dispatch entry currently being handled on
    /// this thread (within the thread's recording context), if any.
    static CAUSE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// One recorded flight entry.
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    t_s: f64,
    kind: &'static str,
    aux: f64,
    by: Option<u64>,
}

/// A bounded ring of entries for one context.
#[derive(Debug)]
struct ContextBuf {
    ring: VecDeque<Entry>,
    next_seq: u64,
    dropped: u64,
}

struct Sink {
    capacity: usize,
    contexts: BTreeMap<u64, ContextBuf>,
    dump_path: Option<PathBuf>,
    dump_reason: Option<String>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            capacity: DEFAULT_CAPACITY,
            contexts: BTreeMap::new(),
            dump_path: None,
            dump_reason: None,
        })
    })
}

fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> R {
    // Poisoning cannot corrupt the ring; recover rather than propagate.
    let mut guard = sink().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Is the flight recorder enabled? One relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on with the default per-context ring capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turn the recorder on with an explicit per-context ring capacity.
pub fn enable_with_capacity(capacity: usize) {
    with_sink(|s| s.capacity = capacity.max(1));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the recorder off (recordings become no-ops; the ring is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discard all recorded entries, per-context state and the dump path.
pub fn reset() {
    with_sink(|s| {
        s.contexts.clear();
        s.dump_path = None;
        s.dump_reason = None;
    });
}

/// Arm dump-on-error: when an error site calls [`dump_on_error`], the ring
/// is written as JSONL to `path`.
pub fn set_dump_path(path: PathBuf) {
    with_sink(|s| s.dump_path = Some(path));
}

/// The sequence number of the dispatch entry the current thread is handling
/// (the scheduled-by back-pointer new `schedule` entries should carry).
pub fn current_cause() -> Option<u64> {
    CAUSE.with(Cell::get)
}

/// Install `cause` as the current thread's dispatch-in-progress marker.
/// `desim::event::EventQueue::pop` calls this with each dispatch entry's
/// sequence number.
pub fn set_cause(cause: Option<u64>) {
    CAUSE.with(|c| c.set(cause));
}

/// Run `f` with no inherited cause, restoring the previous cause after.
/// `desim::par::par_map` wraps every job in this so causal chains never
/// cross job boundaries through worker-thread reuse.
pub fn with_clean_cause<R>(f: impl FnOnce() -> R) -> R {
    let prev = CAUSE.with(|c| c.replace(None));
    let out = f();
    CAUSE.with(|c| c.set(prev));
    out
}

/// Record an entry under the current context: `kind` labels the operation
/// (`schedule`, `dispatch`, `cancel`, `watchdog`, ...), `aux` carries one
/// kind-specific value (queue length, state norm), `by` the scheduled-by
/// back-pointer. Returns the entry's sequence number, or `None` when the
/// recorder is disabled.
#[inline]
pub fn record(t_s: f64, kind: &'static str, aux: f64, by: Option<u64>) -> Option<u64> {
    if !enabled() {
        return None;
    }
    Some(record_always(t_s, kind, aux, by))
}

fn record_always(t_s: f64, kind: &'static str, aux: f64, by: Option<u64>) -> u64 {
    let ctx = crate::trace::current_context();
    with_sink(|s| {
        let cap = s.capacity;
        let buf = s.contexts.entry(ctx).or_insert_with(|| ContextBuf {
            ring: VecDeque::with_capacity(cap.min(1024)),
            next_seq: 0,
            dropped: 0,
        });
        if buf.ring.len() == cap {
            buf.ring.pop_front();
            buf.dropped += 1;
        }
        let seq = buf.next_seq;
        buf.next_seq += 1;
        buf.ring.push_back(Entry {
            seq,
            t_s,
            kind,
            aux,
            by,
        });
        seq
    })
}

/// Total entries overwritten by ring wrap-around, summed over contexts.
pub fn dropped_entries() -> u64 {
    with_sink(|s| s.contexts.values().map(|c| c.dropped).sum())
}

/// Total entries currently buffered.
pub fn buffered_entries() -> u64 {
    with_sink(|s| s.contexts.values().map(|c| c.ring.len() as u64).sum())
}

/// Export the ring as JSONL ordered by `(ctx, seq)`:
///
/// ```json
/// {"ctx": 1, "seq": 42, "t_s": 0.00125, "kind": "schedule", "aux": 17.0, "by": 41}
/// ```
pub fn export_jsonl() -> String {
    use std::fmt::Write as _;
    with_sink(|s| {
        let mut out = String::new();
        for (ctx, buf) in &s.contexts {
            for e in &buf.ring {
                let _ = write!(out, "{{\"ctx\": {ctx}, \"seq\": {}, \"t_s\": ", e.seq);
                crate::json::write_f64(&mut out, e.t_s);
                out.push_str(", \"kind\": \"");
                out.push_str(e.kind);
                out.push_str("\", \"aux\": ");
                crate::json::write_f64(&mut out, e.aux);
                out.push_str(", \"by\": ");
                match e.by {
                    Some(by) => {
                        let _ = write!(out, "{by}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str("}\n");
            }
        }
        out
    })
}

/// Dump the ring to the armed dump path, prefixed by a header line carrying
/// `reason`. Called by error sites (the fluid divergence watchdog, fault
/// drivers) at the moment a `SimError` is constructed. Returns the path
/// written, or `None` when the recorder is disabled, unarmed, or the write
/// failed (a post-mortem must never turn an error into a panic).
pub fn dump_on_error(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = with_sink(|s| s.dump_path.clone())?;
    let mut out = String::from("{\"kind\": \"flight_dump\", \"reason\": ");
    crate::json::write_str(&mut out, reason);
    out.push_str("}\n");
    out.push_str(&export_jsonl());
    #[expect(
        clippy::disallowed_methods,
        reason = "post-mortem diagnostic sink: written while the process is already failing, best-effort by design, and obs sits below store so the atomic writer is out of reach"
    )]
    std::fs::write(&path, out).ok()?;
    with_sink(|s| s.dump_reason = Some(reason.to_string()));
    Some(path)
}

/// The reason of the last successful [`dump_on_error`] since the recorder
/// was reset. Clean-exit writers check this so a post-mortem dump is never
/// overwritten by an end-of-run snapshot of the same path.
pub fn last_dump_reason() -> Option<String> {
    with_sink(|s| s.dump_reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Recorder state is process-global; tests that toggle it must not
    /// interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = serial();
        disable();
        reset();
        assert_eq!(record(1.0, "schedule", 0.0, None), None);
        assert_eq!(buffered_entries(), 0);
        assert!(dump_on_error("x").is_none());
    }

    #[test]
    fn causal_chain_back_pointers_export() {
        let _g = serial();
        reset();
        enable();
        let s0 = record(0.0, "schedule", 1.0, current_cause()).unwrap();
        let d0 = record(0.5, "dispatch", 1.0, Some(s0)).unwrap();
        set_cause(Some(d0));
        let s1 = record(0.5, "schedule", 2.0, current_cause()).unwrap();
        set_cause(None);
        disable();
        let out = export_jsonl();
        assert!(
            out.contains(&format!(
                "{{\"ctx\": 0, \"seq\": {s1}, \"t_s\": 0.5, \"kind\": \"schedule\", \
                 \"aux\": 2.0, \"by\": {d0}}}"
            )),
            "{out}"
        );
        assert!(out.contains("\"by\": null"), "root entry has no cause");
        reset();
    }

    #[test]
    fn with_clean_cause_isolates_and_restores() {
        let _g = serial();
        set_cause(Some(7));
        with_clean_cause(|| {
            assert_eq!(current_cause(), None, "jobs start causally clean");
            set_cause(Some(9));
        });
        assert_eq!(current_cause(), Some(7), "outer cause restored");
        set_cause(None);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let _g = serial();
        reset();
        enable_with_capacity(3);
        for i in 0..10 {
            record(i as f64, "schedule", 0.0, None);
        }
        disable();
        assert_eq!(buffered_entries(), 3);
        assert_eq!(dropped_entries(), 7);
        let out = export_jsonl();
        assert!(out.contains("\"seq\": 9"), "newest survives: {out}");
        assert!(!out.contains("\"seq\": 0,"), "oldest dropped: {out}");
        reset();
        with_sink(|s| s.capacity = DEFAULT_CAPACITY);
    }

    #[test]
    fn dump_on_error_writes_header_and_ring() {
        let _g = serial();
        reset();
        enable();
        record(0.25, "watchdog", 3.5e13, None);
        let dir = std::env::temp_dir().join("obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        set_dump_path(path.clone());
        let written = dump_on_error("numeric divergence in dde").unwrap();
        disable();
        assert_eq!(written, path);
        assert_eq!(
            last_dump_reason().as_deref(),
            Some("numeric divergence in dde"),
            "clean-exit writers must see that a post-mortem dump fired"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines = body.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"kind\": \"flight_dump\", \"reason\": \"numeric divergence in dde\"}"
        );
        assert!(body.contains("\"kind\": \"watchdog\""), "{body}");
        std::fs::remove_file(&path).ok();
        reset();
    }
}
