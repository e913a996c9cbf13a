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
//! thread's *current cause* ([`set_cause`]); any `schedule` recorded until
//! the next dispatch back-points to it. Walking `by` links from the final
//! entries therefore reconstructs the causal chain that led to the failure —
//! which timer scheduled the packet whose delivery scheduled the CNP that
//! tripped the error.
//!
//! ## Determinism contract
//!
//! Entries live in the crate's one ring type, keyed `(ctx, seq)` exactly
//! like [`crate::trace`] records; timestamps are simulation time only and
//! back-pointers reference sequence numbers *within the same context*. The
//! export is byte-identical across `SIM_THREADS` settings. The cause is the
//! second half of the thread's job context, so [`crate::in_context`] clears
//! it around every parallel job and causality never leaks between jobs that
//! happened to share a worker thread.

use std::path::PathBuf;

/// Per-context ring capacity (entries). Post-mortems care about the last
/// few thousand decisions, not the whole run.
pub(crate) const CAPACITY: usize = 1 << 12;

/// One recorded flight entry; its `(ctx, seq)` key is the ring's.
pub(crate) struct Entry {
    t_s: f64,
    kind: &'static str,
    aux: f64,
    by: Option<u64>,
}

/// Is the flight recorder enabled? One relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    crate::on(crate::FLIGHT)
}

/// Arm dump-on-error: when an error site calls [`dump_on_error`], the ring
/// is written as JSONL to `path`.
pub fn set_dump_path(path: PathBuf) {
    crate::with_state(|s| s.dump_path = Some(path));
}

/// The sequence number of the dispatch entry the current thread is handling
/// (the scheduled-by back-pointer new `schedule` entries should carry).
pub fn current_cause() -> Option<u64> {
    crate::JOB.with(|j| j.get().1)
}

/// Install `cause` as the current thread's dispatch-in-progress marker.
/// `desim::event::EventQueue::pop` calls this with each dispatch entry's
/// sequence number.
pub fn set_cause(cause: Option<u64>) {
    crate::JOB.with(|j| j.set((j.get().0, cause)));
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
    let ctx = crate::current_context();
    let entry = Entry { t_s, kind, aux, by };
    crate::with_state(|s| s.flight.push(ctx, entry))
}

/// Export the ring as JSONL ordered by `(ctx, seq)`:
///
/// ```json
/// {"ctx": 1, "seq": 42, "t_s": 0.00125, "kind": "schedule", "aux": 17.0, "by": 41}
/// ```
pub fn export_jsonl() -> String {
    crate::with_state(|s| render(&s.flight))
}

fn render(rings: &crate::Rings<Entry>) -> String {
    rings.export_jsonl(|out, e| {
        crate::json::write_f64(out, e.t_s);
        out.push_str(", \"kind\": \"");
        out.push_str(e.kind);
        out.push_str("\", \"aux\": ");
        crate::json::write_f64(out, e.aux);
        out.push_str(", \"by\": ");
        match e.by {
            Some(by) => out.push_str(&by.to_string()),
            None => out.push_str("null"),
        }
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
    let (path, ring) = crate::with_state(|s| Some((s.dump_path.clone()?, render(&s.flight))))?;
    let mut out = String::from("{\"kind\": \"flight_dump\", \"reason\": ");
    crate::json::write_str(&mut out, reason);
    out.push_str("}\n");
    out.push_str(&ring);
    #[expect(
        clippy::disallowed_methods,
        reason = "post-mortem diagnostic sink: written while the process is already failing, best-effort by design, and obs sits below store so the atomic writer is out of reach"
    )]
    std::fs::write(&path, out).ok()?;
    crate::with_state(|s| s.dump_reason = Some(reason.to_string()));
    Some(path)
}

/// The reason of the last successful [`dump_on_error`] since the recorder
/// was reset. Clean-exit writers check this so a post-mortem dump is never
/// overwritten by an end-of-run snapshot of the same path.
pub fn last_dump_reason() -> Option<String> {
    crate::with_state(|s| s.dump_reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_chain_back_pointers_export() {
        let mut rings = crate::Rings::new(CAPACITY);
        let mut push = |t_s, aux, by| {
            rings.push(
                0,
                Entry {
                    t_s,
                    kind: "schedule",
                    aux,
                    by,
                },
            )
        };
        let s0 = push(0.0, 1.0, None);
        let d0 = push(0.5, 1.0, Some(s0));
        push(0.5, 2.0, Some(d0));
        assert_eq!(
            render(&rings),
            "{\"ctx\": 0, \"seq\": 0, \"t_s\": 0.0, \"kind\": \"schedule\", \"aux\": 1.0, \"by\": null}\n\
             {\"ctx\": 0, \"seq\": 1, \"t_s\": 0.5, \"kind\": \"schedule\", \"aux\": 1.0, \"by\": 0}\n\
             {\"ctx\": 0, \"seq\": 2, \"t_s\": 0.5, \"kind\": \"schedule\", \"aux\": 2.0, \"by\": 1}\n"
        );
    }

    #[test]
    fn dump_on_error_writes_header_and_ring() {
        let _g = crate::test_lock();
        crate::reset();
        crate::enable(crate::FLIGHT);
        record(0.25, "watchdog", 3.5e13, None);
        let dir = std::env::temp_dir().join("obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        set_dump_path(path.clone());
        let written = dump_on_error("numeric divergence in dde").unwrap();
        crate::disable(crate::FLIGHT);
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
        crate::reset();
    }
}
