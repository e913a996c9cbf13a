//! `obs` job contexts under `par_map`: records follow the job's input
//! index, never the worker thread — including after a job panics.
//!
//! The obs recorder is process-global, so these tests live in their own
//! binary (no unit test of `desim` can reset or disable it under them) and
//! take turns on one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

use desim::par::{par_map, with_threads};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` with only `caps` on a fresh recorder; returns what it recorded.
fn recorded(caps: u8, export: fn() -> String, f: impl FnOnce()) -> String {
    obs::reset();
    obs::enable(caps);
    f();
    obs::disable(caps);
    let out = export();
    obs::reset();
    out
}

#[test]
fn par_map_trace_contexts_follow_input_index_not_thread() {
    let _g = serial();
    // One trace event per job: the export must be byte-identical between
    // the inline serial path and an 8-worker pool, because contexts are
    // derived from input indices, never from threads.
    let run = |threads: usize| -> String {
        recorded(obs::TRACE, obs::trace::export_jsonl, || {
            let _ = with_threads(threads, || {
                par_map((0..16u64).collect(), |i| {
                    obs::trace::record(i as f64, obs::Event::CnpSent { flow: i });
                    i
                })
            });
        })
    };
    let serial = run(1);
    let par = run(8);
    assert_eq!(serial.lines().count(), 16);
    assert_eq!(serial, par);
}

#[test]
fn a_panicked_job_leaves_its_context_behind_on_no_thread() {
    let _g = serial();
    // One worker runs both jobs in turn, each under `catch_unwind` as
    // `ext_incast`'s cells are. Job 0 (ctx 1) panics inside a nested
    // context, then records again; job 1 (ctx 2) records on the same
    // thread. Had the panic left the nested context installed, job 0's
    // second record would land under it.
    let out = recorded(obs::TRACE, obs::trace::export_jsonl, || {
        let panicked = with_threads(1, || {
            par_map(vec![0u64, 1], |i| {
                obs::trace::record(0.0, obs::Event::CnpSent { flow: i });
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if i == 0 {
                        obs::in_context(99, || panic!("job 0 panics"));
                    }
                }));
                obs::trace::record(1.0, obs::Event::CnpSent { flow: i });
                caught.is_err()
            })
        });
        assert_eq!(panicked, [true, false]);
    });
    assert_eq!(obs::current_context(), 0, "the caller's context is back");
    let ctx_flow: Vec<(u64, u64)> = out
        .lines()
        .map(|line| {
            let v = obs::json::parse(line).expect("trace line");
            let field = |k: &str| v.get(k).and_then(|x| x.as_u64()).expect(k);
            (field("ctx"), field("flow"))
        })
        .collect();
    assert_eq!(ctx_flow, [(1, 0), (1, 0), (2, 1), (2, 1)], "{out}");
}
