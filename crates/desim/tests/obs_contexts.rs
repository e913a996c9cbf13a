//! `obs` job contexts under both executors: records follow the job's input
//! index, never the worker thread — including after a job panics.
//!
//! The obs recorder is process-global, so these tests live in their own
//! binary (no unit test of `desim` can reset or disable it under them) and
//! take turns on one lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use desim::par::{par_map, with_threads};
use desim::supervise::{par_map_supervised, SupervisePolicy, SupervisedError};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct TestErr;

impl SupervisedError for TestErr {
    fn job_panicked(_: usize, _: String) -> Self {
        TestErr
    }
    fn job_timeout(_: usize, _: f64) -> Self {
        TestErr
    }
}

fn no_retry(_: &TestErr) -> bool {
    false
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
fn supervised_trace_contexts_follow_input_index_not_thread() {
    let _g = serial();
    let run = |threads: usize| -> String {
        recorded(obs::TRACE, obs::trace::export_jsonl, || {
            let _ = with_threads(threads, || {
                par_map_supervised(
                    (0..12u64).collect(),
                    SupervisePolicy::default(),
                    no_retry,
                    |i| {
                        obs::trace::record(i as f64, obs::Event::CnpSent { flow: i });
                        Ok::<_, TestErr>(i)
                    },
                )
            });
        })
    };
    let serial = run(1);
    let par = run(4);
    assert_eq!(serial.lines().count(), 12);
    assert_eq!(serial, par);
}

#[test]
fn a_panicked_job_leaves_its_context_behind_on_no_thread() {
    let _g = serial();
    // One worker runs both jobs in turn: job 0 (ctx 1) panics, then job 1
    // (ctx 2) fails retryably twice. Had the panic left ctx 1 installed on
    // the worker, job 1's supervisor entries would land under it.
    let mut report = None;
    let out = recorded(obs::FLIGHT, obs::flight::export_jsonl, || {
        report = Some(with_threads(1, || {
            par_map_supervised(
                vec![0u64, 1],
                SupervisePolicy {
                    deadline_s: None,
                    max_attempts: 2,
                },
                |_: &TestErr| true,
                |i| {
                    if i == 0 {
                        panic!("job 0 panics");
                    }
                    Err::<u64, _>(TestErr)
                },
            )
        }));
    });
    assert_eq!(report.map(|r| r.quarantined), Some(vec![0, 1]));
    let kinds = |ctx: u64| -> Vec<String> {
        let head = format!("{{\"ctx\": {ctx}, ");
        out.lines()
            .filter(|l| l.starts_with(&head))
            .filter_map(|l| l.split("\"kind\": \"").nth(1)?.split('"').next())
            .map(str::to_string)
            .collect()
    };
    assert_eq!(kinds(1), ["job_panicked", "job_quarantined"], "{out}");
    assert_eq!(
        kinds(2),
        ["job_retry", "job_quarantined"],
        "job 1's entries are under ctx 2:\n{out}"
    );
}
