//! Supervised fork-join execution: panic isolation, deadlines, retries.
//!
//! [`crate::par::par_map`] over a worker that returns a `Result` gives
//! sweeps graceful degradation for *typed* failures — a divergent point
//! comes back as `Err` in its slot —
//! but two failure modes still take down the whole run: a panicking job
//! aborts the process, and a hung job stalls the pool forever. This module
//! is the hardened executor for sweeps that must survive both:
//!
//! * **Panic isolation** — each job runs under `catch_unwind`; a panic
//!   becomes `E::job_panicked(index, payload message)` in that job's slot
//!   while its batchmates keep running.
//! * **Deadlines** — with [`SupervisePolicy::deadline_s`] set, a watchdog
//!   thread fills an overdue slot with `E::job_timeout(index, deadline)`
//!   and spawns a replacement worker. Std threads cannot be killed, so the
//!   hung thread is *abandoned*: it keeps its OS thread until process exit
//!   and its late result (if any) is discarded. The deadline carried in
//!   the error is the *configured* value, never a wall-clock measurement —
//!   supervision may read the clock to act, but nothing clock-derived
//!   enters a result payload (the `determinism-taint` contract).
//! * **Bounded deterministic retries** — an `Err` the caller marks
//!   retryable is re-run immediately on the same worker, up to
//!   [`SupervisePolicy::max_attempts`] total attempts; the retry sequence
//!   depends only on the job, never on scheduling.
//! * **Quarantine** — jobs that exhaust every attempt (or panic, or time
//!   out) are listed in [`SuperviseReport::quarantined`] so sweep drivers
//!   can record the poisoned specs durably.
//!
//! Ordered result slots are preserved: job *i*'s outcome lands in slot *i*
//! regardless of worker count, so successful-slot bytes are identical
//! across `SIM_THREADS` exactly as with [`crate::par::par_map`]. Errors in
//! `desim` stay type-generic ([`SupervisedError`]) because the workspace
//! error type lives *above* this crate (`faults::SimError` implements the
//! trait); the executor only needs to construct the two supervision
//! verdicts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Errors an executor can construct for supervision verdicts. Implemented
/// by `faults::SimError` (variants `JobPanicked` / `Timeout`).
pub trait SupervisedError: Sized {
    /// The job at `job_index` panicked; `payload` is the panic message.
    fn job_panicked(job_index: usize, payload: String) -> Self;
    /// The job at `job_index` exceeded the per-job deadline and was
    /// abandoned. `deadline_s` is the configured deadline, not a
    /// measurement.
    fn job_timeout(job_index: usize, deadline_s: f64) -> Self;
}

/// Supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisePolicy {
    /// Per-job wall-clock deadline in seconds; `None` disables the
    /// watchdog (jobs may then hang the pool, exactly like `par_map`).
    pub deadline_s: Option<f64>,
    /// Total attempts per job (1 = no retries). Only errors the caller's
    /// `retryable` predicate accepts are retried; panics and timeouts
    /// never are.
    pub max_attempts: u32,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            deadline_s: None,
            max_attempts: 1,
        }
    }
}

/// Outcome of a supervised sweep.
#[derive(Debug)]
pub struct SuperviseReport<O, E> {
    /// Per-job outcomes in input order, every slot filled.
    pub results: Vec<Result<O, E>>,
    /// Input indices that exhausted supervision (panicked, timed out, or
    /// failed every permitted attempt), ascending.
    pub quarantined: Vec<usize>,
}

enum Slot<O, E> {
    Pending,
    Done(Result<O, E>),
}

/// Whether a slot's final verdict quarantines its job, and why.
#[derive(Clone, Copy)]
enum Quarantine {
    No,
    /// Panicked, or failed every permitted attempt.
    Exhausted,
    /// Abandoned by the watchdog.
    TimedOut,
}

/// What the pool owner waits on. The quarantine list lives under the same
/// lock as the filled-slot count, so a verdict is on the list before the
/// count that releases the owner includes its slot.
#[derive(Default)]
struct Progress {
    filled: usize,
    quarantined: Vec<usize>,
}

struct Shared<I, O, E> {
    jobs: Vec<Mutex<Option<I>>>,
    slots: Vec<Mutex<Slot<O, E>>>,
    /// `Some(start)` while an attempt for the slot is on a worker.
    started: Vec<Mutex<Option<Instant>>>,
    next: AtomicUsize,
    progress: Mutex<Progress>,
    progress_cv: Condvar,
    stop_watchdog: AtomicBool,
    policy: SupervisePolicy,
    /// The caller's `obs` context; job `i` records under its child `i`.
    obs_parent: u64,
}

/// Render a panic payload as the human-readable message `panic!` carried.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Map a fallible `worker` over `jobs` under supervision (see module docs).
/// Results come back in input order with every slot filled; successful
/// slots are byte-identical across `SIM_THREADS` settings.
///
/// `retryable` classifies worker errors: `true` means "transient, worth
/// re-running" (retried up to `policy.max_attempts` total attempts).
/// Deterministic simulation errors should return `false` — a deterministic
/// job fails identically every time.
pub fn par_map_supervised<I, O, E, F, R>(
    jobs: Vec<I>,
    policy: SupervisePolicy,
    retryable: R,
    worker: F,
) -> SuperviseReport<O, E>
where
    I: Clone + Send + 'static,
    O: Send + 'static,
    E: SupervisedError + Send + 'static,
    F: Fn(I) -> Result<O, E> + Send + Sync + 'static,
    R: Fn(&E) -> bool + Send + Sync + 'static,
{
    let n_jobs = jobs.len();
    if n_jobs == 0 {
        return SuperviseReport {
            results: Vec::new(),
            quarantined: Vec::new(),
        };
    }
    let shared = Arc::new(Shared {
        jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
        slots: (0..n_jobs).map(|_| Mutex::new(Slot::Pending)).collect(),
        started: (0..n_jobs).map(|_| Mutex::new(None)).collect(),
        next: AtomicUsize::new(0),
        progress: Mutex::new(Progress::default()),
        progress_cv: Condvar::new(),
        stop_watchdog: AtomicBool::new(false),
        policy,
        obs_parent: obs::current_context(),
    });
    let worker = Arc::new(worker);
    let retryable = Arc::new(retryable);

    // Detached workers (not scoped): a hung job must not be able to block
    // the join, so the pool owner waits on a completion count instead.
    let threads = crate::par::worker_count().min(n_jobs).max(1);
    for _ in 0..threads {
        spawn_worker(shared.clone(), worker.clone(), retryable.clone());
    }
    if policy.deadline_s.is_some() {
        spawn_watchdog(shared.clone(), worker.clone(), retryable.clone());
    }

    // Wait until every slot is filled (by a worker or the watchdog).
    let mut quarantined = {
        let mut progress = lock_ignore_poison(&shared.progress);
        while progress.filled < n_jobs {
            progress = shared
                .progress_cv
                .wait(progress)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        std::mem::take(&mut progress.quarantined)
    };
    shared.stop_watchdog.store(true, Ordering::Relaxed);

    let mut results = Vec::with_capacity(n_jobs);
    for slot in &shared.slots {
        let mut guard = lock_ignore_poison(slot);
        match std::mem::replace(&mut *guard, Slot::Pending) {
            Slot::Done(r) => results.push(r),
            // Unreachable: the filled count equals n_jobs only after every
            // slot transitioned to Done.
            Slot::Pending => results.push(Err(E::job_panicked(
                results.len(),
                "internal: unfilled supervised slot".to_string(),
            ))),
        }
    }
    // Each slot fills once, so an index is listed at most once.
    quarantined.sort_unstable();
    SuperviseReport {
        results,
        quarantined,
    }
}

/// Commit `result` into `slot idx` unless the watchdog already filled it
/// (late result of an abandoned attempt: discarded). Returns true if the
/// commit landed. The quarantine verdict travels with the result: it is on
/// the flight recorder and the quarantine list before the filled count —
/// one lock, one wake — can release the owner.
fn commit<I, O, E>(
    shared: &Shared<I, O, E>,
    idx: usize,
    result: Result<O, E>,
    quarantine: Quarantine,
) -> bool {
    {
        let mut slot = lock_ignore_poison(&shared.slots[idx]);
        match *slot {
            Slot::Pending => *slot = Slot::Done(result),
            Slot::Done(_) => return false,
        }
    }
    let quarantined = !matches!(quarantine, Quarantine::No);
    if matches!(quarantine, Quarantine::TimedOut) {
        note(shared, idx, "job_timeout");
    }
    if quarantined {
        note(shared, idx, "job_quarantined");
    }
    let mut progress = lock_ignore_poison(&shared.progress);
    if quarantined {
        progress.quarantined.push(idx);
    }
    progress.filled += 1;
    shared.progress_cv.notify_all();
    true
}

/// Record a supervision verdict on the flight recorder under job `idx`'s own
/// context, whichever thread (worker or watchdog) reaches it.
fn note<I, O, E>(shared: &Shared<I, O, E>, idx: usize, kind: &'static str) {
    if obs::flight::enabled() {
        obs::in_context(obs::child_context(shared.obs_parent, idx as u64), || {
            obs::flight::record(0.0, kind, idx as f64, None)
        });
    }
}

fn spawn_worker<I, O, E, F, R>(shared: Arc<Shared<I, O, E>>, worker: Arc<F>, retryable: Arc<R>)
where
    I: Clone + Send + 'static,
    O: Send + 'static,
    E: SupervisedError + Send + 'static,
    F: Fn(I) -> Result<O, E> + Send + Sync + 'static,
    R: Fn(&E) -> bool + Send + Sync + 'static,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "the supervisor owns its pool: an overdue worker is abandoned, which a scoped join cannot do"
    )]
    std::thread::spawn(move || {
        let n_jobs = shared.jobs.len();
        loop {
            let idx = shared.next.fetch_add(1, Ordering::Relaxed);
            if idx >= n_jobs {
                break;
            }
            let Some(input) = lock_ignore_poison(&shared.jobs[idx]).take() else {
                continue; // claimed by a pre-timeout attempt; nothing to do
            };
            run_job(&shared, idx, input, worker.as_ref(), retryable.as_ref());
        }
    });
}

/// Run one job to a final verdict (attempt loop + panic isolation) and
/// commit it.
#[expect(
    clippy::disallowed_methods,
    reason = "deadline supervision must read real time to detect a hang; the reading arms the watchdog and never enters a result"
)]
fn run_job<I, O, E, F, R>(shared: &Shared<I, O, E>, idx: usize, input: I, worker: &F, retryable: &R)
where
    I: Clone,
    E: SupervisedError,
    F: Fn(I) -> Result<O, E>,
    R: Fn(&E) -> bool,
{
    let max_attempts = shared.policy.max_attempts.max(1);
    let ctx = obs::child_context(shared.obs_parent, idx as u64);
    let mut attempt = 0u32;
    let (final_result, exhausted) = loop {
        attempt += 1;
        // simlint: allow(determinism-taint) — supervision bookkeeping, not sim state: the start mark only arms the watchdog, and no clock reading ever enters a result (timeouts carry the configured deadline)
        *lock_ignore_poison(&shared.started[idx]) = Some(Instant::now());
        // Each attempt runs under the job's per-index obs context with a
        // clean cause, as in `par_map`; `in_context` restores the worker's
        // own context from a drop guard, so a panic unwinding out to
        // `catch_unwind` leaves nothing behind on this thread.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            obs::in_context(ctx, || worker(input.clone()))
        }));
        *lock_ignore_poison(&shared.started[idx]) = None;
        match caught {
            Ok(Ok(v)) => break (Ok(v), false),
            Ok(Err(e)) => {
                if attempt < max_attempts && retryable(&e) {
                    note(shared, idx, "job_retry");
                    continue;
                }
                // Exhausted = the policy permitted retries and this error
                // class used them all up, or the job is poison (panic and
                // timeout verdicts are always quarantined elsewhere).
                break (Err(e), attempt >= max_attempts && max_attempts > 1);
            }
            Err(payload) => {
                note(shared, idx, "job_panicked");
                break (Err(E::job_panicked(idx, panic_message(payload))), true);
            }
        }
    };
    let quarantine = if final_result.is_err() && exhausted {
        Quarantine::Exhausted
    } else {
        Quarantine::No
    };
    commit(shared, idx, final_result, quarantine);
}

fn spawn_watchdog<I, O, E, F, R>(shared: Arc<Shared<I, O, E>>, worker: Arc<F>, retryable: Arc<R>)
where
    I: Clone + Send + 'static,
    O: Send + 'static,
    E: SupervisedError + Send + 'static,
    F: Fn(I) -> Result<O, E> + Send + Sync + 'static,
    R: Fn(&E) -> bool + Send + Sync + 'static,
{
    // Unwrap-free clamp: policy.deadline_s is Some by the caller's check.
    let deadline_s = shared.policy.deadline_s.unwrap_or(f64::INFINITY);
    let poll = Duration::from_secs_f64((deadline_s / 8.0).clamp(0.005, 0.2));
    #[expect(
        clippy::disallowed_methods,
        reason = "the watchdog outlives any one job; it stops on stop_watchdog"
    )]
    std::thread::spawn(move || loop {
        if shared.stop_watchdog.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(poll);
        for idx in 0..shared.slots.len() {
            let overdue = {
                let started = lock_ignore_poison(&shared.started[idx]);
                started.is_some_and(|t0| t0.elapsed().as_secs_f64() > deadline_s)
            };
            if !overdue {
                continue;
            }
            // Abandon the attempt: clear the start mark so this slot never
            // re-fires, then fill the slot with the timeout verdict. The
            // hung worker thread is leaked by design (std threads cannot
            // be killed); its claim loop is replaced so the rest of the
            // queue still drains.
            *lock_ignore_poison(&shared.started[idx]) = None;
            let verdict = E::job_timeout(idx, deadline_s);
            if commit(shared.as_ref(), idx, Err(verdict), Quarantine::TimedOut) {
                spawn_worker(shared.clone(), worker.clone(), retryable.clone());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    /// Minimal trait impl for tests; the workspace impl is
    /// `faults::SimError`.
    #[derive(Debug, Clone, PartialEq)]
    enum TestErr {
        Typed(String),
        Panicked(usize, String),
        Timeout(usize, f64),
    }

    impl SupervisedError for TestErr {
        fn job_panicked(job_index: usize, payload: String) -> Self {
            TestErr::Panicked(job_index, payload)
        }
        fn job_timeout(job_index: usize, deadline_s: f64) -> Self {
            TestErr::Timeout(job_index, deadline_s)
        }
    }

    fn no_retry(_: &TestErr) -> bool {
        false
    }

    #[test]
    fn ordered_slots_and_identity_across_thread_counts() {
        let run = |threads: usize| {
            with_threads(threads, || {
                par_map_supervised(
                    (0..24u64).collect(),
                    SupervisePolicy::default(),
                    no_retry,
                    |i| {
                        if i % 7 == 3 {
                            Err(TestErr::Typed(format!("point {i}")))
                        } else {
                            Ok(i * i)
                        }
                    },
                )
            })
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.results, par.results);
        assert_eq!(serial.results.len(), 24);
        assert_eq!(serial.results[4], Ok(16));
        assert_eq!(serial.results[3], Err(TestErr::Typed("point 3".into())));
        assert!(serial.quarantined.is_empty(), "no retries ⇒ no quarantine");
    }

    #[test]
    fn panic_lands_in_its_slot_while_batchmates_complete() {
        let report = with_threads(4, || {
            par_map_supervised(
                (0..8u64).collect(),
                SupervisePolicy::default(),
                no_retry,
                |i| {
                    if i == 5 {
                        panic!("poisoned spec {i}");
                    }
                    Ok::<_, TestErr>(i + 1)
                },
            )
        });
        assert_eq!(report.results.len(), 8);
        for (idx, r) in report.results.iter().enumerate() {
            if idx == 5 {
                assert_eq!(r, &Err(TestErr::Panicked(5, "poisoned spec 5".to_string())));
            } else {
                assert_eq!(r, &Ok(idx as u64 + 1));
            }
        }
        assert_eq!(report.quarantined, vec![5]);
    }

    #[test]
    fn hung_job_times_out_without_stalling_the_sweep() {
        let report = with_threads(2, || {
            par_map_supervised(
                (0..6u64).collect(),
                SupervisePolicy {
                    deadline_s: Some(0.2),
                    max_attempts: 1,
                },
                no_retry,
                |i| {
                    if i == 2 {
                        // A genuine hang, not a slow job.
                        loop {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                    Ok::<_, TestErr>(i)
                },
            )
        });
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.results[2], Err(TestErr::Timeout(2, 0.2)));
        for (idx, r) in report.results.iter().enumerate() {
            if idx != 2 {
                assert_eq!(r, &Ok(idx as u64), "batchmates must complete");
            }
        }
        assert_eq!(report.quarantined, vec![2]);
    }

    #[test]
    fn retries_are_bounded_and_only_for_retryable_errors() {
        use std::sync::atomic::AtomicU32;
        let attempts: Arc<Vec<AtomicU32>> = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect());
        let seen = attempts.clone();
        let report = with_threads(2, || {
            par_map_supervised(
                vec![0usize, 1, 2],
                SupervisePolicy {
                    deadline_s: None,
                    max_attempts: 3,
                },
                |e: &TestErr| matches!(e, TestErr::Typed(m) if m.contains("transient")),
                move |i| {
                    seen[i].fetch_add(1, Ordering::Relaxed);
                    match i {
                        0 => Ok(0u64),
                        1 => Err(TestErr::Typed("transient glitch".into())),
                        _ => Err(TestErr::Typed("deterministic failure".into())),
                    }
                },
            )
        });
        assert_eq!(attempts[0].load(Ordering::Relaxed), 1);
        assert_eq!(attempts[1].load(Ordering::Relaxed), 3, "retried to budget");
        assert_eq!(attempts[2].load(Ordering::Relaxed), 1, "not retryable");
        assert!(matches!(report.results[1], Err(TestErr::Typed(_))));
        assert_eq!(report.quarantined, vec![1], "exhausted retries quarantine");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let report = par_map_supervised(
            Vec::<u64>::new(),
            SupervisePolicy::default(),
            no_retry,
            Ok::<_, TestErr>,
        );
        assert!(report.results.is_empty());
        assert!(report.quarantined.is_empty());
    }
}
