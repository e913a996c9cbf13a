//! Deterministic fork-join parallelism for embarrassingly-parallel sweeps.
//!
//! Every headline result of the paper is a sweep — phase margins over
//! `delay × N`, DDE integrations over flow counts, FCT scans over load — and
//! every sweep point is independent. [`par_map`] runs such a job list over a
//! scoped-thread pool and returns the results **in input order**, so the
//! output of a sweep is byte-identical regardless of the worker count or OS
//! scheduling. This is the *only* place in the simulation workspace allowed
//! to touch `std::thread` (enforced by the `std::thread::{spawn, scope}` ban
//! of `clippy.toml`):
//! replicas stay reproducible because
//!
//! * job *i*'s result always lands in slot *i* — thread interleaving decides
//!   only wall-clock, never output order;
//! * workers share nothing but the job list — per-job state (RNG seeds,
//!   model instances) is constructed inside the job from its input;
//! * the worker count is data-independent: `SIM_THREADS` (or
//!   [`with_threads`]) pins it, otherwise `available_parallelism()` is used.
//!
//! The determinism tests compare a [`with_threads`]`(1, …)` run against a
//! multi-threaded one; `crates/bench/tests/smoke.rs` does the same for whole
//! binaries through `SIM_THREADS`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Scoped worker-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with the worker count pinned to `n` on this thread (nested
/// [`par_map`] calls included). Used by determinism tests to compare
/// `SIM_THREADS=1` against multi-threaded execution without mutating
/// process-global environment from concurrently-running tests.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let out = f();
    THREAD_OVERRIDE.with(|c| c.set(prev));
    out
}

/// The worker count [`par_map`] will use: a [`with_threads`] override if one
/// is active, else `SIM_THREADS` from the environment, else
/// `available_parallelism()`. Always at least 1.
fn worker_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Ok(v) = std::env::var("SIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `worker` over `jobs` on a scoped fork-join pool; results are returned
/// in input order. With one worker (or one job) no threads are spawned and
/// the jobs run inline on the caller, so `SIM_THREADS=1` is *exactly* the
/// serial program.
///
/// ```
/// let squares = desim::par::par_map((0u64..8).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map<I, O, F>(jobs: Vec<I>, worker: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n_jobs = jobs.len();
    let threads = worker_count().min(n_jobs);
    // Each job records under an `obs` context derived from its *input index*
    // (never from the worker thread) and starts with no flight cause, so
    // every ctx-keyed export is byte-identical across worker counts —
    // including this inline path — and causal chains never cross jobs.
    let obs_parent = obs::current_context();
    let run = |idx: usize, job: I| {
        obs::in_context(obs::child_context(obs_parent, idx as u64), || worker(job))
    };
    if threads <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(idx, job)| run(idx, job))
            .collect();
    }

    // Shared single-consumer job slots + ordered result slots. Each slot's
    // mutex is taken exactly once per side, so contention is limited to the
    // shared `next` counter; result placement by input index is what makes
    // the output independent of scheduling.
    let job_slots: Vec<Mutex<Option<I>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_slots: Vec<Mutex<Option<O>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    #[expect(
        clippy::disallowed_methods,
        reason = "desim::par is the sanctioned executor"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n_jobs {
                    break;
                }
                let job = job_slots[idx]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take();
                #[expect(
                    clippy::expect_used,
                    reason = "slot idx is claimed exactly once via the counter"
                )]
                let job = job.expect("job slot claimed twice");
                let out = run(idx, job);
                *result_slots[idx]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
            });
        }
    });

    result_slots
        .into_iter()
        .map(|slot| {
            #[expect(
                clippy::expect_used,
                reason = "scope() propagates worker panics; every slot is filled"
            )]
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("scope joined with an unfilled result slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        // Jobs finish out of order (reverse workloads); results must not.
        let jobs: Vec<u64> = (0..64).collect();
        let out = with_threads(8, || {
            par_map(jobs, |i| {
                // Busy-work inversely proportional to index.
                let mut acc = i;
                for _ in 0..(64 - i) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            })
        });
        for (idx, &(i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, i);
        }
    }

    #[test]
    fn thread_counts_agree() {
        let jobs: Vec<u64> = (0..33).collect();
        let serial = with_threads(1, || par_map(jobs.clone(), |i| i * i + 1));
        let par4 = with_threads(4, || par_map(jobs.clone(), |i| i * i + 1));
        let par16 = with_threads(16, || par_map(jobs, |i| i * i + 1));
        assert_eq!(serial, par4);
        assert_eq!(serial, par16);
    }

    #[test]
    fn empty_and_single_job() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(empty, |i: u64| i).is_empty());
        assert_eq!(with_threads(8, || par_map(vec![7u64], |i| i + 1)), vec![8]);
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(worker_count(), 3);
            with_threads(5, || assert_eq!(worker_count(), 5));
            assert_eq!(worker_count(), 3);
        });
    }

    #[test]
    fn override_floor_is_one() {
        with_threads(0, || assert_eq!(worker_count(), 1));
    }

    #[test]
    fn non_send_sync_free_worker_with_captures() {
        let offset = 100u64;
        let out = with_threads(4, || par_map((0..10).collect(), |i: u64| i + offset));
        assert_eq!(out[9], 109);
    }

    #[test]
    fn fallible_sweep_survives_failed_points() {
        // A worker may return a `Result`: every job runs to a verdict — a
        // failed point never cancels the rest of the sweep — and the
        // verdicts come back in input order.
        let jobs: Vec<u64> = (0..32).collect();
        let results = with_threads(4, || {
            par_map(jobs, |i| {
                if i % 7 == 3 {
                    Err(format!("point {i} diverged"))
                } else {
                    Ok(i * 2)
                }
            })
        });
        assert_eq!(results.len(), 32, "every job produced a result");
        for (i, r) in results.iter().enumerate() {
            let expect = if i % 7 == 3 {
                Err(format!("point {i} diverged"))
            } else {
                Ok(i as u64 * 2)
            };
            assert_eq!(*r, expect);
        }
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 5); // 3, 10, 17, 24, 31
    }
}
