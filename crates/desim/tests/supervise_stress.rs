//! Stress test of the supervisor's quarantine verdicts.
//!
//! `par_map_supervised` used to wake its owner before the worker (or the
//! watchdog) had listed the quarantined job, so about every other run came
//! back with the right results and an empty quarantine list. The verdict now
//! travels with the slot transition; these loops make any reopening of that
//! window show up in one test run instead of one CI run in two.
//!
//! The worker count comes from `SIM_THREADS` (CI runs this file in release
//! at 1 and 4); unset, it is the machine's parallelism.

use desim::supervise::{par_map_supervised, SupervisePolicy, SupervisedError};

const ROUNDS: usize = 200;

#[derive(Debug, PartialEq)]
enum Verdict {
    Panicked(usize, String),
    Timeout(usize, f64),
}

impl SupervisedError for Verdict {
    fn job_panicked(job_index: usize, payload: String) -> Self {
        Verdict::Panicked(job_index, payload)
    }
    fn job_timeout(job_index: usize, deadline_s: f64) -> Self {
        Verdict::Timeout(job_index, deadline_s)
    }
}

#[test]
fn a_panicking_job_is_quarantined_every_time() {
    for round in 0..ROUNDS {
        let report = par_map_supervised(
            (0..8u64).collect(),
            SupervisePolicy::default(),
            |_: &Verdict| false,
            |i| {
                if i == 5 {
                    panic!("poisoned spec {i}");
                }
                Ok(i + 1)
            },
        );
        for (idx, r) in report.results.iter().enumerate() {
            if idx == 5 {
                let want = Verdict::Panicked(5, "poisoned spec 5".to_string());
                assert_eq!(r, &Err(want), "round {round}");
            } else {
                assert_eq!(r, &Ok(idx as u64 + 1), "round {round}");
            }
        }
        assert_eq!(report.quarantined, vec![5], "round {round}");
    }
}

#[test]
fn a_hung_job_is_quarantined_every_time() {
    // The deadline only has to outlast a descheduled batchmate; the hung job
    // never returns (its thread is abandoned, parked, until process exit).
    let deadline_s = 0.05;
    for round in 0..ROUNDS {
        let report = par_map_supervised(
            (0..6u64).collect(),
            SupervisePolicy {
                deadline_s: Some(deadline_s),
                max_attempts: 1,
            },
            |_: &Verdict| false,
            |i| {
                if i == 2 {
                    loop {
                        std::thread::park();
                    }
                }
                Ok(i)
            },
        );
        for (idx, r) in report.results.iter().enumerate() {
            if idx == 2 {
                assert_eq!(r, &Err(Verdict::Timeout(2, deadline_s)), "round {round}");
            } else {
                assert_eq!(r, &Ok(idx as u64), "round {round}");
            }
        }
        assert_eq!(report.quarantined, vec![2], "round {round}");
    }
}
