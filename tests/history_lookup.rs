//! `fluid::History` lookups under TIMELY's state-dependent delays.
//!
//! TIMELY reads the queue at `t − τ′` and, per flow, at `t − τ′ − τ*_i`
//! (Eq 22/24): near and far lookups alternate, and with every flow started
//! at a distinct rate (K = N classes, nothing to reduce) each far delay is
//! different. This is the traffic that made every lookup a binary search
//! over the ≈ 10 000 live knots before `History::locate` computed its index
//! from the step grid.
//!
//! Each run here is checked three ways. Its trace must hash to the digest
//! the *search-only* `locate` produced (recorded at 1b9fad2, the commit
//! before the grid lookup) — the bracketing knot pair is unique, so the new
//! lookup may not move one bit. Under `cargo test` every `locate` is also
//! compared with the search by a debug assertion. And the run's own counters
//! must show the lookups took the O(1) path.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ecn_delay::fluid::Trace;
use ecn_delay::models::{PatchedTimelyFluid, PatchedTimelyParams, TimelyFluid, TimelyParams};

const FLOWS: usize = 8;
/// Longer than the ≈ 10 ms history horizon: the front is trimmed and the
/// buffers compacted during the run.
const DURATION_S: f64 = 0.015;

/// FNV-1a over every recorded knot: the bits of `t`, then of the state row.
fn trace_digest(tr: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, &t) in tr.times().iter().enumerate() {
        eat(t);
        tr.state(i).iter().copied().for_each(&mut eat);
    }
    h
}

/// A distinct start rate per flow, summing to about the link capacity.
fn distinct_rates(capacity_pps: f64) -> Vec<f64> {
    let share = capacity_pps / FLOWS as f64;
    (0..FLOWS)
        .map(|i| share * (0.5 + i as f64 / FLOWS as f64))
        .collect()
}

/// The `obs` counters are process-global; the tests of this file take turns.
fn metrics_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `simulate` with the metrics on and check the trace and the traffic.
fn check_run(pinned_digest: u64, simulate: impl FnOnce() -> Trace) {
    let _turn = metrics_turn();
    obs::reset();
    obs::enable(obs::METRICS);
    let trace = simulate();
    obs::disable(obs::METRICS);
    let steps = obs::metrics::counter_value("fluid.dde_steps");
    let lookups = obs::metrics::counter_value("fluid.history_lookups");
    let fallbacks = obs::metrics::counter_value("fluid.history_lookup_fallbacks");
    obs::reset();

    assert_eq!(trace.dim(), 1 + 2 * FLOWS, "K = N: nothing was reduced");
    let digest = trace_digest(&trace);
    assert_eq!(
        digest, pinned_digest,
        "trace moved off the search-only run: digest {digest:#018x}"
    );
    // Four RK4 stages, each reading the queue once near and once per flow
    // far; the first lookups of a run fall in the pre-history and never
    // reach `locate`.
    let per_step = 4 * (1 + FLOWS as u64);
    assert!(
        lookups > steps * per_step * 9 / 10 && lookups <= steps * (per_step + 1),
        "{lookups} lookups over {steps} steps"
    );
    assert_eq!(
        fallbacks, 0,
        "a `t += h` grid is looked up without a search"
    );
}

#[test]
fn timely_distinct_flows_match_the_search_only_run() {
    let params = TimelyParams::default_10g();
    let rates = distinct_rates(params.capacity_pps());
    check_run(0x39d4_d929_88c2_31c7, || {
        TimelyFluid::new(params, FLOWS).simulate_with_rates(&rates, DURATION_S)
    });
}

#[test]
fn patched_timely_distinct_flows_match_the_search_only_run() {
    let params = PatchedTimelyParams::default_10g();
    let rates = distinct_rates(params.base.capacity_pps());
    check_run(0x659b_8bd0_ab2f_ef0c, || {
        PatchedTimelyFluid::new(params, FLOWS).simulate_with_rates(&rates, DURATION_S)
    });
}
