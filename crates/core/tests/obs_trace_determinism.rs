//! Observability-trace determinism across worker counts.
//!
//! The obs trace sink is process-global, so this lives in its own
//! integration-test binary: no other test records events while tracing is
//! enabled here. The contract under test: a sweep's event trace (DdeStep /
//! HistoryCompaction records emitted from inside `par_map` jobs) is
//! byte-identical whether the sweep ran serially or on a multi-worker pool,
//! because recording contexts derive from input indices, never threads.

use desim::par::with_threads;
use ecn_delay_core::experiments::fig4;

fn traced_run(threads: usize, cfg: &fig4::Fig4Config) -> String {
    obs::reset();
    obs::enable(obs::TRACE);
    let _ = with_threads(threads, || fig4::run(cfg));
    obs::disable(obs::TRACE);
    let out = obs::trace::export_jsonl();
    obs::reset();
    out
}

#[test]
fn fig4_obs_trace_byte_identical_across_thread_counts() {
    // fig4 integrates full DDE trajectories per sweep point, so the trace
    // is non-trivial (integration steps plus history compactions).
    let cfg = fig4::Fig4Config {
        delays_us: vec![85.0],
        flow_counts: vec![2, 10],
        duration_s: 0.02,
    };
    let serial = traced_run(1, &cfg);
    let par4 = traced_run(4, &cfg);
    assert!(
        serial.contains("\"type\": \"DdeStep\""),
        "expected DdeStep events in the fig4 trace"
    );
    // Jobs record under distinct contexts derived from their input index.
    assert!(serial.contains("\"ctx\": 1,"), "missing job context 1");
    assert!(serial.contains("\"ctx\": 2,"), "missing job context 2");
    assert_eq!(serial, par4, "obs trace differs between 1 and 4 workers");
}
