//! `--trace` / `--metrics` / `--timeseries` / `--flight` support shared by
//! every figure ([`crate::cli`] parses the flags).
//!
//! All flags are **off by default** — a figure run without them never
//! enables the `obs` layer, so the hot paths pay only the disabled-check
//! load. With `--trace`, sim-time events captured during the run are written
//! as JSONL (sorted by `(ctx, seq)`; byte-identical across `SIM_THREADS`
//! settings). With `--metrics`, the deterministic name-sorted counter
//! snapshot is written as JSON (`{"counters": {…}}`). With `--timeseries`, the
//! windowed series and streaming log-histograms are written as JSONL
//! (`kind: series | win | hist` lines, ordered by `(name, key, ctx)` —
//! render or diff them with `simreport`). With `--flight <path>`, the
//! causal flight recorder is armed: the bounded ring records
//! schedule/dispatch/cancel entries with scheduled-by back-pointers, and on
//! a `SimError` (e.g. a divergence watchdog trip) the ring is dumped to
//! `path` as JSONL, headed by a `{"kind": "flight_dump", "reason": ...}`
//! line. On a clean run `finish` writes the same dump so the recorder is
//! inspectable without a failure.
//!
//! `figs --all` interprets `--trace`/`--metrics` as *directories* and fans
//! them out per child figure (`<dir>/<fig>_trace.jsonl`,
//! `<dir>/<fig>_metrics.json`).

use std::path::PathBuf;

/// The observability artifacts a run was asked for.
pub struct ObsCli {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    timeseries_path: Option<PathBuf>,
    flight_path: Option<PathBuf>,
}

/// Switch on the `obs` instruments the parsed flags ask for, on a fresh
/// recorder so the output reflects exactly this run.
pub fn init(args: &crate::cli::Args) -> ObsCli {
    let cli = ObsCli {
        trace_path: args.trace.clone(),
        metrics_path: args.metrics.clone(),
        timeseries_path: args.timeseries.clone(),
        flight_path: args.flight.clone(),
    };
    obs::reset();
    obs::enable(cli.caps());
    if let Some(p) = &cli.flight_path {
        // Arm dump-on-error immediately: if the run dies with a SimError the
        // black box lands at the requested path even though `finish` (which
        // also writes it on clean exit) never runs.
        obs::flight::set_dump_path(p.clone());
    }
    cli
}

impl ObsCli {
    /// The capability bits of the instruments this run records.
    fn caps(&self) -> u8 {
        [
            (obs::TRACE, &self.trace_path),
            (obs::METRICS, &self.metrics_path),
            (obs::SERIES, &self.timeseries_path),
            (obs::FLIGHT, &self.flight_path),
        ]
        .into_iter()
        .filter(|(_, path)| path.is_some())
        .fold(0, |caps, (cap, _)| caps | cap)
    }

    /// True when any flag was given (instrumentation is recording).
    pub fn active(&self) -> bool {
        self.caps() != 0
    }

    /// Stop recording and write the requested artifacts.
    pub fn finish(self) {
        obs::disable(self.caps());
        if let Some(p) = &self.trace_path {
            let jsonl = obs::trace::export_jsonl();
            std::fs::write(p, &jsonl).unwrap_or_else(|e| panic!("write {}: {e}", p.display()));
            let dropped = obs::trace::dropped_events();
            println!(
                "trace -> {} ({} events{})",
                p.display(),
                jsonl.lines().count(),
                if dropped > 0 {
                    format!(", {dropped} dropped by ring wrap")
                } else {
                    String::new()
                }
            );
        }
        if let Some(p) = &self.metrics_path {
            std::fs::write(p, obs::metrics::snapshot_json())
                .unwrap_or_else(|e| panic!("write {}: {e}", p.display()));
            println!("metrics -> {}", p.display());
        }
        if let Some(p) = &self.timeseries_path {
            let jsonl = obs::timeseries::export_jsonl();
            std::fs::write(p, &jsonl).unwrap_or_else(|e| panic!("write {}: {e}", p.display()));
            println!(
                "timeseries -> {} ({} lines)",
                p.display(),
                jsonl.lines().count()
            );
        }
        if let Some(p) = &self.flight_path {
            // A SimError mid-run already dumped a post-mortem to this path;
            // never overwrite that with an end-of-run snapshot.
            if let Some(reason) = obs::flight::last_dump_reason() {
                println!("flight -> {} (post-mortem dump: {reason})", p.display());
            } else {
                let jsonl = format!(
                    "{{\"kind\": \"flight_dump\", \"reason\": \"clean exit\"}}\n{}",
                    obs::flight::export_jsonl()
                );
                std::fs::write(p, &jsonl).unwrap_or_else(|e| panic!("write {}: {e}", p.display()));
                println!(
                    "flight -> {} ({} lines)",
                    p.display(),
                    jsonl.lines().count()
                );
            }
        }
    }

    /// For analysis-only figures (frequency-domain sweeps that never touch
    /// the packet engine): when instrumentation is on, additionally run a
    /// short fully-instrumented packet-level DCQCN scenario at the paper's
    /// validation operating point (10 long-lived flows through one switch),
    /// so the trace/metrics show the ECN-mark / CNP / rate-update cadence
    /// the frequency-domain analysis summarizes. A no-op when neither flag
    /// was given.
    pub fn dcqcn_companion_run(&self) {
        if !self.active() {
            return;
        }
        use ecn_delay_core::scenarios::{single_switch_longlived, Protocol};
        let (mut eng, _bottleneck) = single_switch_longlived(
            Protocol::Dcqcn,
            10,
            10e9,
            desim::SimDuration::from_micros(20),
            netsim::EngineConfig::default(),
        );
        let _ = eng.run(desim::SimTime::from_millis(4));
        println!("instrumented DCQCN companion run: 10 flows, 10 Gbps, 4 ms");
    }
}
