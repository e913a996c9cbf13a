//! `--obs <dir>` support shared by every figure ([`crate::cli`] parses the
//! flag and creates the directory).
//!
//! The flag is **off by default** — a figure run without it never enables
//! the `obs` layer, so the hot paths pay only the disabled-check load. With
//! `--obs <dir>` all four instruments record and [`ObsCli::finish`] writes
//! them into `<dir>`, each file byte-identical across `SIM_THREADS`
//! settings:
//!
//! * `trace.jsonl` — the sim-time events captured during the run, sorted by
//!   `(ctx, seq)`;
//! * `metrics.json` — the name-sorted counter snapshot,
//!   `{"counters": {…}}`;
//! * `timeseries.jsonl` — the windowed series and streaming
//!   log-histograms (`kind: series | win | hist` lines, ordered by
//!   `(name, key, ctx)` — render or diff them with `simreport`);
//! * `flight.jsonl` — the causal flight recorder's bounded ring of
//!   schedule/dispatch entries with scheduled-by back-pointers. The path is
//!   armed from the start: on a `SimError` (e.g. a divergence watchdog
//!   trip) the ring is dumped there at once, headed by a
//!   `{"kind": "flight_dump", "reason": ...}` line, and `finish` rewrites
//!   it from the final ring, headed by the first error in context order or
//!   `clean exit`.
//!
//! `figs --all --obs <dir>` hands every child figure `--obs <dir>/<id>`.

use std::path::PathBuf;

/// Every instrument `--obs` switches on.
const CAPS: u8 = obs::TRACE | obs::METRICS | obs::SERIES | obs::FLIGHT;

/// The directory a run records into, if any.
pub struct ObsCli {
    dir: Option<PathBuf>,
}

/// Switch on every `obs` instrument when `--obs` was given, on a fresh
/// recorder so the output reflects exactly this run.
pub fn init(args: &crate::cli::Args) -> ObsCli {
    let cli = ObsCli {
        dir: args.obs.clone(),
    };
    obs::reset();
    if let Some(dir) = &cli.dir {
        obs::enable(CAPS);
        // Arm dump-on-error immediately: if the process dies after a
        // SimError the black box lands in the directory even though
        // `finish` (which rewrites it) never runs.
        obs::flight::set_dump_path(dir.join("flight.jsonl"));
    }
    cli
}

impl ObsCli {
    /// True when `--obs` was given (instrumentation is recording).
    pub fn active(&self) -> bool {
        self.dir.is_some()
    }

    /// Stop recording and write the four files, each whole
    /// (`store::write_atomic`).
    pub fn finish(self) {
        let Some(dir) = &self.dir else {
            return;
        };
        obs::disable(CAPS);
        let write = |name: &str, text: String, note: &str| {
            let path = dir.join(name);
            store::write_atomic(&path, text.as_bytes())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            let lines = text.lines().count();
            println!("obs -> {} ({lines} lines{note})", path.display());
        };
        let dropped = match obs::trace::dropped_events() {
            0 => String::new(),
            n => format!(", {n} dropped by ring wrap"),
        };
        write("trace.jsonl", obs::trace::export_jsonl(), &dropped);
        write("metrics.json", obs::metrics::snapshot_json(), "");
        write("timeseries.jsonl", obs::timeseries::export_jsonl(), "");
        // Rewrite whatever an error site dumped mid-run: the final ring,
        // headed by the first error in context order, is the same bytes on
        // every worker count.
        let reason = obs::flight::last_dump_reason();
        let reason = format!(", {}", reason.as_deref().unwrap_or("clean exit"));
        write("flight.jsonl", obs::flight::dump_jsonl(), &reason);
    }
}
