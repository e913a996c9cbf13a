//! Minimal std-only micro-benchmark harness.
//!
//! The container builds offline, so instead of criterion the `[[bench]]`
//! targets (compiled with `harness = false`) use this module: fixed warmup,
//! adaptive iteration count targeting a wall-clock budget per benchmark,
//! and a one-line `min / median / mean` report. Timing benchmarks live
//! outside the simulator crates, so wall-clock reads are allowed here (the
//! simulator itself is forbidden from `Instant::now` by `clippy.toml`).
//!
//! Every [`bench()`] call is also recorded in a process-global registry;
//! [`write_report`] serializes the registry to a machine-readable JSON
//! baseline (`BENCH_fluid.json` / `BENCH_packet.json` / `BENCH_kernel.json`
//! at the repo root). Each record carries the git commit it was measured
//! at, so successive runs build up a per-commit performance history:
//!
//! ```json
//! [
//!   {"name": "...", "min_ns": 1, "mean_ns": 2, "median_ns": 1,
//!    "iters": 100, "sha": "abcdef0"}
//! ]
//! ```

use obs::json::Value;
use std::hint::black_box as std_black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under the name criterion used.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One measured benchmark, as serialized into `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark name as passed to [`bench()`].
    pub name: String,
    /// Fastest iteration (nanoseconds).
    pub min_ns: u128,
    /// Mean over all measured iterations (nanoseconds).
    pub mean_ns: u128,
    /// Median over all measured iterations (nanoseconds).
    pub median_ns: u128,
    /// Number of measured iterations.
    pub iters: usize,
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Run `f` repeatedly and print `name: min / median / mean per iteration`;
/// the measurement is also appended to the in-process registry consumed by
/// [`write_report`], and returned so callers can derive follow-up rows
/// (e.g. an events-per-second rate from the median) via [`record_value`].
///
/// Two warmup calls, then batches until ~0.5 s of measured time or 200
/// iterations, whichever comes first. Honors `BENCH_FAST=1` to skip warmup
/// and run a single measured iteration (used by CI smoke runs).
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Record {
    let fast = std::env::var_os("BENCH_FAST").is_some();
    let (budget, max_iters, warmups) = if fast {
        (Duration::ZERO, 1, 0)
    } else {
        (Duration::from_millis(500), 200, 2)
    };
    for _ in 0..warmups {
        std_black_box(f());
    }
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    while times.is_empty() || (total < budget && times.len() < max_iters) {
        #[expect(clippy::disallowed_methods, reason = "wall time is the measurement")]
        let start = Instant::now();
        std_black_box(f());
        let dt = start.elapsed();
        total += dt;
        times.push(dt);
    }
    times.sort_unstable();
    let min = times.first().copied().unwrap_or_default();
    let median = times[times.len() / 2];
    let mean = total / times.len() as u32;
    println!(
        "{name:<44} min {:>12} med {:>12} mean {:>12} ({} iters)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        times.len()
    );
    let rec = Record {
        name: name.to_string(),
        min_ns: min.as_nanos(),
        mean_ns: mean.as_nanos(),
        median_ns: median.as_nanos(),
        iters: times.len(),
    };
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(rec.clone());
    rec
}

/// Record a derived scalar as a report row: `value` is stored in the
/// `min/mean/median` columns verbatim and `count` in `iters`. Used for
/// rows that are not wall-clock samples — e.g. `netsim/events_per_sec_*`,
/// where the value is a rate computed from a measured run and its event
/// count (see the bench-row schema note in README).
pub fn record_value(name: &str, value: u128, count: usize) {
    println!("{name:<44} value {value} (n = {count})");
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Record {
            name: name.to_string(),
            min_ns: value,
            mean_ns: value,
            median_ns: value,
            iters: count,
        });
}

/// Drain the `obs::span` per-phase wall-clock accumulators into the bench
/// registry as `<prefix>/span:<phase>` rows, so [`write_report`] splices
/// per-phase attribution into the same `BENCH_*.json` schema. For a span
/// row, `min/mean/median` all carry the *average* nanoseconds per span and
/// `iters` the span count (spans are aggregated, not sampled). Call after a
/// bench that ran with `obs::SPANS` on.
pub fn record_spans(prefix: &str) {
    for (phase, count, total_ns) in obs::span::drain() {
        let avg = u128::from(total_ns) / u128::from(count.max(1));
        let rec = Record {
            name: format!("{prefix}/span:{}", phase.name()),
            min_ns: avg,
            mean_ns: avg,
            median_ns: avg,
            iters: count as usize,
        };
        println!(
            "{:<44} avg {:>12} over {} spans (total {})",
            rec.name,
            fmt_ns(Duration::from_nanos(total_ns / count.max(1))),
            count,
            fmt_ns(Duration::from_nanos(total_ns)),
        );
        RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(rec);
    }
}

/// Write every measurement taken so far to `file` (e.g.
/// `"BENCH_fluid.json"`), creating it if absent, and clear the registry.
/// The file is a JSON array of records, one per line. Rows from earlier
/// commits are preserved; an existing row whose `(name, sha)` matches a
/// new measurement is **replaced** rather than duplicated, so re-running a
/// bench at the same commit updates its rows in place and the file stays
/// one row per `(name, sha)` — the property trajectory tooling keys on.
pub fn write_report(file: &str) {
    let records: Vec<Record> = std::mem::take(
        &mut RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    if records.is_empty() {
        return;
    }
    let sha = git_sha();
    let entries: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": {:?}, \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"iters\": {}, \"sha\": {:?}}}",
                r.name, r.min_ns, r.mean_ns, r.median_ns, r.iters, sha
            )
        })
        .collect();
    let path = report_path(file);
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
    let body = merge_report(&existing, &names, &sha, &entries);
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("bench report -> {}", path.display());
}

/// Merge `new_lines` (records measured at `sha`, named `new_names`
/// pairwise) into an existing one-row-per-line report: existing rows keep
/// their position and formatting unless their `(name, sha)` matches a new
/// record, in which case the old row is dropped and the fresh measurement
/// appended at the end.
fn merge_report(existing: &str, new_names: &[&str], sha: &str, new_lines: &[String]) -> String {
    let replaced = |line: &str| {
        crate::report::bench_row(line).is_some_and(|row| {
            let text = |key| row.get(key).and_then(Value::as_str);
            text("sha") == Some(sha) && text("name").is_some_and(|n| new_names.contains(&n))
        })
    };
    let kept: Vec<&str> = existing
        .lines()
        .filter(|line| line.trim_start().starts_with('{') && !replaced(line))
        .map(|line| line.trim_end().trim_end_matches(','))
        .collect();
    let all: Vec<String> = kept
        .into_iter()
        .map(str::to_string)
        .chain(new_lines.iter().cloned())
        .collect();
    format!("[\n{}\n]\n", all.join(",\n"))
}

/// Resolve `file` relative to the workspace root (where `Cargo.lock`
/// lives), so `cargo bench` run from any crate directory appends to the
/// same baseline files.
fn report_path(file: &str) -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join(file);
        }
        if !dir.pop() {
            return std::path::PathBuf::from(file);
        }
    }
}

/// Short git commit hash, or `"unknown"` outside a repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ns: u64, sha: &str) -> String {
        format!(
            "  {{\"name\": {name:?}, \"min_ns\": {ns}, \"mean_ns\": {ns}, \"median_ns\": {ns}, \"iters\": 1, \"sha\": {sha:?}}}"
        )
    }

    #[test]
    fn merge_replaces_rows_keyed_by_name_and_sha() {
        let existing = format!(
            "[\n{},\n{},\n{}\n]\n",
            row("a", 1, "old1"),
            row("a", 2, "new1"),
            row("b", 3, "new1")
        );
        let fresh = vec![row("a", 9, "new1")];
        let merged = merge_report(&existing, &["a"], "new1", &fresh);
        // The old-commit row and the other-name row survive; the stale
        // same-(name, sha) row is gone; the fresh row is appended.
        assert_eq!(
            merged,
            format!(
                "[\n{},\n{},\n{}\n]\n",
                row("a", 1, "old1"),
                row("b", 3, "new1"),
                row("a", 9, "new1")
            )
        );
    }

    #[test]
    fn merge_collapses_preexisting_duplicates_of_rerecorded_rows() {
        // A file that already carries duplicate (name, sha) rows (the bug
        // this keying fixes) converges to one row once re-recorded.
        let existing = format!("[\n{},\n{}\n]\n", row("a", 1, "s"), row("a", 2, "s"));
        let fresh = vec![row("a", 3, "s")];
        let merged = merge_report(&existing, &["a"], "s", &fresh);
        assert_eq!(merged, format!("[\n{}\n]\n", row("a", 3, "s")));
    }

    #[test]
    fn merge_into_missing_or_empty_file_builds_fresh_array() {
        let fresh = vec![row("a", 1, "s")];
        assert_eq!(
            merge_report("", &["a"], "s", &fresh),
            format!("[\n{}\n]\n", row("a", 1, "s"))
        );
        assert_eq!(
            merge_report("[]\n", &["a"], "s", &fresh),
            format!("[\n{}\n]\n", row("a", 1, "s"))
        );
    }
}
