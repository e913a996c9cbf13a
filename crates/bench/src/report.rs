//! Telemetry rendering, run diffing and the bench regression sentinel —
//! the library behind the `simreport` binary.
//!
//! Everything here is line-oriented: the workspace's JSON artifacts are
//! deliberately written one object per line (`BENCH_*.json` rows, trace /
//! time-series / flight JSONL), so each line is parsed on its own by
//! `obs::json` and a malformed line costs that line, not the file.
//!
//! Three capabilities:
//!
//! * [`render_timeseries`] — turn a `--timeseries` JSONL export into text
//!   tables and sparklines;
//! * [`diff_jsonl`] — compare two JSONL exports line by line and localize
//!   the first diverging `(ctx, seq)` event, turning CI's byte-identity
//!   `cmp` gates into an actual divergence debugger;
//! * [`bench_check`] — compare fresh `BENCH_*.json` rows against the
//!   `(name, sha)` history and flag median regressions beyond a threshold.

use obs::json::{parse, Value};
use std::fmt::Write as _;

/// One row of a `BENCH_*.json` report (see `harness::write_report`): the
/// line parsed as an object, after trimming the comma that separates it from
/// the next row. `None` for the array brackets and for a malformed row.
pub(crate) fn bench_row(line: &str) -> Option<Value> {
    let row = line.trim().trim_end_matches(',');
    row.starts_with('{').then(|| parse(row).ok()).flatten()
}

/// A numeric field of a parsed line. `null` — how the writers render a
/// non-finite value — and a missing key both yield `None`.
fn finite(line: &Value, key: &str) -> Option<f64> {
    line.get(key)?.as_f64().filter(|x| x.is_finite())
}

/// An unsigned integer field of a parsed line; 0 when absent.
fn uint(line: &Value, key: &str) -> u64 {
    line.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Render `values` as a unicode sparkline (8 block levels, min..max scaled;
/// a flat series renders as a run of the lowest block).
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '?'
            } else if span > 0.0 {
                BLOCKS[(((v - lo) / span) * 7.0).round() as usize]
            } else {
                BLOCKS[0]
            }
        })
        .collect()
}

/// Render a `--timeseries` JSONL export as text: one sparkline block per
/// `(name, key, ctx)` series (window means, decimated to `width` columns)
/// and one table row per histogram line.
pub fn render_timeseries(jsonl: &str, width: usize) -> String {
    let mut out = String::new();
    let width = width.max(8);
    // Collect window means per series, in file order (already sorted by
    // (name, key, ctx) at export).
    let mut cur: Option<(String, Vec<f64>)> = None;
    let flush = |out: &mut String, cur: &mut Option<(String, Vec<f64>)>| {
        if let Some((head, means)) = cur.take() {
            let step = (means.len() / width).max(1);
            let decimated: Vec<f64> = means.iter().copied().step_by(step).collect();
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &m in &means {
                lo = lo.min(m);
                hi = hi.max(m);
            }
            let _ = writeln!(
                out,
                "{head} [{} windows, mean {lo:.4}..{hi:.4}]\n  {}",
                means.len(),
                sparkline(&decimated)
            );
        }
    };
    // `<name> key=<key> ctx=<ctx>`: how a series or histogram line is titled.
    let title = |line: &Value| {
        let name = line.get("name").and_then(Value::as_str).unwrap_or("?");
        format!("{name} key={} ctx={}", uint(line, "key"), uint(line, "ctx"))
    };
    for line in jsonl.lines().filter_map(|l| parse(l).ok()) {
        match line.get("kind").and_then(Value::as_str) {
            Some("series") => {
                flush(&mut out, &mut cur);
                let window = finite(&line, "window_s").unwrap_or(0.0);
                cur = Some((
                    format!("series {} window={window}s", title(&line)),
                    Vec::new(),
                ));
            }
            Some("win") => {
                if let (Some((_, means)), Some(mean)) = (cur.as_mut(), finite(&line, "mean")) {
                    means.push(mean);
                }
            }
            Some("hist") => {
                flush(&mut out, &mut cur);
                let _ = writeln!(
                    out,
                    "hist   {}  n={}  p50={}  p90={}  p99={}  max={}",
                    title(&line),
                    uint(&line, "count"),
                    fmt_opt(finite(&line, "p50")),
                    fmt_opt(finite(&line, "p90")),
                    fmt_opt(finite(&line, "p99")),
                    fmt_opt(finite(&line, "max")),
                );
            }
            _ => {}
        }
    }
    flush(&mut out, &mut cur);
    out
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

/// Where two JSONL exports first diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// `(ctx, seq)` of the diverging event, when both fields are present on
    /// either line (trace and flight exports carry them; time-series lines
    /// carry `ctx` only, reported with seq 0).
    pub ctx_seq: Option<(u64, u64)>,
    /// The line from the first file (empty if it ended early).
    pub a: String,
    /// The line from the second file (empty if it ended early).
    pub b: String,
}

/// Compare two JSONL exports line by line; `None` means byte-identical.
/// On a mismatch, the first diverging line is localized and, where the
/// lines carry `(ctx, seq)` keys, translated into event coordinates — the
/// debugger behind CI's `cmp` identity gates.
pub fn diff_jsonl(a: &str, b: &str) -> Option<Divergence> {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut n = 0;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) => {
                let (x, y) = (x.unwrap_or(""), y.unwrap_or(""));
                if x != y {
                    let ctx_seq = parse(if x.is_empty() { y } else { x })
                        .ok()
                        .and_then(|k| Some((k.get("ctx")?.as_u64()?, uint(&k, "seq"))));
                    return Some(Divergence {
                        line: n,
                        ctx_seq,
                        a: x.to_string(),
                        b: y.to_string(),
                    });
                }
            }
        }
    }
}

/// One benchmark's verdict from [`bench_check`].
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Benchmark name.
    pub name: String,
    /// Fresh median (ns, or raw value for `record_value` rows).
    pub fresh: f64,
    /// Baseline: median of the other-sha rows' medians (None: no history).
    pub baseline: Option<f64>,
    /// Signed change vs baseline in percent (positive = slower/lower-rate).
    pub delta_pct: Option<f64>,
    /// True when the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// Is a bench row higher-is-better? Rate rows (`*per_sec*`) are; wall-time
/// rows are lower-is-better.
fn higher_is_better(name: &str) -> bool {
    name.contains("per_sec")
}

/// The bench regression sentinel. `content` is a `BENCH_*.json` report
/// (one row per line, `(name, sha)` keyed — see `harness::write_report`);
/// `fresh_sha` selects the rows under test (defaulting to the sha of the
/// file's last row, i.e. the most recent measurement); `threshold_pct` is
/// the allowed median change in percent. Every fresh-sha row is compared
/// against the median of its name's other-sha history: wall-time rows fail
/// when `fresh > baseline * (1 + t)`, rate rows when
/// `fresh < baseline / (1 + t)`. Rows without history pass (first
/// measurement). Returns one [`CheckRow`] per fresh row, name order.
pub fn bench_check(content: &str, fresh_sha: Option<&str>, threshold_pct: f64) -> Vec<CheckRow> {
    let parsed: Vec<Value> = content.lines().filter_map(bench_row).collect();
    let rows: Vec<(&str, &str, f64)> = parsed
        .iter()
        .filter_map(|r| {
            Some((
                r.get("name")?.as_str()?,
                r.get("sha")?.as_str()?,
                finite(r, "median_ns")?,
            ))
        })
        .collect();
    let Some(fresh_sha) = fresh_sha.or_else(|| rows.last().map(|r| r.1)) else {
        return Vec::new();
    };
    let t = threshold_pct / 100.0;
    let mut out: Vec<CheckRow> = rows
        .iter()
        .filter(|(_, sha, _)| *sha == fresh_sha)
        .map(|&(name, _, fresh)| {
            let mut history: Vec<f64> = rows
                .iter()
                .filter(|(n, sha, _)| *n == name && *sha != fresh_sha)
                .map(|&(_, _, m)| m)
                .collect();
            history.sort_by(f64::total_cmp);
            let baseline = (!history.is_empty()).then(|| history[history.len() / 2]);
            let (delta_pct, regressed) = match baseline {
                Some(b) if b > 0.0 => {
                    let delta = if higher_is_better(name) {
                        // Positive delta = rate dropped = bad.
                        (b - fresh) / b * 100.0
                    } else {
                        (fresh - b) / b * 100.0
                    };
                    (Some(delta), delta > t * 100.0)
                }
                _ => (None, false),
            };
            CheckRow {
                name: name.to_string(),
                fresh,
                baseline,
                delta_pct,
                regressed,
            }
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Render [`bench_check`] rows as a table, worst regressions called out.
pub fn render_check(rows: &[CheckRow], threshold_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>14} {:>14} {:>9}  verdict",
        "benchmark", "fresh", "baseline", "delta"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<52} {:>14.0} {:>14} {:>9}  {}",
            r.name,
            r.fresh,
            match r.baseline {
                Some(b) => format!("{b:.0}"),
                None => "-".to_string(),
            },
            match r.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None => "-".to_string(),
            },
            if r.regressed {
                "REGRESSED"
            } else if r.baseline.is_none() {
                "new"
            } else {
                "ok"
            }
        );
    }
    let bad = rows.iter().filter(|r| r.regressed).count();
    let _ = writeln!(
        out,
        "{} rows, {} regressed (threshold {threshold_pct}%)",
        rows.len(),
        bad
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, median: u64, sha: &str) -> String {
        format!(
            "  {{\"name\": {name:?}, \"min_ns\": {median}, \"mean_ns\": {median}, \"median_ns\": {median}, \"iters\": 3, \"sha\": {sha:?}}}"
        )
    }

    fn report(rows: &[String]) -> String {
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    #[test]
    fn sparkline_scales_and_handles_flat() {
        let s = sparkline(&[0.0, 3.0, 7.0]);
        assert_eq!(s, "▁▄█");
        assert_eq!(sparkline(&[2.0, 2.0]), "▁▁", "flat series is lowest block");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn bench_check_fails_synthetic_20pct_regression() {
        // Acceptance criterion: a 20% median regression at a 15% threshold
        // must fail; wall-time rows regress upward, rate rows downward.
        let content = report(&[
            row("kernel/pop", 1000, "old1"),
            row("kernel/pop", 1000, "old2"),
            row("netsim/events_per_sec_x", 5000, "old1"),
            row("kernel/pop", 1200, "new1"),
            row("netsim/events_per_sec_x", 4000, "new1"),
        ]);
        let rows = bench_check(&content, Some("new1"), 15.0);
        assert_eq!(rows.len(), 2);
        let pop = rows.iter().find(|r| r.name == "kernel/pop").unwrap();
        assert!(pop.regressed, "+20% wall time must regress: {pop:?}");
        let rate = rows.iter().find(|r| r.name.contains("per_sec")).unwrap();
        assert!(rate.regressed, "-20% rate must regress: {rate:?}");
    }

    #[test]
    fn bench_check_passes_identical_and_improved_rows() {
        let content = report(&[
            row("kernel/pop", 1000, "old1"),
            row("netsim/events_per_sec_x", 5000, "old1"),
            row("kernel/pop", 1000, "new1"),
            row("netsim/events_per_sec_x", 6000, "new1"),
            row("kernel/brand_new", 42, "new1"),
        ]);
        let rows = bench_check(&content, Some("new1"), 15.0);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| !r.regressed), "{rows:?}");
        let fresh = rows.iter().find(|r| r.name == "kernel/brand_new").unwrap();
        assert!(fresh.baseline.is_none(), "no history: passes as new");
    }

    #[test]
    fn bench_check_defaults_fresh_sha_to_last_row() {
        let content = report(&[row("a", 100, "old"), row("a", 200, "new")]);
        let rows = bench_check(&content, None, 15.0);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].regressed, "100 -> 200 ns at 15%: {rows:?}");
        assert_eq!(rows[0].baseline, Some(100.0));
    }

    #[test]
    fn bench_check_reads_integer_and_float_medians_and_skips_the_rest() {
        // A median may be an integer or a float (plain or scientific); a row
        // whose median is `null`, or that lacks its median or sha, or that
        // is not JSON, is no measurement.
        let content = report(&[
            row("a", 1000, "old"),
            "  {\"name\": \"a\", \"median_ns\": null, \"sha\": \"old2\"}".to_string(),
            "  {\"name\": \"a\", \"sha\": \"old3\"}".to_string(),
            "  {\"name\": \"a\", \"median_ns\": 5}".to_string(),
            "  {\"name\": \"a\", \"median_ns\": 5, \"sha\": \"torn".to_string(),
            "  {\"name\": \"a\", \"median_ns\": 1050.5, \"sha\": \"new\"}".to_string(),
            "  {\"name\": \"b\", \"median_ns\": 2.5e3, \"sha\": \"new\"}".to_string(),
        ]);
        let rows = bench_check(&content, None, 15.0);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!((rows[0].fresh, rows[0].baseline), (1050.5, Some(1000.0)));
        assert_eq!((rows[1].fresh, rows[1].baseline), (2500.0, None));
    }

    #[test]
    fn bench_check_baseline_is_median_of_history() {
        // History medians 100/110/300 -> baseline 110 (robust to one
        // outlier commit), so a fresh 120 is +9.1%, under a 15% gate.
        let content = report(&[
            row("a", 100, "s1"),
            row("a", 300, "s2"),
            row("a", 110, "s3"),
            row("a", 120, "new"),
        ]);
        let rows = bench_check(&content, Some("new"), 15.0);
        assert_eq!(rows[0].baseline, Some(110.0));
        assert!(!rows[0].regressed);
    }

    #[test]
    fn diff_jsonl_localizes_first_diverging_event() {
        let a = "{\"ctx\": 1, \"seq\": 0, \"v\": 1}\n{\"ctx\": 1, \"seq\": 1, \"v\": 2}\n";
        let b = "{\"ctx\": 1, \"seq\": 0, \"v\": 1}\n{\"ctx\": 1, \"seq\": 1, \"v\": 9}\n";
        let d = diff_jsonl(a, b).unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.ctx_seq, Some((1, 1)));
        assert_eq!(diff_jsonl(a, a), None, "identical inputs do not diverge");
        // A line without `ctx`, or that is not JSON, still localizes by line.
        for other in ["{\"seq\": 4, \"v\": 1.5, \"by\": null}\n", "ctx: 1\n"] {
            let d = diff_jsonl(other, a).unwrap();
            assert_eq!((d.line, d.ctx_seq), (1, None), "{other}");
        }
    }

    #[test]
    fn diff_jsonl_reports_truncation() {
        let a = "{\"ctx\": 3, \"seq\": 7}\n";
        let d = diff_jsonl(a, "").unwrap();
        assert_eq!(d.line, 1);
        assert_eq!(d.ctx_seq, Some((3, 7)), "keys read from the longer side");
        assert!(d.b.is_empty());
    }

    #[test]
    fn render_timeseries_emits_sparkline_and_hist_rows() {
        let jsonl = "\
{\"kind\": \"series\", \"name\": \"q\", \"key\": 0, \"ctx\": 1, \"window_s\": 0.001, \"windows\": 3, \"dropped\": 0}
{\"kind\": \"win\", \"name\": \"q\", \"key\": 0, \"ctx\": 1, \"w\": 0, \"t_s\": 0.0, \"count\": 1, \"mean\": 1.0, \"min\": 1.0, \"max\": 1.0, \"last\": 1.0}
{\"kind\": \"win\", \"name\": \"q\", \"key\": 0, \"ctx\": 1, \"w\": 1, \"t_s\": 0.001, \"count\": 1, \"mean\": 5.0, \"min\": 5.0, \"max\": 5.0, \"last\": 5.0}
{\"kind\": \"hist\", \"name\": \"fct\", \"key\": 0, \"ctx\": 1, \"count\": 9, \"zero\": 0, \"non_finite\": 0, \"min\": 1.0, \"max\": 9.0, \"p50\": 5.0, \"p90\": 8.0, \"p99\": 9.0, \"p999\": 9.0}
{\"kind\": \"hist\", \"name\": \"empty\", \"key\": 2, \"count\": 0, \"p50\": null, \"p90\": null, \"p99\": 7}
not a json line
";
        let text = render_timeseries(jsonl, 40);
        assert!(text.contains("series q key=0 ctx=1"), "{text}");
        assert!(text.contains('▁') && text.contains('█'), "{text}");
        assert!(
            text.contains("hist   fct") && text.contains("p99=9.0000"),
            "{text}"
        );
        // `null` and a missing field both print as "-"; an integer reads as
        // a number; a missing `ctx` reads 0.
        assert!(
            text.ends_with("hist   empty key=2 ctx=0  n=0  p50=-  p90=-  p99=7.0000  max=-\n"),
            "{text}"
        );
    }
}
