//! Telemetry rendering and run diffing — the library behind the
//! `simreport` binary.
//!
//! Everything here is line-oriented: the workspace's JSONL artifacts
//! (trace / time-series / flight) are written one object per line, so each
//! line is parsed on its own by `obs::json` and a malformed line costs that
//! line, not the file.
//!
//! Two capabilities:
//!
//! * [`render_timeseries`] — turn a `timeseries.jsonl` export (one of the
//!   four files `--obs <dir>` writes) into text tables and sparklines;
//! * [`diff_jsonl`] — compare two JSONL exports line by line and localize
//!   the first diverging `(ctx, seq)` event, so a byte-identity check
//!   fails with where two runs part, not with their contents.

use obs::json::{parse, Value};
use std::fmt::Write as _;

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

/// Render a `timeseries.jsonl` export as text: one sparkline block per
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
            let step = means.len().div_ceil(width).max(1);
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
/// On a mismatch, the first line whose text differs is localized and, where
/// the lines carry `(ctx, seq)` keys, translated into event coordinates — the
/// debugger behind the byte-identity tests. Files whose lines all read the
/// same but whose bytes differ (a missing final newline, `\r\n` against
/// `\n`, an extra blank line at the end) diverge at the first line whose
/// terminator differs.
pub fn diff_jsonl(a: &str, b: &str) -> Option<Divergence> {
    /// A line without its terminator.
    fn text(raw: &str) -> &str {
        raw.strip_suffix('\n')
            .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l))
    }
    let divergence = |line, x: &str, y: &str| {
        let ctx_seq = parse(if x.is_empty() { y } else { x })
            .ok()
            .and_then(|k| Some((k.get("ctx")?.as_u64()?, uint(&k, "seq"))));
        Divergence {
            line,
            ctx_seq,
            a: x.to_string(),
            b: y.to_string(),
        }
    };
    let (mut la, mut lb) = (a.split_inclusive('\n'), b.split_inclusive('\n'));
    let mut terminator = None;
    for n in 1.. {
        let (ra, rb) = match (la.next(), lb.next()) {
            (None, None) => break,
            (x, y) => (x.unwrap_or(""), y.unwrap_or("")),
        };
        let (x, y) = (text(ra), text(rb));
        if x != y {
            return Some(divergence(n, x, y));
        }
        if ra != rb && terminator.is_none() {
            terminator = Some(divergence(n, x, y));
        }
    }
    terminator
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_and_handles_flat() {
        let s = sparkline(&[0.0, 3.0, 7.0]);
        assert_eq!(s, "▁▄█");
        assert_eq!(sparkline(&[2.0, 2.0]), "▁▁", "flat series is lowest block");
        assert_eq!(sparkline(&[]), "");
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
        // Same lines, different bytes: the divergence is the first line
        // whose terminator differs.
        let two = "{\"ctx\": 1}\n{\"ctx\": 2}\n";
        for (a, b, line) in [
            ("{\"ctx\": 1}\n", "{\"ctx\": 1}", 1),
            ("{\"ctx\": 1}\r\n{\"ctx\": 2}\r\n", two, 1),
            ("{\"ctx\": 1}\n{\"ctx\": 2}\r\n", two, 2),
            ("{\"ctx\": 1}\n\n", "{\"ctx\": 1}\n", 2),
        ] {
            let d = diff_jsonl(a, b).unwrap_or_else(|| panic!("{a:?} vs {b:?}"));
            assert_eq!(d.line, line, "{a:?} vs {b:?}");
            assert_eq!(d.a, d.b, "the lines read the same: {d:?}");
        }
    }

    #[test]
    fn render_timeseries_prints_at_most_width_blocks() {
        for windows in [15, 22, 100] {
            let mut jsonl =
                String::from("{\"kind\": \"series\", \"name\": \"q\", \"window_s\": 0.001}\n");
            for w in 0..windows {
                jsonl.push_str(&format!(
                    "{{\"kind\": \"win\", \"name\": \"q\", \"mean\": {w}.0}}\n"
                ));
            }
            for width in [8, 10, 64] {
                let text = render_timeseries(&jsonl, width);
                let blocks = text.lines().nth(1).map_or(0, |l| l.trim().chars().count());
                assert!(
                    (1..=width).contains(&blocks),
                    "{windows} windows at width {width}: {blocks} blocks\n{text}"
                );
            }
        }
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
