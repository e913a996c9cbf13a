//! `ecn-bench check`: validates `BENCHMARK.json` against the contract and the
//! catalogue, and — given two run-set files written by `--out` — compares
//! them metric by metric against the benchmark's own bounds.

use std::path::Path;

use store::json::Value;

use crate::catalogue;

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    store::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Obj(entries)) => entries,
        _ => &[],
    }
}

/// A run-set document holds its runs under `workloads`; the `--out` of a
/// single workload is one such run.
fn runs(doc: &Value) -> Vec<(String, &Value)> {
    match doc.get("workloads") {
        Some(set) => entries(Some(set))
            .iter()
            .map(|(k, v)| (k.clone(), v))
            .collect(),
        None => vec![(String::new(), doc)],
    }
}

#[derive(Debug, PartialEq)]
pub enum Row {
    Ok,
    /// Worse than the bound, but a run set was marked noisy: not resolved.
    Unresolved,
    Regressed,
    /// A metric without a bound; shown for the ratio only.
    Unbounded,
}

/// Judge `b` against `a` for one metric. End-to-end metrics (all
/// lower-is-better) may worsen by their bound; counts must repeat exactly.
pub fn judge(metric: &str, unit: &str, a: f64, b: f64, noisy: bool) -> Row {
    if let Some(m) = catalogue::END_TO_END.iter().find(|m| m.name == metric) {
        return match b <= a * (1.0 + m.bound) {
            true => Row::Ok,
            false if noisy => Row::Unresolved,
            false => Row::Regressed,
        };
    }
    match unit {
        "count" if a == b => Row::Ok,
        "count" => Row::Regressed,
        _ => Row::Unbounded,
    }
}

/// Print one row per (workload, metric) present in both run sets; true when
/// no row regressed.
fn compare(a: &Value, b: &Value) -> bool {
    println!(
        "{:<16} {:<44} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    let mut clean = true;
    let runs_b = runs(b);
    for (workload, run_a) in runs(a) {
        let Some((_, run_b)) = runs_b.iter().find(|(w, _)| *w == workload) else {
            continue;
        };
        let flag = |run: &Value| matches!(run.get("noisy"), Some(Value::Bool(true)));
        let noisy = flag(run_a) || flag(run_b);
        for (metric, ma) in entries(run_a.get("metrics")) {
            let Some(mb) = run_b.get("metrics").and_then(|m| m.get(metric)) else {
                continue;
            };
            let num = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = ma.get("unit").and_then(Value::as_str).unwrap_or("");
            let (va, vb) = (num(ma), num(mb));
            let row = judge(metric, unit, va, vb, noisy);
            clean &= row != Row::Regressed;
            let verdict = match row {
                Row::Ok => "ok",
                Row::Unresolved => "unresolved",
                Row::Regressed => "regressed",
                Row::Unbounded => "-",
            };
            println!(
                "{workload:<16} {metric:<44} {va:>16.6} {vb:>16.6} {:>9.4}  {verdict}",
                vb / va
            );
        }
    }
    clean
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let problems = catalogue::validate_manifest(&read_json(&manifest)?);
    for p in &problems {
        println!("BENCHMARK.json: {p}");
    }
    println!(
        "BENCHMARK.json: {}",
        if problems.is_empty() {
            "valid"
        } else {
            "INVALID"
        }
    );
    let clean = match args {
        [] => true,
        [a, b] => compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?),
        _ => return Err("check takes no file or two run-set files".to_string()),
    };
    Ok(problems.is_empty() && clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_decide_ok_unresolved_and_regressed() {
        // pass_s may worsen by its bound, a quarter.
        assert_eq!(judge("pass_s", "s", 1.0, 1.24, false), Row::Ok);
        assert_eq!(judge("pass_s", "s", 1.0, 0.5, false), Row::Ok);
        assert_eq!(judge("pass_s", "s", 1.0, 1.3, false), Row::Regressed);
        assert_eq!(judge("pass_s", "s", 1.0, 1.3, true), Row::Unresolved);
        assert_eq!(judge("pass_s", "s", 1.0, f64::NAN, false), Row::Regressed);
        assert_eq!(judge("peak_rss_mb", "MB", 50.0, 56.0, false), Row::Ok);
        assert_eq!(
            judge("peak_rss_mb", "MB", 50.0, 58.0, false),
            Row::Regressed
        );
        // Counts repeat exactly or fail; other per-layer metrics have no bound.
        assert_eq!(judge("netsim.events", "count", 7.0, 7.0, true), Row::Ok);
        assert_eq!(
            judge("netsim.events", "count", 7.0, 8.0, true),
            Row::Regressed
        );
        assert_eq!(judge("netsim.run_s", "s", 1.0, 9.0, false), Row::Unbounded);
    }

    #[test]
    fn run_sets_and_single_runs_both_read() {
        let set = store::json::parse(
            r#"{"workloads": {"w": {"noisy": false, "metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}}}"#,
        )
        .expect("parses");
        let slow = store::json::parse(
            r#"{"workloads": {"w": {"noisy": false, "metrics": {"pass_s": {"value": 2.0, "unit": "s"}}}}}"#,
        )
        .expect("parses");
        assert!(compare(&set, &set));
        assert!(!compare(&set, &slow));
        assert!(compare(&slow, &set));
    }
}
