//! Machine-readable report and the checked-in findings baseline.
//!
//! `cargo xtask lint --format json` renders the full findings list through
//! `obs::json` (byte-stable: sorted findings, insertion-order keys, shortest
//! round-trip floats — none here). The baseline file
//! `simlint.baseline.json` holds `(file, rule, count)` triples — counts, not
//! line numbers, so unrelated edits that shift lines do not invalidate it —
//! and the lint run fails only on findings beyond the baselined count.

use obs::json::Value;

use crate::{Severity, Violation};

/// One baseline entry: up to `count` findings of `rule` in `file` are
/// tolerated (legacy debt being burned down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Rule name as reported.
    pub rule: String,
    /// Number of tolerated findings.
    pub count: usize,
}

/// The outcome of diffing findings against the baseline.
pub struct Analysis {
    /// Every finding, in report order, with its baselined flag.
    pub findings: Vec<(Violation, bool)>,
    /// Baseline entries (or remainders) that matched nothing — stale debt
    /// that should be burned down with `--fix-baseline`.
    pub stale: Vec<BaselineEntry>,
}

impl Analysis {
    /// Findings that are neither baselined nor mere warnings — these fail
    /// the run.
    pub fn new_errors(&self) -> impl Iterator<Item = &Violation> {
        self.findings
            .iter()
            .filter(|(v, baselined)| !baselined && v.severity() == Severity::Error)
            .map(|(v, _)| v)
    }
}

/// Diff `violations` (already sorted) against the baseline: the first
/// `count` error-severity findings per `(file, rule)` key are baselined.
/// Warnings never consume baseline budget.
pub fn apply_baseline(violations: Vec<Violation>, baseline: &[BaselineEntry]) -> Analysis {
    let mut budget: Vec<(String, String, usize)> = baseline
        .iter()
        .map(|b| (b.file.clone(), b.rule.clone(), b.count))
        .collect();
    let mut findings = Vec::with_capacity(violations.len());
    for v in violations {
        let mut baselined = false;
        if v.severity() == Severity::Error {
            let file = v.file.display().to_string();
            let rule = v.rule.name();
            if let Some(slot) = budget
                .iter_mut()
                .find(|(f, r, c)| *f == file && r == rule && *c > 0)
            {
                slot.2 -= 1;
                baselined = true;
            }
        }
        findings.push((v, baselined));
    }
    let stale = budget
        .into_iter()
        .filter(|(_, _, c)| *c > 0)
        .map(|(file, rule, count)| BaselineEntry { file, rule, count })
        .collect();
    Analysis { findings, stale }
}

/// A `(file, rule, count)` triple as the baseline file and the report's
/// stale list both write it.
fn entry_row(file: String, rule: String, count: usize) -> Value {
    Value::Obj(vec![
        ("file".into(), Value::Str(file)),
        ("rule".into(), Value::Str(rule)),
        ("count".into(), Value::Int(count as i128)),
    ])
}

/// Render the current error-severity findings as a baseline file (grouped
/// counts, sorted by file then rule).
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut counts: Vec<(String, String, usize)> = Vec::new();
    for v in violations {
        if v.severity() != Severity::Error {
            continue;
        }
        let file = v.file.display().to_string();
        let rule = v.rule.name().to_string();
        if let Some(slot) = counts.iter_mut().find(|(f, r, _)| *f == file && *r == rule) {
            slot.2 += 1;
        } else {
            counts.push((file, rule, 1));
        }
    }
    counts.sort();
    let entries: Vec<Value> = counts
        .into_iter()
        .map(|(file, rule, count)| entry_row(file, rule, count))
        .collect();
    let doc = Value::Obj(vec![
        ("version".into(), Value::Int(1)),
        ("tool".into(), Value::Str("simlint".into())),
        ("entries".into(), Value::Arr(entries)),
    ]);
    doc.render_pretty() + "\n"
}

/// Render the full findings report (`--format json`). Byte-stable: findings
/// arrive sorted, keys are insertion-ordered, rule counts are sorted.
pub fn render_report(findings: &[(Violation, bool)], stale: &[BaselineEntry]) -> String {
    let rows: Vec<Value> = findings
        .iter()
        .map(|(v, baselined)| {
            Value::Obj(vec![
                ("file".into(), Value::Str(v.file.display().to_string())),
                ("line".into(), Value::Int(v.line as i128)),
                ("col".into(), Value::Int(v.col as i128)),
                ("rule".into(), Value::Str(v.rule.name().into())),
                ("severity".into(), Value::Str(v.severity().name().into())),
                ("message".into(), Value::Str(v.message.clone())),
                ("baselined".into(), Value::Bool(*baselined)),
            ])
        })
        .collect();
    let mut by_rule: Vec<(String, usize)> = Vec::new();
    for (v, _) in findings {
        let name = v.rule.name().to_string();
        if let Some(slot) = by_rule.iter_mut().find(|(r, _)| *r == name) {
            slot.1 += 1;
        } else {
            by_rule.push((name, 1));
        }
    }
    by_rule.sort();
    let total = findings.len();
    let errors = findings
        .iter()
        .filter(|(v, _)| v.severity() == Severity::Error)
        .count();
    let baselined = findings.iter().filter(|(_, b)| *b).count();
    let new_errors = findings
        .iter()
        .filter(|(v, b)| !b && v.severity() == Severity::Error)
        .count();
    let stale_rows: Vec<Value> = stale
        .iter()
        .map(|b| entry_row(b.file.clone(), b.rule.clone(), b.count))
        .collect();
    let doc = Value::Obj(vec![
        ("version".into(), Value::Int(1)),
        ("tool".into(), Value::Str("simlint".into())),
        ("findings".into(), Value::Arr(rows)),
        (
            "summary".into(),
            Value::Obj(vec![
                ("total".into(), Value::Int(total as i128)),
                ("errors".into(), Value::Int(errors as i128)),
                ("warnings".into(), Value::Int((total - errors) as i128)),
                ("baselined".into(), Value::Int(baselined as i128)),
                ("new_errors".into(), Value::Int(new_errors as i128)),
                (
                    "by_rule".into(),
                    Value::Obj(
                        by_rule
                            .into_iter()
                            .map(|(r, c)| (r, Value::Int(c as i128)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("stale_baseline".into(), Value::Arr(stale_rows)),
    ]);
    doc.render_pretty() + "\n"
}

/// Parse a baseline file: the `entries` array of the object
/// [`render_baseline`] writes. Other keys are ignored, so the format can grow.
pub fn parse_baseline(src: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = obs::json::parse(src).map_err(|e| format!("baseline parse error: {e}"))?;
    if !matches!(doc, Value::Obj(_)) {
        return Err("baseline parse error: top level must be an object".into());
    }
    let Some(entries) = doc.get("entries") else {
        return Ok(Vec::new());
    };
    let Some(entries) = entries.items() else {
        return Err("baseline parse error: \"entries\" must be an array".into());
    };
    entries
        .iter()
        .map(|e| {
            let text = |key| e.get(key).and_then(Value::as_str).map(str::to_string);
            let count = e.get("count").and_then(Value::as_u64);
            match (text("file"), text("rule"), count.map(usize::try_from)) {
                (Some(file), Some(rule), Some(Ok(count))) => {
                    Ok(BaselineEntry { file, rule, count })
                }
                _ => Err("baseline entry missing file/rule/count".into()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use std::path::PathBuf;

    fn v(file: &str, line: usize, rule: Rule) -> Violation {
        Violation {
            file: PathBuf::from(file),
            line,
            col: 1,
            rule,
            message: format!("{} here", rule.name()),
        }
    }

    #[test]
    fn baseline_round_trips() {
        let vs = vec![
            v("a.rs", 1, Rule::Panic),
            v("a.rs", 9, Rule::Panic),
            v("b.rs", 3, Rule::UnitFlow),
        ];
        let rendered = render_baseline(&vs);
        let parsed = parse_baseline(&rendered).unwrap();
        assert_eq!(
            parsed,
            vec![
                BaselineEntry {
                    file: "a.rs".into(),
                    rule: "panic".into(),
                    count: 2
                },
                BaselineEntry {
                    file: "b.rs".into(),
                    rule: "unit-flow".into(),
                    count: 1
                },
            ]
        );
        // Applying the freshly-rendered baseline suppresses everything.
        let analysis = apply_baseline(vs, &parsed);
        assert_eq!(analysis.new_errors().count(), 0);
        assert!(analysis.stale.is_empty());
        assert!(analysis.findings.iter().all(|(_, b)| *b));
    }

    #[test]
    fn new_findings_exceed_baseline() {
        let baseline = vec![BaselineEntry {
            file: "a.rs".into(),
            rule: "panic".into(),
            count: 1,
        }];
        let vs = vec![v("a.rs", 1, Rule::Panic), v("a.rs", 9, Rule::Panic)];
        let analysis = apply_baseline(vs, &baseline);
        assert_eq!(analysis.new_errors().count(), 1);
        assert_eq!(analysis.new_errors().next().unwrap().line, 9);
    }

    #[test]
    fn burned_down_baseline_reports_stale_remainder() {
        let baseline = vec![BaselineEntry {
            file: "a.rs".into(),
            rule: "panic".into(),
            count: 3,
        }];
        let analysis = apply_baseline(vec![v("a.rs", 1, Rule::Panic)], &baseline);
        assert_eq!(analysis.new_errors().count(), 0);
        assert_eq!(
            analysis.stale,
            vec![BaselineEntry {
                file: "a.rs".into(),
                rule: "panic".into(),
                count: 2
            }]
        );
    }

    #[test]
    fn warnings_do_not_consume_baseline_and_do_not_fail() {
        let vs = vec![v("a.rs", 1, Rule::StaleAllow)];
        let analysis = apply_baseline(vs, &[]);
        assert_eq!(analysis.new_errors().count(), 0);
        assert_eq!(analysis.findings.len(), 1);
        // And a rendered baseline ignores warnings entirely.
        assert!(
            parse_baseline(&render_baseline(&[v("a.rs", 1, Rule::StaleAllow)]))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn report_is_byte_stable() {
        let vs = vec![
            v("a.rs", 1, Rule::Panic),
            v("b.rs", 3, Rule::UnitFlow),
            v("b.rs", 4, Rule::StaleAllow),
        ];
        let analysis = apply_baseline(vs, &[]);
        let r1 = render_report(&analysis.findings, &analysis.stale);
        let r2 = render_report(&analysis.findings, &analysis.stale);
        assert_eq!(r1, r2);
        assert!(r1.contains("\"new_errors\": 2"), "{r1}");
        assert!(r1.contains("\"warnings\": 1"), "{r1}");
    }
}
