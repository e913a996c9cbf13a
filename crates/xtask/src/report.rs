//! The machine-readable report: `cargo xtask lint --format json` renders the
//! findings through `obs::json`. Byte-stable: findings arrive sorted, keys
//! are insertion-ordered, rule counts are sorted.

use std::collections::BTreeMap;

use obs::json::Value;

use crate::{Severity, Violation};

/// Render the findings report (`--format json`).
pub fn render_report(findings: &[Violation]) -> String {
    let rows: Vec<Value> = findings
        .iter()
        .map(|v| {
            Value::Obj(vec![
                ("file".into(), Value::Str(v.file.display().to_string())),
                ("line".into(), Value::Int(v.line as i128)),
                ("col".into(), Value::Int(v.col as i128)),
                ("rule".into(), Value::Str(v.rule.name().into())),
                ("severity".into(), Value::Str(v.severity().name().into())),
                ("message".into(), Value::Str(v.message.clone())),
            ])
        })
        .collect();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for v in findings {
        *by_rule.entry(v.rule.name()).or_default() += 1;
    }
    let total = findings.len();
    let errors = findings
        .iter()
        .filter(|v| v.severity() == Severity::Error)
        .count();
    let doc = Value::Obj(vec![
        ("version".into(), Value::Int(2)),
        ("tool".into(), Value::Str("simlint".into())),
        ("findings".into(), Value::Arr(rows)),
        (
            "summary".into(),
            Value::Obj(vec![
                ("total".into(), Value::Int(total as i128)),
                ("errors".into(), Value::Int(errors as i128)),
                ("warnings".into(), Value::Int((total - errors) as i128)),
                (
                    "by_rule".into(),
                    Value::Obj(
                        by_rule
                            .into_iter()
                            .map(|(r, c)| (r.into(), Value::Int(c as i128)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    doc.render_pretty() + "\n"
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
    fn report_counts_errors_and_warnings_and_is_byte_stable() {
        let vs = vec![
            v("a.rs", 1, Rule::IndexLiteral),
            v("b.rs", 3, Rule::DetTaint),
            v("b.rs", 4, Rule::StaleAllow),
        ];
        let r1 = render_report(&vs);
        assert_eq!(r1, render_report(&vs));
        assert!(r1.contains("\"errors\": 2"), "{r1}");
        assert!(r1.contains("\"warnings\": 1"), "{r1}");
        assert!(obs::json::parse(&r1).is_ok(), "{r1}");
    }
}
