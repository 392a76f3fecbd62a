//! SARIF-lite report emission: a small, stable JSON shape carrying
//! rule id, location, message and taint path. The checked-in schema
//! (`docs/mp-lint.sarif-lite.schema.json`) pins the shape;
//! `tests/sarif_schema.rs` validates real output against it.

use crate::json::Value;
use crate::rules::{Diagnostic, RULES};

pub const TOOL_NAME: &str = "mp-lint";
pub const TOOL_VERSION: &str = "5.0";

/// The document-level summary key for a rule: finding counts per rule
/// in the table (`summary."lint.findings.<rule>"`), so dashboards can
/// trend rule pressure without walking `results`.
pub fn summary_key(rule: &str) -> String {
    format!("lint.findings.{}", rule.to_ascii_lowercase())
}

/// Build the SARIF-lite document for a set of diagnostics.
pub fn report(findings: &[Diagnostic]) -> Value {
    let step = |s: &crate::rules::TaintStep| {
        Value::obj(vec![("line", Value::Num(s.line as f64)), ("note", Value::Str(s.note.clone()))])
    };
    let results: Vec<Value> = findings
        .iter()
        .map(|d| {
            let mut pairs = vec![
                ("ruleId", Value::Str(d.rule.to_string())),
                ("level", Value::Str("error".into())),
                ("message", Value::Str(d.message.clone())),
                (
                    "location",
                    Value::obj(vec![
                        ("file", Value::Str(d.file.clone())),
                        ("line", Value::Num(d.line as f64)),
                    ]),
                ),
            ];
            if !d.path.is_empty() {
                pairs.push(("taintPath", Value::Arr(d.path.iter().map(step).collect())));
            }
            Value::obj(pairs)
        })
        .collect();

    let keys: Vec<String> = RULES.iter().map(|r| summary_key(r.id)).collect();
    let summary: Vec<(&str, Value)> = RULES
        .iter()
        .zip(&keys)
        .map(|(r, key)| {
            let n = findings.iter().filter(|d| d.rule == r.id).count();
            (key.as_str(), Value::Num(n as f64))
        })
        .collect();

    Value::obj(vec![
        ("$schema", Value::Str("docs/mp-lint.sarif-lite.schema.json".into())),
        ("version", Value::Str("3".into())),
        (
            "tool",
            Value::obj(vec![
                ("name", Value::Str(TOOL_NAME.into())),
                ("version", Value::Str(TOOL_VERSION.into())),
            ]),
        ),
        ("summary", Value::obj(summary)),
        ("results", Value::Arr(results)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::TaintStep;

    #[test]
    fn report_shape() {
        let d = Diagnostic::new("crates/core/src/x.rs", 7, "R5", "leak".into())
            .with_path(vec![TaintStep { line: 3, note: "origin".into() }]);
        let v = report(&[d]);
        let results = v.get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("ruleId").and_then(Value::as_str), Some("R5"));
        let loc = r.get("location").expect("location");
        assert_eq!(loc.get("line").and_then(Value::as_num), Some(7.0));
        let path = r.get("taintPath").and_then(Value::as_arr).expect("path");
        assert_eq!(path[0].get("note").and_then(Value::as_str), Some("origin"));
        // Round-trips through our own parser.
        let text = v.pretty();
        assert_eq!(crate::json::parse(&text).expect("reparse"), v);
    }

    #[test]
    fn empty_report_is_valid() {
        let v = report(&[]);
        assert_eq!(v.get("results").and_then(Value::as_arr).map(|a| a.len()), Some(0));
        assert_eq!(v.get("version").and_then(Value::as_str), Some("3"));
        let summary = v.get("summary").expect("summary");
        for rule in RULES {
            let key = summary_key(rule.id);
            assert_eq!(summary.get(&key).and_then(Value::as_num), Some(0.0), "{key}");
        }
    }

    #[test]
    fn summary_counts_by_rule() {
        let findings = vec![
            Diagnostic::new("a.rs", 1, "R8", "x".into()),
            Diagnostic::new("a.rs", 2, "R9", "x".into()),
            Diagnostic::new("a.rs", 3, "R9", "x".into()),
            Diagnostic::new("a.rs", 4, "R1", "x".into()),
        ];
        let v = report(&findings);
        let s = v.get("summary").expect("summary");
        assert_eq!(s.get("lint.findings.r8").and_then(Value::as_num), Some(1.0));
        assert_eq!(s.get("lint.findings.r9").and_then(Value::as_num), Some(2.0));
        assert_eq!(s.get("lint.findings.r11").and_then(Value::as_num), Some(0.0));
        assert_eq!(s.get("lint.findings.r10"), None, "retired rules have no key");
    }
}
