//! The SARIF-lite report must validate against the *checked-in* schema
//! (`docs/mp-lint.sarif-lite.schema.json`) — both the real report for
//! this workspace and a synthetic report exercising every optional
//! field. A shape drift in either the emitter or the schema fails here.

use mp_lint::rules::{Diagnostic, TaintStep};
use mp_lint::{gate_workspace, json, sarif, schema, workspace_root};

fn checked_in_schema() -> json::Value {
    let path = workspace_root().join("docs/mp-lint.sarif-lite.schema.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("schema {} unreadable: {e}", path.display()));
    json::parse(&text).expect("schema parses as JSON")
}

#[test]
fn workspace_report_validates() {
    let result = gate_workspace(&workspace_root());
    let errors = schema::validate(&result.sarif, &checked_in_schema());
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

#[test]
fn synthetic_report_with_taint_path_validates() {
    let tainted = Diagnostic::new("crates/core/src/x.rs", 7, "R5", "leak".into()).with_path(vec![
        TaintStep { line: 3, note: "secret exposed".into() },
        TaintStep { line: 7, note: "reaches sink".into() },
    ]);
    let plain = Diagnostic::new("crates/gram/src/job.rs", 42, "R7", "held guard".into());
    let doc = sarif::report(&[tainted, plain]);
    let errors = schema::validate(&doc, &checked_in_schema());
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

#[test]
fn schema_actually_rejects_malformed_reports() {
    // Guard against a vacuous schema: drop a required field and break
    // an enum; both must be reported.
    let text = r#"{
        "$schema": "docs/mp-lint.sarif-lite.schema.json",
        "version": "1",
        "tool": {"name": "mp-lint", "version": "2.0"},
        "results": [{
            "ruleId": "R5",
            "level": "warning",
            "message": "x",
            "location": {"file": "a.rs"}
        }]
    }"#;
    let doc = json::parse(text).expect("doc");
    let errors = schema::validate(&doc, &checked_in_schema());
    assert!(errors.iter().any(|e| e.contains("not in enum")), "{errors:#?}");
    assert!(
        errors.iter().any(|e| e.contains("missing required property `line`")),
        "{errors:#?}"
    );
}
