//! The gate: lint the entire workspace and fail on any finding.
//!
//! This is the test CI runs (`cargo test`). A finding must be fixed or
//! waived with a reasoned `// lint:allow(<rule>) <why>` at the
//! offending line, under the committed waiver budget — there is no
//! other way to silence one.

use mp_lint::{run_workspace, workspace_root};

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let findings = run_workspace(&root);
    if !findings.is_empty() {
        let mut report = String::new();
        for d in &findings {
            report.push_str(&format!("  {d}\n"));
            for s in &d.path {
                report.push_str(&format!("      taint: line {}: {}\n", s.line, s.note));
            }
        }
        panic!(
            "mp-lint gate failed — {} finding(s):\n{report}\
             fix the code or annotate with `// lint:allow(<rule>) <reason>`",
            findings.len()
        );
    }
}

#[test]
fn waiver_count_matches_committed_budget() {
    let root = workspace_root();
    let (total, per_file) = mp_lint::waivers::count_waivers(&root);
    let budget = mp_lint::waivers::load_budget(&root)
        .expect("lint-waivers.budget missing from the workspace root");
    assert_eq!(
        total, budget,
        "lint:allow count changed ({total} found, budget says {budget}); \
         update lint-waivers.budget in the same change — per file: {per_file:?}"
    );
}
