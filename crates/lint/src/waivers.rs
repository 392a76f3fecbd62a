//! Waivers: the one way to silence a finding.
//!
//! A violation can be waived per line with
//! `// lint:allow(<rule>) <reason>` — trailing on the offending line,
//! or standalone on the line above. The reason is mandatory; an allow
//! without one is itself reported and suppresses nothing.
//!
//! The waiver budget (`lint-waivers.budget`) pins the total number of
//! `lint:allow` annotations in scoped sources. Adding a waiver without
//! raising the budget in the same commit fails CI, which forces the
//! diff reviewer to see both together.

use crate::lexer::Comment;
use crate::rules::{Diagnostic, SourceFile};
use std::path::Path;

pub const BUDGET_FILE: &str = "lint-waivers.budget";

/// A parsed `// lint:allow(R1) reason` annotation.
pub(crate) struct Allow {
    rule: String,
    /// Line the annotation suppresses: its own line for trailing
    /// comments, the next line for standalone comment lines.
    target_line: u32,
    has_reason: bool,
    /// Line the comment itself sits on (for diagnostics).
    comment_line: u32,
}

pub(crate) fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let after = &c.text[pos + "lint:allow(".len()..];
        // No `)`: malformed; surfaces as a missing-reason violation.
        let (rule, reason) = match after.find(')') {
            Some(close) => (
                after[..close].trim(),
                after[close + 1..].trim_start_matches([':', '-', ' ']).trim(),
            ),
            None => ("", ""),
        };
        out.push(Allow {
            rule: rule.to_string(),
            target_line: if c.own_line { c.line + 1 } else { c.line },
            has_reason: !reason.is_empty(),
            comment_line: c.line,
        });
    }
    out
}

/// Apply every file's waivers to the raw findings: reasoned allows
/// suppress the finding of their rule on their target line; reasonless
/// or malformed ones are reported instead. The only place a finding is
/// ever dropped.
pub(crate) fn apply(files: &[SourceFile], raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        for a in f.allows.iter().filter(|a| !a.has_reason) {
            let message = if a.rule.is_empty() {
                "malformed lint:allow annotation (expected `lint:allow(<rule>) <reason>`)".into()
            } else {
                format!(
                    "lint:allow({}) without a reason; annotations must justify themselves",
                    a.rule
                )
            };
            out.push(Diagnostic::new(&f.rel, a.comment_line, "allow", message));
        }
    }
    out.extend(raw.into_iter().filter(|d| {
        !files.iter().filter(|f| f.rel == d.file).flat_map(|f| &f.allows).any(|a| {
            a.has_reason && a.target_line == d.line && (a.rule == d.rule || a.rule == "all")
        })
    }));
    out
}

/// Count `lint:allow` annotations in every scoped source file (i.e.
/// files where at least one rule applies — a waiver in an unscoped
/// file is inert and not counted). Returns (total, per-file counts).
pub fn count_waivers(root: &Path) -> (usize, Vec<(String, usize)>) {
    let mut per_file = Vec::new();
    let mut total = 0usize;
    for (rel, path, _) in crate::scoped_files(root) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let n = parse_allows(&crate::lexer::lex(&src).comments).len();
        if n > 0 {
            per_file.push((rel, n));
            total += n;
        }
    }
    (total, per_file)
}

/// Read the committed waiver budget: first non-comment line of
/// `lint-waivers.budget` as an integer.
pub fn load_budget(root: &Path) -> Option<usize> {
    let text = std::fs::read_to_string(root.join(BUDGET_FILE)).ok()?;
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .and_then(|l| l.parse().ok())
}
