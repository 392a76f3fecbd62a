//! Fixture conformance: each seeded violation under `tests/fixtures/`
//! must be reported with the correct rule at the correct `file:line`
//! (for R5, with the correct taint path), exempt regions must stay
//! silent, and the `lint:allow` escape hatch must behave exactly as
//! documented for every rule family.

use mp_lint::rules::RULES;
use mp_lint::{check_files, check_source, Diagnostic, RuleSet};
use std::path::PathBuf;

/// The token rules, which the first four fixtures and the waiver
/// fixtures run under together.
fn token_rules() -> RuleSet {
    RuleSet::of(&["R1", "R2", "R3", "R4"])
}

fn fixture_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn run_fixture_with(name: &str, rules: RuleSet) -> Vec<Diagnostic> {
    check_source(name, &fixture_source(name), rules)
}

fn run_fixture(name: &str) -> Vec<Diagnostic> {
    run_fixture_with(name, token_rules())
}

/// (rule, line) pairs, sorted, for compact comparison.
fn findings(diags: &[Diagnostic]) -> Vec<(&str, u32)> {
    let mut v: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    v.sort();
    v
}

#[test]
fn r1_fixture_flags_every_panic_class() {
    let diags = run_fixture("r1_panics.rs");
    assert_eq!(
        findings(&diags),
        vec![
            ("R1", 6),  // .unwrap()
            ("R1", 10), // .expect(
            ("R1", 15), // panic!
            ("R1", 16), // unreachable!
            ("R1", 17), // todo!
            ("R1", 18), // unimplemented!
            ("R1", 24), // assert!
            ("R1", 28), // indexing
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r2_fixture_flags_flows_and_structs_only() {
    let diags = run_fixture("r2_secret_flow.rs");
    assert_eq!(
        findings(&diags),
        vec![("R2", 5), ("R2", 9), ("R2", 17), ("R2", 17)],
        "diags: {diags:#?}"
    );
}

#[test]
fn r3_fixture_flags_mac_compares_not_protocol_tags() {
    let diags = run_fixture("r3_noncesense.rs");
    assert_eq!(findings(&diags), vec![("R3", 5), ("R3", 9)], "diags: {diags:#?}");
}

#[test]
fn r4_fixture_flags_length_truncations_only() {
    let diags = run_fixture("r4_truncating_casts.rs");
    assert_eq!(
        findings(&diags),
        vec![("R4", 5), ("R4", 9), ("R4", 13)],
        "diags: {diags:#?}"
    );
}

#[test]
fn r5_fixture_flags_macro_wire_return_and_debug_sinks() {
    let diags = run_fixture_with("r5_secret_taint.rs", RuleSet::of(&["R5"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R5", 8),  // println! on a renamed exposed secret
            ("R5", 13), // write_all of a renamed pass phrase
            ("R5", 18), // non-Secret return of a derived key
            ("R5", 28), // Debug-deriving struct literal capturing an OTP
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r5_fixture_reports_the_taint_path() {
    let diags = run_fixture_with("r5_secret_taint.rs", RuleSet::of(&["R5"]));
    let d = diags.iter().find(|d| d.line == 8).expect("macro-sink finding");
    let path: Vec<(u32, &str)> = d.path.iter().map(|s| (s.line, s.note.as_str())).collect();
    assert_eq!(
        path,
        vec![
            (6, "secret exposed via `secret.expose()`"),
            (6, "tainted value bound to `shown`"),
            (7, "tainted value bound to `renamed`"),
            (8, "capture `{renamed}` in `println!`"),
        ],
        "path: {path:#?}"
    );
}

#[test]
fn r6_fixture_flags_discarded_results_only() {
    let diags = run_fixture_with("r6_discarded_fallible.rs", RuleSet::of(&["R6"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R6", 6),  // let _ = chan.send(..)
            ("R6", 10), // chan.flush().ok()
            ("R6", 14), // let _ = std::fs::remove_dir_all(..)
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r7_fixture_flags_held_guards_and_order_cycles() {
    // Through check_files so the cross-function lock-graph pass runs.
    let name = "r7_lock_discipline.rs".to_string();
    let src = fixture_source(&name);
    let diags = check_files(&[(name, src, RuleSet::of(&["R7"]))]);
    let f = findings(&diags);
    assert!(f.contains(&("R7", 7)), "send under guard missing: {diags:#?}");
    assert!(f.contains(&("R7", 12)), "disk write under guard missing: {diags:#?}");
    let cycles: Vec<&Diagnostic> =
        diags.iter().filter(|d| d.message.contains("cycle")).collect();
    assert_eq!(cycles.len(), 1, "diags: {diags:#?}");
    assert!(
        cycles[0].message.contains("a -> b -> a") || cycles[0].message.contains("b -> a -> b"),
        "cycle message: {}",
        cycles[0].message
    );
    assert_eq!(f.len(), 3, "unexpected extras: {diags:#?}");
}

/// Every rule in the table has a fixture named after it that shows it
/// firing (positive) and shows it staying silent on a look-alike — a
/// function the rule walked and found nothing in (negative). A rule
/// registered without both fails here.
#[test]
fn every_registered_rule_has_a_positive_and_a_negative_fixture() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    for rule in RULES {
        let prefix = format!("{}_", rule.id.to_ascii_lowercase());
        let name = names
            .iter()
            .find(|n| n.starts_with(&prefix))
            .unwrap_or_else(|| panic!("rule {} has no fixture `{prefix}*.rs`", rule.id));
        let src = fixture_source(name);
        let diags = run_fixture_with(name, RuleSet::of(&[rule.id]));
        assert!(
            !diags.is_empty() && diags.iter().all(|d| d.rule == rule.id),
            "{name} must make {} (and only it) fire: {diags:#?}",
            rule.id
        );
        let parsed = mp_lint::parser::parse_source(&src).expect("fixture parses");
        let line_of = |byte: usize| 1 + src[..byte].matches('\n').count() as u32;
        let silent_fn = parsed.functions.iter().any(|f| {
            let lines = f.line..=line_of(f.span.1);
            !diags.iter().any(|d| lines.contains(&d.line))
        });
        assert!(silent_fn, "{name} has no function {} stays silent on", rule.id);
    }
}

#[test]
fn r8_fixture_flags_blocking_reachable_from_pool_workers() {
    let diags = run_fixture_with("r8_pool_blocking.rs", RuleSet::of(&["R8"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R8", 16), // cross-function: handle -> drain_all -> read_to_end
            ("R8", 22), // local: spawn on a pool worker thread
            ("R8", 28), // cross-function: handle -> flush_under_lock (fsync under lock)
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r8_fixture_carries_the_call_path() {
    let diags = run_fixture_with("r8_pool_blocking.rs", RuleSet::of(&["R8"]));
    let d = diags.iter().find(|d| d.line == 16).expect("drain_all finding");
    assert!(
        d.path.iter().any(|s| s.note.contains("drain_all")),
        "path misses the call hop: {:#?}",
        d.path
    );
    assert!(
        d.path.last().expect("terminal step").note.contains("read_to_end"),
        "path misses the primitive: {:#?}",
        d.path
    );
}

#[test]
fn r9_fixture_flags_ack_order_mutation_order_and_bare_rename() {
    let diags = run_fixture_with("r9_durability.rs", RuleSet::of(&["R9"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R9", 14), // ack before the fsync covering the WAL append
            ("R9", 26), // store mutation after the final ack
            ("R9", 36), // rename with no directory fsync behind it
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r9_fixture_traces_the_append_across_functions() {
    let diags = run_fixture_with("r9_durability.rs", RuleSet::of(&["R9"]));
    let d = diags.iter().find(|d| d.line == 14).expect("ack-before-fsync finding");
    assert!(
        d.path.iter().any(|s| s.note.contains("journal_append")),
        "path misses the cross-function append hop: {:#?}",
        d.path
    );
    assert!(
        d.path.iter().any(|s| s.note.contains("acknowledged before fsync")),
        "path misses the ack step: {:#?}",
        d.path
    );
}

#[test]
fn r11_fixture_flags_unarmed_spawned_handlers_only() {
    let diags = run_fixture_with("r11_deadlines.rs", RuleSet::of(&["R11"]));
    assert_eq!(
        findings(&diags),
        vec![("R11", 14)], // serve_bad -> read_request before any arm
        "diags: {diags:#?}"
    );
    let d = &diags[0];
    assert!(
        d.path.iter().any(|s| s.note.contains("read_request")),
        "path misses the cross-function hop: {:#?}",
        d.path
    );
}

#[test]
fn r13_fixture_flags_typestate_violations_only() {
    let diags = run_fixture_with("r13_typestate.rs", RuleSet::of(&["R13"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R13", 9),  // cross-function: payload via send_hello before connect
            ("R13", 20), // traffic after the BUSY/shed frame
            ("R13", 28), // store mutation before attach_durable
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r13_fixture_handshake_finding_is_cross_function() {
    let diags = run_fixture_with("r13_typestate.rs", RuleSet::of(&["R13"]));
    let d = diags.iter().find(|d| d.line == 9).expect("pre-handshake finding");
    assert!(
        d.path.iter().any(|s| s.note.contains("send_hello")),
        "path misses the call hop: {:#?}",
        d.path
    );
    assert!(
        d.path.last().expect("terminal step").note.contains("write_all"),
        "path misses the primitive: {:#?}",
        d.path
    );
}

#[test]
fn r15_fixture_flags_leaks_only() {
    let diags = run_fixture_with("r15_leaks.rs", RuleSet::of(&["R15"]));
    assert_eq!(
        findings(&diags),
        vec![
            ("R15", 6),  // cross-function: tmp created via write_tmp, never renamed
            ("R15", 23), // registration with no drain anywhere in the crate
            ("R15", 29), // request I/O under the stale pre-handshake deadline
        ],
        "diags: {diags:#?}"
    );
    let d = diags.iter().find(|d| d.line == 6).expect("tmp-leak finding");
    assert!(
        d.path.iter().any(|s| s.note.contains("write_tmp")),
        "path misses the call hop: {:#?}",
        d.path
    );
}

#[test]
fn r15_drained_registrations_are_clean() {
    let src = "fn register_ok(set: &mut HandlerSet, conn: Conn) {\n    \
               set.spawn(\"conn\", conn);\n}\n\
               fn shutdown(set: &mut HandlerSet) {\n    set.drain();\n}\n";
    let diags = check_files(&[("crates/core/src/x.rs".to_string(), src.to_string(), RuleSet::of(&["R15"]))]);
    assert!(diags.is_empty(), "drained crate should be clean: {diags:#?}");
}

#[test]
fn reasoned_allows_silence_everything() {
    let diags = run_fixture("allowed_clean.rs");
    assert!(diags.is_empty(), "expected clean, got: {diags:#?}");
}

#[test]
fn allow_without_reason_is_flagged_and_does_not_suppress() {
    let diags = run_fixture("allow_without_reason.rs");
    let f = findings(&diags);
    assert!(f.contains(&("allow", 5)), "missing allow finding: {diags:#?}");
    assert!(f.contains(&("R4", 5)), "original finding suppressed: {diags:#?}");
    assert_eq!(f.len(), 2, "unexpected extras: {diags:#?}");
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let diags = run_fixture("r4_truncating_casts.rs");
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("r4_truncating_casts.rs:5: [R4]"),
        "got: {rendered}"
    );
}
