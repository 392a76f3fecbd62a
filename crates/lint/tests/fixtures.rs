//! Fixture conformance: each seeded violation under `tests/fixtures/`
//! must be reported with the correct rule at the correct `file:line`
//! (for R5, with the correct taint path), exempt regions must stay
//! silent, and the `lint:allow` escape hatch must behave exactly as
//! documented for every rule family.

use mp_lint::{check_files, check_source, Diagnostic, RuleSet};
use std::path::PathBuf;

const NONE: RuleSet = RuleSet {
    r1: false,
    r2: false,
    r3: false,
    r4: false,
    r5: false,
    r6: false,
    r7: false,
    r8: false,
    r9: false,
    r10: false,
    r11: false,
    r12: false,
    r13: false,
    r14: false,
    r15: false,
};
const V1: RuleSet = RuleSet { r1: true, r2: true, r3: true, r4: true, ..NONE };
const R5_ONLY: RuleSet = RuleSet { r5: true, ..NONE };
const R6_ONLY: RuleSet = RuleSet { r6: true, ..NONE };
const R7_ONLY: RuleSet = RuleSet { r7: true, ..NONE };
const R8_ONLY: RuleSet = RuleSet { r8: true, ..NONE };
const R9_ONLY: RuleSet = RuleSet { r9: true, ..NONE };
const R10_ONLY: RuleSet = RuleSet { r10: true, ..NONE };
const R11_ONLY: RuleSet = RuleSet { r11: true, ..NONE };
const R12_ONLY: RuleSet = RuleSet { r12: true, ..NONE };
const R13_ONLY: RuleSet = RuleSet { r13: true, ..NONE };
const R14_ONLY: RuleSet = RuleSet { r14: true, ..NONE };
const R15_ONLY: RuleSet = RuleSet { r15: true, ..NONE };

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
    run_fixture_with(name, V1)
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
    let diags = run_fixture_with("r5_secret_taint.rs", R5_ONLY);
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
    let diags = run_fixture_with("r5_secret_taint.rs", R5_ONLY);
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
    let diags = run_fixture_with("r6_discarded_fallible.rs", R6_ONLY);
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
    let diags = check_files(&[(name, src, R7_ONLY)]);
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

/// Run one fixture through the cross-file pass (the only place the
/// inter-procedural R8–R11 families execute).
fn run_v3_fixture(name: &str, rules: RuleSet) -> Vec<Diagnostic> {
    let src = fixture_source(name);
    check_files(&[(name.to_string(), src, rules)])
}

#[test]
fn r8_fixture_flags_blocking_reachable_from_pool_workers() {
    let diags = run_v3_fixture("r8_pool_blocking.rs", R8_ONLY);
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
    let diags = run_v3_fixture("r8_pool_blocking.rs", R8_ONLY);
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
    let diags = run_v3_fixture("r9_durability.rs", R9_ONLY);
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
    let diags = run_v3_fixture("r9_durability.rs", R9_ONLY);
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
fn r10_fixture_flags_strong_and_mixed_orderings() {
    let diags = run_v3_fixture("r10_atomics.rs", R10_ONLY);
    assert_eq!(
        findings(&diags),
        vec![
            ("R10", 6),  // SeqCst on a stats counter
            ("R10", 10), // Acquire on `mixed`
            ("R10", 14), // mixed regime on `mixed` (anchored at the second site)
        ],
        "diags: {diags:#?}"
    );
    let mixed = diags.iter().find(|d| d.line == 14).expect("mixed finding");
    assert!(mixed.message.contains("mixed"), "message: {}", mixed.message);
}

#[test]
fn r11_fixture_flags_unarmed_spawned_handlers_only() {
    let diags = run_v3_fixture("r11_deadlines.rs", R11_ONLY);
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
fn r12_fixture_flags_unclamped_flows_only() {
    let diags = run_v3_fixture("r12_wire_bounds.rs", R12_ONLY);
    assert_eq!(
        findings(&diags),
        vec![
            ("R12", 16), // cross-function: read_len -> decode_bad -> alloc_payload
            ("R12", 21), // local: vec![0u8; len] straight from the decode
            ("R12", 27), // read_exact bounded by the raw decoded length
        ],
        "diags: {diags:#?}"
    );
}

#[test]
fn r12_fixture_carries_the_decode_to_allocation_path() {
    let diags = run_v3_fixture("r12_wire_bounds.rs", R12_ONLY);
    let d = diags.iter().find(|d| d.line == 16).expect("cross-function flow finding");
    assert!(
        d.path.first().expect("origin step").note.contains("wire"),
        "path misses the decode origin: {:#?}",
        d.path
    );
    assert!(
        d.path.iter().any(|s| s.note.contains("bound to `len`")),
        "path misses the binding hop: {:#?}",
        d.path
    );
    assert!(
        d.path.iter().any(|s| s.note.contains("alloc_payload")),
        "path misses the call hop: {:#?}",
        d.path
    );
    assert!(
        d.path.last().expect("sink step").note.contains("with_capacity"),
        "path misses the allocation sink: {:#?}",
        d.path
    );
}

#[test]
fn r13_fixture_flags_typestate_violations_only() {
    let diags = run_v3_fixture("r13_typestate.rs", R13_ONLY);
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
    let diags = run_v3_fixture("r13_typestate.rs", R13_ONLY);
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
fn r14_fixture_flags_swallowed_and_missing_commands() {
    // Two files: the enum declaration and the dispatchers, so the
    // cross-file global-declaration fallback is what resolves variants.
    let decl = "r14_commands.rs".to_string();
    let disp = "r14_dispatch.rs".to_string();
    let diags = check_files(&[
        (decl.clone(), fixture_source(&decl), R14_ONLY),
        (disp.clone(), fixture_source(&disp), R14_ONLY),
    ]);
    assert_eq!(
        findings(&diags),
        vec![
            ("R14", 8),  // silent `_ => {}` with Info/Destroy unhandled
            ("R14", 13), // no catch-all, Destroy missing
        ],
        "diags: {diags:#?}"
    );
    assert!(diags.iter().all(|d| d.file == disp), "diags: {diags:#?}");
    let missing = diags.iter().find(|d| d.line == 13).expect("missing-variant finding");
    assert!(missing.message.contains("Destroy"), "message: {}", missing.message);
}

#[test]
fn r15_fixture_flags_leaks_only() {
    let diags = run_v3_fixture("r15_leaks.rs", R15_ONLY);
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
    let diags = check_files(&[("crates/core/src/x.rs".to_string(), src.to_string(), R15_ONLY)]);
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
