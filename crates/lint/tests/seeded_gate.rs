//! End-to-end gate check: a scratch workspace seeded with one
//! deliberate violation of each dataflow rule (plus a token rule for good
//! measure) must fail `run_workspace`, attributing every finding to
//! the right rule. This proves the walker, scoping and engine work
//! together — not just `check_source` in isolation.

use mp_lint::run_workspace;

/// Named `server.rs` under `crates/core/src/` so the R1 file list and
/// the R5/R6/R7 crate scoping both apply.
const SEEDED: &str = r#"//! Deliberately broken scratch file.

fn leaks_passphrase(passphrase: &str) {
    let cleartext = passphrase;
    println!("login with {cleartext}");
}

fn drops_send_error(chan: &mut Chan) {
    let _ = chan.send(b"bye");
}

fn sends_under_guard(state: &Mutex<Vec<u8>>, chan: &mut Chan) {
    let guard = state.lock();
    chan.send(&guard).unwrap();
}
"#;

/// The ISSUE acceptance scenario: a seeded durability bug whose append
/// and ack live in *different functions* must be caught by the gate
/// with the full inter-procedural call path on the finding.
const SEEDED_JOURNAL: &str = r#"//! Seeded ack-before-fsync: the WAL append in `journal_append` is
//! only fsynced after the response ack in `handle_store`.

fn journal_append(j: &mut Journal, rec: &[u8]) {
    j.log.append(rec, true);
}

fn journal_sync(j: &mut Journal) {
    j.file.sync_all();
}

fn handle_store(j: &mut Journal, chan: &mut Chan, rec: &[u8]) {
    journal_append(j, rec);
    chan.send(b"OK");
    journal_sync(j);
}
"#;

#[test]
fn seeded_ack_before_fsync_is_caught_with_a_call_path() {
    let dir = std::env::temp_dir().join(format!("mp-lint-journal-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("journal.rs"), SEEDED_JOURNAL).expect("seed file");

    let findings = run_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch teardown");

    let r9: Vec<_> = findings.iter().filter(|d| d.rule == "R9").collect();
    assert_eq!(r9.len(), 1, "findings: {findings:#?}");
    let d = r9[0];
    // Anchored at the ack site in `handle_store`, not inside the
    // helper that did the append.
    assert_eq!((d.file.as_str(), d.line), ("crates/core/src/journal.rs", 14), "{d:#?}");
    assert!(
        d.path.iter().any(|s| s.note.contains("journal_append")),
        "path misses the cross-function append hop: {:#?}",
        d.path
    );
    assert!(d.path.len() >= 3, "expected a multi-hop path: {:#?}", d.path);
}

#[test]
fn seeded_violations_fail_the_gate() {
    let dir = std::env::temp_dir().join(format!("mp-lint-seeded-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("server.rs"), SEEDED).expect("seed file");

    let findings = run_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch teardown");

    let by_rule = |rule: &str| -> Vec<u32> {
        findings.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
    };
    assert_eq!(by_rule("R5"), vec![5], "R5: {findings:#?}");
    assert_eq!(by_rule("R6"), vec![9], "R6: {findings:#?}");
    assert_eq!(by_rule("R7"), vec![14], "R7: {findings:#?}");
    assert_eq!(by_rule("R1"), vec![14], "R1 unwrap: {findings:#?}");
}
