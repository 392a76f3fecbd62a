//! End-to-end gate check: a scratch workspace seeded with one
//! deliberate violation of each dataflow rule (plus a token rule for good
//! measure) must fail `gate_workspace`, attributing every finding to
//! the right rule. This proves the walker, scoping, engine, and
//! report plumbing work together — not just `check_source` in
//! isolation.

use mp_lint::gate_workspace;

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
/// with the full inter-procedural call path in the SARIF-lite output.
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

    let result = gate_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch teardown");

    assert!(!result.passed(), "seeded durability bug passed the gate");
    let r9: Vec<_> = result.findings.iter().filter(|d| d.rule == "R9").collect();
    assert_eq!(r9.len(), 1, "findings: {:#?}", result.findings);
    let d = r9[0];
    // Anchored at the ack site in `handle_store`, not inside the
    // helper that did the append.
    assert_eq!((d.file.as_str(), d.line), ("crates/core/src/journal.rs", 14), "{d:#?}");
    assert!(
        d.path.iter().any(|s| s.note.contains("journal_append")),
        "path misses the cross-function append hop: {:#?}",
        d.path
    );

    // The same call path rides the SARIF-lite report as `taintPath`,
    // and the summary counts the finding under the R9 key.
    let sarif_r9 = result
        .sarif
        .get("results")
        .and_then(mp_lint::json::Value::as_arr)
        .expect("sarif results")
        .iter()
        .find(|r| r.get("ruleId").and_then(mp_lint::json::Value::as_str) == Some("R9"))
        .expect("R9 in sarif")
        .clone();
    let steps = sarif_r9
        .get("taintPath")
        .and_then(mp_lint::json::Value::as_arr)
        .expect("taintPath present")
        .len();
    assert!(steps >= 3, "expected a multi-hop path, got {steps} steps");
    assert_eq!(
        result
            .sarif
            .get("summary")
            .and_then(|s| s.get("lint.findings.r9"))
            .and_then(mp_lint::json::Value::as_num),
        Some(1.0)
    );
}

/// The R12 acceptance scenario: a wire-decoded length that crosses a
/// function boundary before feeding an allocation must be caught by
/// R12, with the decode→bind→call→allocation path in the SARIF output.
const SEEDED_FRAME: &str = r#"//! Seeded unclamped wire length: the length decoded in `frame_len`
//! reaches the allocation in `read_frame` with no bound check.

fn frame_len(hdr: &[u8; 4]) -> usize {
    let n = u32::from_be_bytes(*hdr) as usize;
    n
}

fn read_frame(hdr: &[u8; 4]) -> Vec<u8> {
    let len = frame_len(hdr);
    let buf = Vec::with_capacity(len);
    buf
}
"#;

#[test]
fn seeded_unclamped_wire_length_is_caught_with_a_taint_path() {
    let dir = std::env::temp_dir().join(format!("mp-lint-frame-{}", std::process::id()));
    let src_dir = dir.join("crates/gsi/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("frame.rs"), SEEDED_FRAME).expect("seed file");

    let result = gate_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch teardown");

    assert!(!result.passed(), "seeded wire-bounds bug passed the gate");
    let r12: Vec<_> = result.findings.iter().filter(|d| d.rule == "R12").collect();
    assert_eq!(r12.len(), 1, "findings: {:#?}", result.findings);
    let d = r12[0];
    // Anchored at the allocation in `read_frame`, not the decode in
    // the helper.
    assert_eq!((d.file.as_str(), d.line), ("crates/gsi/src/frame.rs", 11), "{d:#?}");
    // The path walks the whole flow: wire decode in `frame_len`, the
    // tainted return crossing back into `read_frame`, the `len`
    // binding, and the allocation it reaches.
    assert!(d.path.first().is_some_and(|s| s.note.contains("wire")), "{:#?}", d.path);
    assert!(d.path.iter().any(|s| s.note.contains("frame_len")), "{:#?}", d.path);
    assert!(
        d.path.last().is_some_and(|s| s.note.contains("reaches allocation")),
        "{:#?}",
        d.path
    );

    // The same flow rides the SARIF-lite report as `taintPath`, and
    // the summary counts the finding under the R12 key.
    let sarif_r12 = result
        .sarif
        .get("results")
        .and_then(mp_lint::json::Value::as_arr)
        .expect("sarif results")
        .iter()
        .find(|r| r.get("ruleId").and_then(mp_lint::json::Value::as_str) == Some("R12"))
        .expect("R12 in sarif")
        .clone();
    let steps = sarif_r12
        .get("taintPath")
        .and_then(mp_lint::json::Value::as_arr)
        .expect("taintPath present")
        .len();
    assert!(steps >= 3, "expected a multi-hop taint path, got {steps} steps");
    assert_eq!(
        result
            .sarif
            .get("summary")
            .and_then(|s| s.get("lint.findings.r12"))
            .and_then(mp_lint::json::Value::as_num),
        Some(1.0)
    );
}

#[test]
fn seeded_violations_fail_the_gate() {
    let dir = std::env::temp_dir().join(format!("mp-lint-seeded-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("server.rs"), SEEDED).expect("seed file");

    let result = gate_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch teardown");

    assert!(!result.passed(), "seeded gate unexpectedly passed");
    let by_rule = |rule: &str| -> Vec<u32> {
        result
            .findings
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.line)
            .collect()
    };
    assert_eq!(by_rule("R5"), vec![5], "R5: {:#?}", result.findings);
    assert_eq!(by_rule("R6"), vec![9], "R6: {:#?}", result.findings);
    assert_eq!(by_rule("R7"), vec![14], "R7: {:#?}", result.findings);
    assert_eq!(by_rule("R1"), vec![14], "R1 unwrap: {:#?}", result.findings);

    // Every finding also lands in the SARIF report.
    let results = result
        .sarif
        .get("results")
        .and_then(mp_lint::json::Value::as_arr)
        .expect("sarif results");
    assert_eq!(results.len(), result.findings.len());
}
