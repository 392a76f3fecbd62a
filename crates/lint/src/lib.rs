//! # mp-lint — workspace security-hygiene analyzer
//!
//! A from-scratch static analyzer for this workspace, built on a
//! purpose-built Rust lexer and statement-level parser (no `syn`, no
//! proc-macros, no dependencies at all). It enforces twelve rules
//! derived from the MyProxy paper's §5 security analysis, as one
//! pipeline: each file is lexed and parsed once ([`parser`]), each
//! function is walked once into an ordered fact stream ([`facts`]),
//! the call graph's effect summaries are run to a fixpoint over those
//! facts ([`callgraph`]), and every rule is a function over tokens,
//! facts or summaries registered in one table ([`rules::RULES`]):
//!
//! - **R1 panic-freedom** ([`availability`]) — no
//!   `unwrap`/`expect`/`panic!`/indexing in the non-test code of the
//!   attacker-reachable files (`mp-core::{server,store,proto,wal,repl}`,
//!   `mp-gsi::{channel,wire,transport,net}`, all of `mp-obs`).
//! - **R2 secret hygiene** ([`secrets`]) — secret-named values never
//!   flow into `format!`-family macros, and secret-bearing structs
//!   either use the zeroizing `mp_crypto::Secret` wrapper or implement
//!   `Drop`, and never derive `Debug`.
//! - **R3 constant-time discipline** — digests/MACs/tags are never
//!   compared with `==`/`!=`; `mp_crypto::ct_eq` is the only accepted
//!   comparison.
//! - **R4 wire-length safety** — no truncating `as u8/u16/u32` casts
//!   on length arithmetic in the DER encoder and the GSI wire layer.
//! - **R5 secret taint** — values from `Secret::expose`, secret-named
//!   parameters, or PBKDF2 output may not reach format macros, wire
//!   writes, `#[derive(Debug)]` literals, or non-`Secret` returns, even
//!   through renamed locals; findings carry the taint path.
//! - **R6 discarded fallible ops** — `let _ =` / trailing `.ok()` on
//!   fallible protocol/channel/store calls in the service crates.
//! - **R7 lock discipline** ([`locks`]) — no guard held across
//!   channel/disk I/O; the merged lock-acquisition graph must be
//!   cycle-free.
//! - **R8 worker-pool blocking discipline** ([`protocol`]) — nothing
//!   reachable from a pool worker handler may spawn threads, read
//!   without bound, or fsync under a lock, outside the audited
//!   `mp_gsi::net` substrate.
//! - **R9 durability ordering** — mutating store paths that answer a
//!   client must order WAL-append → fsync → ack; renames on
//!   persistence paths need a directory fsync behind them.
//! - **R11 deadline coverage** — socket I/O reachable from a serve
//!   loop must be dominated by a deadline arm/re-arm.
//! - **R13 channel/WAL typestate** — handshake before payload,
//!   BUSY/shed terminal, no store mutation before WAL attach on paths
//!   where the attach is visible.
//! - **R15 resource leaks** — `.tmp` staging files without a
//!   rename/removal behind them, handler registrations in crates that
//!   never drain, request I/O under a stale pre-handshake deadline.
//!
//! (R10, R12 and R14 are retired: rustc checks what they policed — see
//! [`rules`].)
//!
//! Violations can be waived per line with
//! `// lint:allow(<rule>) <reason>` — the reason is mandatory; an
//! allow without one is itself reported. The total waiver count is
//! pinned by `lint-waivers.budget`, and a waiver is the only way to
//! silence a finding.
//!
//! The analyzer runs as a normal test: `cargo test -p mp-lint` walks
//! the workspace from `CARGO_MANIFEST_DIR/../..` and fails listing
//! every finding as `file:line: [rule] message`.

pub mod availability;
pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod protocol;
pub mod rules;
pub mod secrets;
pub mod waivers;

pub use rules::{rules_for_path, Diagnostic, RuleSet, SourceFile, TaintStep};

use callgraph::CallGraph;
use rules::{Runner, RULES};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir`, skipping directories
/// the analyzer never looks at.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `root` that at least one rule applies to, as
/// (workspace-relative path, path on disk, applicable rules).
pub(crate) fn scoped_files(root: &Path) -> Vec<(String, PathBuf, RuleSet)> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths);
    paths
        .into_iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let rules = rules_for_path(&rel);
            (!rules.is_empty()).then_some((rel, path, rules))
        })
        .collect()
}

/// Lint a set of in-memory sources with explicit rule sets. This is
/// the whole pipeline — each file is lexed, parsed and walked once,
/// every rule in the table runs over the files it is enabled for, and
/// waivers are applied to the lot; [`run_workspace`] is this over the
/// files on disk, and tests use it directly to seed scratch trees.
pub fn check_files(files: &[(String, String, RuleSet)]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> =
        files.iter().map(|(rel, src, rules)| SourceFile::new(rel, src, *rules)).collect();
    let enabled = |id: &'static str| files.iter().filter(move |f| f.rules.has(id));

    // One call graph, shared by every summary rule, over the union of
    // their scopes; built only when one of them is enabled somewhere.
    let in_graph: Vec<&SourceFile> = files
        .iter()
        .filter(|f| RULES.iter().any(|r| matches!(r.run, Runner::Summaries(_)) && f.rules.has(r.id)))
        .collect();
    let graph = (!in_graph.is_empty()).then(|| {
        CallGraph::from_facts(in_graph.iter().map(|f| (f.rel.as_str(), &f.parsed, f.facts())))
    });

    let mut raw = Vec::new();
    for f in &files {
        if let Some(e) = &f.parsed.error {
            let message = format!("mp-lint parser failed ({e}); function-level rules not applied");
            raw.push(Diagnostic::new(&f.rel, e.line, "parse", message));
        }
    }
    for rule in RULES {
        match rule.run {
            Runner::File(run) => raw.extend(enabled(rule.id).flat_map(run)),
            Runner::Files(run) => raw.extend(run(&enabled(rule.id).collect::<Vec<_>>())),
            Runner::Summaries(run) => {
                if let Some(graph) = &graph {
                    let scope: HashSet<&str> = enabled(rule.id).map(|f| f.rel.as_str()).collect();
                    raw.extend(run(graph, &|rel| scope.contains(rel)));
                }
            }
        }
    }

    let mut diags = waivers::apply(&files, raw);
    // Nested fns are parsed both inside their parent's body and on
    // their own, and a flow can be reached along several call paths:
    // an identical finding is reported once.
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule, b.message.as_str()))
    });
    diags.dedup();
    diags
}

/// Run the selected rules over one file's source.
pub fn check_source(file: &str, src: &str, rules: RuleSet) -> Vec<Diagnostic> {
    check_files(&[(file.to_string(), src.to_string(), rules)])
}

/// Lint every in-scope `.rs` file under `root` (the workspace root).
/// Returns all diagnostics, sorted by file then line; the gate passes
/// iff there are none.
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    let files: Vec<(String, String, RuleSet)> = scoped_files(root)
        .into_iter()
        .filter_map(|(rel, path, rules)| Some((rel, std::fs::read_to_string(path).ok()?, rules)))
        .collect();
    check_files(&files)
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which of `ids` apply to `rel`, as a list (absent ones dropped).
    fn applied(rel: &str, ids: &[&'static str]) -> Vec<&'static str> {
        let rs = rules_for_path(rel);
        ids.iter().copied().filter(|id| rs.has(id)).collect()
    }

    #[test]
    fn scope_selection() {
        let v1 = ["R1", "R2", "R3", "R4"];
        assert_eq!(applied("crates/core/src/server.rs", &v1), ["R1", "R2", "R3"]);
        assert_eq!(applied("crates/asn1/src/encode.rs", &v1), ["R2", "R4"]);
        assert_eq!(applied("crates/gsi/src/wire.rs", &v1), v1);

        let rs = rules_for_path("crates/gsi/src/net.rs");
        assert!(rs.has("R1") && rs.has("R6") && rs.has("R7"), "worker pool is in the gate");
        let rs = rules_for_path("crates/gsi/src/transport.rs");
        assert!(!rs.has("R7"), "in-memory pipe internals stay out of R7");

        let rs = rules_for_path("crates/obs/src/registry.rs");
        assert!(rs.has("R1") && rs.has("R5"), "metrics layer is panic-free and taint-checked");
        assert!(!rs.has("R3") && !rs.has("R4"), "mp-obs holds no keys and no DER");

        let summaries = ["R8", "R9", "R11"];
        assert_eq!(applied("crates/obs/src/registry.rs", &summaries), [""; 0], "obs serves nothing");
        assert_eq!(applied("crates/core/src/server.rs", &summaries), summaries);
        assert_eq!(applied("crates/gsi/src/net.rs", &summaries), ["R8"], "net: in the graph, R8 scope");
        assert_eq!(
            applied("crates/cli/src/bin/myproxy.rs", &summaries),
            ["R8", "R11"],
            "cli serves nothing but spawns"
        );
        assert_eq!(applied("crates/crypto/src/lib.rs", &summaries), [""; 0], "crypto out of scope");
        assert_eq!(applied("crates/core/tests/robustness.rs", &summaries), [""; 0], "tests out");

        let rs = rules_for_path("crates/core/src/repl.rs");
        assert!(rs.has("R1"), "replication wire surface is in the panic-free gate");
        assert!(rs.has("R9") && rs.has("R13"), "ship-after-fsync ordering and stream typestate in scope");

        let typestate = ["R13", "R15"];
        assert_eq!(applied("crates/core/src/server.rs", &typestate), typestate);
        assert_eq!(applied("crates/gsi/src/record.rs", &typestate), typestate, "framing too");
        assert_eq!(applied("crates/cli/src/bin/myproxy.rs", &typestate), [""; 0], "cli decodes no frames");
        assert_eq!(applied("crates/obs/src/registry.rs", &typestate), [""; 0], "obs out of scope");
        assert_eq!(applied("crates/core/tests/robustness.rs", &typestate), [""; 0], "tests out");

        assert!(rules_for_path("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for_path("crates/lint/src/rules.rs").is_empty());
        assert!(rules_for_path("crates/lint/tests/fixtures/r1_panics.rs").is_empty());
        assert!(rules_for_path("README.md").is_empty());
    }

    #[test]
    fn walker_finds_scoped_files() {
        let root = workspace_root();
        let mut files = Vec::new();
        collect_rs(&root, &mut files);
        let rels: Vec<String> = files
            .iter()
            .map(|p| p.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/"))
            .collect();
        assert!(rels.iter().any(|r| r == "crates/core/src/server.rs"), "{rels:?}");
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
        assert!(!rels.iter().any(|r| r.contains("/fixtures/")));
    }
}
