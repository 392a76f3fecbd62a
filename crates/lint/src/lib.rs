//! # mp-lint — workspace security-hygiene analyzer
//!
//! A from-scratch static analyzer for this workspace, built on a
//! purpose-built Rust lexer and statement-level parser (no `syn`, no
//! proc-macros, no dependencies at all). It enforces fifteen rules
//! derived from the MyProxy paper's §5 security analysis:
//!
//! - **R1 panic-freedom** — no `unwrap`/`expect`/`panic!`/indexing in
//!   the non-test code of the attacker-reachable files
//!   (`mp-core::{server,store,proto}`, `mp-gsi::{channel,wire,transport}`).
//! - **R2 secret hygiene** — secret-named values never flow into
//!   `format!`-family macros, and secret-bearing structs either use the
//!   zeroizing `mp_crypto::Secret` wrapper or implement `Drop`, and
//!   never derive `Debug`.
//! - **R3 constant-time discipline** — digests/MACs/tags are never
//!   compared with `==`/`!=`; `mp_crypto::ct_eq` is the only accepted
//!   comparison.
//! - **R4 wire-length safety** — no truncating `as u8/u16/u32` casts on
//!   length arithmetic in the DER encoder and the GSI wire layer.
//! - **R5 secret taint** ([`rules_v2`]) — values from `Secret::expose`,
//!   secret-named parameters, or PBKDF2 output may not reach format
//!   macros, wire writes, `#[derive(Debug)]` literals, or non-`Secret`
//!   returns, even through renamed locals; findings carry the taint
//!   path.
//! - **R6 discarded fallible ops** — `let _ =` / trailing `.ok()` on
//!   fallible protocol/channel/store calls in the service crates.
//! - **R7 lock discipline** — no guard held across channel/disk I/O;
//!   the merged lock-acquisition graph must be cycle-free.
//! - **R8 worker-pool blocking discipline** ([`rules_v3`], on the
//!   [`callgraph`] engine) — nothing reachable from a pool worker
//!   handler may spawn threads, read without bound, or fsync under a
//!   lock, outside the audited `mp_gsi::net` substrate.
//! - **R9 durability ordering** — mutating store paths that answer a
//!   client must order WAL-append → fsync → ack; renames on
//!   persistence paths need a directory fsync behind them.
//! - **R10 atomic-ordering discipline** — the mp-obs/stats counters
//!   are a documented `Relaxed`-only regime; stronger or mixed
//!   orderings on the same atomic are findings.
//! - **R11 deadline coverage** — socket I/O reachable from a serve
//!   loop must be dominated by a deadline arm/re-arm.
//! - **R12 wire-bounds taint** ([`rules_v4`]) — lengths decoded from
//!   the wire must pass a clamp before reaching an allocation
//!   (`with_capacity`, `vec![_; n]`, `reserve`/`resize`, `read_exact`),
//!   traced inter-procedurally with the decode-to-allocation path.
//! - **R13 channel/WAL typestate** — handshake before payload,
//!   BUSY/shed terminal, no store mutation before WAL attach on paths
//!   where the attach is visible.
//! - **R14 dispatch exhaustiveness** — every `Command` dispatcher
//!   handles all variants or answers the rest with an explicit error
//!   arm; a silent catch-all is a finding.
//! - **R15 resource leaks** — `.tmp` staging files without a
//!   rename/removal behind them, handler registrations in crates that
//!   never drain, request I/O under a stale pre-handshake deadline.
//!
//! Violations can be waived per line with
//! `// lint:allow(<rule>) <reason>` — the reason is mandatory; an
//! allow without one is itself reported. The total waiver count is
//! pinned by `lint-waivers.budget`; known pre-existing findings are
//! tracked in `lint-baseline.txt` (new findings and stale entries both
//! fail). [`gate_workspace`] also builds a SARIF-lite JSON report
//! validated against `docs/mp-lint.sarif-lite.schema.json`.
//!
//! The analyzer runs as a normal test: `cargo test -p mp-lint` walks
//! the workspace from `CARGO_MANIFEST_DIR/../..` and fails listing
//! every `file:line` finding. The same gate is available as a binary:
//! `cargo run -p mp-lint` (`--json`, `--check-waiver-budget`).

pub mod baseline;
pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod rules_v2;
pub mod rules_v3;
pub mod rules_v4;
pub mod sarif;
pub mod schema;

pub use rules::{check_source, Diagnostic, RuleSet, TaintStep};
pub use rules_v2::LockEdge;

use std::path::{Path, PathBuf};

/// Decide which rules apply to a workspace-relative path (always with
/// `/` separators). Returns an empty set for files the analyzer skips.
pub fn rules_for_path(rel: &str) -> RuleSet {
    // Out of scope entirely: vendored dependency shims, build output,
    // the linter's own fixtures (they contain violations on purpose),
    // and non-Rust files.
    if !rel.ends_with(".rs")
        || rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/fixtures/")
        || rel.starts_with("crates/lint/")
    {
        return RuleSet::default();
    }

    let mut rs = RuleSet::default();

    // R1: the attacker-reachable files named by the gate, plus all of
    // mp-obs — the metrics layer runs inside every request handler, so
    // a panic there takes the connection down with it.
    const R1_FILES: [&str; 9] = [
        "crates/core/src/server.rs",
        "crates/core/src/store.rs",
        "crates/core/src/proto.rs",
        "crates/core/src/wal.rs",
        "crates/core/src/repl.rs",
        "crates/gsi/src/channel.rs",
        "crates/gsi/src/wire.rs",
        "crates/gsi/src/transport.rs",
        "crates/gsi/src/net.rs",
    ];
    rs.r1 = R1_FILES.contains(&rel) || rel.starts_with("crates/obs/src/");

    // R2: everywhere in first-party sources (library code and binaries;
    // integration tests are exercised code, not shipped code).
    rs.r2 = !rel.contains("/tests/") && !rel.starts_with("tests/");

    // R3: crates handling key material or wire authentication.
    rs.r3 = (rel.starts_with("crates/crypto/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/");

    // R4: DER length encoding and the GSI framing layer.
    rs.r4 = rel.starts_with("crates/asn1/src/")
        || rel == "crates/gsi/src/wire.rs"
        || rel == "crates/gsi/src/record.rs";

    // R5 (secret taint): every crate that touches key material or the
    // pass phrase — same blast radius as R3 — plus mp-obs, because a
    // metric name or trace label derived from a secret would leak it
    // on every scrape.
    rs.r5 = (rel.starts_with("crates/crypto/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/portal/src/")
        || rel.starts_with("crates/obs/src/"))
        && !rel.contains("/tests/");

    // R6 (discarded fallible ops): the attacker-reachable service
    // crates — a silently dropped send/store error is an invisible
    // availability failure there.
    rs.r6 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/");

    // R7 (lock discipline): the crates that share locks between
    // connection threads, plus the worker-pool module itself. The rest
    // of mp-gsi is deliberately out: its in-memory pipe *is* the
    // transport primitive — the mutex/condvar rendezvous inside it is
    // the I/O, not something held across I/O.
    rs.r7 = ((rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/"))
        || rel == "crates/gsi/src/net.rs";

    // R8 (pool blocking discipline): every crate whose code can run on
    // a pool worker thread. This is also the call-graph-building scope
    // for the inter-procedural pass — gsi is included so helper
    // summaries (channel, delegation) resolve, with the net.rs
    // substrate's own blocking effects barriered inside it.
    rs.r8 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/")
        || rel.starts_with("crates/cli/src/"))
        && !rel.contains("/tests/");

    // R9 (durability ordering): the crates that own WAL/store state
    // and answer clients about it.
    rs.r9 = (rel.starts_with("crates/core/src/") || rel.starts_with("crates/gram/src/"))
        && !rel.contains("/tests/");

    // R10 (atomic orderings): the stats/metrics regime — mp-obs plus
    // the service crates whose counters feed it. The lock-free
    // channels in mp-gsi and the serial cache in mp-x509 use
    // Acquire/Release on purpose and are out of scope.
    rs.r10 = (rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/");

    // R11 (deadline coverage): everything that serves or spawns
    // connection handlers.
    rs.r11 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/")
        || rel.starts_with("crates/cli/src/"))
        && !rel.contains("/tests/");

    // R12 (wire-bounds taint): every crate that decodes frames or
    // feeds decoded lengths into allocations — the protocol surface
    // plus the gsi framing helpers the flows pass through.
    rs.r12 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/");

    // R13 (channel/WAL typestate): the crates that drive channels or
    // mutate stores.
    rs.r13 = rs.r12;

    // R14 (dispatch exhaustiveness): everywhere a `Command` value is
    // matched — the server, the gateways, and the CLI client.
    rs.r14 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/")
        || rel.starts_with("crates/cli/src/"))
        && !rel.contains("/tests/");

    // R15 (resource leaks): the crates that stage tmp files, register
    // handlers, or arm deadlines.
    rs.r15 = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/gsi/src/")
        || rel.starts_with("crates/gram/src/")
        || rel.starts_with("crates/portal/src/"))
        && !rel.contains("/tests/");

    rs
}

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

/// Lint a set of in-memory sources with explicit rule sets, including
/// the cross-file lock-graph pass. This is the engine behind
/// [`run_workspace`]; tests use it directly to seed scratch trees.
pub fn check_files(files: &[(String, String, RuleSet)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    // Parses retained for the v3/v4 inter-procedural passes (files are
    // parsed once here, shared by R7's edge collection and R8–R15).
    let mut parsed_files: Vec<(usize, parser::ParsedFile)> = Vec::new();
    for (idx, (rel, src, rules)) in files.iter().enumerate() {
        diags.extend(check_source(rel, src, *rules));
        let cross = rules.r8
            || rules.r9
            || rules.r10
            || rules.r11
            || rules.r12
            || rules.r13
            || rules.r14
            || rules.r15;
        if rules.r7 || cross {
            if let Ok(parsed) = parser::parse_source(src) {
                if rules.r7 {
                    edges.extend(rules_v2::lock_edges_for(rel, &parsed));
                }
                if cross {
                    parsed_files.push((idx, parsed));
                }
            }
        }
    }
    // Cross-file passes bypass check_source, so waivers are applied
    // here: lock-order cycles (R7) and the inter-procedural families
    // (R8–R15) all anchor findings at a line the waiver can sit on.
    let waived = |d: &Diagnostic| {
        files
            .iter()
            .find(|(rel, _, _)| *rel == d.file)
            .map(|(_, src, _)| rules::is_waived(src, d.rule, d.line))
            .unwrap_or(false)
    };
    for d in rules_v2::cycle_diags(&edges) {
        if !waived(&d) {
            diags.push(d);
        }
    }
    let v3_inputs: Vec<rules_v3::V3Input<'_>> = parsed_files
        .iter()
        .map(|(idx, parsed)| rules_v3::V3Input {
            rel: files[*idx].0.clone(),
            parsed,
            rules: files[*idx].2,
        })
        .collect();
    // One call graph, shared by both inter-procedural passes. Its
    // scope is the union of the graph-walking rules' scopes: files
    // only in R10/R12/R14 scope (token/dataflow passes) stay out.
    let graph_files: Vec<(String, &parser::ParsedFile)> = v3_inputs
        .iter()
        .filter(|f| {
            f.rules.r8 || f.rules.r9 || f.rules.r11 || f.rules.r13 || f.rules.r15
        })
        .map(|f| (f.rel.clone(), f.parsed))
        .collect();
    let graph =
        (!graph_files.is_empty()).then(|| callgraph::CallGraph::build(&graph_files));
    for d in rules_v3::run_v3(&v3_inputs, graph.as_ref()) {
        if !waived(&d) {
            diags.push(d);
        }
    }
    for d in rules_v4::run_v4(&v3_inputs, graph.as_ref()) {
        if !waived(&d) {
            diags.push(d);
        }
    }
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diags
}

/// Lint every in-scope `.rs` file under `root` (the workspace root).
/// Returns all diagnostics, sorted by file then line.
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths);

    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let rules = rules_for_path(&rel);
        if rules.none() {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        files.push((rel, src, rules));
    }
    check_files(&files)
}

/// Gate outcome: what [`gate_workspace`] found after baseline matching.
pub struct GateResult {
    /// The baseline split (new findings fail; baselined are tracked;
    /// stale entries fail).
    pub split: baseline::BaselineSplit,
    /// The full SARIF-lite document for all findings.
    pub sarif: json::Value,
}

impl GateResult {
    /// The gate passes iff nothing new fired and no baseline entry is
    /// stale.
    pub fn passed(&self) -> bool {
        self.split.new.is_empty() && self.split.stale.is_empty()
    }
}

/// Run the full workspace gate: lint, match against the committed
/// baseline, and build the SARIF-lite report.
pub fn gate_workspace(root: &Path) -> GateResult {
    let diags = run_workspace(root);
    let bl = baseline::load(root);
    let split = baseline::split(diags, &bl);
    let mut annotated: Vec<(Diagnostic, bool)> = split
        .new
        .iter()
        .map(|d| (d.clone(), false))
        .chain(split.baselined.iter().map(|d| (d.clone(), true)))
        .collect();
    annotated.sort_by(|a, b| {
        (a.0.file.as_str(), a.0.line, a.0.rule).cmp(&(b.0.file.as_str(), b.0.line, b.0.rule))
    });
    let sarif = sarif::report(&annotated);
    GateResult { split, sarif }
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

    #[test]
    fn scope_selection() {
        let rs = rules_for_path("crates/core/src/server.rs");
        assert!(rs.r1 && rs.r2 && rs.r3 && !rs.r4);

        let rs = rules_for_path("crates/asn1/src/encode.rs");
        assert!(!rs.r1 && rs.r2 && !rs.r3 && rs.r4);

        let rs = rules_for_path("crates/gsi/src/wire.rs");
        assert!(rs.r1 && rs.r2 && rs.r3 && rs.r4);

        let rs = rules_for_path("crates/gsi/src/net.rs");
        assert!(rs.r1 && rs.r6 && rs.r7, "worker pool is in the gate");
        let rs = rules_for_path("crates/gsi/src/transport.rs");
        assert!(!rs.r7, "in-memory pipe internals stay out of R7");

        let rs = rules_for_path("crates/obs/src/registry.rs");
        assert!(rs.r1 && rs.r5, "metrics layer is panic-free and taint-checked");
        assert!(!rs.r3 && !rs.r4, "mp-obs holds no keys and no DER");
        assert!(rs.r10 && !rs.r8 && !rs.r9 && !rs.r11, "obs: atomics regime only");

        let rs = rules_for_path("crates/core/src/server.rs");
        assert!(rs.r8 && rs.r9 && rs.r10 && rs.r11, "server is fully v3-scoped");
        let rs = rules_for_path("crates/gsi/src/net.rs");
        assert!(rs.r8 && !rs.r9 && !rs.r10 && !rs.r11, "net: in the graph, R8 scope");
        let rs = rules_for_path("crates/cli/src/bin/myproxy.rs");
        assert!(rs.r8 && rs.r11 && !rs.r9 && !rs.r10, "cli serves nothing but spawns");
        let rs = rules_for_path("crates/crypto/src/lib.rs");
        assert!(!rs.r8 && !rs.r9 && !rs.r10 && !rs.r11, "crypto out of v3 scope");
        let rs = rules_for_path("crates/core/tests/robustness.rs");
        assert!(!rs.r8 && !rs.r9 && !rs.r10 && !rs.r11, "integration tests out");

        let rs = rules_for_path("crates/core/src/repl.rs");
        assert!(rs.r1, "replication wire surface is in the panic-free gate");
        assert!(rs.r9 && rs.r13, "ship-after-fsync ordering and stream typestate in scope");

        let rs = rules_for_path("crates/core/src/server.rs");
        assert!(rs.r12 && rs.r13 && rs.r14 && rs.r15, "server is fully v4-scoped");
        let rs = rules_for_path("crates/gsi/src/record.rs");
        assert!(rs.r12 && rs.r13 && rs.r15 && !rs.r14, "framing: taint but no dispatch");
        let rs = rules_for_path("crates/cli/src/bin/myproxy.rs");
        assert!(rs.r14 && !rs.r12 && !rs.r15, "cli dispatches but decodes no frames");
        let rs = rules_for_path("crates/obs/src/registry.rs");
        assert!(!rs.r12 && !rs.r13 && !rs.r14 && !rs.r15, "obs out of v4 scope");
        let rs = rules_for_path("crates/core/tests/robustness.rs");
        assert!(!rs.r12 && !rs.r13 && !rs.r14 && !rs.r15, "integration tests out of v4");

        assert!(rules_for_path("vendor/rand/src/lib.rs").none());
        assert!(rules_for_path("crates/lint/src/rules.rs").none());
        assert!(rules_for_path("crates/lint/tests/fixtures/r1_panics.rs").none());
        assert!(rules_for_path("README.md").none());
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
