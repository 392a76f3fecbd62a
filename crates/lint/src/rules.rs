//! The rule table: every rule the analyzer knows, keyed to the paper's
//! §5 security analysis, with the path prefixes it applies to and the
//! function that runs it. Scope selection ([`rules_for_path`]), the
//! dispatcher ([`crate::check_files`]) and the fixture harness's
//! coverage check are all derived from [`RULES`].
//!
//! | rule | property | §5 claim it protects |
//! |------|----------|----------------------|
//! | R1   | panic-freedom on attacker-reachable paths | repository availability under malicious clients |
//! | R2   | secrets never flow into logging/Debug     | no pass-phrase / private-key disclosure via logs |
//! | R3   | constant-time comparison of digests/MACs  | no pass-phrase verification oracle |
//! | R4   | no truncating casts in length arithmetic  | wire parsing cannot be length-confused |
//! | R5   | secret taint: exposed secrets never reach logs/wire/Debug/returns | non-disclosure survives renaming — flow, not names |
//! | R6   | fallible protocol/store ops are never silently discarded | a dropped send error is an invisible outage |
//! | R7   | lock discipline: no guard held across I/O, no order cycles | one slow peer must not stall the repository |
//! | R8   | nothing blocking reachable from a pool worker | bounded serving substrate stays bounded |
//! | R9   | WAL-append → fsync → ack; rename → dir fsync | an acknowledged deposit survives a crash |
//! | R11  | socket I/O is dominated by a deadline arm | a stalled peer cannot park a thread forever |
//! | R13  | handshake before payload, BUSY terminal, WAL attach before mutation | protocol states are never skipped |
//! | R15  | tmp files, handler registrations and deadlines are released | no slow resource leak under hostile traffic |
//!
//! R10 (Relaxed-only stats atomics), R12 (wire-decoded lengths clamped
//! before allocating) and R14 (dispatch exhaustiveness) are retired:
//! the compiler owns all three checks now (`mp_obs::RelaxedU64` takes
//! no ordering; `mp_gsi::record::FrameLen` is the only value
//! `read_frame` allocates from and only its bound-checking
//! constructors make one; the `Command` matches have no wildcard arm).
//! See `docs/STATIC_ANALYSIS.md`.

use std::cell::OnceCell;

use crate::callgraph::CallGraph;
use crate::facts::{self, FnFacts};
use crate::lexer::Token;
use crate::parser::{self, Function, ParsedFile};
use crate::waivers::{parse_allows, Allow};
use crate::{availability, locks, protocol, secrets};

/// One hop in a taint or call path: how a value (or an effect)
/// traveled from its origin to the finding's sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintStep {
    /// 1-based line of the hop.
    pub line: u32,
    /// What happened at this hop ("secret exposed via `..`", "tainted
    /// value bound to `x`", "reaches `println!`").
    pub note: String,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id from [`RULES`], "allow" for malformed annotations, or
    /// "parse" for a file the parser could not structure.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Origin-to-sink hops for dataflow findings (empty otherwise).
    pub path: Vec<TaintStep>,
}

impl Diagnostic {
    pub fn new(file: &str, line: u32, rule: &'static str, message: String) -> Self {
        Diagnostic { file: file.into(), line, rule, message, path: Vec::new() }
    }

    pub fn with_path(mut self, path: Vec<TaintStep>) -> Self {
        self.path = path;
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One file on its way through the pipeline: lexed and parsed once,
/// its functions walked once (on first use), its waivers parsed once.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub parsed: ParsedFile,
    /// The rules that apply to this file.
    pub rules: RuleSet,
    facts: OnceCell<Vec<Option<FnFacts>>>,
    pub(crate) allows: Vec<Allow>,
}

impl SourceFile {
    pub fn new(rel: &str, src: &str, rules: RuleSet) -> Self {
        let parsed = parser::parse(src);
        let allows = parse_allows(&parsed.lexed.comments);
        SourceFile { rel: rel.into(), parsed, rules, facts: OnceCell::new(), allows }
    }

    pub fn toks(&self) -> &[Token] {
        &self.parsed.lexed.tokens
    }

    /// Fact streams parallel to `parsed.functions` (`None` for test
    /// functions).
    pub fn facts(&self) -> &[Option<FnFacts>] {
        self.facts.get_or_init(|| facts::walk_file(&self.parsed))
    }

    /// Every non-test function with its fact stream.
    pub fn fns(&self) -> impl Iterator<Item = (&Function, &FnFacts)> {
        self.parsed.functions.iter().zip(self.facts()).filter_map(|(f, w)| Some((f, w.as_ref()?)))
    }
}

/// Which files a summary rule is enabled for.
pub type Scope<'a> = &'a dyn Fn(&str) -> bool;

/// How a rule consumes the pipeline's output.
pub enum Runner {
    /// One file at a time: token patterns, or per-function facts.
    File(fn(&SourceFile) -> Vec<Diagnostic>),
    /// Every in-scope file at once: the cross-function lock-order
    /// graph.
    Files(fn(&[&SourceFile]) -> Vec<Diagnostic>),
    /// The converged effect summaries of the shared call graph.
    Summaries(fn(&CallGraph, Scope) -> Vec<Diagnostic>),
}

/// One row of the rule table.
pub struct Rule {
    pub id: &'static str,
    /// Workspace-relative path prefixes the rule applies to (a full
    /// file path is a prefix of itself).
    pub scope: &'static [&'static str],
    pub run: Runner,
}

const CORE: &str = "crates/core/src/";
const GSI: &str = "crates/gsi/src/";
const GRAM: &str = "crates/gram/src/";
const PORTAL: &str = "crates/portal/src/";
const CLI: &str = "crates/cli/src/";
const CRYPTO: &str = "crates/crypto/src/";
const OBS: &str = "crates/obs/src/";

/// The attacker-reachable service crates.
const SERVICE: &[&str] = &[CORE, GSI, GRAM, PORTAL];

pub const RULES: &[Rule] = &[
    Rule {
        id: "R1",
        // The attacker-reachable files named by the gate, plus all of
        // mp-obs — the metrics layer runs inside every request handler,
        // so a panic there takes the connection down with it.
        scope: &[
            "crates/core/src/server.rs",
            "crates/core/src/store.rs",
            "crates/core/src/proto.rs",
            "crates/core/src/wal.rs",
            "crates/core/src/repl.rs",
            "crates/gsi/src/channel.rs",
            "crates/gsi/src/wire.rs",
            "crates/gsi/src/lines.rs",
            "crates/gsi/src/transport.rs",
            "crates/gsi/src/net.rs",
            OBS,
        ],
        run: Runner::File(availability::r1_panics),
    },
    // Everywhere in first-party sources (library code and binaries).
    Rule { id: "R2", scope: &[""], run: Runner::File(secrets::r2_secret_hygiene) },
    // Crates handling key material or wire authentication.
    Rule {
        id: "R3",
        scope: &[CRYPTO, GSI, CORE, PORTAL],
        run: Runner::File(secrets::r3_constant_time),
    },
    // DER length encoding and the GSI framing layer.
    Rule {
        id: "R4",
        scope: &["crates/asn1/src/", "crates/gsi/src/wire.rs", "crates/gsi/src/record.rs"],
        run: Runner::File(availability::r4_truncating_casts),
    },
    // Same blast radius as R3, plus mp-obs: a metric name or trace
    // label derived from a secret would leak it on every scrape.
    Rule {
        id: "R5",
        scope: &[CRYPTO, GSI, CORE, PORTAL, OBS],
        run: Runner::File(secrets::r5_secret_taint),
    },
    Rule { id: "R6", scope: SERVICE, run: Runner::File(availability::r6_discarded_fallible) },
    // The crates that share locks between connection threads, plus the
    // worker-pool module itself. The rest of mp-gsi is deliberately
    // out: its in-memory pipe *is* the transport primitive — the
    // mutex/condvar rendezvous inside it is the I/O, not something
    // held across I/O.
    Rule {
        id: "R7",
        scope: &[CORE, GRAM, PORTAL, "crates/gsi/src/net.rs"],
        run: Runner::Files(locks::r7_lock_discipline),
    },
    // Every crate whose code can run on a pool worker thread; gsi is
    // included so helper summaries (channel, delegation) resolve, with
    // the net.rs substrate's own blocking effects barriered inside it.
    Rule {
        id: "R8",
        scope: &[CORE, GSI, GRAM, PORTAL, CLI],
        run: Runner::Summaries(protocol::r8_pool_blocking),
    },
    // The crates that own WAL/store state and answer clients about it.
    Rule { id: "R9", scope: &[CORE, GRAM], run: Runner::Summaries(protocol::r9_durability) },
    // Everything that serves or spawns connection handlers.
    Rule {
        id: "R11",
        scope: &[CORE, GRAM, PORTAL, CLI],
        run: Runner::Summaries(protocol::r11_deadlines),
    },
    // The crates that drive channels or mutate stores.
    Rule { id: "R13", scope: SERVICE, run: Runner::Summaries(protocol::r13_typestate) },
    // The crates that stage tmp files, register handlers, or arm
    // deadlines.
    Rule { id: "R15", scope: SERVICE, run: Runner::Summaries(protocol::r15_leaks) },
];

/// A set of rules, keyed by position in [`RULES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet(u32);

impl RuleSet {
    /// The rules named by `ids`. Panics on an id that is not in the
    /// table — a typo in a test must not silently check nothing.
    pub fn of(ids: &[&str]) -> Self {
        RuleSet(ids.iter().fold(0, |bits, id| {
            let i = RULES.iter().position(|r| r.id == *id);
            bits | 1 << i.unwrap_or_else(|| panic!("no rule `{id}` in the table"))
        }))
    }

    /// All rules on (fixtures and tests use this).
    pub fn all() -> Self {
        RuleSet((1 << RULES.len()) - 1)
    }

    pub fn has(self, id: &str) -> bool {
        RULES.iter().position(|r| r.id == id).is_some_and(|i| self.0 >> i & 1 == 1)
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Which rules apply to a workspace-relative path (always with `/`
/// separators). Empty for files the analyzer skips: vendored
/// dependency shims, build output, the linter itself and its
/// fixtures (they contain violations on purpose), non-Rust files,
/// and integration tests (exercised code, not shipped code).
pub fn rules_for_path(rel: &str) -> RuleSet {
    if !rel.ends_with(".rs")
        || rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.starts_with("crates/lint/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/fixtures/")
    {
        return RuleSet::default();
    }
    let applies = |r: &Rule| r.scope.iter().any(|prefix| rel.starts_with(prefix));
    RuleSet(RULES.iter().enumerate().fold(0, |bits, (i, r)| bits | u32::from(applies(r)) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_source;

    fn token_rules() -> RuleSet {
        RuleSet::of(&["R1", "R2", "R3", "R4"])
    }

    fn lines_with(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
        diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
    }

    #[test]
    fn r1_flags_unwrap_and_panic() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\");\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert_eq!(lines_with(&d, "R1"), vec![2, 5]);
    }

    #[test]
    fn r1_skips_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert!(lines_with(&d, "R1").is_empty(), "{d:?}");
    }

    #[test]
    fn r1_flags_indexing_but_not_macros_or_types() {
        let src = "fn f(xs: &[u8]) -> u8 {\n    let v = vec![1, 2];\n    let t: [u8; 4] = [0; 4];\n    xs[0]\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert_eq!(lines_with(&d, "R1"), vec![4]);
    }

    #[test]
    fn r2_flags_secret_in_format() {
        let src = "fn f(passphrase: &str) {\n    println!(\"pw={}\", passphrase);\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert_eq!(lines_with(&d, "R2"), vec![2]);
    }

    #[test]
    fn r2_flags_inline_format_capture() {
        let src = "fn f(passphrase: &str) {\n    println!(\"pw={passphrase}\");\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert_eq!(lines_with(&d, "R2"), vec![2]);
    }

    #[test]
    fn r2_ignores_secret_word_in_string_literal() {
        let src = "fn f() {\n    println!(\"enter your passphrase: \");\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert!(lines_with(&d, "R2").is_empty(), "{d:?}");
    }

    #[test]
    fn r2_flags_debug_derive_on_secret_struct() {
        let src = "#[derive(Clone, Debug)]\nstruct Creds {\n    username: String,\n    passphrase: String,\n}\n";
        let d = check_source("t.rs", src, token_rules());
        // Two findings: Debug derive + missing Drop.
        assert_eq!(lines_with(&d, "R2"), vec![4, 4]);
        // The derive belongs to the item, visibility or not.
        let d = check_source("t.rs", &src.replace("struct", "pub(crate) struct"), token_rules());
        assert_eq!(lines_with(&d, "R2"), vec![4, 4]);
    }

    #[test]
    fn r2_ignores_scalar_fields_about_secrets() {
        let src = "#[derive(Debug)]\nstruct Policy {\n    min_passphrase_len: usize,\n    require_passphrase: bool,\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert!(lines_with(&d, "R2").is_empty(), "{d:?}");
    }

    #[test]
    fn r2_accepts_secret_wrapper_or_drop() {
        let ok1 = "struct Creds {\n    passphrase: Secret<String>,\n}\n";
        assert!(check_source("t.rs", ok1, token_rules()).is_empty());
        let ok2 = "struct Creds {\n    passphrase: String,\n}\nimpl Drop for Creds {\n    fn drop(&mut self) { }\n}\n";
        assert!(check_source("t.rs", ok2, token_rules()).is_empty());
    }

    #[test]
    fn r3_flags_mac_equality_but_not_protocol_tags() {
        let bad = "fn f(their_mac: &[u8], expect: &[u8]) -> bool {\n    their_mac == expect\n}\n";
        let d = check_source("t.rs", bad, token_rules());
        assert_eq!(lines_with(&d, "R3"), vec![2]);

        let ok = "fn f(tag: u8) -> bool {\n    tag == 0x30\n}\n";
        assert!(check_source("t.rs", ok, token_rules()).is_empty());

        let ok2 = "fn f(tag: Tag) -> bool {\n    tag == Tag::SEQUENCE\n}\n";
        assert!(check_source("t.rs", ok2, token_rules()).is_empty());
    }

    #[test]
    fn r4_flags_len_truncation() {
        let bad = "fn f(v: &[u8]) -> u8 {\n    v.len() as u8\n}\n";
        let d = check_source("t.rs", bad, token_rules());
        assert_eq!(lines_with(&d, "R4"), vec![2]);

        // Widening a byte is fine; no length ident nearby.
        let ok = "fn g(b: u8) -> u32 {\n    (b - 48) as u32\n}\n";
        assert!(check_source("t.rs", ok, token_rules()).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    v.len() as u8 // lint:allow(R4) bounded to 16 by caller\n}\n";
        assert!(check_source("t.rs", src, token_rules()).is_empty());
        // Standalone comment line applies to the next line.
        let src2 = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(R4) bounded to 16 by caller\n    v.len() as u8\n}\n";
        assert!(check_source("t.rs", src2, token_rules()).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f(v: &[u8]) -> u8 {\n    v.len() as u8 // lint:allow(R4)\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert!(d.iter().any(|x| x.rule == "allow"), "{d:?}");
        // And the original violation is NOT suppressed.
        assert!(d.iter().any(|x| x.rule == "R4"), "{d:?}");
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src =
            "fn f(v: &[u8]) -> u8 {\n    v.len() as u8 // lint:allow(R1) wrong rule cited\n}\n";
        let d = check_source("t.rs", src, token_rules());
        assert!(d.iter().any(|x| x.rule == "R4"), "{d:?}");
    }

    #[test]
    fn diagnostics_carry_file_and_line() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let d = check_source("crates/core/src/server.rs", src, token_rules());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].file, "crates/core/src/server.rs");
        assert_eq!(d[0].line, 1);
        let s = d[0].to_string();
        assert!(s.starts_with("crates/core/src/server.rs:1: [R1]"), "{s}");
    }
}
