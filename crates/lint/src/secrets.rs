//! Secret handling: secret-named values never reach a log line or a
//! `Debug` impl (R2), digests and MACs are compared in constant time
//! (R3), and — names aside — no value that *flowed* from a secret
//! reaches a log, the wire, a `Debug`-deriving struct or a non-`Secret`
//! return (R5).
//!
//! R5 is per-function, flow-sensitive in statement order, two passes
//! so loop back-edges converge, no inter-procedural propagation. What
//! it *does* model is the exact shape of this codebase's secret
//! handling:
//!
//! - **sources**: `.expose()` / `.expose_mut()` on a `Secret`,
//!   `pbkdf2*` output (including `&mut` out-params), and
//!   secret/OTP/passphrase-named *parameters*;
//! - **sanitizers**: one-way or sealing transforms (`sha256`, `mac`,
//!   `seal`, `ct_eq`, `len`, …) — a value that went through one is no
//!   longer the secret;
//! - **containers**: re-wrapping into `Secret`/`Credential` ends the
//!   taint (those types redact and zeroize — that *is* the fix);
//! - **sinks**: format/log macros (incl. inline `"{captures}"`), wire
//!   and disk writes, `Debug`-deriving struct literals, and returning
//!   a tainted value from a function whose type is not `Secret`.
//!
//! R5 is the analyzer's one taint engine. (The wire-length taint rule
//! R12 is retired: `mp_gsi::record::FrameLen` made its one product
//! sink a type error.)
//!
//! The struct-shaped halves of R2 and R5 (which structs hold a
//! secret-named field, which derive `Debug`) read the parser's struct
//! list ([`crate::parser::Struct`]).

use crate::facts::{Call, Fact, FnFacts};
use crate::lexer::{matching_close, punct_at, Token, TokenKind};
use crate::parser::{Function, Stmt, StmtKind};
use crate::rules::{Diagnostic, SourceFile, TaintStep};
use std::collections::HashMap;

/// Identifier patterns treated as secret-bearing for R2/R3.
pub(crate) fn is_secret_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower.contains("passphrase")
        || lower.contains("pass_phrase")
        || lower.contains("password")
        || lower.contains("secret")
        || lower == "priv"
        || lower.starts_with("priv_")
        || lower.contains("private_key")
        || lower.ends_with("_key") && !lower.ends_with("public_key") && !lower.ends_with("pub_key")
}

/// Identifier patterns naming digest/MAC/tag values for R3.
fn is_digest_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower == "mac"
        || lower.ends_with("_mac")
        || lower.starts_with("mac_")
        || lower == "hmac"
        || lower.ends_with("_hmac")
        || lower == "digest"
        || lower.ends_with("_digest")
        || lower.starts_with("digest_")
        || lower == "fingerprint"
        || lower.ends_with("_fingerprint")
        || lower == "anchor"
        || lower.ends_with("_anchor")
        || lower == "tag"
        || lower.ends_with("_tag")
}

/// Format/printing macros whose arguments R2 inspects.
pub(crate) fn is_format_macro(ident: &str) -> bool {
    matches!(
        ident,
        "format"
            | "println"
            | "print"
            | "eprintln"
            | "eprint"
            | "write"
            | "writeln"
            | "log"
            | "debug"
            | "info"
            | "warn"
            | "error"
            | "trace"
            | "panic"
            | "assert"
            | "assert_eq"
            | "assert_ne"
            | "format_args"
    )
}

/// R2: secret-named values never flow into a format macro, and
/// secret-bearing structs are zeroizing and never derive `Debug`.
pub(crate) fn r2_secret_hygiene(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_r2_flow(file, &mut diags);
    rule_r2_structs(file, &mut diags);
    diags
}

/// R2 (flow part): a secret-named identifier appearing inside the
/// argument list of a format-like macro.
fn rule_r2_flow(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let (tokens, mask) = (file.toks(), &file.parsed.test_mask);
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let is_macro =
            t.kind == TokenKind::Ident && is_format_macro(&t.text) && punct_at(tokens, i + 1, '!');
        // Walk the macro's delimited argument list.
        let Some(close) =
            matching_close(tokens, i + 2, tokens.len()).filter(|_| is_macro && !mask[i])
        else {
            i += 1;
            continue;
        };
        for (j, tj) in tokens.iter().enumerate().take(close).skip(i + 3) {
            if mask[j] {
                continue;
            }
            if tj.kind == TokenKind::Ident && is_secret_ident(&tj.text) {
                let message = format!(
                    "secret-named identifier `{}` flows into `{}!`; log a redacted form instead",
                    tj.text, t.text
                );
                diags.push(Diagnostic::new(&file.rel, tj.line, "R2", message));
            } else if tj.kind == TokenKind::Str {
                // Inline format captures: `"{passphrase}"`, `"{key:?}"`.
                for cap in format_captures(&tj.text).iter().filter(|c| is_secret_ident(c)) {
                    let message = format!(
                        "secret-named capture `{{{cap}}}` flows into `{}!`; log a redacted form instead",
                        t.text
                    );
                    diags.push(Diagnostic::new(&file.rel, tj.line, "R2", message));
                }
            }
        }
        i = close + 1;
    }
}

/// Identifiers captured inline by a format string: `{name}`, `{name:?}`.
/// `{{` is an escaped brace; positional/empty captures are skipped.
pub(crate) fn format_captures(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let mut j = i + 1;
        let mut name = String::new();
        while j < bytes.len() {
            let c = bytes[j] as char;
            if c == '}' || c == ':' {
                break;
            }
            if c.is_ascii_alphanumeric() || c == '_' {
                name.push(c);
                j += 1;
            } else {
                name.clear();
                break;
            }
        }
        if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            out.push(name);
        }
        i = j + 1;
    }
    out
}

/// R2 (at-rest part): a struct with a secret-named field must either
/// store it as a zeroizing `Secret<..>` type or carry an `impl Drop`
/// in the same file, and must not `#[derive(Debug)]`.
fn rule_r2_structs(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let tokens = file.toks();
    // Names with `impl Drop for Name` in this file.
    let has_drop: Vec<&str> = tokens
        .windows(4)
        .filter(|w| w[0].is_ident("impl") && w[1].is_ident("Drop") && w[2].is_ident("for"))
        .filter(|w| w[3].kind == TokenKind::Ident)
        .map(|w| w[3].text.as_str())
        .collect();

    for s in file.parsed.structs.iter().filter(|s| !s.is_test) {
        let derives_debug = s.derives("Debug");
        let secret_fields =
            s.fields.iter().filter(|f| is_secret_ident(&f.name) && !is_scalar_type(&f.ty));
        for f in secret_fields.filter(|f| !f.ty.contains("Secret")) {
            let (struct_name, fname) = (&s.name, &f.name);
            if derives_debug {
                let message = format!(
                    "struct `{struct_name}` derives Debug but field `{fname}` is secret-named; \
                     implement Debug manually (redacted) or wrap the field in mp_crypto::Secret"
                );
                diags.push(Diagnostic::new(&file.rel, f.line, "R2", message));
            }
            if !has_drop.contains(&struct_name.as_str()) {
                let message = format!(
                    "secret-bearing field `{fname}` of `{struct_name}` is neither a \
                     mp_crypto::Secret nor covered by an impl Drop in this file; \
                     freed memory would retain the secret"
                );
                diags.push(Diagnostic::new(&file.rel, f.line, "R2", message));
            }
        }
    }
}

/// Field types that cannot hold secret byte material: lengths, counts,
/// flags and other scalars *about* a secret are not the secret itself
/// (`min_passphrase_len: usize` must not trip R2).
fn is_scalar_type(ty: &str) -> bool {
    matches!(
        ty,
        "usize"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "isize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "bool"
            | "f32"
            | "f64"
            | "char"
    )
}

/// R3: `==` / `!=` with a digest/MAC/tag-named operand nearby, unless
/// one side is a literal (protocol constants like `tag == 0x30` are
/// public values, not secrets).
pub(crate) fn r3_constant_time(file: &SourceFile) -> Vec<Diagnostic> {
    let (tokens, mask) = (file.toks(), &file.parsed.test_mask);
    let is_literal =
        |t: &Token| matches!(t.kind, TokenKind::Number | TokenKind::Str | TokenKind::Char);
    let mut diags = Vec::new();
    for (i, pair) in tokens.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        let is_eq = (a.is_punct('=') || a.is_punct('!')) && b.is_punct('=') && a.glues_with(b);
        if !is_eq || mask[i] {
            continue;
        }
        // Window of operand tokens on each side.
        let window = &tokens[i.saturating_sub(6)..(i + 8).min(tokens.len())];
        if !window.iter().any(|t| t.kind == TokenKind::Ident && is_digest_ident(&t.text)) {
            continue;
        }
        // A literal on either immediate side disarms the rule: comparing
        // a tag byte with a protocol constant is not a secret comparison.
        // Enum-variant comparisons (`Tag::SEQUENCE`) are public protocol
        // constants too: a capitalized ident or a `::` path right of the
        // operator.
        let right = tokens.get(i + 2);
        let right_const = right.is_some_and(|t| {
            t.kind == TokenKind::Ident && t.text.starts_with(|c: char| c.is_ascii_uppercase())
        }) || punct_at(tokens, i + 3, ':');
        let left_lit = i > 0 && is_literal(&tokens[i - 1]);
        if right.is_some_and(is_literal) || left_lit || right_const {
            continue;
        }
        let message =
            "digest/MAC/tag compared with == or !=; timing leaks where they differ — use mp_crypto::ct_eq";
        diags.push(Diagnostic::new(&file.rel, a.line, "R3", message.into()));
    }
    diags
}

// ---------------------------------------------------------------------------
// R5: secret taint
// ---------------------------------------------------------------------------

/// Calls whose output (or whose argument span) no longer carries the
/// secret: hashes, MACs, sealing, constant-time compares, and scalar
/// facts *about* the value.
const SANITIZERS: &[&str] = &[
    "sha256",
    "sha1",
    "finalize",
    "mac",
    "hmac_sha256",
    "seal",
    "ct_eq",
    "len",
    "is_empty",
    "capacity",
    "zeroize",
];

/// Types that are a sanctioned resting place for secret bytes: binding
/// a tainted value into them ends the flow (they redact + zeroize).
const CONTAINERS: &[&str] = &["Secret", "SealedBlob", "Credential"];

/// Secret-ish names for R5 parameter seeding: the R2 name list plus the
/// short forms protocol code actually uses.
fn is_secretish(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    is_secret_ident(name)
        || l == "pass"
        || l == "otp"
        || l.starts_with("otp_")
        || l.ends_with("_otp")
}

fn step(line: u32, note: String) -> TaintStep {
    TaintStep { line, note }
}

/// True when the ident at `idx` is a *use of a local variable*: not a
/// field/method name after `.`, not a path segment around `::`, not a
/// struct-literal field name, type ascription or path head before `:`.
fn effective_use(toks: &[Token], idx: usize) -> bool {
    toks[idx].kind == TokenKind::Ident
        && !(idx > 0 && (toks[idx - 1].is_punct('.') || toks[idx - 1].is_punct(':')))
        && !punct_at(toks, idx + 1, ':')
}

/// Is the ident at `i` an `.expose()` / `.expose_mut()` method name?
fn is_expose(toks: &[Token], i: usize) -> bool {
    (toks[i].text == "expose" || toks[i].text == "expose_mut") && i > 0 && toks[i - 1].is_punct('.')
}

/// The secrets in flight at one program point (variable → how it got
/// tainted) plus the function's laundering spans.
struct Flow<'a> {
    file: &'a str,
    toks: &'a [Token],
    taints: HashMap<String, Vec<TaintStep>>,
    /// Argument lists `(open, close)` of laundering calls — sanitizers
    /// (`sha256(x)`, `.mac(x)`) and container constructors
    /// (`Secret::from(x)`, `Credential::from_pem(x)`): anything used
    /// inside them is no longer the secret.
    laundered: Vec<(usize, usize)>,
}

impl Flow<'_> {
    fn is_laundered(&self, idx: usize) -> bool {
        self.laundered.iter().any(|&(s, e)| idx > s && idx < e)
    }

    /// The taint path of the local used at `idx`, if it carries one.
    fn tainted_use(&self, idx: usize) -> Option<&Vec<TaintStep>> {
        effective_use(self.toks, idx).then(|| self.taints.get(&self.toks[idx].text)).flatten()
    }

    /// Scan `[s, e)` for the first taint contribution: a source
    /// occurrence (`.expose()`, `pbkdf2*`) or a use of an
    /// already-tainted variable. Returns (what leaked, path so far).
    fn taint_in(&self, s: usize, e: usize) -> Option<(String, Vec<TaintStep>)> {
        let toks = self.toks;
        for i in (s..e.min(toks.len())).filter(|&i| !self.is_laundered(i)) {
            let t = &toks[i];
            if t.kind == TokenKind::Ident {
                if is_expose(toks, i) && punct_at(toks, i + 1, '(') {
                    let owner = match i.checked_sub(2).map(|o| &toks[o]) {
                        Some(o) if o.kind == TokenKind::Ident => o.text.as_str(),
                        _ => "secret",
                    };
                    let what = format!("{owner}.{}()", t.text);
                    let path = vec![step(t.line, format!("secret exposed via `{what}`"))];
                    return Some((what, path));
                }
                // PBKDF2 output is key material.
                if t.text.starts_with("pbkdf2") && punct_at(toks, i + 1, '(') {
                    let path = vec![step(t.line, "PBKDF2-derived key material".into())];
                    return Some((format!("{}(..)", t.text), path));
                }
                if let Some(path) = self.tainted_use(i) {
                    return Some((t.text.clone(), path.clone()));
                }
            } else if t.kind == TokenKind::Str {
                // Inline format captures propagate taint into the built string.
                for cap in format_captures(&t.text) {
                    if let Some(path) = self.taints.get(&cap) {
                        return Some((cap, path.clone()));
                    }
                }
            }
        }
        None
    }

    fn sink(
        &self,
        line: u32,
        message: String,
        mut path: Vec<TaintStep>,
        last: String,
    ) -> Diagnostic {
        path.push(step(line, last));
        Diagnostic::new(self.file, line, "R5", message).with_path(path)
    }
}

/// Does the initializer re-wrap the value into a sanctioned container
/// (`Secret::from(..)`, `Credential::from_pem(..)`)?
fn init_is_container(toks: &[Token], (s, e): (usize, usize)) -> bool {
    toks[s..e.min(toks.len())]
        .iter()
        .take(4)
        .any(|t| t.kind == TokenKind::Ident && CONTAINERS.contains(&t.text.as_str()))
}

/// R5: per function, propagate taint through bindings in statement
/// order and check every sink against the taint live at that point.
pub(crate) fn r5_secret_taint(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = file.toks();
    // Struct names in this file that `#[derive(.. Debug ..)]`.
    let dbg_structs: Vec<&str> =
        file.parsed.structs.iter().filter(|s| s.derives("Debug")).map(|s| s.name.as_str()).collect();
    let mut diags = Vec::new();
    for (f, facts) in file.fns() {
        r5_function(&file.rel, toks, f, facts, &dbg_structs, &mut diags);
    }
    diags
}

fn r5_function(
    file: &str,
    toks: &[Token],
    f: &Function,
    facts: &FnFacts,
    dbg_structs: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    let launders = |c: &Call| {
        SANITIZERS.contains(&toks[c.tok].text.as_str())
            || c.qual.is_some_and(|q| CONTAINERS.contains(&toks[q].text.as_str()))
    };
    let mut flow = Flow {
        file,
        toks,
        taints: HashMap::new(),
        laundered: facts
            .stmts
            .iter()
            .flat_map(|s| s.calls())
            .filter(|c| launders(c))
            .filter_map(|c| Some((c.tok + 1, c.close?)))
            .collect(),
    };
    for p in f.params.iter().filter(|p| is_secretish(&p.name) && !p.ty.contains("Secret")) {
        let path = vec![step(p.line, format!("secret-bearing parameter `{}`", p.name))];
        flow.taints.insert(p.name.clone(), path);
    }
    // The function's tail expression: the last statement proper.
    let tail_idx = f.stmts.iter().rposition(|s| matches!(s.kind, StmtKind::Let | StmtKind::Expr));

    // Two passes: pass 0 computes bindings so loop back-edges see taint,
    // pass 1 re-walks in order and checks sinks against point state.
    for pass in 0..2 {
        for s in &facts.stmts {
            // PBKDF2 writes key material into `&mut` out-params.
            for c in s.calls().filter(|c| toks[c.tok].text.starts_with("pbkdf2")) {
                for j in c.tok + 1..c.close.unwrap_or(c.tok) {
                    if toks[j].is_punct('&')
                        && toks.get(j + 1).is_some_and(|n| n.is_ident("mut"))
                        && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                    {
                        let name = &toks[j + 2];
                        let note = format!("PBKDF2 writes key material into `{}`", name.text);
                        flow.taints.insert(name.text.clone(), vec![step(name.line, note)]);
                    }
                }
            }

            // Definitions: `let pat = init;` and `x = init;`.
            if let Some(b) = s.bind.as_ref().filter(|b| b.init.0 < b.init.1) {
                let tainted = (!init_is_container(toks, b.init))
                    .then(|| flow.taint_in(b.init.0, b.init.1))
                    .flatten();
                for p in &b.pats {
                    match &tainted {
                        Some((_, path)) if p != "_" => {
                            let mut np = path.clone();
                            let line = f.stmts[s.stmt].line;
                            np.push(step(line, format!("tainted value bound to `{p}`")));
                            flow.taints.insert(p.clone(), np);
                        }
                        Some(_) => {}
                        None => {
                            flow.taints.remove(p);
                        }
                    }
                }
            }

            if pass == 1 {
                let stmt = &f.stmts[s.stmt];
                r5_macro_sinks(&flow, &s.facts, diags);
                r5_wire_sinks(&flow, s.calls(), diags);
                r5_return_sink(&flow, f, stmt, Some(s.stmt) == tail_idx, diags);
            }
        }
    }
    r5_debug_literal_sink(&flow, f, dbg_structs, diags);
}

/// Format/log macro arguments: tainted vars, tainted inline captures,
/// or a direct `.expose()` call inside the argument list.
fn r5_macro_sinks(flow: &Flow, facts: &[Fact], diags: &mut Vec<Diagnostic>) {
    let toks = flow.toks;
    let mut done = 0usize; // macros nested in a checked one are covered by it
    for fact in facts {
        let &Fact::Macro { tok, close } = fact else {
            continue;
        };
        let mac = &toks[tok].text;
        if tok < done || !is_format_macro(mac) {
            continue;
        }
        done = close + 1;
        for j in (tok + 3..close).filter(|&j| !flow.is_laundered(j)) {
            let tj = &toks[j];
            if tj.kind == TokenKind::Ident {
                if let Some(path) = flow.tainted_use(j) {
                    let message = format!(
                        "tainted secret `{}` reaches `{mac}!`; secrets must not be formatted or logged",
                        tj.text
                    );
                    let last = format!("`{}` reaches `{mac}!`", tj.text);
                    diags.push(flow.sink(tj.line, message, path.clone(), last));
                }
                if is_expose(toks, j) {
                    let message = format!(
                        "`.{}()` called directly inside `{mac}!`; secrets must not be formatted or logged",
                        tj.text
                    );
                    let last = format!("secret exposed inside `{mac}!`");
                    diags.push(flow.sink(tj.line, message, Vec::new(), last));
                }
            } else if tj.kind == TokenKind::Str {
                for cap in format_captures(&tj.text) {
                    if let Some(path) = flow.taints.get(&cap) {
                        let message =
                            format!("tainted secret `{cap}` captured by `{mac}!` format string");
                        let last = format!("capture `{{{cap}}}` in `{mac}!`");
                        diags.push(flow.sink(tj.line, message, path.clone(), last));
                    }
                }
            }
        }
    }
}

/// Wire/disk writes: `.send(..)`, `.write_all(..)`, `fs::write(..)`
/// with a tainted argument.
fn r5_wire_sinks<'a>(
    flow: &Flow,
    calls: impl Iterator<Item = &'a Call>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = flow.toks;
    for c in calls {
        let name = toks[c.tok].text.as_str();
        let method = c.dot && matches!(name, "send" | "send_record" | "write_all");
        let fs_path = name == "write" && c.qual.is_some_and(|q| toks[q].is_ident("fs"));
        let Some(close) = c.close.filter(|_| method || fs_path) else {
            continue;
        };
        if let Some((what, path)) = flow.taint_in(c.tok + 2, close) {
            let message = format!(
                "tainted secret `{what}` reaches `{name}(..)`; secrets leave the process only sealed"
            );
            let last = format!("reaches `{name}(..)` write");
            diags.push(flow.sink(toks[c.tok].line, message, path, last));
        }
    }
}

/// Returning a tainted value (bare, `Ok(x)`, or `Some(x)`; `return` or
/// tail position) from a function whose return type is not `Secret`.
fn r5_return_sink(
    flow: &Flow,
    f: &Function,
    stmt: &Stmt,
    is_tail: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = flow.toks;
    if f.ret.contains("Secret") {
        return;
    }
    let (s, e) = stmt.toks;
    let mut idx = s;
    if toks[idx].is_ident("return") {
        idx += 1;
    } else if !is_tail || toks[e - 1].is_punct(';') {
        return;
    }
    // Unwrap Ok( .. ) / Some( .. ).
    if toks.get(idx).is_some_and(|t| t.is_ident("Ok") || t.is_ident("Some"))
        && punct_at(toks, idx + 1, '(')
    {
        idx += 2;
    }
    let Some(t) = toks.get(idx).filter(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    // The returned expression must be exactly one ident (possibly
    // wrapped): the next token is `)`, `;`, or the statement end.
    let bare = idx + 1 >= e || toks.get(idx + 1).is_none_or(|n| n.is_punct(')') || n.is_punct(';'));
    if let Some(path) = flow.taints.get(&t.text).filter(|_| bare) {
        let message = format!(
            "tainted secret `{}` returned from `{}` whose return type `{}` is not Secret-wrapped",
            t.text,
            f.name,
            if f.ret.is_empty() { "()" } else { &f.ret }
        );
        let last = format!("returned from `{}`", f.name);
        diags.push(flow.sink(t.line, message, path.clone(), last));
    }
}

/// A tainted value stored into a struct literal whose type derives
/// `Debug` in this file: `{:?}` would print the secret. Laundering
/// spans apply (`passphrase: Secret::from(passphrase)` is the
/// sanctioned pattern, not a leak).
fn r5_debug_literal_sink(
    flow: &Flow,
    f: &Function,
    dbg_structs: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    let toks = flow.toks;
    if dbg_structs.is_empty() || flow.taints.is_empty() {
        return;
    }
    let (mut i, be) = f.body;
    while i < be {
        let t = &toks[i];
        let literal = t.kind == TokenKind::Ident
            && dbg_structs.contains(&t.text.as_str())
            && punct_at(toks, i + 1, '{');
        let Some(close) = literal.then(|| matching_close(toks, i + 1, be)).flatten() else {
            i += 1;
            continue;
        };
        for j in (i + 2..close).filter(|&j| !flow.is_laundered(j)) {
            if let Some(path) = flow.tainted_use(j) {
                let message = format!(
                    "tainted secret `{}` stored in `{}` which derives Debug; `{{:?}}` would print it",
                    toks[j].text, t.text
                );
                let last = format!("stored in Debug-deriving struct `{}`", t.text);
                diags.push(flow.sink(toks[j].line, message, path.clone(), last));
            }
        }
        i = close + 1;
    }
}
