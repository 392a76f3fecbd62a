//! mp-lint v2: intra-procedural dataflow rules over the [`crate::parser`]
//! statement lists.
//!
//! | rule | property | §5 claim it protects |
//! |------|----------|----------------------|
//! | R5   | secret taint: exposed secrets never reach logs/wire/Debug/returns | non-disclosure survives renaming — flow, not names |
//! | R6   | fallible protocol/store ops are never silently discarded | availability: a dropped send error is an invisible outage |
//! | R7   | lock discipline: no guard held across I/O, no order cycles | availability: one slow peer must not stall the repository |
//!
//! The engine is deliberately modest: per-function, flow-sensitive in
//! statement order, two passes so loop back-edges converge, no
//! inter-procedural propagation. What it *does* model is the exact
//! shape of this codebase's secret handling:
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

use crate::lexer::{Token, TokenKind};
use crate::parser::{Function, ParsedFile, Stmt, StmtKind};
use crate::rules::{Diagnostic, RuleSet, TaintStep};
use std::collections::HashMap;

/// Calls whose output (or whose argument span) no longer carries the
/// secret: hashes, MACs, sealing, constant-time compares, and scalar
/// facts *about* the value.
const SANITIZERS: &[&str] = &[
    "sha256", "sha1", "finalize", "mac", "hmac_sha256", "seal", "ct_eq", "len", "is_empty",
    "capacity", "zeroize",
];

/// Types that are a sanctioned resting place for secret bytes: binding
/// a tainted value into them ends the flow (they redact + zeroize).
const CONTAINERS: &[&str] = &["Secret", "SealedBlob", "Credential"];

/// Fallible operations R6 refuses to see discarded: channel/wire ops,
/// store/persist ops, and connection-handler results.
const FALLIBLE: &[&str] = &[
    "send", "recv", "handle", "serve_tls", "serve_plain", "write_all", "flush", "sync_all",
    "rename", "remove_file", "remove_dir_all", "create_dir_all", "set_permissions",
    "destroy", "change_passphrase", "join", "store_output",
    "sync_file", "sync_dir", "append_record", "replay_journal", "save_snapshot", "load_snapshot",
];

/// Method calls R7 treats as I/O a lock guard must not be held across:
/// channel traffic, disk syscalls, and whole sub-protocol entry points.
const IO_METHODS: &[&str] = &[
    "send", "recv", "write_all", "flush", "sync_all", "read_exact", "read_to_end",
    "read_to_string", "connect_local", "store_output", "fetch_output", "handle", "serve_tls",
    "serve_plain", "save_snapshot", "load_snapshot",
];

/// `fs::X(..)` / `File::X(..)` path calls that are disk I/O for R7.
const IO_PATH_FNS: &[&str] = &[
    "write", "read", "read_to_string", "create", "open", "rename", "remove_file",
    "remove_dir_all", "create_dir_all", "read_dir", "metadata", "copy", "set_permissions",
];

/// Secret-ish names for R5 parameter seeding: the R2 name list plus the
/// short forms protocol code actually uses.
fn is_secretish(name: &str) -> bool {
    if crate::rules::is_secret_ident(name) {
        return true;
    }
    let l = name.to_ascii_lowercase();
    l == "pass" || l == "otp" || l.starts_with("otp_") || l.ends_with("_otp")
}

fn step(line: u32, note: String) -> TaintStep {
    TaintStep { line, note }
}

/// True when the ident at `idx` is a *use of a local variable*: not a
/// field/method name after `.`, not a path segment around `::`, not a
/// struct-literal field name before a single `:`.
fn effective_use(toks: &[Token], idx: usize) -> bool {
    if toks[idx].kind != TokenKind::Ident {
        return false;
    }
    if idx > 0 && (toks[idx - 1].is_punct('.') || toks[idx - 1].is_punct(':')) {
        return false;
    }
    if let Some(n) = toks.get(idx + 1) {
        if n.is_punct(':') {
            return false; // field name, type ascription, or path head
        }
    }
    true
}

/// Spans `[open_idx, close_idx]` of laundering call argument lists
/// within `[s, e)`: anything used inside them is no longer the secret.
/// Two shapes: sanitizer calls (`sha256(x)`, `.mac(x)`) and container
/// constructors (`Secret::from(x)`, `Credential::from_pem(x)`).
fn sanitizer_spans(toks: &[Token], s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in s..e {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let open = if SANITIZERS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            Some(i + 1)
        } else if CONTAINERS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
            && toks.get(i + 3).map(|n| n.kind == TokenKind::Ident).unwrap_or(false)
            && toks.get(i + 4).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            Some(i + 4)
        } else {
            None
        };
        let Some(open) = open else { continue };
        let mut depth = 0i32;
        let mut j = open;
        while j < e.min(toks.len()) {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    out.push((open, j));
                    break;
                }
            }
            j += 1;
        }
    }
    out
}

fn in_span(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(s, e)| idx > s && idx < e)
}

/// Scan `[s, e)` for the first taint contribution: a source occurrence
/// (`.expose()`, `pbkdf2*`) or a use of an already-tainted variable.
/// Returns (what leaked, path so far).
fn taint_in(
    toks: &[Token],
    s: usize,
    e: usize,
    taints: &HashMap<String, Vec<TaintStep>>,
    spans: &[(usize, usize)],
) -> Option<(String, Vec<TaintStep>)> {
    for i in s..e.min(toks.len()) {
        if in_span(spans, i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            // `.expose()` / `.expose_mut()` source.
            if (t.text == "expose" || t.text == "expose_mut")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            {
                let owner = if i >= 2 && toks[i - 2].kind == TokenKind::Ident {
                    toks[i - 2].text.clone()
                } else {
                    "secret".into()
                };
                let what = format!("{owner}.{}()", t.text);
                return Some((what.clone(), vec![step(t.line, format!("secret exposed via `{what}`"))]));
            }
            // PBKDF2 output is key material.
            if t.text.starts_with("pbkdf2")
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            {
                return Some((
                    format!("{}(..)", t.text),
                    vec![step(t.line, "PBKDF2-derived key material".into())],
                ));
            }
            // Use of a tainted local.
            if effective_use(toks, i) {
                if let Some(path) = taints.get(&t.text) {
                    return Some((t.text.clone(), path.clone()));
                }
            }
        } else if t.kind == TokenKind::Str {
            // Inline format captures propagate taint into the built string.
            for cap in crate::rules::format_captures(&t.text) {
                if let Some(path) = taints.get(&cap) {
                    return Some((cap, path.clone()));
                }
            }
        }
    }
    None
}

/// Does the initializer re-wrap the value into a sanctioned container
/// (`Secret::from(..)`, `Credential::from_pem(..)`)?
fn init_is_container(toks: &[Token], s: usize, e: usize) -> bool {
    toks[s..e.min(toks.len())]
        .iter()
        .take(4)
        .any(|t| t.kind == TokenKind::Ident && CONTAINERS.contains(&t.text.as_str()))
}

/// Struct names in this file that `#[derive(.. Debug ..)]`.
fn debug_deriving_structs(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        let (mut saw_derive, mut saw_debug) = (false, false);
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].is_ident("derive") {
                saw_derive = true;
            } else if toks[j].is_ident("Debug") {
                saw_debug = true;
            }
            j += 1;
        }
        if saw_derive && saw_debug {
            // The struct name follows within a few tokens (skipping
            // further attributes and visibility modifiers).
            let mut k = j + 1;
            let mut hops = 0;
            while k + 1 < toks.len() && hops < 12 {
                if toks[k].is_ident("struct") && toks[k + 1].kind == TokenKind::Ident {
                    out.push(toks[k + 1].text.clone());
                    break;
                }
                if toks[k].is_punct('#') {
                    // Nested attribute: skip it wholesale.
                    let mut d = 0i32;
                    let mut m = k + 1;
                    while m < toks.len() {
                        if toks[m].is_punct('[') {
                            d += 1;
                        } else if toks[m].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    k = m;
                }
                k += 1;
                hops += 1;
            }
        }
        i = j + 1;
    }
    out
}

/// Find the matching `)` for the `(` at `open`.
fn close_paren(toks: &[Token], open: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < limit.min(toks.len()) {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// R5: secret taint
// ---------------------------------------------------------------------------

fn r5_function(file: &str, f: &Function, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    if f.is_test {
        return;
    }
    let mut taints: HashMap<String, Vec<TaintStep>> = HashMap::new();
    for p in &f.params {
        if is_secretish(&p.name) && !p.ty.contains("Secret") {
            taints.insert(
                p.name.clone(),
                vec![step(p.line, format!("secret-bearing parameter `{}`", p.name))],
            );
        }
    }
    let dbg_structs = debug_deriving_structs(toks);

    // Which statement is the function's tail expression (the last
    // Let/Expr with only BlockCloses after it)?
    let tail_idx = f
        .stmts
        .iter()
        .rposition(|s| matches!(s.kind, StmtKind::Let | StmtKind::Expr));

    // Two passes: pass 0 computes bindings so loop back-edges see taint,
    // pass 1 re-walks in order and checks sinks against point state.
    for pass in 0..2 {
        for (si, stmt) in f.stmts.iter().enumerate() {
            if matches!(stmt.kind, StmtKind::BlockOpen | StmtKind::BlockClose) {
                continue;
            }
            let (s, e) = stmt.toks;
            let spans = sanitizer_spans(toks, s, e);

            // PBKDF2 writes key material into `&mut` out-params.
            for i in s..e {
                if toks[i].kind == TokenKind::Ident
                    && toks[i].text.starts_with("pbkdf2")
                    && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    if let Some(close) = close_paren(toks, i + 1, e) {
                        for j in i + 1..close {
                            if toks[j].is_punct('&')
                                && toks.get(j + 1).map(|n| n.is_ident("mut")).unwrap_or(false)
                                && toks.get(j + 2).map(|n| n.kind == TokenKind::Ident).unwrap_or(false)
                            {
                                let name = toks[j + 2].text.clone();
                                taints.insert(
                                    name.clone(),
                                    vec![step(
                                        toks[j + 2].line,
                                        format!("PBKDF2 writes key material into `{name}`"),
                                    )],
                                );
                            }
                        }
                    }
                }
            }

            // Definitions: `let pat = init;` and `x = init;`.
            let mut def: Option<(Vec<String>, usize, usize)> = None;
            if stmt.kind == StmtKind::Let && stmt.init.0 < stmt.init.1 {
                def = Some((stmt.pats.clone(), stmt.init.0, stmt.init.1));
            } else if stmt.kind == StmtKind::Expr
                && e - s >= 3
                && toks[s].kind == TokenKind::Ident
                && toks[s + 1].is_punct('=')
                && !toks
                    .get(s + 2)
                    .map(|n| n.is_punct('=') && toks[s + 1].glues_with(n))
                    .unwrap_or(false)
            {
                def = Some((vec![toks[s].text.clone()], s + 2, e));
            }
            if let Some((pats, is_, ie)) = def {
                if init_is_container(toks, is_, ie) {
                    for p in &pats {
                        taints.remove(p);
                    }
                } else if let Some((_, path)) = taint_in(toks, is_, ie, &taints, &spans) {
                    for p in &pats {
                        if p != "_" {
                            let mut np = path.clone();
                            np.push(step(stmt.line, format!("tainted value bound to `{p}`")));
                            taints.insert(p.clone(), np);
                        }
                    }
                } else {
                    for p in &pats {
                        taints.remove(p);
                    }
                }
            }

            if pass == 0 {
                continue;
            }

            // --- sinks, with point-state taint ---
            r5_macro_sinks(file, toks, s, e, &taints, &spans, diags);
            r5_wire_sinks(file, toks, s, e, &taints, &spans, diags);
            r5_return_sink(file, f, toks, stmt, si, tail_idx, &taints, diags);
        }
    }
    r5_debug_literal_sink(file, f, toks, &dbg_structs, &taints, diags);
}

/// Format/log macro arguments: tainted vars, tainted inline captures,
/// or a direct `.expose()` call inside the argument list.
fn r5_macro_sinks(
    file: &str,
    toks: &[Token],
    s: usize,
    e: usize,
    taints: &HashMap<String, Vec<TaintStep>>,
    spans: &[(usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let mut i = s;
    while i < e {
        let t = &toks[i];
        let is_macro = t.kind == TokenKind::Ident
            && crate::rules::is_format_macro(&t.text)
            && toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false);
        if !is_macro {
            i += 1;
            continue;
        }
        let Some(open_tok) = toks.get(i + 2) else { break };
        let (o, c) = match open_tok.text.as_str() {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            let tj = &toks[j];
            if tj.is_punct(o) {
                depth += 1;
            } else if tj.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if !in_span(spans, j) {
                if tj.kind == TokenKind::Ident {
                    if effective_use(toks, j) {
                        if let Some(path) = taints.get(&tj.text) {
                            let mut p = path.clone();
                            p.push(step(tj.line, format!("`{}` reaches `{}!`", tj.text, t.text)));
                            diags.push(sink_diag(
                                file,
                                tj.line,
                                format!(
                                    "tainted secret `{}` reaches `{}!`; secrets must not be formatted or logged",
                                    tj.text, t.text
                                ),
                                p,
                            ));
                        }
                    }
                    if (tj.text == "expose" || tj.text == "expose_mut")
                        && j > 0
                        && toks[j - 1].is_punct('.')
                    {
                        diags.push(sink_diag(
                            file,
                            tj.line,
                            format!(
                                "`.{}()` called directly inside `{}!`; secrets must not be formatted or logged",
                                tj.text, t.text
                            ),
                            vec![step(tj.line, format!("secret exposed inside `{}!`", t.text))],
                        ));
                    }
                } else if tj.kind == TokenKind::Str {
                    for cap in crate::rules::format_captures(&tj.text) {
                        if let Some(path) = taints.get(&cap) {
                            let mut p = path.clone();
                            p.push(step(tj.line, format!("capture `{{{cap}}}` in `{}!`", t.text)));
                            diags.push(sink_diag(
                                file,
                                tj.line,
                                format!(
                                    "tainted secret `{cap}` captured by `{}!` format string",
                                    t.text
                                ),
                                p,
                            ));
                        }
                    }
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Wire/disk writes: `.send(..)`, `.write_all(..)`, `fs::write(..)`
/// with a tainted argument.
fn r5_wire_sinks(
    file: &str,
    toks: &[Token],
    s: usize,
    e: usize,
    taints: &HashMap<String, Vec<TaintStep>>,
    spans: &[(usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    for i in s..e {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let method = matches!(t.text.as_str(), "send" | "send_record" | "write_all")
            && i > 0
            && toks[i - 1].is_punct('.');
        let fs_path = t.text == "write"
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && i >= 3
            && toks[i - 3].is_ident("fs");
        if !(method || fs_path) {
            continue;
        }
        if !toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
            continue;
        }
        let Some(close) = close_paren(toks, i + 1, e) else { continue };
        if let Some((what, path)) = taint_in(toks, i + 2, close, taints, spans) {
            let mut p = path;
            p.push(step(t.line, format!("reaches `{}(..)` write", t.text)));
            diags.push(sink_diag(
                file,
                t.line,
                format!(
                    "tainted secret `{what}` reaches `{}(..)`; secrets leave the process only sealed",
                    t.text
                ),
                p,
            ));
        }
    }
}

/// Returning a tainted value (bare, `Ok(x)`, or `Some(x)`; `return` or
/// tail position) from a function whose return type is not `Secret`.
fn r5_return_sink(
    file: &str,
    f: &Function,
    toks: &[Token],
    stmt: &Stmt,
    si: usize,
    tail_idx: Option<usize>,
    taints: &HashMap<String, Vec<TaintStep>>,
    diags: &mut Vec<Diagnostic>,
) {
    if f.ret.contains("Secret") {
        return;
    }
    let (s, e) = stmt.toks;
    let mut idx = s;
    let explicit_return = toks[idx].is_ident("return");
    if explicit_return {
        idx += 1;
    } else if Some(si) != tail_idx || toks[e - 1].is_punct(';') {
        return;
    }
    // Unwrap Ok( .. ) / Some( .. ).
    if toks.get(idx).map(|t| t.is_ident("Ok") || t.is_ident("Some")).unwrap_or(false)
        && toks.get(idx + 1).map(|t| t.is_punct('(')).unwrap_or(false)
    {
        idx += 2;
    }
    let Some(t) = toks.get(idx) else { return };
    if t.kind != TokenKind::Ident {
        return;
    }
    // The returned expression must be exactly one ident (possibly
    // wrapped): the next token is `)`, `;`, or the statement end.
    let after = toks.get(idx + 1);
    let bare = match after {
        None => true,
        Some(n) => n.is_punct(')') || n.is_punct(';'),
    } || idx + 1 >= e;
    if !bare {
        return;
    }
    if let Some(path) = taints.get(&t.text) {
        let mut p = path.clone();
        p.push(step(t.line, format!("returned from `{}`", f.name)));
        diags.push(sink_diag(
            file,
            t.line,
            format!(
                "tainted secret `{}` returned from `{}` whose return type `{}` is not Secret-wrapped",
                t.text,
                f.name,
                if f.ret.is_empty() { "()" } else { &f.ret }
            ),
            p,
        ));
    }
}

/// A tainted value stored into a struct literal whose type derives
/// `Debug` in this file: `{:?}` would print the secret.
fn r5_debug_literal_sink(
    file: &str,
    f: &Function,
    toks: &[Token],
    dbg_structs: &[String],
    taints: &HashMap<String, Vec<TaintStep>>,
    diags: &mut Vec<Diagnostic>,
) {
    if f.is_test || dbg_structs.is_empty() || taints.is_empty() {
        return;
    }
    let (bs, be) = f.body;
    let mut i = bs;
    while i < be {
        let t = &toks[i];
        let literal = t.kind == TokenKind::Ident
            && dbg_structs.contains(&t.text)
            && toks.get(i + 1).map(|n| n.is_punct('{')).unwrap_or(false);
        if !literal {
            i += 1;
            continue;
        }
        // Find the literal's extent first so laundering spans can be
        // computed over it (`passphrase: Secret::from(passphrase)` is
        // the sanctioned pattern, not a leak).
        let mut depth = 0i32;
        let mut close = be;
        for j in i + 1..be {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        let spans = sanitizer_spans(toks, i + 1, close);
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < be {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].kind == TokenKind::Ident && effective_use(toks, j) && !in_span(&spans, j)
            {
                if let Some(path) = taints.get(&toks[j].text) {
                    let mut p = path.clone();
                    p.push(step(
                        toks[j].line,
                        format!("stored in Debug-deriving struct `{}`", t.text),
                    ));
                    diags.push(sink_diag(
                        file,
                        toks[j].line,
                        format!(
                            "tainted secret `{}` stored in `{}` which derives Debug; `{{:?}}` would print it",
                            toks[j].text, t.text
                        ),
                        p,
                    ));
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

fn sink_diag(file: &str, line: u32, message: String, path: Vec<TaintStep>) -> Diagnostic {
    let mut d = Diagnostic::new(file, line, "R5", message);
    d.path = path;
    d
}

// ---------------------------------------------------------------------------
// R6: discarded fallible results
// ---------------------------------------------------------------------------

fn r6_function(file: &str, f: &Function, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    if f.is_test {
        return;
    }
    for stmt in &f.stmts {
        let (s, e) = stmt.toks;
        let fallible_call = |lo: usize, hi: usize| -> Option<&str> {
            for i in lo..hi {
                let t = &toks[i];
                if t.kind == TokenKind::Ident
                    && FALLIBLE.contains(&t.text.as_str())
                    && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    return Some(FALLIBLE.iter().find(|&&x| x == t.text.as_str()).copied().unwrap_or("call"));
                }
            }
            None
        };
        match stmt.kind {
            StmtKind::Let if stmt.pats == ["_"] => {
                if let Some(op) = fallible_call(stmt.init.0, stmt.init.1) {
                    diags.push(Diagnostic::new(
                        file,
                        stmt.line,
                        "R6",
                        format!(
                            "`let _ =` discards the result of fallible `{op}(..)`; record the failure (error counter or log) or propagate it"
                        ),
                    ));
                }
            }
            StmtKind::Expr => {
                // `expr.ok();` — Result swallowed.
                let mut k = e;
                if k > s && toks[k - 1].is_punct(';') {
                    k -= 1;
                }
                if k >= s + 3
                    && toks[k - 1].is_punct(')')
                    && toks[k - 2].is_punct('(')
                    && toks[k - 3].is_ident("ok")
                    && k >= s + 4
                    && toks[k - 4].is_punct('.')
                {
                    if let Some(op) = fallible_call(s, k.saturating_sub(3)) {
                        diags.push(Diagnostic::new(
                            file,
                            stmt.line,
                            "R6",
                            format!(
                                "`.ok()` silently swallows the error of fallible `{op}(..)`; record the failure or propagate it"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// R7: lock discipline
// ---------------------------------------------------------------------------

/// One `A -> B` lock-order edge: lock `to` acquired while a guard on
/// `from` is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
}

#[derive(Debug, Clone)]
enum GuardLife {
    /// Temporary within one statement (`x.lock().len()`).
    Stmt,
    /// Temporary in a block header (`match x.read().get(..) { .. }`):
    /// lives until depth drops below `inside`.
    Block { inside: u32 },
    /// `let g = x.lock();` — lives until its block closes or `drop(g)`.
    Named { name: String, depth: u32 },
}

#[derive(Debug, Clone)]
struct Guard {
    field: String,
    line: u32,
    life: GuardLife,
}

/// Is the ident at `i` a lock acquisition: `.lock()`, `.read()`,
/// `.write()` with an *empty* argument list (distinguishes guards from
/// `write(buf)`-style I/O)?
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokenKind::Ident
        && matches!(t.text.as_str(), "lock" | "read" | "write")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        && toks.get(i + 2).map(|n| n.is_punct(')')).unwrap_or(false)
}

/// The field the lock lives in: the ident before the `.` of `.lock()`.
fn lock_field(toks: &[Token], i: usize) -> String {
    if i >= 2 && toks[i - 2].kind == TokenKind::Ident {
        toks[i - 2].text.clone()
    } else {
        "<lock>".into()
    }
}

/// Is the ident at `i` an I/O call site for R7 purposes?
fn is_io_call(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident || !toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
        return None;
    }
    if IO_METHODS.contains(&t.text.as_str()) && i > 0 && toks[i - 1].is_punct('.') {
        return Some(format!(".{}(..)", t.text));
    }
    if IO_PATH_FNS.contains(&t.text.as_str())
        && i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && (toks[i - 3].is_ident("fs") || toks[i - 3].is_ident("File") || toks[i - 3].is_ident("OpenOptions"))
    {
        return Some(format!("{}::{}(..)", toks[i - 3].text, t.text));
    }
    None
}

fn r7_function(
    file: &str,
    f: &Function,
    toks: &[Token],
    diags: &mut Vec<Diagnostic>,
    edges: &mut Vec<LockEdge>,
) {
    if f.is_test {
        return;
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    let mut reported: Vec<(String, u32)> = Vec::new(); // (guard field, io line)

    for (si, stmt) in f.stmts.iter().enumerate() {
        match stmt.kind {
            StmtKind::BlockOpen => {
                depth += 1;
                continue;
            }
            StmtKind::BlockClose => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| match &g.life {
                    GuardLife::Block { inside } => *inside <= depth,
                    GuardLife::Named { depth: d, .. } => *d <= depth,
                    GuardLife::Stmt => false,
                });
                continue;
            }
            _ => {}
        }
        let (s, e) = stmt.toks;
        let next_opens_block = f
            .stmts
            .get(si + 1)
            .map(|n| n.kind == StmtKind::BlockOpen)
            .unwrap_or(false);

        // `drop(g)` releases a named guard early.
        for i in s..e {
            if toks[i].is_ident("drop")
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                && toks.get(i + 2).map(|n| n.kind == TokenKind::Ident).unwrap_or(false)
                && toks.get(i + 3).map(|n| n.is_punct(')')).unwrap_or(false)
            {
                let victim = &toks[i + 2].text;
                guards.retain(|g| !matches!(&g.life, GuardLife::Named { name, .. } if name == victim));
            }
        }

        // Left-to-right: acquisitions extend the live set; I/O calls are
        // checked against whatever is live at that point.
        for i in s..e {
            if is_acquisition(toks, i) {
                let field = lock_field(toks, i);
                for g in &guards {
                    edges.push(LockEdge {
                        from: g.field.clone(),
                        to: field.clone(),
                        file: file.into(),
                        line: toks[i].line,
                    });
                }
                // Lifetime classification.
                let after = toks.get(i + 3);
                let terminal = after.map(|n| n.is_punct(';')).unwrap_or(true) || i + 3 >= e;
                let life = if next_opens_block {
                    GuardLife::Block { inside: depth + 1 }
                } else if stmt.kind == StmtKind::Let && terminal {
                    match stmt.pats.first() {
                        Some(name) if name != "_" => {
                            GuardLife::Named { name: name.clone(), depth }
                        }
                        _ => GuardLife::Stmt,
                    }
                } else {
                    GuardLife::Stmt
                };
                guards.push(Guard { field, line: toks[i].line, life });
                continue;
            }
            if let Some(io) = is_io_call(toks, i) {
                for g in &guards {
                    let key = (g.field.clone(), toks[i].line);
                    if reported.contains(&key) {
                        continue;
                    }
                    reported.push(key);
                    diags.push(Diagnostic::new(
                        file,
                        toks[i].line,
                        "R7",
                        format!(
                            "lock guard on `{}` (acquired line {}) held across `{io}`; release the guard before I/O — a slow peer would stall every thread needing this lock",
                            g.field, g.line
                        ),
                    ));
                }
            }
        }
        // Statement temporaries die at `;`.
        guards.retain(|g| !matches!(g.life, GuardLife::Stmt));
    }
}

/// Detect acquisition-order cycles in the merged lock graph. Returns
/// one diagnostic per distinct cycle, anchored at one of its edges.
pub fn cycle_diags(edges: &[LockEdge]) -> Vec<Diagnostic> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();

    // DFS from every node; a back edge into the current stack is a cycle.
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut path_edges: Vec<&LockEdge> = Vec::new();
        loop {
            let Some(&mut (node, ref mut next)) = stack.last_mut() else { break };
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next >= succ.len() {
                stack.pop();
                path.pop();
                path_edges.pop();
                continue;
            }
            let edge = succ[*next];
            *next += 1;
            if let Some(pos) = path.iter().position(|&n| n == edge.to.as_str()) {
                // Cycle: path[pos..] + this edge.
                let mut nodes: Vec<String> =
                    path[pos..].iter().map(|s| s.to_string()).collect();
                let mut canon = nodes.clone();
                canon.sort();
                if seen_cycles.insert(canon) {
                    nodes.push(edge.to.clone());
                    let mut cyc_edges: Vec<&LockEdge> = path_edges[pos.min(path_edges.len())..].to_vec();
                    cyc_edges.push(edge);
                    let route = nodes.join(" -> ");
                    let sites: Vec<String> = cyc_edges
                        .iter()
                        .map(|e| format!("{}:{}", e.file, e.line))
                        .collect();
                    out.push(Diagnostic::new(
                        &edge.file,
                        edge.line,
                        "R7",
                        format!(
                            "lock acquisition-order cycle `{route}` (edges at {}); threads taking these locks in opposite orders can deadlock",
                            sites.join(", ")
                        ),
                    ));
                }
                continue;
            }
            if path.len() > 64 {
                // Defensive bound; lock graphs here are tiny.
                stack.pop();
                path.pop();
                path_edges.pop();
                continue;
            }
            path.push(edge.to.as_str());
            path_edges.push(edge);
            stack.push((edge.to.as_str(), 0));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run the enabled v2 rules over one parsed file, appending raw
/// diagnostics (waivers are applied by [`crate::rules::check_source`]).
pub fn run_v2(file: &str, parsed: &ParsedFile, rules: RuleSet, diags: &mut Vec<Diagnostic>) {
    let toks = &parsed.lexed.tokens;
    let mut edges = Vec::new();
    for f in &parsed.functions {
        if rules.r5 {
            r5_function(file, f, toks, diags);
        }
        if rules.r6 {
            r6_function(file, f, toks, diags);
        }
        if rules.r7 {
            r7_function(file, f, toks, diags, &mut edges);
        }
    }
    // Nested fns are rescanned by the parser from inside their parent's
    // body, so the same finding can surface twice; dedup.
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule, a.message.as_str())
        .cmp(&(b.file.as_str(), b.line, b.rule, b.message.as_str())));
    diags.dedup();
}

/// Collect the lock-order edges of one file for the global graph pass.
pub fn lock_edges_for(file: &str, parsed: &ParsedFile) -> Vec<LockEdge> {
    let toks = &parsed.lexed.tokens;
    let mut edges = Vec::new();
    let mut scratch = Vec::new();
    for f in &parsed.functions {
        r7_function(file, f, toks, &mut scratch, &mut edges);
    }
    edges.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    edges.dedup();
    edges
}
