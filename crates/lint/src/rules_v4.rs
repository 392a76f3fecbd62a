//! mp-lint v4: protocol typestate analysis on top of [`crate::callgraph`].
//!
//! The repository is a long-lived network daemon: its safety rests on
//! never trusting attacker-controlled wire data and never mishandling
//! a protocol state. v4 turns those invariants into four rule
//! families, checked over the same converged call graph the v3 pass
//! uses (built once in `check_files` and shared):
//!
//! * **R12 — wire-bounds taint.** Any length decoded from the wire
//!   (`u32::from_be_bytes`-style decodes, zero-arg `.u32()`/`.u64()`
//!   wire readers, or calls to functions that return such a value) is
//!   tainted attacker-controlled. It must pass a clamp (`<`/`>`
//!   comparison, `.min(..)`/`.clamp(..)`, `try_from`) before reaching
//!   an allocation sink: `with_capacity`, `vec![_; n]`, `reserve`,
//!   `resize`, or a `read_exact` bound. Flows are traced through `let`
//!   bindings and across calls (a callee that allocates from its
//!   parameter taints the call site); findings carry the full
//!   decode-to-allocation path. The analysis is flow-insensitive about
//!   sanitization on purpose: one explicit bound check anywhere in the
//!   function discharges the ident, which matches the `if len > MAX {
//!   return Err }` idiom and keeps the rule quiet on audited code.
//!   Field assignments (`self.x = len`) are documented out of scope.
//! * **R13 — channel/WAL typestate.** Per-type protocol state
//!   machines checked over effect streams: a channel may not carry
//!   payload (`send`/`write`) before its handshake; the BUSY/shed
//!   frame is terminal (no traffic after it — loop-bearing functions
//!   are skipped, a retry loop legitimately revisits states); a store
//!   may not be mutated before WAL durability is attached when the
//!   attach is visible on the same path (in-memory stores opt out via
//!   `lint:allow`). "Retry wraps only idempotent operations" used to
//!   be a fourth, name-based clause here; rustc checks it now
//!   (`Repositories::call` takes only `Idempotent` requests).
//! * **R14 — dispatch exhaustiveness.** Every `match` over `Command`
//!   variants must either name all variants or answer the rest with an
//!   explicit error arm: a `_ =>`/binding catch-all whose body carries
//!   no error response silently drops commands, which is exactly how a
//!   protocol extension (MYPROXYv2) rots into a half-implemented
//!   dispatcher. Integer decoders (`from_u32`, where `Command::` only
//!   appears on arm bodies) are not dispatchers and are exempt.
//! * **R15 — resource leaks.** `.tmp` staging files created without a
//!   rename/removal behind them in any function's stream leak on early
//!   return; handler-set registrations (`.spawn(name, f)`) in a crate
//!   with no `.drain()` anywhere are never joined; a handshake
//!   deadline left armed for the request phase (arm → handshake → I/O
//!   with no re-arm) turns the idle timeout into a request timeout.
//!
//! Like v3, findings anchor at the first call hop inside the checked
//! function and carry inter-procedural traces; waivers are applied by
//! the caller (`check_files`).

use std::collections::{HashMap, HashSet};

use crate::callgraph::{
    close_paren, ordered_branches, CallGraph, EffectKind, CANDIDATE_CAP,
    RESOLVE_BLOCKLIST, TRACE_CAP,
};
use crate::lexer::{Token, TokenKind};
use crate::parser::{Function, ParsedFile, StmtKind};
use crate::rules::{Diagnostic, RuleSet, TaintStep};
use crate::rules_v3::{anchor_line, path_of, V3Input};

/// Run R12–R15 across the workspace. The graph is the shared one built
/// by `check_files` (`None` when no graph-scoped file was present).
pub fn run_v4(inputs: &[V3Input<'_>], graph: Option<&CallGraph>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let rules_of: HashMap<&str, RuleSet> =
        inputs.iter().map(|f| (f.rel.as_str(), f.rules)).collect();

    diags.extend(r12_wire_bounds(inputs));
    if let Some(g) = graph {
        diags.extend(r13_typestate(g, &rules_of));
        diags.extend(r15_leaks(g, &rules_of));
    }
    diags.extend(r14_dispatch(inputs));

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    diags.dedup();
    diags
}

// ---------------------------------------------------------------- R12

/// Where a tainted length came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Decoded from the wire in this function (report here).
    Wire,
    /// Entered as parameter `k` (report in callers that pass wire data).
    Param(usize),
}

#[derive(Clone)]
struct Taint {
    origin: Origin,
    /// Decode site for `Wire` origins (dedup key across callers).
    site: (String, u32),
    steps: Vec<TaintStep>,
}

/// A sink reachable from a parameter, recorded in a function's flow
/// summary so callers can extend the taint path across the call.
#[derive(Clone)]
struct SinkPath {
    desc: String,
    file: String,
    line: u32,
    steps: Vec<TaintStep>,
}

#[derive(Default, Clone)]
struct FnFlow {
    /// The function's return value carries a wire-decoded length.
    returns_tainted: bool,
    /// Param index → first unsanitized allocation it reaches.
    alloc_params: HashMap<usize, SinkPath>,
    /// Params whose taint reaches the return value unsanitized. A call
    /// whose argument lands on a param *not* in this set gets a clean
    /// result back — that is how a validator like `checked_record_len`
    /// discharges the lengths it bound-checks.
    passthrough: HashSet<usize>,
}

struct FnRef<'a> {
    rel: &'a str,
    pf: &'a ParsedFile,
    f: &'a Function,
}

/// Integer-typed parameters are length candidates; buffers are not.
fn param_is_len(ty: &str) -> bool {
    ["usize", "u16", "u32", "u64"].iter().any(|t| ty.split_whitespace().any(|w| w == *t))
}

/// Top-level argument regions of the call whose `(` sits at `open`.
fn arg_regions(toks: &[Token], open: usize, limit: usize) -> Vec<(usize, usize)> {
    let Some(close) = close_paren(toks, open, limit) else { return Vec::new() };
    let mut regions = Vec::new();
    if close > open + 1 {
        let mut depth = 0i32;
        let mut start = open + 1;
        for j in open + 1..close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                regions.push((start, j));
                start = j + 1;
            }
        }
        regions.push((start, close));
    }
    regions
}

/// A wire-length source inside `[lo, hi)`: a primitive-int
/// `from_be_bytes`/`from_le_bytes` decode, a zero-arg `.u16()`/`.u32()`
/// /`.u64()` wire-reader call, or a call to a function whose flow
/// summary says it returns a tainted length.
fn wire_source_in(
    toks: &[Token],
    lo: usize,
    hi: usize,
    by_name: &HashMap<&str, Vec<usize>>,
    fns: &[FnRef<'_>],
    flows: &[FnFlow],
) -> Option<(u32, String)> {
    let hi = hi.min(toks.len());
    for j in lo..hi {
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let txt = t.text.as_str();
        if (txt == "from_be_bytes" || txt == "from_le_bytes")
            && j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && matches!(toks[j - 3].text.as_str(), "u16" | "u32" | "u64")
        {
            return Some((
                t.line,
                format!(
                    "attacker-controlled length decoded from the wire (`{}::{}`)",
                    toks[j - 3].text, txt
                ),
            ));
        }
        if matches!(txt, "u16" | "u32" | "u64")
            && j > 0
            && toks[j - 1].is_punct('.')
            && toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && toks.get(j + 2).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            return Some((t.line, format!("wire reader `.{txt}()` yields an attacker length")));
        }
        // A resolvable call whose summary returns a tainted length.
        if toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !RESOLVE_BLOCKLIST.contains(&txt)
        {
            if let Some(cands) = by_name.get(txt) {
                if cands.len() <= CANDIDATE_CAP {
                    let dot = j > 0 && toks[j - 1].is_punct('.');
                    let args = arg_regions(toks, j + 1, hi).len();
                    let hit = cands.iter().any(|&c| {
                        let p = fns[c].f.params.len();
                        flows[c].returns_tainted && (p == args || (!dot && p + 1 == args))
                    });
                    if hit {
                        return Some((
                            t.line,
                            format!("`{txt}(..)` returns a wire-derived length"),
                        ));
                    }
                }
            }
        }
    }
    None
}

/// When a `let` init is one top-level call to a resolvable workspace
/// function — `name(args)` or `Path::name(args)`, modulo trailing `?`
/// and `as` casts — the callee's flow summary decides the binding's
/// taint. Returns `None` when the shape doesn't match or the callee is
/// unknown (caller falls back to the conservative token scan), and
/// `Some(verdict)` otherwise: `Some(Some(t))` propagates taint,
/// `Some(None)` discharges it (the callee validated its inputs).
#[allow(clippy::too_many_arguments)]
fn summary_call(
    me: &FnRef<'_>,
    toks: &[Token],
    ilo: usize,
    ihi: usize,
    by_name: &HashMap<&str, Vec<usize>>,
    fns: &[FnRef<'_>],
    flows: &[FnFlow],
    taint: &HashMap<String, Taint>,
) -> Option<Option<Taint>> {
    let ihi = ihi.min(toks.len());
    // Path prefix: idents and `::` only, ending at the called name.
    let mut ni = None;
    for j in ilo..ihi {
        let t = &toks[j];
        if t.kind == TokenKind::Ident {
            ni = Some(j);
        } else if t.is_punct(':') {
            continue;
        } else if t.is_punct('(') {
            break;
        } else {
            return None;
        }
    }
    let ni = ni?;
    if !toks.get(ni + 1).map(|t| t.is_punct('(')).unwrap_or(false) {
        return None;
    }
    let close = close_paren(toks, ni + 1, ihi)?;
    // Trailing `?` / `as <ty>` only — anything else is a wider
    // expression the summary can't speak for.
    let mut j = close + 1;
    while j < ihi {
        if toks[j].is_punct('?') {
            j += 1;
        } else if toks[j].is_ident("as") && toks.get(j + 1).map(|t| t.kind == TokenKind::Ident).unwrap_or(false) {
            j += 2;
        } else {
            return None;
        }
    }
    let name = toks[ni].text.as_str();
    if RESOLVE_BLOCKLIST.contains(&name) || name == me.f.name {
        return None;
    }
    let cands = by_name.get(name)?;
    if cands.len() > CANDIDATE_CAP {
        return None;
    }
    let regions = arg_regions(toks, ni + 1, ihi);
    let matching: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].f.params.len() == regions.len())
        .collect();
    if matching.is_empty() {
        return None;
    }
    if matching.iter().any(|&c| flows[c].returns_tainted) {
        return Some(Some(Taint {
            origin: Origin::Wire,
            site: (me.rel.to_string(), toks[ni].line),
            steps: vec![TaintStep {
                line: toks[ni].line,
                note: format!("`{name}(..)` returns a wire-derived length"),
            }],
        }));
    }
    // Taint entering a passthrough param survives the call; taint into
    // a validated param does not.
    for (k, &(lo, hi)) in regions.iter().enumerate() {
        if !matching.iter().any(|&c| flows[c].passthrough.contains(&k)) {
            continue;
        }
        let tn = if let Some((line, note)) = wire_source_in(toks, lo, hi, by_name, fns, flows) {
            Some(Taint {
                origin: Origin::Wire,
                site: (me.rel.to_string(), line),
                steps: vec![TaintStep { line, note }],
            })
        } else {
            (lo..hi.min(toks.len())).find_map(|j| {
                (toks[j].kind == TokenKind::Ident)
                    .then(|| taint.get(&toks[j].text).cloned())
                    .flatten()
            })
        };
        if let Some(mut tn) = tn {
            tn.steps.push(TaintStep {
                line: toks[ni].line,
                note: format!("tainted length passes through `{name}(..)`"),
            });
            tn.steps.truncate(TRACE_CAP);
            return Some(Some(tn));
        }
    }
    Some(None)
}

/// One local analysis of a function: returns its flow summary and any
/// wire-origin findings (only used on the final pass).
fn analyze_fn(
    me: &FnRef<'_>,
    fns: &[FnRef<'_>],
    by_name: &HashMap<&str, Vec<usize>>,
    flows: &[FnFlow],
) -> (FnFlow, Vec<(Taint, String, String, u32, u32, Vec<TaintStep>)>) {
    let toks = &me.pf.lexed.tokens;
    let mut taint: HashMap<String, Taint> = HashMap::new();
    for (k, p) in me.f.params.iter().enumerate() {
        if param_is_len(&p.ty) {
            taint.insert(
                p.name.clone(),
                Taint {
                    origin: Origin::Param(k),
                    site: (String::new(), 0),
                    steps: vec![TaintStep {
                        line: p.line,
                        note: format!(
                            "unchecked length enters `{}` as parameter `{}`",
                            me.f.name, p.name
                        ),
                    }],
                },
            );
        }
    }
    let mut flow = FnFlow::default();
    // (taint, sink desc, sink file, sink line, anchor line, extra steps)
    let mut hits: Vec<(Taint, String, String, u32, u32, Vec<TaintStep>)> = Vec::new();

    // Tail expression: the last value-position statement (no trailing
    // `;`) — `Ok(len as usize)` style returns.
    let tail_idx = me
        .f
        .stmts
        .iter()
        .rposition(|s| {
            s.kind == StmtKind::Expr
                && s.toks.1 > s.toks.0
                && !toks[s.toks.1 - 1].is_punct(';')
        });

    for (si, s) in me.f.stmts.iter().enumerate() {
        if matches!(s.kind, StmtKind::BlockOpen | StmtKind::BlockClose) {
            continue;
        }
        let (st, en) = s.toks;

        // 1. Sanitization: a tainted ident that is compared, clamped,
        // or checked-converted anywhere discharges its taint (the
        // documented flow-insensitive compromise).
        let mut cleared: Vec<String> = Vec::new();
        for i in st..en {
            let t = &toks[i];
            if t.kind != TokenKind::Ident || !taint.contains_key(&t.text) {
                continue;
            }
            let prev_cmp = i > st && (toks[i - 1].is_punct('<') || toks[i - 1].is_punct('>'));
            // `as` casts are transparent: `wire as u64 > MAX` compares
            // `wire`, just widened first.
            let mut j = i;
            while j + 2 < en
                && toks[j + 1].is_ident("as")
                && toks[j + 2].kind == TokenKind::Ident
            {
                j += 2;
            }
            let next_cmp =
                j + 1 < en && (toks[j + 1].is_punct('<') || toks[j + 1].is_punct('>'));
            let clamped = i + 2 < en
                && toks[i + 1].is_punct('.')
                && (toks[i + 2].is_ident("min") || toks[i + 2].is_ident("clamp"));
            let checked_conv = i >= 2
                && toks[i - 1].is_punct('(')
                && toks[i - 2].is_ident("try_from")
                || (i + 2 < en && toks[i + 1].is_punct('.') && toks[i + 2].is_ident("try_into"));
            if prev_cmp || next_cmp || clamped || checked_conv {
                cleared.push(t.text.clone());
            }
        }
        for n in &cleared {
            taint.remove(n);
        }

        // 2. Sinks.
        let first_tainted = |lo: usize, hi: usize, taint: &HashMap<String, Taint>| {
            (lo..hi.min(toks.len())).find_map(|j| {
                (toks[j].kind == TokenKind::Ident)
                    .then(|| taint.get(&toks[j].text).cloned())
                    .flatten()
            })
        };
        for i in st..en {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let called = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
            let txt = t.text.as_str();
            if called && matches!(txt, "with_capacity" | "reserve" | "resize" | "read_exact") {
                let Some(close) = close_paren(toks, i + 1, en) else { continue };
                if let Some(tn) = first_tainted(i + 2, close, &taint) {
                    hits.push((
                        tn,
                        format!("`{txt}(..)`"),
                        me.rel.to_string(),
                        t.line,
                        t.line,
                        Vec::new(),
                    ));
                }
                continue;
            }
            // `vec![elem; n]` repeat form: the length expression after
            // the top-level `;` is the sink operand.
            if txt == "vec"
                && toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
                && toks.get(i + 2).map(|n| n.is_punct('[')).unwrap_or(false)
            {
                let mut depth = 0i32;
                let mut semi = None;
                let mut close = None;
                for j in i + 2..en {
                    let tj = &toks[j];
                    if tj.is_punct('[') || tj.is_punct('(') || tj.is_punct('{') {
                        depth += 1;
                    } else if tj.is_punct(']') || tj.is_punct(')') || tj.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(j);
                            break;
                        }
                    } else if tj.is_punct(';') && depth == 1 {
                        semi = Some(j);
                    }
                }
                if let (Some(sp), Some(cl)) = (semi, close) {
                    if let Some(tn) = first_tainted(sp + 1, cl, &taint) {
                        hits.push((
                            tn,
                            "`vec![_; n]`".to_string(),
                            me.rel.to_string(),
                            t.line,
                            t.line,
                            Vec::new(),
                        ));
                    }
                }
                continue;
            }
            // Inter-procedural sink: passing a tainted length to a
            // parameter the callee allocates from.
            if called && !RESOLVE_BLOCKLIST.contains(&txt) && txt != me.f.name {
                let Some(cands) = by_name.get(txt) else { continue };
                if cands.len() > CANDIDATE_CAP {
                    continue;
                }
                let dot = i > st && toks[i - 1].is_punct('.');
                let regions = arg_regions(toks, i + 1, en);
                for &c in cands.iter() {
                    let p = fns[c].f.params.len();
                    let recv_shift = if p == regions.len() {
                        0usize
                    } else if !dot && p + 1 == regions.len() {
                        1
                    } else {
                        continue;
                    };
                    if flows[c].alloc_params.is_empty() {
                        continue;
                    }
                    for (k, &(lo, hi)) in regions.iter().enumerate() {
                        if k < recv_shift {
                            continue;
                        }
                        let Some(sink) = flows[c].alloc_params.get(&(k - recv_shift)) else {
                            continue;
                        };
                        let Some(tn) = first_tainted(lo, hi, &taint) else { continue };
                        let mut extra = vec![TaintStep {
                            line: t.line,
                            note: format!(
                                "`{}` passes the tainted length to `{}` ({})",
                                me.f.name, txt, fns[c].rel
                            ),
                        }];
                        extra.extend(sink.steps.iter().cloned());
                        hits.push((
                            tn,
                            sink.desc.clone(),
                            sink.file.clone(),
                            sink.line,
                            t.line,
                            extra,
                        ));
                    }
                }
            }
        }

        // Record what the hits mean for this function's summary.
        // (Findings for Wire origins are emitted by the caller of
        // `analyze_fn` on the final pass.)
        for (tn, desc, sfile, sline, _anchor, extra) in &hits {
            if let Origin::Param(k) = tn.origin {
                flow.alloc_params.entry(k).or_insert_with(|| {
                    let mut steps = tn.steps.clone();
                    steps.extend(extra.iter().cloned());
                    // Inter-procedural hits already carry the callee's
                    // terminal allocation step in `extra`.
                    if extra.is_empty() {
                        steps.push(TaintStep {
                            line: *sline,
                            note: format!("reaches allocation {desc} [{sfile}:{sline}]"),
                        });
                    }
                    steps.truncate(TRACE_CAP);
                    SinkPath {
                        desc: desc.clone(),
                        file: sfile.clone(),
                        line: *sline,
                        steps,
                    }
                });
            }
        }

        // 3. Propagation through `let` bindings.
        if s.kind == StmtKind::Let && s.init.1 > s.init.0 && !s.pats.is_empty() {
            let (ilo, ihi) = s.init;
            // A summary-resolvable call decides the binding's taint
            // itself (and can discharge it); otherwise fall back to
            // the conservative token scan.
            let source = match summary_call(me, toks, ilo, ihi, by_name, fns, flows, &taint) {
                Some(verdict) => verdict,
                None => {
                    if let Some((line, note)) =
                        wire_source_in(toks, ilo, ihi, by_name, fns, flows)
                    {
                        Some(Taint {
                            origin: Origin::Wire,
                            site: (me.rel.to_string(), line),
                            steps: vec![TaintStep { line, note }],
                        })
                    } else {
                        (ilo..ihi.min(toks.len())).find_map(|j| {
                            (toks[j].kind == TokenKind::Ident)
                                .then(|| taint.get(&toks[j].text).cloned())
                                .flatten()
                        })
                    }
                }
            };
            if let Some(tn) = source {
                for pat in &s.pats {
                    let mut t2 = tn.clone();
                    t2.steps.push(TaintStep {
                        line: s.line,
                        note: format!("tainted length bound to `{pat}`"),
                    });
                    t2.steps.truncate(TRACE_CAP);
                    taint.insert(pat.clone(), t2);
                }
            }
        }

        // 4. Returns: a `return` statement or the tail expression that
        // carries wire taint makes the function's value tainted; one
        // that carries a param's taint makes that param passthrough.
        let is_return = toks[st..en].iter().any(|t| t.is_ident("return"));
        if is_return || Some(si) == tail_idx {
            if wire_source_in(toks, st, en, by_name, fns, flows).is_some() {
                flow.returns_tainted = true;
            }
            for j in st..en {
                if toks[j].kind != TokenKind::Ident {
                    continue;
                }
                match taint.get(&toks[j].text).map(|t| t.origin) {
                    Some(Origin::Wire) => flow.returns_tainted = true,
                    Some(Origin::Param(k)) => {
                        flow.passthrough.insert(k);
                    }
                    None => {}
                }
            }
        }
    }
    (flow, hits)
}

fn r12_wire_bounds(inputs: &[V3Input<'_>]) -> Vec<Diagnostic> {
    let mut fns: Vec<FnRef<'_>> = Vec::new();
    for f in inputs.iter().filter(|f| f.rules.r12) {
        for func in &f.parsed.functions {
            if func.is_test {
                continue;
            }
            fns.push(FnRef { rel: &f.rel, pf: f.parsed, f: func });
        }
    }
    if fns.is_empty() {
        return Vec::new();
    }
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, fr) in fns.iter().enumerate() {
        by_name.entry(fr.f.name.as_str()).or_default().push(i);
    }
    let mut flows: Vec<FnFlow> = vec![FnFlow::default(); fns.len()];
    for _pass in 0..8 {
        let mut changed = false;
        for i in 0..fns.len() {
            let (nf, _) = analyze_fn(&fns[i], &fns, &by_name, &flows);
            let sig = |f: &FnFlow| -> (bool, Vec<(usize, String, u32)>, Vec<usize>) {
                let mut a: Vec<_> = f
                    .alloc_params
                    .iter()
                    .map(|(k, s)| (*k, s.file.clone(), s.line))
                    .collect();
                a.sort();
                let mut p: Vec<usize> = f.passthrough.iter().copied().collect();
                p.sort_unstable();
                (f.returns_tainted, a, p)
            };
            if sig(&nf) != sig(&flows[i]) {
                changed = true;
                flows[i] = nf;
            }
        }
        if !changed {
            break;
        }
    }
    // Final pass: collect wire-origin findings, globally deduped by
    // (decode site, sink site) with the shortest path winning.
    let mut cands: HashMap<(String, u32, String, u32), Diagnostic> = HashMap::new();
    for i in 0..fns.len() {
        let (_, hits) = analyze_fn(&fns[i], &fns, &by_name, &flows);
        for (tn, desc, sfile, sline, anchor, extra) in hits {
            if tn.origin != Origin::Wire {
                continue;
            }
            let mut path = tn.steps.clone();
            let local_sink = extra.is_empty();
            path.extend(extra);
            if local_sink {
                path.push(TaintStep {
                    line: sline,
                    note: format!("reaches allocation {desc} [{sfile}:{sline}]"),
                });
            }
            path.truncate(TRACE_CAP);
            let d = Diagnostic {
                file: fns[i].rel.to_string(),
                line: anchor,
                rule: "R12",
                message: format!(
                    "wire-derived length reaches {desc} at {sfile}:{sline} with no bound \
                     check on the way — clamp against a protocol maximum before allocating"
                ),
                path,
            };
            let key = (tn.site.0.clone(), tn.site.1, sfile, sline);
            match cands.get(&key) {
                Some(old) if old.path.len() <= d.path.len() => {}
                _ => {
                    cands.insert(key, d);
                }
            }
        }
    }
    cands.into_values().collect()
}

// ---------------------------------------------------------------- R13

fn r13_typestate(g: &CallGraph, rules_of: &HashMap<&str, RuleSet>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: HashSet<(String, u32, &'static str, String, u32)> = HashSet::new();
    for i in 0..g.fns.len() {
        let f = &g.fns[i];
        if !rules_of.get(f.file.as_str()).map(|r| r.r13).unwrap_or(false) || f.is_substrate() {
            continue;
        }
        let s = g.summary(i);

        // (a) handshake-before-payload: a payload send is a finding
        // when a handshake *follows* it on the same execution path and
        // none precedes it there — the function establishes sessions
        // on that path but wrote first. Sibling branches (a plain-HTTP
        // arm next to a TLS arm) are exclusive and never compared, and
        // a connect's own spliced internals follow its marker, so an
        // established channel's writes are always covered by the
        // handshake that opened it — even when a *second* connection
        // is opened later in the same stream.
        let handshakes: Vec<(usize, &crate::callgraph::Effect)> = s
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EffectKind::Handshake)
            .collect();
        if !handshakes.is_empty() {
            'payload: for (pi, e) in s.iter().enumerate() {
                if !matches!(e.kind, EffectKind::Ack | EffectKind::SocketWrite) {
                    continue;
                }
                let follows = handshakes
                    .iter()
                    .any(|(hi, h)| *hi > pi && ordered_branches(&e.branch, &h.branch));
                let covered = handshakes
                    .iter()
                    .any(|(hi, h)| *hi < pi && ordered_branches(&h.branch, &e.branch));
                if !follows || covered {
                    continue;
                }
                let line = anchor_line(e);
                if !seen.insert((f.file.clone(), line, "hs", e.file.clone(), e.line)) {
                    continue;
                }
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line,
                    rule: "R13",
                    message: format!(
                        "`{}` sends payload ({} at {}:{}) before the channel handshake — \
                         nothing may be written until the session is established",
                        f.name,
                        e.kind.label(),
                        e.file,
                        e.line
                    ),
                    path: path_of(e, "pre-handshake payload"),
                });
                break 'payload;
            }
        }

        // (b) BUSY/shed is terminal. Loop-bearing functions are
        // skipped: a flattened accept loop legitimately sheds one
        // connection and handshakes the next.
        if !f.has_loop {
            if let Some(b) = s.iter().position(|e| e.kind == EffectKind::BusyShed) {
                if let Some(e) = s[b + 1..].iter().find(|e| {
                    matches!(
                        e.kind,
                        EffectKind::Handshake
                            | EffectKind::Ack
                            | EffectKind::SocketRead
                            | EffectKind::SocketWrite
                    ) && ordered_branches(&s[b].branch, &e.branch)
                }) {
                    let line = anchor_line(e);
                    if seen.insert((f.file.clone(), line, "busy", e.file.clone(), e.line)) {
                        out.push(Diagnostic {
                            file: f.file.clone(),
                            line,
                            rule: "R13",
                            message: format!(
                                "`{}` continues channel traffic ({} at {}:{}) after the \
                                 BUSY/shed frame — BUSY is terminal for the connection",
                                f.name,
                                e.kind.label(),
                                e.file,
                                e.line
                            ),
                            path: path_of(e, "traffic after BUSY"),
                        });
                    }
                }
            }
        }

        // (c) durability attach order: where the WAL attach is visible
        // on the path, no store mutation may precede it.
        if let Some(w) = s.iter().position(|e| e.kind == EffectKind::WalAttach) {
            for e in &s[..w] {
                if e.kind != EffectKind::Mutate || !ordered_branches(&e.branch, &s[w].branch) {
                    continue;
                }
                let line = anchor_line(e);
                if !seen.insert((f.file.clone(), line, "wal", e.file.clone(), e.line)) {
                    continue;
                }
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line,
                    rule: "R13",
                    message: format!(
                        "`{}` mutates the store ({}:{}) before WAL durability is attached \
                         — attach first (or waive for a deliberately in-memory store)",
                        f.name, e.file, e.line
                    ),
                    path: path_of(e, "pre-attach mutation"),
                });
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------- R14

/// Collect `enum Command { .. }` variant names declared in a file.
fn command_variants(pf: &ParsedFile) -> Option<Vec<String>> {
    let toks = &pf.lexed.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum")
            && toks.get(i + 1).map(|t| t.is_ident("Command")).unwrap_or(false))
        {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        if j >= toks.len() {
            return None;
        }
        let mut depth = 0i32;
        let mut variants = Vec::new();
        let mut expect = true;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 {
                if t.is_punct(',') {
                    expect = true;
                } else if expect
                    && t.kind == TokenKind::Ident
                    && t.text.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
                {
                    variants.push(t.text.clone());
                    expect = false;
                }
            }
            j += 1;
        }
        return Some(variants);
    }
    None
}

/// One parsed match arm: its pattern token range, body token range,
/// and the pattern's first line.
struct Arm {
    pat: (usize, usize),
    body: (usize, usize),
    line: u32,
}

/// Split a match body (tokens strictly inside its braces) into arms.
fn split_arms(toks: &[Token], lo: usize, hi: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut j = lo;
    while j < hi {
        let pat_start = j;
        // Pattern: scan to the `=>` at depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        while j < hi {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(j + 1).map(|n| n.is_punct('>') && t.glues_with(n)).unwrap_or(false)
            {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(ar) = arrow else { break };
        // Body: a balanced block, or everything to the `,` at depth 0.
        let body_start = ar + 2;
        let mut k = body_start;
        let body_end;
        if toks.get(k).map(|t| t.is_punct('{')).unwrap_or(false) {
            let mut d = 0i32;
            while k < hi {
                if toks[k].is_punct('{') {
                    d += 1;
                } else if toks[k].is_punct('}') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            body_end = (k + 1).min(hi);
            k += 1;
            if toks.get(k).map(|t| t.is_punct(',')).unwrap_or(false) {
                k += 1;
            }
        } else {
            let mut d = 0i32;
            while k < hi {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    d -= 1;
                } else if t.is_punct(',') && d == 0 {
                    break;
                }
                k += 1;
            }
            body_end = k;
            k += 1;
        }
        if pat_start < ar {
            arms.push(Arm {
                pat: (pat_start, ar),
                body: (body_start, body_end),
                line: toks[pat_start].line,
            });
        }
        j = k;
    }
    arms
}

/// Does an arm body answer with an explicit error response?
fn body_has_error_response(toks: &[Token], lo: usize, hi: usize) -> bool {
    toks[lo..hi.min(toks.len())].iter().any(|t| {
        if t.kind != TokenKind::Ident && t.kind != TokenKind::Str {
            return false;
        }
        let l = t.text.to_ascii_lowercase();
        l.contains("err")
            || l.contains("unknown")
            || l.contains("unsupported")
            || l.contains("unrecognized")
            || matches!(
                l.as_str(),
                "refuse" | "refused" | "reject" | "rejected" | "deny" | "denied" | "unreachable"
            )
    })
}

fn r14_dispatch(inputs: &[V3Input<'_>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Variant declarations: prefer the same file's, else the single
    // global declaration if exactly one file has one.
    let decls: Vec<(&str, Vec<String>)> = inputs
        .iter()
        .filter(|f| f.rules.r14)
        .filter_map(|f| command_variants(f.parsed).map(|v| (f.rel.as_str(), v)))
        .collect();
    let global = (decls.len() == 1).then(|| decls[0].1.clone());
    for f in inputs.iter().filter(|f| f.rules.r14) {
        let toks = &f.parsed.lexed.tokens;
        let mask = &f.parsed.test_mask;
        let known: Option<&Vec<String>> = decls
            .iter()
            .find(|(rel, _)| *rel == f.rel.as_str())
            .map(|(_, v)| v)
            .or(global.as_ref());
        for i in 0..toks.len() {
            if !toks[i].is_ident("match") || mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            // The match body `{` at paren depth 0 after the scrutinee.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut open = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('{') && depth == 0 {
                    open = Some(j);
                    break;
                } else if t.is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let Some(close) = ({
                let mut d = 0i32;
                let mut k = open;
                let mut c = None;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        d += 1;
                    } else if toks[k].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            c = Some(k);
                            break;
                        }
                    }
                    k += 1;
                }
                c
            }) else {
                continue;
            };
            let arms = split_arms(toks, open + 1, close);
            // A Command dispatcher: at least one arm *pattern* names a
            // `Command::` variant (an integer decoder's patterns do not).
            let mut matched: Vec<String> = Vec::new();
            let mut catch_all: Option<(&Arm, bool)> = None;
            for arm in &arms {
                let (plo, phi) = arm.pat;
                // Guarded patterns: only the part before a depth-0 `if`.
                let guard = (plo..phi).find(|&k| toks[k].is_ident("if")).unwrap_or(phi);
                let ptoks = &toks[plo..guard];
                for w in 0..ptoks.len() {
                    if ptoks[w].is_ident("Command")
                        && ptoks.get(w + 1).map(|t| t.is_punct(':')).unwrap_or(false)
                        && ptoks.get(w + 2).map(|t| t.is_punct(':')).unwrap_or(false)
                    {
                        if let Some(v) = ptoks.get(w + 3) {
                            if v.kind == TokenKind::Ident {
                                matched.push(v.text.clone());
                            }
                        }
                    }
                }
                let is_wild = ptoks.len() == 1
                    && (ptoks[0].is_punct('_')
                        || (ptoks[0].kind == TokenKind::Ident
                            && ptoks[0]
                                .text
                                .chars()
                                .next()
                                .map(|c| c == '_' || c.is_ascii_lowercase())
                                .unwrap_or(false)));
                if is_wild && catch_all.is_none() {
                    catch_all =
                        Some((arm, body_has_error_response(toks, arm.body.0, arm.body.1)));
                }
            }
            if matched.is_empty() {
                continue; // not a Command dispatcher
            }
            let missing: Vec<String> = known
                .map(|k| k.iter().filter(|v| !matched.contains(v)).cloned().collect())
                .unwrap_or_default();
            match catch_all {
                Some((_, true)) => {} // explicit error arm: exhaustive by construction
                Some((arm, false)) => {
                    if known.is_none() || !missing.is_empty() {
                        let what = if missing.is_empty() {
                            "future Command variants".to_string()
                        } else {
                            format!("Command::{{{}}}", missing.join(", "))
                        };
                        out.push(Diagnostic {
                            file: f.rel.clone(),
                            line: arm.line,
                            rule: "R14",
                            message: format!(
                                "catch-all arm silently swallows {what} — a dispatcher must \
                                 answer unhandled commands with an explicit protocol error"
                            ),
                            path: Vec::new(),
                        });
                    }
                }
                None => {
                    if !missing.is_empty() {
                        out.push(Diagnostic {
                            file: f.rel.clone(),
                            line: toks[i].line,
                            rule: "R14",
                            message: format!(
                                "Command dispatch handles {} of {} variants and has no \
                                 error arm for Command::{{{}}} — handle them or answer \
                                 with an explicit error",
                                matched.len(),
                                known.map(|k| k.len()).unwrap_or(0),
                                missing.join(", ")
                            ),
                            path: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- R15

fn crate_of(rel: &str) -> String {
    rel.split('/').take(2).collect::<Vec<_>>().join("/")
}

fn r15_leaks(g: &CallGraph, rules_of: &HashMap<&str, RuleSet>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // (a) tmp staging files: a create site is satisfied if *any*
    // function's stream shows it followed by a rename or removal
    // (the substrate's own tmp→fsync→rename discipline satisfies its
    // sites locally).
    let mut satisfied: HashSet<(String, u32)> = HashSet::new();
    let mut drains_in: HashSet<String> = HashSet::new();
    for i in 0..g.fns.len() {
        let s = g.summary(i);
        for (ti, e) in s.iter().enumerate() {
            if e.kind == EffectKind::TmpCreate
                && s[ti + 1..]
                    .iter()
                    .any(|x| matches!(x.kind, EffectKind::Rename | EffectKind::FileRemove))
            {
                satisfied.insert((e.file.clone(), e.line));
            }
            if e.kind == EffectKind::Drain {
                drains_in.insert(crate_of(&g.fns[i].file));
            }
        }
    }
    let mut seen_sites: HashSet<(String, u32)> = HashSet::new();
    for i in 0..g.fns.len() {
        let f = &g.fns[i];
        if !rules_of.get(f.file.as_str()).map(|r| r.r15).unwrap_or(false) || f.is_substrate() {
            continue;
        }
        let s = g.summary(i);
        for e in s {
            if e.kind == EffectKind::TmpCreate
                && !satisfied.contains(&(e.file.clone(), e.line))
                && seen_sites.insert((e.file.clone(), e.line))
            {
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line: anchor_line(e),
                    rule: "R15",
                    message: format!(
                        "tmp staging file created at {}:{} is never renamed or removed on \
                         any path — early returns leak it into the store directory",
                        e.file, e.line
                    ),
                    path: path_of(e, "leaked tmp create"),
                });
            }
        }

        // (b) handler registrations: a crate that registers named
        // handlers must drain them somewhere, or shutdown never joins
        // the threads. Local sites only, so one finding per site.
        for e in s {
            if e.kind == EffectKind::Register
                && e.trace.is_empty()
                && !drains_in.contains(&crate_of(&f.file))
                && seen_sites.insert((e.file.clone(), e.line))
            {
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line: e.line,
                    rule: "R15",
                    message: format!(
                        "handler registered in `{}` but its crate never drains the handler \
                         set — registrations without a `.drain()` are never joined",
                        f.name
                    ),
                    path: path_of(e, "undrained registration"),
                });
            }
        }

        // (c) a deadline armed before the handshake that is still the
        // one in force for request I/O: arm → handshake → I/O with no
        // re-arm in between. I/O anchored at the handshake call itself
        // is the handshake's own traffic and does not count.
        let arm = s.iter().position(|e| e.kind == EffectKind::DeadlineArm);
        if let Some(a) = arm {
            if let Some(h) = s[a + 1..]
                .iter()
                .position(|e| {
                    e.kind == EffectKind::Handshake
                        && ordered_branches(&s[a].branch, &e.branch)
                })
                .map(|p| p + a + 1)
            {
                let hs_anchor = anchor_line(&s[h]);
                for e in &s[h + 1..] {
                    match e.kind {
                        EffectKind::DeadlineArm => break,
                        EffectKind::SocketRead | EffectKind::SocketWrite | EffectKind::Ack => {
                            if anchor_line(e) == hs_anchor
                                || !ordered_branches(&s[h].branch, &e.branch)
                            {
                                continue;
                            }
                            out.push(Diagnostic {
                                file: f.file.clone(),
                                line: anchor_line(e),
                                rule: "R15",
                                message: format!(
                                    "`{}` serves request I/O ({} at {}:{}) under the deadline \
                                     armed before the handshake — re-arm the idle deadline \
                                     after accept, or a slow request inherits the handshake \
                                     budget",
                                    f.name,
                                    e.kind.label(),
                                    e.file,
                                    e.line
                                ),
                                path: path_of(e, "I/O under stale handshake deadline"),
                            });
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}
