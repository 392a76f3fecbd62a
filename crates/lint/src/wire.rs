//! Wire-length safety: the daemon never trusts an attacker-controlled
//! length.
//!
//! * **R4 — truncating casts.** No `as u8`/`as u16`/`as u32` on length
//!   arithmetic in the DER encoder and the GSI framing layer.
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
//!
//! R12 keeps its own per-function flow summaries (does the return value
//! carry a wire length? which parameters reach an allocation? which
//! pass through to the return?) rather than riding the effect
//! summaries of [`crate::callgraph`]: those order *events*, these
//! track *values*.

use std::collections::{HashMap, HashSet};

use crate::callgraph::{CANDIDATE_CAP, TRACE_CAP};
use crate::facts::{Call, Fact, FnFacts, StmtFacts, RESOLVE_BLOCKLIST};
use crate::lexer::{Token, TokenKind};
use crate::parser::{Function, StmtKind};
use crate::rules::{Diagnostic, SourceFile, TaintStep};

/// R4: truncating `as u8`/`as u16`/`as u32` casts with a length-ish
/// identifier in the preceding expression tokens.
pub(crate) fn r4_truncating_casts(file: &SourceFile) -> Vec<Diagnostic> {
    let tokens = file.toks();
    let lenish = |p: &Token| {
        let l = p.text.to_ascii_lowercase();
        p.kind == TokenKind::Ident
            && (matches!(
                l.as_str(),
                "len" | "length" | "size" | "count" | "remaining" | "capacity"
            ) || ["_len", "_length", "_size", "_count"]
                .iter()
                .any(|suffix| l.ends_with(suffix)))
    };
    let mut diags = Vec::new();
    for (i, pair) in tokens.windows(2).enumerate() {
        let (t, ty) = (&pair[0], &pair[1]);
        let truncating =
            t.is_ident("as") && (ty.is_ident("u8") || ty.is_ident("u16") || ty.is_ident("u32"));
        if truncating
            && !file.parsed.test_mask[i]
            && tokens[i.saturating_sub(8)..i].iter().any(lenish)
        {
            let message = format!(
                "length value cast with `as {}` can silently truncate; use try_from with an explicit bound",
                ty.text
            );
            diags.push(Diagnostic::new(&file.rel, t.line, "R4", message));
        }
    }
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

impl Taint {
    fn wire(rel: &str, line: u32, note: String) -> Taint {
        Taint {
            origin: Origin::Wire,
            site: (rel.to_string(), line),
            steps: vec![TaintStep { line, note }],
        }
    }

    fn then(mut self, line: u32, note: String) -> Taint {
        self.steps.push(TaintStep { line, note });
        self.steps.truncate(TRACE_CAP);
        self
    }
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

impl FnFlow {
    /// The fixpoint test: do callers see the same summary? (Sink
    /// *sites* are compared, not the steps leading to them.)
    fn same_as(&self, other: &FnFlow) -> bool {
        let sinks = |f: &FnFlow| -> HashSet<(usize, String, u32)> {
            f.alloc_params.iter().map(|(k, s)| (*k, s.file.clone(), s.line)).collect()
        };
        self.returns_tainted == other.returns_tainted
            && self.passthrough == other.passthrough
            && sinks(self) == sinks(other)
    }
}

/// A tainted length reaching an allocation.
struct Hit {
    taint: Taint,
    /// The sink: description and site (the callee's, across a call).
    desc: String,
    file: String,
    line: u32,
    /// Line the finding anchors at in the analyzed function.
    anchor: u32,
    /// The call hop and the callee's own steps, for inter-procedural
    /// hits (empty when the sink is local).
    extra: Vec<TaintStep>,
}

impl Hit {
    /// Origin-to-allocation path.
    fn path(&self) -> Vec<TaintStep> {
        let mut steps = self.taint.steps.clone();
        steps.extend(self.extra.iter().cloned());
        // Inter-procedural hits already carry the callee's terminal
        // allocation step in `extra`.
        if self.extra.is_empty() {
            let Hit { desc, file, line, .. } = self;
            steps.push(TaintStep {
                line: *line,
                note: format!("reaches allocation {desc} [{file}:{line}]"),
            });
        }
        steps.truncate(TRACE_CAP);
        steps
    }
}

struct FnRef<'a> {
    rel: &'a str,
    toks: &'a [Token],
    f: &'a Function,
    facts: &'a FnFacts,
}

/// Integer-typed parameters are length candidates; buffers are not.
fn param_is_len(ty: &str) -> bool {
    ty.split_whitespace().any(|w| matches!(w, "usize" | "u16" | "u32" | "u64"))
}

/// Every in-scope function with the flow summaries computed so far.
struct Flows<'a> {
    fns: Vec<FnRef<'a>>,
    by_name: HashMap<&'a str, Vec<usize>>,
    flows: Vec<FnFlow>,
}

impl Flows<'_> {
    /// The functions a call to `name` may resolve to (none when the
    /// name is blocklisted or too ambiguous).
    fn candidates(&self, name: &str) -> &[usize] {
        match self.by_name.get(name) {
            Some(c) if c.len() <= CANDIDATE_CAP && !RESOLVE_BLOCKLIST.contains(&name) => c,
            _ => &[],
        }
    }

    /// A wire-length source among the statement's calls in `[lo, hi)`:
    /// a primitive-int `from_be_bytes`/`from_le_bytes` decode, a
    /// zero-arg `.u16()`/`.u32()`/`.u64()` wire-reader call, or a call
    /// to a function whose flow summary says it returns a tainted
    /// length.
    fn wire_source_in(
        &self,
        toks: &[Token],
        s: &StmtFacts,
        (lo, hi): (usize, usize),
    ) -> Option<(u32, String)> {
        s.calls().filter(|c| (lo..hi).contains(&c.tok)).find_map(|c| {
            let t = &toks[c.tok];
            let txt = t.text.as_str();
            let int = |q: usize| matches!(toks[q].text.as_str(), "u16" | "u32" | "u64");
            let note =
                if matches!(txt, "from_be_bytes" | "from_le_bytes") && c.qual.is_some_and(int) {
                    let ty = &toks[c.qual?].text;
                    format!("attacker-controlled length decoded from the wire (`{ty}::{txt}`)")
                } else if c.dot && int(c.tok) && c.close == Some(c.tok + 2) {
                    format!("wire reader `.{txt}()` yields an attacker length")
                } else if self.candidates(txt).iter().any(|&k| {
                    self.flows[k].returns_tainted && arity_shift(c, self.fns[k].f).is_some()
                }) {
                    format!("`{txt}(..)` returns a wire-derived length")
                } else {
                    return None;
                };
            Some((t.line, note))
        })
    }

    /// When a `let` init is one top-level call to a resolvable
    /// workspace function — `name(args)` or `Path::name(args)`, modulo
    /// trailing `?` and `as` casts — the callee's flow summary decides
    /// the binding's taint. Returns `None` when the shape doesn't match
    /// or the callee is unknown (caller falls back to the conservative
    /// token scan), and `Some(verdict)` otherwise: `Some(Some(t))`
    /// propagates taint, `Some(None)` discharges it (the callee
    /// validated its inputs).
    fn summary_call(
        &self,
        me: &FnRef<'_>,
        s: &StmtFacts,
        (ilo, ihi): (usize, usize),
        taint: &HashMap<String, Taint>,
    ) -> Option<Option<Taint>> {
        let toks = me.toks;
        // Path prefix: idents and `::` only, ending at the called name.
        let open =
            (ilo..ihi).find(|&j| toks[j].kind != TokenKind::Ident && !toks[j].is_punct(':'))?;
        let call = s.calls().find(|c| c.tok + 1 == open)?;
        // Trailing `?` / `as <ty>` only — anything else is a wider
        // expression the summary can't speak for.
        let mut j = call.close? + 1;
        while j < ihi {
            if toks[j].is_punct('?') {
                j += 1;
            } else if toks[j].is_ident("as") && toks.get(j + 1)?.kind == TokenKind::Ident {
                j += 2;
            } else {
                return None;
            }
        }
        let name = &toks[call.tok];
        if name.text == me.f.name {
            return None;
        }
        let matching: Vec<usize> = self
            .candidates(&name.text)
            .iter()
            .copied()
            .filter(|&c| self.fns[c].f.params.len() == call.args.len())
            .collect();
        if matching.is_empty() {
            return None;
        }
        if matching.iter().any(|&c| self.flows[c].returns_tainted) {
            let note = format!("`{}(..)` returns a wire-derived length", name.text);
            return Some(Some(Taint::wire(me.rel, name.line, note)));
        }
        // Taint entering a passthrough param survives the call; taint
        // into a validated param does not.
        for (k, &region) in call.args.iter().enumerate() {
            if !matching.iter().any(|&c| self.flows[c].passthrough.contains(&k)) {
                continue;
            }
            let tn = match self.wire_source_in(toks, s, region) {
                Some((line, note)) => Some(Taint::wire(me.rel, line, note)),
                None => first_tainted(toks, region, taint),
            };
            if let Some(tn) = tn {
                let note = format!("tainted length passes through `{}(..)`", name.text);
                return Some(Some(tn.then(name.line, note)));
            }
        }
        Some(None)
    }

    /// One local analysis of function `i`: its flow summary and every
    /// tainted length that reaches an allocation (wire-origin hits are
    /// findings; param-origin hits feed the summary).
    fn analyze_fn(&self, i: usize) -> (FnFlow, Vec<Hit>) {
        let me = &self.fns[i];
        let toks = me.toks;
        let mut taint: HashMap<String, Taint> = HashMap::new();
        for (k, p) in me.f.params.iter().enumerate().filter(|(_, p)| param_is_len(&p.ty)) {
            let note = format!("unchecked length enters `{}` as parameter `{}`", me.f.name, p.name);
            let steps = vec![TaintStep { line: p.line, note }];
            taint.insert(
                p.name.clone(),
                Taint { origin: Origin::Param(k), site: (String::new(), 0), steps },
            );
        }
        let mut flow = FnFlow::default();
        let mut hits: Vec<Hit> = Vec::new();

        // Tail expression: the last value-position statement (no
        // trailing `;`) — `Ok(len as usize)` style returns.
        let tail_idx = me.f.stmts.iter().rposition(|s| {
            s.kind == StmtKind::Expr && s.toks.1 > s.toks.0 && !toks[s.toks.1 - 1].is_punct(';')
        });

        for s in &me.facts.stmts {
            let (st, en) = me.f.stmts[s.stmt].toks;

            // 1. Sanitization: a tainted ident that is compared, clamped,
            // or checked-converted anywhere discharges its taint (the
            // documented flow-insensitive compromise).
            for i in st..en {
                if toks[i].kind == TokenKind::Ident
                    && taint.contains_key(&toks[i].text)
                    && is_bound_checked(toks, i, (st, en))
                {
                    taint.remove(&toks[i].text);
                }
            }

            // 2. Sinks.
            let local = |tn: Taint, desc: String, line: u32| Hit {
                taint: tn,
                desc,
                file: me.rel.to_string(),
                line,
                anchor: line,
                extra: Vec::new(),
            };
            let seen = hits.len();
            for fact in &s.facts {
                match fact {
                    Fact::Call(c) => {
                        let t = &toks[c.tok];
                        let txt = t.text.as_str();
                        if matches!(txt, "with_capacity" | "reserve" | "resize" | "read_exact") {
                            let args = (c.tok + 2, c.close.unwrap_or(c.tok));
                            if let Some(tn) = first_tainted(toks, args, &taint) {
                                hits.push(local(tn, format!("`{txt}(..)`"), t.line));
                            }
                        } else if txt != me.f.name {
                            // Inter-procedural sink: passing a tainted
                            // length to a parameter the callee allocates
                            // from.
                            self.callee_sinks(me, c, &taint, &mut hits);
                        }
                    }
                    // `vec![elem; n]` repeat form: the length expression
                    // after the top-level `;` is the sink operand.
                    &Fact::Macro { tok, close }
                        if toks[tok].is_ident("vec")
                            && toks[tok + 2].is_punct('[')
                            && close < en =>
                    {
                        let mut depth = 0i32;
                        let mut semi = None;
                        for (j, tj) in toks.iter().enumerate().take(close).skip(tok + 2) {
                            if tj.is_punct('[') || tj.is_punct('(') || tj.is_punct('{') {
                                depth += 1;
                            } else if tj.is_punct(']') || tj.is_punct(')') || tj.is_punct('}') {
                                depth -= 1;
                            } else if tj.is_punct(';') && depth == 1 {
                                semi = Some(j);
                            }
                        }
                        let len_expr = semi.map(|sp| (sp + 1, close));
                        if let Some(tn) = len_expr.and_then(|r| first_tainted(toks, r, &taint)) {
                            hits.push(local(tn, "`vec![_; n]`".to_string(), toks[tok].line));
                        }
                    }
                    _ => {}
                }
            }
            // What the new hits mean for this function's summary.
            for hit in &hits[seen..] {
                if let Origin::Param(k) = hit.taint.origin {
                    flow.alloc_params.entry(k).or_insert_with(|| SinkPath {
                        desc: hit.desc.clone(),
                        file: hit.file.clone(),
                        line: hit.line,
                        steps: hit.path(),
                    });
                }
            }

            // 3. Propagation through `let` bindings. A summary-resolvable
            // call decides the binding's taint itself (and can discharge
            // it); otherwise fall back to the conservative token scan.
            if let Some(b) = s.bind.as_ref().filter(|b| b.is_let && b.init.1 > b.init.0) {
                let source = self.summary_call(me, s, b.init, &taint).unwrap_or_else(|| match self
                    .wire_source_in(toks, s, b.init)
                {
                    Some((line, note)) => Some(Taint::wire(me.rel, line, note)),
                    None => first_tainted(toks, b.init, &taint),
                });
                if let Some(tn) = source {
                    let line = me.f.stmts[s.stmt].line;
                    for pat in &b.pats {
                        let bound =
                            tn.clone().then(line, format!("tainted length bound to `{pat}`"));
                        taint.insert(pat.clone(), bound);
                    }
                }
            }

            // 4. Returns: a `return` statement or the tail expression that
            // carries wire taint makes the function's value tainted; one
            // that carries a param's taint makes that param passthrough.
            let is_return = toks[st..en].iter().any(|t| t.is_ident("return"));
            if is_return || Some(s.stmt) == tail_idx {
                if self.wire_source_in(toks, s, (st, en)).is_some() {
                    flow.returns_tainted = true;
                }
                for t in toks[st..en].iter().filter(|t| t.kind == TokenKind::Ident) {
                    match taint.get(&t.text).map(|t| t.origin) {
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

    /// Hits for a call that hands a tainted length to a parameter some
    /// candidate callee allocates from.
    fn callee_sinks(
        &self,
        me: &FnRef<'_>,
        c: &Call,
        taint: &HashMap<String, Taint>,
        hits: &mut Vec<Hit>,
    ) {
        let t = &me.toks[c.tok];
        for &cand in self.candidates(&t.text) {
            let (callee, flow) = (&self.fns[cand], &self.flows[cand]);
            let Some(shift) = arity_shift(c, callee.f) else {
                continue;
            };
            for (k, &region) in c.args.iter().enumerate().skip(shift) {
                let Some(sink) = flow.alloc_params.get(&(k - shift)) else {
                    continue;
                };
                let Some(tn) = first_tainted(me.toks, region, taint) else {
                    continue;
                };
                let hop = format!(
                    "`{}` passes the tainted length to `{}` ({})",
                    me.f.name, t.text, callee.rel
                );
                let mut extra = vec![TaintStep { line: t.line, note: hop }];
                extra.extend(sink.steps.iter().cloned());
                hits.push(Hit {
                    taint: tn,
                    desc: sink.desc.clone(),
                    file: sink.file.clone(),
                    line: sink.line,
                    anchor: t.line,
                    extra,
                });
            }
        }
    }
}

/// How a call's arguments line up with a candidate's parameters: `0`
/// when they match one to one (`self` excluded on both sides), `1`
/// when a path call `Type::method(recv, ..)` carries the receiver as
/// its first argument, `None` when the arity rules the candidate out.
fn arity_shift(c: &Call, callee: &Function) -> Option<usize> {
    let p = callee.params.len();
    if p == c.args.len() {
        Some(0)
    } else {
        (!c.dot && p + 1 == c.args.len()).then_some(1)
    }
}

/// The taint of the first tainted identifier in `[lo, hi)`.
fn first_tainted(
    toks: &[Token],
    (lo, hi): (usize, usize),
    taint: &HashMap<String, Taint>,
) -> Option<Taint> {
    toks.get(lo..hi.min(toks.len()))?
        .iter()
        .find_map(|t| (t.kind == TokenKind::Ident).then(|| taint.get(&t.text)).flatten())
        .cloned()
}

/// Is the identifier at `i` compared (`<`/`>`, through transparent
/// `as` casts: `wire as u64 > MAX` compares `wire`, just widened
/// first), clamped (`.min(..)`/`.clamp(..)`) or checked-converted
/// (`try_from(x)`, `x.try_into()`) in the statement `[st, en)`?
fn is_bound_checked(toks: &[Token], i: usize, (st, en): (usize, usize)) -> bool {
    let cmp = |j: usize| toks[j].is_punct('<') || toks[j].is_punct('>');
    let mut j = i;
    while j + 2 < en && toks[j + 1].is_ident("as") && toks[j + 2].kind == TokenKind::Ident {
        j += 2;
    }
    let method = |names: &[&str]| {
        i + 2 < en && toks[i + 1].is_punct('.') && names.iter().any(|n| toks[i + 2].is_ident(n))
    };
    (i > st && cmp(i - 1))
        || (j + 1 < en && cmp(j + 1))
        || method(&["min", "clamp", "try_into"])
        || (i >= 2 && toks[i - 1].is_punct('(') && toks[i - 2].is_ident("try_from"))
}

/// R12 over every in-scope file: flow summaries to a fixpoint, then
/// one finding per (decode site, allocation site).
pub(crate) fn r12_wire_bounds(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let fns: Vec<FnRef<'_>> = files
        .iter()
        .flat_map(|file| {
            file.fns().map(|(f, facts)| FnRef { rel: &file.rel, toks: file.toks(), f, facts })
        })
        .collect();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, fr) in fns.iter().enumerate() {
        by_name.entry(fr.f.name.as_str()).or_default().push(i);
    }
    let mut world = Flows { flows: vec![FnFlow::default(); fns.len()], fns, by_name };
    for _pass in 0..8 {
        let mut changed = false;
        for i in 0..world.fns.len() {
            let (new, _) = world.analyze_fn(i);
            if !new.same_as(&world.flows[i]) {
                changed = true;
                world.flows[i] = new;
            }
        }
        if !changed {
            break;
        }
    }
    // Final pass: collect wire-origin findings, globally deduped by
    // (decode site, sink site) with the shortest path winning.
    let mut cands: HashMap<(String, u32, String, u32), Diagnostic> = HashMap::new();
    for i in 0..world.fns.len() {
        let (_, hits) = world.analyze_fn(i);
        for hit in hits.into_iter().filter(|h| h.taint.origin == Origin::Wire) {
            let Hit { desc, file, line, .. } = &hit;
            let message = format!(
                "wire-derived length reaches {desc} at {file}:{line} with no bound \
                 check on the way — clamp against a protocol maximum before allocating"
            );
            let d =
                Diagnostic::new(world.fns[i].rel, hit.anchor, "R12", message).with_path(hit.path());
            let (site_file, site_line) = hit.taint.site;
            let key = (site_file, site_line, hit.file, hit.line);
            if cands.get(&key).is_none_or(|old| old.path.len() > d.path.len()) {
                cands.insert(key, d);
            }
        }
    }
    cands.into_values().collect()
}
