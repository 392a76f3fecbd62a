//! Workspace-wide call graph with bottom-up effect summaries.
//!
//! The summary rules (R8, R9, R11, R13, R15 — see [`crate::protocol`])
//! police invariants that span function boundaries: fsync-before-ack crosses
//! `server.rs` → `store.rs` → `wal.rs`, deadline arming happens in one
//! function while the socket reads happen three calls deeper, and
//! blocking calls sneak onto pool workers through helpers. This module
//! gives those rules the structure they need without a type system:
//!
//! * **Local streams** — each non-test function's fact stream (the one
//!   walk in [`crate::facts`]) is flattened to an ordered stream of
//!   *effects* (primitive operations the rules care about: spawns,
//!   socket reads/writes, WAL appends, fsyncs, renames, deadline arms,
//!   store mutations) and *calls* (lower-case identifiers applied to an
//!   argument list), each call remembering whether a lock guard was
//!   live so fsync-under-lock can be observed across calls.
//! * **Name-based resolution** — a call resolves to every workspace
//!   function with that name (this is also the trait-method fallback:
//!   `conn.handle(..)` unions all `handle` impls). More than
//!   [`CANDIDATE_CAP`] candidates, or no candidate at all, is treated
//!   as an unresolved call with no effects — the conservative fallback
//!   the rules document. *Primitive* names (e.g. `send`, `read_exact`,
//!   `sync_file`) are terminal: they emit their effect and are never
//!   resolved, which keeps common verbs from unioning the world.
//! * **Bottom-up fixpoint** — summaries are recomputed until no
//!   function's effect signature changes (or [`PASS_CAP`] passes,
//!   which bounds cyclic call chains). Each propagated effect carries
//!   an inter-procedural trace (`TaintStep` hops, like R5's taint
//!   paths) from the summarized function down to the primitive site.
//! * **Substrate barriers** — the audited substrate files keep their
//!   internal blocking behavior to themselves: `mp_gsi::net` owns the
//!   worker pool (its spawns/accepts are the mechanism R8 protects,
//!   not a violation of it), and `wal.rs`/`persist.rs` do file I/O
//!   under the documented commit lock ("journal order equals memory
//!   order"), policed by R9's ordering checks rather than R8's
//!   reachability check. Effects of the blocked kinds never escape
//!   those files; durability effects (append/fsync/rename) do.
//!
//! Summaries are *compressed*: per effect kind only the first and last
//! few occurrences are kept (order preserved). That bounds summary
//! size — and therefore fixpoint cost — while keeping every check in
//! [`crate::protocol`] sound for the patterns it matches (each check
//! only asks about first/last relative positions of kinds).

use std::collections::HashMap;

pub use crate::facts::EffectKind;
use crate::facts::{self, FnFacts};
use crate::lexer::Token;
use crate::parser::{Function, ParsedFile};
use crate::rules::TaintStep;

/// Fixpoint pass bound; cyclic call chains stop growing here. Sized
/// with headroom over the workspace's real propagation depth (16
/// passes since the replication subsystem put the standby apply path
/// and shipper sessions inside the serve chains).
pub const PASS_CAP: usize = 24;
/// A call with more same-named candidates than this is unresolved.
pub const CANDIDATE_CAP: usize = 12;
/// Inter-procedural trace hops kept per propagated effect.
pub const TRACE_CAP: usize = 8;
/// Per effect kind, keep the first `KEEP` and last `KEEP` occurrences
/// when compressing a summary.
const KEEP: usize = 3;

/// Files whose internal blocking/I-O behavior is the audited substrate
/// itself and must not leak into callers' summaries.
pub const SUBSTRATE: &[&str] = &[
    "crates/gsi/src/net.rs",
    "crates/core/src/wal.rs",
    "crates/core/src/persist.rs",
];

/// One observable operation in a function's (expanded) effect stream.
#[derive(Debug, Clone)]
pub struct Effect {
    pub kind: EffectKind,
    /// Workspace-relative file of the *primitive* site (the origin),
    /// not of the function whose summary carries the effect.
    pub file: String,
    /// 1-based line of the origin.
    pub line: u32,
    /// Human description of the origin ("`.send(..)` in `serve_channel`").
    pub note: String,
    /// Call-path hops from the summarized function down to the origin;
    /// empty for the function's own local effects. Hop lines are call
    /// sites; the first hop is in the summarized function's file.
    pub trace: Vec<TaintStep>,
    /// Enclosing-block path of the site: one id per nested block, ids
    /// unique per function, extended through call splices with the
    /// callee's own path. Two effects whose paths diverge sit in
    /// *sibling* blocks (match arms, if/else branches) — textual
    /// stream order is not execution order there, and the linear
    /// typestate checks must not compare them. See
    /// [`ordered_branches`].
    pub branch: Vec<u32>,
}

/// Are two effect sites execution-ordered by their stream positions?
/// True when one branch path encloses the other (or they share a
/// block); false when the paths diverge — sibling `match`/`if` arms
/// run on mutually exclusive paths.
pub fn ordered_branches(a: &[u32], b: &[u32]) -> bool {
    let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    common == a.len() || common == b.len()
}

/// One function node.
#[derive(Debug)]
pub struct CgFn {
    pub file: String,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `Some("Service")` when the fn implements a trait of that name.
    pub impl_trait: Option<String>,
    /// Parameter count (`self` excluded) — calls resolve only to
    /// arity-compatible candidates.
    pub params: usize,
    /// True if the body contains a loop (R13 skips linear-order checks
    /// over flattened loop bodies; see `parser::Function::has_loop`).
    pub has_loop: bool,
    items: Vec<LocalEvent>,
}

impl CgFn {
    /// True if the function itself (not a callee) spawns a thread —
    /// such functions are serve-loop entry points for R11, entered
    /// with no deadline armed.
    pub fn has_local_spawn(&self) -> bool {
        self.items.iter().any(|it| {
            matches!(it, LocalEvent::Effect(e) if e.kind == EffectKind::Spawn)
        })
    }

    pub fn is_substrate(&self) -> bool {
        is_substrate_file(&self.file)
    }
}

fn is_substrate_file(rel: &str) -> bool {
    let norm = rel.replace('\\', "/");
    SUBSTRATE.iter().any(|s| norm.ends_with(s))
}

/// The worker-pool substrate: its functions are serve *loops* that
/// interleave many independent connections, so their effect streams
/// are not a sequential program order any caller can reason over.
/// Nothing escapes them — the rules that care about pool behavior
/// (R8/R11) root directly at the `Service` impls the pool dispatches
/// to, never at the loops themselves.
fn is_net_substrate(file: &str) -> bool {
    file.replace('\\', "/").ends_with("crates/gsi/src/net.rs")
}

/// Effect kinds that must not escape a substrate file into callers.
fn blocked_on_escape(origin_file: &str, kind: EffectKind) -> bool {
    let norm = origin_file.replace('\\', "/");
    if is_net_substrate(&norm) {
        // Belt to `is_net_substrate`'s suspenders: even an effect that
        // *originates* in net.rs never escapes it.
        return true;
    }
    if norm.ends_with("crates/core/src/wal.rs") || norm.ends_with("crates/core/src/persist.rs") {
        // The persistence substrate does *file* I/O (including the
        // documented fsync under the WAL commit lock); its reads and
        // writes are not socket traffic and its lock discipline is
        // policed by R9's ordering checks, not R8.
        return matches!(
            kind,
            EffectKind::FsyncUnderLock
                | EffectKind::SocketRead
                | EffectKind::SocketWrite
                | EffectKind::Ack
                | EffectKind::UnboundedRead
        );
    }
    false
}

/// The workspace call graph plus converged per-function summaries.
pub struct CallGraph {
    pub fns: Vec<CgFn>,
    by_name: HashMap<String, Vec<usize>>,
    summaries: Vec<Vec<Effect>>,
    /// Fixpoint passes actually run.
    pub passes: usize,
    /// True if the fixpoint converged before [`PASS_CAP`].
    pub converged: bool,
}

impl CallGraph {
    /// Walk every file's functions and build the graph over them —
    /// the standalone entry point; the gate hands its already-walked
    /// facts to [`CallGraph::from_facts`] instead.
    pub fn build(files: &[(String, &ParsedFile)]) -> CallGraph {
        let walked: Vec<Vec<Option<FnFacts>>> =
            files.iter().map(|(_, pf)| facts::walk_file(pf)).collect();
        CallGraph::from_facts(
            files.iter().zip(&walked).map(|((rel, pf), w)| (rel.as_str(), *pf, w.as_slice())),
        )
    }

    /// Build the graph from per-function fact streams (`facts` is
    /// parallel to `pf.functions`, `None` for test functions) and run
    /// summaries to fixpoint.
    pub fn from_facts<'a>(
        files: impl Iterator<Item = (&'a str, &'a ParsedFile, &'a [Option<FnFacts>])>,
    ) -> CallGraph {
        let mut fns = Vec::new();
        for (rel, pf, walked) in files {
            for (f, facts) in pf.functions.iter().zip(walked) {
                let Some(facts) = facts else { continue };
                fns.push(CgFn {
                    file: rel.to_string(),
                    name: f.name.clone(),
                    line: f.line,
                    impl_trait: f.impl_trait.clone(),
                    params: f.params.len(),
                    has_loop: f.has_loop,
                    items: local_items(rel, &pf.lexed.tokens, f, facts),
                });
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut summaries: Vec<Vec<Effect>> = vec![Vec::new(); fns.len()];
        let mut converged = false;
        let mut passes = 0usize;
        while passes < PASS_CAP {
            passes += 1;
            let mut changed = false;
            for i in 0..fns.len() {
                let new = compress(fuse_durable(expand_one(&fns, &by_name, &summaries, i)));
                if sig(&new) != sig(&summaries[i]) {
                    changed = true;
                }
                summaries[i] = new;
            }
            if !changed {
                converged = true;
                break;
            }
        }
        CallGraph { fns, by_name, summaries, passes, converged }
    }

    /// Converged effect stream for function `i`, in source order.
    pub fn summary(&self, i: usize) -> &[Effect] {
        &self.summaries[i]
    }

    /// Indices of every non-test function named `name`.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Effect signature used for fixpoint convergence.
fn sig(events: &[Effect]) -> Vec<(EffectKind, &str, u32)> {
    events.iter().map(|e| (e.kind, e.file.as_str(), e.line)).collect()
}

/// Rewrite each `WalAppend` that a later `Fsync` covers (with no `Ack`
/// in between) to `DurableAppend`. Runs on the *uncompressed* stream
/// at every expansion level, so the append→fsync pairing survives
/// compression: any `WalAppend` still raw in a summary genuinely has
/// no covering fsync before the next ack in that function's order.
fn fuse_durable(mut events: Vec<Effect>) -> Vec<Effect> {
    for i in 0..events.len() {
        if events[i].kind != EffectKind::WalAppend {
            continue;
        }
        for j in i + 1..events.len() {
            match events[j].kind {
                EffectKind::Ack => break,
                EffectKind::Fsync => {
                    events[i].kind = EffectKind::DurableAppend;
                    break;
                }
                _ => {}
            }
        }
    }
    events
}

/// Keep the first [`KEEP`] and last [`KEEP`] occurrences of each kind,
/// preserving order. Bounds summary size; the summary rules only compare
/// relative positions near the first/last occurrence of each kind.
fn compress(events: Vec<Effect>) -> Vec<Effect> {
    if events.len() <= 2 * KEEP {
        return events;
    }
    let mut from_start: HashMap<EffectKind, usize> = HashMap::new();
    let mut total: HashMap<EffectKind, usize> = HashMap::new();
    for e in &events {
        *total.entry(e.kind).or_insert(0) += 1;
    }
    events
        .into_iter()
        .filter(|e| {
            let seen = from_start.entry(e.kind).or_insert(0);
            *seen += 1;
            *seen <= KEEP || *seen + KEEP > total[&e.kind]
        })
        .collect()
}

/// One expansion step: splice callee summaries into `i`'s local stream.
fn expand_one(
    fns: &[CgFn],
    by_name: &HashMap<String, Vec<usize>>,
    summaries: &[Vec<Effect>],
    i: usize,
) -> Vec<Effect> {
    let me = &fns[i];
    let mut out = Vec::new();
    for item in &me.items {
        match item {
            LocalEvent::Effect(e) => out.push(e.clone()),
            LocalEvent::Call { name, line, under_guard, args, dot, branch } => {
                let Some(cands) = by_name.get(name) else { continue };
                if cands.len() > CANDIDATE_CAP {
                    // Conservative fallback: too ambiguous to resolve.
                    continue;
                }
                for &c in cands {
                    if c == i {
                        continue; // direct recursion adds nothing new
                    }
                    // Arity gate: a method call's args must equal the
                    // candidate's params (`self` excluded on both
                    // sides); a path call `Type::method(recv, ..)` may
                    // carry the receiver as its first argument.
                    if fns[c].params != *args && !(!dot && fns[c].params + 1 == *args) {
                        continue;
                    }
                    // Serve loops interleave unrelated connections;
                    // their streams never escape into callers.
                    if fns[c].file != me.file && is_net_substrate(&fns[c].file) {
                        continue;
                    }
                    for e in &summaries[c] {
                        if blocked_on_escape(&e.file, e.kind) && e.file != me.file {
                            continue;
                        }
                        let mut trace = Vec::with_capacity(e.trace.len() + 1);
                        trace.push(TaintStep {
                            line: *line,
                            note: format!(
                                "`{}` calls `{}` ({})",
                                me.name, name, fns[c].file
                            ),
                        });
                        trace.extend(e.trace.iter().cloned());
                        trace.truncate(TRACE_CAP);
                        // The spliced effect's branch path: the call
                        // site's path, extended with the callee's own —
                        // sibling arms *inside* the callee stay
                        // recognizably exclusive in the caller's view.
                        let mut spliced_branch =
                            Vec::with_capacity(branch.len() + e.branch.len());
                        spliced_branch.extend_from_slice(branch);
                        spliced_branch.extend_from_slice(&e.branch);
                        spliced_branch.truncate(16);
                        if *under_guard
                            && matches!(e.kind, EffectKind::Fsync | EffectKind::DirFsync)
                        {
                            out.push(Effect {
                                kind: EffectKind::FsyncUnderLock,
                                file: me.file.clone(),
                                line: *line,
                                note: format!(
                                    "call to `{}` reaches an fsync while `{}` holds a lock guard",
                                    name, me.name
                                ),
                                trace: trace.clone(),
                                branch: spliced_branch.clone(),
                            });
                        }
                        out.push(Effect {
                            kind: e.kind,
                            file: e.file.clone(),
                            line: e.line,
                            note: e.note.clone(),
                            trace,
                            branch: spliced_branch,
                        });
                    }
                }
            }
        }
    }
    out
}

/// One item of a function's local stream, in source token order:
/// either a primitive/marker effect or a call that the graph will try
/// to resolve by name.
#[derive(Debug, Clone)]
pub enum LocalEvent {
    Effect(Effect),
    Call {
        name: String,
        line: u32,
        /// A lock guard is live at the call site.
        under_guard: bool,
        args: usize,
        dot: bool,
        branch: Vec<u32>,
    },
}

/// One function's local event stream without building a graph. This
/// is the fact walk's public surface for the typestate property tests:
/// the proptest corpus drives it over generated method-chain and
/// closure-body statements, asserting transition order against the
/// parser's spans.
pub fn local_events(rel: &str, pf: &ParsedFile, f: &Function) -> Vec<LocalEvent> {
    let toks = &pf.lexed.tokens;
    local_items(rel, toks, f, &facts::walk(toks, f))
}

/// Flatten one function's facts to its local stream: each call's
/// effects, then the call itself when it may resolve by name.
fn local_items(rel: &str, toks: &[Token], f: &Function, facts: &FnFacts) -> Vec<LocalEvent> {
    let mut items = Vec::new();
    for s in &facts.stmts {
        for call in s.calls() {
            let t = &toks[call.tok];
            for (kind, what) in &call.class.effects {
                items.push(LocalEvent::Effect(Effect {
                    kind: *kind,
                    file: rel.to_string(),
                    line: t.line,
                    note: format!("{what} in `{}`", f.name),
                    trace: Vec::new(),
                    branch: s.branch.clone(),
                }));
            }
            if call.resolves {
                items.push(LocalEvent::Call {
                    name: t.text.clone(),
                    line: t.line,
                    under_guard: !call.held.is_empty(),
                    args: call.args,
                    dot: call.dot,
                    branch: s.branch.clone(),
                });
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn graph_of(files: &[(&str, &str)]) -> (CallGraph, Vec<ParsedFile>) {
        let parsed: Vec<ParsedFile> =
            files.iter().map(|(_, src)| parse_source(src).expect("parse")).collect();
        let refs: Vec<(String, &ParsedFile)> = files
            .iter()
            .zip(parsed.iter())
            .map(|((rel, _), pf)| (rel.to_string(), pf))
            .collect();
        (CallGraph::build(&refs), parsed)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.candidates(name)[0]
    }

    #[test]
    fn effects_propagate_through_calls_with_traces() {
        let (g, _p) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn leaf(f: &File) { f.sync_all().ok(); }\n\
             fn mid(f: &File) { leaf(f); }\n\
             fn top(f: &File) { mid(f); }\n",
        )]);
        assert!(g.converged, "fixpoint should converge");
        let top = idx(&g, "top");
        let fsyncs: Vec<_> =
            g.summary(top).iter().filter(|e| e.kind == EffectKind::Fsync).collect();
        assert_eq!(fsyncs.len(), 1, "{:?}", g.summary(top));
        assert_eq!(fsyncs[0].trace.len(), 2, "two call hops: top->mid, mid->leaf");
        assert!(fsyncs[0].trace[0].note.contains("`top` calls `mid`"));
    }

    #[test]
    fn cycles_converge_and_keep_effects() {
        let (g, _p) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn ping(c: &mut Chan, n: u32) { c.send(b\"x\").ok(); pong(c, n); }\n\
             fn pong(c: &mut Chan, n: u32) { ping(c, n); }\n",
        )]);
        assert!(g.converged, "cycle must still converge (passes={})", g.passes);
        for name in ["ping", "pong"] {
            let s = g.summary(idx(&g, name));
            assert!(
                s.iter().any(|e| e.kind == EffectKind::Ack),
                "`{name}` should see the send through the cycle: {s:?}"
            );
        }
    }

    #[test]
    fn trait_method_fallback_unions_all_impls() {
        let (g, _p) = graph_of(&[(
            "crates/core/src/x.rs",
            "impl Backend for Disk { fn persist(&self, f: &File) { f.sync_all().ok(); } }\n\
             impl Backend for Net { fn persist(&self, c: &mut Chan) { c.send(b\"x\").ok(); } }\n\
             fn save(b: &dyn Backend, sink: &mut Sink) { b.persist(sink); }\n",
        )]);
        let s = g.summary(idx(&g, "save"));
        assert!(s.iter().any(|e| e.kind == EffectKind::Fsync), "disk impl unioned: {s:?}");
        assert!(s.iter().any(|e| e.kind == EffectKind::Ack), "net impl unioned: {s:?}");
    }

    #[test]
    fn over_ambiguous_calls_are_conservatively_unresolved() {
        let mut src = String::from("fn caller(x: &T) { frob(x); }\n");
        for i in 0..(CANDIDATE_CAP + 1) {
            src.push_str(&format!(
                "impl Backend for T{i} {{ fn frob(&self, f: &File) {{ f.sync_all().ok(); }} }}\n"
            ));
        }
        let (g, _p) = graph_of(&[("crates/core/src/x.rs", &src)]);
        let s = g.summary(idx(&g, "caller"));
        assert!(s.is_empty(), "unresolved call must contribute no effects: {s:?}");
    }

    #[test]
    fn guard_tracking_sees_fsync_under_lock_across_a_call() {
        let (g, _p) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn flush_it(f: &File) { f.sync_all().ok(); }\n\
             fn bad(m: &Mutex<u8>, f: &File) { let g = m.lock(); flush_it(f); }\n\
             fn ok_temp(m: &RwLock<V>, f: &File) { let v = m.read().clone(); flush_it(f); }\n\
             fn ok_dropped(m: &Mutex<u8>, f: &File) { let g = m.lock(); drop(g); flush_it(f); }\n",
        )]);
        let has_ful = |name: &str| {
            g.summary(idx(&g, name)).iter().any(|e| e.kind == EffectKind::FsyncUnderLock)
        };
        assert!(has_ful("bad"), "fsync via call under a live guard");
        assert!(!has_ful("ok_temp"), "`.read().clone()` binds data, not the guard");
        assert!(!has_ful("ok_dropped"), "guard dropped before the call");
    }

    #[test]
    fn wrappers_do_not_observe_their_own_primitive() {
        let (g, _p) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn rename(a: &str, b: &str) { fs::rename(a, b).ok(); }\n",
        )]);
        assert!(
            g.summary(idx(&g, "rename")).is_empty(),
            "a Vfs-style impl of `rename` is the primitive, not a use site"
        );
    }

    #[test]
    fn substrate_effects_do_not_escape() {
        let (g, _p) = graph_of(&[
            (
                "crates/gsi/src/net.rs",
                "fn pool_start(q: &Queue) { spawn(|| work(q)); }\n",
            ),
            (
                "crates/core/src/server.rs",
                "fn serve(q: &Queue) { pool_start(q); }\n",
            ),
        ]);
        let pool = g.summary(idx(&g, "pool_start"));
        assert!(pool.iter().any(|e| e.kind == EffectKind::Spawn), "{pool:?}");
        let serve = g.summary(idx(&g, "serve"));
        assert!(
            !serve.iter().any(|e| e.kind == EffectKind::Spawn),
            "net.rs spawns must not leak into callers: {serve:?}"
        );
    }
}
