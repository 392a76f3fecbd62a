//! Workspace-wide call graph with bottom-up effect summaries.
//!
//! mp-lint v3's rule families (R8–R11, see `rules_v3`) police
//! invariants that span function boundaries: fsync-before-ack crosses
//! `server.rs` → `store.rs` → `wal.rs`, deadline arming happens in one
//! function while the socket reads happen three calls deeper, and
//! blocking calls sneak onto pool workers through helpers. This module
//! gives those rules the structure they need without a type system:
//!
//! * **Local extraction** — every non-test function's statement list is
//!   walked once, producing an ordered stream of *effects* (primitive
//!   operations the rules care about: spawns, socket reads/writes,
//!   WAL appends, fsyncs, renames, deadline arms, store mutations) and
//!   *calls* (lower-case identifiers applied to an argument list).
//!   Lock-guard liveness is tracked R7-style (named `let` guards,
//!   statement-temporaries, `drop(..)` releases) so fsync-under-lock
//!   can be observed across calls.
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
//! `rules_v3` sound for the patterns it matches (each check only asks
//! about first/last relative positions of kinds).

use std::collections::HashMap;

use crate::lexer::{Token, TokenKind};
use crate::parser::{Function, ParsedFile, StmtKind};
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

/// The primitive operations the v3 rules reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EffectKind {
    /// `spawn(..)` / `thread::spawn(..)` — a new thread.
    Spawn,
    /// `read_to_end` / `read_to_string` / `read_until` / zero-arg
    /// `.accept()` — reads with no intrinsic bound.
    UnboundedRead,
    /// An fsync performed while a lock guard is live (directly, or via
    /// a call made under the guard).
    FsyncUnderLock,
    /// Two-argument `.append(..)` — a WAL record append *not yet known
    /// to be fsynced* (see [`DurableAppend`](Self::DurableAppend)).
    WalAppend,
    /// A WAL append already paired with a later fsync (no ack between)
    /// in some function's stream. Fused *before* summary compression,
    /// so R9's append→fsync→ack check cannot be broken by compression
    /// dropping the middle fsync of a long stream.
    DurableAppend,
    /// `sync_file` / `sync_all` — file contents flushed to disk.
    Fsync,
    /// `sync_dir` — directory entry flushed to disk.
    DirFsync,
    /// Two-argument `rename(..)` on a persistence path.
    Rename,
    /// `.send(..)` / `.send_record(..)` — a response acknowledged to a
    /// peer (also socket output for R11).
    Ack,
    /// A store mutation marker (`.put(..)`, `.destroy(..)`, ...).
    Mutate,
    /// `recv` / `read_exact` / argument-taking `.read(..)` /
    /// multi-argument `accept(..)` (handshake) — socket input.
    SocketRead,
    /// `write_all` / `flush` / argument-taking `.write(..)` — socket
    /// output.
    SocketWrite,
    /// `set_deadlines` / `set_read_timeout` / `set_write_timeout` —
    /// socket deadlines armed or re-armed.
    DeadlineArm,
    /// Multi-argument `connect(..)`/`accept(..)` — a channel handshake
    /// establishing the session (v4 typestate: nothing may be sent on
    /// the channel before this).
    Handshake,
    /// `send_busy(..)` — the BUSY/shed frame. Terminal for the
    /// connection: no further traffic may follow it.
    BusyShed,
    /// `attach_durable`/`attach_wal`/`enable_durability[_with]` — the
    /// store gains its WAL-backed durability. Mutations before this
    /// point are not journaled.
    WalAttach,
    /// A `.tmp` staging file is created (`write_file`/`create` with a
    /// tmp-marked argument). Must be paired with a later rename or
    /// removal somewhere, else early returns leak it.
    TmpCreate,
    /// `remove_file(..)` — a file unlinked (pairs with TmpCreate).
    FileRemove,
    /// Named two-argument `.spawn(name, f)` — a handler registered in
    /// a handler set (must be drained somewhere in the owning crate).
    Register,
    /// Zero-argument `.drain()` — a handler set drained/joined.
    Drain,
}

impl EffectKind {
    pub fn label(self) -> &'static str {
        match self {
            EffectKind::Spawn => "thread spawn",
            EffectKind::UnboundedRead => "unbounded read/accept",
            EffectKind::FsyncUnderLock => "fsync under a held lock",
            EffectKind::WalAppend => "WAL append",
            EffectKind::DurableAppend => "fsynced WAL append",
            EffectKind::Fsync => "fsync",
            EffectKind::DirFsync => "directory fsync",
            EffectKind::Rename => "rename",
            EffectKind::Ack => "response ack",
            EffectKind::Mutate => "store mutation",
            EffectKind::SocketRead => "socket read",
            EffectKind::SocketWrite => "socket write",
            EffectKind::DeadlineArm => "deadline arm",
            EffectKind::Handshake => "channel handshake",
            EffectKind::BusyShed => "BUSY/shed frame",
            EffectKind::WalAttach => "WAL durability attach",
            EffectKind::TmpCreate => "tmp-file create",
            EffectKind::FileRemove => "file removal",
            EffectKind::Register => "handler registration",
            EffectKind::Drain => "handler-set drain",
        }
    }
}

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

/// What local extraction records per function, in source token order.
#[derive(Debug, Clone)]
enum LocalItem {
    Effect(Effect),
    Call {
        name: String,
        line: u32,
        under_guard: bool,
        args: usize,
        dot: bool,
        branch: Vec<u32>,
    },
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
    /// True if the body contains a loop (v4 skips linear-order checks
    /// over flattened loop bodies; see `parser::Function::has_loop`).
    pub has_loop: bool,
    items: Vec<LocalItem>,
}

impl CgFn {
    /// True if the function itself (not a callee) spawns a thread —
    /// such functions are serve-loop entry points for R11, entered
    /// with no deadline armed.
    pub fn has_local_spawn(&self) -> bool {
        self.items.iter().any(|it| {
            matches!(it, LocalItem::Effect(e) if e.kind == EffectKind::Spawn)
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
    /// Build the graph and run summaries to fixpoint. `files` holds
    /// workspace-relative paths and their parses; test functions are
    /// excluded at extraction time.
    pub fn build(files: &[(String, &ParsedFile)]) -> CallGraph {
        let mut fns = Vec::new();
        for (rel, pf) in files {
            for f in &pf.functions {
                if f.is_test {
                    continue;
                }
                fns.push(CgFn {
                    file: rel.clone(),
                    name: f.name.clone(),
                    line: f.line,
                    impl_trait: f.impl_trait.clone(),
                    params: f.params.len(),
                    has_loop: f.has_loop,
                    items: extract(rel, pf, f),
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
/// preserving order. Bounds summary size; the v3 checks only compare
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
            LocalItem::Effect(e) => out.push(e.clone()),
            LocalItem::Call { name, line, under_guard, args, dot, branch } => {
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

const MUTATE_MARKERS: &[&str] = &[
    "put",
    "set_owner",
    "make_renewable",
    "destroy",
    "change_passphrase",
    "purge_expired",
    "apply",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "fn", "let", "loop", "move", "in",
    "as", "ref", "mut", "use", "pub", "impl", "where", "else", "break",
    "continue", "self", "super", "crate", "dyn", "unsafe", "await", "drop",
];

/// Names that are overwhelmingly std-library methods at their call
/// sites (`map.get(..)`, `iter.all(..)`, `s.parse()`, ...). Workspace
/// functions that happen to share these names are never resolved
/// through them — treating such calls as unresolved loses a little
/// reach but prevents absurd cross-crate unions (a `HashMap::get`
/// splicing in some unrelated `fn get`). Part of the documented
/// conservative fallback.
pub(crate) const RESOLVE_BLOCKLIST: &[&str] = &[
    "get", "get_mut", "insert", "remove", "take", "contains", "contains_key",
    "all", "any", "find", "filter", "map", "parse", "push", "pop", "iter",
    "next", "len", "is_empty", "clone", "clear", "entry", "extend", "retain",
    "join", "split", "trim", "count", "min", "max", "first", "last", "new",
    "default", "from", "into", "with_capacity", "to_vec", "as_bytes",
    "starts_with", "ends_with", "replace", "chars", "lines", "bytes", "text",
    "open", "u8", "u16", "u32", "u64", "position", "resize", "truncate",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok_or", "and_then",
];

/// Classify a called name as a terminal primitive. `dot` = preceded by
/// `.` (a method call); `args` = top-level argument count; `in_fn` =
/// the containing function's name (a `Vfs` impl named `rename` calling
/// `fs::rename` is the primitive's *implementation*, not a use site,
/// so same-named wrappers never observe their own primitive).
fn primitive_kind(name: &str, dot: bool, args: usize, in_fn: &str) -> Option<EffectKind> {
    if name == in_fn {
        return None;
    }
    let kind = match name {
        "spawn" => EffectKind::Spawn,
        "read_to_end" | "read_to_string" | "read_until" if dot => EffectKind::UnboundedRead,
        "accept" if args == 0 => EffectKind::UnboundedRead,
        "accept" => EffectKind::SocketRead,
        "recv" | "read_exact" if dot => EffectKind::SocketRead,
        "read" if dot && args >= 1 => EffectKind::SocketRead,
        "write_all" | "flush" if dot => EffectKind::SocketWrite,
        "write" if dot && args >= 1 => EffectKind::SocketWrite,
        "send" | "send_record" if dot && args >= 1 => EffectKind::Ack,
        "append" if dot && args == 2 => EffectKind::WalAppend,
        "sync_file" | "sync_all" => EffectKind::Fsync,
        "sync_dir" => EffectKind::DirFsync,
        "rename" if args == 2 => EffectKind::Rename,
        "set_deadlines" | "set_read_timeout" | "set_write_timeout" => EffectKind::DeadlineArm,
        _ => return None,
    };
    Some(kind)
}

/// Names whose call marks the store as WAL-attached (v4 R13: store
/// mutations must happen after one of these, or carry an explicit
/// opt-out waiver).
const WAL_ATTACH_MARKERS: &[&str] =
    &["attach_durable", "attach_wal", "enable_durability", "enable_durability_with"];

/// Any token in the call's argument region names a tmp staging path:
/// a `tmp`-containing identifier or a `.tmp` string literal.
fn args_mention_tmp(toks: &[Token], open: usize, limit: usize) -> bool {
    let Some(close) = close_paren(toks, open, limit) else { return false };
    toks[open + 1..close].iter().any(|t| match t.kind {
        TokenKind::Ident => t.text.to_ascii_lowercase().contains("tmp"),
        TokenKind::Str => t.text.contains(".tmp"),
        _ => false,
    })
}

/// `.lock()` / `.read()` / `.write()` with *no* arguments — a lock
/// guard acquisition (argument-taking `.read(buf)` is socket I/O).
fn is_guard_acquisition(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokenKind::Ident
        && matches!(t.text.as_str(), "lock" | "read" | "write")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        && toks.get(i + 2).map(|n| n.is_punct(')')).unwrap_or(false)
}

/// Find the `)` matching the `(` at `open`.
pub(crate) fn close_paren(toks: &[Token], open: usize, limit: usize) -> Option<usize> {
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

/// Top-level argument count of the call whose `(` is at `open`.
pub(crate) fn count_args(toks: &[Token], open: usize, limit: usize) -> usize {
    let Some(close) = close_paren(toks, open, limit) else { return 0 };
    if close == open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut args = 1usize;
    for t in &toks[open + 1..close] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            args += 1;
        }
    }
    args
}

/// Does the guard acquired at `acq` (its `(` at `acq + 1`) survive into
/// the `let` binding? `.lock().unwrap()` / `.expect(..)` still bind the
/// guard; any other projection (`.read().clone()`) binds derived data
/// and the guard dies with the statement.
fn acquisition_survives(toks: &[Token], acq: usize, limit: usize) -> bool {
    let mut j = match close_paren(toks, acq + 1, limit) {
        Some(c) => c,
        None => return false,
    };
    loop {
        if !toks.get(j + 1).map(|t| t.is_punct('.')).unwrap_or(false) {
            return true;
        }
        let Some(m) = toks.get(j + 2) else { return true };
        if m.is_ident("unwrap") || m.is_ident("expect") {
            match close_paren(toks, j + 3, limit) {
                Some(c) => j = c,
                None => return false,
            }
        } else {
            return false;
        }
    }
}

/// One locally-extracted event, as exposed to tests and corpus
/// tooling: either a primitive/marker effect or a call that the graph
/// would try to resolve by name.
#[derive(Debug, Clone)]
pub enum LocalEvent {
    Effect(Effect),
    Call { name: String, line: u32, args: usize, dot: bool },
}

/// Extract one function's local event stream without building a graph.
/// This is the v4 typestate extractor's public surface: the proptest
/// corpus drives it over generated method-chain and closure-body
/// statements, asserting transition order against the parser's spans.
pub fn local_events(rel: &str, pf: &ParsedFile, f: &Function) -> Vec<LocalEvent> {
    extract(rel, pf, f)
        .into_iter()
        .map(|it| match it {
            LocalItem::Effect(e) => LocalEvent::Effect(e),
            LocalItem::Call { name, line, args, dot, .. } => {
                LocalEvent::Call { name, line, args, dot }
            }
        })
        .collect()
}

/// Walk one function's statements, producing its ordered local stream.
fn extract(rel: &str, pf: &ParsedFile, f: &Function) -> Vec<LocalItem> {
    let toks = &pf.lexed.tokens;
    let mut items = Vec::new();
    let mut depth = 0usize;
    // Enclosing-block path: every block gets a function-unique id, so
    // sibling blocks (match arms, if/else) yield diverging paths that
    // `ordered_branches` recognizes as mutually exclusive.
    let mut branch_ctr = 0u32;
    let mut branch: Vec<u32> = Vec::new();
    // (binding name, block depth at declaration)
    let mut guards: Vec<(Option<String>, usize)> = Vec::new();
    for s in &f.stmts {
        match s.kind {
            StmtKind::BlockOpen => {
                depth += 1;
                branch_ctr += 1;
                branch.push(branch_ctr);
                continue;
            }
            StmtKind::BlockClose => {
                depth = depth.saturating_sub(1);
                branch.pop();
                guards.retain(|(_, d)| *d <= depth);
                continue;
            }
            _ => {}
        }
        let (st, en) = s.toks;
        // Explicit releases: drop(guard).
        for i in st..en {
            if toks[i].is_ident("drop")
                && toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
                && toks.get(i + 2).map(|t| t.kind == TokenKind::Ident).unwrap_or(false)
            {
                let victim = toks[i + 2].text.clone();
                guards.retain(|(n, _)| n.as_deref() != Some(victim.as_str()));
            }
        }
        // Statement-temporary guard: tokens after an acquisition in the
        // same statement run under it even without a binding.
        let acq = (st..en).find(|&i| is_guard_acquisition(toks, i));
        for i in st..en {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if !toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
                continue;
            }
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue; // nested item definition, not a call
            }
            if is_guard_acquisition(toks, i) {
                continue;
            }
            let under = !guards.is_empty() || acq.map(|a| i > a).unwrap_or(false);
            let dot = i > 0 && toks[i - 1].is_punct('.');
            let args = count_args(toks, i + 1, en);
            let name = t.text.as_str();
            // v4 protocol-state markers. Emitted *in addition* to the
            // primitive / call handling below: marker-bearing calls
            // whose internals matter (connect, attach)
            // still resolve; terminal protocol events (send_busy,
            // remove_file, drain) are handled with the primitives.
            // Same-named wrappers never observe their own marker.
            if name != f.name {
                let mark = |kind: EffectKind, what: &str| {
                    LocalItem::Effect(Effect {
                        kind,
                        file: rel.to_string(),
                        line: t.line,
                        note: format!("`{what}` in `{}`", f.name),
                        trace: Vec::new(),
                        branch: branch.clone(),
                    })
                };
                if !dot && args >= 2 && (name == "connect" || name == "accept") {
                    items.push(mark(EffectKind::Handshake, &format!("{name}(..) handshake")));
                }
                if WAL_ATTACH_MARKERS.contains(&name) {
                    items.push(mark(EffectKind::WalAttach, &format!("{name}(..)")));
                }
                if matches!(name, "write_file" | "create") && args_mention_tmp(toks, i + 1, en) {
                    items.push(mark(EffectKind::TmpCreate, &format!("{name}(..) tmp staging")));
                }
                if dot && name == "spawn" && args == 2 {
                    items.push(mark(EffectKind::Register, ".spawn(name, ..) registration"));
                }
                if name == "send_busy" && args >= 1 {
                    items.push(mark(EffectKind::BusyShed, "send_busy(..)"));
                    continue; // terminal: the shed frame ends the connection
                }
                if name == "remove_file" {
                    items.push(mark(EffectKind::FileRemove, "remove_file(..)"));
                    continue; // terminal: the unlink is the whole story
                }
                if dot && name == "drain" && args == 0 {
                    items.push(mark(EffectKind::Drain, ".drain() handler-set drain"));
                    continue; // terminal (range-taking Vec::drain has args >= 1)
                }
            }
            if let Some(kind) = primitive_kind(name, dot, args, &f.name) {
                items.push(LocalItem::Effect(Effect {
                    kind,
                    file: rel.to_string(),
                    line: t.line,
                    note: format!(
                        "`{}{}(..)` in `{}`",
                        if dot { "." } else { "" },
                        name,
                        f.name
                    ),
                    trace: Vec::new(),
                    branch: branch.clone(),
                }));
                if matches!(kind, EffectKind::Fsync) && under {
                    items.push(LocalItem::Effect(Effect {
                        kind: EffectKind::FsyncUnderLock,
                        file: rel.to_string(),
                        line: t.line,
                        note: format!("`{}(..)` while a lock guard is live in `{}`", name, f.name),
                        trace: Vec::new(),
                        branch: branch.clone(),
                    }));
                }
                continue; // terminal: primitives are never resolved
            }
            if MUTATE_MARKERS.contains(&name) && dot && name != f.name {
                items.push(LocalItem::Effect(Effect {
                    kind: EffectKind::Mutate,
                    file: rel.to_string(),
                    line: t.line,
                    note: format!("`.{}(..)` store mutation in `{}`", name, f.name),
                    trace: Vec::new(),
                    branch: branch.clone(),
                }));
                // fall through: the marker also resolves, so the
                // callee's WAL/fsync stream splices in behind it.
            }
            let first = name.chars().next().unwrap_or('_');
            if first.is_ascii_lowercase()
                && !KEYWORDS.contains(&name)
                && !RESOLVE_BLOCKLIST.contains(&name)
            {
                items.push(LocalItem::Call {
                    name: name.to_string(),
                    line: t.line,
                    under_guard: under,
                    args,
                    dot,
                    branch: branch.clone(),
                });
            }
        }
        // A `let` that binds a surviving acquisition opens a named
        // guard for the rest of the enclosing block.
        if s.kind == StmtKind::Let {
            if let Some(a) = acq {
                if acquisition_survives(toks, a, en) {
                    guards.push((s.pats.first().cloned(), depth));
                }
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
