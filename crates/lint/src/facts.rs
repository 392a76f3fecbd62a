//! The per-function fact walk: every non-test function's statement
//! list is walked **once**, producing one ordered stream of facts that
//! every function-level rule and the summary engine
//! ([`crate::callgraph`]) read instead of re-scanning tokens:
//!
//! * **bindings** — `let pat = init;` and `x = init;` with the
//!   initialiser's token span (what the taint rule propagates over);
//! * **calls** — each `name(..)`, with its argument list's extent and
//!   arity, receiver shape (`.name` / `Path::name`), the one
//!   [`classify`] verdict on its name (fallible? I/O? which
//!   primitive/protocol *effects*?) and the lock guards live at that
//!   point;
//! * **macro invocations** — `name!(..)` with the delimited span;
//! * **guard acquisitions** — `.lock()` / `.read()` / `.write()` with
//!   the guards already held (the lock-order edges) — liveness is
//!   tracked here and nowhere else: named `let` guards live to the end
//!   of their block or an explicit `drop(g)`, block-header temporaries
//!   (`match x.read().get(..) {`) live through that block, anything
//!   else dies with its statement.
//!
//! The walk does not build expression trees: facts carry token indices
//! into the file's token stream, and rules that care about operands
//! (is a tainted identifier *used* inside this span?) look at the
//! tokens the fact points to.

use crate::lexer::{matching_close, punct_at, Token, TokenKind};
use crate::parser::{Function, ParsedFile, Stmt, StmtKind};

/// The primitive operations the summary rules reason about.
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
    /// establishing the session (R13: nothing may be sent on the
    /// channel before this).
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

/// What a call's *name* (plus receiver shape and arity) says about it —
/// the single name table behind R6, R7 and the effect summaries.
#[derive(Debug, Default)]
pub struct CallClass {
    /// R6: the result carries an error that must not be discarded.
    pub fallible: bool,
    /// R7: channel/disk I/O a lock guard must not be held across.
    pub io: bool,
    /// Effects the call contributes to its function's stream, each
    /// with the backticked description its note starts with.
    pub effects: Vec<(EffectKind, String)>,
    /// Terminal names emit their effect and are never resolved to
    /// workspace functions (keeps common verbs from unioning the
    /// world).
    pub terminal: bool,
}

/// `(name, R6 fallible, R7 I/O as `.name(..)`, R7 I/O as
/// `fs::name(..)` / `File::name(..)` / `OpenOptions::name(..)`)`.
const CALL_TABLE: &[(&str, bool, bool, bool)] = &[
    ("send", true, true, false),
    ("recv", true, true, false),
    ("handle", true, true, false),
    ("serve_tls", true, true, false),
    ("serve_plain", true, true, false),
    ("write_all", true, true, false),
    ("flush", true, true, false),
    ("sync_all", true, true, false),
    ("store_output", true, true, false),
    ("save_snapshot", true, true, false),
    ("load_snapshot", true, true, false),
    ("rename", true, false, true),
    ("remove_file", true, false, true),
    ("remove_dir_all", true, false, true),
    ("create_dir_all", true, false, true),
    ("set_permissions", true, false, true),
    ("destroy", true, false, false),
    ("change_passphrase", true, false, false),
    ("join", true, false, false),
    ("sync_file", true, false, false),
    ("sync_dir", true, false, false),
    ("append_record", true, false, false),
    ("replay_journal", true, false, false),
    ("read_exact", false, true, false),
    ("read_to_end", false, true, false),
    ("read_to_string", false, true, true),
    ("connect_local", false, true, false),
    ("fetch_output", false, true, false),
    ("write", false, false, true),
    ("read", false, false, true),
    ("create", false, false, true),
    ("open", false, false, true),
    ("read_dir", false, false, true),
    ("metadata", false, false, true),
    ("copy", false, false, true),
];

/// Store-mutation markers: `.name(..)` mutates a credential store (and
/// still resolves, so the callee's WAL/fsync stream splices in behind
/// the marker).
const MUTATE_MARKERS: &[&str] = &[
    "put",
    "put_owned",
    "destroy",
    "change_passphrase",
    "purge_expired",
    "apply",
];

/// Classify one call. `dot` = `.name(..)`; `qual` = the path segment
/// before `::name(..)`; `args` = top-level argument count;
/// `mentions_tmp` says whether the arguments name a `.tmp` staging
/// path (only asked for the names where it matters).
pub fn classify(
    name: &str,
    dot: bool,
    qual: Option<&str>,
    args: usize,
    mentions_tmp: impl FnOnce() -> bool,
) -> CallClass {
    let mut class = CallClass::default();
    if let Some(&(_, fallible, io_method, io_path)) = CALL_TABLE.iter().find(|r| r.0 == name) {
        class.fallible = fallible;
        class.io =
            (io_method && dot) || (io_path && matches!(qual, Some("fs" | "File" | "OpenOptions")));
    }

    // Protocol-state markers, emitted *in addition* to the primitive /
    // call handling below: marker-bearing calls whose internals matter
    // (connect, attach) still resolve.
    let mut mark = |kind, what: String| class.effects.push((kind, format!("`{what}`")));
    if !dot && args >= 2 && (name == "connect" || name == "accept") {
        mark(EffectKind::Handshake, format!("{name}(..) handshake"));
    }
    if matches!(
        name,
        "attach_durable" | "attach_wal" | "enable_durability" | "enable_durability_with"
    ) {
        mark(EffectKind::WalAttach, format!("{name}(..)"));
    }
    if matches!(name, "write_file" | "create") && mentions_tmp() {
        mark(EffectKind::TmpCreate, format!("{name}(..) tmp staging"));
    }
    if dot && name == "spawn" && args == 2 {
        mark(EffectKind::Register, ".spawn(name, ..) registration".into());
    }
    // Terminal protocol events: the frame / unlink / drain is the
    // whole story (range-taking `Vec::drain` has args >= 1).
    let terminal_marker = match name {
        "send_busy" if args >= 1 => Some((EffectKind::BusyShed, "send_busy(..)")),
        "remove_file" => Some((EffectKind::FileRemove, "remove_file(..)")),
        "drain" if dot && args == 0 => Some((EffectKind::Drain, ".drain() handler-set drain")),
        _ => None,
    };
    if let Some((kind, what)) = terminal_marker {
        mark(kind, what.into());
        class.terminal = true;
        return class;
    }

    let primitive = match name {
        "spawn" => Some(EffectKind::Spawn),
        "read_to_end" | "read_to_string" | "read_until" if dot => Some(EffectKind::UnboundedRead),
        "accept" if args == 0 => Some(EffectKind::UnboundedRead),
        "accept" => Some(EffectKind::SocketRead),
        "recv" | "read_exact" if dot => Some(EffectKind::SocketRead),
        "read" if dot && args >= 1 => Some(EffectKind::SocketRead),
        "write_all" | "flush" if dot => Some(EffectKind::SocketWrite),
        "write" if dot && args >= 1 => Some(EffectKind::SocketWrite),
        "send" | "send_record" if dot && args >= 1 => Some(EffectKind::Ack),
        "append" if dot && args == 2 => Some(EffectKind::WalAppend),
        "sync_file" | "sync_all" => Some(EffectKind::Fsync),
        "sync_dir" => Some(EffectKind::DirFsync),
        "rename" if args == 2 => Some(EffectKind::Rename),
        "set_deadlines" | "set_read_timeout" | "set_write_timeout" => Some(EffectKind::DeadlineArm),
        _ => None,
    };
    if let Some(kind) = primitive {
        mark(kind, format!("{}{name}(..)", if dot { "." } else { "" }));
        class.terminal = true;
    } else if dot && MUTATE_MARKERS.contains(&name) {
        class.effects.push((EffectKind::Mutate, format!("`.{name}(..)` store mutation")));
    }
    class
}

const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "fn", "let", "loop", "move", "in", "as", "ref", "mut",
    "use", "pub", "impl", "where", "else", "break", "continue", "self", "super", "crate", "dyn",
    "unsafe", "await", "drop",
];

/// Names that are overwhelmingly std-library methods at their call
/// sites (`map.get(..)`, `iter.all(..)`, `s.parse()`, ...). Workspace
/// functions that happen to share these names are never resolved
/// through them — treating such calls as unresolved loses a little
/// reach but prevents absurd cross-crate unions (a `HashMap::get`
/// splicing in some unrelated `fn get`). Part of the documented
/// conservative fallback.
const RESOLVE_BLOCKLIST: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "take",
    "contains",
    "contains_key",
    "all",
    "any",
    "find",
    "filter",
    "map",
    "parse",
    "push",
    "pop",
    "iter",
    "next",
    "len",
    "is_empty",
    "clone",
    "clear",
    "entry",
    "extend",
    "retain",
    "join",
    "split",
    "trim",
    "count",
    "min",
    "max",
    "first",
    "last",
    "new",
    "default",
    "from",
    "into",
    "with_capacity",
    "to_vec",
    "as_bytes",
    "starts_with",
    "ends_with",
    "replace",
    "chars",
    "lines",
    "bytes",
    "text",
    "open",
    "u8",
    "u16",
    "u32",
    "u64",
    "position",
    "resize",
    "truncate",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "and_then",
];

/// Top-level argument count of the call whose `(` sits at `open` and
/// whose `)` sits at `close`.
fn arg_count(toks: &[Token], open: usize, close: usize) -> usize {
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut args = 1;
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

/// `.lock()` / `.read()` / `.write()` with an *empty* argument list — a
/// lock guard acquisition (argument-taking `.read(buf)` is socket I/O).
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokenKind::Ident
        && matches!(t.text.as_str(), "lock" | "read" | "write")
        && i > 0
        && toks[i - 1].is_punct('.')
        && punct_at(toks, i + 1, '(')
        && punct_at(toks, i + 2, ')')
}

/// Does the guard acquired at `acq` survive into a `let` binding?
/// `.lock().unwrap()` / `.expect(..)` still bind the guard; any other
/// projection (`.read().clone()`) binds derived data and the guard
/// dies with the statement.
fn acquisition_survives(toks: &[Token], acq: usize, limit: usize) -> bool {
    let mut j = acq + 2;
    loop {
        if !toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
            return true;
        }
        let Some(m) = toks.get(j + 2) else {
            return true;
        };
        if !(m.is_ident("unwrap") || m.is_ident("expect")) {
            return false;
        }
        match matching_close(toks, j + 3, limit) {
            Some(c) => j = c,
            None => return false,
        }
    }
}

/// A lock guard seen by the walk.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The field the lock lives in: the ident before `.lock()`.
    pub field: String,
    /// Line of the acquisition.
    pub line: u32,
}

#[derive(Debug)]
enum GuardLife {
    /// Temporary within one statement (`x.lock().len()`).
    Stmt,
    /// Temporary in a block header (`match x.read().get(..) { .. }`):
    /// lives until depth drops below `inside`.
    Block { inside: u32 },
    /// `let g = x.lock();` — lives until its block closes or `drop(g)`.
    Named { name: String, depth: u32 },
}

/// `let pat = init;` or `x = init;`.
#[derive(Debug)]
pub struct Bind {
    pub pats: Vec<String>,
    /// Initialiser token range `[lo, hi)` (empty for a bare `let x;`).
    pub init: (usize, usize),
    pub is_let: bool,
}

/// One `name(..)` call site.
#[derive(Debug)]
pub struct Call {
    /// Token index of the name; the `(` is at `tok + 1`.
    pub tok: usize,
    /// The matching `)`; `None` when it lies past the statement (a
    /// closure body among the arguments).
    pub close: Option<usize>,
    /// Top-level argument count (0 when `close` is `None`).
    pub args: usize,
    /// Preceded by `.` — a method call.
    pub dot: bool,
    /// Token index of the path segment before `::name`.
    pub qual: Option<usize>,
    pub class: CallClass,
    /// May be resolved by name to workspace functions.
    pub resolves: bool,
    /// Indices into [`FnFacts::guards`] of the guards live here.
    pub held: Vec<usize>,
}

/// One fact, in token order within its statement.
#[derive(Debug)]
pub enum Fact {
    Call(Call),
    /// `name!(..)`: `tok` is the name, the opening delimiter sits at
    /// `tok + 2`, `close` is its match (which may lie past the
    /// statement's end).
    Macro {
        tok: usize,
        close: usize,
    },
    /// A guard acquisition: `guard` indexes [`FnFacts::guards`];
    /// `held` are the guards already live (lock-order edges).
    Acquire {
        guard: usize,
        held: Vec<usize>,
    },
}

/// The facts of one statement.
#[derive(Debug)]
pub struct StmtFacts {
    /// Index into [`Function::stmts`].
    pub stmt: usize,
    /// Enclosing-block path (see [`crate::callgraph::Effect::branch`]).
    pub branch: Vec<u32>,
    pub bind: Option<Bind>,
    pub facts: Vec<Fact>,
}

impl StmtFacts {
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.facts.iter().filter_map(|f| match f {
            Fact::Call(c) => Some(c),
            _ => None,
        })
    }
}

/// The fact stream of one function.
#[derive(Debug, Default)]
pub struct FnFacts {
    pub stmts: Vec<StmtFacts>,
    pub guards: Vec<Guard>,
}

/// Walk every function of a parsed file: one entry per
/// [`ParsedFile::functions`] element, `None` for test functions (no
/// rule looks at those).
pub fn walk_file(pf: &ParsedFile) -> Vec<Option<FnFacts>> {
    pf.functions.iter().map(|f| (!f.is_test).then(|| walk(&pf.lexed.tokens, f))).collect()
}

/// Walk one function's statements, producing its ordered fact stream.
pub fn walk(toks: &[Token], f: &Function) -> FnFacts {
    let mut out = FnFacts::default();
    let mut live: Vec<(usize, GuardLife)> = Vec::new();
    let mut depth = 0u32;
    // Every block gets a function-unique id, so sibling blocks (match
    // arms, if/else) yield diverging paths that `ordered_branches`
    // recognizes as mutually exclusive.
    let mut branch_ctr = 0u32;
    let mut branch: Vec<u32> = Vec::new();

    for (si, s) in f.stmts.iter().enumerate() {
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
                live.retain(|(_, life)| match life {
                    GuardLife::Block { inside } => *inside <= depth,
                    GuardLife::Named { depth: d, .. } => *d <= depth,
                    GuardLife::Stmt => false,
                });
                continue;
            }
            _ => {}
        }
        let (st, en) = s.toks;
        let opens_block = f.stmts.get(si + 1).is_some_and(|n| n.kind == StmtKind::BlockOpen);

        // `drop(g)` releases a named guard early.
        for i in st..en {
            if toks[i].is_ident("drop")
                && punct_at(toks, i + 1, '(')
                && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                && punct_at(toks, i + 3, ')')
            {
                let victim = &toks[i + 2].text;
                live.retain(|(_, l)| !matches!(l, GuardLife::Named { name, .. } if name == victim));
            }
        }

        let mut facts = Vec::new();
        for i in st..en {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if punct_at(toks, i + 1, '!') {
                if let Some(close) = matching_close(toks, i + 2, f.body.1 + 1) {
                    facts.push(Fact::Macro { tok: i, close });
                }
                continue;
            }
            if !punct_at(toks, i + 1, '(') {
                continue;
            }
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue; // nested item definition, not a call
            }
            let held: Vec<usize> = live.iter().map(|(g, _)| *g).collect();
            if is_acquisition(toks, i) {
                let field = if i >= 2 && toks[i - 2].kind == TokenKind::Ident {
                    toks[i - 2].text.clone()
                } else {
                    "<lock>".into()
                };
                let life = if opens_block {
                    GuardLife::Block { inside: depth + 1 }
                } else {
                    match s.pats.first() {
                        Some(name)
                            if s.kind == StmtKind::Let
                                && name != "_"
                                && acquisition_survives(toks, i, en) =>
                        {
                            GuardLife::Named { name: name.clone(), depth }
                        }
                        _ => GuardLife::Stmt,
                    }
                };
                let guard = out.guards.len();
                out.guards.push(Guard { field, line: t.line });
                live.push((guard, life));
                facts.push(Fact::Acquire { guard, held });
                continue;
            }
            facts.push(Fact::Call(call_at(toks, i, en, &f.name, held)));
        }
        // Statement temporaries die at `;`.
        live.retain(|(_, life)| !matches!(life, GuardLife::Stmt));

        out.stmts.push(StmtFacts {
            stmt: si,
            branch: branch.clone(),
            bind: bind_of(toks, s),
            facts,
        });
    }
    out
}

fn call_at(toks: &[Token], i: usize, en: usize, in_fn: &str, held: Vec<usize>) -> Call {
    let name = toks[i].text.as_str();
    let dot = i > 0 && toks[i - 1].is_punct('.');
    let qual = (i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == TokenKind::Ident)
        .then(|| i - 3);
    let close = matching_close(toks, i + 1, en);
    let args = close.map_or(0, |c| arg_count(toks, i + 1, c));
    // Any token in the argument region names a tmp staging path: a
    // `tmp`-containing identifier or a `.tmp` string literal.
    let mentions_tmp = || {
        close.is_some_and(|c| {
            toks[i + 2..c].iter().any(|t| match t.kind {
                TokenKind::Ident => t.text.to_ascii_lowercase().contains("tmp"),
                TokenKind::Str => t.text.contains(".tmp"),
                _ => false,
            })
        })
    };
    let mut class =
        classify(name, dot, qual.map(|q| toks[q].text.as_str()), args, mentions_tmp);
    // A `Vfs` impl named `rename` calling `fs::rename` is the
    // primitive's *implementation*, not a use site: same-named
    // wrappers never observe their own effects.
    if name == in_fn {
        class.effects.clear();
        class.terminal = false;
    }
    if !held.is_empty() && class.effects.iter().any(|(k, _)| *k == EffectKind::Fsync) {
        class
            .effects
            .push((EffectKind::FsyncUnderLock, format!("`{name}(..)` while a lock guard is live")));
    }
    let resolves = !class.terminal
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && !KEYWORDS.contains(&name)
        && !RESOLVE_BLOCKLIST.contains(&name);
    Call { tok: i, close, args, dot, qual, class, resolves, held }
}

/// The binding a statement makes, if any: a `let` (the parser found
/// its patterns and initialiser) or a plain `x = init;` assignment.
fn bind_of(toks: &[Token], s: &Stmt) -> Option<Bind> {
    let (st, en) = s.toks;
    if s.kind == StmtKind::Let {
        return Some(Bind { pats: s.pats.clone(), init: s.init, is_let: true });
    }
    let assigns = en - st >= 3
        && toks[st].kind == TokenKind::Ident
        && toks[st + 1].is_punct('=')
        && !(toks[st + 2].is_punct('=') && toks[st + 1].glues_with(&toks[st + 2]));
    assigns.then(|| Bind { pats: vec![toks[st].text.clone()], init: (st + 2, en), is_let: false })
}
