//! Protocol-state rules over the converged effect summaries of
//! [`crate::callgraph`]: invariants that span function boundaries.
//!
//! * **R8 — worker-pool blocking discipline.** Nothing reachable from a
//!   pool worker entry point (`impl Service for ..` `handle`/`shed`)
//!   may spawn a thread, perform an unbounded read/accept, or fsync
//!   while holding a lock — outside the audited `mp_gsi::net`
//!   substrate, which owns the pool mechanism itself.
//! * **R9 — durability ordering.** On every mutating store path that
//!   writes a response the order must be WAL-append → fsync → ack: an
//!   ack with an unfsynced append behind it is a finding, as is a
//!   store mutation after the final ack, as is a `rename` on a
//!   persistence path with no directory fsync behind it.
//! * **R11 — deadline coverage.** Every socket read/write reachable
//!   from a serve-loop entry point must be dominated by a deadline
//!   arm/re-arm. Pool workers enter *armed* (the accept loop arms the
//!   handshake deadline before dispatch); functions that spawn their
//!   own handler thread enter *unarmed* and must arm before I/O.
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
//! * **R15 — resource leaks.** `.tmp` staging files created without a
//!   rename/removal behind them in any function's stream leak on early
//!   return; handler-set registrations (`.spawn(name, f)`) in a crate
//!   with no `.drain()` anywhere are never joined; a handshake
//!   deadline left armed for the request phase (arm → handshake → I/O
//!   with no re-arm) turns the idle timeout into a request timeout.
//!
//! Findings anchor at the first call hop inside the checked function
//! (so a `lint:allow` waiver sits at the call site) and carry the full
//! inter-procedural trace down to the primitive, R5-taint-path style.
//! Each rule takes the shared graph and a predicate saying which files
//! it is enabled for.

use std::collections::{HashMap, HashSet};

use crate::callgraph::{ordered_branches, CallGraph, CgFn, Effect, EffectKind};
use crate::rules::{Diagnostic, Scope, TaintStep};

/// The functions a rule checks: in its scope and outside the audited
/// substrate, each with its index into the graph.
fn checked_fns<'g>(
    g: &'g CallGraph,
    in_scope: Scope<'g>,
) -> impl Iterator<Item = (usize, &'g CgFn)> {
    g.fns.iter().enumerate().filter(move |(_, f)| in_scope(&f.file) && !f.is_substrate())
}

/// Pool worker entry points: `handle`/`shed` inside `impl Service`.
fn is_pool_root(g: &CallGraph, i: usize) -> bool {
    let f = &g.fns[i];
    f.impl_trait.as_deref() == Some("Service") && matches!(f.name.as_str(), "handle" | "shed")
}

/// Anchor line for an effect inside the checked function's file: the
/// first call hop if the effect was spliced in, else the effect site.
fn anchor_line(e: &Effect) -> u32 {
    e.trace.first().map(|s| s.line).unwrap_or(e.line)
}

/// Render an effect's call path plus a terminal step at the primitive.
fn path_of(e: &Effect, what: &str) -> Vec<TaintStep> {
    let mut steps = e.trace.clone();
    steps.push(TaintStep {
        line: e.line,
        note: format!("{what}: {} [{}:{}]", e.note, e.file, e.line),
    });
    steps
}

pub(crate) fn r8_pool_blocking(g: &CallGraph, in_scope: Scope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: HashSet<(String, u32, EffectKind, String, u32)> = HashSet::new();
    for (i, f) in checked_fns(g, in_scope).filter(|&(i, _)| is_pool_root(g, i)) {
        for e in g.summary(i) {
            if !matches!(
                e.kind,
                EffectKind::Spawn | EffectKind::UnboundedRead | EffectKind::FsyncUnderLock
            ) {
                continue;
            }
            let line = anchor_line(e);
            if !seen.insert((f.file.clone(), line, e.kind, e.file.clone(), e.line)) {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line,
                rule: "R8",
                message: format!(
                    "pool worker `{}::{}` reaches a {} at {}:{} — blocking work must \
                     stay off pool worker threads (mp_gsi::net substrate excepted)",
                    f.impl_trait.as_deref().unwrap_or("?"),
                    f.name,
                    e.kind.label(),
                    e.file,
                    e.line
                ),
                path: path_of(e, "blocking operation"),
            });
        }
    }
    out
}

pub(crate) fn r9_durability(g: &CallGraph, in_scope: Scope) -> Vec<Diagnostic> {
    // Candidates keyed for global dedup (the same underlying violation
    // shows up in every caller whose summary contains both events);
    // the shortest path wins.
    let mut cands: HashMap<(u8, String, u32, String, u32), Diagnostic> = HashMap::new();
    let mut keep = |key: (u8, String, u32, String, u32), d: Diagnostic| {
        match cands.get(&key) {
            Some(old) if old.path.len() <= d.path.len() => {}
            _ => {
                cands.insert(key, d);
            }
        }
    };
    for (i, f) in checked_fns(g, in_scope) {
        let s = g.summary(i);

        // (a) a WAL append followed by an ack with no fsync between:
        // the response acknowledges state that is not yet durable.
        // Appends covered by a later fsync were already fused to
        // `DurableAppend` on the *uncompressed* stream (callgraph), so
        // a raw `WalAppend` here genuinely has no covering fsync
        // before the next ack — any later ack is the violation.
        for (ai, append) in s.iter().enumerate().filter(|(_, e)| e.kind == EffectKind::WalAppend) {
            let Some(ack) = s[ai + 1..].iter().find(|e| e.kind == EffectKind::Ack) else {
                continue;
            };
            let mut path = path_of(append, "WAL append");
            path.extend(path_of(ack, "acknowledged before fsync"));
            keep(
                (b'a', append.file.clone(), append.line, ack.file.clone(), ack.line),
                Diagnostic {
                    file: f.file.clone(),
                    line: anchor_line(ack),
                    rule: "R9",
                    message: format!(
                        "response acknowledged before the WAL append at {}:{} is fsynced \
                         — durability order must be append → fsync → ack",
                        append.file, append.line
                    ),
                    path,
                },
            );
        }

        // (b) a store mutation after the final ack: a crash between
        // them leaves the client holding an ack for unapplied state.
        if let Some(ki) = s.iter().rposition(|e| e.kind == EffectKind::Ack) {
            let ack = &s[ki];
            for m in s[ki + 1..].iter().filter(|e| e.kind == EffectKind::Mutate) {
                let mut path = path_of(ack, "final response ack");
                path.extend(path_of(m, "mutation after ack"));
                keep(
                    (b'b', m.file.clone(), m.line, ack.file.clone(), ack.line),
                    Diagnostic {
                        file: f.file.clone(),
                        line: anchor_line(m),
                        rule: "R9",
                        message: format!(
                            "store mutation at {}:{} happens after the response was \
                             acknowledged at {}:{} — mutate and make durable first, ack last",
                            m.file, m.line, ack.file, ack.line
                        ),
                        path,
                    },
                );
            }
        }

        // (c) a local rename on a persistence path with no directory
        // fsync behind it: the new directory entry may not survive a
        // crash. Checked where the rename is *local* so the one
        // responsible function is flagged, not every caller.
        for (ri, ren) in s
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EffectKind::Rename && e.trace.is_empty())
        {
            if s[ri + 1..].iter().any(|e| e.kind == EffectKind::DirFsync) {
                continue;
            }
            keep(
                (b'c', ren.file.clone(), ren.line, String::new(), 0),
                Diagnostic {
                    file: f.file.clone(),
                    line: ren.line,
                    rule: "R9",
                    message: format!(
                        "`rename` in `{}` has no directory fsync after it — the new \
                         directory entry is not durable until the directory is synced",
                        f.name
                    ),
                    path: path_of(ren, "rename"),
                },
            );
        }
    }
    cands.into_values().collect()
}

pub(crate) fn r11_deadlines(g: &CallGraph, in_scope: Scope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, f) in checked_fns(g, in_scope) {
        let pool_root = is_pool_root(g, i);
        let spawn_root = !pool_root && f.has_local_spawn();
        if !pool_root && !spawn_root {
            continue;
        }
        // Pool workers enter armed: the accept loop arms the handshake
        // deadline on every connection before dispatch (mp_gsi::net).
        // Self-spawned handler threads enter with nothing armed.
        let mut armed = pool_root;
        for e in g.summary(i) {
            match e.kind {
                EffectKind::DeadlineArm => armed = true,
                EffectKind::SocketRead
                | EffectKind::SocketWrite
                | EffectKind::UnboundedRead
                | EffectKind::Ack
                    if !armed =>
                {
                    out.push(Diagnostic {
                        file: f.file.clone(),
                        line: anchor_line(e),
                        rule: "R11",
                        message: format!(
                            "socket I/O ({} at {}:{}) reachable from `{}` before any \
                             deadline is armed — a stalled peer parks this thread forever; \
                             arm read/write deadlines first",
                            e.kind.label(),
                            e.file,
                            e.line,
                            f.name
                        ),
                        path: path_of(e, "undeadlined socket I/O"),
                    });
                    // One finding per serve root: the fix (arm on
                    // entry) covers everything downstream of it.
                    break;
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------- R13

pub(crate) fn r13_typestate(g: &CallGraph, in_scope: Scope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: HashSet<(String, u32, &'static str, String, u32)> = HashSet::new();
    for (i, f) in checked_fns(g, in_scope) {
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
        let handshakes: Vec<(usize, &Effect)> = s
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

// ---------------------------------------------------------------- R15

fn crate_of(rel: &str) -> String {
    rel.split('/').take(2).collect::<Vec<_>>().join("/")
}

pub(crate) fn r15_leaks(g: &CallGraph, in_scope: Scope) -> Vec<Diagnostic> {
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
    for (i, f) in checked_fns(g, in_scope) {
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
