//! Request-path availability: a connection thread must neither panic
//! on attacker-reachable input (R1), nor silently truncate a length in
//! the DER encoder or the GSI framing layer (R4), nor silently drop the
//! error of a protocol/store operation (R6).

use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, SourceFile};

/// R1: panic-freedom. Flags `.unwrap()`, `.expect(`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`, `assert!`-family and
/// direct slice/array indexing `expr[...]` in non-test code.
pub(crate) fn r1_panics(file: &SourceFile) -> Vec<Diagnostic> {
    let tokens = file.toks();
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if file.parsed.test_mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let next = tokens.get(i + 1);
        let next_bang = next.is_some_and(|n| n.is_punct('!'));
        let (line, message) = match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_unchecked"
                if i > 0 && tokens[i - 1].is_punct('.') && next.is_some_and(|n| n.is_punct('(')) =>
            {
                let what = &t.text;
                (
                    t.line,
                    format!(".{what}() can panic on attacker-reachable input; return a typed error instead"),
                )
            }
            "unwrap" | "expect" | "unwrap_unchecked" => continue,
            "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => (
                t.line,
                format!(
                    "{}! aborts the connection thread; answer with a protocol error instead",
                    t.text
                ),
            ),
            "assert" | "assert_eq" | "assert_ne" | "debug_assert" if next_bang => (
                t.line,
                format!(
                    "{}! panics when the condition fails; validate and return an error instead",
                    t.text
                ),
            ),
            // Indexing escape: `ident[` — slice/array indexing that
            // panics out of bounds. Attribute brackets (`#[...]`) and
            // type/macro positions are excluded by only firing when the
            // `[` is glued to a lower-case ident (no whitespace), which
            // is how indexing is written; `ident![...]` is a macro
            // invocation (`vec![...]`), a capitalized `Foo[` does not
            // occur in expressions.
            _ => match next {
                Some(n)
                    if n.is_punct('[')
                        && t.glues_with(n)
                        && !t.text.starts_with(|c: char| c.is_ascii_uppercase()) =>
                {
                    (
                        n.line,
                        format!(
                            "indexing `{}[..]` panics out of bounds; use .get()/.get_mut() or split_at checks",
                            t.text
                        ),
                    )
                }
                _ => continue,
            },
        };
        diags.push(Diagnostic::new(&file.rel, line, "R1", message));
    }
    diags
}

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

/// R6: `let _ =` / trailing `.ok()` on a call the name table marks
/// fallible (channel/wire ops, store/persist ops, connection-handler
/// results).
pub(crate) fn r6_discarded_fallible(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = file.toks();
    let mut diags = Vec::new();
    for (f, facts) in file.fns() {
        for s in &facts.stmts {
            let stmt = &f.stmts[s.stmt];
            let (st, mut end) = stmt.toks;
            // The first fallible call whose name sits in `[lo, hi)`.
            let fallible_in = |lo: usize, hi: usize| {
                s.calls()
                    .find(|c| c.class.fallible && (lo..hi).contains(&c.tok))
                    .map(|c| toks[c.tok].text.as_str())
            };
            let finding = match &s.bind {
                Some(b) if b.is_let && b.pats == ["_"] => {
                    fallible_in(b.init.0, b.init.1).map(|op| {
                        format!(
                            "`let _ =` discards the result of fallible `{op}(..)`; record the failure (error counter or log) or propagate it"
                        )
                    })
                }
                Some(b) if b.is_let => None,
                _ => {
                    // `expr.ok();` — Result swallowed.
                    if end > st && toks[end - 1].is_punct(';') {
                        end -= 1;
                    }
                    let swallowed = end >= st + 4
                        && toks[end - 1].is_punct(')')
                        && toks[end - 2].is_punct('(')
                        && toks[end - 3].is_ident("ok")
                        && toks[end - 4].is_punct('.');
                    swallowed.then(|| fallible_in(st, end - 3)).flatten().map(|op| {
                        format!(
                            "`.ok()` silently swallows the error of fallible `{op}(..)`; record the failure or propagate it"
                        )
                    })
                }
            };
            if let Some(message) = finding {
                diags.push(Diagnostic::new(&file.rel, stmt.line, "R6", message));
            }
        }
    }
    diags
}
