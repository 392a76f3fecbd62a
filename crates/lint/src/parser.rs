//! A lightweight item/function-level Rust parser on top of the lexer.
//!
//! The rules need more structure than a flat token stream: *which
//! tokens are test code*, *which function am I in*, *what are its
//! parameters and return type*, *where does one statement end and the
//! next begin*, *which structs does the file declare, with what
//! derives and fields*. This module recovers exactly that — and
//! nothing more.
//! It does not build expression trees or resolve types; statements are
//! token ranges with byte/line spans, which is what the per-function
//! fact walk ([`crate::facts`]) consumes.
//!
//! Robustness contract (enforced by `tests/parser_corpus.rs`): every
//! `.rs` file in the workspace parses without error, and every span
//! round-trips — slicing the original source at a reported byte span
//! yields the text the tokens came from.

use crate::lexer::{lex, matching_close, punct_at, Lexed, Token, TokenKind};

/// A parse failure. The lexer tolerates anything, so the only failures
/// are structural: a function body whose braces never balance.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line where the unclosed construct starts.
    pub line: u32,
    pub what: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (pattern idents joined; `self` receivers are skipped).
    pub name: String,
    /// Type text, tokens joined with spaces.
    pub ty: String,
    pub line: u32,
}

/// What a statement is, as far as the dataflow rules care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// Contains a top-level `let`. `pats` are the bound names (`_` is
    /// kept — R6 needs it); `init` is the token index range of the
    /// initializer expression, empty if there is none.
    Let,
    /// Any other expression/item fragment.
    Expr,
    /// A `{` was opened (block, match body, struct literal, closure body).
    BlockOpen,
    /// The matching `}` closed.
    BlockClose,
}

/// One statement: a token index range into the file's token stream,
/// plus its source position.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub kind: StmtKind,
    /// Token index range `[start, end)` into the file token stream.
    pub toks: (usize, usize),
    /// Bound pattern names for `Let` statements (empty otherwise).
    pub pats: Vec<String>,
    /// Initializer token index range for `Let` statements (empty range
    /// otherwise).
    pub init: (usize, usize),
    /// 1-based line of the first token.
    pub line: u32,
    /// Byte span `[start, end)` into the source.
    pub span: (usize, usize),
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    pub params: Vec<Param>,
    /// Return type text ("" when the function returns `()`).
    pub ret: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Byte span from the `fn` keyword through the body's closing brace.
    pub span: (usize, usize),
    /// Token index range of the body *contents* (inside the braces).
    pub body: (usize, usize),
    /// Flattened statement list (all nesting levels, in source order,
    /// with BlockOpen/BlockClose markers preserving scope structure).
    pub stmts: Vec<Stmt>,
    /// True if the function sits in `#[test]`/`#[cfg(test)]` code.
    pub is_test: bool,
    /// True if the body contains a `loop`/`while`/`for` at any depth.
    /// The typestate rule (R13) uses this to skip linear-order checks
    /// that a flattened loop body would violate spuriously (a retry
    /// loop legitimately revisits "terminal" protocol states).
    pub has_loop: bool,
    /// Trait name when the function sits inside an `impl Trait for
    /// Type` block (`Some("Service")` for pool-worker entry points);
    /// `None` for free functions and inherent impls. The tightest
    /// enclosing impl block wins.
    pub impl_trait: Option<String>,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// Type text, tokens joined without spaces.
    pub ty: String,
    pub line: u32,
}

/// One `struct` item.
#[derive(Debug, Clone)]
pub struct Struct {
    pub name: String,
    /// Every trait named by a `derive(..)` among the item's attributes.
    pub derives: Vec<String>,
    /// Named fields, in source order (none for unit and tuple structs).
    pub fields: Vec<Field>,
    /// True if the item sits in `#[test]`/`#[cfg(test)]` code.
    pub is_test: bool,
}

impl Struct {
    /// Does a `derive(..)` on the item name `trait_name`?
    pub fn derives(&self, trait_name: &str) -> bool {
        self.derives.iter().any(|d| d == trait_name)
    }
}

/// A parsed file: the lex result, the test mask, every function and
/// every struct item.
#[derive(Debug)]
pub struct ParsedFile {
    pub lexed: Lexed,
    pub test_mask: Vec<bool>,
    pub functions: Vec<Function>,
    pub structs: Vec<Struct>,
    /// Set when a function body's braces never balance: `functions` is
    /// empty then, but the tokens and mask still serve the token rules.
    pub error: Option<ParseError>,
}

/// Lex and parse a source file, once. Never panics and never fails: a
/// structural error is carried in [`ParsedFile::error`].
pub fn parse(src: &str) -> ParsedFile {
    let lexed = lex(src);
    let test_mask = test_mask(&lexed.tokens);
    let (functions, error) = match parse_functions(&lexed.tokens, &test_mask) {
        Ok(functions) => (functions, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let structs = parse_structs(&lexed.tokens, &test_mask);
    ParsedFile { lexed, test_mask, functions, structs, error }
}

/// [`parse`], with the structural error (a function whose brace
/// structure does not balance before EOF) surfaced as `Err`.
pub fn parse_source(src: &str) -> Result<ParsedFile, ParseError> {
    let mut parsed = parse(src);
    match parsed.error.take() {
        Some(e) => Err(e),
        None => Ok(parsed),
    }
}

/// Mark which tokens are inside test code: a `#[test]`-like attribute
/// (any attribute containing the ident `test`, covering `#[test]` and
/// `#[cfg(test)]`) followed by a `fn` or `mod` puts the entire
/// following brace block in the test region.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && punct_at(tokens, i + 1, '[') {
            // Scan the attribute to its closing ']'.
            let j = matching_close(tokens, i + 1, tokens.len()).unwrap_or(tokens.len());
            if tokens[i + 1..j].iter().any(|t| t.is_ident("test")) {
                // Find the following `{` (the fn/mod body) and mark
                // through its matching `}`. Intervening attributes and
                // signatures are marked too.
                let mut k = j + 1;
                let mut brace_depth = 0i32;
                let mut started = false;
                while k < tokens.len() {
                    mask[k] = true;
                    if tokens[k].is_punct('{') {
                        brace_depth += 1;
                        started = true;
                    } else if tokens[k].is_punct('}') {
                        brace_depth -= 1;
                        if started && brace_depth == 0 {
                            break;
                        }
                    } else if !started && tokens[k].is_punct(';') {
                        // `#[cfg(test)] mod tests;` — file-scoped; stop.
                        break;
                    }
                    k += 1;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

fn parse_functions(tokens: &[Token], mask: &[bool]) -> Result<Vec<Function>, ParseError> {
    let ranges = impl_ranges(tokens);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // An item fn: `fn` followed by a name. `fn(u8) -> u8` type
        // position has no name and is skipped naturally.
        if !(tokens[i].is_ident("fn")
            && tokens.get(i + 1).map(|t| t.kind == TokenKind::Ident).unwrap_or(false))
        {
            i += 1;
            continue;
        }
        let fn_tok = i;
        let name = tokens[i + 1].text.clone();
        let mut j = skip_generics(tokens, i + 2);

        // Parameter list.
        let mut params = Vec::new();
        if tokens.get(j).map(|t| t.is_punct('(')).unwrap_or(false) {
            let open = j;
            let mut depth = 0i32;
            let mut k = j;
            while k < tokens.len() {
                if tokens[k].is_punct('(') || tokens[k].is_punct('[') {
                    depth += 1;
                } else if tokens[k].is_punct(')') || tokens[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            params = parse_params(&tokens[open + 1..k.min(tokens.len())]);
            j = k + 1;
        }

        // Return type: `-> ...` until `{`, `;`, or `where`.
        let mut ret = String::new();
        if tokens.get(j).map(|t| t.is_punct('-')).unwrap_or(false)
            && tokens.get(j + 1).map(|t| t.is_punct('>')).unwrap_or(false)
        {
            j += 2;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if !ret.is_empty() {
                    ret.push(' ');
                }
                ret.push_str(&t.text);
                j += 1;
            }
        }
        // Where clause.
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }

        if j >= tokens.len() || tokens[j].is_punct(';') {
            // Trait method declaration: no body to analyze.
            i = j + 1;
            continue;
        }

        // Body: match braces.
        let body_open = j;
        let Some(close) = matching_close(tokens, body_open, tokens.len()) else {
            return Err(ParseError {
                line: tokens[body_open].line,
                what: format!("unbalanced braces in body of fn {name}"),
            });
        };

        let body = (body_open + 1, close);
        let stmts = parse_stmts(tokens, body);
        let has_loop = tokens[body.0..body.1]
            .iter()
            .any(|t| t.is_ident("loop") || t.is_ident("while") || t.is_ident("for"));
        out.push(Function {
            name,
            params,
            ret,
            line: tokens[fn_tok].line,
            span: (tokens[fn_tok].start, tokens[close].end),
            body,
            stmts,
            is_test: mask.get(fn_tok).copied().unwrap_or(false),
            has_loop,
            impl_trait: ranges
                .iter()
                .filter(|(open, close, _)| *open < fn_tok && fn_tok < *close)
                .min_by_key(|(open, close, _)| close - open)
                .map(|(_, _, name)| name.clone()),
        });
        // Continue from just inside the body so nested fns are found too.
        i = body_open + 1;
    }
    Ok(out)
}

/// The index just past the generics list `<...>` opening at `j` (`j`
/// itself when there is none). A `>` that is the tail of a glued `->`
/// (closure bounds like `Fn() -> u8`) does not close the list.
fn skip_generics(tokens: &[Token], mut j: usize) -> usize {
    if !punct_at(tokens, j, '<') {
        return j;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && tokens[j - 1].is_punct('-') && tokens[j - 1].glues_with(t);
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    j
}

/// Find every `impl Trait for Type { .. }` block and report its body
/// token range plus the trait name (the last angle-depth-0 path ident
/// before the `for`). Inherent impls (`impl Type { .. }`) have no
/// `for` and are not reported. Used to tag functions with the trait
/// they implement — the call-graph engine keys pool-worker roots off
/// `impl Service for ..` blocks.
fn impl_ranges(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let j = skip_generics(tokens, i + 1);
        // Scan the trait path up to a depth-0 `for`; `impl Trait` in
        // type position never reaches a `for` before `{`/`;` and is
        // skipped because `saw_for` stays false.
        let mut depth = 0i32;
        let mut last_ident: Option<String> = None;
        let mut saw_for = false;
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_ident("for") && depth == 0 {
                saw_for = true;
                break;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = k > 0 && tokens[k - 1].is_punct('-') && tokens[k - 1].glues_with(t);
                if !arrow {
                    depth -= 1;
                }
            } else if t.kind == TokenKind::Ident && depth == 0 && !t.is_ident("dyn") {
                last_ident = Some(t.text.clone());
            }
            k += 1;
        }
        // Advance to the body `{` (past the implementing type / where
        // clause) and match its braces.
        while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
            k += 1;
        }
        if k >= tokens.len() || tokens[k].is_punct(';') {
            i = k.min(tokens.len().saturating_sub(1)) + 1;
            continue;
        }
        let open = k;
        let close = matching_close(tokens, open, tokens.len());
        if let (true, Some(name), Some(c)) = (saw_for, last_ident, close) {
            out.push((open, c, name));
        }
        // Continue scanning from just inside the body so nested impls
        // (inside fns) are found too.
        i = open + 1;
    }
    out
}

/// Every `struct Name` item, at any nesting level. The attributes and
/// visibility in front of the keyword belong to the item: `derives`
/// collects what their `derive(..)` lists name.
fn parse_structs(tokens: &[Token], mask: &[bool]) -> Vec<Struct> {
    let mut out = Vec::new();
    // Derives of the attributes seen since the last token that was
    // neither an attribute nor a visibility modifier.
    let mut derives: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') && punct_at(tokens, i + 1, '[') {
            let close = matching_close(tokens, i + 1, tokens.len()).unwrap_or(tokens.len());
            let attr = &tokens[i + 2..close];
            if let Some(d) = attr.iter().position(|t| t.is_ident("derive")) {
                let listed = attr[d + 1..].iter().filter(|t| t.kind == TokenKind::Ident);
                derives.extend(listed.map(|t| t.text.clone()));
            }
            i = close + 1;
        } else if t.is_ident("pub") {
            // `pub` or `pub(crate)` / `pub(in path)`.
            i = matching_close(tokens, i + 1, tokens.len()).unwrap_or(i) + 1;
        } else if t.is_ident("struct")
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            // The body opens at the first `{`; a `;` first means a unit
            // or tuple struct with nothing named to list.
            let mut open = i + 2;
            while open < tokens.len() && !tokens[open].is_punct('{') && !tokens[open].is_punct(';') {
                open += 1;
            }
            let (fields, end) = if punct_at(tokens, open, '{') {
                struct_fields(tokens, open)
            } else {
                (Vec::new(), open)
            };
            out.push(Struct {
                name: tokens[i + 1].text.clone(),
                derives: std::mem::take(&mut derives),
                fields,
                is_test: mask[i],
            });
            i = end + 1;
        } else {
            derives.clear();
            i += 1;
        }
    }
    out
}

/// The named fields of the struct body opening at `open`, and the
/// index of the body's closing brace.
fn struct_fields(tokens: &[Token], open: usize) -> (Vec<Field>, usize) {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k < tokens.len() {
        if tokens[k].is_punct('{') {
            depth += 1;
        } else if tokens[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && tokens[k].kind == TokenKind::Ident
            && punct_at(tokens, k + 1, ':')
            // exclude `::` paths
            && !(punct_at(tokens, k + 2, ':') && tokens[k + 1].glues_with(&tokens[k + 2]))
        {
            // Field type: tokens until `,` or closing `}` at depth 1.
            let mut ty = String::new();
            let mut m = k + 2;
            let mut tdepth = 0i32;
            while m < tokens.len() {
                let tm = &tokens[m];
                if tm.is_punct('<') || tm.is_punct('(') || tm.is_punct('[') {
                    tdepth += 1;
                } else if tm.is_punct('>') || tm.is_punct(')') || tm.is_punct(']') {
                    tdepth -= 1;
                } else if (tm.is_punct(',') && tdepth == 0) || (tm.is_punct('}') && tdepth <= 0) {
                    break;
                }
                ty.push_str(&tm.text);
                m += 1;
            }
            fields.push(Field { name: tokens[k].text.clone(), ty, line: tokens[k].line });
            k = m;
            continue;
        }
        k += 1;
    }
    (fields, k)
}

/// Split a parameter-list token slice at top-level commas and extract
/// (pattern name, type) pairs. `self` receivers are skipped.
fn parse_params(toks: &[Token]) -> Vec<Param> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut chunks = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('>') {
            let arrow = idx > 0 && toks[idx - 1].is_punct('-') && toks[idx - 1].glues_with(t);
            if !arrow {
                depth -= 1;
            }
        } else if t.is_punct(',') && depth == 0 {
            chunks.push(&toks[start..idx]);
            start = idx + 1;
        }
    }
    if start < toks.len() {
        chunks.push(&toks[start..]);
    }
    for chunk in chunks {
        if chunk.iter().any(|t| t.is_ident("self")) {
            continue;
        }
        // Pattern = idents before the top-level `:`, type = text after.
        let mut colon = None;
        let mut d = 0i32;
        for (idx, t) in chunk.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                d -= 1;
            } else if t.is_punct(':') && d == 0 {
                // `::` is a path, not the pattern/type separator.
                let double = chunk.get(idx + 1).map(|n| n.is_punct(':') && t.glues_with(n)).unwrap_or(false)
                    || (idx > 0 && chunk[idx - 1].is_punct(':') && chunk[idx - 1].glues_with(t));
                if !double {
                    colon = Some(idx);
                    break;
                }
            }
        }
        let Some(c) = colon else { continue };
        let name: Vec<String> = chunk[..c]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
            .map(|t| t.text.clone())
            .collect();
        if name.is_empty() {
            continue;
        }
        let ty: Vec<String> = chunk[c + 1..].iter().map(|t| t.text.clone()).collect();
        out.push(Param {
            name: name.join("."),
            ty: ty.join(" "),
            line: chunk[0].line,
        });
    }
    out
}

/// Flatten a body token range into a statement list. Statements split
/// at top-level `;`, and `{`/`}` emit BlockOpen/BlockClose markers
/// (the text before a `{` becomes its own header statement, so `match
/// guard.get(..) {` is visible as a statement that *opens* a block).
fn parse_stmts(tokens: &[Token], body: (usize, usize)) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut cur = body.0;
    let mut paren_depth = 0i32;
    let mut k = body.0;

    let emit = |out: &mut Vec<Stmt>, kind_hint: Option<StmtKind>, s: usize, e: usize| {
        if e <= s {
            return;
        }
        let toks = &tokens[s..e];
        let mut kind = StmtKind::Expr;
        let mut pats = Vec::new();
        let mut init = (e, e);
        // A top-level `let` (also matches `if let` / `while let` /
        // `let .. else` headers — the dataflow rules want those too).
        let mut d = 0i32;
        let mut let_at = None;
        for (idx, t) in toks.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                d -= 1;
            } else if t.is_ident("let") && d == 0 {
                let_at = Some(idx);
                break;
            }
        }
        if let Some(l) = let_at {
            // Find the top-level `=` after the pattern.
            let mut d = 0i32;
            let mut eq = None;
            for idx in l + 1..toks.len() {
                let t = &toks[idx];
                if t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    d -= 1;
                } else if t.is_punct('=') && d == 0 {
                    let next_glued =
                        toks.get(idx + 1).map(|n| (n.is_punct('=') || n.is_punct('>')) && t.glues_with(n)).unwrap_or(false);
                    let prev_glued = idx > 0
                        && toks[idx - 1].kind == TokenKind::Punct
                        && !toks[idx - 1].is_punct(')')
                        && !toks[idx - 1].is_punct(']')
                        && toks[idx - 1].glues_with(t);
                    if !next_glued && !prev_glued {
                        eq = Some(idx);
                        break;
                    }
                }
            }
            if let Some(eqi) = eq {
                kind = StmtKind::Let;
                pats = toks[l + 1..eqi]
                    .iter()
                    .take_while(|t| !t.is_punct(':') || t.text == "::")
                    .filter(|t| {
                        t.kind == TokenKind::Ident
                            && !t.is_ident("mut")
                            && !t.is_ident("ref")
                            && !t.text.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
                    })
                    .map(|t| t.text.clone())
                    .collect();
                // Initializer: after `=` to the end of the statement
                // (minus a trailing `;`).
                let mut end = toks.len();
                if toks[end - 1].is_punct(';') {
                    end -= 1;
                }
                init = (s + eqi + 1, s + end);
            }
        }
        if let Some(k) = kind_hint {
            kind = k;
        }
        let last = &tokens[e - 1];
        out.push(Stmt {
            kind,
            toks: (s, e),
            pats,
            init,
            line: tokens[s].line,
            span: (tokens[s].start, last.end),
        });
    };

    // Entering a `{` saves and resets the paren depth so `;` inside a
    // closure body nested in a call's parens still splits statements
    // (`thread::spawn(move || { a(); b(); })`).
    let mut depth_stack: Vec<i32> = Vec::new();
    while k < body.1 {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            paren_depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren_depth -= 1;
        } else if t.is_punct('{') {
            emit(&mut out, None, cur, k);
            out.push(Stmt {
                kind: StmtKind::BlockOpen,
                toks: (k, k + 1),
                pats: Vec::new(),
                init: (k + 1, k + 1),
                line: t.line,
                span: (t.start, t.end),
            });
            depth_stack.push(paren_depth);
            paren_depth = 0;
            cur = k + 1;
            k += 1;
            continue;
        } else if t.is_punct('}') {
            emit(&mut out, None, cur, k);
            out.push(Stmt {
                kind: StmtKind::BlockClose,
                toks: (k, k + 1),
                pats: Vec::new(),
                init: (k + 1, k + 1),
                line: t.line,
                span: (t.start, t.end),
            });
            paren_depth = depth_stack.pop().unwrap_or(0);
            cur = k + 1;
            k += 1;
            continue;
        } else if t.is_punct(';') && paren_depth <= 0 {
            emit(&mut out, None, cur, k + 1);
            cur = k + 1;
            k += 1;
            continue;
        }
        k += 1;
    }
    emit(&mut out, None, cur, body.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_source(src).expect("parse")
    }

    #[test]
    fn finds_functions_with_signatures() {
        let p = parse(
            "fn plain(a: u8, b: &str) -> u32 { 0 }\n\
             impl Foo {\n    pub fn method<T: Clone>(&self, x: Vec<T>) -> Result<(), E> { Ok(()) }\n}\n",
        );
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].name, "plain");
        assert_eq!(p.functions[0].params.len(), 2);
        assert_eq!(p.functions[0].params[0].name, "a");
        assert_eq!(p.functions[0].params[1].ty, "& str");
        assert_eq!(p.functions[0].ret, "u32");
        assert_eq!(p.functions[1].name, "method");
        assert_eq!(p.functions[1].params.len(), 1, "{:?}", p.functions[1].params);
        assert_eq!(p.functions[1].params[0].name, "x");
        assert!(p.functions[1].ret.contains("Result"));
    }

    #[test]
    fn statements_split_and_classify() {
        let p = parse(
            "fn f() {\n    let x = 1;\n    let (a, b) = pair();\n    call(x);\n    if let Some(v) = opt {\n        use_it(v);\n    }\n}\n",
        );
        let f = &p.functions[0];
        let lets: Vec<_> = f.stmts.iter().filter(|s| s.kind == StmtKind::Let).collect();
        assert_eq!(lets.len(), 3, "{:#?}", f.stmts);
        assert_eq!(lets[0].pats, vec!["x"]);
        assert_eq!(lets[1].pats, vec!["a", "b"]);
        assert_eq!(lets[2].pats, vec!["v"]); // Some filtered (uppercase)
        assert!(f.stmts.iter().any(|s| s.kind == StmtKind::BlockOpen));
    }

    #[test]
    fn spans_roundtrip() {
        let src = "fn f(q: u8) -> u8 {\n    let y = q + 1;\n    y\n}\n";
        let p = parse(src);
        let f = &p.functions[0];
        let text = &src[f.span.0..f.span.1];
        assert!(text.starts_with("fn f"), "{text}");
        assert!(text.ends_with('}'), "{text}");
        for s in &f.stmts {
            let slice = &src[s.span.0..s.span.1];
            assert!(!slice.is_empty());
        }
    }

    #[test]
    fn test_functions_are_marked() {
        let p = parse("#[test]\nfn t() { assert!(true); }\nfn prod() {}\n");
        assert!(p.functions[0].is_test);
        assert!(!p.functions[1].is_test);
    }

    #[test]
    fn fn_pointer_types_are_not_functions() {
        let p = parse("fn real(cb: fn(u8) -> u8) -> u8 { cb(1) }\n");
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "real");
    }

    #[test]
    fn unbalanced_body_is_an_error() {
        assert!(parse_source("fn broken() { let x = 1;").is_err());
    }

    #[test]
    fn impl_trait_is_tagged() {
        let p = parse(
            "impl<C: Transport> Service<C> for MyService {\n\
                 fn handle(&self, conn: C) -> Outcome { Outcome::Ok }\n\
             }\n\
             impl MyService {\n    fn helper(&self) {}\n}\n\
             impl fmt::Display for MyService {\n\
                 fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n\
             }\n\
             fn free() -> impl Iterator<Item = u8> { std::iter::empty() }\n",
        );
        let by_name = |n: &str| p.functions.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("handle").impl_trait.as_deref(), Some("Service"));
        assert_eq!(by_name("helper").impl_trait, None);
        assert_eq!(by_name("fmt").impl_trait.as_deref(), Some("Display"));
        assert_eq!(by_name("free").impl_trait, None);
    }

    #[test]
    fn structs_carry_derives_and_named_fields() {
        let p = parse(
            "/// Docs.\n#[derive(Clone, Debug)]\n#[repr(C)]\npub(crate) struct Creds<'a> {\n    \
                 pub user: &'a str,\n    passphrase: Secret<String>,\n    tags: Vec<(String, u8)>,\n}\n\
             #[derive(Debug)]\nenum E { A }\nstruct Plain { n: std::num::NonZeroU8 }\n\
             #[derive(PartialEq)]\nstruct Wrapper(Vec<u8>);\n\
             #[cfg(test)]\nmod tests {\n    #[derive(Debug)]\n    struct T { x: u8 }\n}\n",
        );
        let shape: Vec<String> = p
            .structs
            .iter()
            .map(|s| {
                let fields: Vec<String> =
                    s.fields.iter().map(|f| format!("{}: {} @{}", f.name, f.ty, f.line)).collect();
                format!("{} {:?} {:?} test={}", s.name, s.derives, fields, s.is_test)
            })
            .collect();
        assert_eq!(
            shape,
            [
                r#"Creds ["Clone", "Debug"] ["user: &'astr @5", "passphrase: Secret<String> @6", "tags: Vec<(String,u8)> @7"] test=false"#,
                // The enum's derive does not leak onto the next struct.
                r#"Plain [] ["n: std::num::NonZeroU8 @11"] test=false"#,
                r#"Wrapper ["PartialEq"] [] test=false"#,
                r#"T ["Debug"] ["x: u8 @17"] test=true"#,
            ]
        );
    }

    #[test]
    fn loop_bodies_are_annotated() {
        let p = parse(
            "fn straight(x: u8) -> u8 { x + 1 }\n\
             fn looped(xs: &[u8]) -> u8 {\n    let mut s = 0;\n    for x in xs { s += x; }\n    s\n}\n\
             fn retries(c: &mut Chan) {\n    loop {\n        if c.try_once() { break; }\n    }\n}\n",
        );
        let by_name = |n: &str| p.functions.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("straight").has_loop);
        assert!(by_name("looped").has_loop);
        assert!(by_name("retries").has_loop);
    }

    #[test]
    fn compound_assign_is_not_let_eq() {
        let p = parse("fn f() { let x = a <= b; let y = c == d; }\n");
        let lets: Vec<_> = p.functions[0].stmts.iter().filter(|s| s.kind == StmtKind::Let).collect();
        assert_eq!(lets.len(), 2);
        assert_eq!(lets[0].pats, vec!["x"]);
        assert_eq!(lets[1].pats, vec!["y"]);
    }
}
