//! A small purpose-built Rust lexer: enough structure to lint with, no
//! syn/proc-macro dependency (consistent with the workspace's
//! from-scratch ethos).
//!
//! It is string-, char-, raw-string- and comment-aware, tracks line
//! numbers, and separates comments out of the token stream (rules read
//! them for `lint:allow` annotations). It does **not** parse: rules
//! work on the token stream plus light structural passes (brace
//! matching for test-region detection).

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `passphrase`, ...).
    Ident,
    /// Lifetime (`'a`) — kept distinct from char literals.
    Lifetime,
    /// Integer or float literal.
    Number,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Single punctuation character (`.`, `(`, `=`, ...). Multi-char
    /// operators appear as adjacent punct tokens; rules that care
    /// (e.g. `==`) join them via [`Token::glues_with`].
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// The token text. For `Str`/`Char` this is the literal *contents
    /// only* (no quotes), so secret-pattern rules never fire on quoted
    /// prose; for everything else it is the exact source text.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Byte offset of the token's first character (for adjacency checks).
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// True if `next` starts exactly where `self` ends — i.e. the two
    /// puncts form one operator in the source (`==`, `!=`, `..`).
    pub fn glues_with(&self, next: &Token) -> bool {
        self.end == next.start
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.chars().next() == Some(c)
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// Is the token at `i` the punctuation `c`?
pub(crate) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// The delimiter closing the `(`, `[` or `{` at `open`, looking no
/// further than `limit` (exclusive). Only the opening token's own kind
/// of bracket is counted.
pub(crate) fn matching_close(toks: &[Token], open: usize, limit: usize) -> Option<usize> {
    let (o, c) = match toks.get(open)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(limit).skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// A comment, for `lint:allow` annotation parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//`, `/*`, `*/` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// True if the comment is the first non-whitespace thing on its
    /// line (a standalone annotation applies to the *next* line).
    pub own_line: bool,
}

/// Full lex result.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenize Rust source. Unterminated constructs are tolerated (the
/// rest of the file becomes one token) — the linter must never panic on
/// weird input, that would be ironic.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_content = false;

    macro_rules! push_tok {
        ($kind:expr, $text:expr, $line:expr, $start:expr, $end:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
                start: $start,
                end: $end,
            });
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;

        if c == '\n' {
            line += 1;
            line_has_content = false;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // Line comment (includes doc comments).
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let start_line = line;
            let own_line = !line_has_content;
            let mut j = i + 2;
            while j < bytes.len() && bytes[j] != b'\n' {
                j += 1;
            }
            out.comments.push(Comment {
                text: src[i + 2..j].to_string(),
                line: start_line,
                own_line,
            });
            i = j;
            continue;
        }

        // Block comment (nested).
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let own_line = !line_has_content;
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            let text_end = j.saturating_sub(2).max(i + 2);
            out.comments.push(Comment {
                text: src[i + 2..text_end.min(src.len())].to_string(),
                line: start_line,
                own_line,
            });
            line_has_content = true;
            i = j;
            continue;
        }

        // Raw strings: r"..." / r#"..."# / br#"..."# (any # count).
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut is_raw = false;
            if bytes[j] == b'b' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < bytes.len() && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'"' {
                    is_raw = true;
                    // Scan to closing quote + same number of hashes.
                    let content_start = k + 1;
                    let mut m = content_start;
                    let start_line = line;
                    'raw: while m < bytes.len() {
                        if bytes[m] == b'\n' {
                            line += 1;
                        }
                        if bytes[m] == b'"' {
                            let mut h = 0usize;
                            while h < hashes && bytes.get(m + 1 + h) == Some(&b'#') {
                                h += 1;
                            }
                            if h == hashes {
                                push_tok!(
                                    TokenKind::Str,
                                    src[content_start..m].to_string(),
                                    start_line,
                                    i,
                                    m + 1 + hashes
                                );
                                i = m + 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    if m >= bytes.len() {
                        // Unterminated: swallow the rest.
                        push_tok!(
                            TokenKind::Str,
                            src[content_start..].to_string(),
                            start_line,
                            i,
                            bytes.len()
                        );
                        i = bytes.len();
                    }
                }
            }
            if is_raw {
                line_has_content = true;
                continue;
            }
            // fall through: plain identifier starting with r/b, or b"...".
        }

        // Byte string b"..." (cooked).
        if c == 'b' && bytes.get(i + 1) == Some(&b'"') {
            let (text, j, nl) = scan_cooked_string(src, i + 1);
            push_tok!(TokenKind::Str, text, line, i, j);
            line += nl;
            line_has_content = true;
            i = j;
            continue;
        }

        // Byte char b'x'.
        if c == 'b' && bytes.get(i + 1) == Some(&b'\'') {
            let (text, j) = scan_char(src, i + 1);
            push_tok!(TokenKind::Char, text, line, i, j);
            line_has_content = true;
            i = j;
            continue;
        }

        // String literal.
        if c == '"' {
            let (text, j, nl) = scan_cooked_string(src, i);
            push_tok!(TokenKind::Str, text, line, i, j);
            line += nl;
            line_has_content = true;
            i = j;
            continue;
        }

        // Char literal vs lifetime. A lifetime is 'ident NOT followed by
        // a closing quote; a char literal always closes with '.
        if c == '\'' {
            // Look ahead: 'x' or '\n' style?
            let is_char = if bytes.get(i + 1) == Some(&b'\\') {
                true
            } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                // Any single byte between quotes is a char — covers
                // punctuation chars like '"' and '{' that the identifier
                // scan below would never close.
                true
            } else {
                // 'a' → char; 'a  (no close) → lifetime; '' is invalid.
                let mut k = i + 1;
                while k < bytes.len()
                    && (bytes[k] as char == '_'
                        || (bytes[k] as char).is_alphanumeric()
                        || bytes[k] >= 0x80)
                {
                    k += 1;
                }
                bytes.get(k) == Some(&b'\'') && k > i + 1
            };
            if is_char {
                let (text, j) = scan_char(src, i);
                push_tok!(TokenKind::Char, text, line, i, j);
            } else {
                let mut k = i + 1;
                while k < bytes.len()
                    && ((bytes[k] as char).is_alphanumeric() || bytes[k] == b'_')
                {
                    k += 1;
                }
                push_tok!(TokenKind::Lifetime, src[i..k].to_string(), line, i, k);
                i = k;
                line_has_content = true;
                continue;
            }
            // char path:
            let last = out.tokens.last().map(|t| t.end).unwrap_or(i + 1);
            line_has_content = true;
            i = last;
            continue;
        }

        // Identifier / keyword.
        if c == '_' || c.is_ascii_alphabetic() || bytes[i] >= 0x80 {
            let mut j = i + 1;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric()
                    || bytes[j] == b'_'
                    || bytes[j] >= 0x80)
            {
                j += 1;
            }
            push_tok!(TokenKind::Ident, src[i..j].to_string(), line, i, j);
            line_has_content = true;
            i = j;
            continue;
        }

        // Number literal (decimal, hex, octal, binary, with suffixes).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric()
                    || bytes[j] == b'_'
                    || bytes[j] == b'.')
            {
                // Stop a range `0..n` from being eaten as a float.
                if bytes[j] == b'.' && bytes.get(j + 1) == Some(&b'.') {
                    break;
                }
                j += 1;
            }
            push_tok!(TokenKind::Number, src[i..j].to_string(), line, i, j);
            line_has_content = true;
            i = j;
            continue;
        }

        // Anything else: single punctuation char.
        push_tok!(TokenKind::Punct, c.to_string(), line, i, i + 1);
        line_has_content = true;
        i += 1;
    }

    out
}

/// Scan a cooked (escape-processing) string starting at the opening
/// quote; returns (contents, index past closing quote, newlines seen).
fn scan_cooked_string(src: &str, quote_at: usize) -> (String, usize, u32) {
    let bytes = src.as_bytes();
    let mut j = quote_at + 1;
    let mut newlines = 0u32;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => {
                // A `\` line continuation still ends the line.
                if bytes.get(j + 1) == Some(&b'\n') {
                    newlines += 1;
                }
                j += 2;
            }
            b'"' => {
                return (src[quote_at + 1..j].to_string(), j + 1, newlines);
            }
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (src[quote_at + 1..].to_string(), bytes.len(), newlines)
}

/// Scan a char literal starting at the opening quote; returns
/// (contents, index past closing quote).
fn scan_char(src: &str, quote_at: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut j = quote_at + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\'' => return (src[quote_at + 1..j].to_string(), j + 1),
            _ => j += 1,
        }
    }
    (src[quote_at + 1..].to_string(), bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let l = lex("fn main() { x.unwrap(); }");
        assert_eq!(
            idents("fn main() { x.unwrap(); }"),
            vec!["fn", "main", "x", "unwrap"]
        );
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn strings_do_not_leak_idents() {
        // "unwrap" inside a string literal must not appear as an Ident.
        assert_eq!(idents(r#"let s = "please unwrap() me";"#), vec!["let", "s"]);
    }

    #[test]
    fn comments_are_separated() {
        let l = lex("// hello\nlet x = 1; // trailing\n/* block\nspans */ let y = 2;");
        assert_eq!(l.comments.len(), 3);
        assert!(l.comments[0].own_line);
        assert!(!l.comments[1].own_line);
        assert_eq!(l.comments[0].text.trim(), "hello");
        assert_eq!(l.comments[1].line, 2);
        // Idents from code only.
        assert_eq!(idents("// unwrap\nlet x = 1;"), vec!["let", "x"]);
    }

    #[test]
    fn raw_strings_and_hashes() {
        let l = lex(r####"let p = r#"a "quoted" unwrap()"#; let q = 1;"####);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("quoted"));
        assert_eq!(idents(r####"let p = r#"x unwrap()"#;"####), vec!["let", "p"]);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn line_numbers_track_strings_and_comments() {
        let src = "let a = \"one\ntwo\";\n/* x\ny */\nlet b = 1;";
        let l = lex(src);
        let b_tok = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 5);
    }

    #[test]
    fn glued_operators() {
        let l = lex("a == b != c .. d");
        let puncts: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .collect();
        assert!(puncts[0].glues_with(puncts[1])); // ==
        assert!(puncts[2].glues_with(puncts[3])); // !=
        assert!(!puncts[1].glues_with(puncts[2])); // b between
    }

    #[test]
    fn never_panics_on_garbage() {
        lex("\"unterminated");
        lex("r#\"unterminated");
        lex("'u");
        lex("/* unterminated");
        lex("b'");
        lex("\u{1F600} emoji idents \u{1F600}");
    }
}
