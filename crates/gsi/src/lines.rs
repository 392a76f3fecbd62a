//! The one `KEY=VALUE` line-block codec.
//!
//! MYPROXYv2 requests and responses, the GRAM job-manager and storage
//! messages, and the `MYPROXY-STORE-V1` entry files (which are also the
//! journal's Upsert payload) are all the same thing: a block of
//! `key=value` lines. This module is the only place that splits or
//! joins them, so there is one answer to "what if a value contains a
//! newline": [`check`], [`push`] and [`render`] return a
//! [`FramingError`], and the line never reaches the wire or the disk.
//!
//! Framing rule: a key holds no `=` and no newline, a value holds no
//! newline (values may hold `=` — base64, tag syntax). Parsing is the
//! tolerant inverse the real MYPROXYv2 clients need: blank lines are
//! skipped, whitespace before a key is dropped, and one trailing NUL on
//! the block (the C client's string terminator) is ignored.

/// A pair that cannot be rendered as a line, or a line that is not a
/// pair. The message names the key (escaped) and never the value, so it
/// is safe to log and is itself always a single line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramingError(String);

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FramingError {}

/// The framing rule, for one pair.
pub fn check(key: &str, value: &str) -> Result<(), FramingError> {
    if key.contains('\n') || value.contains('\n') {
        return Err(FramingError(format!(
            "field {} contains a newline and cannot be framed",
            key.escape_debug()
        )));
    }
    if key.contains('=') {
        return Err(FramingError(format!(
            "field key {} contains '=' and cannot be framed",
            key.escape_debug()
        )));
    }
    Ok(())
}

/// Append `key=value\n` to `out`, or say why it cannot be framed.
pub fn push(out: &mut String, key: &str, value: &str) -> Result<(), FramingError> {
    check(key, value)?;
    out.push_str(key);
    out.push('=');
    out.push_str(value);
    out.push('\n');
    Ok(())
}

/// Render `pairs` as a block, one [`push`] per pair.
pub fn render<K: AsRef<str>, V: AsRef<str>>(
    pairs: impl IntoIterator<Item = (K, V)>,
) -> Result<String, FramingError> {
    let mut out = String::new();
    for (key, value) in pairs {
        push(&mut out, key.as_ref(), value.as_ref())?;
    }
    Ok(out)
}

/// The pairs of a block, in order. A non-blank line without `=` yields
/// an error in its place; callers stop at the first one.
pub fn parse(text: &str) -> impl Iterator<Item = Result<(&str, &str), FramingError>> {
    text.strip_suffix('\0')
        .unwrap_or(text)
        .lines()
        .map(str::trim_start)
        .filter(|line| !line.is_empty())
        .map(|line| {
            line.split_once('=')
                .ok_or_else(|| FramingError("malformed line: no '=' separator".into()))
        })
}
