//! The `KEY=VALUE` message of the job-manager and storage protocols:
//! the MyProxy line block (`mp_gsi::lines`) without the version header.

use crate::GramError;
use mp_gsi::lines;
use std::collections::BTreeMap;

/// An ordered key/value message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Kv {
    fields: BTreeMap<String, String>,
}

impl Kv {
    /// Empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a field. Infallible; `to_text` refuses what cannot be framed.
    pub fn set(mut self, key: &str, value: &str) -> Self {
        self.fields.insert(key.to_string(), value.to_string());
        self
    }

    /// Read a field.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Required field.
    pub fn require(&self, key: &str) -> Result<&str, GramError> {
        self.get(key).ok_or_else(|| GramError::Protocol(format!("missing field {key}")))
    }

    /// u64 field with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, GramError> {
        let Some(v) = self.get(key) else { return Ok(default) };
        v.parse().map_err(|_| GramError::Protocol(format!("field {key} not numeric")))
    }

    /// Serialize, or say which field cannot be framed.
    pub fn to_text(&self) -> Result<String, GramError> {
        lines::render(&self.fields).map_err(|e| GramError::Protocol(e.to_string()))
    }

    /// Parse.
    pub fn from_text(text: &str) -> Result<Self, GramError> {
        let mut kv = Kv::new();
        for pair in lines::parse(text) {
            let (k, v) = pair.map_err(|e| GramError::Protocol(e.to_string()))?;
            kv = kv.set(k, v);
        }
        Ok(kv)
    }

    /// Parse from channel bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GramError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| GramError::Protocol("message not UTF-8".into()))?;
        Self::from_text(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let kv = Kv::new().set("COMMAND", "SUBMIT").set("TICKS", "5");
        let back = Kv::from_text(&kv.to_text().unwrap()).unwrap();
        assert_eq!(back, kv);
        assert_eq!(back.require("COMMAND").unwrap(), "SUBMIT");
        assert_eq!(back.get_u64("TICKS", 0).unwrap(), 5);
        assert_eq!(back.get_u64("MISSING", 7).unwrap(), 7);
    }

    #[test]
    fn errors() {
        assert!(Kv::from_text("garbage-without-equals").is_err());
        let kv = Kv::new();
        assert!(kv.require("X").is_err());
        let kv = Kv::new().set("N", "abc");
        assert!(kv.get_u64("N", 0).is_err());
        // A value that would inject a line is a typed error at render
        // time, not a panic in the pool worker that built it.
        let kv = Kv::new().set("OUTPUT", "x\nSTATUS=OK");
        assert!(matches!(kv.to_text(), Err(GramError::Protocol(_))));
    }
}
