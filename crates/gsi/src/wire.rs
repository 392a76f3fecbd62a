//! Tiny length-prefixed binary serialization for handshake and
//! delegation messages. Big-endian, explicit lengths, hard caps — no
//! self-describing cleverness.

use crate::GsiError;

/// Maximum length of any single field (certificates are a few KB; this
/// bounds hostile inputs).
pub const MAX_FIELD: usize = 1 << 20;

/// Maximum entries in a byte-string list (a proxy chain is a handful of
/// certificates; enforced symmetrically by writer and reader).
pub const MAX_LIST: usize = 64;

/// Append-only writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(length_prefix(v.len(), MAX_FIELD, "wire field too large"));
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// A list of length-prefixed byte strings.
    pub fn byte_list(&mut self, items: &[Vec<u8>]) -> &mut Self {
        self.u32(length_prefix(items.len(), MAX_LIST, "wire list too long"));
        for item in items {
            self.bytes(item);
        }
        self
    }
}

/// The u32 length prefix for a field or list of `len` entries, capped
/// at the bound the reader enforces for it (`MAX_FIELD` / `MAX_LIST`).
fn length_prefix(len: usize, cap: usize, what: &str) -> u32 {
    match u32::try_from(len) {
        Ok(prefix) if len <= cap => prefix,
        // lint:allow(R1) local invariant, not attacker input: callers only write reader-bounded or locally built fields, so a cap break is a logic error best caught loudly
        _ => panic!("{what}"),
    }
}

/// Consuming reader with strict bounds checking.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GsiError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| GsiError::Protocol("wire message truncated".into()))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| GsiError::Protocol("wire message truncated".into()))?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, GsiError> {
        Ok(self.take(1)?[0])
    }

    /// Big-endian u32.
    pub fn u32(&mut self) -> Result<u32, GsiError> {
        let arr: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| GsiError::Protocol("wire message truncated".into()))?;
        Ok(u32::from_be_bytes(arr))
    }

    /// Big-endian u64.
    pub fn u64(&mut self) -> Result<u64, GsiError> {
        let arr: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| GsiError::Protocol("wire message truncated".into()))?;
        Ok(u64::from_be_bytes(arr))
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], GsiError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD {
            return Err(GsiError::Protocol("wire field exceeds limit".into()));
        }
        self.take(len)
    }

    /// Length-prefixed string.
    pub fn string(&mut self) -> Result<String, GsiError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| GsiError::Protocol("wire string not UTF-8".into()))
    }

    /// List of byte strings.
    pub fn byte_list(&mut self) -> Result<Vec<Vec<u8>>, GsiError> {
        let count = self.u32()? as usize;
        if count > MAX_LIST {
            return Err(GsiError::Protocol("wire list too long".into()));
        }
        (0..count).map(|_| Ok(self.bytes()?.to_vec())).collect()
    }

    /// Error unless fully consumed.
    pub fn finish(&self) -> Result<(), GsiError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(GsiError::Protocol("trailing bytes in wire message".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u32(0xdeadbeef)
            .u64(u64::MAX)
            .bytes(b"hello")
            .string("world")
            .byte_list(&[b"a".to_vec(), b"bb".to_vec()]);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.string().unwrap(), "world");
        assert_eq!(r.byte_list().unwrap(), vec![b"a".to_vec(), b"bb".to_vec()]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..buf.len() - 1]);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u8(1).u8(2);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn writer_caps_sit_exactly_at_the_reader_bounds() {
        let field = vec![0xabu8; MAX_FIELD];
        let mut w = WireWriter::new();
        w.bytes(&field);
        let buf = w.into_bytes();
        assert_eq!(&buf[..4], &[0x00, 0x10, 0x00, 0x00]);
        assert_eq!(WireReader::new(&buf).bytes().unwrap(), &field[..]);

        let list = vec![vec![1u8]; MAX_LIST];
        let mut w = WireWriter::new();
        w.byte_list(&list);
        let buf = w.into_bytes();
        assert_eq!(&buf[..4], &[0, 0, 0, 64]);
        assert_eq!(WireReader::new(&buf).byte_list().unwrap(), list);
    }

    #[test]
    #[should_panic(expected = "wire field too large")]
    fn field_one_past_the_cap_panics() {
        WireWriter::new().bytes(&vec![0u8; MAX_FIELD + 1]);
    }

    #[test]
    #[should_panic(expected = "wire list too long")]
    fn list_one_past_the_cap_panics() {
        WireWriter::new().byte_list(&vec![Vec::new(); MAX_LIST + 1]);
    }

    #[test]
    fn hostile_length_rejected() {
        // Claims a 4GB field.
        let buf = [0xff, 0xff, 0xff, 0xff];
        let mut r = WireReader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn hostile_list_count_rejected() {
        let buf = [0x00, 0x00, 0xff, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(r.byte_list().is_err());
    }
}
