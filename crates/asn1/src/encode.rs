//! DER encoder. Canonical output: minimal length octets, minimal INTEGER
//! contents, sorted SETs are the caller's responsibility (X.509 RDNs here
//! are single-valued, so this never arises).

use crate::{Oid, Tag};
use mp_bignum::BigUint;

/// A push-style DER writer.
#[derive(Default)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Encoder { out: Vec::new() }
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Append a fully-encoded TLV built from raw content bytes.
    pub fn tlv(&mut self, tag: Tag, content: &[u8]) -> &mut Self {
        self.out.push(tag.0);
        write_len(&mut self.out, content.len());
        self.out.extend_from_slice(content);
        self
    }

    /// Append pre-encoded DER (already a complete TLV).
    pub fn raw(&mut self, der: &[u8]) -> &mut Self {
        self.out.extend_from_slice(der);
        self
    }

    /// INTEGER from an unsigned big integer (adds a leading zero octet if
    /// the high bit is set, per DER's two's-complement rule).
    pub fn uint(&mut self, v: &BigUint) -> &mut Self {
        let mut content = v.to_be_bytes();
        if content.is_empty() {
            content.push(0);
        } else if content[0] & 0x80 != 0 {
            content.insert(0, 0);
        }
        self.tlv(Tag::INTEGER, &content)
    }

    /// Small non-negative INTEGER.
    pub fn uint_u64(&mut self, v: u64) -> &mut Self {
        self.uint(&BigUint::from_u64(v))
    }

    /// BOOLEAN (DER: 0xFF for true).
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.tlv(Tag::BOOLEAN, &[if v { 0xff } else { 0x00 }])
    }

    /// NULL.
    pub fn null(&mut self) -> &mut Self {
        self.tlv(Tag::NULL, &[])
    }

    /// OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: &Oid) -> &mut Self {
        self.tlv(Tag::OID, &oid.der_content())
    }

    /// OCTET STRING.
    pub fn octet_string(&mut self, data: &[u8]) -> &mut Self {
        self.tlv(Tag::OCTET_STRING, data)
    }

    /// BIT STRING with zero unused bits (sufficient for keys/signatures).
    pub fn bit_string(&mut self, data: &[u8]) -> &mut Self {
        let mut content = Vec::with_capacity(data.len() + 1);
        content.push(0);
        content.extend_from_slice(data);
        self.tlv(Tag::BIT_STRING, &content)
    }

    /// UTF8String.
    pub fn utf8_string(&mut self, s: &str) -> &mut Self {
        self.tlv(Tag::UTF8_STRING, s.as_bytes())
    }

    /// PrintableString — caller guarantees the restricted charset.
    pub fn printable_string(&mut self, s: &str) -> &mut Self {
        self.tlv(Tag::PRINTABLE_STRING, s.as_bytes())
    }

    /// IA5String.
    pub fn ia5_string(&mut self, s: &str) -> &mut Self {
        self.tlv(Tag::IA5_STRING, s.as_bytes())
    }

    /// UTCTime from unix seconds (valid range 1950..2050, per X.509).
    pub fn utc_time(&mut self, unix_secs: u64) -> &mut Self {
        let s = format_utc_time(unix_secs);
        self.tlv(Tag::UTC_TIME, s.as_bytes())
    }

    /// GeneralizedTime from unix seconds.
    pub fn generalized_time(&mut self, unix_secs: u64) -> &mut Self {
        let s = format_generalized_time(unix_secs);
        self.tlv(Tag::GENERALIZED_TIME, s.as_bytes())
    }

    /// Constructed container: the closure fills a nested encoder whose
    /// output becomes the content of `tag`.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Encoder)) -> &mut Self {
        let mut inner = Encoder::new();
        f(&mut inner);
        self.tlv(tag, &inner.out)
    }

    /// SEQUENCE { ... }.
    pub fn sequence(&mut self, f: impl FnOnce(&mut Encoder)) -> &mut Self {
        self.constructed(Tag::SEQUENCE, f)
    }

    /// SET { ... }.
    pub fn set(&mut self, f: impl FnOnce(&mut Encoder)) -> &mut Self {
        self.constructed(Tag::SET, f)
    }
}

/// DER definite-length octets.
fn write_len(out: &mut Vec<u8>, len: usize) {
    let bytes = len.to_be_bytes();
    if len < 0x80 {
        // DER short form: the length is its own low byte.
        let [.., low] = bytes;
        out.push(low);
    } else {
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let sig = &bytes[skip..];
        let count = u8::try_from(sig.len()).expect("a usize has at most 8 significant bytes");
        out.push(0x80 | count);
        out.extend_from_slice(sig);
    }
}

/// Days-from-civil algorithm (Howard Hinnant), for rendering unix time.
pub(crate) fn civil_from_unix(unix_secs: u64) -> (i64, u32, u32, u32, u32, u32) {
    let days = (unix_secs / 86_400) as i64;
    let secs_of_day = (unix_secs % 86_400) as u32;
    let (h, m, s) = (secs_of_day / 3600, secs_of_day % 3600 / 60, secs_of_day % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m_civ = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m_civ <= 2 { y + 1 } else { y };
    (y, m_civ, d, h, m, s)
}

/// Inverse of [`civil_from_unix`] for parsing.
pub(crate) fn unix_from_civil(y: i64, m: u32, d: u32, hh: u32, mm: u32, ss: u32) -> u64 {
    let y_adj = if m <= 2 { y - 1 } else { y };
    let era = y_adj.div_euclid(400);
    let yoe = y_adj.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    (days * 86_400 + hh as i64 * 3600 + mm as i64 * 60 + ss as i64) as u64
}

fn format_utc_time(unix_secs: u64) -> String {
    let (y, mo, d, h, mi, s) = civil_from_unix(unix_secs);
    debug_assert!((1950..2050).contains(&y), "UTCTime year out of range: {y}");
    format!("{:02}{mo:02}{d:02}{h:02}{mi:02}{s:02}Z", y % 100)
}

fn format_generalized_time(unix_secs: u64) -> String {
    let (y, mo, d, h, mi, s) = civil_from_unix(unix_secs);
    format!("{y:04}{mo:02}{d:02}{h:02}{mi:02}{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_and_long_lengths() {
        let mut e = Encoder::new();
        e.octet_string(&[0u8; 5]);
        assert_eq!(&e.out[..2], &[0x04, 0x05]);

        let mut e = Encoder::new();
        e.octet_string(&[0u8; 200]);
        assert_eq!(&e.out[..3], &[0x04, 0x81, 200]);

        let mut e = Encoder::new();
        e.octet_string(&vec![0u8; 300]);
        assert_eq!(&e.out[..4], &[0x04, 0x82, 0x01, 0x2c]);

        // The short/long form boundary and a two-byte length.
        for (len, expect) in [
            (0x7f, &[0x7f][..]),
            (0x80, &[0x81, 0x80][..]),
            (0xffff, &[0x82, 0xff, 0xff][..]),
        ] {
            let mut out = Vec::new();
            write_len(&mut out, len);
            assert_eq!(out, expect, "length {len:#x}");
        }
    }

    #[test]
    fn integer_minimal_encoding() {
        let mut e = Encoder::new();
        e.uint_u64(0);
        assert_eq!(e.out, vec![0x02, 0x01, 0x00]);

        let mut e = Encoder::new();
        e.uint_u64(127);
        assert_eq!(e.out, vec![0x02, 0x01, 0x7f]);

        // High bit set => leading zero.
        let mut e = Encoder::new();
        e.uint_u64(128);
        assert_eq!(e.out, vec![0x02, 0x02, 0x00, 0x80]);

        let mut e = Encoder::new();
        e.uint_u64(256);
        assert_eq!(e.out, vec![0x02, 0x02, 0x01, 0x00]);
    }

    #[test]
    fn boolean_der_form() {
        let mut e = Encoder::new();
        e.boolean(true).boolean(false);
        assert_eq!(e.out, vec![0x01, 0x01, 0xff, 0x01, 0x01, 0x00]);
    }

    #[test]
    fn nested_sequences() {
        let mut e = Encoder::new();
        e.sequence(|s| {
            s.uint_u64(1);
            s.sequence(|inner| {
                inner.null();
            });
        });
        assert_eq!(e.out, vec![0x30, 0x07, 0x02, 0x01, 0x01, 0x30, 0x02, 0x05, 0x00]);
    }

    #[test]
    fn bit_string_prepends_unused_count() {
        let mut e = Encoder::new();
        e.bit_string(&[0xaa]);
        assert_eq!(e.out, vec![0x03, 0x02, 0x00, 0xaa]);
    }

    #[test]
    fn civil_conversion_roundtrip() {
        for t in [0u64, 1, 86_399, 86_400, 951_782_400, 1_700_000_000, 4_102_444_799] {
            let (y, mo, d, h, mi, s) = civil_from_unix(t);
            assert_eq!(unix_from_civil(y, mo, d, h, mi, s), t, "t={t}");
        }
    }

    #[test]
    fn known_civil_dates() {
        // 2001-08-06 00:00:00 UTC (the paper's HPDC-10 week).
        assert_eq!(civil_from_unix(997_056_000), (2001, 8, 6, 0, 0, 0));
        // Epoch.
        assert_eq!(civil_from_unix(0), (1970, 1, 1, 0, 0, 0));
    }

    #[test]
    fn utc_time_format() {
        let mut e = Encoder::new();
        e.utc_time(997_056_000);
        // 010806000000Z
        assert_eq!(&e.out[2..], b"010806000000Z");
    }

    #[test]
    fn generalized_time_format() {
        let mut e = Encoder::new();
        e.generalized_time(997_056_000);
        assert_eq!(&e.out[2..], b"20010806000000Z");
    }
}
