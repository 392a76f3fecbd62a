//! Length-framed records, plaintext and sealed.
//!
//! The plaintext frames carry the handshake; after key agreement the
//! [`SealedRecords`] layer gives the confidentiality + integrity +
//! anti-replay properties SSL gives GSI (paper §2.2), via AES-CTR +
//! HMAC-SHA256 with per-direction keys and sequence numbers.

use crate::{GsiError, Result};
use mp_crypto::ctr::KeyedBox;
use std::io::{Read, Write};

/// Cap on any record (handshake or data). Certificates and MyProxy
/// payloads are small; this bounds a hostile peer.
pub const MAX_RECORD_LEN: usize = 4 << 20;

/// The length of one frame's payload, known to fit under
/// [`MAX_RECORD_LEN`]. The field is private and [`FrameLen::decode`]
/// and [`FrameLen::of`] are the only constructors, so `read_frame`'s
/// allocation cannot be sized from a length nobody bound-checked: the
/// compiler holds what mp-lint's retired R12 taint rule used to trace.
///
/// ```
/// use mp_gsi::record::FrameLen;
/// let len = FrameLen::decode([0, 0, 0, 5]).unwrap();
/// assert_eq!((len.get(), len.prefix()), (5, [0, 0, 0, 5]));
/// assert!(FrameLen::decode([0xff; 4]).is_err());
/// ```
///
/// A bare integer is not a frame length outside this module:
///
/// ```compile_fail
/// let len = mp_gsi::record::FrameLen(5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLen(u32);

impl FrameLen {
    /// Decode a wire prefix, bound-checked *while it is still a `u32`*,
    /// before any widening cast or allocation sees it.
    pub fn decode(prefix: [u8; 4]) -> Result<Self> {
        let wire = u32::from_be_bytes(prefix);
        if wire as u64 > MAX_RECORD_LEN as u64 {
            return Err(GsiError::Protocol("incoming record too large".into()));
        }
        Ok(FrameLen(wire))
    }

    /// The length of an outgoing payload.
    pub fn of(payload: &[u8]) -> Result<Self> {
        match u32::try_from(payload.len()) {
            Ok(len) if payload.len() <= MAX_RECORD_LEN => Ok(FrameLen(len)),
            _ => Err(GsiError::Protocol("outgoing record too large".into())),
        }
    }

    /// The payload length in bytes.
    pub fn get(self) -> usize {
        self.0 as usize
    }

    /// The four bytes that precede the payload on the wire.
    pub fn prefix(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

/// Write one `u32`-length-prefixed frame.
///
/// Prefix and payload leave in one `write_all`: two writes per frame
/// are the small-write-then-wait pattern Nagle's algorithm holds back
/// until the peer's delayed ACK, ~40 ms per frame on a TCP socket.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    let prefix = FrameLen::of(payload)?.prefix();
    w.write_all(&[&prefix[..], payload].concat())?;
    w.flush()?;
    Ok(())
}

/// Read one frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; FrameLen::decode(prefix)?.get()];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Directional key material derived by the handshake.
#[derive(Clone)]
pub struct DirectionKeys {
    /// AES-256 key.
    pub enc: [u8; 32],
    /// HMAC-SHA256 key.
    pub mac: [u8; 32],
}

/// Sealing/opening of records for one side of a channel.
///
/// Each record is sealed with a nonce derived from the direction label
/// and a monotonically increasing sequence number, and the sequence
/// number is bound into the MAC (as AAD) — so replayed, reordered or
/// cross-direction-reflected records all fail to open.
pub struct SealedRecords {
    send_keys: DirectionKeys,
    recv_keys: DirectionKeys,
    send_seq: u64,
    recv_seq: u64,
    send_label: u8,
    recv_label: u8,
}

impl SealedRecords {
    /// Build from handshake keys. `is_client` picks which direction is
    /// which.
    pub fn new(client_keys: DirectionKeys, server_keys: DirectionKeys, is_client: bool) -> Self {
        let (send_keys, recv_keys, send_label, recv_label) = if is_client {
            (client_keys, server_keys, b'C', b'S')
        } else {
            (server_keys, client_keys, b'S', b'C')
        };
        SealedRecords { send_keys, recv_keys, send_seq: 0, recv_seq: 0, send_label, recv_label }
    }

    fn nonce(label: u8, seq: u64) -> [u8; 16] {
        let mut n = [0u8; 16];
        n[0] = label;
        n[8..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Seal and send one record.
    pub fn send<W: Write>(&mut self, w: &mut W, plaintext: &[u8]) -> Result<()> {
        let nonce = Self::nonce(self.send_label, self.send_seq);
        let aad = self.send_seq.to_be_bytes();
        let sealed = KeyedBox::seal(&self.send_keys.enc, &self.send_keys.mac, &nonce, plaintext, &aad);
        self.send_seq = self
            .send_seq
            .checked_add(1)
            .ok_or_else(|| GsiError::Protocol("send sequence exhausted".into()))?;
        write_frame(w, &sealed)
    }

    /// Receive and open one record.
    pub fn recv<R: Read>(&mut self, r: &mut R) -> Result<Vec<u8>> {
        let sealed = read_frame(r)?;
        let nonce = Self::nonce(self.recv_label, self.recv_seq);
        let aad = self.recv_seq.to_be_bytes();
        let plaintext = KeyedBox::open(&self.recv_keys.enc, &self.recv_keys.mac, &nonce, &sealed, &aad)
            .map_err(|_| GsiError::Crypto("record MAC verification failed"))?;
        self.recv_seq = self
            .recv_seq
            .checked_add(1)
            .ok_or_else(|| GsiError::Protocol("receive sequence exhausted".into()))?;
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex;

    fn keys(tag: u8) -> DirectionKeys {
        DirectionKeys { enc: [tag; 32], mac: [tag ^ 0xff; 32] }
    }

    fn pair() -> (SealedRecords, SealedRecords) {
        (
            SealedRecords::new(keys(1), keys(2), true),
            SealedRecords::new(keys(1), keys(2), false),
        )
    }

    /// Records every `write` call it receives, whole.
    #[derive(Default)]
    struct CountingWrite {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_roundtrip() {
        let (mut a, mut b) = duplex();
        write_frame(&mut a, b"hello frames").unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), b"hello frames");
    }

    #[test]
    fn one_write_per_frame_carrying_prefix_then_payload() {
        let mut w = CountingWrite::default();
        write_frame(&mut w, b"hello frames").unwrap();
        assert_eq!(w.writes, vec![[&[0, 0, 0, 12][..], b"hello frames"].concat()]);

        let (mut c, mut s) = pair();
        let mut w = CountingWrite::default();
        c.send(&mut w, b"sealed payload").unwrap();
        assert_eq!(w.writes.len(), 1, "a sealed record is one write");
        let frame = &w.writes[0];
        let sealed = &frame[4..];
        assert_eq!(frame[..4], FrameLen::of(sealed).unwrap().prefix());
        let mut cursor = std::io::Cursor::new(frame.clone());
        assert_eq!(s.recv(&mut cursor).unwrap(), b"sealed payload");
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let (mut a, mut b) = duplex();
        a.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        assert!(matches!(read_frame(&mut b), Err(GsiError::Protocol(_))));
    }

    #[test]
    fn record_len_boundary() {
        // Exactly the cap is fine; one past it is rejected while the
        // value is still a u32 — no allocation sees the raw length.
        let decode = |wire: u32| FrameLen::decode(wire.to_be_bytes());
        assert_eq!(decode(MAX_RECORD_LEN as u32).unwrap().get(), MAX_RECORD_LEN);
        assert!(matches!(decode(MAX_RECORD_LEN as u32 + 1), Err(GsiError::Protocol(_))));
        assert!(matches!(decode(u32::MAX), Err(GsiError::Protocol(_))));
        assert_eq!(decode(0).unwrap().get(), 0);
        // The sending side holds the same cap, and the prefix is the
        // big-endian length either way.
        assert_eq!(FrameLen::of(&[0u8; 300]).unwrap().prefix(), [0, 0, 1, 44]);
        assert_eq!(FrameLen::of(&[0u8; 300]).unwrap(), decode(300).unwrap());
        assert!(matches!(
            FrameLen::of(&vec![0u8; MAX_RECORD_LEN + 1]),
            Err(GsiError::Protocol(_))
        ));
    }

    #[test]
    fn adversarial_length_prefix_never_allocates() {
        // A hostile peer advertising a huge frame must be cut off at
        // the length prefix: `read_frame` errors without ever asking
        // for the advertised buffer (the body bytes are absent, so a
        // pre-check allocation would hang or OOM instead of erroring).
        for adv in [MAX_RECORD_LEN as u32 + 1, 1 << 30, u32::MAX] {
            let (mut a, mut b) = duplex();
            a.write_all(&adv.to_be_bytes()).unwrap();
            assert!(
                matches!(read_frame(&mut b), Err(GsiError::Protocol(_))),
                "length {adv} was not rejected"
            );
        }
    }

    #[test]
    fn sealed_roundtrip_both_directions() {
        let (mut c, mut s) = pair();
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"from client").unwrap();
        assert_eq!(s.recv(&mut st).unwrap(), b"from client");
        s.send(&mut st, b"from server").unwrap();
        assert_eq!(c.recv(&mut ct).unwrap(), b"from server");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut c, _s) = pair();
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"TOP-SECRET-PASSPHRASE").unwrap();
        let raw = read_frame(&mut st).unwrap();
        assert!(!raw.windows(21).any(|w| w == b"TOP-SECRET-PASSPHRASE"));
    }

    #[test]
    fn replayed_record_rejected() {
        let (mut c, mut s) = pair();
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"one").unwrap();
        let raw = read_frame(&mut st).unwrap();
        // Deliver it once legitimately...
        let mut replay_buf = Vec::new();
        replay_buf.extend_from_slice(&(raw.len() as u32).to_be_bytes());
        replay_buf.extend_from_slice(&raw);
        let mut cursor = std::io::Cursor::new(replay_buf.clone());
        assert_eq!(s.recv(&mut cursor).unwrap(), b"one");
        // ...then replay: the sequence number has advanced, MAC fails.
        let mut cursor = std::io::Cursor::new(replay_buf);
        assert!(s.recv(&mut cursor).is_err());
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut c, mut s) = pair();
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"payload").unwrap();
        let mut raw = read_frame(&mut st).unwrap();
        raw[0] ^= 1;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(raw.len() as u32).to_be_bytes());
        buf.extend_from_slice(&raw);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(s.recv(&mut cursor).is_err());
    }

    #[test]
    fn reflected_record_rejected() {
        // A record sealed by the client cannot be opened by the client
        // (direction label differs), blocking reflection attacks.
        let (mut c, _s) = pair();
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"to server").unwrap();
        let raw = read_frame(&mut st).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(raw.len() as u32).to_be_bytes());
        buf.extend_from_slice(&raw);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(c.recv(&mut cursor).is_err());
    }

    #[test]
    fn wrong_keys_fail() {
        let mut c = SealedRecords::new(keys(1), keys(2), true);
        let mut s = SealedRecords::new(keys(3), keys(4), false);
        let (mut ct, mut st) = duplex();
        c.send(&mut ct, b"x").unwrap();
        assert!(s.recv(&mut st).is_err());
    }
}
