//! PBKDF2 (RFC 2898) with HMAC-SHA256.
//!
//! The MyProxy repository encrypts every credential it holds with a key
//! derived from the owner's pass phrase (paper §5.1), so an intruder who
//! dumps the repository host still has to brute-force each pass phrase.
//! The iteration count is the published cost knob (`crypto.pbkdf2_ms`
//! in `benchmark/` measures it at each profile's setting).

use crate::hmac::HmacSha256;

/// Default iteration count for credential-store keys.
pub const DEFAULT_ITERATIONS: u32 = 10_000;

/// Derive `out.len()` bytes from `password` and `salt`.
pub fn pbkdf2_hmac_sha256(password: &[u8], salt: &[u8], iterations: u32, out: &mut [u8]) {
    assert!(iterations >= 1, "pbkdf2: at least one iteration");
    let mut block_index = 1u32;
    for chunk in out.chunks_mut(32) {
        let mut mac = HmacSha256::new(password);
        mac.update(salt);
        mac.update(&block_index.to_be_bytes());
        let mut u = mac.finalize();
        let mut t = u;
        for _ in 1..iterations {
            u = HmacSha256::mac(password, &u);
            for (ti, ui) in t.iter_mut().zip(u.iter()) {
                *ti ^= ui;
            }
        }
        chunk.copy_from_slice(&t[..chunk.len()]);
        block_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc7914_style_vector_1_iter() {
        // Published PBKDF2-HMAC-SHA256 vector (RFC 7914 §11):
        // P="passwd", S="salt", c=1, dkLen=64.
        let mut out = [0u8; 64];
        pbkdf2_hmac_sha256(b"passwd", b"salt", 1, &mut out);
        assert_eq!(
            hex(&out),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc\
             49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
        );
    }

    #[test]
    fn rfc7914_style_vector_80000_iter() {
        let mut out = [0u8; 64];
        pbkdf2_hmac_sha256(b"Password", b"NaCl", 80000, &mut out);
        assert_eq!(
            hex(&out),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56\
             a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"
        );
    }

    #[test]
    fn iteration_count_changes_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        pbkdf2_hmac_sha256(b"pw", b"salt", 1, &mut a);
        pbkdf2_hmac_sha256(b"pw", b"salt", 2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn salt_changes_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        pbkdf2_hmac_sha256(b"pw", b"salt1", 10, &mut a);
        pbkdf2_hmac_sha256(b"pw", b"salt2", 10, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn non_block_multiple_output_length() {
        let mut out = [0u8; 45];
        pbkdf2_hmac_sha256(b"pw", b"salt", 3, &mut out);
        // Prefix property: first 32 bytes match a 32-byte derivation.
        let mut short = [0u8; 32];
        pbkdf2_hmac_sha256(b"pw", b"salt", 3, &mut short);
        assert_eq!(&out[..32], &short);
    }
}
