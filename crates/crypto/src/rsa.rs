//! RSA: key generation, PKCS#1 v1.5 signatures (SHA-256) and encryption.
//!
//! This is the signature algorithm behind every certificate in the PKI
//! substrate and the key-transport algorithm of the GSI handshake. CRT is
//! used for private-key operations (~4x speedup), which matters because
//! every `myproxy-get-delegation` mints and signs a fresh proxy.

use crate::sha256;
use mp_bignum::{gen_prime, BigUint};
use mp_obs::Span;
use rand::Rng;

/// DER prefix of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
    0x05, 0x00, 0x04, 0x20,
];

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the modulus with the required padding.
    MessageTooLong,
    /// Signature or ciphertext failed structural/value checks.
    Invalid,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::Invalid => write!(f, "invalid RSA signature or ciphertext"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key (n, e).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl RsaPublicKey {
    /// Construct from raw components (e.g. parsed from a certificate).
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// Modulus.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// Public exponent.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes (the PKCS#1 block size `k`).
    pub fn size_bytes(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Verify a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        let _span = Span::enter("crypto.rsa.verify");
        let k = self.size_bytes();
        if signature.len() != k {
            return Err(RsaError::Invalid);
        }
        let s = BigUint::from_be_bytes(signature);
        if s >= self.n {
            return Err(RsaError::Invalid);
        }
        let em = s.mod_pow(&self.e, &self.n).to_be_bytes_padded(k);
        let expected = emsa_pkcs1_v15(message, k)?;
        if crate::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(RsaError::Invalid)
        }
    }

    /// RSAES-PKCS1-v1_5 encryption (block type 2) of a short message —
    /// used for key transport in the GSI handshake.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.size_bytes();
        if message.len() + 11 > k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..k - message.len() - 3 {
            // Padding bytes must be nonzero.
            loop {
                let b: u8 = rng.gen();
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(message);
        let m = BigUint::from_be_bytes(&em);
        Ok(m.mod_pow(&self.e, &self.n).to_be_bytes_padded(k))
    }
}

impl RsaPrivateKey {
    /// Generate a fresh key of `bits` modulus size with e = 65537.
    ///
    /// `bits` must be >= 256 (the PKCS#1 framing needs room; real
    /// deployments use 1024+ — tests use small keys for speed, and
    /// `benchmark/` runs 512- and 2048-bit profiles).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let _span = Span::enter("crypto.rsa.keygen");
        assert!(bits >= 256, "RSA modulus below 256 bits cannot frame PKCS#1 blocks");
        assert!(bits.is_multiple_of(2), "modulus bits must be even");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(rng, bits / 2);
            let q = gen_prime(rng, bits / 2);
            if p == q {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub_ref(&one);
            let q1 = q.sub_ref(&one);
            let phi = p1.mul_ref(&q1);
            let Some(d) = e.mod_inverse(&phi) else { continue };
            let n = p.mul_ref(&q);
            debug_assert_eq!(n.bits(), bits);
            let dp = d.rem_ref(&p1);
            let dq = d.rem_ref(&q1);
            let Some(qinv) = q.mod_inverse(&p) else { continue };
            return RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
        }
    }

    /// Reconstruct from stored components (p, q, d and the public key);
    /// CRT values are recomputed.
    pub fn from_components(n: BigUint, e: BigUint, d: BigUint, p: BigUint, q: BigUint) -> Self {
        let one = BigUint::one();
        let dp = d.rem_ref(&p.sub_ref(&one));
        let dq = d.rem_ref(&q.sub_ref(&one));
        let qinv = q.mod_inverse(&p).expect("p, q coprime");
        RsaPrivateKey { public: RsaPublicKey { n, e }, d, p, q, dp, dq, qinv }
    }

    /// The matching public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Private exponent (for serialization).
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// Prime factors (for serialization).
    pub fn primes(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// Raw private-key operation `c^d mod n` via CRT.
    fn private_op(&self, c: &BigUint) -> BigUint {
        let m1 = c.mod_pow(&self.dp, &self.p);
        let m2 = c.mod_pow(&self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p
        let diff = m1.mod_sub(&m2.rem_ref(&self.p), &self.p);
        let h = self.qinv.mul_ref(&diff).rem_ref(&self.p);
        m2.add_ref(&h.mul_ref(&self.q))
    }

    /// Sign `message` with RSASSA-PKCS1-v1_5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let _span = Span::enter("crypto.rsa.sign");
        let k = self.public.size_bytes();
        let em = emsa_pkcs1_v15(message, k)?;
        let m = BigUint::from_be_bytes(&em);
        let s = self.private_op(&m);
        debug_assert_eq!(
            s.mod_pow(&self.public.e, &self.public.n),
            m,
            "CRT signature self-check failed"
        );
        Ok(s.to_be_bytes_padded(k))
    }

    /// RSAES-PKCS1-v1_5 decryption.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.size_bytes();
        if ciphertext.len() != k {
            return Err(RsaError::Invalid);
        }
        let c = BigUint::from_be_bytes(ciphertext);
        if c >= self.public.n {
            return Err(RsaError::Invalid);
        }
        let em = self.private_op(&c).to_be_bytes_padded(k);
        // Parse 00 02 PS 00 M.
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::Invalid);
        }
        let sep = em[2..].iter().position(|&b| b == 0).ok_or(RsaError::Invalid)?;
        if sep < 8 {
            return Err(RsaError::Invalid); // padding string too short
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey({} bits)", self.public.n.bits())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let hash = sha256(message);
    let t_len = SHA256_DIGEST_INFO.len() + hash.len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&hash);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Shared 512-bit test key: generating RSA keys per-test is the slow
    /// part of the suite, and key material is stateless.
    pub(crate) fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
            RsaPrivateKey::generate(&mut rng, 512)
        })
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"delegate me").unwrap();
        key.public_key().verify(b"delegate me", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign(b"message A").unwrap();
        assert_eq!(
            key.public_key().verify(b"message B", &sig),
            Err(RsaError::Invalid)
        );
    }

    #[test]
    fn verify_rejects_bitflipped_signature() {
        let key = test_key();
        let mut sig = key.sign(b"msg").unwrap();
        sig[10] ^= 1;
        assert!(key.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = test_key();
        assert!(key.public_key().verify(b"msg", &[0u8; 3]).is_err());
    }

    #[test]
    fn verify_rejects_signature_geq_modulus() {
        let key = test_key();
        let k = key.public_key().size_bytes();
        let too_big = vec![0xffu8; k];
        assert!(key.public_key().verify(b"msg", &too_big).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ct = key.public_key().encrypt(&mut rng, b"pre-master secret").unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), b"pre-master secret");
    }

    #[test]
    fn encrypt_rejects_oversized_message() {
        let key = test_key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let k = key.public_key().size_bytes();
        let too_long = vec![0u8; k - 10];
        assert_eq!(
            key.public_key().encrypt(&mut rng, &too_long),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn decrypt_rejects_tampered_ciphertext() {
        let key = test_key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut ct = key.public_key().encrypt(&mut rng, b"secret").unwrap();
        // Flip a bit: decryption yields garbage padding with overwhelming
        // probability.
        ct[0] ^= 0x40;
        assert!(key.decrypt(&ct).is_err());
    }

    #[test]
    fn encryption_is_randomized() {
        let key = test_key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c1 = key.public_key().encrypt(&mut rng, b"m").unwrap();
        let c2 = key.public_key().encrypt(&mut rng, b"m").unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn from_components_reconstructs_working_key() {
        let key = test_key();
        let (p, q) = key.primes();
        let rebuilt = RsaPrivateKey::from_components(
            key.public_key().n().clone(),
            key.public_key().e().clone(),
            key.d().clone(),
            p.clone(),
            q.clone(),
        );
        let sig = rebuilt.sign(b"rebuilt").unwrap();
        key.public_key().verify(b"rebuilt", &sig).unwrap();
    }

    #[test]
    fn distinct_keys_do_not_cross_verify() {
        let key_a = test_key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let key_b = RsaPrivateKey::generate(&mut rng, 512);
        let sig = key_a.sign(b"msg").unwrap();
        assert!(key_b.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn debug_does_not_leak_private_material() {
        let key = test_key();
        let dbg = format!("{key:?}");
        assert!(!dbg.contains(&key.d().to_hex()));
    }
}
