//! Facade crate for the MyProxy reproduction (HPDC 2001).
//!
//! Re-exports every layer of the stack and provides [`testkit`], the
//! fully wired simulated Grid used by the integration tests and the
//! examples (`cargo run --example quickstart`).
//!
//! Layers, bottom-up:
//!
//! * [`bignum`] — arbitrary-precision arithmetic
//! * [`crypto`] — SHA-1/256, HMAC, DRBG, PBKDF2, AES-CTR, RSA, base64
//! * [`asn1`] — DER
//! * [`x509`] — certificates + the GSI proxy-certificate profile
//! * [`gsi`] — credentials, secure channel, delegation, ACLs, gridmap
//! * [`myproxy`] — **the paper's contribution**: the online credential
//!   repository (server + clients + extensions)
//! * [`gram`] — simulated Grid resources (job manager, mass storage)
//! * [`portal`] — the Grid portal, HTTP(S)-sim and browser simulation
//! * [`obs`] — metrics registry, span timing and the scrape formats
//!   shared by all of the above

pub use mp_asn1 as asn1;
pub use mp_obs as obs;
pub use mp_bignum as bignum;
pub use mp_crypto as crypto;
pub use mp_gram as gram;
pub use mp_gsi as gsi;
pub use mp_myproxy as myproxy;
pub use mp_portal as portal;
pub use mp_x509 as x509;

pub mod testkit;
