//! HTTPS-sim: the browser↔portal leg.
//!
//! Paper §5.2: "The portal web server must currently be configured to
//! only allow HTTP connections secured with SSL encryption (HTTPS),
//! since transmitting the name and pass phrase over unencrypted HTTP
//! would allow any intruder to snoop the pass phrase."
//!
//! It is the same SSL GSI uses (§2.2), so it is the same handshake:
//! `mp_gsi::channel` with the client certificate absent — a web browser
//! has no Grid credentials; that gap is the whole reason MyProxy exists
//! (§3.2). The browser validates the portal's certificate and
//! transports a premaster to it, exactly the server-auth-only shape of
//! 2001-era HTTPS. This module is that channel type under its portal
//! name, plus the mapping of its errors into [`PortalError`].

use crate::{PortalError, Result};
use mp_crypto::rsa::RsaPrivateKey;
use mp_gsi::channel::{self, ChannelConfig, ServerAuthChannel};
use mp_gsi::transport::Transport;
use mp_gsi::GsiError;
use mp_x509::{Certificate, Dn};
use rand::Rng;

/// An established HTTPS-sim connection (either side): `send` and `recv`
/// move one message (e.g. a full HTTP request), `transport_ref` reaches
/// the transport to re-arm deadlines after the handshake.
pub type TlsStream<T> = ServerAuthChannel<T>;

/// A channel error as the portal reports it; transport I/O (including
/// deadline timeouts) keeps its [`std::io::Error`] so callers can
/// classify it.
impl From<GsiError> for PortalError {
    fn from(e: GsiError) -> Self {
        match e {
            GsiError::Io(io) => PortalError::Io(io),
            other => PortalError::Tls(other.to_string()),
        }
    }
}

/// Server-side load-shed: consume the ClientHello, then refuse with the
/// channel's BUSY frame instead of a ServerHello. [`connect`] surfaces
/// this to the browser as a distinguishable "server busy" error.
pub fn send_busy<T: Transport>(transport: &mut T, reason: &str) -> Result<()> {
    Ok(channel::send_busy(transport, reason)?)
}

/// Browser side: validate the server chain against `trust_roots` (the
/// browser's CA store) and optionally pin the expected server DN.
pub fn connect<T: Transport, R: Rng + ?Sized>(
    transport: T,
    trust_roots: &[Certificate],
    expected_server: Option<&Dn>,
    rng: &mut R,
    now: u64,
) -> Result<TlsStream<T>> {
    let mut config = ChannelConfig::new(trust_roots.to_vec());
    config.expected_peer = expected_server.cloned();
    Ok(TlsStream::connect(transport, &config, rng, now)?)
}

/// Portal side: present `chain` (leaf first) and `key`.
pub fn accept<T: Transport, R: Rng + ?Sized>(
    transport: T,
    chain: &[Certificate],
    key: &RsaPrivateKey,
    rng: &mut R,
) -> Result<TlsStream<T>> {
    Ok(TlsStream::accept(transport, chain, key, rng)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_gsi::transport::{duplex, Tap};
    use mp_x509::test_util::{test_drbg, test_rsa_key};
    use mp_x509::{CertificateAuthority, Dn};

    fn portal_chain() -> (CertificateAuthority, Vec<Certificate>, &'static RsaPrivateKey) {
        let mut ca = CertificateAuthority::new_root(
            Dn::parse("/O=Grid/CN=CA").unwrap(),
            test_rsa_key(0).clone(),
            0,
            1_000_000,
        )
        .unwrap();
        let key = test_rsa_key(1);
        let dn = Dn::parse("/O=Grid/CN=portal.sdsc.edu").unwrap();
        let cert = ca.issue_end_entity(&dn, key.public_key(), 0, 500_000).unwrap();
        (ca, vec![cert], key)
    }

    #[test]
    fn browser_exchanges_data_with_portal() {
        let (ca, chain, key) = portal_chain();
        let (bt, pt) = duplex();
        let chain2 = chain.clone();
        let server = std::thread::spawn(move || {
            let mut rng = test_drbg("tls server");
            let mut s = accept(pt, &chain2, key, &mut rng).unwrap();
            let req = s.recv().unwrap();
            assert_eq!(req, b"GET /");
            s.send(b"200 OK").unwrap();
        });
        let mut rng = test_drbg("tls client");
        let roots = [ca.certificate().clone()];
        let mut c = connect(bt, &roots, None, &mut rng, 100).unwrap();
        c.send(b"GET /").unwrap();
        assert_eq!(c.recv().unwrap(), b"200 OK");
        server.join().unwrap();
    }

    #[test]
    fn browser_rejects_untrusted_portal() {
        let (_ca, chain, key) = portal_chain();
        let other_ca = CertificateAuthority::new_root(
            Dn::parse("/O=Other/CN=CA").unwrap(),
            test_rsa_key(5).clone(),
            0,
            1_000_000,
        )
        .unwrap();
        let (bt, pt) = duplex();
        std::thread::spawn(move || {
            let mut rng = test_drbg("tls server 2");
            let _ = accept(pt, &chain, key, &mut rng);
        });
        let mut rng = test_drbg("tls client 2");
        let roots = [other_ca.certificate().clone()];
        assert!(matches!(connect(bt, &roots, None, &mut rng, 100), Err(PortalError::Tls(_))));
    }

    #[test]
    fn browser_pins_expected_identity() {
        let (ca, chain, key) = portal_chain();
        let (bt, pt) = duplex();
        std::thread::spawn(move || {
            let mut rng = test_drbg("tls server 3");
            let _ = accept(pt, &chain, key, &mut rng);
        });
        let mut rng = test_drbg("tls client 3");
        let roots = [ca.certificate().clone()];
        let wrong = Dn::parse("/O=Grid/CN=portal.evil.example").unwrap();
        assert!(matches!(
            connect(bt, &roots, Some(&wrong), &mut rng, 100),
            Err(PortalError::Tls(_))
        ));
    }

    #[test]
    fn busy_refusal_reaches_browser() {
        let (ca, _chain, _key) = portal_chain();
        let (bt, mut pt) = duplex();
        let server = std::thread::spawn(move || send_busy(&mut pt, "maintenance"));
        let mut rng = test_drbg("tls busy");
        let roots = [ca.certificate().clone()];
        let Err(err) = connect(bt, &roots, None, &mut rng, 100) else {
            panic!("handshake against a busy server unexpectedly succeeded");
        };
        assert!(err.to_string().contains("server busy: maintenance"), "got: {err}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn wire_hides_payload() {
        let (ca, chain, key) = portal_chain();
        let (bt, pt) = duplex();
        let (bt_tapped, log) = Tap::new(bt);
        let server = std::thread::spawn(move || {
            let mut rng = test_drbg("tls server 4");
            let mut s = accept(pt, &chain, key, &mut rng).unwrap();
            s.recv().unwrap()
        });
        let mut rng = test_drbg("tls client 4");
        let roots = [ca.certificate().clone()];
        let mut c = connect(bt_tapped, &roots, None, &mut rng, 100).unwrap();
        c.send(b"passphrase=super-secret-42").unwrap();
        let got = server.join().unwrap();
        assert_eq!(got, b"passphrase=super-secret-42");
        assert!(!log.lock().contains(b"super-secret-42"));
    }
}
