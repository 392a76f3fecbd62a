//! Edge-case tests of the secure channel: truncation at every
//! handshake stage, message-type confusion, and mismatched
//! configurations. A broken or malicious peer must produce a clean
//! error on the other side — never a hang, panic, or silent success.

use mp_gsi::channel::ServerAuthChannel;
use mp_gsi::record::{read_frame, write_frame};
use mp_gsi::transport::{duplex, MemStream};
use mp_gsi::wire::WireWriter;
use mp_gsi::{ChannelConfig, Credential, GsiError, SecureChannel};
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{CertificateAuthority, Dn};

struct Pki {
    ca: CertificateAuthority,
    alice: Credential,
    server: Credential,
}

fn pki() -> Pki {
    let mut ca = CertificateAuthority::new_root(
        Dn::parse("/O=Grid/CN=CA").unwrap(),
        test_rsa_key(0).clone(),
        0,
        1_000_000,
    )
    .unwrap();
    let mk = |ca: &mut CertificateAuthority, i: usize, dn: &str| {
        let key = test_rsa_key(i);
        let dn = Dn::parse(dn).unwrap();
        let cert = ca.issue_end_entity(&dn, key.public_key(), 0, 500_000).unwrap();
        Credential::new(vec![cert], key.clone()).unwrap()
    };
    let alice = mk(&mut ca, 1, "/O=Grid/CN=alice");
    let server = mk(&mut ca, 2, "/O=Grid/CN=server");
    Pki { ca, alice, server }
}

fn cfg(p: &Pki) -> ChannelConfig {
    ChannelConfig::new(vec![p.ca.certificate().clone()])
}

/// Server sees EOF right after ClientHello.
#[test]
fn server_handles_eof_after_hello() {
    let p = pki();
    let (mut ct, st) = duplex();
    let server = p.server.clone();
    let config = cfg(&p);
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("eof server");
        SecureChannel::accept(st, &server, &config, &mut rng, 100)
    });
    // Minimal well-formed ClientHello, then hang up.
    let mut hello = vec![1u8];
    hello.extend_from_slice(&32u32.to_be_bytes());
    hello.extend_from_slice(&[9u8; 32]);
    write_frame(&mut ct, &hello).unwrap();
    drop(ct);
    assert!(matches!(h.join().unwrap(), Err(GsiError::Io(_))));
}

/// Client sees EOF right after sending ClientHello (server vanishes).
#[test]
fn client_handles_vanishing_server() {
    let p = pki();
    let (ct, st) = duplex();
    drop(st);
    let mut rng = test_drbg("vanish client");
    let res = SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 100);
    assert!(matches!(res, Err(GsiError::Io(_))));
}

/// A peer that answers ClientHello with the wrong message type.
#[test]
fn client_rejects_wrong_message_type() {
    let p = pki();
    let (ct, mut st) = duplex();
    let h = std::thread::spawn(move || {
        // Read the hello, reply with a Finished (type 4) out of order.
        let _ = read_frame(&mut st).unwrap();
        let mut bogus = vec![4u8];
        bogus.extend_from_slice(&32u32.to_be_bytes());
        bogus.extend_from_slice(&[0u8; 32]);
        write_frame(&mut st, &bogus).unwrap();
        st
    });
    let mut rng = test_drbg("wrong type");
    let res = SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 100);
    assert!(matches!(res, Err(GsiError::Protocol(_))));
    let _ = h.join();
}

/// A peer that sends an empty certificate list.
#[test]
fn client_rejects_empty_server_chain() {
    let p = pki();
    let (ct, mut st) = duplex();
    let h = std::thread::spawn(move || {
        let _ = read_frame(&mut st).unwrap();
        let mut sh = vec![2u8]; // MSG_SERVER_HELLO
        sh.extend_from_slice(&32u32.to_be_bytes());
        sh.extend_from_slice(&[1u8; 32]);
        sh.extend_from_slice(&0u32.to_be_bytes()); // zero certs
        write_frame(&mut st, &sh).unwrap();
        st
    });
    let mut rng = test_drbg("empty chain");
    let res = SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 100);
    assert!(res.is_err());
    let _ = h.join();
}

/// Both sides configured but with clocks far apart: the certificate
/// windows don't overlap the validator's time and the handshake fails.
#[test]
fn time_disagreement_fails_validation() {
    let p = pki();
    let (ct, st) = duplex();
    let server = p.server.clone();
    let config = cfg(&p);
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("time server");
        SecureChannel::accept(st, &server, &config, &mut rng, 100)
    });
    let mut rng = test_drbg("time client");
    // The client thinks it's long past every certificate's expiry.
    let res = SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 10_000_000);
    assert!(matches!(res, Err(GsiError::Chain(_))));
    let _ = h.join();
}

/// After a successful handshake, a truncated record errors (not hangs)
/// on EOF.
#[test]
fn truncated_record_after_handshake() {
    let p = pki();
    let (ct, st) = duplex();
    let server = p.server.clone();
    let config = cfg(&p);
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("trunc server");
        let mut ch = SecureChannel::accept(st, &server, &config, &mut rng, 100).unwrap();
        ch.recv()
    });
    let mut rng = test_drbg("trunc client");
    let ch = SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 100).unwrap();
    // Drop without sending: server's recv must return an error.
    drop(ch);
    assert!(h.join().unwrap().is_err());
}

/// Two sessions between the same parties with the same client seed but
/// fresh server randomness produce different ciphertext for the same
/// plaintext — sessions never share keys.
#[test]
fn sessions_have_independent_keys() {
    let p = pki();
    let run = |server_label: String| {
        let (ct, st) = duplex();
        let (ct_tapped, log) = mp_gsi::transport::Tap::new(ct);
        let server = p.server.clone();
        let config = cfg(&p);
        let h = std::thread::spawn(move || {
            let mut rng = test_drbg(&server_label);
            let mut ch = SecureChannel::accept(st, &server, &config, &mut rng, 100).unwrap();
            ch.recv().unwrap()
        });
        // Same client seed both times: only the server random differs.
        let mut rng = test_drbg("same client seed");
        let mut c = SecureChannel::connect(ct_tapped, &p.alice, &cfg(&p), &mut rng, 100).unwrap();
        c.send(b"identical plaintext").unwrap();
        assert_eq!(h.join().unwrap(), b"identical plaintext");
        let bytes = log.lock().sent.clone();
        bytes
    };
    let wire1 = run("indep server 1".into());
    let wire2 = run("indep server 2".into());
    // The data record is the last frame on each wire; with session keys
    // bound to the server random, the sealed bytes must differ.
    assert_ne!(wire1, wire2, "two sessions produced identical wire bytes");
}

/// The handshake's other form: no client certificate. The server is
/// authenticated exactly as on the mutual form (chain, pinned identity,
/// proof of key); the client is nobody.
#[test]
fn server_auth_only_form_authenticates_the_server_and_nobody_else() {
    let p = pki();
    let pinned = cfg(&p).expecting(Dn::parse("/O=Grid/CN=server").unwrap());
    let (ct, st) = duplex();
    let server = p.server.clone();
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("anon server");
        let mut s = ServerAuthChannel::accept(st, server.chain(), server.key(), &mut rng).unwrap();
        let msg = s.recv().unwrap();
        s.send(&msg).unwrap();
    });
    let mut rng = test_drbg("anon client");
    let mut c = ServerAuthChannel::connect(ct, &pinned, &mut rng, 100).unwrap();
    c.send(b"POST /login").unwrap();
    assert_eq!(c.recv().unwrap(), b"POST /login");
    h.join().unwrap();

    let elsewhere = cfg(&p).expecting(Dn::parse("/O=Grid/CN=elsewhere").unwrap());
    let (ct, st) = duplex();
    let server = p.server.clone();
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("anon server 2");
        ServerAuthChannel::accept(st, server.chain(), server.key(), &mut rng).is_err()
    });
    let refused = ServerAuthChannel::connect(ct, &elsewhere, &mut rng, 100);
    assert!(matches!(refused, Err(GsiError::Denied(_))));
    assert!(h.join().unwrap(), "the client hung up; the server must not report success");
}

fn protocol_error<C>(verdict: Result<C, GsiError>, needle: &str) {
    match verdict {
        Err(GsiError::Protocol(why)) => assert!(why.contains(needle), "{why}"),
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("handshake succeeded"),
    }
}

/// Fail closed both ways: which form an endpoint speaks is fixed by the
/// entry point it calls, and each `accept` refuses the other form.
#[test]
fn each_accept_refuses_the_other_form() {
    let p = pki();

    // A client without a certificate at a mutual endpoint.
    let (ct, st) = duplex();
    let (server, config) = (p.server.clone(), cfg(&p));
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("mutual vs anon");
        SecureChannel::accept(st, &server, &config, &mut rng, 100)
    });
    let mut rng = test_drbg("anon vs mutual");
    assert!(ServerAuthChannel::connect(ct, &cfg(&p), &mut rng, 100).is_err());
    protocol_error(h.join().unwrap(), "certificate required");

    // A certificate-bearing client at a server-auth-only endpoint.
    let (ct, st) = duplex();
    let server = p.server.clone();
    let h = std::thread::spawn(move || {
        let mut rng = test_drbg("anon vs mutual server");
        ServerAuthChannel::accept(st, server.chain(), server.key(), &mut rng)
    });
    assert!(SecureChannel::connect(ct, &p.alice, &cfg(&p), &mut rng, 100).is_err());
    protocol_error(h.join().unwrap(), "not accepted");
}

/// A hand-rolled client: honest hellos, then a KeyExchange that stops
/// after the encrypted premaster — no signature field, not even an
/// empty one. Both forms read all three fields before anything else.
#[test]
fn key_exchange_truncated_after_the_premaster_is_refused_on_both_forms() {
    fn truncating_client(mut t: MemStream, chain: Vec<Vec<u8>>) {
        let mut hello = WireWriter::new();
        hello.u8(1).bytes(&[7u8; 32]);
        write_frame(&mut t, &hello.into_bytes()).unwrap();
        read_frame(&mut t).unwrap(); // ServerHello
        let mut kx = WireWriter::new();
        kx.u8(3).byte_list(&chain).bytes(&[0x42u8; 64]);
        write_frame(&mut t, &kx.into_bytes()).unwrap();
    }
    let p = pki();

    let (ct, st) = duplex();
    let chain = p.alice.chain_der();
    let client = std::thread::spawn(move || truncating_client(ct, chain));
    let mut rng = test_drbg("truncated mutual");
    protocol_error(SecureChannel::accept(st, &p.server, &cfg(&p), &mut rng, 100), "truncated");
    client.join().unwrap();

    let (ct, st) = duplex();
    let client = std::thread::spawn(move || truncating_client(ct, Vec::new()));
    let mut rng = test_drbg("truncated anon");
    let verdict = ServerAuthChannel::accept(st, p.server.chain(), p.server.key(), &mut rng);
    protocol_error(verdict, "truncated");
    client.join().unwrap();
}
