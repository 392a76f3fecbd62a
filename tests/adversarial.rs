//! Adversarial and failure-injection tests: hostile bytes, truncated
//! protocols, forged structures. The repository must fail closed and
//! must never hang or panic on garbage.

use myproxy::gsi::record::{read_frame, write_frame};
use myproxy::gsi::{ChannelConfig, Credential, SecureChannel};
use myproxy::myproxy::client::GetParams;
use myproxy::testkit::GridWorld;
use myproxy::x509::test_util::{test_drbg, test_rsa_key};
use myproxy::x509::{CertBuilder, Certificate, Clock, Dn, ProxyPolicy};
use std::io::Write;

/// Raw garbage at the server port: handshake fails cleanly, no
/// delegation happens, connection is torn down.
#[test]
fn garbage_bytes_rejected_cleanly() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();

    for payload in [
        &b"GET / HTTP/1.0\r\n\r\n"[..],           // wrong protocol entirely
        &[0u8; 64][..],                            // zero frame storm
        &[0xff; 200][..],                          // huge bogus length prefix
        &b"\x00\x00\x00\x05hello"[..],             // valid frame, bogus handshake
    ] {
        let mut conn = w.myproxy.connect_local();
        let _ = conn.write_all(payload);
        // Drop our write side; read whatever comes back until EOF.
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut conn, &mut buf);
    }
    // No successful operations were recorded beyond the initial PUT.
    assert_eq!(w.myproxy.stats().gets.get(), 0);
    assert_eq!(w.myproxy.stats().puts.get(), 1);
}

/// A client that completes the handshake but then speaks garbage inside
/// the channel gets an error, not a credential.
#[test]
fn valid_channel_bad_protocol_rejected() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]).expecting(w.myproxy.identity());
    let mut rng = test_drbg("bad proto");
    let mut channel = SecureChannel::connect(
        w.myproxy.connect_local(),
        &w.portal_cred,
        &cfg,
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    channel.send(b"COMPLETELY WRONG").unwrap();
    let resp = channel.recv().unwrap();
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains("RESPONSE=1"), "server must answer with a protocol error: {text}");
}

/// Truncating the handshake mid-way (client vanishes after ClientHello)
/// must leave the server in a clean state.
#[test]
fn half_open_handshake_cleans_up() {
    let w = GridWorld::new();
    for _ in 0..5 {
        let mut conn = w.myproxy.connect_local();
        // A well-formed ClientHello frame...
        let mut hello = vec![1u8]; // MSG_CLIENT_HELLO
        hello.extend_from_slice(&(32u32).to_be_bytes());
        hello.extend_from_slice(&[7u8; 32]);
        write_frame(&mut conn, &hello).unwrap();
        // ...then hang up.
        drop(conn);
    }
    // Poll: all five handlers record channel failures.
    let mut failures = 0;
    for _ in 0..100 {
        failures = w
            .myproxy
            .stats()
            .channel_failures.get();
        if failures >= 5 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(failures >= 5);
}

/// A forged certificate chain where the proxy's subject CN claims a
/// different user must not validate — the delegation-era identity
/// confusion attack.
#[test]
fn cn_spoofing_in_proxy_chain_rejected() {
    let w = GridWorld::new();
    // Mallory (bob) signs a "proxy" whose subject claims to extend
    // alice's DN.
    let fake_proxy_key = test_rsa_key(20);
    let spoofed_subject = Dn::parse("/O=Grid/CN=alice/CN=proxy").unwrap();
    let forged = CertBuilder::new(spoofed_subject, 0, w.clock.now() + 1000)
        .proxy(ProxyPolicy::InheritAll, None)
        .sign(w.bob.subject(), w.bob.key(), fake_proxy_key.public_key())
        .unwrap();
    let chain = [forged, w.bob.leaf().clone()];
    let err = myproxy::x509::validate_chain(
        &chain,
        &[w.ca_cert.clone()],
        w.clock.now(),
        &Default::default(),
    )
    .unwrap_err();
    // The proxy-subject rule catches it: bob's subject + CN != the
    // claimed subject.
    assert!(matches!(err, myproxy::x509::ChainError::ProxySubjectMismatch { .. }));
}

/// A chain that smuggles a CA certificate *below* the end entity (to
/// try to mint siblings) is rejected.
#[test]
fn ee_cannot_tow_a_ca_below_itself() {
    let w = GridWorld::new();
    // bob self-signs a CA cert and presents [bob_ca, bob] — bob (EE,
    // not a CA) may not issue anything.
    let bob_ca_key = test_rsa_key(21);
    let bob_ca = CertBuilder::new(Dn::parse("/O=Grid/CN=bobca").unwrap(), 0, w.clock.now() + 1000)
        .ca(None)
        .sign(w.bob.subject(), w.bob.key(), bob_ca_key.public_key())
        .unwrap();
    let chain = [bob_ca, w.bob.leaf().clone()];
    let err = myproxy::x509::validate_chain(
        &chain,
        &[w.ca_cert.clone()],
        w.clock.now(),
        &Default::default(),
    )
    .unwrap_err();
    assert!(matches!(err, myproxy::x509::ChainError::NotCa { .. }));
}

/// Certificate parser must survive arbitrary mutations of a valid DER
/// certificate without panicking, and any mutation that still parses
/// must fail signature verification (or be byte-identical).
#[test]
fn certificate_mutation_fuzz() {
    let w = GridWorld::new();
    let der = w.alice.leaf().to_der().to_vec();
    let issuer_key = test_rsa_key(0).public_key(); // CA key signs alice

    let mut checked = 0;
    for pos in (0..der.len()).step_by(7) {
        for bit in [0x01u8, 0x80] {
            let mut mutated = der.clone();
            mutated[pos] ^= bit;
            match Certificate::from_der(&mutated) {
                Err(_) => {}
                Ok(cert) => {
                    // Parsed — must not verify (mutation touched TBS) or
                    // must have only touched the signature (fails too),
                    // unless the mutation somehow round-trips DER-equal.
                    if mutated == der {
                        continue;
                    }
                    assert!(
                        !cert.verify_signature(issuer_key),
                        "mutation at byte {pos} bit {bit:#x} still verifies"
                    );
                    checked += 1;
                }
            }
        }
    }
    // At least some mutations should have reached the "parsed but
    // rejected by signature" branch (e.g. flips inside validity).
    assert!(checked > 0, "fuzz never exercised the parsed-but-invalid branch");
}

/// The record layer must reject a frame claiming an enormous length
/// without allocating, and half frames must error at EOF.
#[test]
fn record_layer_hostile_lengths() {
    let (mut a, mut b) = myproxy::gsi::duplex();
    a.write_all(&u32::MAX.to_be_bytes()).unwrap();
    assert!(read_frame(&mut b).is_err());

    let (mut a, mut b) = myproxy::gsi::duplex();
    a.write_all(&10u32.to_be_bytes()).unwrap();
    a.write_all(b"only4").unwrap();
    drop(a);
    assert!(read_frame(&mut b).is_err());
}

/// Truncated and oversized wire-format messages must come back as
/// typed protocol errors from every reader entry point — never a
/// panic. This drives the exact paths the R1/R4 lint rules guard:
/// `WireReader::{u32,u64,bytes,byte_list}` bounds and the frame cap.
#[test]
fn truncated_and_oversized_wire_messages_error_not_panic() {
    use myproxy::gsi::wire::{WireReader, WireWriter, MAX_FIELD};

    // Every strict prefix of a well-formed message is a clean error.
    let mut w = WireWriter::new();
    w.u8(7).u32(0xdead_beef).u64(42).bytes(b"payload").string("text");
    let full = w.into_bytes();
    for cut in 0..full.len() {
        let truncated = &full[..cut];
        let mut r = WireReader::new(truncated);
        let outcome = r
            .u8()
            .and_then(|_| r.u32())
            .and_then(|_| r.u64())
            .and_then(|_| r.bytes().map(|_| ()))
            .and_then(|_| r.string().map(|_| ()));
        assert!(outcome.is_err(), "prefix of {cut} bytes must not parse");
    }

    // A length prefix larger than the remaining buffer.
    let mut lying = Vec::new();
    lying.extend_from_slice(&1000u32.to_be_bytes());
    lying.extend_from_slice(b"short");
    assert!(WireReader::new(&lying).bytes().is_err());

    // A length prefix past the per-field cap.
    let mut huge = Vec::new();
    huge.extend_from_slice(&((MAX_FIELD as u32) + 1).to_be_bytes());
    assert!(WireReader::new(&huge).bytes().is_err());

    // A list claiming more entries than the reader's cap.
    let mut flood = Vec::new();
    flood.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(WireReader::new(&flood).byte_list().is_err());

    // Trailing garbage is caught by finish().
    let mut w = WireWriter::new();
    w.u8(1);
    let mut msg = w.into_bytes();
    msg.push(0xEE);
    let mut r = WireReader::new(&msg);
    r.u8().unwrap();
    assert!(r.finish().is_err());
}

/// The same hostile shapes pushed through a full server round-trip:
/// a handshake frame whose inner wire message is truncated mid-field
/// draws a protocol error, and the server stays up for the next client.
#[test]
fn truncated_handshake_message_rejected_server_survives() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();

    // Frame a ClientHello whose random is cut short mid-bytes.
    let mut hello = Vec::new();
    hello.push(1u8); // MSG_CLIENT_HELLO
    hello.extend_from_slice(&32u32.to_be_bytes()); // claims 32 bytes...
    hello.extend_from_slice(&[0xAB; 7]); // ...delivers 7
    let mut conn = w.myproxy.connect_local();
    let mut framed = Vec::new();
    framed.extend_from_slice(&(hello.len() as u32).to_be_bytes());
    framed.extend_from_slice(&hello);
    let _ = conn.write_all(&framed);
    let mut buf = Vec::new();
    let _ = std::io::Read::read_to_end(&mut conn, &mut buf);
    drop(conn);

    // The server did not crash: a well-behaved client still succeeds.
    let mut rng = test_drbg("after truncation");
    let got = w.myproxy_client.get_delegation(
        w.myproxy.connect_local(),
        &w.portal_cred,
        &GetParams::new("alice", "correct horse battery"),
        &mut rng,
        w.clock.now(),
    );
    assert!(got.is_ok(), "server must survive a truncated handshake: {got:?}");
}

/// Oversized usernames / pass phrases / field floods must be refused
/// (or served) without memory blowups — the request is a single capped
/// record.
#[test]
fn oversized_fields_handled() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();
    let mut rng = test_drbg("oversize");
    let huge = "x".repeat(100_000);
    let err = w
        .myproxy_client
        .get_delegation(
            w.myproxy.connect_local(),
            &w.portal_cred,
            &GetParams::new(&huge, &huge),
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
    assert!(matches!(err, myproxy::myproxy::MyProxyError::Refused(_)));
}

/// Expired *server* credential: clients must refuse the repository
/// itself once its certificate lapses (mutual auth cuts both ways).
#[test]
fn clients_reject_expired_server() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();
    // Jump past the server certificate's one-year validity.
    w.clock.advance(2 * 365 * 24 * 3600);
    let mut rng = test_drbg("expired server");
    let err = w
        .myproxy_client
        .get_delegation(
            w.myproxy.connect_local(),
            &w.portal_cred,
            &GetParams::new("alice", "correct horse battery"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
    assert!(matches!(err, myproxy::myproxy::MyProxyError::Gsi(_)));
}

/// Credential forwarding confusion: a *different* client presenting a
/// stolen (public) certificate chain without the key cannot complete
/// the handshake. We simulate by building a Credential with bob's key
/// and alice's chain — construction itself refuses, and a hand-rolled
/// bypass dies at the transcript signature.
#[test]
fn stolen_chain_without_key_useless() {
    let w = GridWorld::new();
    assert!(Credential::new(w.alice.chain().to_vec(), w.bob.key().clone()).is_err());
}

/// The handshake has two forms — client certificate present or absent —
/// and which one an endpoint speaks is fixed by its type. A browser-
/// style client (no certificate) at any of the mutually-authenticated
/// daemons is refused with a protocol error at the KeyExchange, before
/// the daemon touches its private key; the repository counts it.
#[test]
fn certificate_less_client_is_refused_by_every_grid_daemon() {
    use myproxy::gram::GramError;
    use myproxy::gsi::channel::ServerAuthChannel;
    use myproxy::gsi::{duplex, GsiError};
    use myproxy::myproxy::MyProxyError;

    let w = GridWorld::new();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    let now = w.clock.now();
    // Dial `serve` (one daemon's per-connection entry, on its own
    // thread) with the certificate-less form; hand back its verdict.
    let attempt = |serve: &(dyn Fn(myproxy::gsi::MemStream) -> Option<GsiError> + Sync)| {
        let (client, server) = duplex();
        std::thread::scope(|s| {
            let verdict = s.spawn(move || serve(server));
            let mut rng = test_drbg("no-cert client");
            assert!(ServerAuthChannel::connect(client, &cfg, &mut rng, now).is_err());
            verdict.join().unwrap()
        })
    };
    let required = |verdict: Option<GsiError>, who: &str| match verdict {
        Some(GsiError::Protocol(why)) => assert!(why.contains("certificate required"), "{who}: {why}"),
        other => panic!("{who}: expected a protocol error, got {other:?}"),
    };

    required(
        attempt(&|conn| match w.myproxy.handle(conn, None) {
            Err(MyProxyError::Gsi(e)) => Some(e),
            _ => None,
        }),
        "repository",
    );
    assert_eq!(w.myproxy.stats().channel_failures.get(), 1);
    required(
        attempt(&|conn| match w.jobmanager.handle(conn, &mut test_drbg("jm no-cert"), None) {
            Err(GramError::Gsi(e)) => Some(e),
            _ => None,
        }),
        "job manager",
    );
    required(
        attempt(&|conn| match w.storage.handle(conn, &mut test_drbg("st no-cert"), None) {
            Err(GramError::Gsi(e)) => Some(e),
            _ => None,
        }),
        "storage",
    );
}

/// The other direction: the portal's HTTPS-sim side takes no client
/// certificate. A Grid client presenting one is refused (documented in
/// docs/PROTOCOL.md §1) rather than served with its proof ignored.
#[test]
fn certificate_bearing_client_is_refused_by_the_portal() {
    use myproxy::gsi::duplex;
    use myproxy::portal::PortalError;

    let w = GridWorld::new();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    let (client, server) = duplex();
    let verdict = std::thread::scope(|s| {
        let verdict = s.spawn(|| w.portal.serve_tls(server, None));
        let mut rng = test_drbg("cert at portal");
        assert!(SecureChannel::connect(client, &w.alice, &cfg, &mut rng, w.clock.now()).is_err());
        verdict.join().unwrap()
    });
    match verdict {
        Err(PortalError::Tls(why)) => assert!(why.contains("client certificate not accepted"), "{why}"),
        other => panic!("expected a TLS-level refusal, got {other:?}"),
    }
}
