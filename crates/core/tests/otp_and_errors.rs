//! Error paths of the extension commands: OTP setup validation,
//! long-term storage with garbage payloads, and INFO/DESTROY edge cases.

use mp_crypto::HmacDrbg;
use mp_gsi::{ChannelConfig, Credential, SecureChannel};
use mp_myproxy::client::InitParams;
use mp_myproxy::proto::{field, Command, Request, Response};
use mp_myproxy::{MyProxyClient, MyProxyError, MyProxyServer, ServerPolicy};
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{CertificateAuthority, Clock, Dn, SimClock};
use std::sync::Arc;

struct World {
    alice: Credential,
    /// CA-issued like alice, but the CN holds a newline followed by
    /// what would parse as a store-file line.
    mallory: Credential,
    server: MyProxyServer,
    client: MyProxyClient,
    clock: SimClock,
    roots: Vec<mp_x509::Certificate>,
}

fn world() -> World {
    let clock = SimClock::new(1000);
    let mut ca = CertificateAuthority::new_root(
        Dn::parse("/O=Grid/CN=CA").unwrap(),
        test_rsa_key(0).clone(),
        0,
        100_000_000,
    )
    .unwrap();
    let mk = |ca: &mut CertificateAuthority, i: usize, dn: &str| {
        let key = test_rsa_key(i);
        let dn = Dn::parse(dn).unwrap();
        let cert = ca.issue_end_entity(&dn, key.public_key(), 0, 50_000_000).unwrap();
        Credential::new(vec![cert], key.clone()).unwrap()
    };
    let alice = mk(&mut ca, 1, "/O=Grid/CN=alice");
    let mallory = mk(&mut ca, 3, "/O=Grid/CN=mallory\nrenewable_by=*");
    let server_cred = mk(&mut ca, 2, "/O=Grid/CN=myproxy");
    let roots = vec![ca.certificate().clone()];
    let server = MyProxyServer::new(
        server_cred,
        roots.clone(),
        ServerPolicy::permissive(),
        Arc::new(clock.clone()),
        HmacDrbg::new(b"otp errors server"),
    );
    let client = MyProxyClient::new(roots.clone(), None);
    World { alice, mallory, server, client, clock, roots }
}

fn seeded() -> World {
    let w = world();
    let mut rng = test_drbg("seed");
    w.client
        .init(
            w.server.connect_local(),
            &w.alice,
            &InitParams::new("alice", "good pass phrase"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    w
}

#[test]
fn otp_setup_requires_valid_anchor_and_count() {
    let w = seeded();
    let mut rng = test_drbg("otp anchor");
    // Malformed anchor.
    let err = w
        .client
        .otp_setup(
            w.server.connect_local(),
            &w.alice,
            "alice",
            "good pass phrase",
            "not-hex",
            5,
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
    assert!(matches!(err, MyProxyError::Refused(_) | MyProxyError::Protocol(_)));

    // Zero and absurd chain lengths.
    for count in [0u32, 1_000_000] {
        let err = w
            .client
            .otp_setup(
                w.server.connect_local(),
                &w.alice,
                "alice",
                "good pass phrase",
                &"ab".repeat(32),
                count,
                &mut rng,
                w.clock.now(),
            )
            .unwrap_err();
        assert!(matches!(err, MyProxyError::Refused(_)), "count={count}");
    }

    // Wrong pass phrase cannot register a chain (else an attacker could
    // lock the user out / capture future logins).
    let err = w
        .client
        .otp_setup(
            w.server.connect_local(),
            &w.alice,
            "alice",
            "WRONG",
            &"ab".repeat(32),
            5,
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
    assert!(matches!(err, MyProxyError::Refused(_)));
}

#[test]
fn store_long_term_rejects_garbage_pem() {
    let w = seeded();
    let mut rng = test_drbg("garbage pem");
    // Hand-roll the protocol to ship a bogus payload.
    let cfg = ChannelConfig::new(w.roots.clone());
    let mut channel = SecureChannel::connect(
        w.server.connect_local(),
        &w.alice,
        &cfg,
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    let req = Request::new(Command::StoreLongTerm)
        .field(field::USERNAME, "alice")
        .field(field::PASSPHRASE, "good pass phrase");
    channel.send(req.to_text().as_bytes()).unwrap();
    let resp = Response::from_text(
        &String::from_utf8(channel.recv().unwrap()).unwrap(),
    )
    .unwrap();
    assert!(resp.ok, "server should invite the payload first");
    channel.send(b"this is not a PEM credential").unwrap();
    let final_resp = Response::from_text(
        &String::from_utf8(channel.recv().unwrap()).unwrap(),
    )
    .unwrap();
    assert!(!final_resp.ok, "garbage payload must be refused");
    // Only the original seeded entry exists.
    assert_eq!(w.server.store().len(), 1);
}

#[test]
fn info_on_unknown_command_number_is_protocol_error() {
    let w = seeded();
    let mut rng = test_drbg("bad cmd");
    let cfg = ChannelConfig::new(w.roots.clone());
    let mut channel = SecureChannel::connect(
        w.server.connect_local(),
        &w.alice,
        &cfg,
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    channel
        .send(b"VERSION=MYPROXYv2\nCOMMAND=42\nUSERNAME=alice\n")
        .unwrap();
    let resp = Response::from_text(
        &String::from_utf8(channel.recv().unwrap()).unwrap(),
    )
    .unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("unknown command"));
}

#[test]
fn destroy_unknown_name_uniform_error() {
    let w = seeded();
    let mut rng = test_drbg("destroy name");
    let err = w
        .client
        .destroy(
            w.server.connect_local(),
            &w.alice,
            "alice",
            "good pass phrase",
            Some("no-such-entry"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
    let MyProxyError::Refused(msg) = err else { panic!("expected Refused") };
    assert!(msg.contains("authentication failed"), "uniform error, no oracle: {msg}");
}

/// `Dn::decode` accepts any UTF-8 and `Dn`'s `Display` does not escape,
/// so a validated identity can hold a newline. It becomes the entry's
/// `owner=` line in the store file and in the journal's Upsert payload;
/// unguarded, the rest of the DN lands there as a line of its own. The
/// line codec refuses it, and the PUT is refused before anything —
/// delegation, journal frame, `.cred` file — happens.
#[test]
fn put_from_an_identity_holding_a_newline_is_refused_and_writes_nothing() {
    use mp_gsi::net::NetConfig;
    use mp_myproxy::wal::{CrashVfs, WalConfig};

    let w = world();
    let vfs = Arc::new(CrashVfs::new());
    w.server
        .enable_durability_with(
            std::path::Path::new("/store"),
            vfs.clone(),
            WalConfig { compact_every: 1, ..WalConfig::default() },
        )
        .unwrap();
    // One worker: if the refusal killed it, nothing after would be served.
    let (push, pool) = w.server.serve_local(NetConfig { workers: 1, ..NetConfig::default() }).unwrap();
    let dial = || {
        let (client, server) = mp_gsi::duplex();
        push.push(Box::new(server)).unwrap();
        client
    };
    let written_before = vfs.mutations();

    let mut rng = test_drbg("newline identity");
    let put = |cred: &Credential, user: &str, rng: &mut HmacDrbg| {
        w.client.init(dial(), cred, &InitParams::new(user, "good pass phrase"), rng, w.clock.now())
    };
    let err = put(&w.mallory, "mallory", &mut rng).unwrap_err();
    let MyProxyError::Refused(why) = err else { panic!("expected a typed refusal, got {err}") };
    assert!(why.contains("owner") && why.contains("cannot be framed"), "{why}");
    assert_eq!(vfs.mutations(), written_before, "no journal frame, no .cred file");
    assert!(w.server.store().is_empty());

    // The same worker serves the next, honest PUT.
    put(&w.alice, "alice", &mut rng).unwrap();
    assert!(vfs.mutations() > written_before);
    assert_eq!(w.server.store().len(), 1);
    assert!(pool.shutdown().drained);
}
