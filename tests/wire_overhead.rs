//! Wire-cost accounting: how many bytes each MyProxy operation puts on
//! the network, measured with the tap transport. Documents the §6.4
//! admission that the protocol "was quickly designed as a prototype" —
//! and shows the cost is entirely certificates, not framing.

use myproxy::gsi::transport::Tap;
use myproxy::myproxy::client::{GetParams, InitParams};
use myproxy::testkit::GridWorld;
use myproxy::x509::test_util::test_drbg;
use myproxy::x509::Clock;

#[test]
fn operation_byte_costs_are_bounded_and_reported() {
    let w = GridWorld::new();
    let mut rng = test_drbg("wire overhead");

    // INIT.
    let (t, log) = Tap::new(w.myproxy.connect_local());
    w.myproxy_client
        .init(
            t,
            &w.alice,
            &InitParams::new("alice", "correct horse battery"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    let (init_sent, init_recv) = {
        let l = log.lock();
        (l.sent.len(), l.received.len())
    };

    // GET.
    let (t, log) = Tap::new(w.myproxy.connect_local());
    w.myproxy_client
        .get_delegation(
            t,
            &w.portal_cred,
            &GetParams::new("alice", "correct horse battery"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    let (get_sent, get_recv) = {
        let l = log.lock();
        (l.sent.len(), l.received.len())
    };

    // INFO (no delegation sub-protocol).
    let (t, log) = Tap::new(w.myproxy.connect_local());
    w.myproxy_client
        .info(t, &w.alice, "alice", "correct horse battery", &mut rng, w.clock.now())
        .unwrap();
    let (info_sent, info_recv) = {
        let l = log.lock();
        (l.sent.len(), l.received.len())
    };

    println!("wire bytes (client-sent / client-received):");
    println!("  INIT: {init_sent} / {init_recv}");
    println!("  GET:  {get_sent} / {get_recv}");
    println!("  INFO: {info_sent} / {info_recv}");

    // Sanity bounds: with 512-bit keys, one certificate is ~450 bytes
    // DER; a whole operation is a handful of certificates plus MACs.
    // These bounds catch accidental blowups (resends, uncompressed
    // chains growing unboundedly, framing bugs).
    for (label, v) in [
        ("init sent", init_sent),
        ("init recv", init_recv),
        ("get sent", get_sent),
        ("get recv", get_recv),
        ("info sent", info_sent),
        ("info recv", info_recv),
    ] {
        assert!(v > 100, "{label}: implausibly small ({v})");
        assert!(v < 16_384, "{label}: wire blowup ({v} bytes)");
    }

    // The delegation-bearing ops carry more server->client data (the
    // new chain comes back) than INFO does.
    assert!(get_recv > info_recv);
}

/// How many length-prefixed frames a byte stream holds.
fn frames(mut stream: &[u8]) -> usize {
    let mut n = 0;
    while let Some((len, rest)) = stream.split_first_chunk::<4>() {
        stream = &rest[u32::from_be_bytes(*len) as usize..];
        n += 1;
    }
    n
}

/// The browser leg rides the GSI handshake with the client certificate
/// absent: both forms are five frames (three sent, two received), and
/// what the certificate-less form saves is the client chain and the
/// transcript signature in the KeyExchange.
#[test]
fn handshake_is_five_frames_with_or_without_a_client_certificate() {
    use myproxy::gsi::{ChannelConfig, SecureChannel};
    use myproxy::portal::tls;

    let w = GridWorld::new();
    let mut rng = test_drbg("handshake frames");

    let (t, mutual) = Tap::new(w.myproxy.connect_local());
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    SecureChannel::connect(t, &w.alice, &cfg, &mut rng, w.clock.now()).unwrap();

    let (t, browser) = Tap::new((w.portal_tls_connector())().unwrap());
    tls::connect(t, std::slice::from_ref(&w.ca_cert), None, &mut rng, w.clock.now()).unwrap();

    let (mutual, browser) = (mutual.lock(), browser.lock());
    println!("handshake bytes (client-sent / client-received):");
    println!("  GSI mutual:  {} / {}", mutual.sent.len(), mutual.received.len());
    println!("  browser leg: {} / {}", browser.sent.len(), browser.received.len());
    for (label, log) in [("GSI mutual", &mutual), ("browser leg", &browser)] {
        assert_eq!(frames(&log.sent), 3, "{label}: ClientHello, KeyExchange, Finished");
        assert_eq!(frames(&log.received), 2, "{label}: ServerHello, Finished");
    }
    assert!(browser.sent.len() < mutual.sent.len(), "no client chain, no signature");
}
