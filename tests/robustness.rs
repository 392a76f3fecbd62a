//! Robustness of the shared service substrate (`mp_gsi::net`).
//!
//! Every accept loop in the stack — the MyProxy repository, the GRAM
//! job manager, mass storage, and the Grid portal (HTTPS-sim and plain
//! HTTP) — runs on the same bounded worker pool. These tests drive each
//! of them through the four behaviors the pool guarantees:
//!
//! 1. transient accept errors (`ECONNABORTED`, `EMFILE`) are retried
//!    with backoff instead of killing the loop;
//! 2. half-open peers are evicted at the handshake deadline, freeing
//!    their slot;
//! 3. connections beyond the cap are refused *in protocol* (BUSY frame
//!    or HTTP 503), not silently dropped;
//! 4. shutdown stops accepting, drains in-flight handlers, and joins
//!    every thread.
//!
//! Plus the `FaultyTransport` scenarios: mid-handshake and
//! mid-delegation disconnects must leave the credential store unchanged,
//! and maximal read fragmentation must not confuse the framing layer.

use myproxy::crypto::HmacDrbg;
use myproxy::gram::{job, storage, GramError};
use myproxy::gsi::net::{self, accept_queue, BoxedConn, FaultyTransport, NetConfig, QueuePusher};
use myproxy::gsi::transport::{BoxedTransport, Connector};
use myproxy::gsi::{duplex, ChannelConfig, GsiError, MemStream};
use myproxy::myproxy::client::{GetParams, InfoParams, InitParams, Repositories, RetryPolicy};
use myproxy::myproxy::repl::{ReplConfig, Role, Shipper};
use myproxy::myproxy::testutil::replay_divergence;
use myproxy::myproxy::wal::{CrashVfs, WalConfig};
use myproxy::myproxy::{CredStore, MyProxyError, MyProxyServer, ServerPolicy, StoredCredential};
use myproxy::portal::browser::{expect_ok, Browser, BrowserMode};
use myproxy::testkit::GridWorld;
use myproxy::x509::test_util::test_drbg;
use myproxy::x509::Clock;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deliberately tiny pool: one worker, one connection slot, short
/// deadlines, fast backoff — so every limit is reachable in a test.
fn tight_cfg() -> NetConfig {
    NetConfig {
        workers: 1,
        max_connections: 1,
        handshake_deadline: Some(Duration::from_millis(400)),
        idle_deadline: Some(Duration::from_millis(600)),
        shutdown_grace: Duration::from_secs(2),
        accept_backoff_start: Duration::from_millis(1),
        accept_backoff_max: Duration::from_millis(10),
        sweep_interval: None,
    }
}

/// Dial the pool: push the server end of a fresh duplex pipe into its
/// accept queue and return the client end.
fn dial(push: &QueuePusher<BoxedConn>) -> MemStream {
    let (client, server) = duplex();
    push.push(Box::new(server)).expect("accept queue open");
    client
}

/// Dial with the server end wrapped in a configured [`FaultyTransport`].
fn dial_faulty<F>(push: &QueuePusher<BoxedConn>, arm: F) -> MemStream
where
    F: FnOnce(FaultyTransport<MemStream>) -> FaultyTransport<MemStream>,
{
    let (client, server) = duplex();
    push.push(Box::new(arm(FaultyTransport::new(server)))).expect("accept queue open");
    client
}

/// Spin until `cond` holds (counters are updated by pool threads).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Inject an `ECONNABORTED` and an `EMFILE` accept failure, then wait
/// until the loop has retried past both.
fn inject_accept_faults(push: &QueuePusher<BoxedConn>, stats: &net::NetStats) {
    push.push_err(std::io::Error::new(
        std::io::ErrorKind::ConnectionAborted,
        "connection aborted before accept",
    ));
    push.push_err(std::io::Error::from_raw_os_error(24)); // EMFILE
    wait_until("accept retries", || stats.accept_retries() >= 2);
}

const PASS: &str = "correct horse battery";

#[test]
fn myproxy_pool_survives_faults_sheds_and_drains() {
    let w = GridWorld::new();
    let (push, handle) = w.myproxy.serve_local(tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust myproxy");

    // 1. Transient accept errors must not kill the loop.
    inject_accept_faults(&push, &stats);

    // 2. A half-open client occupies the only slot...
    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    // 3. ...so the next client is refused in protocol, not hung. The
    //    refusal surfaces as the typed transient error, carrying the
    //    server's retry-after hint.
    let refused = w.myproxy_client.init(
        dial(&push),
        &w.alice,
        &InitParams::new("alice", PASS),
        &mut rng,
        w.clock.now(),
    );
    let Err(MyProxyError::Busy { reason, retry_after_ms }) = refused else {
        panic!("expected a typed busy refusal, got {refused:?}");
    };
    assert!(reason.contains("connection limit"), "got: {reason}");
    assert_eq!(retry_after_ms, Some(200), "shed frame must carry the retry hint");
    assert_eq!(stats.shed(), 1);

    // 4. The handshake deadline evicts the half-open peer and frees
    //    the slot; the loop it survived (1) keeps serving.
    wait_until("half-open evicted", || stats.timeouts() >= 1 && stats.active() == 0);
    w.myproxy_client
        .init(dial(&push), &w.alice, &InitParams::new("alice", PASS), &mut rng, w.clock.now())
        .unwrap();
    assert_eq!(w.myproxy.store().len(), 1);

    // 5. Shutdown drains in-flight work and joins every thread.
    let report = handle.shutdown();
    assert!(report.drained, "pool should drain within the grace period");
    assert_eq!(report.workers_joined, 1);
    assert_eq!(report.aborted, 0);
    assert_eq!(w.myproxy.store().len(), 1, "stored credential survives shutdown");
}

#[test]
fn jobmanager_pool_survives_faults_sheds_and_drains() {
    let w = GridWorld::new();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    let (push, acceptor) = accept_queue::<BoxedConn>();
    let handle = net::serve(acceptor, w.jobmanager.service(b"robust jm pool"), tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust jm");

    inject_accept_faults(&push, &stats);

    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    let refused = job::client::submit(
        dial(&push),
        &w.alice,
        &cfg,
        "shed-job",
        1,
        false,
        false,
        0,
        &mut rng,
        w.clock.now(),
    );
    let Err(GramError::Gsi(GsiError::Denied(msg))) = refused else {
        panic!("expected a busy refusal, got {refused:?}");
    };
    assert!(msg.contains("server busy"), "got: {msg}");
    assert_eq!(stats.shed(), 1);

    wait_until("half-open evicted", || stats.timeouts() >= 1 && stats.active() == 0);
    job::client::submit(
        dial(&push),
        &w.alice,
        &cfg,
        "ok-job",
        1,
        false,
        false,
        0,
        &mut rng,
        w.clock.now(),
    )
    .unwrap();

    let report = handle.shutdown();
    assert!(report.drained);
    assert_eq!(report.workers_joined, 1);
}

#[test]
fn storage_pool_survives_faults_sheds_and_drains() {
    let w = GridWorld::new();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    let (push, acceptor) = accept_queue::<BoxedConn>();
    let handle = net::serve(acceptor, w.storage.service(b"robust st pool"), tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust storage");

    inject_accept_faults(&push, &stats);

    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    let refused = storage::client::store(
        dial(&push),
        &w.alice,
        &cfg,
        "shed.dat",
        b"refused",
        &mut rng,
        w.clock.now(),
    );
    let Err(GramError::Gsi(GsiError::Denied(msg))) = refused else {
        panic!("expected a busy refusal, got {refused:?}");
    };
    assert!(msg.contains("server busy"), "got: {msg}");
    assert_eq!(stats.shed(), 1);
    assert_eq!(w.storage.file_count(), 0, "refused store must not write");

    wait_until("half-open evicted", || stats.timeouts() >= 1 && stats.active() == 0);
    storage::client::store(
        dial(&push),
        &w.alice,
        &cfg,
        "ok.dat",
        b"stored",
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    assert_eq!(w.storage.file_count(), 1);

    let report = handle.shutdown();
    assert!(report.drained);
    assert_eq!(report.workers_joined, 1);
    assert_eq!(w.storage.file_count(), 1, "stored file survives shutdown");
}

/// A [`Connector`] dialing a pool's accept queue (for the browser).
fn pool_connector(push: &QueuePusher<BoxedConn>) -> Connector {
    let push = push.clone();
    Arc::new(move || {
        let (client, server) = duplex();
        push.push(Box::new(server))?;
        Ok(Box::new(client) as BoxedTransport)
    })
}

#[test]
fn portal_tls_pool_survives_faults_sheds_and_drains() {
    let w = GridWorld::new();
    let (push, acceptor) = accept_queue::<BoxedConn>();
    let handle = net::serve(acceptor, w.portal.tls_service(), tight_cfg()).unwrap();
    let stats = handle.stats();

    inject_accept_faults(&push, &stats);

    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    // Refusal arrives as a distinguishable TLS-level busy error.
    let mut rng = test_drbg("robust portal tls shed");
    let roots = [w.ca_cert.clone()];
    let Err(err) = myproxy::portal::tls::connect(dial(&push), &roots, None, &mut rng, w.clock.now())
    else {
        panic!("handshake against a full pool unexpectedly succeeded");
    };
    assert!(err.to_string().contains("server busy"), "got: {err}");
    assert_eq!(stats.shed(), 1);

    wait_until("half-open evicted", || stats.timeouts() >= 1 && stats.active() == 0);

    // A whole browser round trip over the pool still works.
    let mut browser = Browser::new(
        pool_connector(&push),
        BrowserMode::Tls { roots: vec![w.ca_cert.clone()], expected: None },
        HmacDrbg::new(b"robust tls browser"),
        w.clock.now(),
    );
    let home = expect_ok(browser.get("/").unwrap()).unwrap();
    assert!(home.text().contains("Grid Portal"));

    let report = handle.shutdown();
    assert!(report.drained);
    assert_eq!(report.workers_joined, 1);
}

#[test]
fn portal_plain_pool_survives_faults_sheds_and_drains() {
    let w = GridWorld::new();
    let (push, acceptor) = accept_queue::<BoxedConn>();
    let handle = net::serve(acceptor, w.portal.plain_service(), tight_cfg()).unwrap();
    let stats = handle.stats();

    inject_accept_faults(&push, &stats);

    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    // Refusal arrives as a real HTTP 503, not a dropped socket.
    let mut refused = dial(&push);
    let mut raw = Vec::new();
    refused.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("503"), "expected an HTTP 503, got: {text}");
    assert!(text.contains("server busy"), "got: {text}");
    assert_eq!(stats.shed(), 1);

    wait_until("half-open evicted", || stats.timeouts() >= 1 && stats.active() == 0);

    let mut browser = Browser::new(
        pool_connector(&push),
        BrowserMode::Plain,
        HmacDrbg::new(b"robust plain browser"),
        w.clock.now(),
    );
    let home = expect_ok(browser.get("/").unwrap()).unwrap();
    assert!(home.text().contains("Grid Portal"));

    let report = handle.shutdown();
    assert!(report.drained);
    assert_eq!(report.workers_joined, 1);
}

#[test]
fn mid_handshake_disconnect_is_counted_and_survived() {
    let w = GridWorld::new();
    let (push, handle) = w.myproxy.serve_local(tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust handshake eof");

    // The server reads the ClientHello (frame 1), then the peer is gone.
    let conn = dial_faulty(&push, |f| f.eof_after_read_frames(1));
    let res = w.myproxy_client.init(
        conn,
        &w.alice,
        &InitParams::new("alice", PASS),
        &mut rng,
        w.clock.now(),
    );
    assert!(res.is_err(), "client must observe the broken handshake");
    wait_until("channel failure counted", || {
        w.myproxy.stats().channel_failures.get() >= 1
    });
    wait_until("handler error counted", || stats.handler_errors() >= 1);
    assert_eq!(w.myproxy.store().len(), 0);

    // The pool is still alive afterwards.
    w.myproxy_client
        .init(dial(&push), &w.alice, &InitParams::new("alice", PASS), &mut rng, w.clock.now())
        .unwrap();
    drop(push);
    let report = handle.join();
    assert!(report.drained);
}

#[test]
fn mid_delegation_disconnect_leaves_store_unchanged() {
    let w = GridWorld::new();
    let (push, handle) = w.myproxy.serve_local(tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust delegation eof");

    // Server-side reads on a PUT: ClientHello, KeyExchange, client
    // Finished, then the request record — the peer vanishes exactly
    // when the delegation frames should follow.
    let conn = dial_faulty(&push, |f| f.eof_after_read_frames(4));
    let res = w.myproxy_client.init(
        conn,
        &w.alice,
        &InitParams::new("alice", PASS),
        &mut rng,
        w.clock.now(),
    );
    assert!(res.is_err(), "client must observe the aborted delegation");
    wait_until("handler error counted", || stats.handler_errors() >= 1);
    assert_eq!(w.myproxy.store().len(), 0, "aborted PUT must not store anything");

    drop(push);
    let report = handle.join();
    assert!(report.drained);
    assert_eq!(w.myproxy.store().len(), 0);
}

#[test]
fn maximal_fragmentation_does_not_break_framing() {
    let w = GridWorld::new();
    let (push, handle) = w.myproxy.serve_local(tight_cfg()).unwrap();
    let mut rng = test_drbg("robust short reads");

    // One byte per server-side read call: the framing layer must
    // reassemble everything.
    let conn = dial_faulty(&push, |f| f.short_reads());
    w.myproxy_client
        .init(conn, &w.alice, &InitParams::new("alice", PASS), &mut rng, w.clock.now())
        .unwrap();
    assert_eq!(w.myproxy.store().len(), 1);

    drop(push);
    handle.join();
}

#[test]
fn periodic_sweep_purges_expired_credentials() {
    let w = GridWorld::new();
    let mut cfg = tight_cfg();
    cfg.sweep_interval = Some(Duration::from_millis(20));
    let (push, handle) = w.myproxy.serve_local(cfg).unwrap();
    let mut rng = test_drbg("robust sweep");

    let mut params = InitParams::new("alice", PASS);
    params.lifetime_secs = 100;
    w.myproxy_client.init(dial(&push), &w.alice, &params, &mut rng, w.clock.now()).unwrap();
    assert_eq!(w.myproxy.store().len(), 1);

    // Expire the credential; the accept thread's sweep collects it
    // without any client traffic.
    w.clock.advance(1_000);
    wait_until("sweep purge", || w.myproxy.store().len() == 0);
    // The sweep tallies after the store call returns, on its own thread.
    wait_until("purge tallied", || w.myproxy.stats().purged.get() >= 1);

    drop(push);
    handle.shutdown();
}

#[test]
fn info_path_purges_expired_credentials() {
    let w = GridWorld::new();
    let mut rng = test_drbg("robust info purge");

    let mut params = InitParams::new("alice", PASS);
    params.lifetime_secs = 100;
    w.myproxy_client
        .init(w.myproxy.connect_local(), &w.alice, &params, &mut rng, w.clock.now())
        .unwrap();
    let mut long = InitParams::new("alice", PASS);
    long.cred_name = Some("longlived".into());
    w.myproxy_client
        .init(w.myproxy.connect_local(), &w.alice, &long, &mut rng, w.clock.now())
        .unwrap();
    assert_eq!(w.myproxy.store().len(), 2);

    w.clock.advance(1_000); // first credential now expired
    let listed = w
        .myproxy_client
        .info(w.myproxy.connect_local(), &w.alice, "alice", PASS, &mut rng, w.clock.now())
        .unwrap();
    assert_eq!(listed.len(), 1, "INFO must not list the expired entry");
    assert_eq!(w.myproxy.store().len(), 1, "INFO purges, not just filters");
    assert!(w.myproxy.stats().purged.get() >= 1);
}

#[test]
fn local_handler_threads_are_joined_not_leaked() {
    let w = GridWorld::new();
    let cfg = ChannelConfig::new(vec![w.ca_cert.clone()]);
    let mut rng = test_drbg("robust drain");

    w.alice_init(PASS).unwrap();
    assert!(w.myproxy.drain_local_handlers() >= 1);

    storage::client::store(
        w.storage.connect_local(b"drain st"),
        &w.alice,
        &cfg,
        "drain.dat",
        b"x",
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    assert!(w.storage.drain_local_handlers() >= 1);

    job::client::submit(
        w.jobmanager.connect_local(b"drain jm"),
        &w.alice,
        &cfg,
        "drain-job",
        1,
        false,
        false,
        0,
        &mut rng,
        w.clock.now(),
    )
    .unwrap();
    assert!(w.jobmanager.drain_local_handlers() >= 1);
}

#[test]
fn metrics_scrape_during_load_shed_reports_shed_counter() {
    let w = GridWorld::new();
    let (push, acceptor) = accept_queue::<BoxedConn>();
    // Scoped into the portal's own registry, so the `/metrics` scrape
    // sees this pool's counters as `net.portal.plain.*`.
    let handle = net::serve_scoped(
        acceptor,
        w.portal.plain_service(),
        tight_cfg(),
        w.portal.obs(),
        "portal.plain",
    )
    .unwrap();
    let stats = handle.stats();

    // Fill the single slot, then overflow it: the extra connection is
    // refused with a real HTTP 503 and counted as shed.
    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);
    let mut refused = dial(&push);
    let mut raw = Vec::new();
    refused.read_to_end(&mut raw).unwrap();
    assert!(String::from_utf8_lossy(&raw).contains("503"));
    wait_until("shed counted", || stats.shed() >= 1);

    // Scrape through a dedicated handler thread (not the full pool):
    // load-shedding the login path must not blind the monitoring path.
    let mut browser = w.browser_plain("shed scraper");
    let body = expect_ok(browser.get("/metrics").unwrap()).unwrap();
    let snap = myproxy::obs::parse(&body.text()).expect("scrape parses mid-shed");
    assert!(*snap.counters.get("net.portal.plain.shed").unwrap() >= 1);
    assert_eq!(*snap.gauges.get("net.portal.plain.active").unwrap(), 1);

    let report = handle.shutdown();
    assert!(report.drained);
}

#[test]
fn retrying_client_rides_out_shedding_while_plain_client_sees_busy() {
    let w = GridWorld::new();
    let (push, handle) = w.myproxy.serve_local(tight_cfg()).unwrap();
    let stats = handle.stats();
    let mut rng = test_drbg("robust retry shed");

    // Store alice's credential while the single slot is free.
    w.myproxy_client
        .init(dial(&push), &w.alice, &InitParams::new("alice", PASS), &mut rng, w.clock.now())
        .unwrap();
    wait_until("init connection drained", || stats.active() == 0);

    // A half-open peer now occupies the only slot until the handshake
    // deadline (400 ms) evicts it.
    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    // A client without a retry policy surfaces the typed Busy at once.
    let plain = w.myproxy_client.get_delegation(
        dial(&push),
        &w.portal_cred,
        &GetParams::new("alice", PASS),
        &mut rng,
        w.clock.now(),
    );
    let Err(MyProxyError::Busy { retry_after_ms, .. }) = plain else {
        panic!("expected a typed busy refusal, got {plain:?}");
    };
    assert_eq!(retry_after_ms, Some(200));

    // A client with a retry policy re-dials after the hinted delay and
    // succeeds once the eviction frees the slot. GET is idempotent, so
    // the re-sends are safe by construction (`Repositories::call`
    // does not compile with a PUT-shaped request).
    let policy = RetryPolicy { max_attempts: 8, base_delay_ms: 50, max_delay_ms: 400, jitter_seed: 7 };
    let (delegated, attempts) = Repositories::new(vec![pool_connector(&push)], policy).call(
        &w.myproxy_client,
        &w.portal_cred,
        &GetParams::new("alice", PASS),
        &mut rng,
        w.clock.now(),
    );
    let delegated = delegated.expect("retrying client must ride out the shed window");
    assert!(attempts >= 2, "the first attempt was shed, so at least one retry was spent");
    assert!(delegated.subject().to_string().starts_with("/O=Grid/CN=alice/CN="));
    assert!(stats.shed() >= 1, "at least the plain client was shed");

    let report = handle.shutdown();
    assert!(report.drained);
}

#[test]
fn power_cut_mid_burst_preserves_acked_credentials_on_restart() {
    let w = GridWorld::new();
    let vfs = Arc::new(CrashVfs::new());
    w.myproxy
        .enable_durability_with(
            std::path::Path::new("/store"),
            vfs.clone(),
            WalConfig { compact_every: 0, ..WalConfig::default() },
        )
        .unwrap();
    let mut rng = test_drbg("robust crash burst");

    let init_named = |name: &str, rng: &mut myproxy::crypto::HmacDrbg| {
        let mut params = InitParams::new("alice", PASS);
        params.cred_name = Some(name.into());
        w.myproxy_client.init(w.myproxy.connect_local(), &w.alice, &params, rng, w.clock.now())
    };

    // Two PUTs land durably, then the "disk" dies one mutation into the
    // third (its journal append survives unsynced, the fsync never
    // happens — so the server must NOT have acked it).
    init_named("cred-0", &mut rng).unwrap();
    init_named("cred-1", &mut rng).unwrap();
    vfs.set_cut_after(vfs.mutations() + 1);

    let mut acked = vec!["cred-0", "cred-1"];
    for name in ["cred-2", "cred-3"] {
        match init_named(name, &mut rng) {
            Ok(_) => acked.push(name),
            Err(_) => break,
        }
    }
    assert_eq!(acked, ["cred-0", "cred-1"], "no ack may follow the power cut");

    // "Restart": recover a fresh store from the pessimistic crash image
    // (only fsynced bytes survived). Every acked credential must open;
    // the torn in-flight PUT must not resurrect as a corrupt entry.
    let restarted = CredStore::new(ServerPolicy::permissive().pbkdf2_iterations);
    let report = restarted
        .attach_durable(
            std::path::Path::new("/store"),
            Arc::new(CrashVfs::from_image(vfs.image_synced())),
            WalConfig { compact_every: 0, ..WalConfig::default() },
            &myproxy::obs::Registry::new(),
        )
        .unwrap();
    assert!(report.corrupt.is_empty(), "recovery must be clean: {:?}", report.corrupt);
    for name in &acked {
        restarted.open("alice", name, PASS).unwrap_or_else(|e| {
            panic!("acked credential {name} lost after power cut: {e}");
        });
    }
    assert_eq!(restarted.len(), acked.len(), "unacked PUT must not reappear");
}

#[test]
fn metrics_scrape_during_grace_drain_is_coherent() {
    let w = GridWorld::new();
    let (push, acceptor) = accept_queue::<BoxedConn>();
    let mut cfg = tight_cfg();
    // Long enough that the half-open handler is still in flight while
    // we scrape, short enough that the drain finishes inside the grace.
    cfg.handshake_deadline = Some(Duration::from_millis(800));
    let handle = net::serve_scoped(
        acceptor,
        w.portal.plain_service(),
        cfg,
        w.portal.obs(),
        "portal.drain",
    )
    .unwrap();
    let stats = handle.stats();

    let _half_open = dial_faulty(&push, |f| f.stall_after_read_frames(0));
    wait_until("half-open admitted", || stats.active() == 1);

    // Graceful shutdown on another thread: stops accepting, then waits
    // out the in-flight handler.
    let drainer = std::thread::spawn(move || handle.shutdown());

    // While the pool drains, the scrape must answer without hanging and
    // its numbers must be a coherent point-in-time view.
    let mut browser = w.browser_plain("drain scraper");
    let body = expect_ok(browser.get("/metrics").unwrap()).unwrap();
    let snap = myproxy::obs::parse(&body.text()).expect("scrape parses mid-drain");
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let accepted = c("net.portal.drain.accepted");
    assert!(accepted >= 1, "half-open connection was accepted");
    assert!(c("net.portal.drain.completed") <= accepted);
    assert!(c("net.portal.drain.shed") <= accepted);
    assert!(*snap.gauges.get("net.portal.drain.active").unwrap() <= 1);

    let report = drainer.join().unwrap();
    assert!(report.drained, "half-open peer evicted within the grace period");
}

#[test]
fn overload_loses_requests_never_updates() {
    let w = GridWorld::new();
    let vfs = Arc::new(CrashVfs::new());
    let dir = std::path::Path::new("/store");
    w.myproxy.enable_durability_with(dir, vfs.clone(), wal_cfg()).unwrap();
    // One worker, two slots: one connection in flight, one queued,
    // everything beyond that shed.
    let (push, handle) = w.myproxy.serve_local(NetConfig { max_connections: 2, ..tight_cfg() }).unwrap();
    let stats = handle.stats();
    let put = |name: &str, rng: &mut HmacDrbg| {
        let mut params = InitParams::new("alice", PASS);
        params.cred_name = Some(name.into());
        match w.myproxy_client.init(dial(&push), &w.alice, &params, rng, w.clock.now()) {
            Ok(_) => Some(name.to_string()),
            Err(MyProxyError::Busy { .. }) => None,
            Err(e) => panic!("PUT {name} under overload must be acked or shed, got {e}"),
        }
    };
    let mut acked: Vec<String> = put("seed", &mut test_drbg("overload seed")).into_iter().collect();
    assert_eq!(acked, ["seed"], "the idle pool serves the first PUT");
    wait_until("seed connection drained", || stats.active() == 0);

    // Two silent peers hold both slots (one pins the worker in its
    // handshake read, one sits in the queue), so every dial is shed
    // until they hang up: the sheds below are forced, not hoped for.
    let silent = [dial(&push), dial(&push)];
    wait_until("pool full", || stats.active() == 2 && stats.queue_depth() == 1);
    assert_eq!(put("lost", &mut test_drbg("overload lost")), None, "a PUT at the cap is shed, not queued");

    let burst = std::thread::scope(|s| {
        // Two readers under a retry policy: shed at the cap, they ride
        // BUSY out and are served once the pool has room.
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let (w, push) = (&w, &push);
                s.spawn(move || {
                    let policy =
                        RetryPolicy { max_attempts: 8, base_delay_ms: 50, max_delay_ms: 400, jitter_seed: t };
                    let mut g = GetParams::new("alice", PASS);
                    g.cred_name = Some("seed".into());
                    let mut rng = test_drbg(&format!("overload reader {t}"));
                    let (got, attempts) = Repositories::new(vec![pool_connector(push)], policy).call(
                        &w.myproxy_client,
                        &w.portal_cred,
                        &g,
                        &mut rng,
                        w.clock.now(),
                    );
                    got.expect("a retrying GET rides out the overload");
                    assert!(attempts >= 2, "the first attempt met a full pool");
                })
            })
            .collect();
        wait_until("readers shed", || stats.shed() >= 3);
        drop(silent);
        // Three closed-loop writers against the two slots, beside the
        // readers' retries. A shed PUT is a lost request: never
        // retried, on to the next name.
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let put = &put;
                s.spawn(move || {
                    let mut rng = test_drbg(&format!("overload writer {t}"));
                    (0..5).filter_map(|i| put(&format!("w{t}-{i}"), &mut rng)).collect::<Vec<_>>()
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        writers.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    acked.extend(burst);
    // The overload over, the pool drains and serves again.
    wait_until("queue drained", || stats.active() == 0 && stats.queue_depth() == 0);
    acked.extend(put("after", &mut test_drbg("overload after")));
    assert_eq!(acked.last().map(String::as_str), Some("after"), "an idle pool serves the next PUT");
    let report = handle.shutdown();
    assert!(report.drained, "pool should drain within the grace period");

    // Shed requests left nothing behind; every acked PUT is there,
    // opens, and is in the journal's synced image.
    assert_eq!(w.myproxy.store().len(), acked.len(), "a shed PUT must leave no entry");
    for name in &acked {
        w.myproxy.store().open("alice", name, PASS).unwrap_or_else(|e| {
            panic!("acked credential {name} lost under overload: {e}");
        });
    }
    let iters = ServerPolicy::permissive().pbkdf2_iterations;
    assert_eq!(replay_divergence(w.myproxy.store(), &vfs, dir, iters), None);
}

// ---------------------------------------------------------------------
// Replication & failover: a primary shipping its journal to a warm
// standby, promotion (explicit and heartbeat-timeout), epoch fencing
// of a restarted stale primary, and client-side repository-list
// failover. See `mp_myproxy::repl`.
// ---------------------------------------------------------------------

const PRIMARY_DIR: &str = "/primary";
const STANDBY_DIR: &str = "/standby";

fn wal_cfg() -> WalConfig {
    WalConfig { compact_every: 0, ..WalConfig::default() }
}

/// A replicated pair: the GridWorld repository as primary (CrashVfs
/// durability + a replication ring) and a second repository sharing
/// its service identity as standby, joined by a shipper whose dial can
/// be cut (`standby_up = false` → `ConnectionRefused`).
struct ReplPair {
    w: GridWorld,
    primary_vfs: Arc<CrashVfs>,
    standby: MyProxyServer,
    standby_vfs: Arc<CrashVfs>,
    standby_up: Arc<std::sync::atomic::AtomicBool>,
    shipper: Shipper,
}

fn repl_pair(ring_capacity: usize, takeover_timeout_secs: u64) -> ReplPair {
    use std::sync::atomic::{AtomicBool, Ordering};
    let w = GridWorld::new();
    let primary_vfs = Arc::new(CrashVfs::new());
    w.myproxy
        .enable_durability_with(std::path::Path::new(PRIMARY_DIR), primary_vfs.clone(), wal_cfg())
        .unwrap();
    w.myproxy
        .enable_replication(&ReplConfig { ring_capacity, takeover_timeout_secs: 0 })
        .unwrap();

    let standby = w.standby_repository(b"robust standby rng");
    let standby_vfs = Arc::new(CrashVfs::new());
    standby
        .enable_durability_with(std::path::Path::new(STANDBY_DIR), standby_vfs.clone(), wal_cfg())
        .unwrap();
    standby.configure_standby(&ReplConfig { ring_capacity, takeover_timeout_secs });

    let standby_up = Arc::new(AtomicBool::new(true));
    let connector: Connector = {
        let standby = standby.clone();
        let up = standby_up.clone();
        Arc::new(move || {
            if up.load(Ordering::SeqCst) {
                Ok(Box::new(standby.connect_local()) as BoxedTransport)
            } else {
                Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "standby down"))
            }
        })
    };
    let shipper = w.myproxy.shipper(connector);
    ReplPair { w, primary_vfs, standby, standby_vfs, standby_up, shipper }
}

/// PUT a named credential for alice against `server`.
fn init_named(
    p: &ReplPair,
    server: &MyProxyServer,
    name: &str,
    rng: &mut HmacDrbg,
) -> myproxy::myproxy::Result<u64> {
    let mut params = InitParams::new("alice", PASS);
    params.cred_name = Some(name.into());
    p.w.myproxy_client.init(server.connect_local(), &p.w.alice, &params, rng, p.w.clock.now())
}

fn sorted_entries(s: &MyProxyServer) -> Vec<StoredCredential> {
    let mut v = s.store().all_entries();
    v.sort_by(|a, b| (&a.username, &a.name).cmp(&(&b.username, &b.name)).then(std::cmp::Ordering::Equal));
    v
}

fn get_named(
    p: &ReplPair,
    server: &MyProxyServer,
    name: &str,
    rng: &mut HmacDrbg,
) -> myproxy::myproxy::Result<myproxy::gsi::Credential> {
    let mut g = GetParams::new("alice", PASS);
    g.cred_name = Some(name.into());
    p.w.myproxy_client.get_delegation(server.connect_local(), &p.w.portal_cred, &g, rng, p.w.clock.now())
}

#[test]
fn replication_ships_acked_puts_and_standby_serves_reads() {
    let p = repl_pair(64, 0);
    let mut rng = test_drbg("repl basic");
    let iters = ServerPolicy::permissive().pbkdf2_iterations;

    init_named(&p, &p.w.myproxy, "cred-0", &mut rng).unwrap();
    init_named(&p, &p.w.myproxy, "cred-1", &mut rng).unwrap();
    // First contact: the standby holds no acked position for this
    // stream, so every shard is bootstrapped by snapshot.
    let first = p.shipper.run_once().unwrap();
    assert_eq!(first.resyncs, p.w.myproxy.store().shard_count() as u64);

    // The standby converged to the primary's exact state, durably (its
    // own journal replays to the same thing it holds in memory).
    let assert_converged = || {
        assert_eq!(sorted_entries(&p.w.myproxy), sorted_entries(&p.standby));
        assert_eq!(
            replay_divergence(p.standby.store(), &p.standby_vfs, std::path::Path::new(STANDBY_DIR), iters),
            None
        );
    };
    assert_converged();

    // From then on shipping is incremental: the next PUT travels as a
    // journal frame and no shard is snapshotted again.
    let resyncs = p.w.myproxy.obs().counter("store.repl.resyncs");
    let after_first_contact = resyncs.get();
    init_named(&p, &p.w.myproxy, "cred-2", &mut rng).unwrap();
    let second = p.shipper.run_once().unwrap();
    assert!(second.shipped_records > 0, "the second pass must ship the PUT as a frame: {second:?}");
    assert_eq!(resyncs.get(), after_first_contact, "steady-state shipping must not resync");
    assert_converged();

    // Reads are served by the standby; both sides report role + epoch
    // over INFO.
    get_named(&p, &p.standby, "cred-0", &mut rng).unwrap();
    let once = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    let mut info_from = |server: &MyProxyServer| {
        Repositories::new(vec![GridWorld::myproxy_connector(server)], once)
            .call(&p.w.myproxy_client, &p.w.alice, &InfoParams::new("alice", PASS), &mut rng, p.w.clock.now())
            .0
            .unwrap()
    };
    let reply = info_from(&p.standby);
    assert_eq!(reply.creds.len(), 3);
    assert_eq!((reply.status.role.as_str(), reply.status.epoch), ("standby", 0));
    let reply = info_from(&p.w.myproxy);
    assert_eq!((reply.status.role.as_str(), reply.status.epoch), ("primary", 0));

    // The replication gauges ride the same registry the INFO METRICS=1
    // scrape serves, so an operator sees lag without a /metrics scrape.
    let (_, metrics) = p
        .w
        .myproxy_client
        .info_with_metrics(p.w.myproxy.connect_local(), &p.w.alice, "alice", PASS, &mut rng, p.w.clock.now())
        .unwrap();
    assert!(
        metrics.iter().any(|m| m.starts_with("store.repl.lag_records ")),
        "INFO METRICS=1 must carry the replication lag gauge: {metrics:?}"
    );

    // Mutations against the standby are refused with a role-bearing
    // message pointing the operator at the primary.
    let err = init_named(&p, &p.standby, "cred-3", &mut rng).unwrap_err();
    match err {
        MyProxyError::Refused(why) => assert!(why.contains("standby"), "got: {why}"),
        other => panic!("expected a role refusal, got {other:?}"),
    }
    assert_eq!(p.standby.store().len(), 3);
}

#[test]
fn shipper_outage_grows_lag_and_resync_converges_with_zero_divergence() {
    // A deliberately tiny ring so the outage overflows it and the
    // recovery pass exercises the full-shard snapshot resync.
    let p = repl_pair(2, 0);
    let mut rng = test_drbg("repl outage");
    let iters = ServerPolicy::permissive().pbkdf2_iterations;

    init_named(&p, &p.w.myproxy, "cred-0", &mut rng).unwrap();
    p.shipper.run_once().unwrap();
    let obs = p.w.myproxy.obs().clone();
    let lag = obs.gauge("store.repl.lag_records");
    assert_eq!(lag.get(), 0, "synced pair has zero lag");

    // Standby gone: the primary keeps acking — replication is async —
    // and the lag gauge exposes exactly how far behind the standby is.
    p.standby_up.store(false, std::sync::atomic::Ordering::SeqCst);
    for name in ["cred-1", "cred-2", "cred-3", "cred-4"] {
        init_named(&p, &p.w.myproxy, name, &mut rng).unwrap();
    }
    let errors_before = obs.counter("store.repl.ship_errors").get();
    assert!(p.shipper.run_once().is_err(), "shipping to a dead standby must fail");
    assert!(obs.counter("store.repl.ship_errors").get() > errors_before);
    // Each PUT journals one record, all of them now waiting for the
    // standby.
    assert_eq!(lag.get(), 4, "committed records await the standby");

    // Standby back: one pass converges through a snapshot resync, and
    // the standby's own journal agrees with what it now serves.
    p.standby_up.store(true, std::sync::atomic::Ordering::SeqCst);
    let resyncs_before = obs.counter("store.repl.resyncs").get();
    p.shipper.run_once().unwrap();
    assert!(obs.counter("store.repl.resyncs").get() > resyncs_before, "overflowed ring must resync");
    assert_eq!(lag.get(), 0, "lag drains after reconnect");
    assert_eq!(sorted_entries(&p.w.myproxy), sorted_entries(&p.standby));
    assert_eq!(
        replay_divergence(p.standby.store(), &p.standby_vfs, std::path::Path::new(STANDBY_DIR), iters),
        None
    );
}

#[test]
fn failover_promotes_standby_with_every_acked_put_and_fences_the_old_primary() {
    let p = repl_pair(64, 0);
    let mut rng = test_drbg("repl failover");

    // PUT burst, shipped after every ack; the primary's disk dies one
    // mutation into the fourth PUT — that PUT is never acked.
    let mut acked: Vec<&str> = Vec::new();
    for (i, name) in ["cred-0", "cred-1", "cred-2", "cred-3", "cred-4"].iter().enumerate() {
        if i == 3 {
            p.primary_vfs.set_cut_after(p.primary_vfs.mutations() + 1);
        }
        match init_named(&p, &p.w.myproxy, name, &mut rng) {
            Ok(_) => {
                acked.push(name);
                p.shipper.run_once().unwrap();
            }
            Err(_) => break,
        }
    }
    assert_eq!(acked, ["cred-0", "cred-1", "cred-2"], "the power cut must stop acks");

    // Explicit PROMOTE (the admin command, over the wire).
    let st = p
        .w
        .myproxy_client
        .promote(p.standby.connect_local(), &p.w.alice, &mut rng, p.w.clock.now())
        .unwrap();
    assert_eq!((st.role.as_str(), st.epoch), ("primary", 1));

    // 100% of acked PUTs are served by the promoted standby; the
    // un-acked one does not exist anywhere on it.
    for name in &acked {
        get_named(&p, &p.standby, name, &mut rng)
            .unwrap_or_else(|e| panic!("acked {name} not served after failover: {e}"));
    }
    assert_eq!(p.standby.store().len(), acked.len(), "no un-acked PUT may surface");

    // The promoted standby accepts mutations at the new epoch.
    init_named(&p, &p.standby, "cred-after-failover", &mut rng).unwrap();

    // Old-primary restart from its synced crash image: it still thinks
    // it is primary at epoch 0 and accepts a split-brain write...
    let old = p.w.standby_repository(b"robust old primary");
    old.enable_durability_with(
        std::path::Path::new(PRIMARY_DIR),
        Arc::new(CrashVfs::from_image(p.primary_vfs.image_synced())),
        wal_cfg(),
    )
    .unwrap();
    old.enable_replication(&ReplConfig::default()).unwrap();
    assert_eq!(old.replication_status(), (Role::Primary, 0));
    init_named(&p, &old, "cred-rogue", &mut rng).unwrap();

    // ...but its first shipping attempt is fenced by the standby's
    // newer epoch: the stale tail is rejected and the old primary
    // demotes itself durably instead of overwriting the new primary.
    let standby = p.standby.clone();
    let old_shipper =
        old.shipper(Arc::new(move || Ok(Box::new(standby.connect_local()) as BoxedTransport)));
    let report = old_shipper.run_once().unwrap();
    assert!(report.demoted, "stale shipper must come back demoted");
    assert_eq!(old.replication_status(), (Role::Standby, 1));
    assert!(
        !p.standby.store().all_entries().iter().any(|e| e.name == "cred-rogue"),
        "stale-epoch tail must never reach the promoted primary"
    );
    // And once demoted, the old primary refuses further mutations.
    assert!(init_named(&p, &old, "cred-rogue-2", &mut rng).is_err());
}

#[test]
fn standby_auto_promotes_on_shipper_heartbeat_timeout() {
    let p = repl_pair(16, 30);
    let mut rng = test_drbg("repl auto promote");

    init_named(&p, &p.w.myproxy, "cred-0", &mut rng).unwrap();
    p.shipper.run_once().unwrap(); // establishes shipper contact

    // Contact is fresh: no takeover.
    p.w.clock.advance(10);
    assert!(!p.standby.check_auto_promote());
    assert_eq!(p.standby.replication_status(), (Role::Standby, 0));

    // Primary silent past the timeout: the standby declares it lost
    // and takes over at a new epoch.
    p.w.clock.advance(31);
    assert!(p.standby.check_auto_promote());
    assert_eq!(p.standby.replication_status(), (Role::Primary, 1));
    init_named(&p, &p.standby, "cred-1", &mut rng).unwrap();
}

#[test]
fn client_fails_over_across_a_repository_list() {
    let p = repl_pair(64, 0);
    let mut rng = test_drbg("repl client failover");
    init_named(&p, &p.w.myproxy, "cred-0", &mut rng).unwrap();
    p.shipper.run_once().unwrap();

    let dead: Connector = Arc::new(|| {
        Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "primary down"))
    });
    let standby_conn = GridWorld::myproxy_connector(&p.standby);
    let primary_conn = GridWorld::myproxy_connector(&p.w.myproxy);
    let quick = RetryPolicy { max_attempts: 4, base_delay_ms: 1, max_delay_ms: 2, jitter_seed: 7 };

    // GET and INFO are idempotent: they fail over freely past the dead
    // repository to the standby.
    let mut g = GetParams::new("alice", PASS);
    g.cred_name = Some("cred-0".into());
    let past_dead = Repositories::new(vec![dead.clone(), standby_conn.clone()], quick);
    let (got, attempts) = past_dead.call(&p.w.myproxy_client, &p.w.portal_cred, &g, &mut rng, p.w.clock.now());
    got.unwrap();
    assert_eq!(attempts, 2, "one refused dial, then the standby answered");
    let (reply, attempts) =
        past_dead.call(&p.w.myproxy_client, &p.w.alice, &InfoParams::new("alice", PASS), &mut rng, p.w.clock.now());
    let reply = reply.unwrap();
    assert_eq!(reply.creds.len(), 1);
    assert_eq!((attempts, reply.status.role.as_str()), (2, "standby"), "the reply names who answered");

    // PUT fails over only on connect-refused (nothing was sent yet)...
    let mut params = InitParams::new("alice", PASS);
    params.cred_name = Some("cred-put".into());
    let put = |repos: Repositories, params: &InitParams, rng: &mut myproxy::crypto::HmacDrbg| {
        repos.call_once(|t| p.w.myproxy_client.init(t, &p.w.alice, params, rng, p.w.clock.now()))
    };
    let (stored, dials) = put(Repositories::new(vec![dead.clone(), primary_conn.clone()], quick), &params, &mut rng);
    stored.unwrap();
    assert_eq!(dials, 2);
    assert!(p.w.myproxy.store().all_entries().iter().any(|e| e.name == "cred-put"));

    // ...never once a request is in flight: the standby accepts the
    // dial, refuses the PUT, and that error surfaces — no second PUT
    // is attempted against the next repository in the list.
    let mut params = InitParams::new("alice", PASS);
    params.cred_name = Some("cred-no-retry".into());
    let (refused, dials) = put(Repositories::new(vec![standby_conn, primary_conn], quick), &params, &mut rng);
    let err = refused.unwrap_err();
    assert!(matches!(err, MyProxyError::Refused(_)), "got: {err:?}");
    assert_eq!(dials, 1, "the primary is never dialled");
    assert!(
        !p.w.myproxy.store().all_entries().iter().any(|e| e.name == "cred-no-retry"),
        "an in-flight PUT must not be replayed against the next repository"
    );
}
