//! End-to-end coverage of the mp-obs layer: every service feeds one
//! registry scheme, the portal exposes `GET /metrics`, and the GSI
//! `INFO` command returns the repository's metrics when asked.
//!
//! Span histograms (`gsi.*`, `crypto.*`, `store.*`) land in the
//! process-global ambient registry which every scrape merges in, so
//! assertions on them are `>=` — other tests in this binary may run
//! concurrently and record into the same histograms.

use myproxy::obs;
use myproxy::portal::browser::expect_ok;
use myproxy::testkit::GridWorld;
use myproxy::x509::test_util::test_drbg;
use myproxy::x509::Clock;

#[test]
fn portal_metrics_scrape_reports_request_latency() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();

    let mut browser = w.browser("scraper");
    expect_ok(browser.login("alice", "correct horse battery").unwrap()).unwrap();
    expect_ok(browser.get("/whoami").unwrap()).unwrap();

    let body = expect_ok(browser.get("/metrics").unwrap()).unwrap();
    let snap = obs::parse(&body.text()).expect("scrape body parses");

    // The portal's own request counters: login + whoami + this scrape.
    assert!(*snap.counters.get("portal.requests").unwrap() >= 3);
    let req = snap.histograms.get("portal.request").expect("request histogram");
    // The scrape request itself is still in flight (its timer records
    // on drop, after the body renders), so only login + whoami count.
    assert!(req.count >= 2);
    assert!(req.max >= req.p99());
    assert!(req.p50() <= req.p99());

    // Login drove a GSI handshake against the repository, so the
    // ambient span histograms must be merged into the scrape.
    let hs = snap
        .histograms
        .get("gsi.handshake.client")
        .expect("handshake span histogram in scrape");
    assert!(hs.count >= 1);
    assert!(snap.histograms.contains_key("crypto.rsa.sign"));
}

#[test]
fn metrics_scrape_needs_no_session() {
    let w = GridWorld::new();
    let mut browser = w.browser("anon scraper");
    let body = expect_ok(browser.get("/metrics").unwrap()).unwrap();
    let snap = obs::parse(&body.text()).expect("anonymous scrape parses");
    // Exactly this one request so far.
    assert!(*snap.counters.get("portal.requests").unwrap() >= 1);
}

#[test]
fn info_command_returns_repository_metrics() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();

    let mut rng = test_drbg("info metrics");
    let (infos, metrics) = w
        .myproxy_client
        .info_with_metrics(
            w.myproxy.connect_local(),
            &w.alice,
            "alice",
            "correct horse battery",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    assert_eq!(infos.len(), 1);
    assert!(!metrics.is_empty(), "METRICS=1 must return METRIC fields");

    // The init PUT and this INFO both went through serve_channel.
    let puts = metrics
        .iter()
        .find(|l| l.starts_with("myproxy.puts "))
        .expect("puts counter line");
    assert_eq!(puts.trim(), "myproxy.puts 1");
    let req = metrics
        .iter()
        .find(|l| l.starts_with("myproxy.request "))
        .expect("request histogram line");
    // Compact histogram form carries the percentiles.
    for key in ["count=", "sum=", "max=", "p50=", "p90=", "p99="] {
        assert!(req.contains(key), "{req:?} missing {key}");
    }
    // The PUT stored a credential, so the store.put span must be
    // visible through the repository's merged snapshot too.
    assert!(metrics.iter().any(|l| l.starts_with("store.put ")));
}

#[test]
fn durable_server_reports_wal_metrics_through_info() {
    let w = GridWorld::new();
    let vfs = std::sync::Arc::new(myproxy::myproxy::wal::CrashVfs::new());
    w.myproxy
        .enable_durability_with(
            std::path::Path::new("/store"),
            vfs,
            myproxy::myproxy::wal::WalConfig {
                compact_every: 1,
                ..myproxy::myproxy::wal::WalConfig::default()
            },
        )
        .unwrap();
    w.alice_init("correct horse battery").unwrap();

    let scrape = |seed: &str| -> Vec<String> {
        let mut rng = test_drbg(seed);
        let (_, metrics) = w
            .myproxy_client
            .info_with_metrics(
                w.myproxy.connect_local(),
                &w.alice,
                "alice",
                "correct horse battery",
                &mut rng,
                w.clock.now(),
            )
            .unwrap();
        metrics
    };
    let counter = |metrics: &[String], name: &str| -> u64 {
        metrics
            .iter()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing counter {name} in {metrics:?}"))
    };

    // The PUT journals one record — the whole entry, owner included —
    // fsynced before the ack; compact_every=1 folds the journal into a
    // snapshot after each commit.
    let metrics = scrape("wal metrics");
    assert_eq!(counter(&metrics, "store.wal.appends"), 1);
    assert!(counter(&metrics, "store.wal.fsyncs") >= 1);
    assert_eq!(counter(&metrics, "store.wal.compactions"), 1);
    assert_eq!(counter(&metrics, "store.wal.replayed"), 0);
    assert_eq!(counter(&metrics, "store.wal.truncated_tail"), 0);
    assert_eq!(counter(&metrics, "store.load.corrupt"), 0);

    // A renewable deposit is still one record: the renewal copy rides
    // the same upsert.
    let mut params = myproxy::myproxy::client::InitParams::new("alice", "correct horse battery");
    params.renewer = Some("/O=Grid/CN=condor".into());
    w.myproxy_client
        .init(
            w.myproxy.connect_local(),
            &w.alice,
            &params,
            &mut test_drbg("renewable init"),
            w.clock.now(),
        )
        .unwrap();
    let metrics = scrape("wal metrics 2");
    assert_eq!(counter(&metrics, "store.wal.appends"), 2);
    assert_eq!(counter(&metrics, "store.wal.compactions"), 2);
}

#[test]
fn plain_info_omits_metrics() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();
    let mut rng = test_drbg("plain info");
    let infos = w
        .myproxy_client
        .info(
            w.myproxy.connect_local(),
            &w.alice,
            "alice",
            "correct horse battery",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    assert_eq!(infos.len(), 1);
}

#[test]
fn delegation_round_trip_lands_in_span_histograms() {
    let w = GridWorld::new();
    w.alice_init("correct horse battery").unwrap();

    // Figure 2: retrieve a delegated proxy from the repository.
    let mut rng = test_drbg("obs get");
    let cred = w
        .myproxy_client
        .get_delegation(
            w.myproxy.connect_local(),
            &w.portal_cred,
            &myproxy::myproxy::client::GetParams::new("alice", "correct horse battery"),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    assert!(!cred.chain().is_empty());

    // Figure 3: one portal login, which drives a GET on alice's behalf.
    let mut browser = w.browser("obs spans");
    expect_ok(browser.login("alice", "correct horse battery").unwrap()).unwrap();

    // The span catalogue: every latency histogram the docs and the
    // benchmark's per-layer metrics name. A renamed span fails here,
    // not as a silently empty dashboard.
    let snap = obs::global()
        .snapshot()
        .merged(&w.myproxy.obs().snapshot())
        .merged(&w.portal.obs().snapshot());
    for name in [
        "gsi.handshake.client",
        "gsi.handshake.server",
        "gsi.handshake.validate",
        "gsi.handshake.kex",
        "gsi.delegate.issue",
        "gsi.delegate.accept",
        "crypto.rsa.sign",
        "crypto.rsa.verify",
        "crypto.rsa.keygen",
        "store.put",
        "store.open",
        "myproxy.request",
        "portal.request",
    ] {
        let h = snap.histograms.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count >= 1, "{name} never recorded");
        assert!(h.p99() <= h.max, "{name}: p99 above max");
    }
}
