//! The live fixture and the open-loop runner.
//!
//! [`Fixture`] stands up a real repository behind the bounded worker
//! pool (`serve_local`, the same accept/shed/deadline machinery TCP
//! uses), a durable store journaling into an in-memory [`CrashVfs`],
//! and a Grid portal whose repository connector dials *through the
//! pool* — so a portal login competes for the same worker slots as
//! direct client traffic and experiences the same BUSY shedding.
//!
//! [`run`] executes a [`Plan`] open-loop: a stripe of injector threads
//! dispatches each operation at its scheduled arrival time regardless
//! of how long earlier operations took. When the server falls behind,
//! arrivals keep coming — queue depth grows, the pool sheds, GETs
//! retry — and all of it lands in the run's metrics instead of being
//! hidden by client backpressure. Injectors that themselves fall
//! behind schedule increment a `late` counter, making coordinated
//! omission measurable rather than silent.

use crate::plan::{user_name, user_pw, OpKind, Plan};
use mp_crypto::HmacDrbg;
use mp_gsi::net::{NetConfig, QueuePusher, ShutdownHandle};
use mp_gsi::transport::{BoxedTransport, Connector};
use mp_gsi::Credential;
use mp_myproxy::client::{GetParams, InfoParams, InitParams, Repositories, RetryPolicy};
use mp_myproxy::wal::{CrashVfs, WalConfig};
use mp_myproxy::{MyProxyClient, MyProxyServer, ServerPolicy};
use mp_obs::{Histogram, HistogramSnapshot, Registry};
use mp_portal::browser::BrowserMode;
use mp_portal::portal::{GridPortal, PortalConfig};
use mp_portal::Browser;
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{Certificate, CertificateAuthority, Clock, Dn, SimClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual mount point of the durable store inside the crash VFS.
pub const STORE_DIR: &str = "/loadgen-store";

/// Server-side shape of the fixture.
#[derive(Clone, Debug)]
pub struct FixtureConfig {
    /// Pool worker threads.
    pub workers: usize,
    /// Admission cap (queued + in flight) before BUSY shedding.
    pub max_connections: usize,
    /// Simulated user population; every user is pre-seeded with one
    /// stored credential so GETs always have something to retrieve.
    pub users: u32,
}

impl Default for FixtureConfig {
    fn default() -> Self {
        FixtureConfig { workers: 4, max_connections: 32, users: 16 }
    }
}

/// A live in-process grid: repository behind the bounded pool, durable
/// store on a crash-consistent VFS, portal routed through the pool.
pub struct Fixture {
    /// The repository.
    pub server: MyProxyServer,
    /// The journal's backing VFS (the soak oracle replays its synced
    /// image).
    pub vfs: Arc<CrashVfs>,
    /// Client pinned to the repository identity.
    pub client: MyProxyClient,
    /// The credential every simulated user presents (identity does not
    /// matter under the permissive policy; usernames partition the
    /// store).
    pub user_cred: Credential,
    /// Trust roots.
    pub roots: Vec<Certificate>,
    /// The portal (its MyProxy connector dials through the pool).
    pub portal: Arc<GridPortal>,
    /// Simulated clock (time does not advance during a run).
    pub clock: SimClock,
    /// PBKDF2 iterations the store seals with (needed by the replay
    /// oracle).
    pub pbkdf2_iters: u32,
    push: Arc<QueuePusher<mp_gsi::net::BoxedConn>>,
    pool: Option<ShutdownHandle>,
    config: FixtureConfig,
}

impl Fixture {
    /// Stand the world up and pre-seed one credential per user (the
    /// seeding PUTs run outside the pool so they do not perturb shed
    /// counters).
    pub fn new(config: FixtureConfig) -> Fixture {
        let clock = SimClock::new(mp_x509::time::HPDC_2001);
        let mut ca = CertificateAuthority::new_root(
            Dn::parse("/O=Grid/CN=Loadgen CA").expect("static DN"),
            test_rsa_key(0).clone(),
            0,
            mp_x509::time::HPDC_2001 + 10 * 365 * 24 * 3600,
        )
        .expect("root CA");
        let expiry = mp_x509::time::HPDC_2001 + 365 * 24 * 3600;
        let mut mk = |idx: usize, dn_str: &str| {
            let key = test_rsa_key(idx);
            let d = Dn::parse(dn_str).expect("static DN");
            let cert = ca.issue_end_entity(&d, key.public_key(), 0, expiry).expect("issue");
            Credential::new(vec![cert], key.clone()).expect("credential")
        };
        let user_cred = mk(1, "/O=Grid/CN=loadgen-user");
        let portal_cred = mk(3, "/O=Grid/OU=SDSC/CN=portal.sdsc.edu");
        let myproxy_dn = "/O=Grid/OU=NCSA/CN=myproxy.ncsa.edu";
        let myproxy_cred = mk(4, myproxy_dn);
        let roots = vec![ca.certificate().clone()];

        let server = MyProxyServer::new(
            myproxy_cred,
            roots.clone(),
            ServerPolicy::permissive(),
            Arc::new(clock.clone()),
            HmacDrbg::new(b"loadgen myproxy seed"),
        );
        let pbkdf2_iters = ServerPolicy::permissive().pbkdf2_iterations;
        let vfs = Arc::new(CrashVfs::new());
        server
            .enable_durability_with(
                Path::new(STORE_DIR),
                vfs.clone(),
                WalConfig { compact_every: 0, group_commit: true },
            )
            .expect("attach durable store");

        let net = NetConfig {
            workers: config.workers,
            max_connections: config.max_connections,
            ..NetConfig::default()
        };
        let (push, pool) = server.serve_local(net).expect("serve pool");
        let push = Arc::new(push);

        let client = MyProxyClient::new(roots.clone(), Some(Dn::parse(myproxy_dn).expect("DN")));
        let pool_connector = Self::connector_via(&push);
        let portal = Arc::new(GridPortal::new(PortalConfig {
            credential: portal_cred,
            trust_roots: roots.clone(),
            myproxy: pool_connector,
            myproxy_identity: Some(Dn::parse(myproxy_dn).expect("DN")),
            jobmanager: None,
            storage: None,
            clock: Arc::new(clock.clone()),
            require_tls: true,
            rng: HmacDrbg::new(b"loadgen portal seed"),
        }));

        let fixture = Fixture {
            server,
            vfs,
            client,
            user_cred,
            roots,
            portal,
            clock,
            pbkdf2_iters,
            push,
            pool: Some(pool),
            config,
        };
        fixture.seed_users();
        fixture
    }

    fn connector_via(push: &Arc<QueuePusher<mp_gsi::net::BoxedConn>>) -> Connector {
        let push = push.clone();
        Arc::new(move || {
            let (client_end, server_end) = mp_gsi::duplex();
            push.push(Box::new(server_end))?;
            Ok(Box::new(client_end) as BoxedTransport)
        })
    }

    /// A connector dialing the repository through the bounded pool —
    /// every connection competes for worker slots and can be shed.
    pub fn pool_connector(&self) -> Connector {
        Self::connector_via(&self.push)
    }

    /// Dial one pooled connection.
    pub fn dial(&self) -> std::io::Result<BoxedTransport> {
        let (client_end, server_end) = mp_gsi::duplex();
        self.push.push(Box::new(server_end))?;
        Ok(Box::new(client_end) as BoxedTransport)
    }

    /// A browser pointed at the portal over HTTPS-sim; each portal
    /// connection gets a dedicated handler thread, and the portal's
    /// backend GET rides the bounded pool.
    pub fn browser(&self, label: &str) -> Browser {
        let portal = self.portal.clone();
        let connector: Connector = Arc::new(move || {
            let (client_end, server_end) = mp_gsi::duplex();
            let portal = portal.clone();
            std::thread::spawn(move || {
                let _ = portal.serve_tls(server_end, None);
            });
            Ok(Box::new(client_end) as BoxedTransport)
        });
        Browser::new(
            connector,
            BrowserMode::Tls { roots: self.roots.clone(), expected: None },
            test_drbg(label),
            self.clock.now(),
        )
    }

    /// One seeding PUT per user, via direct (unpooled) connections.
    fn seed_users(&self) {
        let now = self.clock.now();
        for u in 0..self.config.users {
            let mut rng = test_drbg(&format!("seed-user-{u}"));
            let uname = user_name(u);
            let pw = user_pw(u);
            self.client
                .init(
                    self.server.connect_local(),
                    &self.user_cred,
                    &InitParams::new(&uname, &pw),
                    &mut rng,
                    now,
                )
                .unwrap_or_else(|e| panic!("seeding user {u} failed: {e}"));
        }
        self.server.drain_local_handlers();
    }

    /// Current pool counters, read live from the server registry (the
    /// registry interns by name, so these are the pool's own cells).
    pub fn net_shed(&self) -> u64 {
        self.server.obs().counter("net.myproxy.shed").get()
    }
    /// Connections the pool accepted.
    pub fn net_accepted(&self) -> u64 {
        self.server.obs().counter("net.myproxy.accepted").get()
    }
    /// Live worker-queue depth.
    pub fn net_queue_depth(&self) -> u64 {
        self.server.obs().gauge("net.myproxy.queue_depth").get()
    }

    /// Drain the pool and every detached handler: after this returns no
    /// server-side mutation is in flight, so store and journal are
    /// stable for the soak oracle.
    pub fn quiesce(&mut self) {
        self.server.drain_local_handlers();
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }

    /// The soak oracle: replay the synced journal image and diff
    /// against the live store. `None` = zero lost updates. Call after
    /// [`quiesce`](Self::quiesce).
    pub fn soak_divergence(&self) -> Option<String> {
        mp_myproxy::testutil::replay_divergence(
            self.server.store(),
            &self.vfs,
            Path::new(STORE_DIR),
            self.pbkdf2_iters,
        )
    }

    /// Stored entries currently live.
    pub fn store_entries(&self) -> usize {
        self.server.store().len()
    }
}

/// Client-side knobs for one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Injector threads dispatching the schedule.
    pub injectors: usize,
    /// Retry policy for idempotent ops (GET/INFO). PUT never retries —
    /// there is no retrying PUT path at all.
    pub retry: RetryPolicy,
    /// Global retry budget for the whole run: the total number of
    /// *extra* attempts the run may spend riding out BUSY. Caps
    /// retry-storm amplification of offered load.
    pub retry_budget: u64,
    /// Dispatch later than this after the scheduled arrival counts as
    /// `late` (the open-loop generator itself falling behind).
    pub late_tolerance_us: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            injectors: 8,
            // Fast retries for in-process runs: cap below the server's
            // 200 ms retry-after hint so tests stay quick.
            retry: RetryPolicy { max_attempts: 3, base_delay_ms: 2, max_delay_ms: 20, jitter_seed: 1 },
            retry_budget: 64,
            late_tolerance_us: 2_000,
        }
    }
}

/// Global retry-token pool.
struct RetryBudget {
    left: AtomicU64,
}

impl RetryBudget {
    fn new(tokens: u64) -> RetryBudget {
        RetryBudget { left: AtomicU64::new(tokens) }
    }

    /// Take up to `want` tokens; returns how many were granted.
    fn reserve(&self, want: u64) -> u64 {
        let mut granted = 0;
        let _ = self.left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            granted = cur.min(want);
            Some(cur - granted)
        });
        granted
    }

    /// Return unused tokens.
    fn release(&self, n: u64) {
        self.left.fetch_add(n, Ordering::Relaxed);
    }
}

/// Terminal classification of one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpOutcome {
    Ok,
    Busy,
    Error,
}

/// Per-kind tallies of a finished run.
#[derive(Clone, Debug)]
pub struct KindStats {
    /// The op kind.
    pub kind: OpKind,
    /// Operations dispatched.
    pub issued: u64,
    /// Completed successfully (possibly after retries).
    pub ok: u64,
    /// Terminally shed: BUSY after the retry allowance ran out (or
    /// immediately, for non-retried kinds).
    pub busy: u64,
    /// Any other failure.
    pub errors: u64,
    /// Extra attempts spent riding out BUSY/transient errors.
    pub retries: u64,
    /// Latency of successful operations.
    pub latency: HistogramSnapshot,
}

/// Everything measured in one fixed-rate run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Wall-clock duration of the dispatch phase.
    pub elapsed_s: f64,
    /// Total operations dispatched.
    pub issued: u64,
    /// Successes.
    pub ok: u64,
    /// Terminal BUSY.
    pub busy: u64,
    /// Other errors.
    pub errors: u64,
    /// Total retries spent (≤ the configured budget).
    pub retries: u64,
    /// Dispatches later than the tolerance — the generator itself
    /// falling behind schedule (coordinated-omission indicator).
    pub late: u64,
    /// Successful ops per second of elapsed time.
    pub achieved_rps: f64,
    /// Latency over all successful operations.
    pub overall: HistogramSnapshot,
    /// Per-kind breakdown, in [`OpKind::ALL`] order.
    pub per_kind: Vec<KindStats>,
    /// Pool sheds during the run (server side).
    pub shed: u64,
    /// Pool accepts during the run (server side).
    pub accepted: u64,
    /// Worker-queue depth when the run ended (should drain to 0 after
    /// quiesce).
    pub queue_depth_end: u64,
}

impl RunOutcome {
    /// Shed fraction: sheds per accepted connection.
    pub fn shed_rate(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.shed as f64 / self.accepted as f64
        }
    }
}

struct RunMetrics {
    registry: Registry,
    late: AtomicU64,
}

impl RunMetrics {
    fn new() -> RunMetrics {
        RunMetrics { registry: Registry::new(), late: AtomicU64::new(0) }
    }

    fn hist(&self, kind: OpKind) -> Histogram {
        self.registry.histogram(&format!("loadgen.{}", kind.name()))
    }

    fn overall(&self) -> Histogram {
        self.registry.histogram("loadgen.op")
    }

    fn count(&self, kind: OpKind, which: &str) -> mp_obs::Counter {
        self.registry.counter(&format!("loadgen.{}.{which}", kind.name()))
    }
}

/// Execute `plan` against `fixture` open-loop. Returns the measured
/// outcome; the fixture stays up (callers quiesce it before the soak
/// check).
pub fn run(fixture: &Fixture, plan: &Plan, cfg: &RunConfig) -> RunOutcome {
    let metrics = RunMetrics::new();
    let budget = RetryBudget::new(cfg.retry_budget);
    let shed_before = fixture.net_shed();
    let accepted_before = fixture.net_accepted();
    let injectors = cfg.injectors.max(1);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..injectors {
            let metrics = &metrics;
            let budget = &budget;
            scope.spawn(move || {
                for (i, op) in plan.ops.iter().enumerate() {
                    if i % injectors != lane {
                        continue;
                    }
                    let target = Duration::from_micros(op.at_micros);
                    let now = start.elapsed();
                    if now < target {
                        std::thread::sleep(target - now);
                    } else if now - target > Duration::from_micros(cfg.late_tolerance_us) {
                        metrics.late.fetch_add(1, Ordering::Relaxed);
                    }
                    execute_one(fixture, plan, cfg, metrics, budget, i, op.user, op.kind);
                }
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let snap = |kind: OpKind, which: &str| metrics.count(kind, which).get();
    let per_kind: Vec<KindStats> = OpKind::ALL
        .iter()
        .map(|&kind| KindStats {
            kind,
            issued: snap(kind, "issued"),
            ok: snap(kind, "ok"),
            busy: snap(kind, "busy"),
            errors: snap(kind, "error"),
            retries: snap(kind, "retries"),
            latency: metrics.hist(kind).snapshot(),
        })
        .collect();
    let sum = |f: fn(&KindStats) -> u64| per_kind.iter().map(f).sum::<u64>();
    let ok = sum(|k| k.ok);
    RunOutcome {
        elapsed_s,
        issued: sum(|k| k.issued),
        ok,
        busy: sum(|k| k.busy),
        errors: sum(|k| k.errors),
        retries: sum(|k| k.retries),
        late: metrics.late.load(Ordering::Relaxed),
        achieved_rps: if elapsed_s > 0.0 { ok as f64 / elapsed_s } else { 0.0 },
        overall: metrics.overall().snapshot(),
        per_kind,
        shed: fixture.net_shed().saturating_sub(shed_before),
        accepted: fixture.net_accepted().saturating_sub(accepted_before),
        queue_depth_end: fixture.net_queue_depth(),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_one(
    fixture: &Fixture,
    plan: &Plan,
    cfg: &RunConfig,
    metrics: &RunMetrics,
    budget: &RetryBudget,
    index: usize,
    user: u32,
    kind: OpKind,
) {
    metrics.count(kind, "issued").inc();
    let started = Instant::now();
    let (outcome, retries) = match kind {
        OpKind::Put => (do_put(fixture, plan, index, user), 0),
        OpKind::Get => do_idempotent(fixture, plan, cfg, budget, index, user, false),
        OpKind::Info => do_idempotent(fixture, plan, cfg, budget, index, user, true),
        OpKind::PortalLogin => (do_portal_login(fixture, index, user), 0),
    };
    metrics.count(kind, "retries").add(retries);
    match outcome {
        OpOutcome::Ok => {
            metrics.count(kind, "ok").inc();
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.hist(kind).record(us);
            metrics.overall().record(us);
        }
        OpOutcome::Busy => metrics.count(kind, "busy").inc(),
        OpOutcome::Error => metrics.count(kind, "error").inc(),
    }
}

fn op_rng(plan: &Plan, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        plan.config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

fn classify(e: &mp_myproxy::MyProxyError) -> OpOutcome {
    if e.is_busy() {
        OpOutcome::Busy
    } else {
        OpOutcome::Error
    }
}

/// PUT: one attempt, ever. Deposits are not idempotent from the
/// client's vantage point (a retry could double-journal a deposit it
/// cannot confirm), so a shed PUT surfaces as BUSY to the caller.
fn do_put(fixture: &Fixture, plan: &Plan, index: usize, user: u32) -> OpOutcome {
    let mut rng = op_rng(plan, index);
    let uname = user_name(user);
    let pw = user_pw(user);
    let transport = match fixture.dial() {
        Ok(t) => t,
        Err(_) => return OpOutcome::Error,
    };
    match fixture.client.init(
        transport,
        &fixture.user_cred,
        &InitParams::new(&uname, &pw),
        &mut rng,
        fixture.clock.now(),
    ) {
        Ok(_) => OpOutcome::Ok,
        Err(e) => classify(&e),
    }
}

/// GET/INFO: idempotent, retried under the run's global budget. Each
/// op reserves at most `max_attempts - 1` tokens up front and returns
/// what it does not spend, so total retries across the run can never
/// exceed the budget.
fn do_idempotent(
    fixture: &Fixture,
    plan: &Plan,
    cfg: &RunConfig,
    budget: &RetryBudget,
    index: usize,
    user: u32,
    info: bool,
) -> (OpOutcome, u64) {
    let mut rng = op_rng(plan, index);
    let uname = user_name(user);
    let pw = user_pw(user);
    let now = fixture.clock.now();
    let want = u64::from(cfg.retry.max_attempts.saturating_sub(1));
    let reserved = budget.reserve(want);
    let policy = RetryPolicy {
        max_attempts: 1 + u32::try_from(reserved).unwrap_or(u32::MAX),
        ..cfg.retry
    };
    let repos = Repositories::new(vec![fixture.pool_connector()], policy);
    let (client, cred) = (&fixture.client, &fixture.user_cred);
    let (result, attempts) = if info {
        let (r, n) = repos.call(client, cred, &InfoParams::new(&uname, &pw), &mut rng, now);
        (r.map(drop), n)
    } else {
        let (r, n) = repos.call(client, cred, &GetParams::new(&uname, &pw), &mut rng, now);
        (r.map(drop), n)
    };
    let spent = u64::from(attempts.saturating_sub(1));
    budget.release(reserved.saturating_sub(spent));
    let outcome = match result {
        Ok(()) => OpOutcome::Ok,
        Err(e) => classify(&e),
    };
    (outcome, spent)
}

/// Portal round trip: login (the portal GETs a delegation through the
/// pool on the user's behalf) then logout.
fn do_portal_login(fixture: &Fixture, index: usize, user: u32) -> OpOutcome {
    let mut b = fixture.browser(&format!("lg-browser-{index}"));
    let uname = user_name(user);
    let pw = user_pw(user);
    match b.login(&uname, &pw) {
        Ok(resp) if resp.status == 200 => {
            let _ = b.logout();
            OpOutcome::Ok
        }
        Ok(resp) => {
            if resp.text().to_ascii_lowercase().contains("busy") {
                OpOutcome::Busy
            } else {
                OpOutcome::Error
            }
        }
        Err(e) => {
            if format!("{e}").to_ascii_lowercase().contains("busy") {
                OpOutcome::Busy
            } else {
                OpOutcome::Error
            }
        }
    }
}
