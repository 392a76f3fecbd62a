//! The system under test as deployed: PEM files on disk, the shipped
//! `myproxy-server` binary as a child process with a durable store on
//! the real filesystem, clients dialing over loopback TCP exactly as
//! `mp_cli` does, and (where a workload logs in) a portal hosted in
//! this process because the repository ships no portal daemon.

use mp_cli::ClientSetup;
use mp_crypto::rsa::RsaPrivateKey;
use mp_crypto::HmacDrbg;
use mp_gsi::net::ShutdownHandle;
use mp_gsi::transport::{BoxedTransport, Connector};
use mp_gsi::Credential;
use mp_loadgen::plan::{user_name, user_pw};
use mp_myproxy::client::InitParams;
use mp_myproxy::{MyProxyClient, MyProxyError};
use mp_portal::{GridPortal, PortalConfig};
use mp_x509::pem::{self, label};
use mp_x509::{Certificate, CertificateAuthority, Clock, Dn, SystemClock};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key sizes, KDF cost and population of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub name: &'static str,
    /// RSA modulus bits of every identity, and (`--bits`) of every proxy
    /// the repository stores.
    pub bits: usize,
    /// Modulus bits of the key a client generates for the proxy it
    /// retrieves.
    pub client_proxy_bits: usize,
    pub pbkdf2_iters: u32,
    pub users: usize,
}

/// Test sizes: fixed per-connection costs dominate.
pub const P512: Profile =
    Profile { name: "p512", bits: 512, client_proxy_bits: 512, pbkdf2_iters: 1_000, users: 64 };
/// Deployment sizes (ROADMAP: "parameters someone would deploy"). The
/// retrieved proxy's key is 1024 bits, the default of the shipped
/// `myproxy-get-delegation`: with a 2048-bit one, two thirds of a GET is
/// the generator's own prime search, whose wall time on this sandbox
/// spreads 9-14 % over ten seeds and would set every latency bound.
pub const P2048: Profile =
    Profile { name: "p2048", bits: 2048, client_proxy_bits: 1024, pbkdf2_iters: 10_000, users: 16 };

const SERVER_DN: &str = "/O=Grid/OU=Bench/CN=myproxy.bench";
const PORTAL_DN: &str = "/O=Grid/OU=Bench/CN=portal.bench";
/// Store seeding is set-up, not load, so it may use every pool worker.
const SEED_THREADS: usize = 8;

pub struct User {
    pub name: String,
    pub pw: String,
    pub dn: Dn,
    pub cred: Credential,
}

/// The `myproxy-server` child. Killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    pub pid: u32,
}

impl ServerChild {
    fn spawn(bin: &Path, dir: &Path, profile: &Profile, port: u16) -> Result<Self, String> {
        // The server logs one line per connection to stderr; a pipe
        // nobody drains would fill and block it, so it goes to a file.
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("server.stderr"))
            .map_err(|e| format!("server.stderr: {e}"))?;
        let child = Command::new(bin)
            .arg("--credential")
            .arg(dir.join("server.pem"))
            .arg("--trust-roots")
            .arg(dir.join("trusted"))
            .arg("--store-dir")
            .arg(dir.join("store"))
            .args(["--port", &port.to_string()])
            .args(["--accept-pattern", "*", "--retriever-pattern", "*"])
            .args(["--bits", &profile.bits.to_string()])
            .args(["--pbkdf2-iters", &profile.pbkdf2_iters.to_string()])
            .args(["--wal-shards", "8", "--wal-compact-every", "32"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        Ok(ServerChild { child, pid })
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}

struct Portal {
    portal: Arc<GridPortal>,
    pool: ShutdownHandle,
    connector: Connector,
}

pub struct World {
    pub profile: Profile,
    pub dir: PathBuf,
    pub roots: Vec<Certificate>,
    pub users: Vec<User>,
    pub server_dn: Dn,
    /// The repository's own credential, for the in-process comparisons.
    pub server_cred: Credential,
    /// Client pinned to the repository's identity, as `--server-dn` does.
    pub client: MyProxyClient,
    /// `mp_cli::ClientSetup::connector()`: a bare `TcpStream::connect`,
    /// no socket options.
    pub connector: Connector,
    pub server: ServerChild,
    server_bin: PathBuf,
    port: u16,
    portal: Option<Portal>,
}

/// The generator's own entropy is a fixed stream per purpose, not a
/// function of `--seed`: the seed chooses the plan, and every run does
/// the same prime searches whatever plan it drives.
fn drbg(what: &str) -> HmacDrbg {
    HmacDrbg::new(format!("mp-benchmark/{what}").as_bytes())
}

pub fn now() -> u64 {
    SystemClock.now()
}

fn free_port() -> Result<u16, String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

impl World {
    /// Generate the PKI and the population, start the server, wait
    /// until it answers an INFO, and deposit one credential per user.
    /// All of it is the benchmark's set-up time.
    pub fn build(
        profile: Profile,
        server_bin: &Path,
        out_dir: &Path,
        with_portal: bool,
    ) -> Result<World, String> {
        static WORLDS: AtomicUsize = AtomicUsize::new(0);
        let nth = WORLDS.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("run-{}-{nth}", std::process::id()));
        for sub in ["trusted", "store"] {
            std::fs::create_dir_all(dir.join(sub)).map_err(|e| format!("{}: {e}", dir.display()))?;
        }

        // Keys first (the expensive part), on as many threads as the
        // load will later use; key i depends only on i.
        let labels: Vec<String> = ["ca", "server", "portal"]
            .iter()
            .map(|s| s.to_string())
            .chain((0..profile.users).map(|u| format!("user/{u}")))
            .collect();
        let lanes = client_threads();
        let mut keys: Vec<Option<RsaPrivateKey>> = vec![None; labels.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    let labels = &labels;
                    scope.spawn(move || {
                        (lane..labels.len())
                            .step_by(lanes)
                            .map(|i| {
                                let mut rng = drbg(&format!("key/{}", labels[i]));
                                (i, RsaPrivateKey::generate(&mut rng, profile.bits))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, key) in h.join().expect("keygen thread") {
                    keys[i] = Some(key);
                }
            }
        });
        let mut keys = keys.into_iter().map(|k| k.expect("every key generated"));

        let t = now();
        let (not_before, not_after) = (t - 3600, t + 30 * 24 * 3600);
        let dn = |s: &str| Dn::parse(s).map_err(|e| format!("{s}: {e}"));
        let mut ca = CertificateAuthority::new_root(
            dn("/O=Grid/OU=Bench/CN=Bench CA")?,
            keys.next().expect("ca key"),
            not_before,
            not_after,
        )
        .map_err(|e| e.to_string())?;
        let mut issue = |subject: &Dn, key: RsaPrivateKey| -> Result<Credential, String> {
            let cert = ca
                .issue_end_entity(subject, key.public_key(), not_before, not_after)
                .map_err(|e| e.to_string())?;
            Credential::new(vec![cert], key).map_err(|e| e.to_string())
        };
        let server_dn = dn(SERVER_DN)?;
        let server_cred = issue(&server_dn, keys.next().expect("server key"))?;
        let portal_cred = issue(&dn(PORTAL_DN)?, keys.next().expect("portal key"))?;
        let mut users = Vec::with_capacity(profile.users);
        for (u, key) in keys.enumerate() {
            let name = user_name(u as u32);
            let user_dn = dn(&format!("/O=Grid/OU=Bench/CN={name}"))?;
            users.push(User { cred: issue(&user_dn, key)?, name, pw: user_pw(u as u32), dn: user_dn });
        }
        let roots = vec![ca.certificate().clone()];

        write(&dir.join("trusted/ca.pem"), &pem::encode(label::CERTIFICATE, ca.certificate().to_der()))?;
        write(&dir.join("server.pem"), &server_cred.to_pem())?;

        let port = free_port()?;
        let server = ServerChild::spawn(server_bin, &dir, &profile, port)?;
        let setup = ClientSetup {
            server_addr: format!("127.0.0.1:{port}"),
            repositories: Vec::new(),
            credential: users[0].cred.clone(),
            client: MyProxyClient::new(roots.clone(), Some(server_dn.clone())),
            rng: drbg("client-setup"),
            now: t,
        };
        let connector = setup.connector();

        let portal = if with_portal {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let portal = Arc::new(GridPortal::new(PortalConfig {
                credential: portal_cred,
                trust_roots: roots.clone(),
                myproxy: connector.clone(),
                myproxy_identity: Some(server_dn.clone()),
                jobmanager: None,
                storage: None,
                clock: Arc::new(SystemClock),
                require_tls: true,
                rng: drbg("portal"),
            }));
            let pool = portal.serve_tcp_tls(listener).map_err(|e| e.to_string())?;
            // The browser dials the portal as any TCP client would.
            let connector: Connector =
                Arc::new(move || std::net::TcpStream::connect(addr).map(|s| Box::new(s) as BoxedTransport));
            Some(Portal { portal, pool, connector })
        } else {
            None
        };

        let world = World {
            profile,
            dir,
            roots,
            users,
            server_dn,
            server_cred,
            client: setup.client,
            connector,
            server,
            server_bin: server_bin.to_path_buf(),
            port,
            portal,
        };
        world.wait_ready()?;
        world.seed_store()?;
        Ok(world)
    }

    /// Ready means one INFO got an answer from the repository (an
    /// empty listing or an authentication refusal both count: the store
    /// is still empty).
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let user = &self.users[0];
        let mut rng = drbg("ready");
        loop {
            let attempt = (self.connector)()
                .map_err(|e| MyProxyError::Gsi(e.into()))
                .and_then(|t| self.client.info(t, &user.cred, &user.name, &user.pw, &mut rng, now()));
            match attempt {
                Ok(_) | Err(MyProxyError::Refused(_)) => return Ok(()),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("server not ready after 20 s: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    fn seed_store(&self) -> Result<(), String> {
        self.for_each_user(SEED_THREADS, |u, user| {
            let mut rng = drbg(&format!("seed-put/{u}"));
            let transport = (self.connector)().map_err(|e| format!("dial: {e}"))?;
            self.client
                .init(transport, &user.cred, &InitParams::new(&user.name, &user.pw), &mut rng, now())
                .map(|_| ())
                .map_err(|e| format!("seeding {}: {e}", user.name))
        })
    }

    /// Run `f` once per user on `lanes` threads; first error wins.
    pub fn for_each_user(
        &self,
        lanes: usize,
        f: impl Fn(usize, &User) -> Result<(), String> + Sync,
    ) -> Result<(), String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    let f = &f;
                    scope.spawn(move || {
                        (lane..self.users.len()).step_by(lanes).try_for_each(|u| f(u, &self.users[u]))
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("user lane"))
        })
    }

    pub fn portal(&self) -> Option<(&Arc<GridPortal>, &Connector)> {
        self.portal.as_ref().map(|p| (&p.portal, &p.connector))
    }

    /// SIGKILL the server and start it again on the same store
    /// directory, so the next reads are served from journal replay.
    pub fn crash_and_restart(&mut self) -> Result<(), String> {
        self.server.kill();
        self.server = ServerChild::spawn(&self.server_bin, &self.dir, &self.profile, self.port)?;
        self.wait_ready()
    }

    /// Bytes under `--store-dir`.
    pub fn store_disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir.join("store"))
    }

    /// Stop everything this world started. The directory is removed on
    /// success and kept for inspection on failure.
    pub fn finish(mut self, success: bool) {
        if let Some(p) = self.portal.take() {
            p.pool.shutdown();
        }
        self.server.kill();
        if success {
            let _ = std::fs::remove_dir_all(&self.dir);
        } else {
            eprintln!("run directory kept: {}", self.dir.display());
        }
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Closed-loop client threads: one connection in flight each.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}
