//! A GSI-protected mass-storage service (the paper's §2.4 example: "a
//! user's job that needs to be able to authenticate as the user to a
//! mass storage system to store the result of a long computation").
//!
//! Commands (over the secure channel): `STORE` (file follows as one
//! frame), `FETCH`, `LIST`. Authorization: gridmap membership, and all
//! restricted-proxy policies must permit `targets=<service name>` and
//! `actions=<op>`. Limited proxies are *allowed* (classic GSI: only job
//! startup refuses them).

use crate::kv::Kv;
use crate::{GramError, Result};
use mp_crypto::HmacDrbg;
use mp_gsi::channel::send_busy;
use mp_gsi::net::{
    self, DeadlineControl, HandlerSet, NetConfig, Outcome, Service, ShutdownHandle, TcpAcceptor,
};
use mp_gsi::transport::Transport;
use mp_gsi::{ChannelConfig, Credential, Gridmap, SecureChannel};
use mp_obs::{Counter, Registry};
use mp_x509::{Certificate, Clock};
use parking_lot::{Mutex, RwLock};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One stored file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredFile {
    /// Owner's local account.
    pub owner: String,
    /// File contents.
    pub data: Vec<u8>,
    /// Store time.
    pub stored_at: u64,
}

/// The storage service.
#[derive(Clone)]
pub struct MassStorage {
    inner: Arc<StorageState>,
}

struct StorageState {
    /// Service name; restricted proxies must permit `targets=<name>`.
    name: String,
    credential: Credential,
    channel_cfg: ChannelConfig,
    gridmap: Gridmap,
    clock: Arc<dyn Clock>,
    files: RwLock<HashMap<(String, String), StoredFile>>, // (user, filename)
    /// This service's metrics registry (`gram.storage.*`; pool
    /// counters land here via `serve_scoped`).
    obs: Arc<Registry>,
    /// Detached handler threads that ended in an error (protocol
    /// failure or denial) with nobody left to report it to.
    handler_errors: Counter,
    /// Handler threads from `connect_local`, tracked so shutdown can
    /// join them instead of racing process exit.
    local_handlers: HandlerSet,
}

impl MassStorage {
    /// Build a storage service named `name`.
    pub fn new(
        name: &str,
        credential: Credential,
        trust_roots: Vec<Certificate>,
        gridmap: Gridmap,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let obs = Arc::new(Registry::new());
        MassStorage {
            inner: Arc::new(StorageState {
                name: name.to_string(),
                credential,
                channel_cfg: ChannelConfig::new(trust_roots),
                gridmap,
                clock,
                files: RwLock::new(HashMap::new()),
                handler_errors: obs.counter("gram.storage.handler_errors"),
                obs,
                local_handlers: HandlerSet::new(),
            }),
        }
    }

    /// Service name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of stored files (across all users).
    pub fn file_count(&self) -> usize {
        self.inner.files.read().len()
    }

    /// Detached connections that ended in an error (`connect_local`
    /// threads have no caller to return their `Result` to).
    pub fn handler_errors(&self) -> u64 {
        self.inner.handler_errors.get()
    }

    /// This storage service's metrics registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.inner.obs
    }

    /// Direct (test) access to a stored file.
    pub fn peek(&self, user: &str, filename: &str) -> Option<StoredFile> {
        self.inner
            .files
            .read()
            .get(&(user.to_string(), filename.to_string()))
            .cloned()
    }

    /// Serve one connection: authenticate, execute one command.
    /// The caller arms the handshake deadline; once the handshake
    /// completes the transport is re-armed with `idle_deadline`.
    pub fn handle<T: Transport + DeadlineControl, R: Rng + ?Sized>(
        &self,
        transport: T,
        rng: &mut R,
        idle_deadline: Option<Duration>,
    ) -> Result<()> {
        let st = &self.inner;
        let now = st.clock.now();
        let mut channel =
            SecureChannel::accept(transport, &st.credential, &st.channel_cfg, rng, now)?;
        channel.transport_ref().set_deadlines(idle_deadline, idle_deadline);
        self.serve_channel(&mut channel)
    }

    fn serve_channel<T: Transport>(&self, channel: &mut SecureChannel<T>) -> Result<()> {
        let st = &self.inner;
        let now = st.clock.now();
        let peer = channel.peer().clone();

        // Read the request before any authorization verdict so the
        // client's write never races our teardown.
        let req = Kv::from_bytes(&channel.recv()?)?;

        let Some(local_user) = st.gridmap.lookup(&peer.identity) else {
            let resp = Kv::new().set("STATUS", "DENIED").set("REASON", "no gridmap entry");
            channel.send(resp.to_text()?.as_bytes())?;
            return Err(GramError::Denied(format!("{} not in gridmap", peer.identity)));
        };
        let local_user = local_user.to_string();

        let command = req.require("COMMAND")?.to_string();

        // §6.5: every restriction in the chain must allow this service
        // and this action.
        let action = match command.as_str() {
            "STORE" => "write",
            "FETCH" | "LIST" => "read",
            _ => {
                let resp = Kv::new().set("STATUS", "ERROR").set("REASON", "unknown command");
                channel.send(resp.to_text()?.as_bytes())?;
                return Err(GramError::Protocol(format!("unknown command {command}")));
            }
        };
        if !peer.permits("targets", &st.name) || !peer.permits("actions", action) {
            let resp = Kv::new()
                .set("STATUS", "DENIED")
                .set("REASON", "restricted proxy policy forbids this operation");
            channel.send(resp.to_text()?.as_bytes())?;
            return Err(GramError::Denied("restricted proxy policy".into()));
        }

        match command.as_str() {
            "STORE" => {
                let filename = req.require("FILENAME")?.to_string();
                let resp = Kv::new().set("STATUS", "SEND");
                channel.send(resp.to_text()?.as_bytes())?;
                let data = channel.recv()?;
                st.files.write().insert(
                    (local_user.clone(), filename),
                    StoredFile { owner: local_user, data, stored_at: now },
                );
                channel.send(Kv::new().set("STATUS", "OK").to_text()?.as_bytes())?;
            }
            "FETCH" => {
                let filename = req.require("FILENAME")?;
                let file = st
                    .files
                    .read()
                    .get(&(local_user.clone(), filename.to_string()))
                    .cloned();
                match file {
                    Some(f) => {
                        channel.send(Kv::new().set("STATUS", "OK").to_text()?.as_bytes())?;
                        channel.send(&f.data)?;
                    }
                    None => {
                        let resp = Kv::new().set("STATUS", "NOTFOUND");
                        channel.send(resp.to_text()?.as_bytes())?;
                        return Err(GramError::NotFound(filename.to_string()));
                    }
                }
            }
            "LIST" => {
                let names: Vec<String> = st
                    .files
                    .read()
                    .keys()
                    .filter(|(u, _)| *u == local_user)
                    .map(|(_, f)| f.clone())
                    .collect();
                let mut sorted = names;
                sorted.sort();
                let resp = Kv::new().set("STATUS", "OK").set("FILES", &sorted.join(","));
                channel.send(resp.to_text()?.as_bytes())?;
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    /// Spawn a thread serving one in-memory connection. The handler is
    /// tracked so [`drain_local_handlers`](Self::drain_local_handlers)
    /// can join it.
    pub fn connect_local(&self, rng_seed: &[u8]) -> mp_gsi::MemStream {
        let service = self.clone();
        let mut rng = HmacDrbg::new(rng_seed);
        self.inner.local_handlers.connect_local(
            "storage-conn",
            &self.inner.handler_errors,
            move |conn, idle| service.handle(conn, &mut rng, idle),
        )
    }

    /// Join every handler thread started by
    /// [`connect_local`](Self::connect_local); returns how many were
    /// joined.
    pub fn drain_local_handlers(&self) -> usize {
        self.inner.local_handlers.drain()
    }

    /// This storage service as a pool [`Service`]. Per-connection DRBGs
    /// are derived from a service DRBG seeded with `rng_seed`.
    pub fn service(&self, rng_seed: &[u8]) -> Arc<MassStorageService> {
        Arc::new(MassStorageService {
            storage: self.clone(),
            rng: Mutex::new(HmacDrbg::new(rng_seed)),
        })
    }

    /// Serve TCP on a bounded worker pool with default [`NetConfig`].
    pub fn serve_tcp(
        &self,
        listener: std::net::TcpListener,
        rng_seed: &[u8],
    ) -> std::io::Result<ShutdownHandle> {
        net::serve_scoped(
            TcpAcceptor::new(listener)?,
            self.service(rng_seed),
            NetConfig::default(),
            &self.inner.obs,
            "gram.storage",
        )
    }
}

/// [`Service`] adapter driving a [`MassStorage`] from a worker pool.
pub struct MassStorageService {
    storage: MassStorage,
    rng: Mutex<HmacDrbg>,
}

impl MassStorageService {
    /// Derive an independent per-connection DRBG.
    fn conn_rng(&self) -> HmacDrbg {
        let mut seed = [0u8; 32];
        self.rng.lock().generate(&mut seed);
        HmacDrbg::new(&seed)
    }
}

impl<C: Transport + DeadlineControl + 'static> Service<C> for MassStorageService {
    fn handle(&self, conn: C, idle_deadline: Option<Duration>) -> Outcome {
        let mut rng = self.conn_rng();
        net::outcome_of(&self.storage.handle(conn, &mut rng, idle_deadline), GramError::io_cause)
    }

    fn shed(&self, mut conn: C) {
        if send_busy(&mut conn, "connection limit reached").is_err() {
            self.storage.inner.handler_errors.inc();
        }
    }
}

/// Client helpers for the storage protocol.
pub mod client {
    use super::*;

    /// STORE `data` as `filename` using `cred` over `transport`.
    pub fn store<T: Transport, R: Rng + ?Sized>(
        transport: T,
        cred: &Credential,
        cfg: &ChannelConfig,
        filename: &str,
        data: &[u8],
        rng: &mut R,
        now: u64,
    ) -> Result<()> {
        let mut channel = SecureChannel::connect(transport, cred, cfg, rng, now)?;
        let req = Kv::new().set("COMMAND", "STORE").set("FILENAME", filename);
        channel.send(req.to_text()?.as_bytes())?;
        let resp = Kv::from_bytes(&channel.recv()?)?;
        expect_status(&resp, "SEND")?;
        channel.send(data)?;
        let resp = Kv::from_bytes(&channel.recv()?)?;
        expect_status(&resp, "OK")
    }

    /// FETCH `filename`.
    pub fn fetch<T: Transport, R: Rng + ?Sized>(
        transport: T,
        cred: &Credential,
        cfg: &ChannelConfig,
        filename: &str,
        rng: &mut R,
        now: u64,
    ) -> Result<Vec<u8>> {
        let mut channel = SecureChannel::connect(transport, cred, cfg, rng, now)?;
        let req = Kv::new().set("COMMAND", "FETCH").set("FILENAME", filename);
        channel.send(req.to_text()?.as_bytes())?;
        let resp = Kv::from_bytes(&channel.recv()?)?;
        expect_status(&resp, "OK")?;
        Ok(channel.recv()?)
    }

    /// LIST files.
    pub fn list<T: Transport, R: Rng + ?Sized>(
        transport: T,
        cred: &Credential,
        cfg: &ChannelConfig,
        rng: &mut R,
        now: u64,
    ) -> Result<Vec<String>> {
        let mut channel = SecureChannel::connect(transport, cred, cfg, rng, now)?;
        channel.send(Kv::new().set("COMMAND", "LIST").to_text()?.as_bytes())?;
        let resp = Kv::from_bytes(&channel.recv()?)?;
        expect_status(&resp, "OK")?;
        Ok(resp
            .get("FILES")
            .unwrap_or("")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect())
    }

    fn expect_status(resp: &Kv, want: &str) -> Result<()> {
        let status = resp.require("STATUS")?;
        if status == want {
            Ok(())
        } else {
            Err(GramError::Denied(
                resp.get("REASON").unwrap_or(status).to_string(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_gsi::{grid_proxy_init, ProxyOptions};
    use mp_x509::test_util::{test_drbg, test_rsa_key};
    use mp_x509::{CertificateAuthority, Dn, ProxyPolicy, SimClock};

    struct World {
        storage: MassStorage,
        alice: Credential,
        mallory: Credential,
        cfg: ChannelConfig,
        clock: SimClock,
    }

    fn world() -> World {
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
        let mallory = mk(&mut ca, 2, "/O=Grid/CN=mallory");
        let storage_cred = mk(&mut ca, 3, "/O=Grid/CN=storage.nersc.gov");
        let mut gridmap = Gridmap::new();
        gridmap.add(&Dn::parse("/O=Grid/CN=alice").unwrap(), "alice");
        let clock = SimClock::new(1000);
        let storage = MassStorage::new(
            "storage.nersc.gov",
            storage_cred,
            vec![ca.certificate().clone()],
            gridmap,
            Arc::new(clock.clone()),
        );
        let cfg = ChannelConfig::new(vec![ca.certificate().clone()]);
        World { storage, alice, mallory, cfg, clock }
    }

    #[test]
    fn store_fetch_list_roundtrip() {
        let w = world();
        let mut rng = test_drbg("storage rt");
        client::store(
            w.storage.connect_local(b"s1"),
            &w.alice,
            &w.cfg,
            "results.dat",
            b"simulation output",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        let data = client::fetch(
            w.storage.connect_local(b"s2"),
            &w.alice,
            &w.cfg,
            "results.dat",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        assert_eq!(data, b"simulation output");
        let files = client::list(
            w.storage.connect_local(b"s3"),
            &w.alice,
            &w.cfg,
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        assert_eq!(files, vec!["results.dat"]);
    }

    #[test]
    fn unmapped_identity_denied() {
        let w = world();
        let mut rng = test_drbg("storage mallory");
        let err = client::store(
            w.storage.connect_local(b"s4"),
            &w.mallory,
            &w.cfg,
            "x",
            b"data",
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
        assert!(matches!(err, GramError::Denied(_)));
        assert_eq!(w.storage.file_count(), 0);
    }

    #[test]
    fn proxy_maps_to_user_account() {
        let w = world();
        let mut rng = test_drbg("storage proxy");
        let proxy =
            grid_proxy_init(&w.alice, &ProxyOptions::default(), &mut rng, w.clock.now()).unwrap();
        client::store(
            w.storage.connect_local(b"s5"),
            &proxy,
            &w.cfg,
            "via-proxy.dat",
            b"x",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        assert_eq!(w.storage.peek("alice", "via-proxy.dat").unwrap().owner, "alice");
    }

    #[test]
    fn limited_proxy_may_access_files() {
        // Classic GSI semantics: limited proxies can do file access.
        let w = world();
        let mut rng = test_drbg("storage limited");
        let limited = grid_proxy_init(
            &w.alice,
            &ProxyOptions::default().with_policy(ProxyPolicy::Limited),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        client::store(
            w.storage.connect_local(b"s6"),
            &limited,
            &w.cfg,
            "limited.dat",
            b"y",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
    }

    #[test]
    fn restricted_proxy_enforced() {
        let w = world();
        let mut rng = test_drbg("storage restricted");
        // Restricted to a DIFFERENT target: must be denied here.
        let wrong_target = grid_proxy_init(
            &w.alice,
            &ProxyOptions::default()
                .with_policy(ProxyPolicy::Restricted("targets=jobmanager.ncsa.edu".into())),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        let err = client::store(
            w.storage.connect_local(b"s7"),
            &wrong_target,
            &w.cfg,
            "z",
            b"zz",
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
        assert!(matches!(err, GramError::Denied(_)));

        // Restricted to this target with read-only actions: STORE denied,
        // FETCH/LIST allowed.
        let read_only = grid_proxy_init(
            &w.alice,
            &ProxyOptions::default().with_policy(ProxyPolicy::Restricted(
                "targets=storage.nersc.gov;actions=read".into(),
            )),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        let err = client::store(
            w.storage.connect_local(b"s8"),
            &read_only,
            &w.cfg,
            "z",
            b"zz",
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
        assert!(matches!(err, GramError::Denied(_)));
        let files = client::list(
            w.storage.connect_local(b"s9"),
            &read_only,
            &w.cfg,
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        assert!(files.is_empty());
    }

    #[test]
    fn expired_proxy_rejected_at_channel() {
        let w = world();
        let mut rng = test_drbg("storage expired");
        let short = grid_proxy_init(
            &w.alice,
            &ProxyOptions::default().with_lifetime(10),
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        w.clock.advance(100);
        let err = client::store(
            w.storage.connect_local(b"s10"),
            &short,
            &w.cfg,
            "late.dat",
            b"too late",
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
        assert!(matches!(err, GramError::Gsi(_)));
    }

    #[test]
    fn users_cannot_fetch_each_others_files() {
        let w = world();
        let mut rng = test_drbg("storage isolation");
        client::store(
            w.storage.connect_local(b"s11"),
            &w.alice,
            &w.cfg,
            "private.dat",
            b"alice only",
            &mut rng,
            w.clock.now(),
        )
        .unwrap();
        let err = client::fetch(
            w.storage.connect_local(b"s12"),
            &w.mallory,
            &w.cfg,
            "private.dat",
            &mut rng,
            w.clock.now(),
        )
        .unwrap_err();
        // mallory is not even in the gridmap.
        assert!(matches!(err, GramError::Denied(_)));
    }
}
