//! The MyProxy repository server.
//!
//! One [`MyProxyServer`] holds the credential store, policy, OTP
//! registry and the server's own Grid credentials; each incoming
//! connection gets a GSI secure channel, one request, and (for
//! PUT/GET-shaped commands) a delegation sub-protocol. All state is
//! behind locks, so connections can be served from many threads.

use crate::otp::{decode_hex32, OtpOutcome, OtpRegistry};
use crate::policy::ServerPolicy;
use crate::proto::{field, parse_tags, render_tags, Command, Request, Response};
use crate::repl::{
    self, EpochStore, ReplConfig, ReplLog, ReplMetrics, ReplState, Role, Shipper,
};
use crate::store::{CredStore, AUTH_FAILED, DEFAULT_NAME};
use crate::wal::{parse_journal, WalRecord};
use crate::{wallet, MyProxyError};
use mp_crypto::ctr::SecretBox;
use mp_crypto::{HmacDrbg, Secret};
use mp_gsi::acl::DnPattern;
use mp_gsi::channel::send_busy;
use mp_gsi::delegate::{accept_delegation, delegate, DelegationPolicy};
use mp_gsi::net::{
    self, accept_queue, BoxedConn, DeadlineControl, HandlerSet, NetConfig, Outcome, QueuePusher,
    Service, ShutdownHandle, TcpAcceptor,
};
use mp_gsi::transport::{Connector, Transport};
use mp_gsi::wire::{WireReader, WireWriter};
use mp_gsi::{ChannelConfig, Credential, GsiError, SecureChannel};
use mp_obs::{Counter, Histogram, Registry, Snapshot};
use mp_x509::{validate_chain, Certificate, Clock, ProxyPolicy};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Operation counters, readable while the server runs.
///
/// Each counter is an `mp_obs` handle interned into the server's own
/// [`Registry`] under `myproxy.*`, so the same cells feed both these
/// accessors and the INFO metrics snapshot. Reads and writes use
/// mp-obs's single documented ordering (`Relaxed`).
#[derive(Clone)]
pub struct ServerStats {
    /// Successful PUT/STORE operations.
    pub puts: Counter,
    /// Successful GET/OTP_GET/RENEW delegations.
    pub gets: Counter,
    /// Requests refused for any reason.
    pub denials: Counter,
    /// Connections that failed before a request was read.
    pub channel_failures: Counter,
    /// Error responses we could not deliver (peer gone mid-reply).
    pub send_failures: Counter,
    /// Detached handler threads that ended in an error after the
    /// response path was no longer available to report it.
    pub handler_errors: Counter,
    /// Expired credentials removed by the periodic sweep and the
    /// INFO-path purge.
    pub purged: Counter,
    /// Journal commits that failed (the mutation was refused and the
    /// client told; the in-memory store did not change).
    pub wal_failures: Counter,
}

impl ServerStats {
    fn registered(obs: &Registry) -> Self {
        ServerStats {
            puts: obs.counter("myproxy.puts"),
            gets: obs.counter("myproxy.gets"),
            denials: obs.counter("myproxy.denials"),
            channel_failures: obs.counter("myproxy.channel_failures"),
            send_failures: obs.counter("myproxy.send_failures"),
            handler_errors: obs.counter("myproxy.handler_errors"),
            purged: obs.counter("myproxy.purged"),
            wal_failures: obs.counter("myproxy.wal_failures"),
        }
    }
}

/// How long a shed client should wait before retrying, advertised in
/// the BUSY refusal so [`crate::client::RetryPolicy`] can honor it.
pub const BUSY_RETRY_AFTER_MS: u64 = 200;

/// The in-protocol refusal sent when the connection cap sheds a peer.
/// The `retry-after-ms` token is parsed back out by
/// [`MyProxyError::busy`](crate::MyProxyError::busy).
pub const BUSY_SHED_REASON: &str = "connection limit reached; retry-after-ms=200";

struct ServerState {
    credential: Credential,
    channel_cfg: ChannelConfig,
    policy: ServerPolicy,
    store: CredStore,
    otp: OtpRegistry,
    clock: Arc<dyn Clock>,
    rng: Mutex<HmacDrbg>,
    /// In-memory master key sealing renewal copies (see store docs).
    master_key: Secret<[u8; 32]>,
    /// Per-instance metrics registry: `myproxy.*` counters, the
    /// `myproxy.request` latency histogram, and (via `serve_scoped`)
    /// this server's pool counters. Kept per instance, not global, so
    /// parallel tests with several servers in one process stay
    /// isolated; ambient spans land in [`mp_obs::global`] and the two
    /// are merged at scrape time.
    obs: Arc<Registry>,
    stats: ServerStats,
    request_hist: Histogram,
    /// Revocation lists consulted on every authentication; operators
    /// install fresh ones with [`MyProxyServer::add_crl`] while the
    /// server runs (§2.1: revocation is the PKI's theft response).
    crls: parking_lot::RwLock<Vec<mp_x509::CertRevocationList>>,
    /// Handler threads from [`MyProxyServer::connect_local`], tracked
    /// so shutdown can join them instead of racing process exit.
    local_handlers: HandlerSet,
    /// Replication role/epoch/progress (see [`crate::repl`]). Always
    /// present; a non-replicated deployment is simply a standalone
    /// primary at epoch 0.
    repl: Arc<ReplState>,
}

/// The repository server. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct MyProxyServer {
    state: Arc<ServerState>,
}

impl MyProxyServer {
    /// Build a server.
    ///
    /// * `credential` — the repository's own Grid credentials ("MyProxy
    ///   clients also require mutual authentication of the repository
    ///   through the use of Grid credentials held by the server", §5.1).
    /// * `trust_roots` — CAs whose users this repository serves.
    /// * `rng` — entropy source; pass a fixed-seed [`HmacDrbg`] in tests.
    pub fn new(
        credential: Credential,
        trust_roots: Vec<Certificate>,
        policy: ServerPolicy,
        clock: Arc<dyn Clock>,
        mut rng: HmacDrbg,
    ) -> Self {
        let mut master_key = [0u8; 32];
        rng.generate(&mut master_key);
        Self::with_master_key(credential, trust_roots, policy, clock, rng, master_key)
    }

    /// Like [`MyProxyServer::new`] but with an operator-supplied master
    /// key (needed for persisted renewal entries to survive a restart —
    /// see `persist`). Guard this key like the server's private key.
    pub fn with_master_key(
        credential: Credential,
        trust_roots: Vec<Certificate>,
        policy: ServerPolicy,
        clock: Arc<dyn Clock>,
        rng: HmacDrbg,
        master_key: [u8; 32],
    ) -> Self {
        let store = CredStore::with_shards(policy.pbkdf2_iterations, policy.store_shards);
        let obs = Arc::new(Registry::new());
        let stats = ServerStats::registered(&obs);
        let request_hist = obs.histogram("myproxy.request");
        MyProxyServer {
            state: Arc::new(ServerState {
                credential,
                channel_cfg: ChannelConfig::new(trust_roots),
                policy,
                store,
                otp: OtpRegistry::new(),
                clock,
                rng: Mutex::new(rng),
                master_key: Secret::new(master_key),
                obs,
                stats,
                request_hist,
                crls: parking_lot::RwLock::new(Vec::new()),
                local_handlers: HandlerSet::new(),
                repl: Arc::new(ReplState::new()),
            }),
        }
    }

    /// Install a revocation list. Every subsequent authentication (and
    /// renewal-proof validation) consults it; lists from issuers whose
    /// signature does not verify are ignored by the validator.
    pub fn add_crl(&self, crl: mp_x509::CertRevocationList) {
        self.state.crls.write().push(crl);
    }

    /// The channel config for a new connection, with current CRLs.
    fn conn_channel_cfg(&self) -> ChannelConfig {
        let mut cfg = self.state.channel_cfg.clone();
        cfg.crls = self.state.crls.read().clone();
        cfg
    }

    /// Validation options matching the connection config (for chains
    /// validated at the application layer: long-term deposits, renewal
    /// proofs).
    fn validation_options(&self) -> mp_x509::ValidationOptions {
        mp_x509::ValidationOptions {
            crls: self.state.crls.read().clone(),
            ..Default::default()
        }
    }

    /// The store (tests inspect it; operators would back it up).
    pub fn store(&self) -> &CredStore {
        &self.state.store
    }

    /// Live operation counters.
    pub fn stats(&self) -> &ServerStats {
        &self.state.stats
    }

    /// This server's metrics registry (counters, request latency, pool
    /// stats when served via the pool helpers).
    pub fn obs(&self) -> &Arc<Registry> {
        &self.state.obs
    }

    /// Everything observable about this server: its instance registry
    /// merged with the process-global ambient spans (handshake phases,
    /// delegation rounds, RSA timing, store latencies). This is what
    /// the extended INFO response renders.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.state.obs.snapshot().merged(&mp_obs::global().snapshot())
    }

    /// The server's identity DN (clients pin this).
    pub fn identity(&self) -> mp_x509::Dn {
        self.state.credential.subject().clone()
    }

    /// Derive an independent per-connection DRBG from the server DRBG.
    fn conn_rng(&self) -> HmacDrbg {
        let mut seed = [0u8; 32];
        self.state.rng.lock().generate(&mut seed);
        HmacDrbg::new(&seed)
    }

    /// Purge expired credentials; returns how many were removed. The
    /// serve pools run this on their sweep interval and on the INFO
    /// path; removals are tallied in [`ServerStats::purged`].
    ///
    /// A standby never purges on its own: the primary's purge records
    /// arrive through the replication stream, keeping both sides'
    /// journals byte-compatible for the divergence oracle.
    pub fn purge_expired(&self) -> usize {
        if !self.state.repl.is_primary() {
            return 0;
        }
        match self.state.store.purge_expired(self.state.clock.now()) {
            Ok(n) => {
                if n > 0 {
                    self.state.stats.purged.add(n as u64);
                }
                n
            }
            Err(_) => {
                // Journal append failed; nothing was removed. The
                // entries stay until a later sweep succeeds.
                self.state.stats.wal_failures.inc();
                0
            }
        }
    }

    /// Make the credential store durable under `dir`: load the
    /// snapshot, replay the journal, and journal every mutation from
    /// here on (see [`crate::wal`]). `store.wal.*` and
    /// `store.load.corrupt` metrics intern into this server's registry.
    pub fn enable_durability(
        &self,
        dir: &std::path::Path,
        cfg: crate::wal::WalConfig,
    ) -> std::io::Result<crate::wal::DurabilityReport> {
        self.enable_durability_with(dir, Arc::new(crate::wal::RealVfs), cfg)
    }

    /// [`enable_durability`](Self::enable_durability) with an explicit
    /// [`Vfs`](crate::wal::Vfs) — the crash harness injects faults here.
    pub fn enable_durability_with(
        &self,
        dir: &std::path::Path,
        vfs: Arc<dyn crate::wal::Vfs>,
        cfg: crate::wal::WalConfig,
    ) -> std::io::Result<crate::wal::DurabilityReport> {
        let report = self.state.store.attach_durable(dir, vfs.clone(), cfg, &self.state.obs)?;
        // The replication epoch lives beside the journal; loading it
        // here means a restarted standby still rejects a demoted
        // primary's stale tail. Read-only: crash-matrix mutation
        // counts are unchanged for non-replicated deployments.
        self.state.repl.install_epoch_store(EpochStore::new(vfs, dir))?;
        Ok(report)
    }

    // --- replication (see `crate::repl`) -------------------------------

    /// This repository's replication state machine.
    pub(crate) fn repl_state(&self) -> &Arc<ReplState> {
        &self.state.repl
    }

    /// The server's own credential (the shipper authenticates with it).
    pub(crate) fn own_credential(&self) -> &Credential {
        &self.state.credential
    }

    /// Channel config for outbound (shipper) connections, with CRLs.
    pub(crate) fn peer_channel_cfg(&self) -> ChannelConfig {
        self.conn_channel_cfg()
    }

    /// Current clock reading.
    pub(crate) fn now(&self) -> u64 {
        self.state.clock.now()
    }

    /// Current `(role, epoch)` of this repository.
    pub fn replication_status(&self) -> (Role, u64) {
        self.state.repl.status()
    }

    /// Start retaining committed journal frames for shipping: installs
    /// a [`ReplLog`] as the WAL's post-fsync commit sink and registers
    /// the `store.repl.*` metrics. Requires durability to be enabled
    /// first (there is no journal to ship otherwise).
    pub fn enable_replication(&self, cfg: &ReplConfig) -> std::io::Result<Arc<ReplLog>> {
        let wal = self.state.store.wal_handle().ok_or_else(|| {
            std::io::Error::other("enable durability before replication: no journal to ship")
        })?;
        let mut id = [0u8; 8];
        self.state.rng.lock().generate(&mut id);
        let log = Arc::new(ReplLog::new(
            self.state.store.shard_count(),
            cfg.ring_capacity,
            u64::from_le_bytes(id),
            ReplMetrics::registered(&self.state.obs),
        ));
        wal.set_commit_sink(log.clone());
        self.state.repl.install_log(log.clone());
        Ok(log)
    }

    /// Declare this repository a warm standby: mutations are refused,
    /// shipped frames are applied, and (when `takeover_timeout_secs`
    /// is non-zero) shipper silence past the timeout auto-promotes.
    pub fn configure_standby(&self, cfg: &ReplConfig) {
        self.state.repl.set_standby(cfg.takeover_timeout_secs, self.state.clock.now());
    }

    /// Promote this repository to primary under a fresh epoch (the
    /// in-process form of the `PROMOTE` admin command).
    pub fn promote(&self) -> std::io::Result<u64> {
        self.state.repl.promote()
    }

    /// Standby primary-loss detection; the serve pool's sweep tick
    /// drives this. Returns true when a promotion happened.
    pub fn check_auto_promote(&self) -> bool {
        self.state.repl.check_auto_promote(self.state.clock.now())
    }

    /// A shipper pushing this primary's journal to the standby behind
    /// `connector`. Drive it with [`Shipper::run_once`].
    pub fn shipper(&self, connector: Connector) -> Shipper {
        let rng = self.conn_rng();
        Shipper::new(self.clone(), connector, rng)
    }

    /// Serve one connection: handshake, one request, response (plus the
    /// delegation sub-protocol where the command calls for it). The
    /// caller arms the handshake deadline before handing the transport
    /// over; once the handshake completes it is re-armed with the
    /// per-request `idle_deadline`.
    pub fn handle<T: Transport + DeadlineControl>(
        &self,
        transport: T,
        idle_deadline: Option<Duration>,
    ) -> crate::Result<()> {
        let mut rng = self.conn_rng();
        let mut channel = self.accept_conn(transport, &mut rng)?;
        channel.transport_ref().set_deadlines(idle_deadline, idle_deadline);
        self.serve_channel(&mut channel, &mut rng)
    }

    /// Handshake half of a connection; failures are counted.
    fn accept_conn<T: Transport>(
        &self,
        transport: T,
        rng: &mut HmacDrbg,
    ) -> crate::Result<SecureChannel<T>> {
        let now = self.state.clock.now();
        match SecureChannel::accept(
            transport,
            &self.state.credential,
            &self.conn_channel_cfg(),
            rng,
            now,
        ) {
            Ok(ch) => Ok(ch),
            Err(e) => {
                self.state.stats.channel_failures.inc();
                Err(e.into())
            }
        }
    }

    /// Request half: one request, response, optional sub-protocol.
    fn serve_channel<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        rng: &mut HmacDrbg,
    ) -> crate::Result<()> {
        // Whole-request latency (parse + dispatch + sub-protocols),
        // recorded for error paths too.
        let _timer = self.state.request_hist.timer();
        let req_text = channel.recv()?;
        let req_text = String::from_utf8(req_text)
            .map_err(|_| MyProxyError::Protocol("request not UTF-8".into()))?;
        let request = match Request::from_text(&req_text) {
            Ok(r) => r,
            Err(e) => {
                if respond(channel, &Response::error(format!("{e}"))).is_err() {
                    self.state.stats.send_failures.inc();
                }
                return Err(e);
            }
        };

        let result = self.dispatch(channel, &request, rng);
        if let Err(e) = &result {
            self.state.stats.denials.inc();
            // Best-effort error response; the channel may already be gone,
            // in which case the failure is still visible in the counters.
            if respond(channel, &Response::error(format!("{e}"))).is_err() {
                self.state.stats.send_failures.inc();
            }
        }
        result
    }

    fn dispatch<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
        rng: &mut HmacDrbg,
    ) -> crate::Result<()> {
        // A standby serves reads (a failed-over portal still GETs) but
        // refuses mutations: accepting one would fork history from the
        // primary it is replaying.
        if mutates_store(request.command) && !self.state.repl.is_primary() {
            let (role, epoch) = self.state.repl.status();
            return Err(MyProxyError::Refused(format!(
                "repository is {} (epoch {}); mutations are served by the primary",
                role.as_str(),
                epoch
            )));
        }
        match request.command {
            Command::Put => self.handle_put(channel, request, rng, false),
            Command::StoreLongTerm => self.handle_put(channel, request, rng, true),
            Command::Get => self.handle_get(channel, request, rng, false),
            Command::OtpGet => self.handle_get(channel, request, rng, true),
            Command::OtpSetup => self.handle_otp_setup(channel, request),
            Command::Info => self.handle_info(channel, request),
            Command::Destroy => self.handle_destroy(channel, request),
            Command::ChangePassphrase => self.handle_change_passphrase(channel, request, rng),
            Command::Renew => self.handle_renew(channel, request, rng),
            Command::Replicate => self.handle_replicate(channel, request),
            Command::Promote => self.handle_promote(channel, request),
        }
    }

    /// PUT (Figure 1) and STORE_LONG_TERM (§6.1).
    fn handle_put<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
        rng: &mut HmacDrbg,
        long_term: bool,
    ) -> crate::Result<()> {
        let st = &self.state;
        let peer = channel.peer().clone();
        if !st.policy.accepted_credentials.is_authorized(&peer.identity) {
            return Err(MyProxyError::Refused(format!(
                "{} is not authorized to store credentials",
                peer.identity
            )));
        }
        // The identity becomes the entry's `owner=` line; a DN may hold
        // any UTF-8, so one the line framing cannot carry is refused
        // here, before the delegation and the journal frame.
        let owner = peer.identity.to_string();
        mp_gsi::lines::check("owner", &owner)?;
        let username = request.require(field::USERNAME)?.to_string();
        let passphrase = request.require(field::PASSPHRASE)?.to_string();
        st.policy
            .check_passphrase(&passphrase)
            .map_err(|e| MyProxyError::Refused(e.to_string()))?;
        let requested_lifetime =
            request.get_u64(field::LIFETIME, st.policy.max_stored_lifetime_secs)?;
        let stored_lifetime = requested_lifetime.min(st.policy.max_stored_lifetime_secs);
        let retrieval_max = request
            .get_u64("RETRIEVER_LIFETIME", st.policy.max_delegated_lifetime_secs)?
            .min(st.policy.max_delegated_lifetime_secs);
        let name = request.get(field::CRED_NAME).unwrap_or(DEFAULT_NAME).to_string();
        let tags = request.get(field::CRED_TAGS).map(parse_tags).unwrap_or_default();
        let renewer = request.get("RENEWER").map(str::to_string);

        // Tell the client to proceed with the credential transfer.
        respond(channel, &Response::success())?;

        let now = st.clock.now();
        let credential = if long_term {
            // §6.1: the client ships its long-term credential itself
            // (inside the encrypted channel) for server-side management.
            let pem_bytes = channel.recv()?;
            let pem = String::from_utf8(pem_bytes)
                .map_err(|_| MyProxyError::Protocol("credential PEM not UTF-8".into()))?;
            let cred = Credential::from_pem(&pem)?;
            // It must belong to the connecting identity.
            let v = validate_chain(
                cred.chain(),
                &st.channel_cfg.trust_roots,
                now,
                &self.validation_options(),
            )
            .map_err(mp_gsi::GsiError::from)?;
            if v.identity != peer.identity {
                return Err(MyProxyError::Refused(
                    "stored credential identity does not match channel identity".into(),
                ));
            }
            cred
        } else {
            // Figure 1: the repository *receives a delegation* — a fresh
            // keypair on this side, a proxy signed by the client.
            accept_delegation(channel, stored_lifetime, st.policy.key_bits, rng)?
        };

        // §6.6: the renewal copy is sealed first so it rides the same
        // record as the entry it belongs to.
        let renewal = renewer.map(|pattern| {
            let mut entropy = [0u8; 32];
            rng.generate(&mut entropy);
            let sealed =
                SecretBox::seal(st.master_key.expose(), credential.to_pem().as_bytes(), 1, &entropy);
            (pattern, sealed)
        });
        // One record, committed write-ahead when durability is on: a
        // crash or a failover leaves the old entry or this one, never a
        // mix, and a journal failure refuses the PUT before the success
        // response, so the client never holds an ack the disk does not.
        st.store.put_owned(
            &username,
            &name,
            &passphrase,
            &credential,
            retrieval_max,
            now,
            long_term,
            tags,
            &owner,
            renewal,
            rng,
        )?;
        st.stats.puts.inc();

        let not_after = credential
            .chain()
            .iter()
            .map(|c| c.not_after())
            .min()
            .unwrap_or(0);
        respond(channel, &Response::success().with_field("NOT_AFTER", &not_after.to_string()))?;
        Ok(())
    }

    /// GET (Figure 2) and OTP_GET (§6.3).
    fn handle_get<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
        rng: &mut HmacDrbg,
        with_otp: bool,
    ) -> crate::Result<()> {
        let st = &self.state;
        let peer = channel.peer().clone();
        if !st.policy.authorized_retrievers.is_authorized(&peer.identity) {
            return Err(MyProxyError::Refused(format!(
                "{} is not an authorized retriever",
                peer.identity
            )));
        }
        let username = request.require(field::USERNAME)?.to_string();
        let passphrase = request.require(field::PASSPHRASE)?.to_string();

        // §6.3: once a user has an active OTP chain, plain pass-phrase
        // GETs are refused for that user — otherwise a replayed pass
        // phrase would still work and the OTP would add nothing.
        if st.otp.is_active(&username) {
            if !with_otp {
                return Err(MyProxyError::Refused(
                    "one-time-password authentication required for this user".into(),
                ));
            }
            let otp = request.require(field::OTP)?;
            if st.otp.verify_hex(&username, otp) != OtpOutcome::Accepted {
                return Err(MyProxyError::Refused(AUTH_FAILED.into()));
            }
        } else if with_otp {
            return Err(MyProxyError::Refused("no one-time-password chain registered".into()));
        }

        // Resolve the credential: explicit name, or wallet selection by
        // task tags (§6.2).
        let task_tags = request.get(field::TASK).map(parse_tags).unwrap_or_default();
        let (credential, entry) = if let Some(name) = request.get(field::CRED_NAME) {
            st.store.open(&username, name, &passphrase)?
        } else if !task_tags.is_empty() {
            let candidates = st.store.list_authenticated(&username, &passphrase);
            let chosen = wallet::select(&candidates, &task_tags)
                .ok_or_else(|| MyProxyError::Refused("no credential matches the task".into()))?;
            st.store.open(&username, &chosen.name, &passphrase)?
        } else {
            st.store.open(&username, DEFAULT_NAME, &passphrase)?
        };

        let now = st.clock.now();
        if credential.remaining_lifetime(now) == 0 {
            return Err(MyProxyError::Refused("stored credential has expired".into()));
        }

        let requested = request.get_u64(field::LIFETIME, st.policy.max_delegated_lifetime_secs)?;
        let granted = requested
            .min(entry.retrieval_max_lifetime)
            .min(st.policy.max_delegated_lifetime_secs);

        // §6.2 "embed the minimum needed rights": a task target becomes
        // a restricted-delegation policy in the proxy we hand out.
        let proxy_policy = match task_tags.iter().find(|(k, _)| k == "target") {
            Some((_, target)) => ProxyPolicy::Restricted(format!("targets={target}")),
            None => ProxyPolicy::InheritAll,
        };

        respond(channel, &Response::success().with_field("LIFETIME", &granted.to_string()))?;

        // Figure 2: "the repository will in turn delegate a proxy
        // credential back to the user or service."
        let deleg_policy = DelegationPolicy {
            max_lifetime_secs: granted,
            policy: proxy_policy,
            path_len: None,
        };
        delegate(channel, &credential, &deleg_policy, rng, now)?;
        st.stats.gets.inc();
        Ok(())
    }

    /// OTP_SETUP (§6.3): register a hash chain; requires the pass phrase.
    fn handle_otp_setup<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
    ) -> crate::Result<()> {
        let st = &self.state;
        let username = request.require(field::USERNAME)?.to_string();
        let passphrase = request.require(field::PASSPHRASE)?;
        // Authenticate by opening any entry of this user.
        if st.store.list_authenticated(&username, passphrase).is_empty() {
            return Err(MyProxyError::Refused(AUTH_FAILED.into()));
        }
        let anchor_hex = request.require(field::OTP_ANCHOR)?;
        let anchor = decode_hex32(anchor_hex)
            .ok_or_else(|| MyProxyError::Protocol("OTP_ANCHOR must be 64 hex chars".into()))?;
        let count = request.get_u64(field::OTP_COUNT, 0)?;
        if count == 0 || count > 10_000 {
            return Err(MyProxyError::Refused("OTP_COUNT out of range".into()));
        }
        st.otp.setup(&username, anchor, count as u32);
        respond(channel, &Response::success())?;
        Ok(())
    }

    /// INFO (`myproxy-info`). With `METRICS=1` in the request, the
    /// response additionally carries one `METRIC` field per registered
    /// metric — the same registry snapshot `GET /metrics` renders on
    /// the portal, in [`mp_obs::render_compact`] form.
    fn handle_info<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
    ) -> crate::Result<()> {
        let st = &self.state;
        // INFO reports the live view, so expired entries are purged
        // here as well as on the periodic sweep (they must not linger
        // in listings — or in the store — once dead).
        self.purge_expired();
        let username = request.require(field::USERNAME)?.to_string();
        let passphrase = request.require(field::PASSPHRASE)?;
        let entries = st.store.list_authenticated(&username, passphrase);
        if entries.is_empty() {
            return Err(MyProxyError::Refused(AUTH_FAILED.into()));
        }
        // Role and epoch first: operators (and the failover suite)
        // read these to tell a standby from the primary it shadows.
        let (role, epoch) = st.repl.status();
        let mut resp = Response::success()
            .with_field("ROLE", role.as_str())
            .with_field("EPOCH", &epoch.to_string());
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        for e in sorted {
            resp = resp.with_field(
                "CRED",
                &format!(
                    "name={} owner={} created={} not_after={} max_lifetime={} long_term={} renewable={} tags={}",
                    e.name,
                    e.owner_identity,
                    e.created_at,
                    e.not_after,
                    e.retrieval_max_lifetime,
                    e.long_term,
                    e.renewable_by.is_some(),
                    render_tags(&e.tags),
                ),
            );
        }
        if request.get("METRICS") == Some("1") {
            for line in mp_obs::render_compact(&self.metrics_snapshot()) {
                resp = resp.with_field("METRIC", &line);
            }
        }
        respond(channel, &resp)?;
        Ok(())
    }

    /// DESTROY (`myproxy-destroy`, §4.1).
    fn handle_destroy<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
    ) -> crate::Result<()> {
        let st = &self.state;
        let username = request.require(field::USERNAME)?.to_string();
        let passphrase = request.require(field::PASSPHRASE)?;
        let name = request.get(field::CRED_NAME).unwrap_or(DEFAULT_NAME);
        st.store.destroy(&username, name, passphrase)?;
        respond(channel, &Response::success())?;
        Ok(())
    }

    /// CHANGE_PASSPHRASE (`myproxy-change-pass-phrase`).
    fn handle_change_passphrase<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
        rng: &mut HmacDrbg,
    ) -> crate::Result<()> {
        let st = &self.state;
        let username = request.require(field::USERNAME)?.to_string();
        let old = request.require(field::PASSPHRASE)?;
        let new = request.require(field::NEW_PASSPHRASE)?;
        st.policy
            .check_passphrase(new)
            .map_err(|e| MyProxyError::Refused(e.to_string()))?;
        let name = request.get(field::CRED_NAME).unwrap_or(DEFAULT_NAME);
        st.store.change_passphrase(&username, name, old, new, rng)?;
        respond(channel, &Response::success())?;
        Ok(())
    }

    /// RENEW (§6.6): unattended refresh for long-running jobs.
    ///
    /// Three independent gates, then a challenge-response proving the
    /// renewer still holds the user's *current* proxy key:
    /// 1. the connecting identity is on the renewers ACL;
    /// 2. the entry was marked renewable, by a pattern matching that
    ///    identity;
    /// 3. the renewer signs a server nonce with the existing (unexpired)
    ///    proxy of the same user.
    fn handle_renew<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
        rng: &mut HmacDrbg,
    ) -> crate::Result<()> {
        let st = &self.state;
        let peer = channel.peer().clone();
        if !st.policy.authorized_renewers.is_authorized(&peer.identity) {
            return Err(MyProxyError::Refused(format!(
                "{} is not an authorized renewer",
                peer.identity
            )));
        }
        let username = request.require(field::USERNAME)?.to_string();
        let name = request.get(field::CRED_NAME).unwrap_or(DEFAULT_NAME);
        let entry = st
            .store
            .peek(&username, name)
            .ok_or_else(|| MyProxyError::Refused(AUTH_FAILED.into()))?;
        let pattern = entry
            .renewable_by
            .as_deref()
            .ok_or_else(|| MyProxyError::Refused(AUTH_FAILED.into()))?;
        if !DnPattern::new(pattern).matches(&peer.identity) {
            return Err(MyProxyError::Refused(AUTH_FAILED.into()));
        }

        // Challenge: prove possession of the user's current proxy.
        let mut nonce = [0u8; 32];
        rng.generate(&mut nonce);
        respond(channel, &Response::success().with_field("NONCE", &mp_crypto::hex(&nonce)))?;

        let proof = channel.recv()?;
        let mut r = WireReader::new(&proof);
        let chain_der = r.byte_list()?;
        let signature = r.bytes()?.to_vec();
        r.finish()?;
        let chain = mp_gsi::credential::chain_from_der(&chain_der)?;
        let now = st.clock.now();
        let v = validate_chain(&chain, &st.channel_cfg.trust_roots, now, &self.validation_options())
            .map_err(mp_gsi::GsiError::from)?;
        if v.identity.to_string() != entry.owner_identity {
            return Err(MyProxyError::Refused(
                "presented proxy does not belong to the credential owner".into(),
            ));
        }
        v.leaf_public_key
            .verify(&nonce, &signature)
            .map_err(|_| MyProxyError::Refused("renewal proof signature invalid".into()))?;

        let (credential, entry) = st.store.open_for_renewal(&username, name, st.master_key.expose())?;
        if credential.remaining_lifetime(now) == 0 {
            return Err(MyProxyError::Refused("stored credential has expired".into()));
        }
        // Acknowledge the proof before the delegation sub-protocol so
        // refusals up to this point reach the client as plain responses.
        respond(channel, &Response::success())?;
        let granted = entry
            .retrieval_max_lifetime
            .min(st.policy.max_delegated_lifetime_secs);
        let deleg_policy = DelegationPolicy {
            max_lifetime_secs: granted,
            policy: ProxyPolicy::InheritAll,
            path_len: None,
        };
        delegate(channel, &credential, &deleg_policy, rng, now)?;
        st.stats.gets.inc();
        Ok(())
    }

    /// PROMOTE: administratively make this repository the primary
    /// under a fresh, durably persisted epoch.
    fn handle_promote<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        _request: &Request,
    ) -> crate::Result<()> {
        let st = &self.state;
        let peer = channel.peer().clone();
        if !st.policy.replication_peers.is_authorized(&peer.identity) {
            return Err(MyProxyError::Refused(format!(
                "{} is not authorized to promote this repository",
                peer.identity
            )));
        }
        let epoch = st
            .repl
            .promote()
            .map_err(|e| MyProxyError::Refused(format!("promotion failed: {e}")))?;
        let (role, _) = st.repl.status();
        let status = Response::success()
            .with_field("ROLE", role.as_str())
            .with_field("EPOCH", &epoch.to_string());
        respond(channel, &status)?;
        Ok(())
    }

    /// REPLICATE: the standby side of the shipping stream.
    ///
    /// Handshake (text): check the peer ACL, fence epochs, adopt the
    /// stream id, and report per-shard applied sequences. Then a
    /// lock-step binary loop — one [`repl::ReplMsg`] in, one reply out
    /// — until `BYE`. Every inbound message re-checks the epoch, so a
    /// `PROMOTE` landing mid-stream cuts the old primary off at the
    /// next frame instead of after it.
    fn handle_replicate<T: Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        request: &Request,
    ) -> crate::Result<()> {
        let st = &self.state;
        let peer = channel.peer().clone();
        if !st.policy.replication_peers.is_authorized(&peer.identity) {
            return Err(MyProxyError::Refused(format!(
                "{} is not an authorized replication peer",
                peer.identity
            )));
        }
        let peer_epoch = request.get_u64("EPOCH", 0)?;
        let peer_shards = request.get_u64("SHARDS", 0)? as usize;
        let stream = request.get_u64("STREAM", 0)?;
        let shards = st.store.shard_count();
        if peer_shards != shards {
            return Err(MyProxyError::Refused(format!(
                "shard count mismatch: primary ships {peer_shards}, this repository has {shards}"
            )));
        }
        let (role, my_epoch) = st.repl.status();
        if peer_epoch < my_epoch {
            // A demoted primary's tail: reject, never merge.
            return Err(MyProxyError::Refused(format!("stale epoch: current={my_epoch}")));
        }
        if peer_epoch == my_epoch && role == Role::Primary {
            return Err(MyProxyError::Refused(format!(
                "split brain: both repositories claim primary at epoch {my_epoch}"
            )));
        }
        if peer_epoch > my_epoch {
            // The peer was promoted past us (we may be the demoted
            // half): adopt its epoch durably before applying anything.
            st.repl
                .observe_epoch(peer_epoch)
                .map_err(|e| MyProxyError::Gsi(GsiError::Io(e)))?;
        }
        st.repl.touch(st.clock.now());

        let applied = st.repl.handshake_sync(stream, shards);
        let (role, epoch) = st.repl.status();
        let mut resp = Response::success()
            .with_field("ROLE", role.as_str())
            .with_field("EPOCH", &epoch.to_string());
        for (si, seq) in applied.iter().enumerate() {
            if let Some(seq) = seq {
                resp = resp.with_field("SEQ", &format!("{si}:{seq}"));
            }
        }
        respond(channel, &resp)?;

        loop {
            let raw = channel.recv()?;
            let msg = repl::decode_msg(&raw)
                .ok_or_else(|| MyProxyError::Protocol("malformed replication message".into()))?;
            let (_, cur_epoch) = st.repl.status();
            if msg.epoch < cur_epoch {
                channel.send(&repl::encode_msg(&repl::ReplMsg::control(
                    repl::MSG_STALE,
                    cur_epoch,
                    0,
                    0,
                )))?;
                return Err(MyProxyError::Refused(format!("stale epoch: current={cur_epoch}")));
            }
            st.repl.touch(st.clock.now());
            let shard = msg.shard as usize;
            match msg.tag {
                repl::MSG_HEARTBEAT => {
                    channel.send(&repl::encode_msg(&repl::ReplMsg::control(
                        repl::MSG_ACK,
                        cur_epoch,
                        0,
                        0,
                    )))?;
                }
                repl::MSG_BYE => return Ok(()),
                repl::MSG_SEGMENT => {
                    let reply = self.apply_segment(shard, &msg, cur_epoch)?;
                    channel.send(&repl::encode_msg(&reply))?;
                }
                repl::MSG_SNAPSHOT => {
                    let reply = self.apply_snapshot(shard, &msg, cur_epoch)?;
                    channel.send(&repl::encode_msg(&reply))?;
                }
                _ => {
                    return Err(MyProxyError::Protocol(
                        "unexpected replication message tag".into(),
                    ))
                }
            }
        }
    }

    /// Replay one shipped segment into the standby store. The records
    /// are applied (durably, via this side's own journal) *before* the
    /// acknowledgment is built, so an acked sequence is never ahead of
    /// local state.
    fn apply_segment(
        &self,
        shard: usize,
        msg: &repl::ReplMsg,
        epoch: u64,
    ) -> crate::Result<repl::ReplMsg> {
        let st = &self.state;
        let Some(applied) = st.repl.applied_for(shard) else {
            // Unknown stream for this shard: only a snapshot may seed it.
            return Ok(repl::ReplMsg::control(repl::MSG_NEED_RESYNC, epoch, msg.shard, 0));
        };
        let (records, good_len, torn) = parse_journal(&msg.payload);
        if torn || good_len != msg.payload.len() {
            return Err(MyProxyError::Protocol("torn replication segment".into()));
        }
        let count = records.len() as u64;
        if count == 0 {
            return Ok(repl::ReplMsg::control(repl::MSG_ACK, epoch, msg.shard, applied));
        }
        if msg.seq > applied + 1 {
            // Gap: frames we never saw were evicted from the ring.
            return Ok(repl::ReplMsg::control(repl::MSG_NEED_RESYNC, epoch, msg.shard, 0));
        }
        let last = msg.seq + count - 1;
        let skip = (applied + 1).saturating_sub(msg.seq);
        if skip >= count {
            // Entirely a re-send of applied history.
            return Ok(repl::ReplMsg::control(repl::MSG_ACK, epoch, msg.shard, applied));
        }
        let fresh: Vec<WalRecord> = records.into_iter().skip(skip as usize).collect();
        self.commit_replicated(fresh)?;
        st.repl.advance_applied(shard, last);
        Ok(repl::ReplMsg::control(repl::MSG_ACK, epoch, msg.shard, last))
    }

    /// Replace one shard from a full snapshot: upsert everything in
    /// the payload, remove local entries of that shard the payload
    /// does not name, and peg the shard's applied watermark to the
    /// snapshot's sequence.
    fn apply_snapshot(
        &self,
        shard: usize,
        msg: &repl::ReplMsg,
        epoch: u64,
    ) -> crate::Result<repl::ReplMsg> {
        let st = &self.state;
        let (records, good_len, torn) = parse_journal(&msg.payload);
        if torn || good_len != msg.payload.len() {
            return Err(MyProxyError::Protocol("torn replication snapshot".into()));
        }
        let mut keep = std::collections::BTreeSet::new();
        for rec in &records {
            match rec {
                WalRecord::Upsert(e) => {
                    keep.insert((e.username.clone(), e.name.clone()));
                }
                _ => {
                    return Err(MyProxyError::Protocol(
                        "replication snapshot may only carry upserts".into(),
                    ))
                }
            }
        }
        let mut batch = Vec::new();
        for e in st.store.shard_entries(shard) {
            if !keep.contains(&(e.username.clone(), e.name.clone())) {
                batch.push(WalRecord::Remove { username: e.username, name: e.name });
            }
        }
        batch.extend(records);
        self.commit_replicated(batch)?;
        st.repl.reset_applied(shard, msg.seq);
        Ok(repl::ReplMsg::control(repl::MSG_ACK, epoch, msg.shard, msg.seq))
    }

    /// Commit replicated records through this side's own journal when
    /// durability is on (the standby must survive its own power cut),
    /// else apply in memory.
    fn commit_replicated(&self, records: Vec<WalRecord>) -> crate::Result<()> {
        let st = &self.state;
        match st.store.wal_handle() {
            Some(wal) => {
                wal.commit_many(&st.store, records)?;
            }
            None => {
                for rec in &records {
                    let _ = st.store.apply(rec);
                }
            }
        }
        Ok(())
    }

    /// Spawn a thread serving one in-memory connection; returns the
    /// client end. The handler thread is tracked in the server's
    /// [`HandlerSet`] so [`drain_local_handlers`](Self::drain_local_handlers)
    /// can join it; errors land in stats.
    pub fn connect_local(&self) -> mp_gsi::MemStream {
        let server = self.clone();
        self.state.local_handlers.connect_local(
            "myproxy-conn",
            &self.state.stats.handler_errors,
            move |conn, idle| server.handle(conn, idle),
        )
    }

    /// Join every handler thread started by
    /// [`connect_local`](Self::connect_local); returns how many were
    /// joined. Call before process exit so in-flight credential writes
    /// cannot be cut off.
    pub fn drain_local_handlers(&self) -> usize {
        self.state.local_handlers.drain()
    }

    /// This server as a pool [`Service`] (shared by all workers).
    pub fn service(&self) -> Arc<MyProxyService> {
        Arc::new(MyProxyService { server: self.clone(), log: false })
    }

    /// Serve TCP connections on a bounded worker pool with default
    /// [`NetConfig`] — deadlines armed, transient accept errors
    /// retried, load shed at the connection cap. Returns immediately;
    /// drop the handle to run detached, or keep it for
    /// [`ShutdownHandle::shutdown`].
    pub fn serve_tcp(&self, listener: std::net::TcpListener) -> std::io::Result<ShutdownHandle> {
        let acceptor = TcpAcceptor::new(listener)?;
        net::serve_scoped(acceptor, self.service(), NetConfig::default(), &self.state.obs, "myproxy")
    }

    /// Serve in-memory connections on the same pool machinery: push
    /// transports (plain [`mp_gsi::MemStream`] or fault-wrapped) into
    /// the returned queue and they are handled exactly like accepted
    /// sockets.
    pub fn serve_local(
        &self,
        cfg: NetConfig,
    ) -> std::io::Result<(QueuePusher<BoxedConn>, ShutdownHandle)> {
        let (push, acceptor) = accept_queue::<BoxedConn>();
        let handle = net::serve_scoped(acceptor, self.service(), cfg, &self.state.obs, "myproxy")?;
        Ok((push, handle))
    }
}

/// [`Service`] adapter driving a [`MyProxyServer`] from a worker pool.
pub struct MyProxyService {
    server: MyProxyServer,
    /// Narrate on stderr (the daemon's operator log).
    log: bool,
}

impl MyProxyService {
    /// The service as `myproxy-server` runs it: the same handling as
    /// [`MyProxyServer::service`], plus one stderr line per connection
    /// (`<peer>: ok` or `<peer>: <error>`), per sweep that purged
    /// something, and per automatic promotion.
    pub fn logging(server: &MyProxyServer) -> Arc<Self> {
        Arc::new(MyProxyService { server: server.clone(), log: true })
    }
}

/// The one point a response leaves the server: rendered by the line
/// codec (an unframeable one goes out as an explicit protocol error,
/// see [`Response::to_text`]) and sent as one record.
fn respond<T: Transport>(channel: &mut SecureChannel<T>, response: &Response) -> crate::Result<()> {
    Ok(channel.send(response.to_text().as_bytes())?)
}

/// Commands that change the credential store (a standby refuses
/// these). Exhaustive on purpose: a new command must decide.
fn mutates_store(cmd: Command) -> bool {
    match cmd {
        Command::Put
        | Command::StoreLongTerm
        | Command::Destroy
        | Command::ChangePassphrase
        | Command::OtpSetup => true,
        Command::Get
        | Command::OtpGet
        | Command::Info
        | Command::Renew
        | Command::Replicate
        | Command::Promote => false,
    }
}

impl<C: Transport + DeadlineControl + 'static> Service<C> for MyProxyService {
    fn handle(&self, conn: C, idle_deadline: Option<Duration>) -> Outcome {
        let peer = self.log.then(|| conn.peer_label().unwrap_or_default());
        let result = self.server.handle(conn, idle_deadline);
        match (&peer, &result) {
            (Some(peer), Ok(())) => eprintln!("{peer}: ok"),
            (Some(peer), Err(e)) => eprintln!("{peer}: {e}"),
            (None, _) => {}
        }
        net::outcome_of(&result, |e| match e {
            MyProxyError::Gsi(GsiError::Io(io)) => Some(io),
            _ => None,
        })
    }

    fn shed(&self, mut conn: C) {
        // Refuse in-protocol so the client gets "server busy", not a
        // hang; the peer may already be gone, which the counters show.
        if send_busy(&mut conn, BUSY_SHED_REASON).is_err() {
            self.server.state.stats.send_failures.inc();
        }
    }

    fn sweep(&self) {
        let purged = self.server.purge_expired();
        // Standby primary-loss detection rides the same tick; on a
        // primary (or a standby with manual promotion) this is a no-op.
        let promoted = self.server.check_auto_promote();
        if self.log && purged > 0 {
            eprintln!("purged {purged} expired credentials");
        }
        if self.log && promoted {
            let (_, epoch) = self.server.replication_status();
            eprintln!("primary heartbeat lost: promoted to primary (epoch {epoch})");
        }
    }
}

/// Build the proof message for RENEW: the user's current proxy chain and
/// a signature over the server's nonce. Shared with the client.
pub fn build_renewal_proof(old_proxy: &Credential, nonce: &[u8]) -> crate::Result<Vec<u8>> {
    let signature = old_proxy
        .key()
        .sign(nonce)
        .map_err(|_| MyProxyError::Protocol("cannot sign renewal nonce".into()))?;
    let mut w = WireWriter::new();
    w.byte_list(&old_proxy.chain_der());
    w.bytes(&signature);
    Ok(w.into_bytes())
}
