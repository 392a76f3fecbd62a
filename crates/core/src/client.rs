//! MyProxy client operations: `myproxy-init`, `myproxy-get-delegation`,
//! `myproxy-info`, `myproxy-destroy`, `myproxy-change-pass-phrase`
//! (paper §4.1–§4.2) plus the §6.x extension commands.
//!
//! Every operation is one connection: GSI handshake, one request, the
//! command-specific sub-protocol. Transports are supplied by the caller
//! so the same client speaks TCP or in-memory pipes.

use crate::proto::{field, render_tags, Command, Request, Response};
use crate::server::build_renewal_proof;
use crate::{MyProxyError, Result};
use mp_gsi::delegate::{accept_delegation, delegate, DelegationPolicy};
use mp_gsi::transport::{BoxedTransport, Connector, Transport};
use mp_gsi::{ChannelConfig, Credential, GsiError, SecureChannel};
use mp_crypto::Secret;
use mp_x509::{Certificate, Dn, ProxyPolicy};
use rand::Rng;

/// Map a channel-layer error onto [`MyProxyError`], recognizing the
/// server's BUSY shed frame (which the channel reports as
/// `Denied("server busy: <reason>")`) as the typed transient
/// [`MyProxyError::Busy`].
fn busy_aware(e: GsiError) -> MyProxyError {
    if let GsiError::Denied(msg) = &e {
        if let Some(reason) = msg.strip_prefix("server busy: ") {
            return MyProxyError::busy(reason);
        }
    }
    MyProxyError::Gsi(e)
}

/// Capped, jittered exponential backoff for **idempotent** operations
/// (GET/INFO), applied by [`Repositories::call`]. Retries fire on the
/// server's BUSY shed and on transient connect/timeout I/O errors;
/// anything else surfaces immediately.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so 1 = no retry).
    pub max_attempts: u32,
    /// First backoff delay; later attempts double it.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter (tests fix it).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, base_delay_ms: 50, max_delay_ms: 2_000, jitter_seed: 1 }
    }
}

/// splitmix64: tiny deterministic PRNG for jitter (no entropy needed —
/// jitter only has to decorrelate concurrent clients).
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

impl RetryPolicy {
    /// Is this error worth another attempt?
    pub fn retryable(e: &MyProxyError) -> bool {
        match e {
            MyProxyError::Busy { .. } => true,
            MyProxyError::Gsi(GsiError::Io(io)) => matches!(
                io.kind(),
                std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::NotConnected
            ),
            _ => false,
        }
    }

    /// Backoff before attempt `attempt` (1-based count of failures so
    /// far): capped exponential with jitter in the upper half, floored
    /// by the server's retry-after hint when one was sent.
    fn delay_ms(&self, attempt: u32, state: &mut u64, server_hint_ms: Option<u64>) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay_ms);
        splitmix64(state);
        let jittered = exp / 2 + if exp > 1 { *state % (exp / 2 + 1) } else { 0 };
        jittered.max(server_hint_ms.unwrap_or(0)).min(self.max_delay_ms)
    }

    /// Run `op` (one full dial-and-transact) up to `max_attempts`
    /// times, sleeping between attempts, and report how many attempts
    /// were spent (1 = the first try sufficed). Private on purpose:
    /// [`Repositories::call`] is the only retry loop, and it accepts
    /// only [`Idempotent`] requests.
    fn run_counted<T>(&self, mut op: impl FnMut() -> Result<T>) -> (Result<T>, u32) {
        let mut jitter = self.jitter_seed;
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), attempt.saturating_add(1)),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts.max(1) || !Self::retryable(&e) {
                        return (Err(e), attempt);
                    }
                    let hint = match &e {
                        MyProxyError::Busy { retry_after_ms, .. } => *retry_after_ms,
                        _ => None,
                    };
                    let delay = self.delay_ms(attempt, &mut jitter, hint);
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::GetParams {}
    impl Sealed for super::InfoParams {}
}

/// A request that changes nothing on the repository, so sending it
/// again — to the same repository after a BUSY shed, or to the next
/// one after a dead dial — can never apply an operation twice.
///
/// Sealed, and implemented for exactly [`GetParams`] (GET / OTP_GET)
/// and [`InfoParams`] (INFO). PUT, STORE_LONG_TERM, DESTROY,
/// CHANGE_PASSPHRASE, OTP_SETUP and PROMOTE mutate the store or the
/// replication epoch: a timed-out attempt may already have been
/// applied (and a rotated one would apply it to a second repository),
/// so their request types do not implement this trait and
/// [`Repositories::call`] does not compile with them. DESIGN.md §4.4
/// has the per-command reasons.
pub trait Idempotent: sealed::Sealed {
    /// What the repository answers.
    type Reply;

    /// One attempt over a freshly dialled `transport`.
    #[doc(hidden)]
    fn perform<R: Rng + ?Sized>(
        &self,
        client: &MyProxyClient,
        transport: BoxedTransport,
        cred: &Credential,
        rng: &mut R,
        now: u64,
    ) -> Result<Self::Reply>;
}

impl Idempotent for GetParams {
    type Reply = Credential;

    fn perform<R: Rng + ?Sized>(
        &self,
        client: &MyProxyClient,
        transport: BoxedTransport,
        cred: &Credential,
        rng: &mut R,
        now: u64,
    ) -> Result<Credential> {
        client.get_delegation(transport, cred, self, rng, now)
    }
}

impl Idempotent for InfoParams {
    type Reply = InfoReply;

    fn perform<R: Rng + ?Sized>(
        &self,
        client: &MyProxyClient,
        transport: BoxedTransport,
        cred: &Credential,
        rng: &mut R,
        now: u64,
    ) -> Result<InfoReply> {
        client.info_reply(transport, cred, self, rng, now)
    }
}

fn dial_error(e: std::io::Error) -> MyProxyError {
    MyProxyError::Gsi(GsiError::Io(e))
}

/// Where a client operation goes: an ordered repository list
/// (`--repositories a:7512,b:7512`; a single `--server` is a list of
/// one) and the [`RetryPolicy`] for idempotent requests ("no retry" is
/// `max_attempts = 1`). The only two ways to run an operation against
/// it are [`call`](Self::call) and [`call_once`](Self::call_once);
/// both report how many dials were spent, so the repository that
/// answered is `connectors[(attempts - 1) % len]`.
///
/// The retry loop takes only [`Idempotent`] requests, so "never retry
/// a PUT" is a type error rather than a convention:
///
/// ```
/// use mp_myproxy::client::{GetParams, MyProxyClient, Repositories};
/// fn get(repos: &Repositories, client: &MyProxyClient, cred: &mp_gsi::Credential) {
///     let mut rng = mp_crypto::HmacDrbg::new(b"doc");
///     let _ = repos.call(client, cred, &GetParams::new("alice", "pw"), &mut rng, 0);
/// }
/// ```
///
/// ```compile_fail
/// use mp_myproxy::client::{InitParams, MyProxyClient, Repositories};
/// fn put(repos: &Repositories, client: &MyProxyClient, cred: &mp_gsi::Credential) {
///     let mut rng = mp_crypto::HmacDrbg::new(b"doc");
///     // error[E0277]: the trait bound `InitParams: Idempotent` is not satisfied
///     let _ = repos.call(client, cred, &InitParams::new("alice", "pw"), &mut rng, 0);
/// }
/// ```
pub struct Repositories {
    connectors: Vec<Connector>,
    policy: RetryPolicy,
}

impl Repositories {
    /// `connectors` in preference order; `policy` governs
    /// [`call`](Self::call) only.
    pub fn new(connectors: Vec<Connector>, policy: RetryPolicy) -> Self {
        Repositories { connectors, policy }
    }

    /// Run an idempotent request: every attempt the policy grants
    /// re-dials, moving to the next repository in order (wrapping
    /// around), until one answers, a permanent error surfaces, or
    /// attempts run out. Returns the result and the attempts spent.
    pub fn call<Q: Idempotent, R: Rng + ?Sized>(
        &self,
        client: &MyProxyClient,
        cred: &Credential,
        request: &Q,
        rng: &mut R,
        now: u64,
    ) -> (Result<Q::Reply>, u32) {
        let mut next = 0usize;
        self.policy.run_counted(|| {
            let connector = self
                .connectors
                .get(next % self.connectors.len().max(1))
                .ok_or_else(empty_list)?;
            next += 1;
            request.perform(client, connector().map_err(dial_error)?, cred, rng, now)
        })
    }

    /// Run any operation exactly once. A repository is skipped only
    /// when its *dial* is refused (nothing was sent); the first one
    /// that accepts a connection gets the one and only `op`, and
    /// whatever happens after that surfaces as is — a mutation is
    /// never replayed, on this repository or the next. Returns the
    /// result and the dials spent.
    pub fn call_once<T>(&self, op: impl FnOnce(BoxedTransport) -> Result<T>) -> (Result<T>, u32) {
        let mut refused = None;
        let mut dials = 0u32;
        for connector in &self.connectors {
            dials += 1;
            match connector() {
                Ok(transport) => return (op(transport), dials),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => refused = Some(e),
                Err(e) => return (Err(dial_error(e)), dials),
            }
        }
        (Err(refused.map(dial_error).unwrap_or_else(empty_list)), dials)
    }
}

fn empty_list() -> MyProxyError {
    MyProxyError::Protocol("empty repository list".into())
}

/// Parameters for `myproxy-init` (PUT) and STORE_LONG_TERM.
#[derive(Clone, Debug)]
pub struct InitParams {
    /// Repository account name.
    pub username: String,
    /// Retrieval pass phrase (chosen by the user, §4.1).
    pub passphrase: Secret<String>,
    /// Lifetime of the credential delegated *to* the repository
    /// ("normally have a lifetime of a week", §4.1).
    pub lifetime_secs: u64,
    /// Maximum lifetime the repository may delegate *out* on this
    /// user's behalf (§4.1 retrieval restrictions).
    pub retrieval_max_lifetime: Option<u64>,
    /// Wallet name (§6.2).
    pub cred_name: Option<String>,
    /// Wallet tags (§6.2).
    pub tags: Vec<(String, String)>,
    /// DN pattern allowed to RENEW from this entry (§6.6).
    pub renewer: Option<String>,
}

impl InitParams {
    /// Defaults matching the paper: one week to the repository.
    pub fn new(username: &str, passphrase: &str) -> Self {
        InitParams {
            username: username.to_string(),
            passphrase: Secret::from(passphrase),
            lifetime_secs: 7 * 24 * 3600,
            retrieval_max_lifetime: None,
            cred_name: None,
            tags: Vec::new(),
            renewer: None,
        }
    }

    fn to_request(&self, command: Command) -> Request {
        let mut req = Request::new(command)
            .field(field::USERNAME, &self.username)
            .secret_field(field::PASSPHRASE, &self.passphrase)
            .field(field::LIFETIME, &self.lifetime_secs.to_string());
        if let Some(r) = self.retrieval_max_lifetime {
            req = req.field("RETRIEVER_LIFETIME", &r.to_string());
        }
        if let Some(n) = &self.cred_name {
            req = req.field(field::CRED_NAME, n);
        }
        if !self.tags.is_empty() {
            req = req.field(field::CRED_TAGS, &render_tags(&self.tags));
        }
        if let Some(r) = &self.renewer {
            req = req.field("RENEWER", r);
        }
        req
    }
}

/// Parameters for `myproxy-get-delegation` (GET / OTP_GET).
#[derive(Clone, Debug)]
pub struct GetParams {
    /// Repository account name.
    pub username: String,
    /// Retrieval pass phrase.
    pub passphrase: Secret<String>,
    /// Requested proxy lifetime ("normally on the order of a few
    /// hours", §4.3).
    pub lifetime_secs: u64,
    /// Explicit wallet entry, or
    pub cred_name: Option<String>,
    /// task tags for wallet selection (§6.2), e.g. `ca:DOE,target:storage`.
    pub task: Vec<(String, String)>,
    /// One-time password (OTP_GET only).
    pub otp: Option<String>,
    /// RSA modulus bits for the locally generated proxy key.
    pub key_bits: usize,
}

impl GetParams {
    /// Defaults: 2-hour proxy, 512-bit key.
    pub fn new(username: &str, passphrase: &str) -> Self {
        GetParams {
            username: username.to_string(),
            passphrase: Secret::from(passphrase),
            lifetime_secs: 2 * 3600,
            cred_name: None,
            task: Vec::new(),
            otp: None,
            key_bits: 512,
        }
    }

    fn to_request(&self) -> Request {
        let command = if self.otp.is_some() { Command::OtpGet } else { Command::Get };
        let mut req = Request::new(command)
            .field(field::USERNAME, &self.username)
            .secret_field(field::PASSPHRASE, &self.passphrase)
            .field(field::LIFETIME, &self.lifetime_secs.to_string());
        if let Some(n) = &self.cred_name {
            req = req.field(field::CRED_NAME, n);
        }
        if !self.task.is_empty() {
            req = req.field(field::TASK, &render_tags(&self.task));
        }
        if let Some(otp) = &self.otp {
            req = req.field(field::OTP, otp);
        }
        req
    }
}

/// Parameters for `myproxy-info` (INFO).
#[derive(Clone, Debug)]
pub struct InfoParams {
    /// Repository account name.
    pub username: String,
    /// Retrieval pass phrase.
    pub passphrase: Secret<String>,
    /// Also ask for the server's metrics snapshot (`METRICS=1`).
    pub metrics: bool,
}

impl InfoParams {
    /// A plain listing, no metrics.
    pub fn new(username: &str, passphrase: &str) -> Self {
        InfoParams {
            username: username.to_string(),
            passphrase: Secret::from(passphrase),
            metrics: false,
        }
    }
}

/// Everything one INFO response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoReply {
    /// The user's stored credentials.
    pub creds: Vec<CredInfo>,
    /// Role and epoch of the repository that answered.
    pub status: RepoStatus,
    /// The server's registry snapshot, one compact `name value` /
    /// percentile line per metric (see [`mp_obs::render_compact`]);
    /// empty unless [`InfoParams::metrics`] was set.
    pub metrics: Vec<String>,
}

/// Parsed `myproxy-info` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CredInfo {
    /// Wallet name.
    pub name: String,
    /// Depositor's Grid DN.
    pub owner: String,
    /// Deposit time.
    pub created: u64,
    /// Stored-chain expiry.
    pub not_after: u64,
    /// Retrieval lifetime cap.
    pub max_lifetime: u64,
    /// §6.1 long-term entry?
    pub long_term: bool,
    /// §6.6 renewable entry?
    pub renewable: bool,
}

/// Replication role and epoch of the repository that answered an INFO
/// (see [`crate::repl`]): operators and the failover suite read this
/// to tell a standby from the primary it shadows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoStatus {
    /// "primary", "standby" or "promoting".
    pub role: String,
    /// Replication generation number.
    pub epoch: u64,
}

/// A MyProxy client: trust configuration + the expected server identity.
pub struct MyProxyClient {
    channel_cfg: ChannelConfig,
}

impl MyProxyClient {
    /// Build a client trusting `trust_roots`; if `server_identity` is
    /// given, connections refuse any other server (mutual auth, §5.1).
    pub fn new(trust_roots: Vec<Certificate>, server_identity: Option<Dn>) -> Self {
        let mut cfg = ChannelConfig::new(trust_roots);
        cfg.expected_peer = server_identity;
        MyProxyClient { channel_cfg: cfg }
    }

    fn open_channel<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        rng: &mut R,
        now: u64,
    ) -> Result<SecureChannel<T>> {
        SecureChannel::connect(transport, cred, &self.channel_cfg, rng, now).map_err(busy_aware)
    }

    pub(crate) fn transact<T: Transport>(
        channel: &mut SecureChannel<T>,
        request: &Request,
    ) -> Result<Response> {
        // The one audited send point: a field that cannot be framed
        // (embedded newline, '=' in a key) is a typed error here, not
        // a panic in the builder.
        if let Some(why) = request.framing_violation() {
            return Err(MyProxyError::Protocol(why));
        }
        channel.send(request.to_text().as_bytes())?;
        Self::read_response(channel)
    }

    fn read_response<T: Transport>(channel: &mut SecureChannel<T>) -> Result<Response> {
        let resp = channel.recv()?;
        let resp = String::from_utf8(resp)
            .map_err(|_| MyProxyError::Protocol("response not UTF-8".into()))?;
        Response::from_text(&resp)?.into_result()
    }

    /// `myproxy-init` (Figure 1): delegate a proxy of `cred` to the
    /// repository under (username, pass phrase). Returns the stored
    /// credential's expiry.
    pub fn init<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        params: &InitParams,
        rng: &mut R,
        now: u64,
    ) -> Result<u64> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        Self::transact(&mut channel, &params.to_request(Command::Put))?;
        // The server accepts a delegation; we are the delegator.
        let deleg = DelegationPolicy {
            max_lifetime_secs: params.lifetime_secs,
            policy: ProxyPolicy::InheritAll,
            path_len: None,
        };
        delegate(&mut channel, cred, &deleg, rng, now)?;
        let final_resp = Self::read_response(&mut channel)?;
        final_resp
            .all("NOT_AFTER")
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| MyProxyError::Protocol("missing NOT_AFTER in PUT response".into()))
    }

    /// STORE_LONG_TERM (§6.1): ship `to_store` (a long-term credential,
    /// private key and all) to the repository for server-side
    /// management. Travels only inside the encrypted channel.
    pub fn store_long_term<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        to_store: &Credential,
        params: &InitParams,
        rng: &mut R,
        now: u64,
    ) -> Result<u64> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        Self::transact(&mut channel, &params.to_request(Command::StoreLongTerm))?;
        channel.send(to_store.to_pem().as_bytes())?;
        let final_resp = Self::read_response(&mut channel)?;
        final_resp
            .all("NOT_AFTER")
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| MyProxyError::Protocol("missing NOT_AFTER in STORE response".into()))
    }

    /// `myproxy-get-delegation` (Figure 2): authenticate with username +
    /// pass phrase (or OTP), receive a delegated proxy credential.
    pub fn get_delegation<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        params: &GetParams,
        rng: &mut R,
        now: u64,
    ) -> Result<Credential> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        Self::transact(&mut channel, &params.to_request())?;
        Ok(accept_delegation(
            &mut channel,
            params.lifetime_secs,
            params.key_bits,
            rng,
        )?)
    }

    /// `myproxy-info`: list stored credentials (pass-phrase
    /// authenticated).
    pub fn info<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        username: &str,
        passphrase: &str,
        rng: &mut R,
        now: u64,
    ) -> Result<Vec<CredInfo>> {
        let params = InfoParams::new(username, passphrase);
        Ok(self.info_reply(transport, cred, &params, rng, now)?.creds)
    }

    /// `myproxy-info --metrics`: the INFO listing plus the server's
    /// registry snapshot (see [`InfoReply::metrics`]).
    pub fn info_with_metrics<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        username: &str,
        passphrase: &str,
        rng: &mut R,
        now: u64,
    ) -> Result<(Vec<CredInfo>, Vec<String>)> {
        let mut params = InfoParams::new(username, passphrase);
        params.metrics = true;
        let reply = self.info_reply(transport, cred, &params, rng, now)?;
        Ok((reply.creds, reply.metrics))
    }

    /// The one INFO exchange and the one place its response is parsed.
    fn info_reply<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        params: &InfoParams,
        rng: &mut R,
        now: u64,
    ) -> Result<InfoReply> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        let mut req = Request::new(Command::Info)
            .field(field::USERNAME, &params.username)
            .secret_field(field::PASSPHRASE, &params.passphrase);
        if params.metrics {
            req = req.field("METRICS", "1");
        }
        let resp = Self::transact(&mut channel, &req)?;
        Ok(InfoReply {
            creds: resp.all("CRED").iter().map(|line| parse_cred_info(line)).collect::<Result<_>>()?,
            status: parse_repo_status(&resp),
            metrics: resp.all("METRIC").iter().map(|s| s.to_string()).collect(),
        })
    }

    /// PROMOTE (admin, restricted by the `replication_peers` ACL): ask
    /// a standby to take over as primary — the explicit half of
    /// failover, see [`crate::repl`]. Returns the repository's
    /// post-promotion role and epoch.
    pub fn promote<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        rng: &mut R,
        now: u64,
    ) -> Result<RepoStatus> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        let resp = Self::transact(&mut channel, &Request::new(Command::Promote))?;
        Ok(parse_repo_status(&resp))
    }

    /// `myproxy-destroy` (§4.1): remove a stored credential.
    pub fn destroy<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        username: &str,
        passphrase: &str,
        cred_name: Option<&str>,
        rng: &mut R,
        now: u64,
    ) -> Result<()> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        let mut req = Request::new(Command::Destroy)
            .field(field::USERNAME, username)
            .field(field::PASSPHRASE, passphrase);
        if let Some(n) = cred_name {
            req = req.field(field::CRED_NAME, n);
        }
        Self::transact(&mut channel, &req)?;
        Ok(())
    }

    /// `myproxy-change-pass-phrase`.
    #[allow(clippy::too_many_arguments)]
    pub fn change_passphrase<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        username: &str,
        old_passphrase: &str,
        new_passphrase: &str,
        cred_name: Option<&str>,
        rng: &mut R,
        now: u64,
    ) -> Result<()> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        let mut req = Request::new(Command::ChangePassphrase)
            .field(field::USERNAME, username)
            .field(field::PASSPHRASE, old_passphrase)
            .field(field::NEW_PASSPHRASE, new_passphrase);
        if let Some(n) = cred_name {
            req = req.field(field::CRED_NAME, n);
        }
        Self::transact(&mut channel, &req)?;
        Ok(())
    }

    /// OTP_SETUP (§6.3): register a one-time-password chain.
    #[allow(clippy::too_many_arguments)]
    pub fn otp_setup<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        cred: &Credential,
        username: &str,
        passphrase: &str,
        anchor_hex: &str,
        chain_len: u32,
        rng: &mut R,
        now: u64,
    ) -> Result<()> {
        let mut channel = self.open_channel(transport, cred, rng, now)?;
        let req = Request::new(Command::OtpSetup)
            .field(field::USERNAME, username)
            .field(field::PASSPHRASE, passphrase)
            .field(field::OTP_ANCHOR, anchor_hex)
            .field(field::OTP_COUNT, &chain_len.to_string());
        Self::transact(&mut channel, &req)?;
        Ok(())
    }

    /// RENEW (§6.6): obtain a fresh proxy by proving possession of the
    /// user's current proxy — no pass phrase involved, so a job manager
    /// can run this unattended before the old proxy expires.
    #[allow(clippy::too_many_arguments)]
    pub fn renew<T: Transport, R: Rng + ?Sized>(
        &self,
        transport: T,
        renewer_cred: &Credential,
        old_proxy: &Credential,
        username: &str,
        cred_name: Option<&str>,
        key_bits: usize,
        rng: &mut R,
        now: u64,
    ) -> Result<Credential> {
        let mut channel = self.open_channel(transport, renewer_cred, rng, now)?;
        let mut req = Request::new(Command::Renew).field(field::USERNAME, username);
        if let Some(n) = cred_name {
            req = req.field(field::CRED_NAME, n);
        }
        let resp = Self::transact(&mut channel, &req)?;
        let nonce_hex = resp
            .all("NONCE")
            .first()
            .map(|s| s.to_string())
            .ok_or_else(|| MyProxyError::Protocol("missing NONCE in RENEW response".into()))?;
        let nonce = crate::otp::decode_hex32(&nonce_hex)
            .ok_or_else(|| MyProxyError::Protocol("malformed NONCE".into()))?;
        let proof = build_renewal_proof(old_proxy, &nonce)?;
        channel.send(&proof)?;
        Self::read_response(&mut channel)?; // proof verdict
        Ok(accept_delegation(&mut channel, u64::MAX, key_bits, rng)?)
    }
}

/// ROLE/EPOCH response fields → [`RepoStatus`]. Servers predating
/// replication send neither; they are primaries at epoch 0.
fn parse_repo_status(resp: &Response) -> RepoStatus {
    RepoStatus {
        role: resp
            .all("ROLE")
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "primary".to_string()),
        epoch: resp.all("EPOCH").first().and_then(|v| v.parse().ok()).unwrap_or(0),
    }
}

fn parse_cred_info(line: &str) -> Result<CredInfo> {
    let mut name = None;
    let mut owner = None;
    let mut created = None;
    let mut not_after = None;
    let mut max_lifetime = None;
    let mut long_term = None;
    let mut renewable = None;
    for part in line.split_whitespace() {
        let Some((k, v)) = part.split_once('=') else { continue };
        match k {
            "name" => name = Some(v.to_string()),
            "owner" => owner = Some(v.to_string()),
            "created" => created = v.parse().ok(),
            "not_after" => not_after = v.parse().ok(),
            "max_lifetime" => max_lifetime = v.parse().ok(),
            "long_term" => long_term = v.parse().ok(),
            "renewable" => renewable = v.parse().ok(),
            _ => {}
        }
    }
    Ok(CredInfo {
        name: name.ok_or_else(|| MyProxyError::Protocol("CRED line missing name".into()))?,
        owner: owner.unwrap_or_default(),
        created: created.unwrap_or(0),
        not_after: not_after.unwrap_or(0),
        max_lifetime: max_lifetime.unwrap_or(0),
        long_term: long_term.unwrap_or(false),
        renewable: renewable.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn cred_info_parsing() {
        let line = "name=default owner=/O=Grid/CN=alice created=100 not_after=5000 max_lifetime=7200 long_term=false renewable=true tags=ca:DOE";
        let info = parse_cred_info(line).unwrap();
        assert_eq!(info.name, "default");
        assert_eq!(info.owner, "/O=Grid/CN=alice");
        assert_eq!(info.created, 100);
        assert_eq!(info.not_after, 5000);
        assert_eq!(info.max_lifetime, 7200);
        assert!(!info.long_term);
        assert!(info.renewable);
    }

    #[test]
    fn cred_info_requires_name() {
        assert!(parse_cred_info("owner=/O=Grid/CN=x").is_err());
    }

    #[test]
    fn busy_error_parses_retry_after_hint() {
        let e = MyProxyError::busy("connection limit reached; retry-after-ms=200");
        match &e {
            MyProxyError::Busy { retry_after_ms, .. } => assert_eq!(*retry_after_ms, Some(200)),
            other => panic!("expected Busy, got {other}"),
        }
        assert!(e.is_busy());
        let no_hint = MyProxyError::busy("go away");
        match no_hint {
            MyProxyError::Busy { retry_after_ms, .. } => assert_eq!(retry_after_ms, None),
            other => panic!("expected Busy, got {other}"),
        }
    }

    #[test]
    fn busy_aware_maps_shed_frame_and_passes_others_through() {
        let shed = GsiError::Denied("server busy: connection limit reached; retry-after-ms=200".into());
        assert!(busy_aware(shed).is_busy());
        let denied = GsiError::Denied("bad certificate".into());
        assert!(!busy_aware(denied).is_busy());
    }

    #[test]
    fn retry_policy_retries_busy_then_succeeds() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_seed: 7,
        };
        let mut calls = 0;
        let (result, _) = policy.run_counted(|| {
            calls += 1;
            if calls < 3 {
                Err(MyProxyError::busy("retry-after-ms=0"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_policy_gives_up_at_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_seed: 7,
        };
        let mut calls = 0;
        let (result, _) = policy.run_counted(|| {
            calls += 1;
            Err::<u32, _>(MyProxyError::busy("still busy"))
        });
        assert!(result.unwrap_err().is_busy());
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_counted_reports_attempts_spent() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_seed: 7,
        };
        let mut calls = 0;
        let (res, used): (Result<u32>, u32) = policy.run_counted(|| {
            calls += 1;
            if calls < 3 { Err(MyProxyError::busy("b")) } else { Ok(9) }
        });
        assert_eq!(res.unwrap(), 9);
        assert_eq!(used, 3);
        let (res, used): (Result<u32>, u32) =
            policy.run_counted(|| Err::<u32, _>(MyProxyError::busy("b")));
        assert!(res.is_err());
        assert_eq!(used, policy.max_attempts);
        let (res, used): (Result<u32>, u32) = policy.run_counted(|| Ok(1));
        assert_eq!(res.unwrap(), 1);
        assert_eq!(used, 1, "first try sufficed");
    }

    #[test]
    fn retry_policy_never_retries_permanent_errors() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let (result, _) = policy.run_counted(|| {
            calls += 1;
            Err::<u32, _>(MyProxyError::Refused("authentication failed".into()))
        });
        assert!(result.is_err());
        assert_eq!(calls, 1, "a refusal is permanent; one attempt only");
    }

    #[test]
    fn retry_delay_honors_server_hint_and_cap() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 100,
            jitter_seed: 3,
        };
        let mut state = policy.jitter_seed;
        let d = policy.delay_ms(1, &mut state, Some(60));
        assert!(d >= 60, "server hint is a floor, got {d}");
        assert!(d <= 100, "cap still applies, got {d}");
        let d_late = policy.delay_ms(30, &mut state, None);
        assert!(d_late <= 100, "exponent overflow clamped, got {d_late}");
    }

    fn failing_connector(kind: std::io::ErrorKind, dials: &Arc<AtomicU32>) -> Connector {
        let dials = dials.clone();
        Arc::new(move || {
            dials.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::new(kind, "injected dial failure"))
        })
    }

    #[test]
    fn call_once_surfaces_a_non_refused_dial_error_without_moving_on() {
        let (first, second) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
        let repos = Repositories::new(
            vec![
                failing_connector(std::io::ErrorKind::PermissionDenied, &first),
                failing_connector(std::io::ErrorKind::ConnectionRefused, &second),
            ],
            RetryPolicy::default(),
        );
        let (result, dials) = repos.call_once(|_| Ok(()));
        match result {
            Err(MyProxyError::Gsi(GsiError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::PermissionDenied)
            }
            other => panic!("expected the first dial's error, got {other:?}"),
        }
        assert_eq!((dials, first.load(Ordering::Relaxed), second.load(Ordering::Relaxed)), (1, 1, 0));

        // Refused dials do move on; the last refusal is what surfaces.
        let repos = Repositories::new(
            vec![
                failing_connector(std::io::ErrorKind::ConnectionRefused, &first),
                failing_connector(std::io::ErrorKind::ConnectionRefused, &second),
            ],
            RetryPolicy::default(),
        );
        let (result, dials) = repos.call_once(|_| Ok(()));
        assert!(matches!(result, Err(MyProxyError::Gsi(GsiError::Io(_)))));
        assert_eq!((dials, second.load(Ordering::Relaxed)), (2, 1));
    }

    #[test]
    fn call_on_an_empty_list_is_a_typed_error() {
        let key = mp_x509::test_util::test_rsa_key(0);
        let dn = Dn::parse("/O=Grid/CN=nobody").unwrap();
        let ca = mp_x509::CertificateAuthority::new_root(dn, key.clone(), 0, 1_000).unwrap();
        let cred = Credential::new(vec![ca.certificate().clone()], key.clone()).unwrap();
        let repos = Repositories::new(Vec::new(), RetryPolicy::default());
        let client = MyProxyClient::new(Vec::new(), None);
        let mut rng = mp_x509::test_util::test_drbg("empty list");
        let (result, attempts) = repos.call(&client, &cred, &GetParams::new("u", "p"), &mut rng, 0);
        assert!(
            matches!(&result, Err(MyProxyError::Protocol(m)) if m.contains("empty repository list")),
            "got {result:?}"
        );
        assert_eq!(attempts, 1, "a permanent error is not retried");
        let (result, dials) = repos.call_once(|_| Ok(()));
        assert!(matches!(result, Err(MyProxyError::Protocol(_))));
        assert_eq!(dials, 0);
    }
}
