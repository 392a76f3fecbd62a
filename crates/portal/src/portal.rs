//! The Grid portal: Figure 3 made executable.
//!
//! 1. the user's browser sends the MyProxy user name + pass phrase to
//!    the portal (over HTTPS-sim — §5.2 forbids plain HTTP for this);
//! 2. the portal authenticates to the repository *with its own Grid
//!    credentials* and presents the user's authentication data;
//! 3. the repository delegates the user's proxy to the portal, which
//!    binds it to the browser's session cookie;
//! then the portal drives GRAM / mass storage as the user until logout
//! (which deletes the delegated credential) or proxy expiry.

use crate::http::{HttpRequest, HttpResponse};
use crate::session::{SessionManager, COOKIE};
use crate::{tls, PortalError, Result};
use mp_crypto::HmacDrbg;
use mp_gram::{job, storage};
use mp_gsi::net::{
    self, DeadlineControl, NetConfig, Outcome, Service, ShutdownHandle, TcpAcceptor,
};
use mp_gsi::transport::{Connector, Transport};
use mp_gsi::{ChannelConfig, Credential};
use mp_myproxy::client::GetParams;
use mp_myproxy::MyProxyClient;
use mp_obs::{Counter, Histogram, Registry, Snapshot};
use mp_x509::{Certificate, Clock, Dn};
use parking_lot::Mutex;
use std::io::Read;
use std::sync::Arc;

/// Everything a portal needs to run.
pub struct PortalConfig {
    /// The portal's own Grid credentials — kept unencrypted so the
    /// production service needs no operator at restart (the §5.2
    /// trade-off, discussed verbatim in the paper).
    pub credential: Credential,
    /// CA roots for every Grid-side connection.
    pub trust_roots: Vec<Certificate>,
    /// Dial the MyProxy repository.
    pub myproxy: Connector,
    /// Expected repository identity (pinned; §5.1 mutual auth).
    pub myproxy_identity: Option<Dn>,
    /// Dial the job manager, if job submission is offered.
    pub jobmanager: Option<Connector>,
    /// Dial mass storage, if file operations are offered.
    pub storage: Option<Connector>,
    /// Time source.
    pub clock: Arc<dyn Clock>,
    /// §5.2: refuse to accept login pass phrases over plain HTTP.
    pub require_tls: bool,
    /// Entropy.
    pub rng: HmacDrbg,
}

/// The portal server.
pub struct GridPortal {
    config: PortalConfig,
    sessions: SessionManager,
    myproxy_client: MyProxyClient,
    grid_cfg: ChannelConfig,
    rng: Mutex<HmacDrbg>,
    /// Per-portal metrics registry: `portal.*` counters, the
    /// `portal.request` latency histogram, and the counters of both
    /// pools (TLS / plain) when served via the pool helpers. What
    /// `GET /metrics` renders, merged with the global span registry.
    obs: Arc<Registry>,
    /// Requests routed through [`GridPortal::handle_request`].
    requests: Counter,
    /// Per-request handling latency (routing + backend round-trips).
    request_hist: Histogram,
    /// Connections whose detached handler thread ended in an error
    /// (malformed request, TLS failure) with nobody left to report to.
    handler_errors: Counter,
}

impl GridPortal {
    /// Build a portal from config.
    pub fn new(mut config: PortalConfig) -> Self {
        let myproxy_client = MyProxyClient::new(
            config.trust_roots.clone(),
            config.myproxy_identity.clone(),
        );
        let grid_cfg = ChannelConfig::new(config.trust_roots.clone());
        let mut seed = [0u8; 32];
        config.rng.generate(&mut seed);
        let obs = Arc::new(Registry::new());
        GridPortal {
            config,
            sessions: SessionManager::new(),
            myproxy_client,
            grid_cfg,
            rng: Mutex::new(HmacDrbg::new(&seed)),
            requests: obs.counter("portal.requests"),
            request_hist: obs.histogram("portal.request"),
            handler_errors: obs.counter("portal.handler_errors"),
            obs,
        }
    }

    /// Session table (tests inspect it).
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Accept-loop connections whose handler thread ended in an error.
    pub fn handler_errors(&self) -> u64 {
        self.handler_errors.get()
    }

    /// This portal's metrics registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Everything observable about this portal: its instance registry
    /// merged with the process-global ambient spans.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.obs.snapshot().merged(&mp_obs::global().snapshot())
    }

    /// The `GET /metrics` scrape body (mp-obs text exposition).
    pub fn metrics_text(&self) -> String {
        mp_obs::render(&self.metrics_snapshot())
    }

    fn req_rng(&self) -> HmacDrbg {
        let mut seed = [0u8; 32];
        self.rng.lock().generate(&mut seed);
        HmacDrbg::new(&seed)
    }

    /// Route one HTTP request. `secure` says whether it arrived over
    /// HTTPS-sim.
    pub fn handle_request(&self, req: &HttpRequest, secure: bool) -> HttpResponse {
        self.requests.inc();
        let _timer = self.request_hist.timer();
        let mut rng = self.req_rng();
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => HttpResponse::ok_html(LOGIN_PAGE),
            ("POST", "/login") => self.login(req, secure, &mut rng),
            ("POST", "/logout") => self.logout(req),
            ("GET", "/whoami") => self.whoami(req),
            // The scrape surface: readable without a session (metric
            // names and u64s only — no credential material to protect),
            // so operators' monitoring works even while login is
            // load-shedding.
            ("GET", "/metrics") => HttpResponse::ok_text(&self.metrics_text()),
            ("POST", "/submit") => self.submit(req, &mut rng),
            ("GET", "/job") => self.job_status(req, &mut rng),
            ("POST", "/store") => self.store_file(req, &mut rng),
            ("GET", "/files") => self.list_files(req, &mut rng),
            _ => HttpResponse::error(404, "no such page"),
        }
    }

    fn login(&self, req: &HttpRequest, secure: bool, rng: &mut HmacDrbg) -> HttpResponse {
        if self.config.require_tls && !secure {
            // §5.2: "transmitting the name and pass phrase over
            // unencrypted HTTP would allow any intruder to snoop".
            return HttpResponse::error(403, "logins require HTTPS");
        }
        let Some(username) = req.form_value("username") else {
            return HttpResponse::error(400, "missing username");
        };
        let Some(passphrase) = req.form_value("passphrase") else {
            return HttpResponse::error(400, "missing passphrase");
        };
        let mut params = GetParams::new(&username, &passphrase);
        if let Some(lt) = req.form_value("lifetime").and_then(|v| v.parse().ok()) {
            params.lifetime_secs = lt;
        }
        if let Some(task) = req.form_value("task") {
            params.task = mp_myproxy::proto::parse_tags(&task);
        }
        let now = self.config.clock.now();
        // Figure 3 steps 2-3: portal → repository with its own creds +
        // the user's authentication data; repository delegates back.
        let transport = match (self.config.myproxy)() {
            Ok(t) => t,
            Err(e) => return HttpResponse::error(502, &format!("cannot reach repository: {e}")),
        };
        match self.myproxy_client.get_delegation(
            transport,
            &self.config.credential,
            &params,
            rng,
            now,
        ) {
            Ok(proxy) => {
                let token = self.sessions.create(&username, proxy, now, rng);
                HttpResponse::ok_text("login ok").with_cookie(COOKIE, &token)
            }
            Err(e) => HttpResponse::error(401, &format!("login failed: {e}")),
        }
    }

    fn logout(&self, req: &HttpRequest) -> HttpResponse {
        match req.cookie(COOKIE) {
            Some(token) if self.sessions.destroy(&token) => {
                // §4.3: logout deletes the delegated credential.
                HttpResponse::ok_text("logged out")
            }
            _ => HttpResponse::error(401, "no session"),
        }
    }

    fn session_for(&self, req: &HttpRequest) -> Result<crate::session::Session> {
        let token = req
            .cookie(COOKIE)
            .ok_or_else(|| PortalError::Http("no session cookie".into()))?;
        self.sessions
            .get(&token, self.config.clock.now())
            .ok_or_else(|| PortalError::Http("session expired or unknown".into()))
    }

    fn whoami(&self, req: &HttpRequest) -> HttpResponse {
        match self.session_for(req) {
            Ok(s) => {
                let now = self.config.clock.now();
                HttpResponse::ok_text(&format!(
                    "user={} subject={} expires_in={}",
                    s.username,
                    s.proxy.subject(),
                    s.proxy.remaining_lifetime(now)
                ))
            }
            Err(_) => HttpResponse::error(401, "not logged in"),
        }
    }

    fn submit(&self, req: &HttpRequest, rng: &mut HmacDrbg) -> HttpResponse {
        let session = match self.session_for(req) {
            Ok(s) => s,
            Err(_) => return HttpResponse::error(401, "not logged in"),
        };
        let Some(connector) = &self.config.jobmanager else {
            return HttpResponse::error(404, "no job manager configured");
        };
        let name = req.form_value("name").unwrap_or_else(|| "job".into());
        let ticks = req
            .form_value("ticks")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let wants_output = req.form_value("output").as_deref() == Some("1");
        let transport = match connector() {
            Ok(t) => t,
            Err(e) => return HttpResponse::error(502, &format!("cannot reach job manager: {e}")),
        };
        let now = self.config.clock.now();
        match job::client::submit(
            transport,
            &session.proxy, // the portal acts AS THE USER
            &self.grid_cfg,
            &name,
            ticks,
            wants_output,
            true, // delegate to the job so it can store output
            session.proxy.remaining_lifetime(now),
            rng,
            now,
        ) {
            Ok(id) => HttpResponse::ok_text(&format!("job={id}")),
            Err(e) => HttpResponse::error(403, &format!("submission failed: {e}")),
        }
    }

    fn job_status(&self, req: &HttpRequest, rng: &mut HmacDrbg) -> HttpResponse {
        let session = match self.session_for(req) {
            Ok(s) => s,
            Err(_) => return HttpResponse::error(401, "not logged in"),
        };
        let Some(connector) = &self.config.jobmanager else {
            return HttpResponse::error(404, "no job manager configured");
        };
        let Some(id) = req.query_value("id").and_then(|v| v.parse().ok()) else {
            return HttpResponse::error(400, "missing id");
        };
        let transport = match connector() {
            Ok(t) => t,
            Err(e) => return HttpResponse::error(502, &format!("cannot reach job manager: {e}")),
        };
        let now = self.config.clock.now();
        match job::client::status(transport, &session.proxy, &self.grid_cfg, id, rng, now) {
            Ok((state, done, total)) => {
                HttpResponse::ok_text(&format!("state={state} done={done} total={total}"))
            }
            Err(e) => HttpResponse::error(404, &format!("status failed: {e}")),
        }
    }

    fn store_file(&self, req: &HttpRequest, rng: &mut HmacDrbg) -> HttpResponse {
        let session = match self.session_for(req) {
            Ok(s) => s,
            Err(_) => return HttpResponse::error(401, "not logged in"),
        };
        let Some(connector) = &self.config.storage else {
            return HttpResponse::error(404, "no storage configured");
        };
        let Some(filename) = req.form_value("filename") else {
            return HttpResponse::error(400, "missing filename");
        };
        let content = req.form_value("content").unwrap_or_default();
        let transport = match connector() {
            Ok(t) => t,
            Err(e) => return HttpResponse::error(502, &format!("cannot reach storage: {e}")),
        };
        let now = self.config.clock.now();
        match storage::client::store(
            transport,
            &session.proxy,
            &self.grid_cfg,
            &filename,
            content.as_bytes(),
            rng,
            now,
        ) {
            Ok(()) => HttpResponse::ok_text("stored"),
            Err(e) => HttpResponse::error(403, &format!("store failed: {e}")),
        }
    }

    fn list_files(&self, req: &HttpRequest, rng: &mut HmacDrbg) -> HttpResponse {
        let session = match self.session_for(req) {
            Ok(s) => s,
            Err(_) => return HttpResponse::error(401, "not logged in"),
        };
        let Some(connector) = &self.config.storage else {
            return HttpResponse::error(404, "no storage configured");
        };
        let transport = match connector() {
            Ok(t) => t,
            Err(e) => return HttpResponse::error(502, &format!("cannot reach storage: {e}")),
        };
        let now = self.config.clock.now();
        match storage::client::list(transport, &session.proxy, &self.grid_cfg, rng, now) {
            Ok(files) => HttpResponse::ok_text(&files.join("\n")),
            Err(e) => HttpResponse::error(403, &format!("list failed: {e}")),
        }
    }

    /// Serve one plain-HTTP connection (read request, write response,
    /// close) under `idle_deadline` — plain HTTP has no handshake
    /// phase, so the whole exchange runs under it. Login over this path
    /// is refused when `require_tls` — the rest still works, mirroring
    /// real portals that served static pages on :80.
    pub fn serve_plain<T: Transport + DeadlineControl>(
        &self,
        mut transport: T,
        idle_deadline: Option<std::time::Duration>,
    ) -> Result<()> {
        transport.set_deadlines(idle_deadline, idle_deadline);
        let bytes = read_http_message(&mut transport)?;
        let req = HttpRequest::from_bytes(&bytes)?;
        let resp = self.handle_request(&req, false);
        std::io::Write::write_all(&mut transport, &resp.to_bytes())?;
        std::io::Write::flush(&mut transport)?;
        Ok(())
    }

    /// Serve TCP with HTTPS-sim framing on a bounded worker pool with
    /// default [`NetConfig`]. Call from an `Arc<GridPortal>`.
    pub fn serve_tcp_tls(
        self: &std::sync::Arc<Self>,
        listener: std::net::TcpListener,
    ) -> std::io::Result<ShutdownHandle> {
        let acceptor = TcpAcceptor::new(listener)?;
        net::serve_scoped(acceptor, self.tls_service(), NetConfig::default(), &self.obs, "portal.tls")
    }

    /// Serve TCP with plain HTTP (static pages / health checks; logins
    /// will be refused when `require_tls` is set) on a bounded worker
    /// pool with default [`NetConfig`].
    pub fn serve_tcp_plain(
        self: &std::sync::Arc<Self>,
        listener: std::net::TcpListener,
    ) -> std::io::Result<ShutdownHandle> {
        let acceptor = TcpAcceptor::new(listener)?;
        net::serve_scoped(acceptor, self.plain_service(), NetConfig::default(), &self.obs, "portal.plain")
    }

    /// This portal's HTTPS-sim side as a pool [`Service`].
    pub fn tls_service(self: &std::sync::Arc<Self>) -> Arc<PortalTlsService> {
        Arc::new(PortalTlsService { portal: self.clone() })
    }

    /// This portal's plain-HTTP side as a pool [`Service`].
    pub fn plain_service(self: &std::sync::Arc<Self>) -> Arc<PortalPlainService> {
        Arc::new(PortalPlainService { portal: self.clone() })
    }

    /// Serve one HTTPS-sim connection. The caller arms the handshake
    /// deadline; once the TLS handshake completes the transport is
    /// re-armed with `idle_deadline`.
    pub fn serve_tls<T: Transport + DeadlineControl>(
        &self,
        transport: T,
        idle_deadline: Option<std::time::Duration>,
    ) -> Result<()> {
        let mut rng = self.req_rng();
        let mut stream = tls::accept(
            transport,
            self.config.credential.chain(),
            self.config.credential.key(),
            &mut rng,
        )?;
        stream.transport_ref().set_deadlines(idle_deadline, idle_deadline);
        self.serve_tls_stream(&mut stream)
    }

    fn serve_tls_stream<T: Transport>(&self, stream: &mut tls::TlsStream<T>) -> Result<()> {
        let bytes = stream.recv()?;
        let req = HttpRequest::from_bytes(&bytes)?;
        let resp = self.handle_request(&req, true);
        stream.send(&resp.to_bytes())?;
        Ok(())
    }
}

/// The transport failure underneath a handler error, if that is what
/// it is (the pool's timeout accounting reads its kind).
fn io_cause(e: &PortalError) -> Option<&std::io::Error> {
    match e {
        PortalError::Io(io) => Some(io),
        _ => None,
    }
}

/// [`Service`] adapter driving a [`GridPortal`]'s HTTPS-sim side from a
/// worker pool.
pub struct PortalTlsService {
    portal: Arc<GridPortal>,
}

impl<C: Transport + DeadlineControl + 'static> Service<C> for PortalTlsService {
    fn handle(&self, conn: C, idle_deadline: Option<std::time::Duration>) -> Outcome {
        net::outcome_of(&self.portal.serve_tls(conn, idle_deadline), io_cause)
    }

    fn shed(&self, mut conn: C) {
        if tls::send_busy(&mut conn, "connection limit reached").is_err() {
            self.portal.handler_errors.inc();
        }
    }

    fn sweep(&self) {
        self.portal.sessions.sweep(self.portal.config.clock.now());
    }
}

/// [`Service`] adapter driving a [`GridPortal`]'s plain-HTTP side from
/// a worker pool.
pub struct PortalPlainService {
    portal: Arc<GridPortal>,
}

impl PortalPlainService {
    /// HTTP-level load-shed: a 503 the browser can render.
    fn refuse_busy<C: std::io::Write>(conn: &mut C) -> std::io::Result<()> {
        let resp = HttpResponse::error(503, "server busy: connection limit reached");
        conn.write_all(&resp.to_bytes())?;
        conn.flush()
    }
}

impl<C: Transport + DeadlineControl + 'static> Service<C> for PortalPlainService {
    fn handle(&self, conn: C, idle_deadline: Option<std::time::Duration>) -> Outcome {
        net::outcome_of(&self.portal.serve_plain(conn, idle_deadline), io_cause)
    }

    fn shed(&self, mut conn: C) {
        if Self::refuse_busy(&mut conn).is_err() {
            self.portal.handler_errors.inc();
        }
    }

    fn sweep(&self) {
        self.portal.sessions.sweep(self.portal.config.clock.now());
    }
}

/// Read one HTTP/1.0 message from a stream: headers to `\r\n\r\n`, then
/// `content-length` body bytes.
fn read_http_message<T: Read>(transport: &mut T) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(1024);
    let mut byte = [0u8; 1];
    // Read headers byte-at-a-time (fine for a simulation; real servers
    // buffer).
    loop {
        let n = transport.read(&mut byte)?;
        if n == 0 {
            return Err(PortalError::Http("connection closed mid-headers".into()));
        }
        buf.push(byte[0]);
        if buf.len() > 64 * 1024 {
            return Err(PortalError::Http("headers too large".into()));
        }
        if buf.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    if content_length > 1 << 20 {
        return Err(PortalError::Http("body too large".into()));
    }
    let mut body = vec![0u8; content_length];
    transport.read_exact(&mut body)?;
    buf.extend_from_slice(&body);
    Ok(buf)
}

const LOGIN_PAGE: &str = r#"<html><head><title>Grid Portal</title></head>
<body><h1>Grid Portal</h1>
<form method="POST" action="/login">
MyProxy username: <input name="username"><br>
Pass phrase: <input type="password" name="passphrase"><br>
<input type="submit" value="Log in">
</form></body></html>"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_http_message_handles_body() {
        let raw = b"POST /login HTTP/1.0\r\ncontent-length: 5\r\n\r\nhello".to_vec();
        let mut cursor = std::io::Cursor::new(raw.clone());
        let got = read_http_message(&mut cursor).unwrap();
        assert_eq!(got, raw);
    }

    #[test]
    fn read_http_message_rejects_truncation() {
        let raw = b"POST / HTTP/1.0\r\ncontent-length: 50\r\n\r\nshort".to_vec();
        let mut cursor = std::io::Cursor::new(raw);
        assert!(read_http_message(&mut cursor).is_err());
    }
}
