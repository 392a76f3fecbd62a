//! The four operations a user of the repository performs, each in two
//! forms: *plain* — the `MyProxyClient` / `Browser` call the shipped
//! tools make, timed as a whole — and *traced* — the same wire exchange
//! assembled from the layers' public calls with a span around each.
//! Both forms end in the same output check, which is not timed.

use crate::plan::Op;
use crate::trace::{self, OpTrace};
use crate::world::{now, User, World};
use mp_crypto::HmacDrbg;
use mp_gsi::delegate::{accept_delegation, delegate, DelegationPolicy};
use mp_gsi::transport::BoxedTransport;
use mp_gsi::{ChannelConfig, Credential, SecureChannel};
use mp_loadgen::OpKind;
use mp_myproxy::client::{GetParams, InitParams};
use mp_myproxy::proto::{field, Command, Request, Response};
use mp_portal::browser::BrowserMode;
use mp_portal::http::{HttpRequest, HttpResponse};
use mp_portal::session::COOKIE;
use mp_portal::Browser;
use mp_x509::{validate_chain, ProxyPolicy, ValidationOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Span names; `metrics.rs` reads the trace by these.
pub mod span {
    pub const DIAL: &str = "cli.dial";
    pub const CONNECT: &str = "gsi.channel.connect";
    pub const REQUEST: &str = "core.proto.request_rtt";
    pub const ACCEPT: &str = "gsi.delegate.accept";
    pub const ISSUE: &str = "gsi.delegate.issue";
    pub const PUT_ACK: &str = "core.proto.put_ack";
    pub const BROWSER_HANDSHAKE: &str = "portal.browser_handshake";
    pub const LOGIN: &str = "portal.login_rtt";
}

/// The client's entropy for an op: a fixed stream per (kind, n-th op of
/// that kind, phase), see [`Op::nth_of_kind`]. `phase` keeps warm-up,
/// window and top-up apart.
pub fn op_rng(op: &Op, phase: u64) -> StdRng {
    let kind = OpKind::ALL.iter().position(|k| *k == op.kind).unwrap_or(0) as u64;
    StdRng::seed_from_u64(
        (phase << 48) ^ (kind << 40) ^ u64::from(op.nth_of_kind).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

fn browser_rng(op: &Op, phase: u64) -> HmacDrbg {
    HmacDrbg::new(format!("mp-benchmark/browser/{phase}/{}", op.nth_of_kind).as_bytes())
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Run one planned op. Returns its latency, or why it failed (a
/// refusal, a BUSY shed, an I/O error or a failed output check).
pub fn run(world: &World, op: &Op, phase: u64, trace: Option<&mut OpTrace>) -> Result<Duration, String> {
    let user = &world.users[op.user as usize];
    let started = Instant::now();
    match op.kind {
        OpKind::Get => {
            let mut rng = op_rng(op, phase);
            let cred = match trace {
                None => get_plain(world, user, &mut rng),
                Some(tr) => get_traced(world, user, &mut rng, tr),
            }?;
            let latency = started.elapsed();
            check_delegated(world, user, &cred)?;
            Ok(latency)
        }
        OpKind::Put => {
            let mut rng = op_rng(op, phase);
            let not_after = match trace {
                None => put_plain(world, user, &mut rng),
                Some(tr) => put_traced(world, user, &mut rng, tr),
            }?;
            let latency = started.elapsed();
            if not_after <= now() {
                return Err(format!("PUT {}: acked with NOT_AFTER {not_after} in the past", user.name));
            }
            Ok(latency)
        }
        OpKind::Info => {
            let mut rng = op_rng(op, phase);
            let listing = match trace {
                None => info_plain(world, user, &mut rng),
                Some(tr) => info_traced(world, user, &mut rng, tr),
            }?;
            let latency = started.elapsed();
            check_listing(user, &listing)?;
            Ok(latency)
        }
        OpKind::PortalLogin => {
            let mut rng = browser_rng(op, phase);
            let token = match trace {
                None => login_plain(world, user, &mut rng),
                Some(tr) => login_traced(world, user, &mut rng, tr),
            }?;
            let latency = started.elapsed();
            let (portal, _) = world.portal().ok_or("no portal in this world")?;
            let session = portal
                .sessions()
                .get(&token, now())
                .ok_or_else(|| format!("LOGIN {}: portal holds no session for the cookie", user.name))?;
            check_delegated(world, user, &session.proxy)?;
            logout(world, &token, &mut rng)?;
            Ok(latency)
        }
    }
}

/// A retrieved credential must chain to the benchmark's CA, carry the
/// depositing user's identity, and sit two proxies below it (the stored
/// proxy and the one just delegated).
pub fn check_delegated(world: &World, user: &User, cred: &Credential) -> Result<(), String> {
    let v = validate_chain(cred.chain(), &world.roots, now(), &ValidationOptions::default())
        .map_err(|e| format!("{}: delegated chain invalid: {e}", user.name))?;
    if v.identity != user.dn || v.proxy_depth != 2 {
        return Err(format!(
            "{}: delegated credential is {} at proxy depth {}, expected {} at depth 2",
            user.name, v.identity, v.proxy_depth, user.dn
        ));
    }
    Ok(())
}

/// `listing` is (name, owner) per CRED line of the INFO response.
fn check_listing(user: &User, listing: &[(String, String)]) -> Result<(), String> {
    let owner = user.dn.to_string();
    if listing.iter().any(|(name, o)| name == mp_myproxy::store::DEFAULT_NAME && *o == owner) {
        Ok(())
    } else {
        Err(format!("INFO {}: seeded entry missing from {listing:?}", user.name))
    }
}

fn dial(world: &World) -> Result<BoxedTransport, String> {
    (world.connector)().map_err(|e| err("dial", e))
}

pub fn get_params(world: &World, user: &User) -> GetParams {
    GetParams { key_bits: world.profile.client_proxy_bits, ..GetParams::new(&user.name, &user.pw) }
}

pub fn get_plain(world: &World, user: &User, rng: &mut StdRng) -> Result<Credential, String> {
    world
        .client
        .get_delegation(dial(world)?, &user.cred, &get_params(world, user), rng, now())
        .map_err(|e| err("GET", e))
}

fn put_plain(world: &World, user: &User, rng: &mut StdRng) -> Result<u64, String> {
    world
        .client
        .init(dial(world)?, &user.cred, &InitParams::new(&user.name, &user.pw), rng, now())
        .map_err(|e| err("PUT", e))
}

fn info_plain(world: &World, user: &User, rng: &mut StdRng) -> Result<Vec<(String, String)>, String> {
    world
        .client
        .info(dial(world)?, &user.cred, &user.name, &user.pw, rng, now())
        .map(|creds| creds.into_iter().map(|c| (c.name, c.owner)).collect())
        .map_err(|e| err("INFO", e))
}

/// One HTTPS-sim exchange with the portal, as `Browser::request` does.
fn portal_exchange(
    world: &World,
    request: HttpRequest,
    rng: &mut HmacDrbg,
    mut trace: Option<&mut OpTrace>,
) -> Result<HttpResponse, String> {
    let (_, connector) = world.portal().ok_or("no portal in this world")?;
    let transport = trace::span(&mut trace, span::DIAL, || connector()).map_err(|e| err("dial portal", e))?;
    let mut stream = trace::span(&mut trace, span::BROWSER_HANDSHAKE, || {
        mp_portal::tls::connect(transport, &world.roots, None, rng, now())
    })
    .map_err(|e| err("browser handshake", e))?;
    trace::span(&mut trace, span::LOGIN, || {
        stream.send(&request.to_bytes())?;
        HttpResponse::from_bytes(&stream.recv()?)
    })
    .map_err(|e| err("portal request", e))
}

/// The plain form is the scriptable browser the examples and tests use.
fn login_plain(world: &World, user: &User, rng: &mut HmacDrbg) -> Result<String, String> {
    let (_, connector) = world.portal().ok_or("no portal in this world")?;
    let mode = BrowserMode::Tls { roots: world.roots.clone(), expected: None };
    let mut seed = [0u8; 32];
    rng.generate(&mut seed);
    let mut browser = Browser::new(connector.clone(), mode, HmacDrbg::new(&seed), now());
    let resp = browser.login(&user.name, &user.pw).map_err(|e| err("LOGIN", e))?;
    if resp.status != 200 {
        return Err(format!("LOGIN {}: HTTP {} {}", user.name, resp.status, resp.text()));
    }
    browser.session_cookie().map(str::to_string).ok_or_else(|| "LOGIN: 200 without a session cookie".into())
}

/// §4.3: logging out deletes the delegated credential on the portal.
fn logout(world: &World, token: &str, rng: &mut HmacDrbg) -> Result<(), String> {
    let request = HttpRequest::post_form("/logout", &[]).with_header("cookie", &format!("{COOKIE}={token}"));
    match portal_exchange(world, request, rng, None)?.status {
        200 => Ok(()),
        status => Err(format!("logout: HTTP {status}")),
    }
}

// ---- traced forms ---------------------------------------------------

type Channel = SecureChannel<BoxedTransport>;

/// Dial and handshake, as `MyProxyClient::open_channel` does.
fn open_traced(world: &World, user: &User, rng: &mut StdRng, tr: &mut OpTrace) -> Result<Channel, String> {
    let transport = tr.span(span::DIAL, || dial(world))?;
    let cfg = ChannelConfig::new(world.roots.clone()).expecting(world.server_dn.clone());
    tr.span(span::CONNECT, || SecureChannel::connect(transport, &user.cred, &cfg, rng, now()))
        .map_err(|e| err("handshake", e))
}

/// One request/response exchange, as `MyProxyClient::transact` does.
fn transact(channel: &mut Channel, request: &Request) -> Result<Response, String> {
    channel.send(request.to_text().as_bytes()).map_err(|e| err("send", e))?;
    read_response(channel)
}

fn read_response(channel: &mut Channel) -> Result<Response, String> {
    let bytes = channel.recv().map_err(|e| err("recv", e))?;
    let text = String::from_utf8(bytes).map_err(|e| err("response", e))?;
    Response::from_text(&text).and_then(Response::into_result).map_err(|e| err("response", e))
}

fn auth_request(command: Command, user: &User, lifetime_secs: u64) -> Request {
    Request::new(command)
        .field(field::USERNAME, &user.name)
        .field(field::PASSPHRASE, &user.pw)
        .field(field::LIFETIME, &lifetime_secs.to_string())
}

fn get_traced(world: &World, user: &User, rng: &mut StdRng, tr: &mut OpTrace) -> Result<Credential, String> {
    let params = get_params(world, user);
    let mut channel = open_traced(world, user, rng, tr)?;
    let request = auth_request(Command::Get, user, params.lifetime_secs);
    tr.span(span::REQUEST, || transact(&mut channel, &request))?;
    tr.span(span::ACCEPT, || accept_delegation(&mut channel, params.lifetime_secs, params.key_bits, rng))
        .map_err(|e| err("GET delegation", e))
}

fn put_traced(world: &World, user: &User, rng: &mut StdRng, tr: &mut OpTrace) -> Result<u64, String> {
    let params = InitParams::new(&user.name, &user.pw);
    let mut channel = open_traced(world, user, rng, tr)?;
    let request = auth_request(Command::Put, user, params.lifetime_secs);
    tr.span(span::REQUEST, || transact(&mut channel, &request))?;
    let policy = DelegationPolicy {
        max_lifetime_secs: params.lifetime_secs,
        policy: ProxyPolicy::InheritAll,
        path_len: None,
    };
    tr.span(span::ISSUE, || delegate(&mut channel, &user.cred, &policy, rng, now()))
        .map_err(|e| err("PUT delegation", e))?;
    // The ack the server sends only after the journal fsync.
    let ack = tr.span(span::PUT_ACK, || read_response(&mut channel))?;
    ack.all("NOT_AFTER")
        .first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "PUT: no NOT_AFTER in the ack".to_string())
}

fn info_traced(
    world: &World,
    user: &User,
    rng: &mut StdRng,
    tr: &mut OpTrace,
) -> Result<Vec<(String, String)>, String> {
    let mut channel = open_traced(world, user, rng, tr)?;
    let request =
        Request::new(Command::Info).field(field::USERNAME, &user.name).field(field::PASSPHRASE, &user.pw);
    let resp = tr.span(span::REQUEST, || transact(&mut channel, &request))?;
    let value = |line: &str, key: &str| {
        line.split_whitespace()
            .find_map(|part| part.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_default()
            .to_string()
    };
    Ok(resp.all("CRED").iter().map(|line| (value(line, "name"), value(line, "owner"))).collect())
}

/// `Browser::login` taken apart: dial, HTTPS-sim handshake, then the
/// POST and its response.
fn login_traced(world: &World, user: &User, rng: &mut HmacDrbg, tr: &mut OpTrace) -> Result<String, String> {
    let form = [("username", user.name.as_str()), ("passphrase", user.pw.as_str())];
    let resp = portal_exchange(world, HttpRequest::post_form("/login", &form), rng, Some(tr))?;
    if resp.status != 200 {
        return Err(format!("LOGIN {}: HTTP {} {}", user.name, resp.status, resp.text()));
    }
    let prefix = format!("{COOKIE}=");
    resp.headers
        .iter()
        .filter(|(name, _)| name == "set-cookie")
        .find_map(|(_, v)| v.split(';').next()?.trim().strip_prefix(&prefix))
        .map(str::to_string)
        .ok_or_else(|| "LOGIN: 200 without a session cookie".into())
}
