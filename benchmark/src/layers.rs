//! Each layer's public function called in isolation, at the workload
//! profile's key size and KDF cost: what the layer costs when nothing
//! else is in the way. The layers are the crates.

use crate::ops;
use crate::report::{median_metric, sample, timed, Metric};
use crate::world::{dir_bytes, now, World};
use mp_bignum::BigUint;
use mp_crypto::ctr::SecretBox;
use mp_crypto::pbkdf2::pbkdf2_hmac_sha256;
use mp_crypto::rsa::RsaPrivateKey;
use mp_crypto::HmacDrbg;
use mp_gsi::transport::Transport;
use mp_gsi::{grid_proxy_init, AccessControlList, ChannelConfig, ProxyOptions, SecureChannel};
use mp_myproxy::client::InitParams;
use mp_myproxy::proto::{field, Command, Request};
use mp_myproxy::store::DEFAULT_NAME;
use mp_myproxy::wal::{RealVfs, WalConfig, WalRecord};
use mp_myproxy::{CredStore, MyProxyServer, ServerPolicy, StoredCredential};
use mp_obs::Registry;
use mp_x509::{validate_chain, SystemClock, ValidationOptions};
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Calls per cheap layer function; the time budget below cuts the
/// expensive ones short, down to `MIN_CALLS`.
const CALLS: usize = 200;
const MIN_CALLS: usize = 30;
const BUDGET: Duration = Duration::from_secs(1);
/// In-process round trips and handshakes cost a key generation or
/// several signatures each, so they get a lower floor.
const MIN_OPS: usize = 8;
/// Journal commits; fixed so the counts repeat exactly.
const WAL_PUTS: usize = 100;
const ECHOES_PER_CONN: usize = 4;
const ECHO_BYTES: usize = 256;

/// Fixed entropy per probe: every run measures the same prime searches
/// and seals the same bytes, so the medians compare and the counts
/// repeat exactly.
fn rng(what: &str) -> HmacDrbg {
    HmacDrbg::new(format!("mp-benchmark/layer/{what}").as_bytes())
}

/// All isolated-layer metrics for `world`'s profile. `tcp_ms` is the
/// median latency of GET, PUT and INFO over TCP in this same run, for
/// the transport share.
pub fn measure(world: &World, tcp_ms: [f64; 3]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    crypto(world, &mut out)?;
    x509_and_store(world, &mut out)?;
    wal(world, &mut out)?;
    channel(world, &mut out)?;
    in_process(world, tcp_ms, &mut out)?;
    Ok(out)
}

fn crypto(world: &World, out: &mut Vec<Metric>) -> Result<(), String> {
    let bits = world.profile.bits;
    let mut r = rng("crypto");
    let keygen = sample(MIN_CALLS, CALLS, BUDGET, || Ok(timed(|| RsaPrivateKey::generate(&mut r, bits)).0))?;
    out.push(median_metric("crypto.rsa.keygen_ms", &keygen, "ms")?);

    let key = world.users[0].cred.key();
    let message = [0x5au8; 64];
    let signature = key.sign(&message).map_err(|e| e.to_string())?;
    let sign = sample(MIN_CALLS, CALLS, BUDGET, || Ok(timed(|| key.sign(&message)).0))?;
    out.push(median_metric("crypto.rsa.sign_us", &sign, "us")?);
    let verify =
        sample(MIN_CALLS, CALLS, BUDGET, || Ok(timed(|| key.public_key().verify(&message, &signature)).0))?;
    out.push(median_metric("crypto.rsa.verify_us", &verify, "us")?);

    // A full-size private exponent: the modexp RSA signing and the
    // Miller-Rabin rounds of key generation are built from.
    let n = key.public_key().n();
    let modexp = sample(MIN_CALLS, CALLS, BUDGET, || {
        let base = BigUint::random_below(&mut r, n);
        Ok(timed(|| base.mod_pow(key.d(), n)).0)
    })?;
    out.push(median_metric("bignum.modexp_us", &modexp, "us")?);

    let mut derived = [0u8; 32];
    let pbkdf2 = sample(MIN_CALLS, CALLS, BUDGET, || {
        Ok(timed(|| {
            pbkdf2_hmac_sha256(b"pw-000000", b"0123456789abcdef", world.profile.pbkdf2_iters, &mut derived)
        })
        .0)
    })?;
    out.push(median_metric("crypto.pbkdf2_ms", &pbkdf2, "ms")?);
    Ok(())
}

fn x509_and_store(world: &World, out: &mut Vec<Metric>) -> Result<(), String> {
    let user = &world.users[0];
    let mut r = rng("store");
    let opts = ProxyOptions { key_bits: world.profile.bits, ..ProxyOptions::default() };
    let proxy = grid_proxy_init(&user.cred, &opts, &mut r, now()).map_err(|e| e.to_string())?;

    let options = ValidationOptions::default();
    let validate = sample(MIN_CALLS, CALLS, BUDGET, || {
        let (ns, v) = timed(|| validate_chain(proxy.chain(), &world.roots, now(), &options));
        v.map(|_| ns).map_err(|e| e.to_string())
    })?;
    out.push(median_metric("x509.validate_chain_us", &validate, "us")?);

    // Wire codec of one GET request; a hundred per sample because one
    // is below the clock's resolution.
    let request = Request::new(Command::Get)
        .field(field::USERNAME, &user.name)
        .field(field::PASSPHRASE, &user.pw)
        .field(field::LIFETIME, "7200");
    let codec = sample(MIN_CALLS, CALLS, BUDGET, || {
        let (ns, ok) = timed(|| (0..100).all(|_| Request::from_text(&request.to_text()).is_ok()));
        ok.then_some(ns / 100).ok_or_else(|| "GET request does not round-trip".to_string())
    })?;
    out.push(median_metric("core.proto.roundtrip_us", &codec, "us")?);

    let store = CredStore::new(world.profile.pbkdf2_iters);
    let put = sample(MIN_CALLS, CALLS, BUDGET, || {
        let (ns, res) = timed(|| {
            store.put(&user.name, DEFAULT_NAME, &user.pw, &proxy, 7200, now(), false, Vec::new(), &mut r)
        });
        res.map(|_| ns).map_err(|e| e.to_string())
    })?;
    out.push(median_metric("core.store.put_us", &put, "us")?);
    let open = sample(MIN_CALLS, CALLS, BUDGET, || {
        let (ns, res) = timed(|| store.open(&user.name, DEFAULT_NAME, &user.pw));
        res.map(|_| ns).map_err(|e| e.to_string())
    })?;
    out.push(median_metric("core.store.open_us", &open, "us")?);
    Ok(())
}

/// The commit path alone — journal append, fsync before ack, apply —
/// on the real filesystem with one writer, entries sealed beforehand.
fn wal(world: &World, out: &mut Vec<Metric>) -> Result<(), String> {
    let dir = world.dir.join("wal-probe");
    let store = CredStore::new(world.profile.pbkdf2_iters);
    store
        .attach_durable(
            &dir,
            Arc::new(RealVfs),
            WalConfig { compact_every: 0, group_commit: true },
            &Registry::new(),
        )
        .map_err(|e| format!("wal probe: {e}"))?;
    let wal = store.wal_handle().ok_or("wal probe: no journal attached")?;

    let mut r = rng("wal");
    let opts = ProxyOptions { key_bits: world.profile.bits, ..ProxyOptions::default() };
    let proxy = grid_proxy_init(&world.users[0].cred, &opts, &mut r, now()).map_err(|e| e.to_string())?;
    let mut entropy = [0u8; 32];
    r.fill(&mut entropy);
    let sealed =
        SecretBox::seal(b"pw-000000", proxy.to_pem().as_bytes(), world.profile.pbkdf2_iters, &entropy);
    let user_bytes = sealed.len();
    let entry = |u: usize| StoredCredential {
        username: world.users[u % world.users.len()].name.clone(),
        name: DEFAULT_NAME.to_string(),
        owner_identity: world.users[u % world.users.len()].dn.to_string(),
        sealed: sealed.clone(),
        retrieval_max_lifetime: 7200,
        not_after: now() + 7 * 24 * 3600,
        created_at: now(),
        long_term: false,
        tags: Vec::new(),
        renewable_by: None,
        sealed_for_renewal: None,
    };

    let (fsyncs0, bytes0) = (wal.metrics().fsyncs.get(), dir_bytes(&dir));
    let mut commits = Vec::with_capacity(WAL_PUTS);
    for u in 0..WAL_PUTS {
        let rec = WalRecord::Upsert(entry(u));
        let (ns, res) = timed(|| wal.commit(&store, rec));
        res.map_err(|e| format!("wal probe commit: {e}"))?;
        commits.push(ns);
    }
    let fsyncs = wal.metrics().fsyncs.get() - fsyncs0;
    let bytes = dir_bytes(&dir) - bytes0;
    out.push(median_metric("core.wal.commit_us", &commits, "us")?);
    out.push(Metric::new("core.wal.fsyncs_per_put", fsyncs as f64 / WAL_PUTS as f64, "count", WAL_PUTS));
    out.push(Metric::new("core.wal.bytes_per_put", bytes as f64 / WAL_PUTS as f64, "bytes", WAL_PUTS));
    out.push(Metric::new("core.wal.user_bytes_per_put", user_bytes as f64, "bytes", WAL_PUTS));
    Ok(())
}

/// Handshake and one sealed 256-byte record each way, over the
/// in-memory duplex and over a loopback `TcpStream` dialed the way
/// `mp_cli` dials (no socket options on either end).
fn channel(world: &World, out: &mut Vec<Metric>) -> Result<(), String> {
    let (mem_hs, mem_echo) = channel_pairs(world, || Ok(mp_gsi::duplex()))?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (tcp_hs, tcp_echo) = channel_pairs(world, || {
        let client = std::net::TcpStream::connect(addr)?;
        Ok((client, listener.accept()?.0))
    })?;
    let mem = median_metric("gsi.handshake.mem_us", &mem_hs, "us")?;
    let tcp = median_metric("gsi.handshake.tcp_us", &tcp_hs, "us")?;
    out.push(Metric::new("gsi.transport.tcp_penalty_ms", (tcp.value - mem.value) / 1e3, "ms", tcp.n));
    out.push(mem);
    out.push(tcp);
    out.push(median_metric("gsi.record.echo_mem_us", &mem_echo, "us")?);
    out.push(median_metric("gsi.record.echo_tcp_us", &tcp_echo, "us")?);
    Ok(())
}

/// (handshake, echo) nanosecond samples over connections made by `pair`.
fn channel_pairs<T: Transport + 'static>(
    world: &World,
    mut pair: impl FnMut() -> std::io::Result<(T, T)>,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let (to_server, accepted) = std::sync::mpsc::channel::<T>();
    let server_cred = world.server_cred.clone();
    let server_cfg = ChannelConfig::new(world.roots.clone());
    let acceptor = std::thread::spawn(move || -> Result<(), String> {
        let mut r = rng("channel/server");
        for transport in accepted {
            let mut ch = SecureChannel::accept(transport, &server_cred, &server_cfg, &mut r, now())
                .map_err(|e| format!("probe accept: {e}"))?;
            for _ in 0..ECHOES_PER_CONN {
                let msg = ch.recv().map_err(|e| format!("probe echo: {e}"))?;
                ch.send(&msg).map_err(|e| format!("probe echo: {e}"))?;
            }
        }
        Ok(())
    });

    let user = &world.users[0];
    let cfg = ChannelConfig::new(world.roots.clone()).expecting(world.server_dn.clone());
    let mut r = rng("channel/client");
    let payload = [0xa5u8; ECHO_BYTES];
    let mut echoes = Vec::new();
    let handshakes = sample(MIN_OPS, CALLS, BUDGET, || {
        let (client_end, server_end) = pair().map_err(|e| format!("probe dial: {e}"))?;
        to_server.send(server_end).map_err(|_| "probe acceptor gone".to_string())?;
        let (ns, ch) = timed(|| SecureChannel::connect(client_end, &user.cred, &cfg, &mut r, now()));
        let mut ch = ch.map_err(|e| format!("probe connect: {e}"))?;
        for _ in 0..ECHOES_PER_CONN {
            let (echo_ns, res) = timed(|| ch.send(&payload).and_then(|()| ch.recv()));
            res.map_err(|e| format!("probe echo: {e}"))?;
            echoes.push(echo_ns);
        }
        Ok(ns)
    });
    drop(to_server);
    acceptor.join().map_err(|_| "probe acceptor panicked".to_string())??;
    Ok((handshakes?, echoes))
}

/// The same three operations against a `MyProxyServer` in this process
/// over `connect_local()`: the op with no socket, no child process and
/// no disk. What TCP adds is the transport share.
fn in_process(world: &World, tcp_ms: [f64; 3], out: &mut Vec<Metric>) -> Result<(), String> {
    let policy = ServerPolicy {
        accepted_credentials: AccessControlList::from_patterns(["*"]),
        authorized_retrievers: AccessControlList::from_patterns(["*"]),
        pbkdf2_iterations: world.profile.pbkdf2_iters,
        key_bits: world.profile.bits,
        ..ServerPolicy::default()
    };
    let server = MyProxyServer::new(
        world.server_cred.clone(),
        world.roots.clone(),
        policy,
        Arc::new(SystemClock),
        rng("in-process/server"),
    );
    let user = &world.users[0];
    let mut r = rng("in-process/client");
    let params = InitParams::new(&user.name, &user.pw);
    let put = sample(MIN_OPS, CALLS, BUDGET, || {
        let (ns, res) =
            timed(|| world.client.init(server.connect_local(), &user.cred, &params, &mut r, now()));
        res.map(|_| ns).map_err(|e| format!("in-process PUT: {e}"))
    })?;
    let get_params = ops::get_params(world, user);
    let get = sample(MIN_OPS, CALLS, BUDGET, || {
        let (ns, res) = timed(|| {
            world.client.get_delegation(server.connect_local(), &user.cred, &get_params, &mut r, now())
        });
        res.map(|_| ns).map_err(|e| format!("in-process GET: {e}"))
    })?;
    let info = sample(MIN_OPS, CALLS, BUDGET, || {
        let (ns, res) = timed(|| {
            world.client.info(server.connect_local(), &user.cred, &user.name, &user.pw, &mut r, now())
        });
        res.map(|_| ns).map_err(|e| format!("in-process INFO: {e}"))
    })?;
    server.drain_local_handlers();
    for ((kind, samples), tcp) in [("get", get), ("put", put), ("info", info)].into_iter().zip(tcp_ms) {
        let mem = median_metric(&format!("core.mem.{kind}_ms"), &samples, "ms")?;
        out.push(Metric::new(&format!("core.transport_share.{kind}"), 1.0 - mem.value / tcp, "ratio", mem.n));
        out.push(mem);
    }
    Ok(())
}
