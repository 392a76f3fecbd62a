//! The MyProxy repository server daemon (paper §4).
//!
//! ```text
//! myproxy-server --credential server.pem --trust-roots dir/ --port 7512
//!                [--store-dir /var/myproxy]
//!                [--accept-pattern DN-or-glob]...     # who may PUT (§5.1)
//!                [--retriever-pattern DN-or-glob]...  # who may GET (§5.1)
//!                [--renewer-pattern DN-or-glob]...    # who may RENEW (§6.6)
//!                [--max-stored-hours N] [--max-delegated-hours N]
//!                [--min-passphrase-len N] [--pbkdf2-iters N] [--bits N]
//! ```
//!
//! Replication (warm standby, paper §5.1's single-point-of-failure
//! mitigation): a primary adds `--replicate-to standby-host:7512` to
//! ship every committed journal record to a standby after the
//! group-commit fsync — acked, then shipped, never the reverse. The
//! standby runs with `--standby [--takeover-secs N]`: it replays
//! shipped segments into its own durable store, refuses mutations, and
//! promotes itself either on an operator `PROMOTE` (`myproxy-promote`)
//! or automatically once the primary's shipper heartbeats have been
//! silent for N seconds. Both roles require `--store-dir`.
//!
//! With `--store-dir` the credential store is durable: startup loads
//! the snapshot and replays the write-ahead journal (truncating a torn
//! tail from a crash mid-append), and every mutation is journaled with
//! fsync-on-commit *before* it is acknowledged — a kill -9 at any
//! moment loses nothing that was acked. The store and its journal are
//! sharded by user hash (`--wal-shards`, default 8): concurrent
//! committers to one shard share a single group-commit fsync, and
//! writers to different shards do not contend at all. Each shard's
//! journal is folded into the one-file-per-credential snapshot every
//! `--wal-compact-every` mutations, off the ack path. Run the server
//! on a tightly secured host (§5.1: "comparable to a Kerberos Domain
//! Controller").

use mp_cli::{load_credential, load_trust_roots, main_with, Args};
use mp_crypto::HmacDrbg;
use mp_gsi::net::{self, NetConfig, TcpAcceptor};
use mp_gsi::AccessControlList;
use mp_myproxy::repl::ReplConfig;
use mp_myproxy::server::MyProxyService;
use mp_myproxy::wal::WalConfig;
use mp_myproxy::{MyProxyServer, ServerPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  myproxy-server --credential <server.pem> --trust-roots <dir> --port <port>
                 [--store-dir <dir>] [--wal-compact-every N] [--wal-shards N]
                 [--accept-pattern P]... [--retriever-pattern P]...
                 [--renewer-pattern P]... [--max-stored-hours N] [--max-delegated-hours N]
                 [--min-passphrase-len N] [--pbkdf2-iters N] [--bits N]
                 [--replication-peer P]...
                 [--replicate-to <host:port>] [--repl-ring N] [--ship-interval-ms N]
                 [--standby] [--takeover-secs N]

  --replicate-to   ship committed journal records to this standby (needs --store-dir)
  --standby        replay shipped records; refuse mutations until promoted
  --takeover-secs  auto-promote after N s without a primary heartbeat (0 = manual only)";

fn main() {
    main_with(USAGE, run);
}

fn acl(patterns: Vec<&str>) -> AccessControlList {
    if patterns.is_empty() {
        // An empty list denies everyone; the operator must opt in.
        AccessControlList::deny_all()
    } else {
        AccessControlList::from_patterns(patterns)
    }
}

fn run(args: &Args) -> Result<(), String> {
    let credential = load_credential(Path::new(args.require("credential")?))?;
    let trust_roots = load_trust_roots(Path::new(args.require("trust-roots")?))?;
    let port: u16 = args
        .require("port")?
        .parse()
        .map_err(|_| "--port must be a port number".to_string())?;

    let policy = ServerPolicy {
        max_stored_lifetime_secs: args.get_u64("max-stored-hours", 168)? * 3600,
        max_delegated_lifetime_secs: args.get_u64("max-delegated-hours", 2)? * 3600,
        min_passphrase_len: args.get_u64("min-passphrase-len", 6)? as usize,
        accepted_credentials: acl(args.all("accept-pattern")),
        authorized_retrievers: acl(args.all("retriever-pattern")),
        authorized_renewers: acl(args.all("renewer-pattern")),
        replication_peers: acl(args.all("replication-peer")),
        pbkdf2_iterations: args.get_u64("pbkdf2-iters", 10_000)? as u32,
        key_bits: args.get_u64("bits", 512)? as usize,
        store_shards: args.get_u64("wal-shards", mp_myproxy::store::DEFAULT_SHARDS as u64)?
            as usize,
    };

    let server = MyProxyServer::new(
        credential,
        trust_roots,
        policy,
        Arc::new(mp_x509::SystemClock),
        HmacDrbg::from_os_entropy(),
    );

    let store_dir: Option<PathBuf> = args.get("store-dir").map(PathBuf::from);
    if let Some(dir) = &store_dir {
        let cfg = WalConfig {
            compact_every: args.get_u64("wal-compact-every", 256)?,
            ..WalConfig::default()
        };
        let report = server
            .enable_durability(dir, cfg)
            .map_err(|e| format!("cannot open store under {}: {e}", dir.display()))?;
        for c in &report.corrupt {
            eprintln!("warning: skipped corrupt store file: {c}");
        }
        if report.truncated_tail {
            eprintln!("warning: truncated torn journal tail (crash mid-append recovered)");
        }
        eprintln!(
            "loaded {} credentials from {} ({} snapshot, {} journal records replayed)",
            server.store().len(),
            dir.display(),
            report.loaded,
            report.replayed
        );
    }

    let replicate_to = args.get("replicate-to").map(str::to_string);
    let standby = args.has("standby");
    if standby && replicate_to.is_some() {
        return Err("--standby and --replicate-to are mutually exclusive".into());
    }
    if (standby || replicate_to.is_some()) && store_dir.is_none() {
        return Err("replication requires --store-dir (there is no journal to ship or replay)".into());
    }

    let repl_cfg = ReplConfig {
        ring_capacity: args.get_u64("repl-ring", 1024)? as usize,
        takeover_timeout_secs: args.get_u64("takeover-secs", 0)?,
    };
    if standby {
        server.configure_standby(&repl_cfg);
        match repl_cfg.takeover_timeout_secs {
            0 => eprintln!("standby: promotion is manual (myproxy-promote)"),
            t => eprintln!("standby: auto-promote after {t}s without a primary heartbeat"),
        }
    }
    if let Some(target) = replicate_to {
        server
            .enable_replication(&repl_cfg)
            .map_err(|e| format!("cannot enable replication: {e}"))?;
        let ship_interval = Duration::from_millis(args.get_u64("ship-interval-ms", 1000)?);
        let connector: mp_gsi::transport::Connector = {
            let target = target.clone();
            Arc::new(move || {
                let s = net::dial(&target)?;
                // A stalled standby must time the session out, never
                // park the shipper thread forever.
                s.set_read_timeout(Some(Duration::from_secs(30)))?;
                s.set_write_timeout(Some(Duration::from_secs(30)))?;
                Ok(Box::new(s) as mp_gsi::transport::BoxedTransport)
            })
        };
        let shipper = server.shipper(connector);
        eprintln!("replicating committed journal records to {target}");
        std::thread::spawn(move || loop {
            match shipper.run_once() {
                Ok(report) => {
                    if report.demoted {
                        eprintln!("shipper: standby fenced us off (stale epoch) — now a standby");
                        return;
                    }
                    if report.resyncs > 0 {
                        eprintln!("shipper: standby resynced via full snapshot");
                    }
                }
                Err(e) => eprintln!("shipper: {target}: {e}"),
            }
            std::thread::sleep(ship_interval);
        });
    }

    let listener = std::net::TcpListener::bind(("0.0.0.0", port))
        .map_err(|e| format!("cannot bind port {port}: {e}"))?;
    let (role, epoch) = server.replication_status();
    eprintln!(
        "myproxy-server: {} listening on port {} ({} stored credentials, role={} epoch={epoch})",
        server.identity(),
        port,
        server.store().len(),
        role.as_str(),
    );

    // Bounded worker pool with a periodic expired-credential sweep,
    // serving through the same `MyProxyService` every test drives (its
    // logging form narrates connections, purges and promotions on
    // stderr). Pool counters intern into the server's registry as
    // `net.myproxy.*`, so `INFO` with `METRICS=1` reports them
    // alongside the request counters.
    let acceptor = TcpAcceptor::new(listener).map_err(|e| format!("listener setup: {e}"))?;
    let service = MyProxyService::logging(&server);
    let handle = net::serve_scoped(acceptor, service, NetConfig::default(), server.obs(), "myproxy")
        .map_err(|e| format!("cannot start worker pool: {e}"))?;
    // Runs until the listener dies (fatal accept error); then drain.
    let report = handle.join();
    eprintln!(
        "myproxy-server: accept loop ended (drained={}, aborted={})",
        report.drained, report.aborted
    );
    Ok(())
}
