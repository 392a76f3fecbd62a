//! End-to-end test of the command-line tools: a full deployment over
//! real TCP with PEM files on disk — CA bootstrap, credential issuance,
//! server startup (with persistence), init / info / get-delegation /
//! change-pass-phrase / destroy.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mp-cli-e2e-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bin(name: &str) -> Command {
    let path = match name {
        "grid-ca" => env!("CARGO_BIN_EXE_grid-ca"),
        "grid-proxy-init" => env!("CARGO_BIN_EXE_grid-proxy-init"),
        "myproxy-server" => env!("CARGO_BIN_EXE_myproxy-server"),
        "myproxy-init" => env!("CARGO_BIN_EXE_myproxy-init"),
        "myproxy-get-delegation" => env!("CARGO_BIN_EXE_myproxy-get-delegation"),
        "myproxy-info" => env!("CARGO_BIN_EXE_myproxy-info"),
        "myproxy-destroy" => env!("CARGO_BIN_EXE_myproxy-destroy"),
        "myproxy-change-pass-phrase" => env!("CARGO_BIN_EXE_myproxy-change-pass-phrase"),
        _ => panic!("unknown bin {name}"),
    };
    Command::new(path)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn failed");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn run_fail(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn failed");
    assert!(!out.status.success(), "command unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Pick a free port by binding :0 and dropping the listener.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for_port(port: u16) {
    for _ in 0..200 {
        if std::net::TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("server never came up on port {port}");
}

fn setup_pki(dir: &TempDir) {
    run_ok(bin("grid-ca").args([
        "init",
        "--dn",
        "/O=Grid/CN=Test CA",
        "--out-dir",
        dir.path("ca").to_str().unwrap(),
        "--bits",
        "512",
    ]));
    for (dn, file) in [
        ("/O=Grid/CN=alice", "alice.pem"),
        ("/O=Grid/CN=portal", "portal.pem"),
        ("/O=Grid/CN=myproxy-host", "server.pem"),
    ] {
        run_ok(bin("grid-ca").args([
            "issue",
            "--ca-dir",
            dir.path("ca").to_str().unwrap(),
            "--dn",
            dn,
            "--out",
            dir.path(file).to_str().unwrap(),
            "--bits",
            "512",
        ]));
    }
}

fn start_server(dir: &TempDir, port: u16, store: bool) -> ServerGuard {
    let mut cmd = bin("myproxy-server");
    cmd.args([
        "--credential",
        dir.path("server.pem").to_str().unwrap(),
        "--trust-roots",
        dir.path("ca/trusted").to_str().unwrap(),
        "--port",
        &port.to_string(),
        "--accept-pattern",
        "*",
        "--retriever-pattern",
        "*",
        "--pbkdf2-iters",
        "10",
        "--bits",
        "512",
    ]);
    if store {
        cmd.args(["--store-dir", dir.path("store").to_str().unwrap()]);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let child = cmd.spawn().expect("server spawn failed");
    wait_for_port(port);
    ServerGuard(child)
}

fn client_args(dir: &TempDir, cred: &str, port: u16) -> Vec<String> {
    vec![
        "--server".into(),
        format!("127.0.0.1:{port}"),
        "--credential".into(),
        dir.path(cred).to_str().unwrap().into(),
        "--trust-roots".into(),
        dir.path("ca/trusted").to_str().unwrap().into(),
        "--server-dn".into(),
        "/O=Grid/CN=myproxy-host".into(),
    ]
}

#[test]
fn full_cli_lifecycle_over_tcp() {
    let dir = TempDir::new("lifecycle");
    setup_pki(&dir);
    let port = free_port();
    let _server = start_server(&dir, port, false);

    // grid-proxy-init works standalone.
    run_ok(bin("grid-proxy-init").args([
        "--credential",
        dir.path("alice.pem").to_str().unwrap(),
        "--out",
        dir.path("alice-proxy.pem").to_str().unwrap(),
        "--hours",
        "12",
        "--bits",
        "512",
    ]));
    assert!(dir.path("alice-proxy.pem").exists());

    // myproxy-init (with the local proxy, as §2.5 typical usage).
    let mut cmd = bin("myproxy-init");
    cmd.args(client_args(&dir, "alice-proxy.pem", port));
    cmd.args(["--username", "alice", "--passphrase", "kiosk pass phrase", "--lifetime-hours", "10"]);
    let out = run_ok(&mut cmd);
    assert!(out.contains("now stored for 'alice'"), "{out}");

    // myproxy-info.
    let mut cmd = bin("myproxy-info");
    cmd.args(client_args(&dir, "alice.pem", port));
    cmd.args(["--username", "alice", "--passphrase", "kiosk pass phrase"]);
    let out = run_ok(&mut cmd);
    assert!(out.contains("1 credential(s)"), "{out}");
    assert!(out.contains("owner=/O=Grid/CN=alice"), "{out}");

    // myproxy-get-delegation as the portal.
    let mut cmd = bin("myproxy-get-delegation");
    cmd.args(client_args(&dir, "portal.pem", port));
    cmd.args([
        "--username",
        "alice",
        "--passphrase",
        "kiosk pass phrase",
        "--out",
        dir.path("delegated.pem").to_str().unwrap(),
        "--lifetime-hours",
        "1",
    ]);
    let out = run_ok(&mut cmd);
    assert!(out.contains("received a proxy credential"), "{out}");
    // The delegated file is a loadable credential whose subject extends
    // alice's DN.
    let text = std::fs::read_to_string(dir.path("delegated.pem")).unwrap();
    let cred = mp_gsi::Credential::from_pem(&text).unwrap();
    assert!(cred.subject().to_string().starts_with("/O=Grid/CN=alice/CN="));

    // Wrong pass phrase fails.
    let mut cmd = bin("myproxy-get-delegation");
    cmd.args(client_args(&dir, "portal.pem", port));
    cmd.args([
        "--username",
        "alice",
        "--passphrase",
        "wrong",
        "--out",
        dir.path("nope.pem").to_str().unwrap(),
    ]);
    let err = run_fail(&mut cmd);
    assert!(err.contains("authentication failed"), "{err}");

    // change-pass-phrase, then the old one stops working.
    let mut cmd = bin("myproxy-change-pass-phrase");
    cmd.args(client_args(&dir, "alice.pem", port));
    cmd.args([
        "--username",
        "alice",
        "--passphrase",
        "kiosk pass phrase",
        "--new-passphrase",
        "fresh pass phrase",
    ]);
    run_ok(&mut cmd);
    let mut cmd = bin("myproxy-info");
    cmd.args(client_args(&dir, "alice.pem", port));
    cmd.args(["--username", "alice", "--passphrase", "kiosk pass phrase"]);
    run_fail(&mut cmd);

    // destroy.
    let mut cmd = bin("myproxy-destroy");
    cmd.args(client_args(&dir, "alice.pem", port));
    cmd.args(["--username", "alice", "--passphrase", "fresh pass phrase"]);
    let out = run_ok(&mut cmd);
    assert!(out.contains("destroyed"), "{out}");
}

#[test]
fn store_dir_survives_server_restart() {
    let dir = TempDir::new("persist");
    setup_pki(&dir);
    let port = free_port();
    {
        let _server = start_server(&dir, port, true);
        let mut cmd = bin("myproxy-init");
        cmd.args(client_args(&dir, "alice.pem", port));
        cmd.args(["--username", "alice", "--passphrase", "durable pass"]);
        run_ok(&mut cmd);
        // The PUT is journaled and fsynced *before* the server acks,
        // so once myproxy-init returns the credential is durable — no
        // polling for snapshot files needed. The journal is sharded
        // (journal-<i>.wal); alice's records all land in one shard.
        let journal_len: u64 = std::fs::read_dir(dir.path("store"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with("journal") && n.ends_with(".wal")
            })
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        assert!(journal_len > 0, "acked PUT must already be journaled");
    } // server killed here

    // A new server on a new port loads the store and serves the GET.
    let port2 = free_port();
    let _server = start_server(&dir, port2, true);
    let mut cmd = bin("myproxy-get-delegation");
    cmd.args(client_args(&dir, "portal.pem", port2));
    cmd.args([
        "--username",
        "alice",
        "--passphrase",
        "durable pass",
        "--out",
        dir.path("after-restart.pem").to_str().unwrap(),
    ]);
    let out = run_ok(&mut cmd);
    assert!(out.contains("received a proxy credential"), "{out}");
}

#[test]
fn sigkill_mid_burst_loses_no_acked_credentials() {
    let dir = TempDir::new("sigkill");
    setup_pki(&dir);
    let port = free_port();

    let names = ["burst-0", "burst-1", "burst-2"];
    {
        let mut server = start_server(&dir, port, true);
        for name in names {
            let mut cmd = bin("myproxy-init");
            cmd.args(client_args(&dir, "alice.pem", port));
            cmd.args([
                "--username",
                "alice",
                "--passphrase",
                "burst pass",
                "--cred-name",
                name,
            ]);
            run_ok(&mut cmd);
        }
        // SIGKILL, not a graceful shutdown: no flush hook runs, the
        // journal on disk is all the next process gets.
        server.0.kill().expect("SIGKILL failed");
        let _ = server.0.wait();
    }

    let port2 = free_port();
    let _server = start_server(&dir, port2, true);
    for name in names {
        let mut cmd = bin("myproxy-get-delegation");
        cmd.args(client_args(&dir, "portal.pem", port2));
        cmd.args([
            "--username",
            "alice",
            "--passphrase",
            "burst pass",
            "--cred-name",
            name,
            "--out",
            dir.path(&format!("{name}.pem")).to_str().unwrap(),
        ]);
        let out = run_ok(&mut cmd);
        assert!(out.contains("received a proxy credential"), "{name}: {out}");
    }
}

/// A front door that sheds its first connection with the GSI BUSY
/// frame — exactly what the server's pool does at its connection cap —
/// and relays every later one to the repository on `backend`.
fn shed_first_then_relay(backend: u16) -> u16 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        for (i, conn) in listener.incoming().enumerate() {
            let Ok(mut conn) = conn else { return };
            if i == 0 {
                let _ = mp_gsi::channel::send_busy(&mut conn, "connection limit reached; retry-after-ms=10");
                continue;
            }
            let Ok(upstream) = std::net::TcpStream::connect(("127.0.0.1", backend)) else { return };
            let pipes = [
                (conn.try_clone().unwrap(), upstream.try_clone().unwrap()),
                (upstream, conn),
            ];
            for (mut from, mut to) in pipes {
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(std::net::Shutdown::Write);
                });
            }
        }
    });
    port
}

/// A running repository holding one credential for alice.
fn info_fixture(label: &str) -> (TempDir, ServerGuard, u16) {
    let dir = TempDir::new(label);
    setup_pki(&dir);
    let port = free_port();
    let server = start_server(&dir, port, false);
    let mut cmd = bin("myproxy-init");
    cmd.args(client_args(&dir, "alice.pem", port));
    cmd.args(["--username", "alice", "--passphrase", "kiosk pass phrase"]);
    run_ok(&mut cmd);
    (dir, server, port)
}

/// `myproxy-info` as alice against `--server` / `--repositories` `addr`.
fn info_cmd(dir: &TempDir, target_flag: &str, addr: String, extra: &[&str]) -> Command {
    let mut args = client_args(dir, "alice.pem", 0);
    args[0] = target_flag.into();
    args[1] = addr;
    let mut cmd = bin("myproxy-info");
    cmd.args(args);
    cmd.args(["--username", "alice", "--passphrase", "kiosk pass phrase", "--retry-base-ms", "1"]);
    cmd.args(extra);
    cmd
}

#[test]
fn info_over_a_repository_list_keeps_the_status_line_and_metrics() {
    let (dir, _server, port) = info_fixture("info-list");
    let list = format!("127.0.0.1:1,127.0.0.1:{port}");
    let out = run_ok(&mut info_cmd(&dir, "--repositories", list, &["--metrics"]));
    // The line names the repository that answered, not the dead one
    // listed first.
    assert!(out.contains(&format!("repository 127.0.0.1:{port}: role=primary epoch=0")), "{out}");
    assert!(out.contains("1 credential(s)"), "{out}");
    let metrics = out.split("server metrics:").nth(1).expect("metrics block");
    assert!(metrics.contains("myproxy.puts 1"), "{out}");
}

#[test]
fn info_against_a_single_server_honours_retries() {
    let (dir, _server, port) = info_fixture("info-retries");
    let door = |port| format!("127.0.0.1:{}", shed_first_then_relay(port));
    let err = run_fail(&mut info_cmd(&dir, "--server", door(port), &[]));
    assert!(err.contains("server busy"), "{err}");
    let out = run_ok(&mut info_cmd(&dir, "--server", door(port), &["--retries", "2"]));
    assert!(out.contains("1 credential(s)"), "{out}");
}

#[test]
fn help_flags_work() {
    for tool in [
        "grid-ca",
        "grid-proxy-init",
        "myproxy-server",
        "myproxy-init",
        "myproxy-get-delegation",
        "myproxy-info",
        "myproxy-destroy",
        "myproxy-change-pass-phrase",
    ] {
        let out = bin(tool).arg("--help").output().unwrap();
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage:"), "{tool}: {text}");
    }
}

#[test]
fn limited_proxy_flag_produces_limited_proxy() {
    let dir = TempDir::new("limited");
    setup_pki(&dir);
    run_ok(bin("grid-proxy-init").args([
        "--credential",
        dir.path("alice.pem").to_str().unwrap(),
        "--out",
        dir.path("limited.pem").to_str().unwrap(),
        "--bits",
        "512",
        "--limited",
    ]));
    let text = std::fs::read_to_string(dir.path("limited.pem")).unwrap();
    let cred = mp_gsi::Credential::from_pem(&text).unwrap();
    assert_eq!(cred.subject().last_cn(), Some("limited proxy"));
}
