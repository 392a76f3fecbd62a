//! Shared plumbing for the command-line tools: flag parsing, PEM file
//! loading, trust-root directories, and pass-phrase sourcing.
//!
//! The binaries mirror the C MyProxy distribution (paper §4.4 points at
//! `ftp.ncsa.uiuc.edu/aces/myproxy/`): each tool is one operation over
//! TCP. Run any tool with `--help` for usage.

use mp_crypto::HmacDrbg;
use mp_gsi::Credential;
use mp_myproxy::client::{Repositories, RetryPolicy};
use mp_x509::pem::{self, label};
use mp_x509::{Certificate, Dn};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A parsed command line: positional args plus `--key value` /
/// `--switch` flags.
#[derive(Debug)]
pub struct Args {
    /// Program name.
    pub program: String,
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Flags that never take a value.
const SWITCHES: &[&str] = &["help", "limited", "verbose", "metrics", "standby"];

impl Args {
    /// Parse `std::env::args()`.
    pub fn from_env() -> Result<Self, String> {
        let mut it = std::env::args();
        let program = it.next().unwrap_or_else(|| "tool".into());
        Self::parse(program, it.collect())
    }

    /// Parse a vector (testable entry point).
    pub fn parse(program: String, raw: Vec<String>) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut switches = Vec::new();
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} requires a value"))?;
                    flags.entry(name.to_string()).or_default().push(value);
                }
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { program, positional, flags, switches })
    }

    /// Single-valued flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.first()).map(String::as_str)
    }

    /// Required single-valued flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// All values of a repeatable flag.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .get(name)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Boolean switch.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Numeric flag with default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
        }
    }
}

/// Load a credential (cert + key [+ chain]) from a PEM file.
pub fn load_credential(path: &Path) -> Result<Credential, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Credential::from_pem(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write a credential to a PEM file (permissions note: the proxy-file
/// convention is mode 0600; we set that where the platform allows).
pub fn save_credential(path: &Path, cred: &Credential) -> Result<(), String> {
    std::fs::write(path, cred.to_pem())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let _ = std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o600));
    }
    Ok(())
}

/// Load every certificate from every `*.pem` file in a directory (the
/// `/etc/grid-security/certificates` convention).
pub fn load_trust_roots(dir: &Path) -> Result<Vec<Certificate>, String> {
    let mut roots = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read trust-root dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("pem") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        for block in pem::decode_all(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            if block.label == label::CERTIFICATE {
                roots.push(
                    Certificate::from_der(&block.data)
                        .map_err(|e| format!("{}: {e}", path.display()))?,
                );
            }
        }
    }
    if roots.is_empty() {
        return Err(format!("no certificates found under {}", dir.display()));
    }
    Ok(roots)
}

/// Resolve the pass phrase: `--passphrase <value>` (discouraged,
/// visible in `ps`), `--passphrase-env <VAR>`, or `--passphrase-file
/// <path>` (first line).
pub fn passphrase(args: &Args) -> Result<String, String> {
    if let Some(p) = args.get("passphrase") {
        return Ok(p.to_string());
    }
    if let Some(var) = args.get("passphrase-env") {
        return std::env::var(var).map_err(|_| format!("environment variable {var} not set"));
    }
    if let Some(path) = args.get("passphrase-file") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return Ok(text.lines().next().unwrap_or("").to_string());
    }
    Err("supply --passphrase, --passphrase-env or --passphrase-file".into())
}

/// Split a `--repositories host:port,host:port` list. Empty segments
/// (stray commas) are dropped.
pub fn split_repositories(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Standard client-side setup shared by every `myproxy-*` client tool.
pub struct ClientSetup {
    /// The dialled server address (the first repository when only
    /// `--repositories` was given).
    pub server_addr: String,
    /// The full repository list for client-side failover: the
    /// `--repositories` value if present, otherwise just `--server`.
    /// Replicated repositories present one service identity, so a
    /// single `--server-dn` pin covers the whole list.
    pub repositories: Vec<String>,
    /// The caller's credential.
    pub credential: Credential,
    /// The MyProxy client (trust roots + optional pinned identity).
    pub client: mp_myproxy::MyProxyClient,
    /// Entropy.
    pub rng: HmacDrbg,
    /// Wall-clock now.
    pub now: u64,
}

impl ClientSetup {
    /// Build from the conventional flags: `--server host:port` and/or
    /// `--repositories host:port,host:port`, `--credential file.pem`,
    /// `--trust-roots dir`, `[--server-dn DN]`.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let repositories = match args.get("repositories") {
            Some(list) => {
                let repos = split_repositories(list);
                if repos.is_empty() {
                    return Err("--repositories must list at least one host:port".into());
                }
                repos
            }
            None => Vec::new(),
        };
        let server_addr = match args.get("server") {
            Some(s) => s.to_string(),
            None => repositories
                .first()
                .cloned()
                .ok_or_else(|| "missing required flag --server (or --repositories)".to_string())?,
        };
        let repositories = if repositories.is_empty() { vec![server_addr.clone()] } else { repositories };
        let credential = load_credential(Path::new(args.require("credential")?))?;
        let roots = load_trust_roots(Path::new(args.require("trust-roots")?))?;
        let expected = match args.get("server-dn") {
            Some(dn) => Some(Dn::parse(dn).map_err(|e| e.to_string())?),
            None => None,
        };
        let client = mp_myproxy::MyProxyClient::new(roots, expected);
        Ok(ClientSetup {
            server_addr,
            repositories,
            credential,
            client,
            rng: HmacDrbg::from_os_entropy(),
            now: mp_x509::Clock::now(&mp_x509::SystemClock),
        })
    }

    /// The one rule for how often an idempotent tool (`myproxy-info`,
    /// `myproxy-get-delegation`) tries: `--retries N` grants N retries
    /// after the first attempt, and every listed repository gets at
    /// least one — `max_attempts = max(N + 1, repositories)`.
    pub fn retry_policy(&self, args: &Args) -> Result<RetryPolicy, String> {
        let tries = u32::try_from(args.get_u64("retries", 0)?).unwrap_or(u32::MAX).saturating_add(1);
        let listed = u32::try_from(self.repositories.len()).unwrap_or(u32::MAX);
        Ok(RetryPolicy {
            max_attempts: tries.max(listed),
            base_delay_ms: args.get_u64("retry-base-ms", 50)?,
            ..RetryPolicy::default()
        })
    }

    /// The configured repository list as the client's [`Repositories`]:
    /// one re-dialing TCP connector per address, in list order.
    pub fn repositories(&self, policy: RetryPolicy) -> Repositories {
        let connectors = self.repositories.iter().cloned().map(Self::tcp_connector).collect();
        Repositories::new(connectors, policy)
    }

    /// The address that answered a [`Repositories`] call which spent
    /// `attempts` dials (attempts walk the list in order, wrapping).
    pub fn answered_by(&self, attempts: u32) -> &str {
        let n = self.repositories.len().max(1);
        self.repositories
            .get((attempts.max(1) as usize - 1) % n)
            .map_or(self.server_addr.as_str(), String::as_str)
    }

    /// A re-dialing [`mp_gsi::transport::Connector`] for the dialled
    /// server: every call is a fresh TCP connection from
    /// [`mp_gsi::net::dial`].
    pub fn connector(&self) -> mp_gsi::transport::Connector {
        Self::tcp_connector(self.server_addr.clone())
    }

    fn tcp_connector(addr: String) -> mp_gsi::transport::Connector {
        std::sync::Arc::new(move || {
            mp_gsi::net::dial(&addr)
                .map(|s| Box::new(s) as mp_gsi::transport::BoxedTransport)
                .map_err(|e| std::io::Error::new(e.kind(), format!("cannot connect to {addr}: {e}")))
        })
    }
}

/// Render a client error for the terminal; BUSY sheds get an explicit
/// retry hint so the user knows the refusal is transient.
pub fn explain(e: &mp_myproxy::MyProxyError) -> String {
    match e {
        mp_myproxy::MyProxyError::Busy { reason, retry_after_ms } => {
            let hint = match retry_after_ms {
                Some(ms) => format!("transient — retry in ~{ms} ms"),
                None => "transient — retry shortly".to_string(),
            };
            format!("server busy: {reason} ({hint})")
        }
        other => other.to_string(),
    }
}

/// The whole of every tool's `main`: parse the command line, answer
/// `--help` or a malformed one with `usage` (exit 2), otherwise `run`
/// and exit 1 on its error.
pub fn main_with(usage: &str, run: impl FnOnce(&Args) -> Result<(), String>) {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => usage_exit(usage, Some(e)),
    };
    if args.has("help") {
        usage_exit(usage, None);
    }
    if let Err(e) = run(&args) {
        die(e);
    }
}

/// Print usage and exit(2) if `--help` was asked or `err` is Some.
fn usage_exit(usage: &str, err: Option<String>) -> ! {
    if let Some(e) = err {
        eprintln!("error: {e}\n");
    }
    eprintln!("{usage}");
    std::process::exit(2)
}

/// Exit(1) with an error message.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// The default key size for CLI-generated keys: 1024 bits, matching the
/// paper's era. Tests pass `--bits 512` for speed.
pub fn bits_flag(args: &Args) -> Result<usize, String> {
    let bits = args.get_u64("bits", 1024)? as usize;
    if bits < 512 || !bits.is_multiple_of(2) {
        return Err("--bits must be an even number >= 512".into());
    }
    Ok(bits)
}

/// `PathBuf` from a flag.
pub fn path_flag(args: &Args, name: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(args.require(name)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse("tool".into(), v.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    #[test]
    fn flags_switches_positional() {
        let a = parse(&["--server", "h:1", "--limited", "pos1", "--pattern", "a", "--pattern", "b"]);
        assert_eq!(a.get("server"), Some("h:1"));
        assert!(a.has("limited"));
        assert!(!a.has("verbose"));
        assert_eq!(a.positional, vec!["pos1"]);
        assert_eq!(a.all("pattern"), vec!["a", "b"]);
        assert_eq!(a.get_u64("missing", 7).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse("t".into(), vec!["--server".into()]).unwrap_err();
        assert!(err.contains("--server"));
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&[]);
        assert!(a.require("credential").unwrap_err().contains("--credential"));
    }

    #[test]
    fn passphrase_sources() {
        let a = parse(&["--passphrase", "direct"]);
        assert_eq!(passphrase(&a).unwrap(), "direct");
        let a = parse(&[]);
        assert!(passphrase(&a).is_err());
    }

    #[test]
    fn repositories_split() {
        assert_eq!(split_repositories("a:7512,b:7512"), vec!["a:7512", "b:7512"]);
        assert_eq!(split_repositories(" a:1 , ,b:2,"), vec!["a:1", "b:2"]);
        assert!(split_repositories(",").is_empty());
    }

    #[test]
    fn connector_dials_with_nodelay() {
        use mp_x509::test_util::{test_drbg, test_rsa_key};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let key = test_rsa_key(0).clone();
        let dn = Dn::parse("/O=Grid/CN=Nodelay").unwrap();
        let ca = mp_x509::CertificateAuthority::new_root(dn, key.clone(), 0, 2_000_000_000).unwrap();
        let setup = ClientSetup {
            server_addr: listener.local_addr().unwrap().to_string(),
            repositories: Vec::new(),
            credential: Credential::new(vec![ca.certificate().clone()], key).unwrap(),
            client: mp_myproxy::MyProxyClient::new(Vec::new(), None),
            rng: test_drbg("nodelay"),
            now: 0,
        };
        let dialled = (setup.connector())().unwrap();
        let dialled: &dyn std::any::Any = &*dialled;
        let sock = dialled.downcast_ref::<std::net::TcpStream>().expect("a TCP connector dials TCP");
        assert!(sock.nodelay().unwrap());
    }

    #[test]
    fn bits_flag_validation() {
        assert_eq!(bits_flag(&parse(&[])).unwrap(), 1024);
        assert_eq!(bits_flag(&parse(&["--bits", "512"])).unwrap(), 512);
        assert!(bits_flag(&parse(&["--bits", "100"])).is_err());
        assert!(bits_flag(&parse(&["--bits", "513"])).is_err());
    }
}
