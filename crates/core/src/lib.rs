//! MyProxy: an online credential repository for the Grid (HPDC 2001).
//!
//! This crate is the paper's contribution. A MyProxy repository holds
//! *delegated proxy credentials* (never the user's long-term private
//! key, unless the §6.1 long-term mode is explicitly used), each sealed
//! under its owner's pass phrase, and re-delegates short-lived proxies
//! to authorized clients — typically Grid portals acting for users who
//! only have a web browser.
//!
//! * [`proto`] — the client/server wire protocol (text headers inside
//!   the GSI secure channel, modeled on the real `MYPROXYv2` protocol)
//! * [`store`] — the credential store: pass-phrase-sealed entries (§5.1)
//! * [`policy`] — server policy: pass-phrase quality (§4.1), lifetime
//!   caps (§4.1/§4.3), the two ACLs (§5.1)
//! * [`server`] — the repository server
//! * [`client`] — `myproxy-init`, `myproxy-get-delegation`,
//!   `myproxy-info`, `myproxy-destroy`, `myproxy-change-pass-phrase`
//!   (§4.1–§4.2) and the extension operations
//! * [`otp`] — one-time-password authentication (§5.1/§6.3)
//! * [`wallet`] — multiple credentials per user with task-based
//!   selection (§6.2)
//! * [`renewal`] — credential renewal for long-running jobs (§6.6)

pub mod client;
pub mod otp;
pub mod persist;
pub mod policy;
pub mod proto;
pub mod renewal;
pub mod repl;
pub mod server;
pub mod store;
#[doc(hidden)]
pub mod testutil;
pub mod wal;
pub mod wallet;

pub use client::MyProxyClient;
pub use policy::ServerPolicy;
pub use proto::{Command, Request, Response};
pub use server::MyProxyServer;
pub use store::{CredStore, StoredCredential};

use mp_gsi::GsiError;

/// Errors from MyProxy operations.
#[derive(Debug)]
pub enum MyProxyError {
    /// Transport/channel/certificate failure underneath.
    Gsi(GsiError),
    /// The server refused the request; the string is the server's
    /// `ERROR=` line (deliberately vague about pass-phrase vs existence,
    /// see `store`).
    Refused(String),
    /// Malformed protocol data.
    Protocol(String),
    /// The server shed the connection at its concurrency cap (the GSI
    /// BUSY frame from PR 3). Transient by construction — retrying
    /// after a short backoff is the expected client reaction.
    Busy {
        /// The server's refusal reason, verbatim.
        reason: String,
        /// Parsed `retry-after-ms=N` hint, if the server sent one.
        retry_after_ms: Option<u64>,
    },
}

impl MyProxyError {
    /// Build a [`MyProxyError::Busy`] from a server busy reason,
    /// extracting a `retry-after-ms=N` token if present.
    pub fn busy(reason: &str) -> Self {
        let retry_after_ms = reason
            .split(|c: char| c == ';' || c == ' ')
            .filter_map(|tok| tok.trim().strip_prefix("retry-after-ms="))
            .find_map(|v| v.parse().ok());
        MyProxyError::Busy { reason: reason.to_string(), retry_after_ms }
    }

    /// Is this a transient BUSY shed?
    pub fn is_busy(&self) -> bool {
        matches!(self, MyProxyError::Busy { .. })
    }
}

impl From<GsiError> for MyProxyError {
    fn from(e: GsiError) -> Self {
        MyProxyError::Gsi(e)
    }
}

impl From<mp_gsi::lines::FramingError> for MyProxyError {
    fn from(e: mp_gsi::lines::FramingError) -> Self {
        MyProxyError::Protocol(e.to_string())
    }
}

impl std::fmt::Display for MyProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MyProxyError::Gsi(e) => write!(f, "GSI error: {e}"),
            MyProxyError::Refused(why) => write!(f, "server refused: {why}"),
            MyProxyError::Protocol(what) => write!(f, "protocol error: {what}"),
            MyProxyError::Busy { reason, .. } => write!(f, "server busy: {reason}"),
        }
    }
}

impl std::error::Error for MyProxyError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, MyProxyError>;
