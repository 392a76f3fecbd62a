//! Grid Security Infrastructure (GSI) substrate.
//!
//! Everything the MyProxy paper assumes from "the GSI" (§2):
//!
//! * [`credential`] — Grid credentials: a certificate chain + private key,
//!   with the Globus on-disk PEM layout
//! * [`proxy`] — `grid-proxy-init`: local proxy-credential creation (§2.3)
//! * [`transport`] — byte transports: TCP, in-memory duplex pipes, and a
//!   wiretap wrapper used by the §5.2 snooping experiments
//! * [`channel`] — the SSL-shaped secure channel (§2.2), the only
//!   handshake in the repository: certificate exchange, RSA key
//!   transport, transcript-bound signatures, then an encrypt-then-MAC
//!   record layer; mutually authenticated for every Grid daemon, with
//!   the client certificate absent for the browser↔portal leg (§5.2)
//! * [`mod@delegate`] — the GSI delegation protocol (§2.4): the private key
//!   never crosses the wire; the receiver generates a keypair and the
//!   delegator signs a proxy certificate over an established channel
//! * [`acl`] / [`gridmap`] — authorization: DN pattern lists (the two
//!   MyProxy ACLs of §5.1) and DN→local-account mapping (§2.1)
//! * [`net`] — the shared service substrate every daemon runs on:
//!   bounded worker pools with load shedding, per-phase deadlines,
//!   resilient accept loops, graceful shutdown, fault injection
//! * [`wire`] / [`lines`] — the two message encodings everything above
//!   the record layer uses: length-prefixed binary fields, and the one
//!   `KEY=VALUE` line-block codec (MYPROXYv2, GRAM, store files)

pub mod acl;
pub mod channel;
pub mod credential;
pub mod delegate;
pub mod gridmap;
pub mod lines;
pub mod net;
pub mod proxy;
pub mod record;
pub mod transport;
pub mod wire;

pub use acl::AccessControlList;
pub use channel::{ChannelConfig, SecureChannel};
pub use credential::Credential;
pub use delegate::{accept_delegation, delegate, DelegationPolicy};
pub use gridmap::Gridmap;
pub use net::{
    accept_queue, serve, BoxedConn, DeadlineControl, FaultyTransport, HandlerSet, NetConfig,
    NetStats, Outcome, Service, ShutdownHandle, ShutdownReport, TcpAcceptor,
};
pub use proxy::{grid_proxy_init, ProxyOptions};
pub use transport::{duplex, MemStream, Tap};

use mp_x509::{ChainError, X509Error};

/// Errors across the GSI layer.
#[derive(Debug)]
pub enum GsiError {
    /// I/O on the underlying transport.
    Io(std::io::Error),
    /// Certificate/PEM/DER problem.
    X509(X509Error),
    /// Peer chain failed validation.
    Chain(ChainError),
    /// Handshake or record-layer protocol violation.
    Protocol(String),
    /// Cryptographic failure (MAC mismatch, bad signature, ...).
    Crypto(&'static str),
    /// The operation was denied by policy (ACL, lifetime, restriction).
    Denied(String),
}

impl From<std::io::Error> for GsiError {
    fn from(e: std::io::Error) -> Self {
        GsiError::Io(e)
    }
}

impl From<X509Error> for GsiError {
    fn from(e: X509Error) -> Self {
        GsiError::X509(e)
    }
}

impl From<ChainError> for GsiError {
    fn from(e: ChainError) -> Self {
        GsiError::Chain(e)
    }
}

impl std::fmt::Display for GsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GsiError::Io(e) => write!(f, "I/O error: {e}"),
            GsiError::X509(e) => write!(f, "certificate error: {e}"),
            GsiError::Chain(e) => write!(f, "chain validation failed: {e}"),
            GsiError::Protocol(what) => write!(f, "protocol error: {what}"),
            GsiError::Crypto(what) => write!(f, "cryptographic failure: {what}"),
            GsiError::Denied(why) => write!(f, "denied: {why}"),
        }
    }
}

impl std::error::Error for GsiError {}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, GsiError>;
