//! Grid Portal simulation (paper §3, §4.3, Figure 3).
//!
//! "By combining a web server and Grid-enabled software, a Grid Portal
//! allows the use of a standard Web browser as a simple graphical
//! client for Grid applications." The pieces:
//!
//! * [`http`] — a minimal HTTP/1.0 request/response codec with cookies
//!   and form bodies (what the "standard web browser" speaks)
//! * [`tls`] — HTTPS-sim: the GSI channel with the client certificate
//!   absent (server cert, RSA key transport, sealed records), under its
//!   portal name. §5.2 requires the portal to accept logins only over
//!   this.
//! * [`session`] — cookie sessions mapping a browser to its delegated
//!   proxy ("it is the portal's responsibility … to map the credentials
//!   to the user's web session", §5.2)
//! * [`portal`] — the portal itself: login via `myproxy-get-delegation`
//!   (Figure 3 steps 1–3), then job submission and file operations on
//!   the Grid as the user; logout deletes the delegated credential
//! * [`browser`] — a scriptable browser with a cookie jar, used by the
//!   examples, tests and benches

pub mod browser;
pub mod http;
pub mod portal;
pub mod session;
pub mod tls;

pub use browser::Browser;
pub use portal::{GridPortal, PortalConfig};
pub use session::SessionManager;

/// Errors from the portal stack.
#[derive(Debug)]
pub enum PortalError {
    /// Transport I/O.
    Io(std::io::Error),
    /// Malformed HTTP.
    Http(String),
    /// TLS-sim failure.
    Tls(String),
    /// Underlying Grid operation failed.
    Grid(String),
}

impl From<std::io::Error> for PortalError {
    fn from(e: std::io::Error) -> Self {
        PortalError::Io(e)
    }
}

impl std::fmt::Display for PortalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortalError::Io(e) => write!(f, "I/O error: {e}"),
            PortalError::Http(what) => write!(f, "HTTP error: {what}"),
            PortalError::Tls(what) => write!(f, "TLS error: {what}"),
            PortalError::Grid(what) => write!(f, "grid error: {what}"),
        }
    }
}

impl std::error::Error for PortalError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, PortalError>;
