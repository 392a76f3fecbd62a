//! Simulated Grid resources: a GRAM-like job manager and a mass-storage
//! service.
//!
//! These are the enforcement points the paper's GSI machinery exists to
//! protect (§2.4–§2.5): both authenticate clients over the GSI secure
//! channel, map the *effective identity* through a gridmap, honor the
//! limited-proxy rule (job submission refuses limited proxies; file
//! access does not), evaluate restricted-delegation policies (§6.5),
//! and accept delegated proxies so jobs can act as the user after
//! submission — including the long-running-job scenario of §6.6.

pub mod job;
pub mod kv;
pub mod storage;

pub use job::{JobManager, JobState};
pub use storage::MassStorage;

use mp_gsi::GsiError;

/// Errors from the resource services.
#[derive(Debug)]
pub enum GramError {
    /// Channel/certificate failure.
    Gsi(GsiError),
    /// The request was denied (gridmap, ACL, limited proxy, policy).
    Denied(String),
    /// Malformed request.
    Protocol(String),
    /// Referenced job/file does not exist.
    NotFound(String),
}

impl From<GsiError> for GramError {
    fn from(e: GsiError) -> Self {
        GramError::Gsi(e)
    }
}

impl GramError {
    /// The transport failure underneath, if that is what this is (the
    /// pool's timeout accounting reads its kind).
    pub(crate) fn io_cause(&self) -> Option<&std::io::Error> {
        match self {
            GramError::Gsi(GsiError::Io(e)) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for GramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramError::Gsi(e) => write!(f, "GSI error: {e}"),
            GramError::Denied(why) => write!(f, "denied: {why}"),
            GramError::Protocol(what) => write!(f, "protocol error: {what}"),
            GramError::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl std::error::Error for GramError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, GramError>;
