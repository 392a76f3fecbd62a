//! The vocabulary of a load plan: operation kinds, the traffic mix,
//! and the deterministic per-user account names and pass phrases.
//!
//! `benchmark/` builds its own plan (and prints its digest) over these
//! types; this module owns only the names both sides must agree on.

/// One operation kind in the traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `myproxy-init`: deposit a delegated credential (never retried).
    Put,
    /// `myproxy-get-delegation`: retrieve a proxy (idempotent, retried).
    Get,
    /// `myproxy-info`: list stored credentials (idempotent, retried).
    Info,
    /// Full portal round trip: browser login (portal performs the GET
    /// against the repository on the user's behalf) then logout.
    PortalLogin,
}

impl OpKind {
    /// Stable short name, used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Info => "info",
            OpKind::PortalLogin => "portal_login",
        }
    }

    /// All kinds, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Put, OpKind::Get, OpKind::Info, OpKind::PortalLogin];
}

/// Relative weights of the traffic mix; each `benchmark/` workload
/// names its own.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Weight of PUT.
    pub put: u32,
    /// Weight of GET.
    pub get: u32,
    /// Weight of INFO.
    pub info: u32,
    /// Weight of portal login.
    pub portal_login: u32,
}

/// The deterministic per-user retrieval phrase. Both the seeding PUT
/// and every later GET/INFO/login derive it the same way, so any
/// credential deposited by the plan is retrievable by the plan.
pub fn user_pw(user: u32) -> String {
    // Zero-padded to clear the server's minimum pass-phrase length.
    format!("pw-{user:06}")
}

/// The repository account name for a user rank.
pub fn user_name(user: u32) -> String {
    format!("user-{user}")
}
