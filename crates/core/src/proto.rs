//! The MyProxy wire protocol.
//!
//! Modeled on the real `MYPROXYv2` text protocol (paper §6.4 admits it
//! "was quickly designed as a prototype" — we keep that flavor): a block
//! of `KEY=VALUE` lines inside the encrypted channel, followed for
//! PUT/GET by the delegation sub-protocol of `mp_gsi::delegate`.

use crate::MyProxyError;
use mp_crypto::Secret;
use mp_gsi::lines;
use std::collections::BTreeMap;

/// Protocol version string.
pub const VERSION: &str = "MYPROXYv2";

/// Commands, with the wire numbers of the original C implementation
/// where they exist; extension commands continue the numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Retrieve a delegated proxy (Figure 2 / `myproxy-get-delegation`).
    Get = 0,
    /// Deposit a delegated proxy (Figure 1 / `myproxy-init`).
    Put = 1,
    /// Query stored credentials (`myproxy-info`).
    Info = 2,
    /// Remove stored credentials (`myproxy-destroy`).
    Destroy = 3,
    /// Re-seal under a new pass phrase (`myproxy-change-pass-phrase`).
    ChangePassphrase = 4,
    /// §6.1: deposit a *long-term* credential for server-side management.
    StoreLongTerm = 5,
    /// §6.3: register a one-time-password chain for this username.
    OtpSetup = 6,
    /// §6.3: retrieve a delegation authenticating by one-time password.
    OtpGet = 7,
    /// §6.6: renew — retrieve a fresh proxy authenticating with an
    /// existing (still valid) proxy instead of a pass phrase.
    Renew = 8,
    /// Extension (§3.3 many-repositories): open a replication stream —
    /// a primary ships committed journal frames to this standby.
    Replicate = 9,
    /// Extension: administratively promote a standby to primary.
    Promote = 10,
}

impl Command {
    /// Parse the wire number.
    pub fn from_u32(v: u32) -> Option<Command> {
        Some(match v {
            0 => Command::Get,
            1 => Command::Put,
            2 => Command::Info,
            3 => Command::Destroy,
            4 => Command::ChangePassphrase,
            5 => Command::StoreLongTerm,
            6 => Command::OtpSetup,
            7 => Command::OtpGet,
            8 => Command::Renew,
            9 => Command::Replicate,
            10 => Command::Promote,
            _ => return None,
        })
    }
}

/// A client request: command plus `KEY=VALUE` fields.
#[derive(Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub command: Command,
    /// All other fields (USERNAME, PASSPHRASE, LIFETIME, ...).
    pub fields: BTreeMap<String, String>,
}

/// Manual `Debug`: a request carries the retrieval pass phrase, which
/// must never reach logs or panic messages. Secret-valued fields are
/// printed as `[REDACTED]`.
impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct RedactedFields<'a>(&'a BTreeMap<String, String>);
        impl std::fmt::Debug for RedactedFields<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut m = f.debug_map();
                for (k, v) in self.0 {
                    if field::is_secret(k) {
                        m.entry(k, &"[REDACTED]");
                    } else {
                        m.entry(k, v);
                    }
                }
                m.finish()
            }
        }
        f.debug_struct("Request")
            .field("command", &self.command)
            .field("fields", &RedactedFields(&self.fields))
            .finish()
    }
}

impl Request {
    /// Start a request.
    pub fn new(command: Command) -> Self {
        Request { command, fields: BTreeMap::new() }
    }

    /// Why this request cannot be sent, if it cannot: the line codec
    /// refuses a newline in a key or value and `=` in a key. Builder
    /// chains stay infallible; the send chokepoint asks here and
    /// returns a typed error instead of panicking, so a pass phrase
    /// with an embedded newline cannot abort the client or smuggle a
    /// line.
    pub fn framing_violation(&self) -> Option<String> {
        self.fields.iter().find_map(|(k, v)| lines::check(k, v).err()).map(|e| e.to_string())
    }

    /// Add a field.
    pub fn field(mut self, key: &str, value: &str) -> Self {
        self.fields.insert(key.to_string(), value.to_string());
        self
    }

    /// Add a field carrying secret material (pass phrase, OTP). The
    /// secret deliberately crosses into the request here: the protocol
    /// sends it only inside the mutually-authenticated encrypted
    /// channel (Figures 1–2, §5.1). Exposing it at this single point —
    /// without binding the exposed string or returning a value derived
    /// from it — keeps every caller's builder chain untainted, so
    /// request constructors need no per-site R5 waivers.
    pub fn secret_field(mut self, key: &str, value: &Secret<String>) -> Self {
        self.fields.insert(key.to_string(), value.expose().to_string());
        self
    }

    /// Read a field.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Read a required field or produce the canonical error.
    pub fn require(&self, key: &str) -> Result<&str, MyProxyError> {
        self.get(key)
            .ok_or_else(|| MyProxyError::Protocol(format!("missing required field {key}")))
    }

    /// Parse a u64 field with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, MyProxyError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| MyProxyError::Protocol(format!("field {key} is not a number"))),
        }
    }

    /// Serialize to the wire text. A request that
    /// [cannot be framed](Self::framing_violation) renders as the empty
    /// block, which every parser refuses.
    pub fn to_text(&self) -> String {
        let command = (self.command as u32).to_string();
        let header = [("VERSION", VERSION), ("COMMAND", command.as_str())];
        let fields = self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        lines::render(header.into_iter().chain(fields)).unwrap_or_default()
    }

    /// Parse from wire text.
    pub fn from_text(text: &str) -> Result<Self, MyProxyError> {
        let mut pairs = lines::parse(text);
        expect_version(pairs.next(), "request")?;
        let cmd_num: u32 = match pairs.next() {
            None => return Err(MyProxyError::Protocol("missing COMMAND".into())),
            Some(Ok(("COMMAND", n))) => n.parse().ok(),
            Some(_) => None,
        }
        .ok_or_else(|| MyProxyError::Protocol("malformed COMMAND".into()))?;
        let command = Command::from_u32(cmd_num)
            .ok_or_else(|| MyProxyError::Protocol(format!("unknown command {cmd_num}")))?;
        let mut fields = BTreeMap::new();
        for pair in pairs {
            let (k, v) = pair?;
            fields.insert(k.to_string(), v.to_string());
        }
        Ok(Request { command, fields })
    }
}

/// Both message kinds open with the `VERSION=MYPROXYv2` line.
fn expect_version(
    first: Option<Result<(&str, &str), lines::FramingError>>,
    what: &str,
) -> Result<(), MyProxyError> {
    match first {
        None => Err(MyProxyError::Protocol(format!("empty {what}"))),
        Some(Ok(("VERSION", VERSION))) => Ok(()),
        Some(_) => Err(MyProxyError::Protocol("unsupported protocol version".into())),
    }
}

/// Standard field names.
pub mod field {
    /// The account name in the repository — *not* the Grid DN (§4.1:
    /// "more memorable and concise than a typical DN").
    pub const USERNAME: &str = "USERNAME";
    /// The retrieval pass phrase.
    pub const PASSPHRASE: &str = "PASSPHRASE";
    /// New pass phrase (CHANGE_PASSPHRASE).
    pub const NEW_PASSPHRASE: &str = "NEW_PASSPHRASE";
    /// Requested/maximum lifetime in seconds.
    pub const LIFETIME: &str = "LIFETIME";
    /// Credential name for wallet entries (§6.2); default "default".
    pub const CRED_NAME: &str = "CRED_NAME";
    /// Wallet tags, `k:v` pairs joined with commas.
    pub const CRED_TAGS: &str = "CRED_TAGS";
    /// Task hints for wallet selection, same syntax as CRED_TAGS.
    pub const TASK: &str = "TASK";
    /// One-time password value (hex).
    pub const OTP: &str = "OTP";
    /// OTP chain anchor (hex of h_n) for OTP_SETUP.
    pub const OTP_ANCHOR: &str = "OTP_ANCHOR";
    /// OTP chain length for OTP_SETUP.
    pub const OTP_COUNT: &str = "OTP_COUNT";

    /// Field keys whose values are secrets and must never be printed.
    pub fn is_secret(key: &str) -> bool {
        matches!(key, "PASSPHRASE" | "NEW_PASSPHRASE" | "OTP")
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// 0 = OK, 1 = error.
    pub ok: bool,
    /// ERROR text when `!ok`.
    pub error: Option<String>,
    /// Extra response fields (INFO results etc.).
    pub fields: Vec<(String, String)>,
}

impl Response {
    /// Success.
    pub fn success() -> Self {
        Response { ok: true, error: None, fields: Vec::new() }
    }

    /// Failure with reason.
    pub fn error(reason: impl Into<String>) -> Self {
        Response { ok: false, error: Some(reason.into()), fields: Vec::new() }
    }

    /// Attach a field. Infallible like every builder here; a key or
    /// value that breaks the line framing is caught when the response
    /// is rendered (see [`to_text`](Self::to_text)).
    pub fn with_field(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// All values for a repeated field key.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Serialize to wire text. A response that cannot be framed (a
    /// newline in the error text or a field) is sent as an explicit
    /// protocol error instead: the peer sees a failure, the connection
    /// thread survives, no extra line is smuggled onto the wire, and
    /// the bug is loud in every test that round-trips the response.
    pub fn to_text(&self) -> String {
        let header = [("VERSION", VERSION), ("RESPONSE", if self.ok { "0" } else { "1" })];
        let error = self.error.as_deref().map(|e| ("ERROR", e));
        let fields = self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        lines::render(header.into_iter().chain(error).chain(fields)).unwrap_or_else(|e| {
            // `e` is a single line by construction, so this recursion ends.
            Response::error(format!("internal error: response cannot be framed: {e}")).to_text()
        })
    }

    /// Parse from wire text.
    pub fn from_text(text: &str) -> Result<Self, MyProxyError> {
        let mut pairs = lines::parse(text);
        expect_version(pairs.next(), "response")?;
        let ok = match pairs.next() {
            None => return Err(MyProxyError::Protocol("missing RESPONSE".into())),
            Some(Ok(("RESPONSE", "0"))) => true,
            Some(Ok(("RESPONSE", "1"))) => false,
            Some(_) => return Err(MyProxyError::Protocol("malformed RESPONSE".into())),
        };
        let mut error = None;
        let mut fields = Vec::new();
        for pair in pairs {
            let (k, v) = pair?;
            if k == "ERROR" {
                error = Some(v.to_string());
            } else {
                fields.push((k.to_string(), v.to_string()));
            }
        }
        Ok(Response { ok, error, fields })
    }

    /// Turn an error response into `Err(Refused)`, success into `Ok`.
    pub fn into_result(self) -> Result<Response, MyProxyError> {
        if self.ok {
            Ok(self)
        } else {
            Err(MyProxyError::Refused(
                self.error.unwrap_or_else(|| "unspecified server error".into()),
            ))
        }
    }
}

/// Parse `k:v,k:v` tag syntax (CRED_TAGS / TASK fields).
pub fn parse_tags(s: &str) -> Vec<(String, String)> {
    s.split(',')
        .filter_map(|pair| {
            let pair = pair.trim();
            if pair.is_empty() {
                return None;
            }
            pair.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Render tags back to `k:v,k:v`.
pub fn render_tags(tags: &[(String, String)]) -> String {
    tags.iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Command::Get)
            .field(field::USERNAME, "jdoe")
            .field(field::PASSPHRASE, "swordfish123")
            .field(field::LIFETIME, "7200");
        let text = req.to_text();
        assert!(text.starts_with("VERSION=MYPROXYv2\nCOMMAND=0\n"));
        let back = Request::from_text(&text).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.get(field::USERNAME), Some("jdoe"));
        assert_eq!(back.get_u64(field::LIFETIME, 0).unwrap(), 7200);
    }

    #[test]
    fn all_commands_roundtrip() {
        for cmd in [
            Command::Get,
            Command::Put,
            Command::Info,
            Command::Destroy,
            Command::ChangePassphrase,
            Command::StoreLongTerm,
            Command::OtpSetup,
            Command::OtpGet,
            Command::Renew,
            Command::Replicate,
            Command::Promote,
        ] {
            let req = Request::new(cmd);
            assert_eq!(Request::from_text(&req.to_text()).unwrap().command, cmd);
        }
    }

    #[test]
    fn request_parse_errors() {
        assert!(Request::from_text("").is_err());
        assert!(Request::from_text("VERSION=MYPROXYv1\nCOMMAND=0\n").is_err());
        assert!(Request::from_text("VERSION=MYPROXYv2\nCOMMAND=99\n").is_err());
        assert!(Request::from_text("VERSION=MYPROXYv2\nCOMMAND=0\nno-equals\n").is_err());
    }

    #[test]
    fn required_field_error() {
        let req = Request::new(Command::Get);
        assert!(req.require(field::USERNAME).is_err());
        let req = req.field(field::USERNAME, "x");
        assert_eq!(req.require(field::USERNAME).unwrap(), "x");
    }

    #[test]
    fn bad_numeric_field() {
        let req = Request::new(Command::Get).field(field::LIFETIME, "not-a-number");
        assert!(req.get_u64(field::LIFETIME, 0).is_err());
    }

    #[test]
    fn unframeable_request_is_a_typed_error_not_a_panic() {
        // Builders stay infallible; the violation surfaces as a typed
        // error at the send chokepoint via `framing_violation`.
        let req = Request::new(Command::Get).field(field::USERNAME, "jdoe\nCOMMAND=1");
        let why = req.framing_violation().expect("newline must be rejected");
        assert!(why.contains("newline"), "{why}");

        let req = Request::new(Command::Get).field("BAD=KEY", "v");
        assert!(req.framing_violation().is_some());

        let req = Request::new(Command::Get).field(field::USERNAME, "jdoe");
        assert_eq!(req.framing_violation(), None);
        // Values may contain '=' (base64, tag syntax) — only keys not.
        let req = Request::new(Command::Get).field(field::CRED_TAGS, "k:v=w");
        assert_eq!(req.framing_violation(), None);
    }

    #[test]
    fn unframeable_response_field_degrades_to_protocol_error() {
        // A response field that would break the line framing turns the
        // response into an explicit error — never a panic, and never a
        // smuggled extra line on the wire.
        let resp = Response::success().with_field("CRED", "a\nRESPONSE=0");
        let back = Response::from_text(&resp.to_text()).unwrap();
        assert!(!back.ok, "framing violation must not serialize as success");
        assert!(back.all("CRED").is_empty());
        assert!(back.error.unwrap().contains("cannot be framed"));
    }

    #[test]
    fn response_roundtrip_success_and_error() {
        let ok = Response::success().with_field("CRED", "default 1000");
        let back = Response::from_text(&ok.to_text()).unwrap();
        assert!(back.ok);
        assert_eq!(back.all("CRED"), vec!["default 1000"]);

        let err = Response::error("authorization failed");
        let back = Response::from_text(&err.to_text()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("authorization failed"));
        assert!(matches!(back.into_result(), Err(MyProxyError::Refused(_))));
    }

    #[test]
    fn repeated_fields_preserved_in_order() {
        let resp = Response::success()
            .with_field("CRED", "a")
            .with_field("CRED", "b");
        let back = Response::from_text(&resp.to_text()).unwrap();
        assert_eq!(back.all("CRED"), vec!["a", "b"]);
    }

    #[test]
    fn tags_roundtrip() {
        let tags = parse_tags("ca:DOE, purpose:compute");
        assert_eq!(
            tags,
            vec![("ca".to_string(), "DOE".to_string()), ("purpose".to_string(), "compute".to_string())]
        );
        assert_eq!(render_tags(&tags), "ca:DOE,purpose:compute");
        assert!(parse_tags("").is_empty());
        assert!(parse_tags("novalue").is_empty());
    }

    #[test]
    fn newline_injection_rejected() {
        // Field injection does not panic and cannot reach the wire:
        // the send chokepoint refuses the request with a typed error.
        let req = Request::new(Command::Get).field("USERNAME", "jdoe\nPASSPHRASE=stolen");
        assert!(req.framing_violation().is_some());
    }
}
