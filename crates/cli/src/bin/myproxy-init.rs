//! `myproxy-init` (paper §4.1, Figure 1): delegate a proxy credential
//! to a MyProxy repository.
//!
//! ```text
//! myproxy-init --server host:port --credential user.pem --trust-roots dir/
//!              --username NAME (--passphrase P | --passphrase-env VAR | --passphrase-file F)
//!              [--server-dn DN] [--lifetime-hours 168] [--retriever-hours N]
//!              [--cred-name NAME] [--tags k:v,k:v] [--renewer DN-pattern]
//!              [--repositories host:port,host:port]
//! ```
//!
//! PUT is not idempotent, so `--repositories` fails over only when the
//! dial itself is refused — never after a request is in flight, where
//! a blind retry against the next repository could double-store.

use mp_cli::{explain, main_with, passphrase, Args, ClientSetup};
use mp_myproxy::client::{InitParams, RetryPolicy};

const USAGE: &str = "usage:
  myproxy-init --server <host:port> --credential <user.pem> --trust-roots <dir>
               --username <name> (--passphrase <p> | --passphrase-env <VAR> | --passphrase-file <f>)
               [--server-dn <DN>] [--lifetime-hours N] [--retriever-hours N]
               [--cred-name <name>] [--tags k:v,k:v] [--renewer <DN-pattern>]
               [--repositories <host:port,host:port>]";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let mut params = InitParams::new(args.require("username")?, &passphrase(args)?);
    params.lifetime_secs = args.get_u64("lifetime-hours", 168)? * 3600;
    if let Some(h) = args.get("retriever-hours") {
        let h: u64 = h.parse().map_err(|_| "--retriever-hours must be a number")?;
        params.retrieval_max_lifetime = Some(h * 3600);
    }
    params.cred_name = args.get("cred-name").map(str::to_string);
    if let Some(tags) = args.get("tags") {
        params.tags = mp_myproxy::proto::parse_tags(tags);
    }
    params.renewer = args.get("renewer").map(str::to_string);

    // PUT is not idempotent, so init never auto-retries; a BUSY shed is
    // surfaced with its retry-after hint for the user to act on. A
    // repository list moves on only when the dial is refused outright.
    let (client, cred, now) = (&setup.client, &setup.credential, setup.now);
    let (not_after, _) = setup
        .repositories(RetryPolicy::default())
        .call_once(|transport| client.init(transport, cred, &params, &mut setup.rng, now));
    let not_after = not_after.map_err(|e| explain(&e))?;
    println!(
        "a proxy valid until unix time {not_after} ({}h) is now stored for '{}'",
        (not_after - setup.now) / 3600,
        params.username
    );
    Ok(())
}
