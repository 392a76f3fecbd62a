//! `myproxy-info`: list credentials stored for a username.
//!
//! ```text
//! myproxy-info --server host:port --credential user.pem --trust-roots dir/
//!              --username NAME (--passphrase ...) [--server-dn DN]
//!              [--repositories host:port,host:port]
//! ```
//!
//! The first line reports which repository answered, the role it holds
//! (primary / standby / promoting) and its replication epoch, so an
//! operator can tell at a glance whether a promotion has happened.
//! INFO is read-only: `--retries` rides out BUSY sheds and transient
//! dial failures, and with `--repositories` each attempt moves to the
//! next repository in the list.

use mp_cli::{explain, main_with, passphrase, Args, ClientSetup};
use mp_myproxy::client::InfoParams;

const USAGE: &str = "usage:
  myproxy-info --server <host:port> --credential <user.pem> --trust-roots <dir>
               --username <name> (--passphrase <p> | --passphrase-env <VAR> | --passphrase-file <f>)
               [--server-dn <DN>] [--repositories <host:port,host:port>]
               [--retries N] [--retry-base-ms N] [--metrics]

  --repositories  ordered failover list; INFO is read-only and may be
                  served by any replica
  --retries       retries after the first attempt (default 0); attempts =
                  max(N + 1, repositories), so every listed repository is tried
  --metrics       also print the server's metrics snapshot (one line per metric)";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let username = args.require("username")?;
    let params = InfoParams { metrics: args.has("metrics"), ..InfoParams::new(username, &passphrase(args)?) };
    let (reply, attempts) = setup.repositories(setup.retry_policy(args)?).call(
        &setup.client,
        &setup.credential,
        &params,
        &mut setup.rng,
        setup.now,
    );
    let reply = reply.map_err(|e| explain(&e))?;
    println!(
        "repository {}: role={} epoch={}",
        setup.answered_by(attempts),
        reply.status.role,
        reply.status.epoch
    );
    println!("{} credential(s) stored for '{username}':", reply.creds.len());
    for i in reply.creds {
        println!(
            "  {:<16} owner={} expires_in={}s max_delegation={}s{}{}",
            i.name,
            i.owner,
            i.not_after.saturating_sub(setup.now),
            i.max_lifetime,
            if i.long_term { " [long-term]" } else { "" },
            if i.renewable { " [renewable]" } else { "" },
        );
    }
    if params.metrics {
        println!("server metrics:");
        for line in reply.metrics {
            println!("  {line}");
        }
    }
    Ok(())
}
