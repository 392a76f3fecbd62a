//! `myproxy-change-pass-phrase`: re-seal a stored credential under a
//! new pass phrase.
//!
//! ```text
//! myproxy-change-pass-phrase --server host:port --credential user.pem --trust-roots dir/
//!                            --username NAME (--passphrase ...) --new-passphrase NEW
//!                            [--cred-name NAME] [--server-dn DN]
//! ```

use mp_cli::{explain, main_with, passphrase, Args, ClientSetup};
use mp_myproxy::client::RetryPolicy;

const USAGE: &str = "usage:
  myproxy-change-pass-phrase --server <host:port> --credential <user.pem> --trust-roots <dir>
                             --username <name> (--passphrase <p> | --passphrase-env <VAR> | --passphrase-file <f>)
                             --new-passphrase <p> [--cred-name <name>] [--server-dn <DN>]";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let username = args.require("username")?;
    let (old, new) = (passphrase(args)?, args.require("new-passphrase")?);
    let (client, cred, now) = (&setup.client, &setup.credential, setup.now);
    let (result, _) = setup.repositories(RetryPolicy::default()).call_once(|transport| {
        let name = args.get("cred-name");
        client.change_passphrase(transport, cred, username, &old, new, name, &mut setup.rng, now)
    });
    result.map_err(|e| explain(&e))?;
    println!("pass phrase changed for '{username}'");
    Ok(())
}
