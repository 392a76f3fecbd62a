//! `myproxy-destroy` (paper §4.1): remove stored credentials.
//!
//! ```text
//! myproxy-destroy --server host:port --credential user.pem --trust-roots dir/
//!                 --username NAME (--passphrase ...) [--cred-name NAME] [--server-dn DN]
//! ```

use mp_cli::{explain, main_with, passphrase, Args, ClientSetup};
use mp_myproxy::client::RetryPolicy;

const USAGE: &str = "usage:
  myproxy-destroy --server <host:port> --credential <user.pem> --trust-roots <dir>
                  --username <name> (--passphrase <p> | --passphrase-env <VAR> | --passphrase-file <f>)
                  [--cred-name <name>] [--server-dn <DN>]";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let username = args.require("username")?;
    let pass = passphrase(args)?;
    let (client, cred, now) = (&setup.client, &setup.credential, setup.now);
    let (result, _) = setup.repositories(RetryPolicy::default()).call_once(|transport| {
        client.destroy(transport, cred, username, &pass, args.get("cred-name"), &mut setup.rng, now)
    });
    result.map_err(|e| explain(&e))?;
    println!(
        "destroyed credential '{}' for '{username}'",
        args.get("cred-name").unwrap_or("default")
    );
    Ok(())
}
