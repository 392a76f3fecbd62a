//! `myproxy-promote`: order a warm standby to take over as primary.
//!
//! ```text
//! myproxy-promote --server standby-host:7512 --credential admin.pem --trust-roots dir/
//!                 [--server-dn DN]
//! ```
//!
//! The caller's identity must match the standby's `--replication-peer`
//! ACL. Promotion bumps the replication epoch, so a later restart of
//! the old primary is fenced off: its stale journal tail is refused
//! and it demotes itself to standby instead of split-braining the
//! store.

use mp_cli::{explain, main_with, Args, ClientSetup};
use mp_myproxy::client::RetryPolicy;

const USAGE: &str = "usage:
  myproxy-promote --server <standby host:port> --credential <admin.pem> --trust-roots <dir>
                  [--server-dn <DN>]";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let (client, cred, now) = (&setup.client, &setup.credential, setup.now);
    let (status, dials) = setup
        .repositories(RetryPolicy::default())
        .call_once(|transport| client.promote(transport, cred, &mut setup.rng, now));
    let status = status.map_err(|e| explain(&e))?;
    println!("{} is now role={} epoch={}", setup.answered_by(dials), status.role, status.epoch);
    Ok(())
}
