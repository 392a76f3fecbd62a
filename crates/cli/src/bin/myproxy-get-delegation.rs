//! `myproxy-get-delegation` (paper §4.2, Figure 2): retrieve a
//! delegated proxy from a MyProxy repository.
//!
//! ```text
//! myproxy-get-delegation --server host:port --credential portal.pem --trust-roots dir/
//!                        --username NAME (--passphrase ... ) --out proxy.pem
//!                        [--server-dn DN] [--lifetime-hours 2] [--cred-name NAME]
//!                        [--task k:v,k:v] [--otp HEX] [--bits N]
//!                        [--retries N] [--retry-base-ms N]
//!                        [--repositories host:port,host:port]
//! ```
//!
//! GET is idempotent, so `--retries N` retries transparently (capped
//! jittered backoff, honoring the server's BUSY retry-after hint) when
//! the server sheds load or the connection fails transiently. With
//! `--repositories` each attempt also rotates to the next repository
//! in the list, so a dead primary fails over to its warm standby.

use mp_cli::{explain, main_with, passphrase, save_credential, Args, ClientSetup};
use mp_myproxy::client::GetParams;
use std::path::Path;

const USAGE: &str = "usage:
  myproxy-get-delegation --server <host:port> --credential <client.pem> --trust-roots <dir>
                         --username <name> (--passphrase <p> | --passphrase-env <VAR> | --passphrase-file <f>)
                         --out <proxy.pem> [--server-dn <DN>] [--lifetime-hours N]
                         [--cred-name <name>] [--task k:v,k:v] [--otp <hex>] [--bits N]
                         [--retries N] [--retry-base-ms N]
                         [--repositories <host:port,host:port>]

  --retries  retries after the first attempt (default 0); attempts =
             max(N + 1, repositories), so every listed repository is tried";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup = ClientSetup::from_args(args)?;
    let out = Path::new(args.require("out")?);
    let mut params = GetParams::new(args.require("username")?, &passphrase(args)?);
    params.lifetime_secs = args.get_u64("lifetime-hours", 2)? * 3600;
    params.cred_name = args.get("cred-name").map(str::to_string);
    if let Some(task) = args.get("task") {
        params.task = mp_myproxy::proto::parse_tags(task);
    }
    params.otp = args.get("otp").map(str::to_string);
    params.key_bits = args.get_u64("bits", 512)? as usize;

    let (proxy, _) = setup.repositories(setup.retry_policy(args)?).call(
        &setup.client,
        &setup.credential,
        &params,
        &mut setup.rng,
        setup.now,
    );
    let proxy = proxy.map_err(|e| explain(&e))?;
    save_credential(out, &proxy)?;
    println!("received a proxy credential:");
    println!("  subject:  {}", proxy.subject());
    println!("  lifetime: {}s", proxy.remaining_lifetime(setup.now));
    println!("  file:     {}", out.display());
    Ok(())
}
