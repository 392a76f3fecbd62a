//! `grid-proxy-init` (paper §2.3/§2.5): create a local proxy credential
//! from a long-term credential file.
//!
//! ```text
//! grid-proxy-init --credential alice.pem --out proxy.pem \
//!                 [--hours 12] [--bits 512] [--limited] [--restrict EXPR]
//! ```

use mp_cli::{load_credential, main_with, save_credential, Args};
use mp_crypto::HmacDrbg;
use mp_gsi::{grid_proxy_init, ProxyOptions};
use mp_x509::{Clock, ProxyPolicy, SystemClock};
use std::path::Path;

const USAGE: &str = "usage:
  grid-proxy-init --credential <file.pem> --out <proxy.pem>
                  [--hours N] [--bits N] [--limited] [--restrict EXPR]";

fn main() {
    main_with(USAGE, run);
}

fn run(args: &Args) -> Result<(), String> {
    let cred = load_credential(Path::new(args.require("credential")?))?;
    let out = Path::new(args.require("out")?);
    let hours = args.get_u64("hours", 12)?;
    let bits = args.get_u64("bits", 512)? as usize;
    let policy = if args.has("limited") {
        ProxyPolicy::Limited
    } else if let Some(expr) = args.get("restrict") {
        ProxyPolicy::Restricted(expr.to_string())
    } else {
        ProxyPolicy::InheritAll
    };
    let opts = ProxyOptions {
        lifetime_secs: hours * 3600,
        key_bits: bits,
        policy,
        path_len: None,
    };
    let now = SystemClock.now();
    let mut rng = HmacDrbg::from_os_entropy();
    let proxy = grid_proxy_init(&cred, &opts, &mut rng, now).map_err(|e| e.to_string())?;
    save_credential(out, &proxy)?;
    println!("created proxy for {}", cred.subject());
    println!("  subject: {}", proxy.subject());
    println!("  valid for {} seconds", proxy.remaining_lifetime(now));
    println!("  file: {}", out.display());
    Ok(())
}
