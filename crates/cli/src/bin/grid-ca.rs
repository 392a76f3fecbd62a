//! Minimal certificate authority tool: bootstrap a CA and issue user /
//! host credentials (the out-of-band CA of paper §2.1).
//!
//! ```text
//! grid-ca init  --dn "/O=Grid/CN=My CA" --out-dir ca/ [--bits 1024] [--days 3650]
//! grid-ca issue --ca-dir ca/ --dn "/O=Grid/CN=alice" --out alice.pem [--bits 1024] [--days 365]
//! ```
//!
//! `init` writes `ca/ca.pem` (credential: cert+key, keep secret) and
//! `ca/trusted/ca.cert.pem` (the trust root to distribute).
//! `issue` appends nothing to the CA dir; it writes a combined
//! credential PEM for the subject (cert + fresh key + CA cert chain).

use mp_cli::{bits_flag, load_credential, main_with, save_credential, Args};
use mp_crypto::rsa::RsaPrivateKey;
use mp_crypto::HmacDrbg;
use mp_gsi::Credential;
use mp_x509::{CertBuilder, Clock, Dn, SystemClock};
use std::path::Path;

const USAGE: &str = "usage:
  grid-ca init  --dn <DN> --out-dir <dir> [--bits N] [--days N]
  grid-ca issue --ca-dir <dir> --dn <DN> --out <file.pem> [--bits N] [--days N]";

fn main() {
    main_with(USAGE, |args| match args.positional.first().map(String::as_str) {
        Some("init") => ca_init(args),
        Some("issue") => ca_issue(args),
        _ => Err("expected subcommand 'init' or 'issue'".to_string()),
    });
}

fn ca_init(args: &Args) -> Result<(), String> {
    let dn = Dn::parse(args.require("dn")?).map_err(|e| e.to_string())?;
    let out_dir = Path::new(args.require("out-dir")?);
    let bits = bits_flag(args)?;
    let days = args.get_u64("days", 3650)?;
    let now = SystemClock.now();

    let mut rng = HmacDrbg::from_os_entropy();
    eprintln!("generating {bits}-bit CA key ...");
    let key = RsaPrivateKey::generate(&mut rng, bits);
    let ca = mp_x509::CertificateAuthority::new_root(dn.clone(), key, now - 300, now + days * 86_400)
        .map_err(|e| e.to_string())?;

    std::fs::create_dir_all(out_dir.join("trusted")).map_err(|e| e.to_string())?;
    let cred = Credential::new(vec![ca.certificate().clone()], ca.key().clone())
        .map_err(|e| e.to_string())?;
    save_credential(&out_dir.join("ca.pem"), &cred)?;
    std::fs::write(
        out_dir.join("trusted").join("ca.cert.pem"),
        mp_x509::pem::encode(mp_x509::pem::label::CERTIFICATE, ca.certificate().to_der()),
    )
    .map_err(|e| e.to_string())?;
    println!("CA created: {dn}");
    println!("  secret credential: {}", out_dir.join("ca.pem").display());
    println!("  trust root:        {}", out_dir.join("trusted/ca.cert.pem").display());
    Ok(())
}

fn ca_issue(args: &Args) -> Result<(), String> {
    let ca_dir = Path::new(args.require("ca-dir")?);
    let dn = Dn::parse(args.require("dn")?).map_err(|e| e.to_string())?;
    let out = Path::new(args.require("out")?);
    let bits = bits_flag(args)?;
    let days = args.get_u64("days", 365)?;
    let now = SystemClock.now();

    let ca_cred = load_credential(&ca_dir.join("ca.pem"))?;
    let mut rng = HmacDrbg::from_os_entropy();
    eprintln!("generating {bits}-bit key for {dn} ...");
    let key = RsaPrivateKey::generate(&mut rng, bits);
    let cert = CertBuilder::new(dn.clone(), now - 300, now + days * 86_400)
        .random_serial(&mut rng)
        .end_entity()
        .sign(ca_cred.subject(), ca_cred.key(), key.public_key())
        .map_err(|e| e.to_string())?;
    // Combined credential: leaf + key; the CA cert is the trust root and
    // travels separately.
    let cred = Credential::new(vec![cert], key).map_err(|e| e.to_string())?;
    save_credential(out, &cred)?;
    println!("issued {dn}");
    println!("  credential: {}", out.display());
    Ok(())
}
