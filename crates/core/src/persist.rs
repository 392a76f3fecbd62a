//! File-backed persistence for the credential store.
//!
//! The production C MyProxy keeps one file per credential under
//! `/var/myproxy`; this module reproduces that shape. Each entry is a
//! text header plus the base64 of the sealed blob — so what is on disk
//! is exactly what [`crate::store::CredStore::raw_dump`] shows an
//! intruder: ciphertext under the user's pass phrase (§5.1).
//!
//! Renewal copies (sealed under the server's in-memory master key) are
//! persisted too, but they are only usable again if the server is
//! restarted with the same master key
//! ([`crate::server::MyProxyServer::with_master_key`]); otherwise
//! renewal entries degrade gracefully to pass-phrase-only entries.

use crate::store::{CredStore, StoredCredential};
use crate::wal::{Vfs, JOURNAL_FILE};
use crate::MyProxyError;
use mp_crypto::base64;
use mp_gsi::lines::{self, FramingError};
use std::collections::BTreeMap;
use std::path::Path;

const MAGIC: &str = "MYPROXY-STORE-V1";

/// One store file that failed to parse at load time. Fail-soft: the
/// entry is skipped (and counted under `store.load.corrupt`), the rest
/// of the repository loads normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptEntry {
    /// The offending file name (not the full path).
    pub file: String,
    /// Why it failed to parse.
    pub reason: String,
}

impl std::fmt::Display for CorruptEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.reason)
    }
}

/// Serialize one entry to the on-disk text format (also the journal's
/// Upsert payload). A field the line framing cannot carry — a newline
/// in an owner DN, say — is a typed error: nothing is written.
pub fn entry_to_text(e: &StoredCredential) -> Result<String, FramingError> {
    let mut out = format!("{MAGIC}\n");
    let mut kv = |k: &str, v: &str| lines::push(&mut out, k, v);
    kv("username", &e.username)?;
    kv("name", &e.name)?;
    kv("owner", &e.owner_identity)?;
    kv("retrieval_max_lifetime", &e.retrieval_max_lifetime.to_string())?;
    kv("not_after", &e.not_after.to_string())?;
    kv("created_at", &e.created_at.to_string())?;
    kv("long_term", &e.long_term.to_string())?;
    kv("tags", &crate::proto::render_tags(&e.tags))?;
    if let Some(r) = &e.renewable_by {
        kv("renewable_by", r)?;
    }
    kv("sealed", &base64::encode(&e.sealed))?;
    if let Some(s) = &e.sealed_for_renewal {
        kv("sealed_for_renewal", &base64::encode(s))?;
    }
    Ok(out)
}

/// Parse one entry from the on-disk text format.
pub fn entry_from_text(text: &str) -> Result<StoredCredential, MyProxyError> {
    let body = text
        .strip_prefix(MAGIC)
        .filter(|body| body.is_empty() || body.starts_with(['\n', '\r']))
        .ok_or_else(|| MyProxyError::Protocol("bad store file magic".into()))?;
    // Last occurrence of a key wins; unknown keys are ignored (forward
    // compatibility).
    let fields: BTreeMap<&str, &str> = lines::parse(body).collect::<Result<_, _>>()?;
    fn parsed<N: std::str::FromStr>(fields: &BTreeMap<&str, &str>, k: &str) -> Option<N> {
        fields.get(k)?.parse().ok()
    }
    let text = |k: &str| fields.get(k).map(|v| v.to_string());
    let blob = |k: &str, bad: &str| match fields.get(k) {
        Some(v) => base64::decode(v).map(Some).ok_or_else(|| MyProxyError::Protocol(bad.into())),
        None => Ok(None),
    };
    let missing = |what: &'static str| MyProxyError::Protocol(format!("store file missing {what}"));
    Ok(StoredCredential {
        username: text("username").ok_or_else(|| missing("username"))?,
        name: text("name").ok_or_else(|| missing("name"))?,
        owner_identity: text("owner").unwrap_or_default(),
        sealed: blob("sealed", "bad sealed base64")?.ok_or_else(|| missing("sealed"))?,
        retrieval_max_lifetime: parsed(&fields, "retrieval_max_lifetime")
            .ok_or_else(|| missing("lifetime"))?,
        not_after: parsed(&fields, "not_after").ok_or_else(|| missing("not_after"))?,
        created_at: parsed(&fields, "created_at").unwrap_or(0),
        long_term: parsed(&fields, "long_term").unwrap_or(false),
        tags: fields.get("tags").map(|v| crate::proto::parse_tags(v)).unwrap_or_default(),
        renewable_by: text("renewable_by"),
        sealed_for_renewal: blob("sealed_for_renewal", "bad renewal base64")?,
    })
}

/// File name for an entry: hex of SHA-256(username, name), flat layout.
/// (Usernames are user-chosen strings; hashing sidesteps path-traversal
/// and charset questions entirely.)
pub fn entry_filename(username: &str, name: &str) -> String {
    let mut h = mp_crypto::Sha256::new();
    h.update(username.as_bytes());
    h.update(&[0]);
    h.update(name.as_bytes());
    format!("{}.cred", mp_crypto::hex(&h.finalize()[..16]))
}

impl CredStore {
    /// Write every entry to `dir` (created if absent) through `vfs`
    /// with full durability discipline: each entry goes tmp-file →
    /// data fsync → rename → directory fsync, so a crash leaves either
    /// the old file or the new one, never a torn half. Files for
    /// entries that no longer exist are removed (and the removal made
    /// durable by the same directory fsync).
    pub fn save_snapshot(&self, dir: &Path, vfs: &dyn Vfs) -> std::io::Result<()> {
        vfs.create_dir_all(dir)?;
        let mut expected = std::collections::HashSet::new();
        let mut dirty = false;
        for e in self.all_entries() {
            let filename = entry_filename(&e.username, &e.name);
            expected.insert(filename.clone());
            let tmp = dir.join(format!("{filename}.tmp"));
            vfs.write_file(&tmp, entry_to_text(&e).map_err(std::io::Error::other)?.as_bytes())?;
            vfs.sync_file(&tmp)?;
            vfs.rename(&tmp, &dir.join(&filename))?;
            dirty = true;
        }
        for fname in vfs.list_dir(dir)? {
            if fname.ends_with(".cred") && !expected.contains(&fname) {
                vfs.remove_file(&dir.join(&fname))?;
                dirty = true;
            }
        }
        if dirty {
            // One directory fsync covers every rename and removal above.
            vfs.sync_dir(dir)?;
        }
        Ok(())
    }

    /// Write one shard's entries to `dir` with the same tmp → fsync →
    /// rename discipline as [`CredStore::save_snapshot`], but no stale
    /// sweep and no directory fsync: the journal fold that calls this
    /// deletes its own tombstoned files and issues the covering
    /// directory fsync itself, so each shard's fold touches only its
    /// own keys and folds of different shards cannot race on a global
    /// sweep.
    pub fn save_shard_snapshot(
        &self,
        dir: &Path,
        vfs: &dyn Vfs,
        shard: usize,
    ) -> std::io::Result<()> {
        vfs.create_dir_all(dir)?;
        for e in self.shard_entries(shard) {
            let filename = entry_filename(&e.username, &e.name);
            let tmp = dir.join(format!("{filename}.tmp"));
            vfs.write_file(&tmp, entry_to_text(&e).map_err(std::io::Error::other)?.as_bytes())?;
            vfs.sync_file(&tmp)?;
            vfs.rename(&tmp, &dir.join(&filename))?;
        }
        Ok(())
    }

    /// Load every `.cred` file from `dir` into this store through
    /// `vfs`, replacing entries with the same key. Corrupt files are
    /// skipped and reported (fail-soft: one bad file must not take the
    /// repository down). Stale `*.tmp` litter from a crash mid-save is
    /// swept here.
    pub fn load_snapshot(&self, dir: &Path, vfs: &dyn Vfs) -> std::io::Result<Vec<CorruptEntry>> {
        let mut corrupt = Vec::new();
        let mut swept = false;
        for fname in vfs.list_dir(dir)? {
            let path = dir.join(&fname);
            if fname.ends_with(".tmp") {
                // A crash between tmp-write and rename (or a buggy
                // rename) strands these; they were never acknowledged
                // as durable, so deleting is always correct.
                vfs.remove_file(&path)?;
                swept = true;
                continue;
            }
            if fname == JOURNAL_FILE || !fname.ends_with(".cred") {
                continue;
            }
            let raw = vfs.read(&path)?;
            let parsed = String::from_utf8(raw)
                .map_err(|_| MyProxyError::Protocol("store file is not UTF-8".into()))
                .and_then(|text| entry_from_text(&text));
            match parsed {
                Ok(entry) => self.insert_entry(entry),
                Err(e) => corrupt.push(CorruptEntry { file: fname, reason: e.to_string() }),
            }
        }
        if swept {
            vfs.sync_dir(dir)?;
        }
        Ok(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DEFAULT_NAME;
    use crate::wal::RealVfs;
    use mp_gsi::Credential;
    use mp_x509::test_util::{test_drbg, test_rsa_key};
    use mp_x509::{CertificateAuthority, Dn};

    fn credential() -> Credential {
        let mut ca = CertificateAuthority::new_root(
            Dn::parse("/O=Grid/CN=CA").unwrap(),
            test_rsa_key(0).clone(),
            0,
            1_000_000,
        )
        .unwrap();
        let key = test_rsa_key(1);
        let dn = Dn::parse("/O=Grid/CN=alice").unwrap();
        let cert = ca.issue_end_entity(&dn, key.public_key(), 0, 600_000).unwrap();
        Credential::new(vec![cert], key.clone()).unwrap()
    }

    fn tmpdir(label: &str) -> crate::testutil::TempDir {
        crate::testutil::TempDir::new(&format!("persist-{label}"))
    }

    #[test]
    fn entry_text_roundtrip() {
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist rt");
        store
            .put_owned(
                "alice",
                DEFAULT_NAME,
                "pass!",
                &credential(),
                7200,
                100,
                false,
                vec![("ca".into(), "DOE".into())],
                "/O=Grid/CN=alice",
                None,
                &mut rng,
            )
            .unwrap();
        let entry = store.peek("alice", DEFAULT_NAME).unwrap();
        let text = entry_to_text(&entry).unwrap();
        let back = entry_from_text(&text).unwrap();
        assert_eq!(back.username, "alice");
        assert_eq!(back.owner_identity, "/O=Grid/CN=alice");
        assert_eq!(back.sealed, entry.sealed);
        assert_eq!(back.tags, entry.tags);
    }

    #[test]
    fn a_field_that_would_inject_a_line_is_refused_before_disk_and_journal() {
        use crate::wal::{encode_payload, WalRecord};
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist inject");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        let mut entry = store.peek("alice", DEFAULT_NAME).unwrap();
        let evil = "/O=Grid/CN=mallory\nrenewable_by=*";
        entry.owner_identity = evil.into();
        assert!(entry_to_text(&entry).is_err());
        assert!(encode_payload(&WalRecord::Upsert(entry.clone())).is_err());
        // The renewer pattern rides the same record to the same file.
        let mut renewable = store.peek("alice", DEFAULT_NAME).unwrap();
        renewable.renewable_by = Some(evil.into());
        assert!(encode_payload(&WalRecord::Upsert(renewable)).is_err());
        // A snapshot of a store that holds such a string fails as a
        // whole rather than writing the extra line.
        store.insert_entry(entry); // memory-only: no journal to refuse it
        let dir = tmpdir("inject");
        assert!(store.save_snapshot(&dir, &RealVfs).is_err());
    }

    #[test]
    fn save_load_roundtrip_preserves_decryptability() {
        let dir = tmpdir("roundtrip");
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist save");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        store
            .put("bob", "special", "bobpass", &credential(), 100, 200, true, vec![], &mut rng)
            .unwrap();
        store.save_snapshot(&dir, &RealVfs).unwrap();

        // A fresh store (same PBKDF2 iterations) loads everything back.
        let restored = CredStore::new(10);
        let corrupt = restored.load_snapshot(&dir, &RealVfs).unwrap();
        assert!(corrupt.is_empty());
        assert_eq!(restored.len(), 2);
        assert!(restored.open("alice", DEFAULT_NAME, "pass!").is_ok());
        assert!(restored.open("alice", DEFAULT_NAME, "wrong").is_err());
        assert!(restored.open("bob", "special", "bobpass").is_ok());
    }

    #[test]
    fn save_removes_stale_files() {
        let dir = tmpdir("stale");
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist stale");
        store
            .put("alice", DEFAULT_NAME, "pass!!", &credential(), 1, 1, false, vec![], &mut rng)
            .unwrap();
        store.save_snapshot(&dir, &RealVfs).unwrap();
        store.destroy("alice", DEFAULT_NAME, "pass!!").unwrap();
        store.save_snapshot(&dir, &RealVfs).unwrap();
        let remaining: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().and_then(|x| x.to_str()) == Some("cred")
            })
            .collect();
        assert!(remaining.is_empty());
    }

    #[test]
    fn corrupt_files_are_skipped_not_fatal() {
        let dir = tmpdir("corrupt");
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist corrupt");
        store
            .put("ok", DEFAULT_NAME, "pass!!", &credential(), 1, 1, false, vec![], &mut rng)
            .unwrap();
        store.save_snapshot(&dir, &RealVfs).unwrap();
        // Corruption appears after the save (the save sweeps files it
        // does not own, so write these afterwards).
        std::fs::write(dir.join("junk.cred"), "not a store file").unwrap();
        std::fs::write(dir.join("other.cred"), format!("{MAGIC}\nusername=x\n")).unwrap();

        let restored = CredStore::new(10);
        let corrupt = restored.load_snapshot(&dir, &RealVfs).unwrap();
        assert_eq!(corrupt.len(), 2, "two bad files reported");
        assert_eq!(restored.len(), 1, "good entry loaded");
    }

    #[test]
    fn on_disk_bytes_are_sealed() {
        let dir = tmpdir("sealed");
        let store = CredStore::new(10);
        let mut rng = test_drbg("persist sealed");
        let cred = credential();
        store
            .put("alice", DEFAULT_NAME, "pass!!", &cred, 1, 1, false, vec![], &mut rng)
            .unwrap();
        store.save_snapshot(&dir, &RealVfs).unwrap();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|x| x.to_str()) == Some("cred"))
            .unwrap();
        let contents = std::fs::read_to_string(file).unwrap();
        assert!(!contents.contains("BEGIN RSA PRIVATE KEY"));
        // The base64 of the *plaintext* PEM must not appear either.
        let pem_b64 = mp_crypto::base64::encode(cred.to_pem().as_bytes());
        assert!(!contents.contains(&pem_b64[..40]));
    }

    #[test]
    fn filename_is_stable_and_collision_resistant() {
        assert_eq!(
            entry_filename("alice", "default"),
            entry_filename("alice", "default")
        );
        assert_ne!(entry_filename("alice", "default"), entry_filename("alice", "other"));
        // The classic trap: ("ab","c") vs ("a","bc") must differ.
        assert_ne!(entry_filename("ab", "c"), entry_filename("a", "bc"));
        // And the name is filesystem-safe regardless of input: a hex
        // stem plus the ".cred" extension, no separators.
        let f = entry_filename("../../etc/passwd", "x/y");
        let stem = f.strip_suffix(".cred").unwrap();
        assert!(stem.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
