//! The credential store.
//!
//! Paper §5.1: "the repository encrypts the credentials that it holds
//! with the pass phrase provided by the user. Because of this, even if
//! the repository host is compromised, an intruder would still need to
//! decrypt the keys individually or wait until a portal connects…"
//!
//! Every entry seals the credential PEM in a
//! [`mp_crypto::ctr::SecretBox`] keyed by PBKDF2(pass phrase). There is
//! deliberately **no separate pass-phrase hash**: verification *is*
//! successful decryption, so the store on disk contains nothing easier
//! to attack than the sealed blobs themselves.
//!
//! The in-memory map is sharded by user hash ([`shard_index`]): every
//! entry of a user lives in one shard, so user-keyed reads lock one
//! shard and concurrent writers to different users never contend. The
//! attached journal (see [`crate::wal`]) shards the same way.
//!
//! A deposit is one record: [`CredStore::put_owned`] seals the
//! credential and commits the whole entry — owner and renewal copy
//! included — as a single upsert, so a crash or a failover leaves the
//! old entry or the new one, never a mix. The one mutation that
//! modifies an existing entry, `change_passphrase`, commits a *delta*
//! guarded by a digest of the seal it replaces and applied under the
//! shard lock, so a concurrent `put`/`destroy` to the same key is never
//! silently overwritten by a stale clone (the classic
//! read-modify-write lost update).

use crate::wal::{Wal, WalRecord};
use crate::MyProxyError;
use mp_crypto::ctr::SecretBox;
use mp_gsi::Credential;
use mp_obs::Span;
use parking_lot::RwLock;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Key of one entry: (username, credential name).
pub type EntryKey = (String, String);

/// The default credential name when the wallet feature is unused.
pub const DEFAULT_NAME: &str = "default";

/// Default shard count for the in-memory map and the journal. Eight
/// shards decorrelate the commit fsyncs of a portal-scale writer mix
/// without scattering a small store across many files.
pub const DEFAULT_SHARDS: usize = 8;

/// Which shard a username lives in, out of `shards` (FNV-1a 64). Also
/// the scope predicate of a sharded purge record: the mapping depends
/// only on `(username, shards)`, never on the store instance, so
/// journals replay correctly across restarts and re-shardings.
pub fn shard_index(username: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in username.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// SHA-256 of a sealed blob — the compare-and-swap guard carried by
/// [`WalRecord::Reseal`].
pub(crate) fn sealed_digest(sealed: &[u8]) -> Vec<u8> {
    let mut h = mp_crypto::Sha256::new();
    h.update(sealed);
    h.finalize().to_vec()
}

/// Decrypt and parse one sealed credential. Every failure — wrong key,
/// bytes that are not UTF-8, PEM that does not parse — is the uniform
/// [`AUTH_FAILED`].
fn open_sealed(key: &[u8], sealed: &[u8], iterations: u32) -> Result<Credential, MyProxyError> {
    let refused = || MyProxyError::Refused(AUTH_FAILED.into());
    let pem = SecretBox::open(key, sealed, iterations).map_err(|_| refused())?;
    let pem = String::from_utf8(pem).map_err(|_| refused())?;
    Credential::from_pem(&pem).map_err(|_| refused())
}

/// Metadata + sealed blob for one stored credential.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredCredential {
    /// Repository account name (hand-typed, not the DN — §4.1).
    pub username: String,
    /// Wallet name (§6.2), [`DEFAULT_NAME`] otherwise.
    pub name: String,
    /// Effective Grid identity of the depositor, as a DN string. RENEW
    /// and portal bookkeeping match against this.
    pub owner_identity: String,
    /// The pass-phrase-sealed credential PEM.
    pub sealed: Vec<u8>,
    /// Cap the user put on lifetimes delegated from this entry (§4.1
    /// "retrieval restrictions").
    pub retrieval_max_lifetime: u64,
    /// Expiry of the stored chain itself.
    pub not_after: u64,
    /// When the entry was deposited.
    pub created_at: u64,
    /// §6.1 long-term credential (managed permanent key) vs. a
    /// delegated proxy.
    pub long_term: bool,
    /// Wallet selection tags (§6.2), e.g. `[("ca","DOE")]`.
    pub tags: Vec<(String, String)>,
    /// §6.6 renewal: DN pattern of clients allowed to renew from this
    /// entry without the pass phrase.
    pub renewable_by: Option<String>,
    /// §6.6 renewal: a second seal of the same credential under the
    /// *server master key*, so renewal can proceed unattended. The
    /// trade-off mirrors §5.2's discussion of the portal's unencrypted
    /// key: the master key lives only in server memory.
    pub sealed_for_renewal: Option<Vec<u8>>,
}

/// Uniform "no" from the store: callers (and the wire protocol) cannot
/// distinguish a missing user from a wrong pass phrase, so probing the
/// repository leaks nothing about which usernames exist.
pub const AUTH_FAILED: &str = "authentication failed (bad username, credential name, or pass phrase)";

/// What applying one [`WalRecord`] did: how many entries changed, and
/// which keys were removed (the journal fold tombstones these so it
/// can delete their snapshot files — the file name is a hash, so the
/// fold cannot reconstruct it from a directory listing).
pub(crate) struct ApplyOutcome {
    pub touched: usize,
    pub removed: Vec<EntryKey>,
}

impl ApplyOutcome {
    fn touched(n: usize) -> Self {
        ApplyOutcome { touched: n, removed: Vec::new() }
    }
}

/// Thread-safe, sharded credential store.
///
/// Without a journal attached the store is memory-only and mutations
/// apply directly. After [`CredStore::attach_durable`]
/// (see [`crate::wal`]) every mutation is a [`WalRecord`] committed
/// write-ahead: journaled and fsynced **before** the in-memory state
/// changes, so an acknowledged operation survives a crash.
pub struct CredStore {
    shards: Vec<RwLock<HashMap<EntryKey, StoredCredential>>>,
    pbkdf2_iterations: u32,
    wal: RwLock<Option<Arc<Wal>>>,
}

impl Default for CredStore {
    fn default() -> Self {
        CredStore::with_shards(0, DEFAULT_SHARDS)
    }
}

impl CredStore {
    /// Empty store sealing with `pbkdf2_iterations`, [`DEFAULT_SHARDS`]
    /// shards.
    pub fn new(pbkdf2_iterations: u32) -> Self {
        CredStore::with_shards(pbkdf2_iterations, DEFAULT_SHARDS)
    }

    /// Empty store with an explicit shard count (clamped to 1..=1024).
    pub fn with_shards(pbkdf2_iterations: u32, shards: usize) -> Self {
        let n = shards.clamp(1, 1024);
        CredStore {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            pbkdf2_iterations,
            wal: RwLock::new(None),
        }
    }

    /// Number of shards (the attached journal mirrors this).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `username`'s entries. `None` is unreachable
    /// (`with_shards` allocates ≥ 1 shard and [`shard_index`] returns
    /// `< len`), but callers fold it into "not found" rather than
    /// panicking.
    fn shard_for(&self, username: &str) -> Option<&RwLock<HashMap<EntryKey, StoredCredential>>> {
        self.shards.get(shard_index(username, self.shards.len()))
    }

    /// Attach a journal; from here on every mutation commits through
    /// it. ([`CredStore::attach_durable`] is the public entry point.)
    pub(crate) fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.write() = Some(wal);
    }

    /// The attached journal, if any (tests and benches drive
    /// [`Wal::commit_many`] through this).
    pub fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Apply one replayed/committed record to the in-memory map without
    /// logging it. Each arm takes its shard's write lock once, so the
    /// mutation is atomic with respect to every other reader/writer of
    /// that shard. Replay calls this directly; live mutations go
    /// through [`CredStore::commit`].
    pub(crate) fn apply(&self, rec: &WalRecord) -> ApplyOutcome {
        match rec {
            WalRecord::Upsert(e) => {
                self.insert_entry(e.clone());
                ApplyOutcome::touched(1)
            }
            WalRecord::Remove { username, name } => {
                let key = (username.clone(), name.clone());
                let removed = self
                    .shard_for(username)
                    .and_then(|lock| lock.write().remove(&key));
                match removed {
                    Some(_) => ApplyOutcome { touched: 1, removed: vec![key] },
                    None => ApplyOutcome::touched(0),
                }
            }
            WalRecord::Reseal { username, name, expect, sealed } => {
                let Some(lock) = self.shard_for(username) else {
                    return ApplyOutcome::touched(0);
                };
                let mut map = lock.write();
                match map.get_mut(&(username.clone(), name.clone())) {
                    // The CAS guard: only replace the seal this record
                    // was derived from. On replay over a snapshot that
                    // already folded it, the digest no longer matches
                    // and the record is a clean no-op.
                    Some(e) if sealed_digest(&e.sealed) == *expect => {
                        e.sealed = sealed.clone();
                        ApplyOutcome::touched(1)
                    }
                    _ => ApplyOutcome::touched(0),
                }
            }
            WalRecord::Purge { now, shard, of } => {
                let mut touched = 0usize;
                let mut removed = Vec::new();
                for lock in &self.shards {
                    let mut map = lock.write();
                    let doomed: Vec<EntryKey> = map
                        .iter()
                        .filter(|(key, e)| {
                            e.not_after <= *now
                                && (*of == 0
                                    || shard_index(&key.0, *of as usize) == *shard as usize)
                        })
                        .map(|(key, _)| key.clone())
                        .collect();
                    for key in doomed {
                        if map.remove(&key).is_some() {
                            touched += 1;
                            removed.push(key);
                        }
                    }
                }
                ApplyOutcome { touched, removed }
            }
        }
    }

    /// Route a mutation through the journal when one is attached,
    /// directly to memory otherwise. Returns how many entries changed.
    fn commit(&self, rec: WalRecord) -> crate::Result<usize> {
        let wal = self.wal.read().clone();
        match wal {
            Some(w) => w.commit(self, rec),
            None => Ok(self.apply(&rec).touched),
        }
    }

    /// Fold the attached journal into the snapshot now. Returns false
    /// if the store is memory-only.
    pub fn compact_journal(&self) -> std::io::Result<bool> {
        let wal = self.wal.read().clone();
        match wal {
            Some(w) => {
                w.compact(self)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// [`CredStore::put_owned`] with no recorded owner and no renewal
    /// copy.
    #[allow(clippy::too_many_arguments)]
    pub fn put<R: Rng + ?Sized>(
        &self,
        username: &str,
        name: &str,
        passphrase: &str,
        credential: &Credential,
        retrieval_max_lifetime: u64,
        now: u64,
        long_term: bool,
        tags: Vec<(String, String)>,
        rng: &mut R,
    ) -> crate::Result<()> {
        self.put_owned(
            username,
            name,
            passphrase,
            credential,
            retrieval_max_lifetime,
            now,
            long_term,
            tags,
            "",
            None,
            rng,
        )
    }

    /// Seal and insert a credential, replacing any entry with the same
    /// (username, name), as one journal record. `owner` is the
    /// depositor's channel-validated DN; `renewal` marks the entry
    /// renewable (§6.6): the DN pattern of clients allowed to renew
    /// without the pass phrase, and the copy of the credential sealed
    /// under the server master key that the renewal path decrypts.
    #[allow(clippy::too_many_arguments)]
    pub fn put_owned<R: Rng + ?Sized>(
        &self,
        username: &str,
        name: &str,
        passphrase: &str,
        credential: &Credential,
        retrieval_max_lifetime: u64,
        now: u64,
        long_term: bool,
        tags: Vec<(String, String)>,
        owner: &str,
        renewal: Option<(String, Vec<u8>)>,
        rng: &mut R,
    ) -> crate::Result<()> {
        // Dominated by the PBKDF2 seal; `store.put` tracks it.
        let _span = Span::enter("store.put");
        let pem = credential.to_pem();
        let mut entropy = [0u8; 32];
        rng.fill(&mut entropy);
        let sealed = SecretBox::seal(passphrase.as_bytes(), pem.as_bytes(), self.pbkdf2_iterations, &entropy);
        let not_after = credential
            .chain()
            .iter()
            .map(|c| c.not_after())
            .min()
            .unwrap_or(0);
        let (renewable_by, sealed_for_renewal) = renewal.unzip();
        let entry = StoredCredential {
            username: username.to_string(),
            name: name.to_string(),
            owner_identity: owner.to_string(),
            sealed,
            retrieval_max_lifetime,
            not_after,
            created_at: now,
            long_term,
            tags,
            renewable_by,
            sealed_for_renewal,
        };
        self.commit(WalRecord::Upsert(entry))?;
        Ok(())
    }

    /// The entry under an exact key, cloned out so no caller decrypts
    /// (PBKDF2) while holding the shard's read guard — a PUT for any
    /// user of the shard would wait that long, and later readers queue
    /// behind the waiting writer. A miss is the uniform [`AUTH_FAILED`].
    fn entry_for_auth(&self, username: &str, name: &str) -> Result<StoredCredential, MyProxyError> {
        self.peek(username, name).ok_or_else(|| MyProxyError::Refused(AUTH_FAILED.into()))
    }

    /// Open the renewal copy of an entry with the server master key.
    /// Entries never marked renewable fail with the uniform error.
    pub fn open_for_renewal(
        &self,
        username: &str,
        name: &str,
        master_key: &[u8],
    ) -> Result<(Credential, StoredCredential), MyProxyError> {
        let entry = self.entry_for_auth(username, name)?;
        let sealed = entry
            .sealed_for_renewal
            .as_ref()
            .ok_or_else(|| MyProxyError::Refused(AUTH_FAILED.into()))?;
        let cred = open_sealed(master_key, sealed, 1)?;
        Ok((cred, entry))
    }

    /// Open (decrypt) an entry. Wrong pass phrase, wrong name and
    /// missing user all return the same [`AUTH_FAILED`] error.
    pub fn open(
        &self,
        username: &str,
        name: &str,
        passphrase: &str,
    ) -> Result<(Credential, StoredCredential), MyProxyError> {
        // Auth failures record too — a brute-force attempt shows up as
        // a pile of `store.open` samples next to bumped denials.
        let _span = Span::enter("store.open");
        let entry = self.entry_for_auth(username, name)?;
        let cred = open_sealed(passphrase.as_bytes(), &entry.sealed, self.pbkdf2_iterations)?;
        Ok((cred, entry))
    }

    /// All entries for `username` that open under `passphrase`
    /// (myproxy-info semantics: you must authenticate to enumerate).
    pub fn list_authenticated(&self, username: &str, passphrase: &str) -> Vec<StoredCredential> {
        // `entries_for` clones under the guard; the PBKDF2 trials run
        // after it is dropped.
        let mut entries = self.entries_for(username);
        entries.retain(|e| {
            SecretBox::open(passphrase.as_bytes(), &e.sealed, self.pbkdf2_iterations).is_ok()
        });
        entries
    }

    /// Entry metadata by exact key without authentication — internal use
    /// (renewal checks the owner identity instead of a pass phrase).
    pub fn peek(&self, username: &str, name: &str) -> Option<StoredCredential> {
        self.shard_for(username)?
            .read()
            .get(&(username.to_string(), name.to_string()))
            .cloned()
    }

    /// Destroy one entry after pass-phrase verification
    /// (`myproxy-destroy`, §4.1).
    pub fn destroy(&self, username: &str, name: &str, passphrase: &str) -> Result<(), MyProxyError> {
        self.open(username, name, passphrase)?;
        self.commit(WalRecord::Remove {
            username: username.to_string(),
            name: name.to_string(),
        })?;
        Ok(())
    }

    /// Re-seal under a new pass phrase (`myproxy-change-pass-phrase`).
    /// The commit carries a digest of the seal being replaced: if a
    /// concurrent writer changed the entry between our decrypt and the
    /// commit, the record applies to nothing and the caller gets a
    /// retryable refusal instead of silently reviving stale state.
    pub fn change_passphrase<R: Rng + ?Sized>(
        &self,
        username: &str,
        name: &str,
        old_passphrase: &str,
        new_passphrase: &str,
        rng: &mut R,
    ) -> Result<(), MyProxyError> {
        let (cred, entry) = self.open(username, name, old_passphrase)?;
        let expect = sealed_digest(&entry.sealed);
        let mut entropy = [0u8; 32];
        rng.fill(&mut entropy);
        let sealed = SecretBox::seal(
            new_passphrase.as_bytes(),
            cred.to_pem().as_bytes(),
            self.pbkdf2_iterations,
            &entropy,
        );
        let touched = self.commit(WalRecord::Reseal {
            username: username.to_string(),
            name: name.to_string(),
            expect,
            sealed,
        })?;
        if touched == 0 {
            return Err(MyProxyError::Refused(
                "credential changed concurrently; retry".into(),
            ));
        }
        Ok(())
    }

    /// Remove entries whose stored chain has expired. Returns how many
    /// were removed. (The paper's backstop: stolen repository contents
    /// age out, §4.3.) Each shard with expired entries journals its own
    /// scoped purge record, so the sweep never serializes the whole
    /// store behind one record and replay order across shard journals
    /// cannot matter. A sweep that would remove nothing writes no
    /// journal record.
    pub fn purge_expired(&self, now: u64) -> crate::Result<usize> {
        let _span = Span::enter("store.purge");
        let of = self.shards.len() as u32;
        let mut total = 0usize;
        for (si, lock) in self.shards.iter().enumerate() {
            let expired = lock.read().values().any(|e| e.not_after <= now);
            if !expired {
                continue;
            }
            total += self.commit(WalRecord::Purge { now, shard: si as u32, of })?;
        }
        Ok(total)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Raw sealed blobs (what an intruder dumping the host sees).
    /// Exposed for the §5.1 security-property tests.
    pub fn raw_dump(&self) -> Vec<Vec<u8>> {
        self.shards
            .iter()
            .flat_map(|s| s.read().values().map(|e| e.sealed.clone()).collect::<Vec<_>>())
            .collect()
    }

    /// Snapshot of every entry (persistence uses this).
    pub fn all_entries(&self) -> Vec<StoredCredential> {
        self.shards
            .iter()
            .flat_map(|s| s.read().values().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Snapshot of one shard's entries (the per-shard fold uses this).
    pub fn shard_entries(&self, shard: usize) -> Vec<StoredCredential> {
        self.shards
            .get(shard)
            .map(|s| s.read().values().cloned().collect())
            .unwrap_or_default()
    }

    /// Insert an already-sealed entry (persistence uses this).
    pub fn insert_entry(&self, entry: StoredCredential) {
        if let Some(lock) = self.shard_for(&entry.username) {
            lock.write()
                .insert((entry.username.clone(), entry.name.clone()), entry);
        }
    }

    /// All entries of a user (metadata only) — wallet listing.
    pub fn entries_for(&self, username: &str) -> Vec<StoredCredential> {
        let Some(lock) = self.shard_for(username) else {
            return Vec::new();
        };
        lock.read()
            .values()
            .filter(|e| e.username == username)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    const MASTER_KEY: &[u8] = b"server master key";

    /// Alice's entry as the server deposits it: owned, and renewable
    /// through a copy sealed under [`MASTER_KEY`].
    fn store_with_alice() -> CredStore {
        let store = CredStore::new(10);
        let mut rng = test_drbg("store");
        let cred = credential();
        let renewal_copy = SecretBox::seal(MASTER_KEY, cred.to_pem().as_bytes(), 1, &[7; 32]);
        store
            .put_owned(
                "alice",
                DEFAULT_NAME,
                "hunter2!",
                &cred,
                7200,
                100,
                false,
                vec![],
                "/O=Grid/CN=alice",
                Some(("/O=Grid/CN=condor*".into(), renewal_copy)),
                &mut rng,
            )
            .unwrap();
        store
    }

    #[test]
    fn put_open_roundtrip() {
        let store = store_with_alice();
        let (cred, entry) = store.open("alice", DEFAULT_NAME, "hunter2!").unwrap();
        assert_eq!(cred.subject().to_string(), "/O=Grid/CN=alice");
        assert_eq!(entry.owner_identity, "/O=Grid/CN=alice");
        assert_eq!(entry.retrieval_max_lifetime, 7200);
        assert_eq!(entry.not_after, 600_000);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 64] {
            for user in ["alice", "bob", "carol", "", "日本語"] {
                let i = shard_index(user, n);
                assert!(i < n);
                assert_eq!(i, shard_index(user, n), "deterministic");
            }
        }
        // Different users spread (not a proof — a sanity anchor).
        let spread: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_index(&format!("user-{i}"), 8)).collect();
        assert!(spread.len() > 1, "users land in more than one shard");
    }

    #[test]
    fn wrong_passphrase_and_missing_user_indistinguishable() {
        let store = store_with_alice();
        let e1 = store.open("alice", DEFAULT_NAME, "wrong").unwrap_err();
        let e2 = store.open("nobody", DEFAULT_NAME, "hunter2!").unwrap_err();
        let e3 = store.open("alice", "no-such-name", "hunter2!").unwrap_err();
        assert_eq!(format!("{e1}"), format!("{e2}"));
        assert_eq!(format!("{e1}"), format!("{e3}"));
    }

    #[test]
    fn destroy_requires_passphrase() {
        let store = store_with_alice();
        assert!(store.destroy("alice", DEFAULT_NAME, "wrong").is_err());
        assert_eq!(store.len(), 1);
        store.destroy("alice", DEFAULT_NAME, "hunter2!").unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn change_passphrase_reseals() {
        let store = store_with_alice();
        let mut rng = test_drbg("change");
        store
            .change_passphrase("alice", DEFAULT_NAME, "hunter2!", "correct horse battery", &mut rng)
            .unwrap();
        assert!(store.open("alice", DEFAULT_NAME, "hunter2!").is_err());
        assert!(store.open("alice", DEFAULT_NAME, "correct horse battery").is_ok());
    }

    #[test]
    fn renewal_copy_opens_under_the_master_key_only() {
        let store = store_with_alice();
        let (cred, entry) = store.open_for_renewal("alice", DEFAULT_NAME, MASTER_KEY).unwrap();
        assert_eq!(cred.subject().to_string(), "/O=Grid/CN=alice");
        assert_eq!(entry.renewable_by.as_deref(), Some("/O=Grid/CN=condor*"));
        let wrong_key = store.open_for_renewal("alice", DEFAULT_NAME, b"not it").unwrap_err();
        let missing = store.open_for_renewal("nobody", DEFAULT_NAME, MASTER_KEY).unwrap_err();
        assert_eq!(wrong_key.to_string(), missing.to_string());
        assert!(wrong_key.to_string().contains(AUTH_FAILED));
    }

    #[test]
    fn purge_expired_removes_only_expired() {
        let store = store_with_alice();
        assert_eq!(store.purge_expired(100).unwrap(), 0);
        assert_eq!(store.purge_expired(600_001).unwrap(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn purge_spans_all_shards() {
        let store = CredStore::new(10);
        let mut rng = test_drbg("purge shards");
        for i in 0..16 {
            store
                .put(&format!("user-{i}"), DEFAULT_NAME, "p!", &credential(), 1, 1, false, vec![], &mut rng)
                .unwrap();
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.purge_expired(600_001).unwrap(), 16);
        assert!(store.is_empty());
    }

    #[test]
    fn raw_dump_contains_no_plaintext_key_material() {
        let store = store_with_alice();
        let cred = credential();
        let key_der = mp_x509::keys::private_key_to_der(cred.key());
        let pem = cred.to_pem();
        for blob in store.raw_dump() {
            assert!(!blob.windows(key_der.len()).any(|w| w == &key_der[..]));
            assert!(!blob
                .windows(b"BEGIN RSA PRIVATE KEY".len())
                .any(|w| w == b"BEGIN RSA PRIVATE KEY"));
            assert!(!blob.windows(pem.len().min(64)).any(|w| w == &pem.as_bytes()[..64]));
        }
    }

    #[test]
    fn list_authenticated_filters_by_passphrase() {
        let store = store_with_alice();
        let mut rng = test_drbg("second");
        store
            .put("alice", "compute", "other-pass", &credential(), 100, 100, false, vec![], &mut rng)
            .unwrap();
        let listed = store.list_authenticated("alice", "hunter2!");
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, DEFAULT_NAME);
        assert!(store.list_authenticated("alice", "totally wrong").is_empty());
    }

    #[test]
    fn replace_same_key_overwrites() {
        let store = store_with_alice();
        let mut rng = test_drbg("replace");
        store
            .put("alice", DEFAULT_NAME, "newpass!", &credential(), 60, 200, false, vec![], &mut rng)
            .unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.open("alice", DEFAULT_NAME, "hunter2!").is_err());
        // The replacement is the whole entry: nothing of the old one's
        // owner or renewal copy carries over to a deposit without them.
        let (_, entry) = store.open("alice", DEFAULT_NAME, "newpass!").unwrap();
        assert_eq!((entry.owner_identity.as_str(), &entry.renewable_by), ("", &None));
        assert!(store.open_for_renewal("alice", DEFAULT_NAME, MASTER_KEY).is_err());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = std::sync::Arc::new(store_with_alice());
        let mut handles = Vec::new();
        for i in 0..8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if i % 2 == 0 {
                        let _ = store.open("alice", DEFAULT_NAME, "hunter2!");
                    } else {
                        let _ = store.len();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
