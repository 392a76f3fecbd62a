//! Concurrency tests for the sharded, group-commit credential store.
//!
//! Two properties are pinned here:
//!
//! 1. **No lost updates** on one hammered user key: `put`,
//!    `change_passphrase` and `destroy` race freely, and the final
//!    state must reflect the *latest* write — a mutator that committed
//!    a peeked clone as a full `Upsert` would silently resurrect stale
//!    sealed blobs here. The journal must agree: replaying the synced
//!    crash image reproduces the live in-memory state exactly.
//! 2. **Group commit actually batches**: under concurrent committers to
//!    one shard, the number of journal fsyncs stays strictly below the
//!    number of committed records (fsyncs/op < 1).

use mp_myproxy::store::DEFAULT_NAME;
use mp_myproxy::wal::{CrashVfs, WalConfig};
use mp_myproxy::CredStore;
use mp_obs::Registry;
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{CertificateAuthority, Dn};
use std::path::Path;
use std::sync::Arc;

const PBKDF2_ITERS: u32 = 10;

fn credential() -> mp_gsi::Credential {
    static CACHE: std::sync::OnceLock<mp_gsi::Credential> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
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
            mp_gsi::Credential::new(vec![cert], key.clone()).unwrap()
        })
        .clone()
}

fn durable_store(vfs: Arc<CrashVfs>) -> Arc<CredStore> {
    let store = Arc::new(CredStore::new(PBKDF2_ITERS));
    store
        .attach_durable(
            Path::new("/store"),
            vfs,
            WalConfig { compact_every: 0, ..WalConfig::default() },
            &Registry::new(),
        )
        .unwrap();
    store
}

/// Replay-equivalence oracle, shared with `tests/robustness.rs`.
fn assert_replay_matches_live(store: &CredStore, vfs: &CrashVfs) {
    mp_myproxy::testutil::assert_replay_matches_live(store, vfs, Path::new("/store"), PBKDF2_ITERS);
}

#[test]
fn hammering_one_key_loses_no_updates() {
    const PUTS: usize = 30;
    let vfs = Arc::new(CrashVfs::new());
    let store = durable_store(vfs.clone());
    let user = "contended";
    let cred = credential();

    // Seed both keys so the racers have something to hit.
    let mut rng = test_drbg("seed");
    store
        .put(user, DEFAULT_NAME, "pass-0", &cred, 7200, 100, false, vec![], &mut rng)
        .unwrap();
    store
        .put(user, "churn", "pass-fixed", &cred, 7200, 100, false, vec![], &mut rng)
        .unwrap();

    let mut handles = Vec::new();
    {
        // Writer: re-puts the hammered key with a fresh pass phrase
        // each round; the final round's seal must win.
        let store = store.clone();
        let cred = cred.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = test_drbg("putter");
            for i in 1..=PUTS {
                store
                    .put(user, DEFAULT_NAME, &format!("pass-{i}"), &cred, 7200, 100, false, vec![], &mut rng)
                    .unwrap();
            }
        }));
    }
    {
        // A resealer racing the writer on the same key, re-sealing each
        // round's entry under its own pass phrase. It is refused
        // whenever the writer has moved on (wrong pass phrase, or the
        // digest guard saw a newer seal); what may never happen is its
        // reseal of an older entry replacing the writer's newer one.
        let store = store.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = test_drbg("resealer");
            for i in 0..=PUTS {
                let pass = format!("pass-{i}");
                let _ = store.change_passphrase(user, DEFAULT_NAME, &pass, &pass, &mut rng);
            }
        }));
    }
    {
        // Churn key: destroy/re-put under a fixed pass phrase. Destroy
        // legitimately fails when it races a concurrent destroy; what
        // may never happen is a surviving entry that opens under
        // nothing.
        let store = store.clone();
        let cred = cred.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = test_drbg("churner");
            for _ in 0..PUTS {
                let _ = store.destroy(user, "churn", "pass-fixed");
                store
                    .put(user, "churn", "pass-fixed", &cred, 7200, 100, false, vec![], &mut rng)
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The last put's seal must have survived every racing reseal:
    // with a lost update this open fails because a stale clone (sealed
    // under an earlier pass phrase) won the race.
    let last = format!("pass-{PUTS}");
    store
        .open(user, DEFAULT_NAME, &last)
        .unwrap_or_else(|e| panic!("last put lost to a reseal race: {e}"));

    // The churn key ended on a put, so it must exist and open.
    store
        .open(user, "churn", "pass-fixed")
        .unwrap_or_else(|e| panic!("churn key in impossible state: {e}"));

    assert_replay_matches_live(&store, &vfs);
}

#[test]
fn group_commit_batches_fsyncs_under_contention() {
    const WRITERS: usize = 8;
    const PUTS_EACH: usize = 40;
    let vfs = Arc::new(CrashVfs::new());
    let store = durable_store(vfs.clone());
    // One user → one shard → every commit contends on the same journal,
    // the worst case group commit exists to fix.
    let user = "batched";
    let cred = credential();

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let store = store.clone();
        let cred = cred.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = test_drbg(&format!("writer-{w}"));
            for i in 0..PUTS_EACH {
                store
                    .put(user, &format!("cred-{w}-{i}"), "pass!", &cred, 7200, 100, false, vec![], &mut rng)
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let total = (WRITERS * PUTS_EACH) as u64;
    assert_eq!(store.len() as u64, total, "every put visible");

    let wal = store.wal_handle().expect("wal attached");
    let appends = wal.metrics().appends.get();
    let fsyncs = wal.metrics().fsyncs.get();
    assert_eq!(appends, total, "one journal record per put");
    assert!(
        fsyncs < appends,
        "group commit never batched: {fsyncs} fsyncs for {appends} records"
    );
    assert!(wal.metrics().group_fsyncs.get() >= 1);

    // Durability was not traded away: every record is in the journal.
    assert_replay_matches_live(&store, &vfs);
}
