//! The crash-injection matrix for the durable credential store.
//!
//! A fixed, seeded workload of mutating operations runs over a
//! [`CrashVfs`] that cuts power after every possible filesystem
//! mutation in turn. For each injection point the store is recovered
//! from both crash images — "everything written survived" (torn) and
//! "only fsynced bytes survived" (synced) — and the recovered state
//! must be **prefix-consistent**: every operation the workload saw
//! acknowledged is present and openable, at most the single in-flight
//! operation may additionally appear, and no corrupt entry is visible.
//!
//! No wall-clock, no OS entropy: the sweep is deterministic and the
//! CI `crash-matrix` step runs it in release mode.

use mp_crypto::HmacDrbg;
use mp_gsi::transport::BoxedTransport;
use mp_myproxy::client::InitParams;
use mp_myproxy::repl::ReplConfig;
use mp_myproxy::testutil::shard_journal_records;
use mp_myproxy::wal::{CrashVfs, WalConfig, WalRecord};
use mp_myproxy::{
    CredStore, MyProxyClient, MyProxyError, MyProxyServer, ServerPolicy, StoredCredential,
};
use mp_obs::Registry;
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{Certificate, CertificateAuthority, Dn, SimClock};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

const STORE_DIR: &str = "/store";
const PBKDF2_ITERS: u32 = 10;
/// Small threshold so the sweep crosses compaction injection points.
/// The journal is sharded per user hash, so the per-shard append count
/// is what crosses this — 2 guarantees folds happen even though each
/// user's records land in their own shard.
const COMPACT_EVERY: u64 = 2;
/// Purge reference clock: carol's chain (not_after 1000) is expired,
/// alice's and bob's (not_after 600_000) are not.
const PURGE_NOW: u64 = 2_000;

fn credential_with(subject: &'static str, not_after: u64) -> mp_gsi::Credential {
    static CACHE: std::sync::OnceLock<
        std::sync::Mutex<BTreeMap<&'static str, mp_gsi::Credential>>,
    > = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| std::sync::Mutex::new(BTreeMap::new()));
    let mut cache = cache.lock().unwrap();
    if let Some(c) = cache.get(subject) {
        return c.clone();
    }
    let cred = build_credential(subject, not_after);
    cache.insert(subject, cred.clone());
    cred
}

fn build_credential(subject: &str, not_after: u64) -> mp_gsi::Credential {
    let mut ca = CertificateAuthority::new_root(
        Dn::parse("/O=Grid/CN=CA").unwrap(),
        test_rsa_key(0).clone(),
        0,
        1_000_000,
    )
    .unwrap();
    let key = test_rsa_key(1);
    let dn = Dn::parse(&format!("/O=Grid/CN={subject}")).unwrap();
    let cert = ca.issue_end_entity(&dn, key.public_key(), 0, not_after).unwrap();
    mp_gsi::Credential::new(vec![cert], key.clone()).unwrap()
}

/// Expected post-workload state for a given applied prefix:
/// username → (opening pass phrase, owner identity).
fn model(applied: &[usize]) -> BTreeMap<&'static str, (&'static str, &'static str)> {
    let mut m: BTreeMap<&'static str, (&'static str, &'static str)> = BTreeMap::new();
    for &op in applied {
        match op {
            0 => {
                m.insert("alice", ("pass-alice", ""));
            }
            1 => {
                m.insert("alice", ("pass-alice", "/O=Grid/CN=alice"));
            }
            2 => {
                m.insert("bob", ("pass-bob", ""));
            }
            3 => {
                if let Some(e) = m.get_mut("bob") {
                    e.0 = "pass-bob-2";
                }
            }
            4 => {
                m.insert("carol", ("pass-carol", ""));
            }
            5 => {
                m.remove("alice");
            }
            6 => {
                m.remove("carol"); // purge at PURGE_NOW: only carol expired
            }
            _ => unreachable!("workload has 7 ops"),
        }
    }
    m
}

const OP_COUNT: usize = 7;

/// Run op `i` of the workload against `store`.
fn run_op(store: &CredStore, i: usize) -> Result<(), MyProxyError> {
    let mut rng = test_drbg(&format!("crash-matrix op {i}"));
    let name = mp_myproxy::store::DEFAULT_NAME;
    match i {
        0 => store.put("alice", name, "pass-alice", &credential_with("alice", 600_000), 7200, 100, false, vec![], &mut rng),
        1 => store.put_owned("alice", name, "pass-alice", &credential_with("alice", 600_000), 7200, 100, false, vec![], "/O=Grid/CN=alice", None, &mut rng),
        2 => store.put("bob", name, "pass-bob", &credential_with("bob", 600_000), 7200, 100, false, vec![], &mut rng),
        3 => store.change_passphrase("bob", name, "pass-bob", "pass-bob-2", &mut rng),
        4 => store.put("carol", name, "pass-carol", &credential_with("carol", 1_000), 7200, 100, false, vec![], &mut rng),
        5 => store.destroy("alice", name, "pass-alice"),
        6 => store.purge_expired(PURGE_NOW).map(|_| ()),
        _ => unreachable!("workload has 7 ops"),
    }
}

/// Run the whole workload; returns (acked op indices, first failed op).
/// The workload stops at the first error, exactly like a server whose
/// disk just died mid-request.
fn run_workload(vfs: Arc<CrashVfs>) -> (Vec<usize>, Option<usize>) {
    let store = CredStore::new(PBKDF2_ITERS);
    let attach = store.attach_durable(
        Path::new(STORE_DIR),
        vfs,
        WalConfig { compact_every: COMPACT_EVERY, ..WalConfig::default() },
        &Registry::new(),
    );
    if attach.is_err() {
        // Power failed before the store even opened; nothing acked.
        return (Vec::new(), None);
    }
    let mut acked = Vec::new();
    for i in 0..OP_COUNT {
        match run_op(&store, i) {
            Ok(()) => acked.push(i),
            Err(_) => return (acked, Some(i)),
        }
    }
    (acked, None)
}

/// Does `store` hold exactly the entries of `expected` (each openable
/// with its pass phrase, owner as recorded)?
fn matches_model(
    store: &CredStore,
    expected: &BTreeMap<&'static str, (&'static str, &'static str)>,
) -> bool {
    if store.len() != expected.len() {
        return false;
    }
    for (user, (pass, owner)) in expected {
        match store.open(user, mp_myproxy::store::DEFAULT_NAME, pass) {
            Ok((_, entry)) => {
                if entry.owner_identity != *owner {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

fn recover(image: BTreeMap<std::path::PathBuf, Vec<u8>>) -> (CredStore, mp_myproxy::wal::DurabilityReport) {
    let store = CredStore::new(PBKDF2_ITERS);
    let report = store
        .attach_durable(
            Path::new(STORE_DIR),
            Arc::new(CrashVfs::from_image(image)),
            WalConfig { compact_every: COMPACT_EVERY, ..WalConfig::default() },
            &Registry::new(),
        )
        .expect("recovery from a crash image must always succeed");
    (store, report)
}

/// The matrix: power-cut after every filesystem mutation the workload
/// performs, recover from both crash images, demand prefix consistency.
#[test]
fn power_cut_at_every_injection_point_recovers_prefix_consistent_state() {
    // Dry run (no fault) counts the injection points.
    let dry = Arc::new(CrashVfs::new());
    let (acked, failed) = run_workload(dry.clone());
    assert_eq!(acked.len(), OP_COUNT, "dry run must ack everything");
    assert_eq!(failed, None);
    let total = dry.mutations();
    assert!(total > 20, "expected a rich injection surface, got {total}");

    // Sanity: the healthy end state matches the full model.
    let (healthy, report) = recover(dry.image_synced());
    assert!(report.corrupt.is_empty());
    assert!(matches_model(&healthy, &model(&(0..OP_COUNT).collect::<Vec<_>>())));

    for cut in 0..total {
        let vfs = Arc::new(CrashVfs::new());
        vfs.set_cut_after(cut);
        let (acked, failed) = run_workload(vfs.clone());

        let allowed: Vec<BTreeMap<_, _>> = {
            let mut states = vec![model(&acked)];
            if let Some(f) = failed {
                // The in-flight op may have reached the journal before
                // the lights went out; both outcomes are consistent.
                let mut with_inflight = acked.clone();
                with_inflight.push(f);
                states.push(model(&with_inflight));
            }
            states
        };

        for (which, image) in [("torn", vfs.image_torn()), ("synced", vfs.image_synced())] {
            let (recovered, report) = recover(image);
            assert!(
                report.corrupt.is_empty(),
                "cut {cut} ({which}): corrupt entries after recovery: {:?}",
                report.corrupt
            );
            assert!(
                allowed.iter().any(|m| matches_model(&recovered, m)),
                "cut {cut} ({which}): recovered {} entries, acked {:?}, in-flight {:?}",
                recovered.len(),
                acked,
                failed
            );
        }
    }
}

/// Every acknowledged operation must survive in the *synced* image —
/// fsync-on-commit means an ack is a durability promise, not a hope.
#[test]
fn acked_ops_always_survive_in_synced_image() {
    let dry = Arc::new(CrashVfs::new());
    run_workload(dry.clone());
    let total = dry.mutations();

    for cut in 0..total {
        let vfs = Arc::new(CrashVfs::new());
        vfs.set_cut_after(cut);
        let (acked, _) = run_workload(vfs.clone());
        let (recovered, _) = recover(vfs.image_synced());
        // matches_model is exact; here we only need containment of the
        // acked fold, which prefix consistency (tested above) plus this
        // spot-check of the strongest prefix gives us.
        let expected = model(&acked);
        for (user, (pass, _)) in &expected {
            assert!(
                recovered.open(user, mp_myproxy::store::DEFAULT_NAME, pass).is_ok(),
                "cut {cut}: acked credential for {user} lost from synced image"
            );
        }
    }
}

/// A minimal entry for journal-level tests that never open the seal.
fn stub_entry(username: &str, name: &str, fill: u8) -> StoredCredential {
    StoredCredential {
        username: username.to_string(),
        name: name.to_string(),
        owner_identity: String::new(),
        sealed: vec![fill; 32],
        retrieval_max_lifetime: 100,
        not_after: 600_000,
        created_at: 1,
        long_term: false,
        tags: Vec::new(),
        renewable_by: None,
        sealed_for_renewal: None,
    }
}

/// A group-commit batch is one append: tearing bytes off its tail must
/// replay as a clean prefix of the batch (earlier frames intact, the
/// torn frame truncated and counted, nothing corrupt).
#[test]
fn torn_group_commit_batch_replays_as_clean_prefix() {
    let vfs = Arc::new(CrashVfs::new());
    let store = CredStore::new(PBKDF2_ITERS);
    store
        .attach_durable(
            Path::new(STORE_DIR),
            vfs.clone(),
            WalConfig { compact_every: 0, ..WalConfig::default() },
            &Registry::new(),
        )
        .unwrap();
    let wal = store.wal_handle().expect("wal attached");

    let user = "batch-user";
    let recs: Vec<WalRecord> = (0..5)
        .map(|i| WalRecord::Upsert(stub_entry(user, &format!("cred-{i}"), i as u8)))
        .collect();
    wal.commit_many(&store, recs).unwrap();
    assert_eq!(store.len(), 5);

    // All five frames went to one shard journal in a single append.
    let si = mp_myproxy::store::shard_index(user, store.shard_count());
    let path = Path::new(STORE_DIR).join(mp_myproxy::wal::shard_journal_name(si));
    let mut image = vfs.image_synced();
    let bytes = image.get_mut(&path).expect("shard journal present in image");
    let torn = bytes.len() - 3; // chop into the last frame
    bytes.truncate(torn);

    let (recovered, report) = recover(image);
    assert!(report.truncated_tail, "torn batch tail must be detected");
    assert_eq!(report.replayed, 4, "clean prefix of the batch replays");
    assert!(report.corrupt.is_empty());
    assert_eq!(recovered.len(), 4);
    for i in 0..4 {
        assert!(recovered.peek(user, &format!("cred-{i}")).is_some(), "cred-{i} lost");
    }
    assert!(recovered.peek(user, "cred-4").is_none(), "torn frame must not replay");
}

/// Power cut at every mutation of a workload that demonstrably spans
/// several shard journals: every acked PUT must survive the synced
/// image, per shard, independent of what the other shards were doing.
#[test]
fn power_cut_across_shards_preserves_acked_puts_per_shard() {
    const SHARDS: usize = 4;
    let users: Vec<String> = (0..6).map(|i| format!("shard-user-{i}")).collect();

    let run = |vfs: Arc<CrashVfs>| -> Vec<String> {
        let store = CredStore::with_shards(PBKDF2_ITERS, SHARDS);
        let attach = store.attach_durable(
            Path::new(STORE_DIR),
            vfs,
            WalConfig { compact_every: 0, ..WalConfig::default() },
            &Registry::new(),
        );
        if attach.is_err() {
            return Vec::new();
        }
        let mut acked = Vec::new();
        let mut rng = test_drbg("crash-matrix shards");
        for u in &users {
            let cred = credential_with("alice", 600_000);
            match store.put(u, mp_myproxy::store::DEFAULT_NAME, "shard pass", &cred, 7200, 100, false, vec![], &mut rng) {
                Ok(()) => acked.push(u.clone()),
                Err(_) => break,
            }
        }
        acked
    };

    // Dry run: count mutations and pin that the workload really spans
    // more than one shard journal (otherwise this test checks nothing).
    let dry = Arc::new(CrashVfs::new());
    let acked = run(dry.clone());
    assert_eq!(acked.len(), users.len());
    let journals = dry
        .image_synced()
        .keys()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".wal"))
        })
        .count();
    assert!(journals >= 2, "workload spans only {journals} shard journal(s)");
    let total = dry.mutations();

    for cut in 0..total {
        let vfs = Arc::new(CrashVfs::new());
        vfs.set_cut_after(cut);
        let acked = run(vfs.clone());

        let recovered = CredStore::with_shards(PBKDF2_ITERS, SHARDS);
        recovered
            .attach_durable(
                Path::new(STORE_DIR),
                Arc::new(CrashVfs::from_image(vfs.image_synced())),
                WalConfig { compact_every: 0, ..WalConfig::default() },
                &Registry::new(),
            )
            .expect("recovery must succeed");
        for u in &acked {
            assert!(
                recovered.open(u, mp_myproxy::store::DEFAULT_NAME, "shard pass").is_ok(),
                "cut {cut}: acked PUT for {u} lost from synced image"
            );
        }
    }
}

proptest! {
    /// Journal replay is idempotent: recovering a crash image once and
    /// recovering it twice (a second snapshot-load + replay over the
    /// already-recovered store) yield identical stores. This is the
    /// property that makes the compaction crash window safe.
    #[test]
    fn journal_replay_is_idempotent(ops in proptest::collection::vec(0usize..OP_COUNT, 1..12)) {
        let vfs = Arc::new(CrashVfs::new());
        let store = CredStore::new(PBKDF2_ITERS);
        // compact_every: 0 — keep every record in the journal so the
        // replay path (not the snapshot) carries the state.
        store
            .attach_durable(Path::new(STORE_DIR), vfs.clone(), WalConfig { compact_every: 0, ..WalConfig::default() }, &Registry::new())
            .unwrap();
        for &op in &ops {
            // Ops may fail (destroy with nothing stored); that's fine,
            // failed ops write no records.
            let _ = run_op(&store, op);
        }
        let image = vfs.image_synced();

        let (once, report_once) = recover(image.clone());
        let (twice, report_twice) = recover(image.clone());
        // Second replay over the already-recovered store.
        let report_again = twice
            .attach_durable(
                Path::new(STORE_DIR),
                Arc::new(CrashVfs::from_image(image)),
                WalConfig { compact_every: 0, ..WalConfig::default() },
                &Registry::new(),
            )
            .unwrap();
        prop_assert_eq!(report_once.replayed, report_twice.replayed);
        prop_assert_eq!(report_once.replayed, report_again.replayed);

        let mut a = once.all_entries();
        let mut b = twice.all_entries();
        a.sort_by(|x, y| (&x.username, &x.name).cmp(&(&y.username, &y.name)));
        b.sort_by(|x, y| (&x.username, &x.name).cmp(&(&y.username, &y.name)));
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Replication crash matrix: the same workload, now with the primary
// shipping every committed batch to a warm standby. Power is cut at
// every mutation on each side in turn; the standby must stay
// prefix-consistent per shard, and a fresh shipper pass must converge
// a recovered standby back to the primary with zero divergence.
// ---------------------------------------------------------------------

const PRIMARY_DIR: &str = "/primary";
const STANDBY_DIR: &str = "/standby";

/// One CA-issued service credential + trust roots, shared by both
/// repositories (a replicated deployment presents one identity).
fn repl_identity() -> &'static (mp_gsi::Credential, Vec<Certificate>) {
    static ID: OnceLock<(mp_gsi::Credential, Vec<Certificate>)> = OnceLock::new();
    ID.get_or_init(|| {
        let mut ca = CertificateAuthority::new_root(
            Dn::parse("/O=Grid/CN=CA").unwrap(),
            test_rsa_key(0).clone(),
            0,
            1_000_000,
        )
        .unwrap();
        let key = test_rsa_key(2);
        let dn = Dn::parse("/O=Grid/CN=repo").unwrap();
        let cert = ca.issue_end_entity(&dn, key.public_key(), 0, 900_000).unwrap();
        (
            mp_gsi::Credential::new(vec![cert], key.clone()).unwrap(),
            vec![ca.certificate().clone()],
        )
    })
}

fn repl_server(seed: &[u8]) -> MyProxyServer {
    let (cred, roots) = repl_identity();
    MyProxyServer::new(
        cred.clone(),
        roots.clone(),
        ServerPolicy::permissive(),
        Arc::new(SimClock::new(100)),
        HmacDrbg::new(seed),
    )
}

fn wal_plain() -> WalConfig {
    WalConfig { compact_every: 0, ..WalConfig::default() }
}

fn recover_repl(dir: &str, image: BTreeMap<std::path::PathBuf, Vec<u8>>) -> (CredStore, mp_myproxy::wal::DurabilityReport) {
    let store = CredStore::new(PBKDF2_ITERS);
    let report = store
        .attach_durable(
            Path::new(dir),
            Arc::new(CrashVfs::from_image(image)),
            wal_plain(),
            &Registry::new(),
        )
        .expect("recovery from a crash image must always succeed");
    (store, report)
}

/// A PUT is one journal record, so a PUT that *replaces a renewable
/// entry* is atomic under power loss. The whole request runs through
/// the server (delegation, pass-phrase seal, renewal seal, commit);
/// power is cut after every filesystem mutation of the replacing PUT
/// and both crash images must recover to the old entry intact — owner
/// and renewal copy present — or to the new one complete. A PUT
/// committed as upsert-then-owner-then-renewable records cannot pass:
/// a cut between them recovers the new seal with no owner and no
/// renewal copy, the old ones gone, and the client never acked.
#[test]
fn power_cut_during_a_replacing_put_recovers_old_or_new_entry_never_a_mix() {
    const OWNER: &str = "/O=Grid/CN=alice";
    let name = mp_myproxy::store::DEFAULT_NAME;
    let alice = credential_with("alice", 600_000);
    let client = MyProxyClient::new(repl_identity().1.clone(), None);
    let put = |server: &MyProxyServer, pass: &str, renewer: &str| {
        let mut params = InitParams::new("alice", pass);
        params.renewer = Some(renewer.into());
        let mut rng = test_drbg(&format!("replacing put {pass}"));
        client.init(server.connect_local(), &alice, &params, &mut rng, 100)
    };
    // Deposit the old entry on a healthy disk, then arm the cut `k`
    // mutations into the replacing PUT. Returns the old entry, whether
    // the replacement was acked, and the filesystem.
    let run = |k: Option<u64>| {
        let vfs = Arc::new(CrashVfs::new());
        let server = repl_server(b"crash replacing put");
        server
            .enable_durability_with(
                Path::new(STORE_DIR),
                vfs.clone(),
                WalConfig { compact_every: 1, ..WalConfig::default() },
            )
            .unwrap();
        put(&server, "old pass phrase", "/O=Grid/CN=condor-old").expect("old entry deposited");
        let old = server.store().peek("alice", name).expect("old entry stored");
        let before = vfs.mutations();
        if let Some(k) = k {
            vfs.set_cut_after(before + k);
        }
        let acked = put(&server, "new pass phrase", "/O=Grid/CN=condor-new").is_ok();
        (old, acked, vfs.mutations() - before, vfs)
    };

    let (old, acked, total, _) = run(None);
    assert!(acked, "dry run must ack the replacing PUT");
    assert_eq!(old.owner_identity, OWNER);
    assert_eq!(old.renewable_by.as_deref(), Some("/O=Grid/CN=condor-old"));
    assert!(old.sealed_for_renewal.is_some());
    assert!(total >= 4, "expected journal and fold injection points, got {total}");

    for cut in 0..total {
        let (old, acked, _, vfs) = run(Some(cut));
        for (which, image) in [("torn", vfs.image_torn()), ("synced", vfs.image_synced())] {
            let (recovered, report) = recover(image);
            assert!(report.corrupt.is_empty(), "cut {cut} ({which}): {:?}", report.corrupt);
            let entry = recovered
                .peek("alice", name)
                .unwrap_or_else(|| panic!("cut {cut} ({which}): acked entry lost"));
            let complete_new = recovered.open("alice", name, "new pass phrase").is_ok()
                && entry.owner_identity == OWNER
                && entry.renewable_by.as_deref() == Some("/O=Grid/CN=condor-new")
                && entry.sealed_for_renewal.is_some()
                && entry.sealed_for_renewal != old.sealed_for_renewal;
            assert!(
                complete_new || (entry == old && !(acked && which == "synced")),
                "cut {cut} ({which}, acked={acked}): neither the old entry intact nor the new \
                 one complete: owner {:?}, renewable_by {:?}, renewal copy {}",
                entry.owner_identity,
                entry.renewable_by,
                if entry.sealed_for_renewal.is_some() { "present" } else { "missing" },
            );
        }
    }
}

/// One replicated workload run: the `run_op` sequence on the primary,
/// a shipper pass after every ack (ship failures are swallowed — acks
/// never depend on the standby). Returns the acked op prefix and the
/// live pair; the primary may be `None` when power failed before its
/// store even opened.
fn run_replicated(
    primary_vfs: Arc<CrashVfs>,
    standby_vfs: Arc<CrashVfs>,
) -> (Vec<usize>, Option<(MyProxyServer, MyProxyServer)>) {
    let primary = repl_server(b"crash repl primary");
    if primary
        .enable_durability_with(Path::new(PRIMARY_DIR), primary_vfs, wal_plain())
        .is_err()
    {
        return (Vec::new(), None);
    }
    primary
        .enable_replication(&ReplConfig { ring_capacity: 64, takeover_timeout_secs: 0 })
        .expect("journal is attached");

    let standby = repl_server(b"crash repl standby");
    let shipper = if standby
        .enable_durability_with(Path::new(STANDBY_DIR), standby_vfs, wal_plain())
        .is_ok()
    {
        standby.configure_standby(&ReplConfig::default());
        let st = standby.clone();
        Some(primary.shipper(Arc::new(move || Ok(Box::new(st.connect_local()) as BoxedTransport))))
    } else {
        // Standby dead on arrival: the primary still serves.
        None
    };

    let mut acked = Vec::new();
    for i in 0..OP_COUNT {
        match run_op(primary.store(), i) {
            Ok(()) => acked.push(i),
            Err(_) => break,
        }
        if let Some(s) = &shipper {
            let _ = s.run_once();
        }
    }
    (acked, Some((primary, standby)))
}

/// Primary-side cuts: ship-after-fsync means the standby holds exactly
/// the acked prefix — never a record the primary did not ack, never a
/// missing one the shipper confirmed.
#[test]
fn power_cut_on_primary_leaves_standby_exactly_at_acked_prefix() {
    let dry_p = Arc::new(CrashVfs::new());
    let dry_s = Arc::new(CrashVfs::new());
    let (acked, _) = run_replicated(dry_p.clone(), dry_s.clone());
    assert_eq!(acked.len(), OP_COUNT, "dry run must ack everything");
    let total = dry_p.mutations();
    assert!(total > 10, "expected a rich injection surface, got {total}");

    // Dry-run sanity: the standby converged to the full model, durably.
    let (sb, report) = recover_repl(STANDBY_DIR, dry_s.image_synced());
    assert!(report.corrupt.is_empty());
    assert!(matches_model(&sb, &model(&(0..OP_COUNT).collect::<Vec<_>>())));

    for cut in 0..total {
        let pv = Arc::new(CrashVfs::new());
        pv.set_cut_after(cut);
        let sv = Arc::new(CrashVfs::new());
        let (acked, _) = run_replicated(pv, sv.clone());

        let (sb, report) = recover_repl(STANDBY_DIR, sv.image_synced());
        assert!(report.corrupt.is_empty(), "cut {cut}: standby corrupt: {:?}", report.corrupt);
        assert!(
            matches_model(&sb, &model(&acked)),
            "cut {cut}: standby diverged from the acked prefix {acked:?} ({} entries)",
            sb.len()
        );
    }
}

/// Standby-side cuts: the primary keeps acking regardless; the standby
/// recovers prefix-consistent per shard (every surviving entry is a
/// valid point in its user's history, nothing corrupt), and a
/// replacement standby mounted on the recovered image resyncs from the
/// live primary to byte-equal state.
#[test]
fn power_cut_on_standby_stays_prefix_consistent_and_resyncs() {
    let dry_p = Arc::new(CrashVfs::new());
    let dry_s = Arc::new(CrashVfs::new());
    run_replicated(dry_p, dry_s.clone());
    let total = dry_s.mutations();
    assert!(total > 10, "expected a rich injection surface, got {total}");

    // Any per-shard prefix leaves each user at some point of their own
    // op subsequence; these are the pass phrases that can open them.
    let allowed: BTreeMap<&str, Vec<&str>> = [
        ("alice", vec!["pass-alice"]),
        ("bob", vec!["pass-bob", "pass-bob-2"]),
        ("carol", vec!["pass-carol"]),
    ]
    .into_iter()
    .collect();

    let sorted = |mut v: Vec<StoredCredential>| {
        v.sort_by(|a, b| (&a.username, &a.name).cmp(&(&b.username, &b.name)));
        v
    };

    for cut in 0..total {
        let pv = Arc::new(CrashVfs::new());
        let sv = Arc::new(CrashVfs::new());
        sv.set_cut_after(cut);
        let (acked, pair) = run_replicated(pv, sv.clone());
        assert_eq!(acked.len(), OP_COUNT, "cut {cut}: standby loss must never block primary acks");
        let (primary, _standby) = pair.expect("primary side is healthy");

        // 1. Clean recovery; every surviving entry is openable at some
        //    point of its user's history.
        let (sb, report) = recover_repl(STANDBY_DIR, sv.image_synced());
        assert!(report.corrupt.is_empty(), "cut {cut}: standby corrupt: {:?}", report.corrupt);
        for e in sb.all_entries() {
            let passes = allowed
                .get(e.username.as_str())
                .unwrap_or_else(|| panic!("cut {cut}: unknown user {} on standby", e.username));
            assert!(
                passes.iter().any(|p| sb.open(&e.username, &e.name, p).is_ok()),
                "cut {cut}: standby entry for {} opens with no known pass phrase",
                e.username
            );
        }

        // 2. A replacement standby on the recovered image resyncs from
        //    the live primary with zero divergence.
        let standby2 = repl_server(b"crash repl standby 2");
        standby2
            .enable_durability_with(
                Path::new(STANDBY_DIR),
                Arc::new(CrashVfs::from_image(sv.image_synced())),
                wal_plain(),
            )
            .expect("replacement standby mounts the recovered image");
        standby2.configure_standby(&ReplConfig::default());
        let st2 = standby2.clone();
        let shipper2 = primary
            .shipper(Arc::new(move || Ok(Box::new(st2.connect_local()) as BoxedTransport)));
        shipper2.run_once().unwrap_or_else(|e| panic!("cut {cut}: resync pass failed: {e}"));
        assert_eq!(
            sorted(primary.store().all_entries()),
            sorted(standby2.store().all_entries()),
            "cut {cut}: resync must converge to the primary"
        );
    }
}

/// `purge_expired` journals exactly one `Purge` record into each shard
/// that actually holds an expired entry — never into clean shards, and
/// never one record per purged entry. (The replication stream ships
/// journal records verbatim, so over-journaling would multiply across
/// the wire too.)
#[test]
fn purge_journals_one_record_per_affected_shard_only() {
    const SHARDS: usize = 4;
    let name = mp_myproxy::store::DEFAULT_NAME;
    let vfs = Arc::new(CrashVfs::new());
    let store = CredStore::with_shards(PBKDF2_ITERS, SHARDS);
    store
        .attach_durable(Path::new(STORE_DIR), vfs.clone(), wal_plain(), &Registry::new())
        .unwrap();
    let wal = store.wal_handle().unwrap();

    // Probe usernames into shard slots: two *expired* entries in one
    // shard, one live entry in a different shard, the rest untouched.
    let shard_of = |u: &str| mp_myproxy::store::shard_index(u, SHARDS);
    let mut probe = (0..).map(|i| format!("purge-user-{i}"));
    let expired_a = probe.next().unwrap();
    let dirty_shard = shard_of(&expired_a);
    let expired_b = probe.by_ref().find(|u| shard_of(u) == dirty_shard).unwrap();
    let live = probe.by_ref().find(|u| shard_of(u) != dirty_shard).unwrap();
    let live_shard = shard_of(&live);

    for (user, not_after) in [(&expired_a, 100), (&expired_b, 150), (&live, 600_000)] {
        let mut e = stub_entry(user, name, 7);
        e.not_after = not_after;
        wal.commit(&store, WalRecord::Upsert(e)).unwrap();
    }

    assert_eq!(store.purge_expired(2_000).unwrap(), 2, "both expired entries purged");
    assert!(store.peek(&live, name).is_some());

    let image = vfs.image_synced();
    for shard in 0..SHARDS {
        let purges = shard_journal_records(&image, Path::new(STORE_DIR), shard)
            .into_iter()
            .filter(|r| matches!(r, WalRecord::Purge { .. }))
            .count();
        let expected = usize::from(shard == dirty_shard);
        assert_eq!(
            purges, expected,
            "shard {shard} (dirty={dirty_shard}, live={live_shard}): {purges} purge record(s)"
        );
    }
}
