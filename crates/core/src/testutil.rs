//! Small helpers for tests. Compiled into the library so sibling
//! crates' tests can reuse them, but hidden from the public API.

use crate::wal::{CrashVfs, WalConfig, WalRecord};
use crate::CredStore;
use mp_obs::Registry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Lost-update oracle shared by the WAL concurrency tests and the
/// workspace robustness suite: replay the *synced* crash image into a
/// fresh store mounted at `dir` and compare entry-for-entry with the
/// live one. Every committed mutation must be in the journal in an
/// order that reproduces exactly what memory says. Returns `None` when
/// the two states agree, or a human-readable description of the first
/// divergence.
pub fn replay_divergence(
    store: &CredStore,
    vfs: &CrashVfs,
    dir: &Path,
    pbkdf2_iters: u32,
) -> Option<String> {
    let replayed = CredStore::new(pbkdf2_iters);
    if let Err(e) = replayed.attach_durable(
        dir,
        Arc::new(CrashVfs::from_image(vfs.image_synced())),
        WalConfig { compact_every: 0, ..WalConfig::default() },
        &Registry::new(),
    ) {
        return Some(format!("replaying the synced journal image failed: {e}"));
    }
    let sort = |mut v: Vec<crate::StoredCredential>| {
        v.sort_by(|a, b| (&a.username, &a.name).cmp(&(&b.username, &b.name)));
        v
    };
    let live = sort(store.all_entries());
    let from_journal = sort(replayed.all_entries());
    if live == from_journal {
        return None;
    }
    if live.len() != from_journal.len() {
        return Some(format!(
            "journal replay diverges from live state: {} live entries vs {} replayed",
            live.len(),
            from_journal.len()
        ));
    }
    let first = live
        .iter()
        .zip(from_journal.iter())
        .find(|(a, b)| a != b)
        .map(|(a, _)| format!("{}/{}", a.username, a.name))
        .unwrap_or_default();
    Some(format!("journal replay diverges from live state at entry {first}"))
}

/// Decode shard `shard`'s journal out of a crash image taken from a
/// store mounted at `dir`: rotated segment (`journal-<i>.old`) first,
/// then the live segment, exactly as recovery replays them. Torn or
/// absent segments simply contribute the records before the tear —
/// tests that need to assert on a *specific* journal shape (e.g. "purge
/// wrote one record into this shard and none into that one") use this
/// instead of grubbing through raw bytes.
pub fn shard_journal_records(
    image: &BTreeMap<PathBuf, Vec<u8>>,
    dir: &Path,
    shard: usize,
) -> Vec<WalRecord> {
    let mut records = Vec::new();
    for name in [crate::wal::shard_rotated_name(shard), crate::wal::shard_journal_name(shard)] {
        if let Some(raw) = image.get(&dir.join(name)) {
            let (recs, _good, _torn) = crate::wal::parse_journal(raw);
            records.extend(recs);
        }
    }
    records
}

/// [`replay_divergence`], panicking on any divergence — the form the
/// concurrency tests use as an assertion.
pub fn assert_replay_matches_live(
    store: &CredStore,
    vfs: &CrashVfs,
    dir: &Path,
    pbkdf2_iters: u32,
) {
    if let Some(diff) = replay_divergence(store, vfs, dir, pbkdf2_iters) {
        panic!("{diff}");
    }
}

/// RAII scratch directory: created empty on `new`, recursively removed
/// on drop — so a failing assertion can no longer leak a directory the
/// way ad-hoc `remove_dir_all` teardowns at the end of a test did.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<tmp>/mp-<label>-<pid>`, clearing any leftover from a
    /// previous crashed run.
    pub fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("mp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path); // lint:allow(R6) best-effort pre-clean; the directory usually does not exist
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path); // lint:allow(R6) teardown runs on the unwind path too; there is no caller to report a failed cleanup to
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.path
    }
}
