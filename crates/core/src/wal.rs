//! Write-ahead journal and pluggable filesystem for the credential
//! store.
//!
//! The paper sells the repository as a *reliable* home for credentials
//! (§3, §5.1) that must also "serve heavy traffic from many portals"
//! (§3.3) — an acknowledged PUT must survive a power cut, and many
//! portals commit at once. The store therefore runs over a small
//! durable engine built for concurrency:
//!
//! * the store is sharded by user hash ([`crate::store::shard_index`]);
//!   shard `i` journals to its own `journal-<i>.wal`, so writers to
//!   different users never contend on one file or one lock;
//! * every mutating operation is appended to its shard's journal as a
//!   length-prefixed, CRC32-framed record and fsynced **before** the
//!   in-memory map changes (and so before any response is sent);
//! * concurrent committers to one shard ride a **group-commit
//!   barrier**: each stages its frame, one leader appends and fsyncs
//!   the whole batch with a single write + single fsync, then applies
//!   the records in journal order and wakes the followers. Every acked
//!   record is still on disk and fsynced before its ack — the batch
//!   just shares the fsync;
//! * every `compact_every` appends a shard's journal is folded into
//!   the one-file-per-credential snapshot of [`crate::persist`] — off
//!   the ack path: the journal is first *rotated* aside (rename to
//!   `journal-<i>.old`), so commits continue into a fresh journal
//!   while the fold writes the snapshot. A failed fold defers the next
//!   attempt (`fold_gate`) instead of retrying on every commit;
//! * startup is snapshot-load + journal-replay (rotated segment first,
//!   then the live journal, per shard). A torn tail — the signature of
//!   a crash mid-append — is truncated, not an error; a torn *batch*
//!   replays as a clean prefix of the batch. A layout change (legacy
//!   single `journal.wal`, or more journal files than shards) is
//!   migrated by folding everything into the snapshot.
//!
//! All file I/O goes through the object-safe [`Vfs`] trait so the
//! [`CrashVfs`] fault injector (the filesystem sibling of
//! `mp_gsi::net::FaultyTransport`) can cut power after any single
//! filesystem operation, drop unsynced bytes, skip fsyncs, or
//! duplicate renames; `crates/core/tests/crash_matrix.rs` sweeps every
//! injection point and asserts prefix-consistent recovery per shard.
//!
//! Replay is idempotent: full-entry upserts (a deposit is one of
//! these, owner and renewal copy included), removals, purges and the
//! one delta record ([`WalRecord::Reseal`], guarded by a digest of the
//! seal it replaces, so a replayed reseal can never double-apply)
//! reproduce the same state when replayed over a snapshot that already
//! folded them. That property is what makes the rotation crash-window
//! (snapshot written, rotated segment not yet deleted) safe, and it is
//! pinned by a proptest.

use crate::persist::CorruptEntry;
use crate::store::{shard_index, CredStore, EntryKey, StoredCredential};
use crate::MyProxyError;
use mp_gsi::lines::FramingError;
use mp_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Legacy (pre-sharding) journal file name inside the store directory.
/// Found only when a store written by an older version is opened; its
/// records are replayed and folded into the snapshot on first open.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Journal file name for one shard.
pub fn shard_journal_name(shard: usize) -> String {
    format!("journal-{shard}.wal")
}

/// Rotated-aside segment name for one shard (exists only while a fold
/// is in progress, or after a fold failed/crashed mid-way).
pub fn shard_rotated_name(shard: usize) -> String {
    format!("journal-{shard}.old")
}

/// `journal-<i>.wal` / `journal-<i>.old` → `(i, is_rotated)`.
fn shard_file_index(name: &str) -> Option<(usize, bool)> {
    let rest = name.strip_prefix("journal-")?;
    if let Some(idx) = rest.strip_suffix(".wal") {
        return idx.parse().ok().map(|i| (i, false));
    }
    if let Some(idx) = rest.strip_suffix(".old") {
        return idx.parse().ok().map(|i| (i, true));
    }
    None
}

/// Upper bound on one record's payload; anything larger in the framing
/// is treated as corruption (a credential entry is a few KB).
const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------------
// VFS
// ---------------------------------------------------------------------

/// Minimal filesystem surface the durable engine needs. Object-safe and
/// path-based so a fault injector can sit where `std::fs` would be.
pub trait Vfs: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create-or-truncate a file with `data` (no implicit fsync).
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Append `data` to a file, creating it if absent.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Truncate a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// fsync a file's contents.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory (makes renames/creates within it durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of a directory's entries.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Does the path exist?
    fn exists(&self, path: &Path) -> bool;
}

/// [`Vfs`] over the real filesystem.
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        // fsync through a fresh descriptor: fsync(2) flushes the file,
        // not the descriptor, so this covers writes made elsewhere.
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for dirent in std::fs::read_dir(dir)? {
            names.push(dirent?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------
// CrashVfs fault injector
// ---------------------------------------------------------------------

/// One in-memory file: everything written so far, and the bytes that
/// had been fsynced when the lights went out.
#[derive(Clone, Default)]
struct VFile {
    data: Vec<u8>,
    synced: Vec<u8>,
}

#[derive(Default)]
struct CrashState {
    files: BTreeMap<PathBuf, VFile>,
    dirs: BTreeSet<PathBuf>,
    /// Count of mutating operations performed so far.
    mutations: u64,
    /// Power-cut after this many mutating operations complete; the
    /// operation that would exceed the budget is interrupted mid-way.
    cut_after: Option<u64>,
    /// Set once the cut fires: every later operation fails.
    dead: bool,
    /// Lying disk: `sync_file` reports success without syncing.
    skip_fsyncs: bool,
    /// Buggy filesystem: `rename` copies to the target but leaves the
    /// source behind (exercises the stale-`.tmp` sweep).
    duplicate_renames: bool,
    /// Silently drop the bytes of any single write beyond this count
    /// while still reporting success (a disk that lies about extent).
    write_limit: Option<usize>,
}

/// Deterministic in-memory [`Vfs`] with fault injection, for the
/// crash-recovery matrix. The durability model:
///
/// * each file tracks `data` (all completed writes) and `synced` (its
///   content at the last `sync_file`);
/// * a power cut interrupts the current operation — an interrupted
///   write applies only a prefix (a torn record), interrupted
///   rename/remove/truncate/sync apply nothing — and every operation
///   after the cut fails;
/// * [`CrashVfs::image_torn`] is the optimistic post-crash disk (all
///   completed writes survived), [`CrashVfs::image_synced`] the
///   pessimistic one (only fsynced bytes survived). Renames and
///   removals are modeled as durable once performed; the `sync_dir`
///   calls are still exercised for the real-filesystem path.
///
/// Recovery must hold under **both** images at **every** cut point.
#[derive(Default)]
pub struct CrashVfs {
    state: Mutex<CrashState>,
}

fn power_failure() -> io::Error {
    io::Error::other("injected power failure")
}

impl CrashVfs {
    /// A healthy in-memory filesystem (no faults armed).
    pub fn new() -> Self {
        CrashVfs::default()
    }

    /// Rebuild a filesystem from a crash image, as if the machine
    /// rebooted: what was durable is now both written and synced.
    pub fn from_image(image: BTreeMap<PathBuf, Vec<u8>>) -> Self {
        let mut st = CrashState::default();
        for (path, bytes) in image {
            let mut dir = path.parent();
            while let Some(d) = dir {
                st.dirs.insert(d.to_path_buf());
                dir = d.parent();
            }
            st.files.insert(path, VFile { data: bytes.clone(), synced: bytes });
        }
        CrashVfs { state: Mutex::new(st) }
    }

    /// Arm a power cut after `n` mutating operations (the `n+1`-th is
    /// interrupted mid-way; `n = 0` interrupts the very first).
    pub fn set_cut_after(&self, n: u64) {
        self.state.lock().cut_after = Some(n);
    }

    /// Make `sync_file` lie (report success, sync nothing).
    pub fn set_skip_fsyncs(&self, on: bool) {
        self.state.lock().skip_fsyncs = on;
    }

    /// Make `rename` leave the source file behind.
    pub fn set_duplicate_renames(&self, on: bool) {
        self.state.lock().duplicate_renames = on;
    }

    /// Silently drop bytes of any single write beyond `n`.
    pub fn set_write_limit(&self, n: usize) {
        self.state.lock().write_limit = Some(n);
    }

    /// Mutating operations performed so far (sweep drivers read this
    /// off a dry run to enumerate the injection points).
    pub fn mutations(&self) -> u64 {
        self.state.lock().mutations
    }

    /// Optimistic crash image: every completed write survived, fsynced
    /// or not, including the torn prefix of an interrupted write.
    pub fn image_torn(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let st = self.state.lock();
        st.files.iter().map(|(p, f)| (p.clone(), f.data.clone())).collect()
    }

    /// Pessimistic crash image: only bytes fsynced by `sync_file`
    /// survived.
    pub fn image_synced(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let st = self.state.lock();
        st.files.iter().map(|(p, f)| (p.clone(), f.synced.clone())).collect()
    }

    /// Account one mutating op; `Ok(true)` means this op is the one
    /// being interrupted by the power cut.
    fn begin_mutation(st: &mut CrashState) -> io::Result<bool> {
        if st.dead {
            return Err(power_failure());
        }
        st.mutations += 1;
        if let Some(cut) = st.cut_after {
            if st.mutations > cut {
                st.dead = true;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Vfs for CrashVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        if st.dead {
            return Err(power_failure());
        }
        match st.files.get(path) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        let limit = st.write_limit.unwrap_or(usize::MAX);
        let keep = if torn { data.len() / 2 } else { data.len() }.min(limit);
        let kept = data.get(..keep).unwrap_or(data).to_vec();
        let f = st.files.entry(path.to_path_buf()).or_default();
        f.data = kept;
        if torn {
            return Err(power_failure());
        }
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        let limit = st.write_limit.unwrap_or(usize::MAX);
        let keep = if torn { data.len() / 2 } else { data.len() }.min(limit);
        let kept = data.get(..keep).unwrap_or(data);
        let f = st.files.entry(path.to_path_buf()).or_default();
        f.data.extend_from_slice(kept);
        if torn {
            return Err(power_failure());
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        match st.files.get_mut(path) {
            Some(f) => {
                f.data.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        if st.skip_fsyncs {
            return Ok(());
        }
        match st.files.get_mut(path) {
            Some(f) => {
                f.synced = f.data.clone();
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        let duplicate = st.duplicate_renames;
        let f = match if duplicate { st.files.get(from).cloned() } else { st.files.remove(from) } {
            Some(f) => f,
            None => return Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        };
        st.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        match st.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let torn = Self::begin_mutation(&mut st)?;
        if torn {
            return Err(power_failure());
        }
        let mut cur = Some(dir);
        while let Some(d) = cur {
            st.dirs.insert(d.to_path_buf());
            cur = d.parent();
        }
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.state.lock();
        if st.dead {
            return Err(power_failure());
        }
        let mut names: Vec<String> = st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.state.lock();
        st.files.contains_key(path) || st.dirs.contains(path)
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// One durable mutation.
///
/// `Upsert` carries the full sealed entry; the delta record `Reseal`
/// mutates one entry *at apply time*, under the shard lock — that is
/// the lost-update fix: a mutator never clones an entry outside the
/// lock and commits the stale clone as a full upsert, it commits the
/// delta and the delta is applied atomically against whatever the
/// entry is by then.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Insert-or-replace one entry.
    Upsert(StoredCredential),
    /// Remove one entry (destroy).
    Remove {
        /// Repository account name.
        username: String,
        /// Wallet name.
        name: String,
    },
    /// Replace the pass-phrase seal of one entry, guarded by a digest
    /// of the seal it replaces: applies only if the entry's current
    /// seal hashes to `expect`. The guard makes replay deterministic
    /// and turns a concurrent overwrite into a clean no-op the live
    /// caller can detect (compare-and-swap, not last-writer-wins).
    Reseal {
        /// Repository account name.
        username: String,
        /// Wallet name.
        name: String,
        /// SHA-256 of the sealed blob being replaced.
        expect: Vec<u8>,
        /// The new sealed blob.
        sealed: Vec<u8>,
    },
    /// Drop expired entries (`not_after <= now`). Scoped: with
    /// `of > 0` only keys whose user hashes to `shard` modulo `of` are
    /// purged — so each shard journals its own purge and replay order
    /// across journal files cannot matter. `of == 0` is the legacy
    /// global form (store-wide sweep), decoded from old journals.
    Purge {
        /// The sweep's reference clock.
        now: u64,
        /// Scope: purge keys with `shard_index(user, of) == shard`.
        shard: u32,
        /// Scope modulus (0 = global legacy sweep).
        of: u32,
    },
}

const TAG_UPSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_PURGE: u8 = 3;
// 4 and 5 were the owner / renewable deltas a PUT used to commit after
// its upsert; they stay unassigned, and a journal that still holds one
// must be folded by the build that wrote it (docs/OPERATIONS.md).
const TAG_RESEAL: u8 = 6;

/// IEEE CRC-32 (the zlib polynomial), bitwise — journal records are a
/// few KB, table-free is plenty.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_bytes(out, s.as_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let head = buf.get(..n)?;
    *buf = buf.get(n..)?;
    Some(head)
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let bytes: [u8; 4] = take(buf, 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

pub(crate) fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = take(buf, 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn take_str(buf: &mut &[u8]) -> Option<String> {
    String::from_utf8(take_bytes(buf)?).ok()
}

fn take_bytes(buf: &mut &[u8]) -> Option<Vec<u8>> {
    let len = take_u32(buf)? as usize;
    Some(take(buf, len)?.to_vec())
}

/// The journal payload for `rec`. Strings that the next fold will
/// write as store-file lines (a whole entry, its owner and renewer
/// pattern included) must satisfy the line framing *here*, before the
/// record is
/// durable: refused now, a newline costs one request; accepted, it
/// would wedge every later fold and snapshot of the shard.
pub(crate) fn encode_payload(rec: &WalRecord) -> Result<Vec<u8>, FramingError> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Upsert(e) => {
            out.push(TAG_UPSERT);
            out.extend_from_slice(crate::persist::entry_to_text(e)?.as_bytes());
        }
        WalRecord::Remove { username, name } => {
            out.push(TAG_REMOVE);
            push_str(&mut out, username);
            push_str(&mut out, name);
        }
        WalRecord::Reseal { username, name, expect, sealed } => {
            out.push(TAG_RESEAL);
            push_str(&mut out, username);
            push_str(&mut out, name);
            push_bytes(&mut out, expect);
            push_bytes(&mut out, sealed);
        }
        WalRecord::Purge { now, shard, of } => {
            out.push(TAG_PURGE);
            out.extend_from_slice(&now.to_le_bytes());
            if *of > 0 {
                // Legacy journals end after `now`; the scoped form
                // appends its shard coordinates.
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&of.to_le_bytes());
            }
        }
    }
    Ok(out)
}

pub(crate) fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, mut rest) = payload.split_first()?;
    let rest = &mut rest;
    let rec = match tag {
        TAG_UPSERT => {
            let text = std::str::from_utf8(std::mem::take(rest)).ok()?;
            WalRecord::Upsert(crate::persist::entry_from_text(text).ok()?)
        }
        TAG_REMOVE => WalRecord::Remove { username: take_str(rest)?, name: take_str(rest)? },
        TAG_RESEAL => WalRecord::Reseal {
            username: take_str(rest)?,
            name: take_str(rest)?,
            expect: take_bytes(rest)?,
            sealed: take_bytes(rest)?,
        },
        TAG_PURGE => {
            let now = take_u64(rest)?;
            // Legacy global purges end here; the scoped form appends
            // its shard coordinates, with a non-zero modulus.
            let scoped = !rest.is_empty();
            let (shard, of) = if scoped { (take_u32(rest)?, take_u32(rest)?) } else { (0, 0) };
            if scoped && of == 0 {
                return None;
            }
            WalRecord::Purge { now, shard, of }
        }
        _ => return None,
    };
    rest.is_empty().then_some(rec)
}

/// `[u32 payload-len][u32 crc32(payload)][payload]`, all little-endian.
pub(crate) fn encode_frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_RECORD_LEN {
        return Err(io::Error::other("journal record too large"));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Read a whole file through the `Vfs` — the persistence substrate's
/// file read, shared with sibling modules (the replication epoch
/// store) so a durable-state read is never mistaken for socket
/// traffic by code that reasons about callers' I/O.
pub(crate) fn read_file(vfs: &dyn Vfs, path: &Path) -> io::Result<Vec<u8>> {
    vfs.read(path)
}

/// Parse a journal byte-for-byte. Returns the decodable records, the
/// byte length of that clean prefix, and whether a torn/corrupt tail
/// followed it (truncated by the caller, never replayed).
pub(crate) fn parse_journal(raw: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut good = 0usize;
    let mut cur: &[u8] = raw;
    loop {
        if cur.is_empty() {
            return (records, good, false);
        }
        let mut probe = cur;
        let header = (take_u32(&mut probe), take_u32(&mut probe));
        let (Some(len), Some(crc)) = header else {
            return (records, good, true);
        };
        let len = len as usize;
        if len > MAX_RECORD_LEN {
            return (records, good, true);
        }
        let Some(payload) = take(&mut probe, len) else {
            return (records, good, true);
        };
        if crc32(payload) != crc {
            return (records, good, true);
        }
        let Some(rec) = decode_payload(payload) else {
            return (records, good, true);
        };
        records.push(rec);
        good += 8 + len;
        cur = probe;
    }
}

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// `store.wal.*` metrics (interned into the owning server's registry,
/// so they ride the INFO metrics snapshot and `/metrics` scrapes).
#[derive(Clone)]
pub struct WalMetrics {
    /// Records appended.
    pub appends: Counter,
    /// fsyncs issued on journal files by the commit path.
    pub fsyncs: Counter,
    /// Group-commit barrier flushes (one shared fsync each).
    pub group_fsyncs: Counter,
    /// Records per group-commit batch.
    pub batch_size: Histogram,
    /// Time a committer spends staged at the barrier (µs), including
    /// its own turn as leader.
    pub commit_stall: Histogram,
    /// Records replayed at startup.
    pub replayed: Counter,
    /// Torn/corrupt journal tails truncated at startup.
    pub truncated_tail: Counter,
    /// Snapshot compactions folded and truncated.
    pub compactions: Counter,
    /// Compaction attempts that failed (the journal keeps the data
    /// safe; the next attempt is deferred by `fold_gate`).
    pub compact_failures: Counter,
}

impl WalMetrics {
    /// Intern the metrics into `obs`.
    pub fn registered(obs: &Registry) -> Self {
        WalMetrics {
            appends: obs.counter("store.wal.appends"),
            fsyncs: obs.counter("store.wal.fsyncs"),
            group_fsyncs: obs.counter("store.wal.group_fsyncs"),
            batch_size: obs.histogram("store.wal.batch_size"),
            commit_stall: obs.histogram("store.wal.commit_stall"),
            replayed: obs.counter("store.wal.replayed"),
            truncated_tail: obs.counter("store.wal.truncated_tail"),
            compactions: obs.counter("store.wal.compactions"),
            compact_failures: obs.counter("store.wal.compact_failures"),
        }
    }
}

/// Journal tuning.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Fold a shard's journal into the snapshot every this many appends
    /// to that shard (0 = never compact automatically).
    pub compact_every: u64,
    /// Batch concurrent commits to one shard into a single
    /// append+fsync (the group-commit barrier). Off = one fsync per
    /// record, the pre-batching behavior.
    pub group_commit: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { compact_every: 1024, group_commit: true }
    }
}

/// What startup recovery found.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Journal records replayed over the snapshot.
    pub records: u64,
    /// Whether a torn tail was truncated.
    pub truncated: bool,
}

/// Combined result of [`CredStore::attach_durable`].
#[derive(Debug, Default)]
pub struct DurabilityReport {
    /// Entries loaded from the snapshot (before replay).
    pub loaded: usize,
    /// Journal records replayed.
    pub replayed: u64,
    /// Whether a torn journal tail was truncated.
    pub truncated_tail: bool,
    /// Snapshot files that failed to parse (skipped, counted under
    /// `store.load.corrupt`).
    pub corrupt: Vec<CorruptEntry>,
}

/// One committer's seat at the group-commit barrier: filled by the
/// batch leader under the group lock, read back by the committer.
#[derive(Default)]
struct CommitSlot {
    done: Mutex<Option<Result<usize, String>>>,
}

/// A staged record waiting for a leader to flush it.
struct Staged {
    rec: WalRecord,
    frame: Vec<u8>,
    slot: Arc<CommitSlot>,
}

/// Barrier + compaction state of one shard, guarded by `WalShard::group`.
#[derive(Default)]
struct GroupState {
    /// Frames staged since the last batch was taken.
    queue: Vec<Staged>,
    /// A leader is currently flushing a batch.
    leader_active: bool,
    /// A fold of this shard is in progress (or queued on a leader).
    folding: bool,
    /// Appends since the last successful fold.
    appends_since_fold: u64,
    /// After a failed fold: don't retry until `appends_since_fold`
    /// reaches this (backoff — a broken disk must not turn every
    /// commit into a full snapshot attempt).
    fold_gate: u64,
    /// Keys removed since the last fold. The snapshot file name is a
    /// hash ([`crate::persist::entry_filename`]) — not invertible — so
    /// the fold deletes exactly these instead of sweeping the
    /// directory (which would need every shard's entries).
    tombstones: HashSet<EntryKey>,
}

/// One shard of the journal.
///
/// Lock order (outer to inner): `io` → `group` → a slot's `done` /
/// the store's shard map. The leader holds `io` across append + fsync
/// + apply so a concurrent fold can never rotate a journal whose tail
/// has not been applied to memory yet.
struct WalShard {
    journal: PathBuf,
    rotated: PathBuf,
    /// Serializes file I/O on this shard's journal (append/fsync by
    /// the leader, rotation by the fold).
    io: Mutex<()>,
    group: Mutex<GroupState>,
    /// Wakes barrier followers (batch flushed) and fold waiters.
    wake: Condvar,
}

/// Observer of durably committed records, called *after* the journal
/// fsync for a record (or its group batch) has succeeded — never
/// before. This is the replication ship hook: frames enter the
/// [`crate::repl::ReplLog`] ring only once they are locally durable,
/// so a standby can never see a record the primary has not acked
/// (acked-then-shipped ordering). Invoked under the shard's io lock,
/// so ring order equals journal order; implementations must not block
/// on channel or disk I/O.
pub trait CommitSink: Send + Sync {
    /// `frames` are the encoded journal frames of one fsynced batch,
    /// in journal order, all belonging to `shard`.
    fn committed(&self, shard: usize, frames: &[&[u8]]);
}

/// The write-ahead journal a [`CredStore`] commits through. One
/// [`WalShard`] per store shard; a record commits to the shard its
/// username hashes to.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    cfg: WalConfig,
    metrics: WalMetrics,
    shards: Vec<WalShard>,
    /// Post-fsync observer (replication ship hook); None until a
    /// replication log is attached.
    sink: Mutex<Option<Arc<dyn CommitSink>>>,
}

fn wal_error(e: io::Error) -> MyProxyError {
    MyProxyError::Gsi(mp_gsi::GsiError::Io(e))
}

/// Replay one journal file into `store`, truncating a torn tail and
/// collecting removal tombstones per shard. Returns the record count.
fn replay_file(
    vfs: &dyn Vfs,
    path: &Path,
    store: &CredStore,
    metrics: &WalMetrics,
    report: &mut ReplayReport,
    tombstones: &mut [HashSet<EntryKey>],
) -> io::Result<u64> {
    if !vfs.exists(path) {
        return Ok(0);
    }
    let raw = vfs.read(path)?;
    let (records, good_len, torn) = parse_journal(&raw);
    if torn {
        // A partial final record is the expected shape of a crash
        // mid-append: drop the tail, keep the prefix. A torn group
        // batch truncates the same way — its clean prefix replays.
        vfs.truncate(path, good_len as u64)?;
        vfs.sync_file(path)?;
        metrics.truncated_tail.inc();
        report.truncated = true;
    }
    let n = tombstones.len();
    for rec in &records {
        let outcome = store.apply(rec);
        for key in outcome.removed {
            if let Some(set) = tombstones.get_mut(shard_index(&key.0, n)) {
                set.insert(key);
            }
        }
    }
    Ok(records.len() as u64)
}

impl Wal {
    /// Open (and replay) the journals under `dir` into `store`. The
    /// caller loads the snapshot first; replay applies the journals'
    /// younger records over it — rotated segment before live journal,
    /// per shard. A legacy single `journal.wal`, or journal files for
    /// more shards than the store has, are folded into the snapshot
    /// and removed (layout migration; safe because replaying a journal
    /// over its own fold is idempotent).
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        cfg: WalConfig,
        obs: &Registry,
        store: &CredStore,
    ) -> io::Result<(Arc<Wal>, ReplayReport)> {
        let metrics = WalMetrics::registered(obs);
        let n = store.shard_count();
        let mut report = ReplayReport::default();
        let mut per_shard = vec![0u64; n];
        let mut tombstones: Vec<HashSet<EntryKey>> = vec![HashSet::new(); n];

        let legacy_path = dir.join(JOURNAL_FILE);
        let legacy = vfs.exists(&legacy_path);
        // idx -> (has live journal, has rotated segment)
        let mut indices: BTreeMap<usize, (bool, bool)> = BTreeMap::new();
        for name in vfs.list_dir(dir)? {
            if let Some((i, rotated)) = shard_file_index(&name) {
                let entry = indices.entry(i).or_insert((false, false));
                if rotated {
                    entry.1 = true;
                } else {
                    entry.0 = true;
                }
            }
        }

        let mut total = 0u64;
        if legacy {
            total +=
                replay_file(vfs.as_ref(), &legacy_path, store, &metrics, &mut report, &mut tombstones)?;
        }
        let mut migrate = legacy;
        let mut dir_dirty = false;
        for (&i, &(has_wal, has_old)) in &indices {
            let wal_path = dir.join(shard_journal_name(i));
            let old_path = dir.join(shard_rotated_name(i));
            let mut count = 0u64;
            if has_old {
                count +=
                    replay_file(vfs.as_ref(), &old_path, store, &metrics, &mut report, &mut tombstones)?;
            }
            if has_wal {
                count +=
                    replay_file(vfs.as_ref(), &wal_path, store, &metrics, &mut report, &mut tombstones)?;
            }
            total += count;
            if i >= n {
                // More journal files than shards: the store was
                // re-sharded. Fold everything below.
                migrate = true;
                continue;
            }
            if let Some(slot) = per_shard.get_mut(i) {
                *slot = count;
            }
            if has_old {
                // A fold crashed (or failed) between rotation and
                // cleanup. Re-join the segments into one clean journal
                // — replay above already applied both in order, and
                // replaying the joined file later is idempotent even
                // if we crash between the write and the remove.
                let mut bytes = vfs.read(&old_path)?;
                if has_wal {
                    bytes.extend_from_slice(&vfs.read(&wal_path)?);
                }
                vfs.write_file(&wal_path, &bytes)?;
                vfs.sync_file(&wal_path)?;
                vfs.remove_file(&old_path)?;
                dir_dirty = true;
            }
        }
        report.records = total;
        metrics.replayed.add(total);

        if migrate {
            store.save_snapshot(dir, vfs.as_ref())?;
            for i in 0..n {
                let p = dir.join(shard_journal_name(i));
                if vfs.exists(&p) {
                    vfs.truncate(&p, 0)?;
                    vfs.sync_file(&p)?;
                }
            }
            if legacy {
                vfs.remove_file(&legacy_path)?;
                dir_dirty = true;
            }
            for (&i, &(has_wal, has_old)) in &indices {
                if i < n {
                    continue;
                }
                if has_wal {
                    vfs.remove_file(&dir.join(shard_journal_name(i)))?;
                }
                if has_old {
                    vfs.remove_file(&dir.join(shard_rotated_name(i)))?;
                }
                dir_dirty = true;
            }
            metrics.compactions.inc();
            per_shard = vec![0; n];
            tombstones = vec![HashSet::new(); n];
        }
        if dir_dirty {
            vfs.sync_dir(dir)?;
        }

        let shards = per_shard
            .into_iter()
            .zip(tombstones)
            .enumerate()
            .map(|(i, (appends, tombs))| WalShard {
                journal: dir.join(shard_journal_name(i)),
                rotated: dir.join(shard_rotated_name(i)),
                io: Mutex::new(()),
                group: Mutex::new(GroupState {
                    appends_since_fold: appends,
                    tombstones: tombs,
                    ..GroupState::default()
                }),
                wake: Condvar::new(),
            })
            .collect();
        let wal =
            Wal { vfs, dir: dir.to_path_buf(), cfg, metrics, shards, sink: Mutex::new(None) };
        Ok((Arc::new(wal), report))
    }

    /// Attach (or replace) the post-fsync commit observer. Frames
    /// committed from now on are offered to `sink` right after their
    /// fsync succeeds, under the shard io lock.
    pub fn set_commit_sink(&self, sink: Arc<dyn CommitSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// Offer one fsynced batch to the attached sink, if any.
    fn ship(&self, shard: usize, frames: &[&[u8]]) {
        let sink = self.sink.lock().clone();
        if let Some(sink) = sink {
            sink.committed(shard, frames);
        }
    }

    /// Which shard a record commits to.
    fn record_shard(&self, rec: &WalRecord) -> usize {
        let n = self.shards.len();
        match rec {
            WalRecord::Upsert(e) => shard_index(&e.username, n),
            WalRecord::Remove { username, .. } | WalRecord::Reseal { username, .. } => {
                shard_index(username, n)
            }
            WalRecord::Purge { shard, of, .. } => {
                if *of == 0 {
                    0
                } else {
                    (*shard as usize) % n.max(1)
                }
            }
        }
    }

    /// Durably log `rec`, then apply it to `store`. The record is on
    /// disk (appended **and** fsynced) before the in-memory state —
    /// and therefore before any acknowledgment — changes. Under
    /// concurrency the fsync may be shared with other records of the
    /// same batch; it still strictly precedes this record's return.
    /// Returns how many entries the apply touched.
    pub fn commit(&self, store: &CredStore, rec: WalRecord) -> crate::Result<usize> {
        let si = self.record_shard(&rec);
        let mut out = self.commit_batch(store, si, vec![rec])?;
        Ok(out.pop().unwrap_or(0))
    }

    /// Commit several records at once. Records are grouped by shard;
    /// each shard's sub-batch is staged as one unit, so it lands in
    /// the journal contiguously (and replays as an atomic prefix if
    /// the batch append is torn by a crash). Returns the touched-count
    /// per record, in input order. On error, records of earlier shards
    /// may already be durable — callers treat this like any partially
    /// acked sequence.
    pub fn commit_many(&self, store: &CredStore, recs: Vec<WalRecord>) -> crate::Result<Vec<usize>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, rec) in recs.iter().enumerate() {
            if let Some(bucket) = by_shard.get_mut(self.record_shard(rec)) {
                bucket.push(pos);
            }
        }
        let mut results = vec![0usize; recs.len()];
        let mut staged: Vec<Option<WalRecord>> = recs.into_iter().map(Some).collect();
        for (si, positions) in by_shard.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let mut batch = Vec::with_capacity(positions.len());
            for &p in positions {
                if let Some(rec) = staged.get_mut(p).and_then(Option::take) {
                    batch.push(rec);
                }
            }
            let outs = self.commit_batch(store, si, batch)?;
            for (&p, touched) in positions.iter().zip(outs) {
                if let Some(slot) = results.get_mut(p) {
                    *slot = touched;
                }
            }
        }
        Ok(results)
    }

    fn commit_batch(
        &self,
        store: &CredStore,
        si: usize,
        recs: Vec<WalRecord>,
    ) -> crate::Result<Vec<usize>> {
        if recs.is_empty() {
            return Ok(Vec::new());
        }
        let mut frames = Vec::with_capacity(recs.len());
        for rec in &recs {
            frames.push(encode_frame(&encode_payload(rec)?).map_err(wal_error)?);
        }
        if self.cfg.group_commit {
            self.commit_grouped(store, si, recs, frames)
        } else {
            self.commit_serial(store, si, recs, frames)
        }
    }

    /// Pre-batching behavior: one append + one fsync per record, all
    /// under the shard's io lock.
    fn commit_serial(
        &self,
        store: &CredStore,
        si: usize,
        recs: Vec<WalRecord>,
        frames: Vec<Vec<u8>>,
    ) -> crate::Result<Vec<usize>> {
        let Some(shard) = self.shards.get(si) else {
            return Err(wal_error(io::Error::other("shard out of range")));
        };
        let io = shard.io.lock();
        let mut touched = Vec::with_capacity(recs.len());
        let mut fold_due = false;
        for (rec, frame) in recs.iter().zip(&frames) {
            self.vfs.append(&shard.journal, frame).map_err(wal_error)?;
            self.metrics.appends.inc();
            self.vfs.sync_file(&shard.journal).map_err(wal_error)?;
            self.metrics.fsyncs.inc();
            // Durable (fsynced) — only now may the frame be shipped.
            self.ship(si, &[frame.as_slice()]);
            let outcome = store.apply(rec);
            let mut g = shard.group.lock();
            for key in outcome.removed {
                g.tombstones.insert(key);
            }
            g.appends_since_fold += 1;
            if self.fold_due(&g) {
                g.folding = true;
                fold_due = true;
            }
            drop(g);
            touched.push(outcome.touched);
        }
        drop(io);
        if fold_due {
            self.fold_shard_guarded(store, si);
        }
        Ok(touched)
    }

    /// Group commit: stage the frames at the shard barrier; whoever
    /// finds no active leader becomes one and flushes the whole queue
    /// with a single append + fsync; everyone else waits for their
    /// slot to be filled.
    fn commit_grouped(
        &self,
        store: &CredStore,
        si: usize,
        recs: Vec<WalRecord>,
        frames: Vec<Vec<u8>>,
    ) -> crate::Result<Vec<usize>> {
        let Some(shard) = self.shards.get(si) else {
            return Err(wal_error(io::Error::other("shard out of range")));
        };
        let start = Instant::now();
        let slots: Vec<Arc<CommitSlot>> =
            (0..recs.len()).map(|_| Arc::new(CommitSlot::default())).collect();
        let mut g = shard.group.lock();
        for ((rec, frame), slot) in recs.into_iter().zip(frames).zip(&slots) {
            g.queue.push(Staged { rec, frame, slot: Arc::clone(slot) });
        }
        // All our records entered the queue under one lock hold, so
        // one batch takes them together: the last slot filled means
        // all of ours are.
        loop {
            let done = match slots.last() {
                Some(slot) => slot.done.lock().is_some(),
                None => true,
            };
            if done {
                break;
            }
            if g.leader_active {
                shard.wake.wait(&mut g);
            } else {
                g.leader_active = true;
                drop(g);
                self.flush_group(store, si);
                g = shard.group.lock();
            }
        }
        drop(g);
        self.metrics.commit_stall.record_since(start);
        let mut out = Vec::with_capacity(slots.len());
        for slot in &slots {
            match slot.done.lock().take() {
                Some(Ok(touched)) => out.push(touched),
                Some(Err(msg)) => return Err(wal_error(io::Error::other(msg))),
                None => return Err(wal_error(io::Error::other("commit slot left unfilled"))),
            }
        }
        Ok(out)
    }

    /// Leader duty: take the staged queue, append + fsync it as one
    /// batch, apply in journal order, fill the slots, hand off. The io
    /// lock is held across fsync *and* apply so the fold cannot rotate
    /// journal bytes whose records are not yet in memory.
    fn flush_group(&self, store: &CredStore, si: usize) {
        let Some(shard) = self.shards.get(si) else {
            return;
        };
        let io = shard.io.lock();
        let mut g = shard.group.lock();
        let batch = std::mem::take(&mut g.queue);
        drop(g);
        let mut fold_due = false;
        if batch.is_empty() {
            let mut g = shard.group.lock();
            g.leader_active = false;
            shard.wake.notify_all();
            drop(g);
            drop(io);
            return;
        }
        let mut buf = Vec::new();
        for staged in &batch {
            buf.extend_from_slice(&staged.frame);
        }
        let flushed = self
            .vfs
            .append(&shard.journal, &buf)
            .and_then(|()| self.vfs.sync_file(&shard.journal));
        let mut g = shard.group.lock();
        match flushed {
            Ok(()) => {
                self.metrics.appends.add(batch.len() as u64);
                self.metrics.fsyncs.inc();
                self.metrics.group_fsyncs.inc();
                self.metrics.batch_size.record(batch.len() as u64);
                // The whole batch is fsynced — ship it before any
                // follower is woken, still under the io lock, so ring
                // order equals journal order.
                let shipped: Vec<&[u8]> =
                    batch.iter().map(|staged| staged.frame.as_slice()).collect();
                self.ship(si, &shipped);
                for staged in &batch {
                    let outcome = store.apply(&staged.rec);
                    for key in outcome.removed {
                        g.tombstones.insert(key);
                    }
                    *staged.slot.done.lock() = Some(Ok(outcome.touched));
                }
                g.appends_since_fold += batch.len() as u64;
                if self.fold_due(&g) {
                    g.folding = true;
                    fold_due = true;
                }
            }
            Err(e) => {
                // Nothing was acked and nothing was applied: the batch
                // fails as a unit (its journal bytes, if any landed,
                // replay idempotently or truncate as a torn tail).
                let msg = e.to_string();
                for staged in &batch {
                    *staged.slot.done.lock() = Some(Err(msg.clone()));
                }
            }
        }
        g.leader_active = false;
        shard.wake.notify_all();
        drop(g);
        drop(io);
        if fold_due {
            self.fold_shard_guarded(store, si);
        }
    }

    /// Auto-compaction trigger, callers hold the group lock. The gate
    /// defers retries after a failure.
    fn fold_due(&self, g: &GroupState) -> bool {
        self.cfg.compact_every > 0
            && !g.folding
            && g.appends_since_fold >= self.cfg.compact_every.max(g.fold_gate)
    }

    /// Fold every shard's journal into the snapshot now.
    pub fn compact(&self, store: &CredStore) -> io::Result<()> {
        let mut first_err: Option<io::Error> = None;
        for si in 0..self.shards.len() {
            if let Some(shard) = self.shards.get(si) {
                let mut g = shard.group.lock();
                while g.folding {
                    shard.wake.wait(&mut g);
                }
                g.folding = true;
                drop(g);
                if let Err(e) = self.finish_fold(store, si) {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// This journal's metrics.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// A failed fold is not a failed commit: the records are already
    /// durable in the journal (or its rotated segment). The failure is
    /// counted and the next attempt deferred inside `finish_fold`.
    fn fold_shard_guarded(&self, store: &CredStore, si: usize) {
        if self.finish_fold(store, si).is_err() {
            // Counted under store.wal.compact_failures; fold_gate set.
        }
    }

    /// Run one shard fold (caller set `folding`), then publish the
    /// outcome: on success reset the counters and drop exactly the
    /// tombstones that were folded; on failure count it and push the
    /// next attempt out by `compact_every` more appends.
    fn finish_fold(&self, store: &CredStore, si: usize) -> io::Result<()> {
        let res = self.fold_shard(store, si);
        let Some(shard) = self.shards.get(si) else {
            return res.map(|_| ());
        };
        let mut g = shard.group.lock();
        g.folding = false;
        match &res {
            Ok(folded) => {
                g.appends_since_fold = 0;
                g.fold_gate = 0;
                for key in folded {
                    g.tombstones.remove(key);
                }
            }
            Err(_) => {
                self.metrics.compact_failures.inc();
                g.fold_gate =
                    g.appends_since_fold.saturating_add(self.cfg.compact_every.max(1));
            }
        }
        shard.wake.notify_all();
        drop(g);
        res.map(|_| ())
    }

    /// The fold itself, off the commit path. Rotation (under the io
    /// lock, brief) moves the journal aside so commits continue into a
    /// fresh file; then — with no commit lock held — tombstoned files
    /// are deleted, the shard's entries are snapshotted
    /// (tmp → fsync → rename each), the directory is fsynced, and only
    /// then is the rotated segment dropped (and the drop fsynced). A
    /// crash anywhere leaves either the rotated segment or the live
    /// journal (or both) replayable over the snapshot — idempotently.
    /// Returns the tombstones this fold made durable.
    fn fold_shard(&self, store: &CredStore, si: usize) -> io::Result<Vec<EntryKey>> {
        let Some(shard) = self.shards.get(si) else {
            return Ok(Vec::new());
        };
        {
            let io = shard.io.lock();
            if self.vfs.exists(&shard.rotated) {
                // A previous fold failed after rotating: absorb the
                // live journal into the rotated segment so this fold
                // covers both. Replaying duplicates is idempotent, so
                // the crash windows in between stay safe.
                if self.vfs.exists(&shard.journal) {
                    let bytes = self.vfs.read(&shard.journal)?;
                    if !bytes.is_empty() {
                        self.vfs.append(&shard.rotated, &bytes)?;
                        self.vfs.sync_file(&shard.rotated)?;
                        self.vfs.truncate(&shard.journal, 0)?;
                        self.vfs.sync_file(&shard.journal)?;
                    }
                }
            } else if self.vfs.exists(&shard.journal) {
                self.vfs.rename(&shard.journal, &shard.rotated)?;
            }
            drop(io);
        }
        let tombs: Vec<EntryKey> = shard.group.lock().tombstones.iter().cloned().collect();
        for (username, name) in &tombs {
            let path = self.dir.join(crate::persist::entry_filename(username, name));
            match self.vfs.remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        store.save_shard_snapshot(&self.dir, self.vfs.as_ref(), si)?;
        // Snapshot renames + tombstone removals durable *before* the
        // rotated segment (the only other copy of those records) goes.
        self.vfs.sync_dir(&self.dir)?;
        match self.vfs.remove_file(&shard.rotated) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.vfs.sync_dir(&self.dir)?;
        self.metrics.compactions.inc();
        Ok(tombs)
    }
}

impl CredStore {
    /// Make this store durable under `dir`: load the snapshot, replay
    /// the journals (truncating torn tails), and attach the journal so
    /// every later mutation is logged with fsync-on-commit before it
    /// is applied. `store.wal.*` and `store.load.corrupt` intern into
    /// `obs`.
    pub fn attach_durable(
        &self,
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        cfg: WalConfig,
        obs: &Registry,
    ) -> io::Result<DurabilityReport> {
        vfs.create_dir_all(dir)?;
        let corrupt = self.load_snapshot(dir, vfs.as_ref())?;
        obs.counter("store.load.corrupt").add(corrupt.len() as u64);
        let loaded = self.len();
        let (wal, replay) = Wal::open(vfs, dir, cfg, obs, self)?;
        self.attach_wal(wal);
        Ok(DurabilityReport {
            loaded,
            replayed: replay.records,
            truncated_tail: replay.truncated,
            corrupt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DEFAULT_NAME;
    use mp_x509::test_util::{test_drbg, test_rsa_key};
    use mp_x509::{CertificateAuthority, Dn};

    fn credential() -> mp_gsi::Credential {
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
    }

    fn durable_store(vfs: Arc<CrashVfs>, compact_every: u64) -> (CredStore, DurabilityReport) {
        let store = CredStore::new(10);
        let report = store
            .attach_durable(
                Path::new("/store"),
                vfs,
                WalConfig { compact_every, ..WalConfig::default() },
                &Registry::new(),
            )
            .unwrap();
        (store, report)
    }

    /// Concatenated bytes of every shard journal (live + rotated).
    fn journal_bytes(vfs: &CrashVfs, shards: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..shards {
            for name in [shard_rotated_name(i), shard_journal_name(i)] {
                let p = Path::new("/store").join(name);
                if vfs.exists(&p) {
                    out.extend_from_slice(&vfs.read(&p).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn crc32_known_vector() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_all_record_kinds() {
        let mut rng = test_drbg("wal frame");
        let store = CredStore::new(10);
        store
            .put_owned(
                "alice",
                DEFAULT_NAME,
                "pass!",
                &credential(),
                7200,
                100,
                false,
                vec![],
                "/O=Grid/CN=alice",
                Some(("/O=Grid/CN=*".into(), vec![1, 2, 3])),
                &mut rng,
            )
            .unwrap();
        let entry = store.peek("alice", DEFAULT_NAME).unwrap();
        let records = [
            WalRecord::Upsert(entry.clone()),
            WalRecord::Remove { username: "alice".into(), name: "x".into() },
            WalRecord::Reseal {
                username: "alice".into(),
                name: "x".into(),
                expect: vec![9; 32],
                sealed: vec![4, 5],
            },
            WalRecord::Purge { now: 123_456, shard: 0, of: 0 },
            WalRecord::Purge { now: 99, shard: 3, of: 8 },
        ];
        let mut raw = Vec::new();
        for rec in &records {
            raw.extend_from_slice(&encode_frame(&encode_payload(rec).unwrap()).unwrap());
        }
        let (parsed, good, torn) = parse_journal(&raw);
        assert_eq!(parsed.len(), records.len());
        assert_eq!(good, raw.len());
        assert!(!torn);
        match (&parsed[0], &parsed[1], &parsed[2]) {
            (
                WalRecord::Upsert(e),
                WalRecord::Remove { username, name },
                WalRecord::Reseal { expect, sealed, .. },
            ) => {
                assert_eq!(e, &entry, "owner and renewal copy ride the upsert");
                assert_eq!(username, "alice");
                assert_eq!(name, "x");
                assert_eq!(expect, &vec![9; 32]);
                assert_eq!(sealed, &vec![4, 5]);
            }
            _ => panic!("record kinds did not round-trip"),
        }
        match (&parsed[3], &parsed[4]) {
            (
                WalRecord::Purge { now: n1, of: 0, .. },
                WalRecord::Purge { now: n2, shard: 3, of: 8 },
            ) => {
                assert_eq!(*n1, 123_456);
                assert_eq!(*n2, 99);
            }
            _ => panic!("purge scope did not round-trip"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let rec = WalRecord::Purge { now: 7, shard: 0, of: 0 };
        let mut raw = encode_frame(&encode_payload(&rec).unwrap()).unwrap();
        let clean = raw.len();
        let mut second = encode_frame(&encode_payload(&rec).unwrap()).unwrap();
        second.truncate(second.len() - 3); // torn mid-payload
        raw.extend_from_slice(&second);
        let (parsed, good, torn) = parse_journal(&raw);
        assert_eq!(parsed.len(), 1);
        assert_eq!(good, clean);
        assert!(torn);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_prefix() {
        let rec = WalRecord::Purge { now: 7, shard: 0, of: 0 };
        let mut raw = encode_frame(&encode_payload(&rec).unwrap()).unwrap();
        let mut bad = encode_frame(&encode_payload(&rec).unwrap()).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // payload bit-flip: CRC mismatch
        raw.extend_from_slice(&bad);
        let (parsed, good, torn) = parse_journal(&raw);
        assert_eq!(parsed.len(), 1);
        assert!(torn);
        assert_eq!(good, raw.len() - bad.len());
    }

    #[test]
    fn put_survives_reopen_without_compaction() {
        let vfs = Arc::new(CrashVfs::new());
        let (store, _) = durable_store(vfs.clone(), 0);
        let mut rng = test_drbg("wal reopen");
        store
            .put_owned(
                "alice",
                DEFAULT_NAME,
                "pass!",
                &credential(),
                7200,
                100,
                false,
                vec![],
                "/O=Grid/CN=alice",
                None,
                &mut rng,
            )
            .unwrap();

        let reopened_vfs = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let (restored, report) = durable_store(reopened_vfs, 0);
        assert_eq!(report.loaded, 0, "nothing compacted yet; all from journal");
        assert_eq!(report.replayed, 1, "one deposit is one record");
        let (_, entry) = restored.open("alice", DEFAULT_NAME, "pass!").unwrap();
        assert_eq!(entry.owner_identity, "/O=Grid/CN=alice");
    }

    #[test]
    fn compaction_folds_journal_and_roundtrips_raw_dump() {
        let vfs = Arc::new(CrashVfs::new());
        let (store, _) = durable_store(vfs.clone(), 0);
        let shards = store.shard_count();
        let mut rng = test_drbg("wal compact");
        store
            .put("alice", DEFAULT_NAME, "pass-a", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        store
            .put("bob", DEFAULT_NAME, "pass-b", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        store.destroy("alice", DEFAULT_NAME, "pass-a").unwrap();
        let mut dump_before = store.raw_dump();
        dump_before.sort();

        store.compact_journal().unwrap();
        assert!(
            journal_bytes(&vfs, shards).is_empty(),
            "compaction folds every shard journal"
        );

        let reopened = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let (restored, report) = durable_store(reopened, 0);
        assert_eq!(report.loaded, 1);
        assert_eq!(report.replayed, 0);
        let mut dump_after = restored.raw_dump();
        dump_after.sort();
        assert_eq!(dump_before, dump_after, "snapshot+journal equals pre-crash state");
        assert!(restored.open("bob", DEFAULT_NAME, "pass-b").is_ok());
        assert!(restored.open("alice", DEFAULT_NAME, "pass-a").is_err());
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let vfs = Arc::new(CrashVfs::new());
        let (store, _) = durable_store(vfs.clone(), 3);
        let shards = store.shard_count();
        let mut rng = test_drbg("wal auto");
        // Three wallets of one user: same shard, so the per-shard
        // threshold of 3 is crossed by the third append.
        for (i, name) in ["one", "two", "three"].iter().enumerate() {
            store
                .put("u1", name, "pass!!", &credential(), 7200, i as u64, false, vec![], &mut rng)
                .unwrap();
        }
        assert!(
            journal_bytes(&vfs, shards).is_empty(),
            "third append crossed the shard threshold"
        );
        let reopened = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let (restored, report) = durable_store(reopened, 3);
        assert_eq!(report.loaded, 3);
        assert!(restored.open("u1", "two", "pass!!").is_ok());
    }

    #[test]
    fn failed_fold_defers_retry_instead_of_storming() {
        /// Delegates to an inner [`CrashVfs`] but fails `rename` while
        /// armed — the first fold operation off the commit path.
        struct FlakyRename {
            inner: CrashVfs,
            fail_renames: std::sync::atomic::AtomicBool,
        }
        impl Vfs for FlakyRename {
            fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
                self.inner.read(p)
            }
            fn write_file(&self, p: &Path, d: &[u8]) -> io::Result<()> {
                self.inner.write_file(p, d)
            }
            fn append(&self, p: &Path, d: &[u8]) -> io::Result<()> {
                self.inner.append(p, d)
            }
            fn truncate(&self, p: &Path, l: u64) -> io::Result<()> {
                self.inner.truncate(p, l)
            }
            fn sync_file(&self, p: &Path) -> io::Result<()> {
                self.inner.sync_file(p)
            }
            fn sync_dir(&self, d: &Path) -> io::Result<()> {
                self.inner.sync_dir(d)
            }
            fn rename(&self, f: &Path, t: &Path) -> io::Result<()> {
                if self.fail_renames.load(std::sync::atomic::Ordering::SeqCst) {
                    return Err(io::Error::other("injected rename failure"));
                }
                self.inner.rename(f, t)
            }
            fn remove_file(&self, p: &Path) -> io::Result<()> {
                self.inner.remove_file(p)
            }
            fn create_dir_all(&self, d: &Path) -> io::Result<()> {
                self.inner.create_dir_all(d)
            }
            fn list_dir(&self, d: &Path) -> io::Result<Vec<String>> {
                self.inner.list_dir(d)
            }
            fn exists(&self, p: &Path) -> bool {
                self.inner.exists(p)
            }
        }

        let vfs = Arc::new(FlakyRename {
            inner: CrashVfs::new(),
            fail_renames: std::sync::atomic::AtomicBool::new(false),
        });
        let store = CredStore::new(10);
        let obs = Registry::new();
        store
            .attach_durable(
                Path::new("/store"),
                vfs.clone(),
                WalConfig { compact_every: 2, ..WalConfig::default() },
                &obs,
            )
            .unwrap();
        let counter = |name: &str| obs.snapshot().counters.get(name).copied().unwrap_or(0);
        let mut rng = test_drbg("wal backoff");
        let mut put = |name: &str, rng: &mut mp_crypto::HmacDrbg| {
            store
                .put("u1", name, "pass!!", &credential(), 7200, 1, false, vec![], rng)
                .unwrap();
        };

        vfs.fail_renames.store(true, std::sync::atomic::Ordering::SeqCst);
        put("w1", &mut rng);
        put("w2", &mut rng); // threshold 2 -> fold attempt -> fails
        assert_eq!(counter("store.wal.compact_failures"), 1);
        put("w3", &mut rng); // 3 < gate (2+2=4): no retry storm
        assert_eq!(counter("store.wal.compact_failures"), 1, "no inline retry per commit");
        put("w4", &mut rng); // 4 >= gate: one deferred retry, fails again
        assert_eq!(counter("store.wal.compact_failures"), 2);

        vfs.fail_renames.store(false, std::sync::atomic::Ordering::SeqCst);
        put("w5", &mut rng);
        put("w6", &mut rng); // 6 >= gate (4+2): retry succeeds
        assert_eq!(counter("store.wal.compact_failures"), 2);
        assert!(counter("store.wal.compactions") >= 1, "deferred fold eventually ran");
        // Every wallet survives a reopen regardless of the fold drama.
        let reopened = Arc::new(CrashVfs::from_image(vfs.inner.image_synced()));
        let (restored, _) = durable_store(reopened, 0);
        for name in ["w1", "w2", "w3", "w4", "w5", "w6"] {
            assert!(restored.open("u1", name, "pass!!").is_ok(), "{name} lost");
        }
    }

    #[test]
    fn commit_many_batches_one_fsync_per_shard() {
        let vfs = Arc::new(CrashVfs::new());
        let store = CredStore::new(10);
        let obs = Registry::new();
        store
            .attach_durable(Path::new("/store"), vfs, WalConfig::default(), &obs)
            .unwrap();
        let counter = |name: &str| obs.snapshot().counters.get(name).copied().unwrap_or(0);
        let mut rng = test_drbg("wal many");
        store
            .put("u1", "seed", "pass!!", &credential(), 7200, 1, false, vec![], &mut rng)
            .unwrap();
        let base_appends = counter("store.wal.appends");
        let base_fsyncs = counter("store.wal.fsyncs");

        let entry = store.peek("u1", "seed").unwrap();
        let recs: Vec<WalRecord> = (0..5)
            .map(|i| {
                let mut e = entry.clone();
                e.name = format!("w{i}");
                WalRecord::Upsert(e)
            })
            .collect();
        let wal = store.wal_handle().expect("durable store has a wal");
        let touched = wal.commit_many(&store, recs).unwrap();
        assert_eq!(touched, vec![1; 5]);
        assert_eq!(counter("store.wal.appends"), base_appends + 5);
        assert_eq!(
            counter("store.wal.fsyncs"),
            base_fsyncs + 1,
            "five same-shard records share one group fsync"
        );
        assert!(counter("store.wal.group_fsyncs") >= 1);
        for i in 0..5 {
            assert!(store.open("u1", &format!("w{i}"), "pass!!").is_ok());
        }
    }

    #[test]
    fn legacy_single_journal_migrates_to_sharded_layout() {
        // Hand-write a legacy layout: one journal.wal holding every
        // record, global-scope purge included.
        let vfs = Arc::new(CrashVfs::new());
        let seed = CredStore::new(10);
        let mut rng = test_drbg("wal legacy");
        seed.put("alice", DEFAULT_NAME, "pass-a", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        seed.put("bob", DEFAULT_NAME, "pass-b", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        let mut raw = Vec::new();
        for e in seed.all_entries() {
            raw.extend_from_slice(&encode_frame(&encode_payload(&WalRecord::Upsert(e)).unwrap()).unwrap());
        }
        raw.extend_from_slice(
            &encode_frame(&encode_payload(&WalRecord::Purge { now: 1, shard: 0, of: 0 }).unwrap()).unwrap(),
        );
        vfs.create_dir_all(Path::new("/store")).unwrap();
        vfs.append(Path::new("/store/journal.wal"), &raw).unwrap();
        vfs.sync_file(Path::new("/store/journal.wal")).unwrap();

        let (restored, report) = durable_store(vfs.clone(), 0);
        assert_eq!(report.replayed, 3, "legacy records replayed");
        assert!(restored.open("alice", DEFAULT_NAME, "pass-a").is_ok());
        assert!(restored.open("bob", DEFAULT_NAME, "pass-b").is_ok());
        assert!(
            !vfs.exists(Path::new("/store/journal.wal")),
            "legacy journal folded away on first open"
        );
        // And the migrated layout survives another reopen.
        let again = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let (second, report) = durable_store(again, 0);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.replayed, 0);
        assert!(second.open("alice", DEFAULT_NAME, "pass-a").is_ok());
    }

    #[test]
    fn skipped_fsyncs_lose_unsynced_data_without_corrupting_recovery() {
        let vfs = Arc::new(CrashVfs::new());
        vfs.set_skip_fsyncs(true);
        let (store, _) = durable_store(vfs.clone(), 0);
        let mut rng = test_drbg("wal liar");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        // The lying disk dropped everything unsynced; recovery must
        // still come up cleanly (empty, but not corrupt or panicking).
        let reopened = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let store2 = CredStore::new(10);
        let report = store2
            .attach_durable(Path::new("/store"), reopened, WalConfig::default(), &Registry::new())
            .unwrap();
        assert_eq!(report.replayed, 0);
        assert!(store2.is_empty());
    }

    #[test]
    fn duplicate_renames_leave_tmp_litter_that_recovery_sweeps() {
        let vfs = Arc::new(CrashVfs::new());
        vfs.set_duplicate_renames(true);
        let (store, _) = durable_store(vfs.clone(), 0);
        let mut rng = test_drbg("wal duprename");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        store.compact_journal().unwrap();
        let names = vfs.list_dir(Path::new("/store")).unwrap();
        assert!(names.iter().any(|n| n.ends_with(".tmp")), "rename left the source");

        let reopened = Arc::new(CrashVfs::from_image(vfs.image_synced()));
        let (restored, report) = durable_store(reopened.clone(), 0);
        assert!(report.corrupt.is_empty());
        assert!(restored.open("alice", DEFAULT_NAME, "pass!").is_ok());
        let names = reopened.list_dir(Path::new("/store")).unwrap();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "stale tmp swept on load");
    }

    #[test]
    fn write_limited_disk_truncates_tail_on_recovery() {
        let vfs = Arc::new(CrashVfs::new());
        let (store, _) = durable_store(vfs.clone(), 0);
        let mut rng = test_drbg("wal limit");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        // From now on the disk silently keeps only 10 bytes per write:
        // the next record lands torn even though the API said ok.
        vfs.set_write_limit(10);
        store
            .put("bob", DEFAULT_NAME, "pass-b", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();

        let reopened = Arc::new(CrashVfs::from_image(vfs.image_torn()));
        let obs = Registry::new();
        let store2 = CredStore::new(10);
        let report = store2
            .attach_durable(Path::new("/store"), reopened, WalConfig::default(), &obs)
            .unwrap();
        assert!(report.truncated_tail, "short record detected and dropped");
        assert_eq!(report.replayed, 1, "clean prefix only");
        assert!(store2.open("alice", DEFAULT_NAME, "pass!").is_ok());
        assert!(store2.open("bob", DEFAULT_NAME, "pass-b").is_err());
        assert_eq!(obs.snapshot().counters.get("store.wal.truncated_tail"), Some(&1));
    }

    #[test]
    fn real_vfs_roundtrip_on_disk() {
        let dir = crate::testutil::TempDir::new("wal-realvfs");
        let store = CredStore::new(10);
        let report = store
            .attach_durable(
                &dir,
                Arc::new(RealVfs),
                WalConfig { compact_every: 0, ..WalConfig::default() },
                &Registry::new(),
            )
            .unwrap();
        assert_eq!(report.loaded + report.replayed as usize, 0);
        let mut rng = test_drbg("wal real");
        store
            .put("alice", DEFAULT_NAME, "pass!", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();
        store.compact_journal().unwrap();
        store
            .put("bob", DEFAULT_NAME, "pass-b", &credential(), 7200, 100, false, vec![], &mut rng)
            .unwrap();

        let restored = CredStore::new(10);
        let report = restored
            .attach_durable(
                &dir,
                Arc::new(RealVfs),
                WalConfig { compact_every: 0, ..WalConfig::default() },
                &Registry::new(),
            )
            .unwrap();
        assert_eq!(report.loaded, 1, "alice from snapshot");
        assert_eq!(report.replayed, 1, "bob from journal");
        assert!(restored.open("alice", DEFAULT_NAME, "pass!").is_ok());
        assert!(restored.open("bob", DEFAULT_NAME, "pass-b").is_ok());
    }
}
