//! WAL-shipping replication and warm-standby promotion.
//!
//! Paper §3.3 sketches many portals talking to many repositories; the
//! portal literature (GridCertLib, "Anatomy of a Grid portal") shows
//! portals that must survive a repository outage without stranding
//! user sessions. This module makes that survivable: a **primary**
//! repository ships its committed per-shard journal frames to a warm
//! **standby** that replays them continuously into its own durable
//! store, and clients carry a repository list they fail over across.
//!
//! Ordering is the whole point:
//!
//! * **acked-then-shipped** — frames enter the [`ReplLog`] ring only
//!   from the [`crate::wal::CommitSink`] hook, which the journal calls
//!   strictly *after* the group-commit fsync succeeded. A standby can
//!   therefore never hold a record the primary has not durably acked;
//!   replication is asynchronous and durability stays local.
//! * **epoch fencing** — every shipped message carries the primary's
//!   epoch (a generation number persisted in `repl.epoch`, bumped by
//!   promotion). A standby whose epoch is newer answers `STALE`
//!   instead of merging a demoted primary's tail; the old primary
//!   demotes itself on seeing it.
//! * **stream identity** — ring sequence numbers live in primary
//!   memory and restart with the process, so every shipper session
//!   names its stream (a random id minted when replication is
//!   enabled). A standby that last synced a *different* stream
//!   answers `NEED_RESYNC` per shard, and the shipper falls back to a
//!   **full-snapshot resync** of that shard (also the path for a
//!   standby that fell off the retained ring).
//!
//! The wire format inside the GSI channel mirrors the journal's own
//! framing: each message is `tag | epoch | shard | seq | len |
//! payload | crc32`, and a `SEGMENT` payload is a byte-exact run of
//! journal frames (parsed by the same [`crate::wal::parse_journal`]
//! the crash-recovery path uses). Lag is exported as the
//! `store.repl.{lag_records,lag_bytes}` gauges plus the
//! `store.repl.{ship_errors,resyncs}` counters.

use crate::proto::{Command, Request, Response};
use crate::server::MyProxyServer;
use crate::wal::{encode_frame, encode_payload, take_u32, take_u64, CommitSink, Vfs, WalRecord};
use crate::MyProxyError;
use mp_gsi::transport::Connector;
use mp_gsi::{GsiError, SecureChannel};
use mp_crypto::HmacDrbg;
use mp_obs::{Counter, Gauge, Registry, RelaxedU64};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What this repository currently is in the replication topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations, ships its journal.
    Primary,
    /// Applies shipped frames; refuses mutations.
    Standby,
    /// Mid-promotion: the new epoch is being persisted.
    Promoting,
}

impl Role {
    /// Lowercase wire/INFO form.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
            Role::Promoting => "promoting",
        }
    }
}

/// Replication tuning knobs.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Frames retained per shard ring. A standby further behind than
    /// this falls back to a full-shard snapshot resync.
    pub ring_capacity: usize,
    /// Standby-side primary-loss detection: promote automatically
    /// when no shipper contact for this many seconds. `0` disables
    /// auto-promotion (explicit `PROMOTE` only).
    pub takeover_timeout_secs: u64,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig { ring_capacity: 1024, takeover_timeout_secs: 0 }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// `store.repl.*` metrics, interned into the owning server's registry
/// (so they ride `/metrics` scrapes and the GSI INFO snapshot).
#[derive(Clone)]
pub struct ReplMetrics {
    /// Committed records not yet acknowledged by the standby, summed
    /// over shards.
    pub lag_records: Gauge,
    /// Ring bytes not yet acknowledged by the standby, summed over
    /// shards (evicted-but-unacked frames no longer contribute; the
    /// shard is snapshot-bound at that point anyway).
    pub lag_bytes: Gauge,
    /// Shipper sessions that failed (standby unreachable, channel
    /// error). Replication is async: these never fail a client ack.
    pub ship_errors: Counter,
    /// Full-shard snapshot resyncs shipped.
    pub resyncs: Counter,
}

impl ReplMetrics {
    /// Intern the metric cells into `obs`.
    pub fn registered(obs: &Registry) -> Self {
        ReplMetrics {
            lag_records: obs.gauge("store.repl.lag_records"),
            lag_bytes: obs.gauge("store.repl.lag_bytes"),
            ship_errors: obs.counter("store.repl.ship_errors"),
            resyncs: obs.counter("store.repl.resyncs"),
        }
    }
}

// ---------------------------------------------------------------------
// Epoch persistence
// ---------------------------------------------------------------------

/// File holding the replication epoch inside the store directory.
pub const EPOCH_FILE: &str = "repl.epoch";

/// Durable storage for the epoch: 8 bytes LE + CRC32, written
/// tmp-fsync-rename-dirsync so the file is never torn (a power cut
/// leaves either the old or the new epoch, atomically).
#[derive(Clone)]
pub struct EpochStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
}

impl EpochStore {
    /// An epoch store under `dir`.
    pub fn new(vfs: Arc<dyn Vfs>, dir: &Path) -> Self {
        EpochStore { vfs, dir: dir.to_path_buf() }
    }

    /// Read the persisted epoch; a missing file is epoch 0.
    pub fn load(&self) -> io::Result<u64> {
        let path = self.dir.join(EPOCH_FILE);
        if !self.vfs.exists(&path) {
            return Ok(0);
        }
        let raw = crate::wal::read_file(self.vfs.as_ref(), &path)?;
        let mut rest = raw.as_slice();
        let (Some(epoch), Some(crc), true) =
            (take_u64(&mut rest), take_u32(&mut rest), rest.is_empty())
        else {
            return Err(io::Error::other("repl.epoch has the wrong length"));
        };
        if crate::wal::crc32(&epoch.to_le_bytes()) != crc {
            return Err(io::Error::other("repl.epoch checksum mismatch"));
        }
        Ok(epoch)
    }

    /// Durably persist `epoch` (atomic replace).
    pub fn persist(&self, epoch: u64) -> io::Result<()> {
        let tmp = self.dir.join(format!("{EPOCH_FILE}.tmp"));
        let path = self.dir.join(EPOCH_FILE);
        let val = epoch.to_le_bytes();
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&val);
        out.extend_from_slice(&crate::wal::crc32(&val).to_le_bytes());
        self.vfs.write_file(&tmp, &out)?;
        self.vfs.sync_file(&tmp)?;
        self.vfs.rename(&tmp, &path)?;
        self.vfs.sync_dir(&self.dir)
    }
}

// ---------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------

/// Stream: a run of journal frames for one shard.
pub(crate) const MSG_SEGMENT: u8 = 1;
/// Stream: a full-shard snapshot (Upsert frames; implies removal of
/// any standby entry of that shard absent from the payload).
pub(crate) const MSG_SNAPSHOT: u8 = 2;
/// Stream: liveness probe carrying only the epoch.
pub(crate) const MSG_HEARTBEAT: u8 = 3;
/// Stream: orderly end of session.
pub(crate) const MSG_BYE: u8 = 4;
/// Reply: `seq` = highest applied sequence for `shard`.
pub(crate) const MSG_ACK: u8 = 0x81;
/// Reply: this shard needs a snapshot (unknown stream / gap).
pub(crate) const MSG_NEED_RESYNC: u8 = 0x82;
/// Reply: the sender's epoch is stale; `epoch` = receiver's.
pub(crate) const MSG_STALE: u8 = 0x83;

/// One replication message, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReplMsg {
    pub tag: u8,
    pub epoch: u64,
    pub shard: u32,
    pub seq: u64,
    pub payload: Vec<u8>,
}

impl ReplMsg {
    pub(crate) fn control(tag: u8, epoch: u64, shard: u32, seq: u64) -> Self {
        ReplMsg { tag, epoch, shard, seq, payload: Vec::new() }
    }
}

/// `tag(u8) | epoch(u64) | shard(u32) | seq(u64) | len(u32) | payload
/// | crc32(u32 over everything before it)`, little-endian throughout —
/// the journal's own framing discipline, applied to the ship channel.
pub(crate) fn encode_msg(msg: &ReplMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(29 + msg.payload.len());
    out.push(msg.tag);
    out.extend_from_slice(&msg.epoch.to_le_bytes());
    out.extend_from_slice(&msg.shard.to_le_bytes());
    out.extend_from_slice(&msg.seq.to_le_bytes());
    out.extend_from_slice(&(msg.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&msg.payload);
    let crc = crate::wal::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode and CRC-check one message; `None` on any malformation.
pub(crate) fn decode_msg(raw: &[u8]) -> Option<ReplMsg> {
    let (body, mut crc) = raw.split_at_checked(raw.len().checked_sub(4)?)?;
    if crate::wal::crc32(body) != take_u32(&mut crc)? {
        return None;
    }
    let (&tag, mut rest) = body.split_first()?;
    let epoch = take_u64(&mut rest)?;
    let shard = take_u32(&mut rest)?;
    let seq = take_u64(&mut rest)?;
    let len = take_u32(&mut rest)? as usize;
    if rest.len() != len {
        return None;
    }
    Some(ReplMsg { tag, epoch, shard, seq, payload: rest.to_vec() })
}

// ---------------------------------------------------------------------
// The primary-side ring
// ---------------------------------------------------------------------

struct ShardRing {
    /// Sequence of the oldest retained frame (`frames[0]`); 1-based.
    floor: u64,
    /// Highest sequence assigned; the ring covers `[floor, head]`.
    head: u64,
    /// Highest sequence the standby has acknowledged.
    acked: u64,
    /// Total bytes currently retained.
    bytes: u64,
    frames: VecDeque<Vec<u8>>,
}

impl ShardRing {
    fn new() -> Self {
        ShardRing { floor: 1, head: 0, acked: 0, bytes: 0, frames: VecDeque::new() }
    }
}

/// What the shipper should do for one shard.
pub(crate) enum Pending {
    /// Standby has everything.
    UpToDate,
    /// Ship these frames; the first carries sequence `first`.
    Frames { first: u64, frames: Vec<Vec<u8>> },
    /// Standby fell off the retained ring: full-shard snapshot.
    NeedSnapshot,
}

/// The primary's retained tail of committed journal frames, one ring
/// per shard, fed by the WAL's post-fsync [`CommitSink`] hook.
pub struct ReplLog {
    rings: Vec<Mutex<ShardRing>>,
    /// Per-shard lag cells (Relaxed; summed into the gauges so the
    /// commit path never takes two ring locks at once).
    lag_records: Vec<RelaxedU64>,
    lag_bytes: Vec<RelaxedU64>,
    metrics: ReplMetrics,
    capacity: usize,
    /// Names this process's sequence space; a standby that last
    /// synced a different stream must resync from snapshots.
    stream_id: u64,
}

impl ReplLog {
    /// A ring set for `shards` shards retaining `capacity` frames each.
    pub(crate) fn new(shards: usize, capacity: usize, stream_id: u64, metrics: ReplMetrics) -> Self {
        let n = shards.max(1);
        ReplLog {
            rings: (0..n).map(|_| Mutex::new(ShardRing::new())).collect(),
            lag_records: (0..n).map(|_| RelaxedU64::new(0)).collect(),
            lag_bytes: (0..n).map(|_| RelaxedU64::new(0)).collect(),
            metrics,
            capacity: capacity.max(1),
            stream_id,
        }
    }

    /// This process's stream identity.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// The replication metric handles.
    pub fn metrics(&self) -> &ReplMetrics {
        &self.metrics
    }

    /// Highest committed sequence for `shard`.
    pub(crate) fn head(&self, shard: usize) -> u64 {
        self.rings.get(shard).map(|r| r.lock().head).unwrap_or(0)
    }

    fn store_lag(&self, shard: usize, records: u64, bytes: u64) {
        if let Some(cell) = self.lag_records.get(shard) {
            cell.store(records);
        }
        if let Some(cell) = self.lag_bytes.get(shard) {
            cell.store(bytes);
        }
    }

    fn publish_gauges(&self) {
        let records: u64 =
            self.lag_records.iter().map(|c| c.load()).sum();
        let bytes: u64 = self.lag_bytes.iter().map(|c| c.load()).sum();
        self.metrics.lag_records.set(records);
        self.metrics.lag_bytes.set(bytes);
    }

    /// What to ship for `shard` given the standby has acked `after`.
    pub(crate) fn pending(&self, shard: usize, after: u64) -> Pending {
        let Some(ring) = self.rings.get(shard) else {
            return Pending::UpToDate;
        };
        let r = ring.lock();
        if after >= r.head {
            return Pending::UpToDate;
        }
        if after.saturating_add(1) < r.floor {
            return Pending::NeedSnapshot;
        }
        let offset = (after + 1 - r.floor) as usize;
        let frames: Vec<Vec<u8>> = r.frames.iter().skip(offset).cloned().collect();
        Pending::Frames { first: after + 1, frames }
    }

    /// Record a standby acknowledgment and prune acked frames.
    pub(crate) fn record_acked(&self, shard: usize, seq: u64) {
        let Some(ring) = self.rings.get(shard) else {
            return;
        };
        {
            let mut r = ring.lock();
            r.acked = r.acked.max(seq.min(r.head));
            while r.floor <= r.acked {
                if let Some(old) = r.frames.pop_front() {
                    r.bytes = r.bytes.saturating_sub(old.len() as u64);
                    r.floor += 1;
                } else {
                    // Ring empty but floor lags: realign.
                    r.floor = r.acked + 1;
                    break;
                }
            }
            let lag = r.head.saturating_sub(r.acked);
            let bytes = r.bytes;
            drop(r);
            self.store_lag(shard, lag, bytes);
        }
        self.publish_gauges();
    }
}

impl CommitSink for ReplLog {
    fn committed(&self, shard: usize, frames: &[&[u8]]) {
        let Some(ring) = self.rings.get(shard) else {
            return;
        };
        {
            let mut r = ring.lock();
            for f in frames {
                if r.frames.len() >= self.capacity {
                    if let Some(old) = r.frames.pop_front() {
                        r.bytes = r.bytes.saturating_sub(old.len() as u64);
                        r.floor += 1;
                    }
                }
                r.frames.push_back(f.to_vec());
                r.bytes = r.bytes.saturating_add(f.len() as u64);
                r.head += 1;
            }
            let lag = r.head.saturating_sub(r.acked);
            let bytes = r.bytes;
            drop(r);
            self.store_lag(shard, lag, bytes);
        }
        self.publish_gauges();
    }
}

// ---------------------------------------------------------------------
// Role / epoch / standby progress
// ---------------------------------------------------------------------

struct RoleEpoch {
    role: Role,
    epoch: u64,
}

/// Standby-side replay progress, keyed by the primary's stream id.
struct AppliedState {
    /// Stream these sequence numbers belong to.
    stream: u64,
    /// Per shard: `Some(seq)` once synced to this stream (via segment
    /// continuity from a snapshot), `None` until then.
    applied: Vec<Option<u64>>,
}

/// Everything a repository knows about its place in the replication
/// topology: role, persisted epoch, standby replay progress, and the
/// primary-loss detector. Held by [`MyProxyServer`]; defaults to a
/// standalone primary at epoch 0 so non-replicated deployments are
/// unchanged.
pub struct ReplState {
    inner: Mutex<RoleEpoch>,
    epoch_store: Mutex<Option<EpochStore>>,
    applied: Mutex<AppliedState>,
    log: Mutex<Option<Arc<ReplLog>>>,
    /// Clock-seconds of the last shipper contact (Relaxed; one writer
    /// class, monotone under the test clocks).
    last_contact: RelaxedU64,
    takeover_timeout_secs: RelaxedU64,
}

impl Default for ReplState {
    fn default() -> Self {
        ReplState::new()
    }
}

impl ReplState {
    /// A standalone primary at epoch 0.
    pub fn new() -> Self {
        ReplState {
            inner: Mutex::new(RoleEpoch { role: Role::Primary, epoch: 0 }),
            epoch_store: Mutex::new(None),
            applied: Mutex::new(AppliedState { stream: 0, applied: Vec::new() }),
            log: Mutex::new(None),
            last_contact: RelaxedU64::new(0),
            takeover_timeout_secs: RelaxedU64::new(0),
        }
    }

    /// Current `(role, epoch)`.
    pub fn status(&self) -> (Role, u64) {
        let g = self.inner.lock();
        (g.role, g.epoch)
    }

    /// Is this repository currently the primary?
    pub fn is_primary(&self) -> bool {
        self.inner.lock().role == Role::Primary
    }

    /// Become a standby with the given auto-takeover timeout.
    pub fn set_standby(&self, takeover_timeout_secs: u64, now_secs: u64) {
        self.inner.lock().role = Role::Standby;
        self.takeover_timeout_secs.store(takeover_timeout_secs);
        self.touch(now_secs);
    }

    /// Note shipper contact at `now_secs` (resets the loss detector).
    pub fn touch(&self, now_secs: u64) {
        self.last_contact.store(now_secs);
    }

    /// Attach the durable epoch store and adopt its persisted epoch.
    pub(crate) fn install_epoch_store(&self, store: EpochStore) -> io::Result<()> {
        let loaded = store.load()?;
        *self.epoch_store.lock() = Some(store);
        let mut g = self.inner.lock();
        g.epoch = g.epoch.max(loaded);
        Ok(())
    }

    pub(crate) fn install_log(&self, log: Arc<ReplLog>) {
        *self.log.lock() = Some(log);
    }

    pub(crate) fn log(&self) -> Option<Arc<ReplLog>> {
        self.log.lock().clone()
    }

    /// Persist `epoch` if a store is attached (no inner lock held —
    /// this does disk I/O).
    fn persist_epoch(&self, epoch: u64) -> io::Result<()> {
        let store = self.epoch_store.lock().clone();
        match store {
            Some(s) => s.persist(epoch),
            None => Ok(()),
        }
    }

    /// Promote to primary: persist epoch+1, then adopt it. The role
    /// reads `Promoting` while the new epoch is being made durable; a
    /// persist failure reverts to standby (the old primary's tail must
    /// still be rejectable, so the epoch may never advance in memory
    /// ahead of disk).
    pub fn promote(&self) -> io::Result<u64> {
        let next = {
            let mut g = self.inner.lock();
            if g.role == Role::Primary {
                return Ok(g.epoch);
            }
            g.role = Role::Promoting;
            g.epoch + 1
        };
        let persisted = self.persist_epoch(next);
        let mut g = self.inner.lock();
        match persisted {
            Ok(()) => {
                g.epoch = next;
                g.role = Role::Primary;
                Ok(next)
            }
            Err(e) => {
                g.role = Role::Standby;
                Err(e)
            }
        }
    }

    /// Adopt a strictly newer epoch seen from a peer; a primary that
    /// observes one has been superseded and demotes itself.
    pub fn observe_epoch(&self, peer_epoch: u64) -> io::Result<()> {
        let (mine, was_primary) = {
            let g = self.inner.lock();
            (g.epoch, g.role == Role::Primary)
        };
        if peer_epoch <= mine {
            return Ok(());
        }
        self.persist_epoch(peer_epoch)?;
        let mut g = self.inner.lock();
        if peer_epoch > g.epoch {
            g.epoch = peer_epoch;
        }
        if was_primary {
            g.role = Role::Standby;
        }
        Ok(())
    }

    /// Standby loss detector: promote when the shipper has been silent
    /// past the configured timeout. Returns true when a promotion
    /// happened. Driven from the serve pool's sweep tick.
    pub fn check_auto_promote(&self, now_secs: u64) -> bool {
        let timeout = self.takeover_timeout_secs.load();
        if timeout == 0 || self.inner.lock().role != Role::Standby {
            return false;
        }
        let last = self.last_contact.load();
        if now_secs.saturating_sub(last) < timeout {
            return false;
        }
        self.promote().is_ok()
    }

    /// Standby handshake: adopt `stream` (forgetting progress on a
    /// stream change) and report per-shard applied sequences — `None`
    /// for shards that still need a snapshot on this stream.
    pub(crate) fn handshake_sync(&self, stream: u64, shards: usize) -> Vec<Option<u64>> {
        let mut a = self.applied.lock();
        if a.stream != stream || a.applied.len() != shards {
            a.stream = stream;
            a.applied = vec![None; shards];
        }
        a.applied.clone()
    }

    /// Standby: applied sequence for `shard` (`None` = unsynced).
    pub(crate) fn applied_for(&self, shard: usize) -> Option<u64> {
        self.applied.lock().applied.get(shard).copied().flatten()
    }

    /// Standby: move `shard` to `seq` (segment continuity).
    pub(crate) fn advance_applied(&self, shard: usize, seq: u64) {
        let mut a = self.applied.lock();
        if let Some(slot) = a.applied.get_mut(shard) {
            *slot = Some(slot.map_or(seq, |cur| cur.max(seq)));
        }
    }

    /// Standby: a snapshot put `shard` at exactly `seq` (watermarks
    /// may be *lower* than a stale sequence from a dead stream, so
    /// this overwrites instead of taking the max).
    pub(crate) fn reset_applied(&self, shard: usize, seq: u64) {
        let mut a = self.applied.lock();
        if let Some(slot) = a.applied.get_mut(shard) {
            *slot = Some(seq);
        }
    }
}

// ---------------------------------------------------------------------
// The shipper
// ---------------------------------------------------------------------

/// Outcome of one shipper pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShipReport {
    /// Journal records acknowledged by the standby this pass.
    pub shipped_records: u64,
    /// Full-shard snapshot resyncs shipped this pass.
    pub resyncs: u64,
    /// The standby refused us as stale and we demoted ourselves.
    pub demoted: bool,
}

/// Primary-side shipper: dials the standby, opens a `REPLICATE`
/// stream, and pushes pending ring frames (or snapshots) lock-step —
/// one message, one acknowledgment. Driven off the ack path (the serve
/// pool's sweep tick or a test harness); a failed pass
/// only bumps `store.repl.ship_errors` — primaries ack from local
/// durability alone.
pub struct Shipper {
    server: MyProxyServer,
    connector: Connector,
    rng: Mutex<HmacDrbg>,
}

/// Parse the epoch out of a standby's stale-epoch refusal text
/// (`"... stale epoch: current=N ..."`).
pub(crate) fn stale_epoch_in(msg: &str) -> Option<u64> {
    let rest = msg.split("stale epoch: current=").nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

impl Shipper {
    pub(crate) fn new(server: MyProxyServer, connector: Connector, rng: HmacDrbg) -> Self {
        Shipper { server, connector, rng: Mutex::new(rng) }
    }

    /// One full ship pass. Never an error when we are not primary or
    /// when the standby proves us stale (that demotes us instead).
    pub fn run_once(&self) -> crate::Result<ShipReport> {
        let mut report = ShipReport::default();
        let repl = self.server.repl_state();
        let (role, epoch) = repl.status();
        if role != Role::Primary {
            return Ok(report);
        }
        let Some(log) = repl.log() else {
            return Err(MyProxyError::Protocol(
                "replication is not enabled on this server".into(),
            ));
        };
        match self.ship_session(&log, epoch, &mut report) {
            Ok(()) => Ok(report),
            Err(e) => {
                if let Some(peer_epoch) = stale_epoch_of(&e) {
                    // The standby has a newer generation: we are the
                    // demoted half of a failover. Step down, durably.
                    repl.observe_epoch(peer_epoch)
                        .map_err(|pe| MyProxyError::Gsi(GsiError::Io(pe)))?;
                    report.demoted = true;
                    return Ok(report);
                }
                log.metrics().ship_errors.inc();
                Err(e)
            }
        }
    }

    /// Derive a session DRBG without holding the shipper's rng lock
    /// across any channel I/O.
    fn session_rng(&self) -> HmacDrbg {
        let mut seed = [0u8; 32];
        self.rng.lock().generate(&mut seed);
        HmacDrbg::new(&seed)
    }

    fn ship_session(
        &self,
        log: &Arc<ReplLog>,
        epoch: u64,
        report: &mut ShipReport,
    ) -> crate::Result<()> {
        let mut rng = self.session_rng();
        let now = self.server.now();
        let transport =
            (self.connector)().map_err(|e| MyProxyError::Gsi(GsiError::Io(e)))?;
        let mut channel = SecureChannel::connect(
            transport,
            self.server.own_credential(),
            &self.server.peer_channel_cfg(),
            &mut rng,
            now,
        )?;
        let shards = self.server.store().shard_count();
        let req = Request::new(Command::Replicate)
            .field("EPOCH", &epoch.to_string())
            .field("SHARDS", &shards.to_string())
            .field("STREAM", &log.stream_id().to_string());
        let resp = crate::MyProxyClient::transact(&mut channel, &req)?;
        let mut acked = parse_seq_fields(&resp, shards);

        for si in 0..shards {
            loop {
                let next = match acked.get(si).copied().flatten() {
                    None => Pending::NeedSnapshot,
                    Some(after) => log.pending(si, after),
                };
                match next {
                    Pending::UpToDate => break,
                    Pending::Frames { first, frames } => {
                        let count = frames.len() as u64;
                        let mut payload = Vec::new();
                        for f in &frames {
                            payload.extend_from_slice(f);
                        }
                        let msg = ReplMsg {
                            tag: MSG_SEGMENT,
                            epoch,
                            shard: si as u32,
                            seq: first,
                            payload,
                        };
                        let ack = self.exchange(&mut channel, &msg)?;
                        match ack.tag {
                            MSG_ACK => {
                                log.record_acked(si, ack.seq);
                                if let Some(slot) = acked.get_mut(si) {
                                    *slot = Some(ack.seq);
                                }
                                report.shipped_records += count;
                            }
                            MSG_NEED_RESYNC => {
                                if let Some(slot) = acked.get_mut(si) {
                                    *slot = None;
                                }
                            }
                            _ => {
                                return Err(MyProxyError::Protocol(
                                    "unexpected replication reply".into(),
                                ))
                            }
                        }
                    }
                    Pending::NeedSnapshot => {
                        let seq = self.ship_snapshot(&mut channel, log, si, epoch)?;
                        if let Some(slot) = acked.get_mut(si) {
                            *slot = Some(seq);
                        }
                        report.resyncs += 1;
                    }
                }
            }
        }

        // Keep the standby's loss detector fed even when nothing was
        // pending this pass.
        let hb = ReplMsg::control(MSG_HEARTBEAT, epoch, 0, 0);
        self.exchange(&mut channel, &hb)?;
        channel.send(&encode_msg(&ReplMsg::control(MSG_BYE, epoch, 0, 0)))?;
        Ok(())
    }

    /// Send one message, read one reply, surface STALE as the typed
    /// refusal the demotion path recognizes.
    fn exchange<T: mp_gsi::transport::Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        msg: &ReplMsg,
    ) -> crate::Result<ReplMsg> {
        channel.send(&encode_msg(msg))?;
        let raw = channel.recv()?;
        let reply = decode_msg(&raw)
            .ok_or_else(|| MyProxyError::Protocol("malformed replication reply".into()))?;
        if reply.tag == MSG_STALE {
            return Err(MyProxyError::Refused(format!(
                "stale epoch: current={}",
                reply.epoch
            )));
        }
        Ok(reply)
    }

    /// Full-shard resync: the ring head is read *before* the entry
    /// snapshot, so a commit racing the copy can only add an entry the
    /// following segments will upsert again (idempotently) — never
    /// lose one.
    fn ship_snapshot<T: mp_gsi::transport::Transport>(
        &self,
        channel: &mut SecureChannel<T>,
        log: &Arc<ReplLog>,
        shard: usize,
        epoch: u64,
    ) -> crate::Result<u64> {
        let watermark = log.head(shard);
        let entries = self.server.store().shard_entries(shard);
        let mut payload = Vec::new();
        for e in entries {
            let frame = encode_frame(&encode_payload(&WalRecord::Upsert(e))?)
                .map_err(|e| MyProxyError::Gsi(GsiError::Io(e)))?;
            payload.extend_from_slice(&frame);
        }
        let msg = ReplMsg {
            tag: MSG_SNAPSHOT,
            epoch,
            shard: shard as u32,
            seq: watermark,
            payload,
        };
        let ack = self.exchange(channel, &msg)?;
        if ack.tag != MSG_ACK {
            return Err(MyProxyError::Protocol("snapshot not acknowledged".into()));
        }
        log.record_acked(shard, ack.seq);
        log.metrics().resyncs.inc();
        Ok(ack.seq)
    }
}

/// Pull the epoch out of any stale-epoch refusal shape the standby
/// can produce (direct refusal text, or the client-side re-wrap).
fn stale_epoch_of(e: &MyProxyError) -> Option<u64> {
    match e {
        MyProxyError::Refused(msg) => stale_epoch_in(msg),
        _ => None,
    }
}

/// Parse repeated `SEQ` fields (`<shard>:<applied>`) from the
/// handshake response into a per-shard table; shards the standby did
/// not report need a snapshot.
fn parse_seq_fields(resp: &Response, shards: usize) -> Vec<Option<u64>> {
    let mut out = vec![None; shards];
    for field in resp.all("SEQ") {
        let Some((si, seq)) = field.split_once(':') else {
            continue;
        };
        let (Ok(si), Ok(seq)) = (si.parse::<usize>(), seq.parse::<u64>()) else {
            continue;
        };
        if let Some(slot) = out.get_mut(si) {
            *slot = Some(seq);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::CrashVfs;

    fn metrics() -> (Arc<Registry>, ReplMetrics) {
        let r = Arc::new(Registry::new());
        let m = ReplMetrics::registered(&r);
        (r, m)
    }

    #[test]
    fn msg_roundtrip_and_crc_rejects_flips() {
        let msg = ReplMsg {
            tag: MSG_SEGMENT,
            epoch: 7,
            shard: 3,
            seq: 42,
            payload: vec![1, 2, 3, 4, 5],
        };
        let mut raw = encode_msg(&msg);
        assert_eq!(decode_msg(&raw).unwrap(), msg);
        raw[9] ^= 0x40;
        assert!(decode_msg(&raw).is_none(), "bit flip must fail the CRC");
        assert!(decode_msg(&[]).is_none());
        assert!(decode_msg(&raw[..10]).is_none());
    }

    #[test]
    fn ring_assigns_sequences_and_reports_pending() {
        let (_r, m) = metrics();
        let log = ReplLog::new(2, 8, 99, m);
        log.committed(0, &[&[1u8, 2][..], &[3u8][..]]);
        log.committed(1, &[&[9u8][..]]);
        assert_eq!(log.head(0), 2);
        assert_eq!(log.head(1), 1);
        match log.pending(0, 0) {
            Pending::Frames { first, frames } => {
                assert_eq!(first, 1);
                assert_eq!(frames, vec![vec![1, 2], vec![3]]);
            }
            _ => panic!("expected frames"),
        }
        match log.pending(0, 1) {
            Pending::Frames { first, frames } => {
                assert_eq!(first, 2);
                assert_eq!(frames, vec![vec![3]]);
            }
            _ => panic!("expected frames"),
        }
        assert!(matches!(log.pending(0, 2), Pending::UpToDate));
    }

    #[test]
    fn ring_overflow_demands_snapshot_and_acks_prune() {
        let (_r, m) = metrics();
        let log = ReplLog::new(1, 2, 1, m.clone());
        log.committed(0, &[&[1u8][..], &[2u8][..], &[3u8][..]]);
        // Capacity 2: frame 1 evicted, floor now 2.
        assert!(matches!(log.pending(0, 0), Pending::NeedSnapshot));
        match log.pending(0, 1) {
            Pending::Frames { first, frames } => {
                assert_eq!(first, 2);
                assert_eq!(frames.len(), 2);
            }
            _ => panic!("expected frames"),
        }
        assert_eq!(m.lag_records.get(), 3);
        log.record_acked(0, 3);
        assert_eq!(m.lag_records.get(), 0);
        assert_eq!(m.lag_bytes.get(), 0);
        assert!(matches!(log.pending(0, 3), Pending::UpToDate));
    }

    #[test]
    fn lag_gauges_track_unacked_tail() {
        let (_r, m) = metrics();
        let log = ReplLog::new(2, 16, 1, m.clone());
        log.committed(0, &[&[1u8, 2, 3][..]]);
        log.committed(1, &[&[4u8, 5][..]]);
        assert_eq!(m.lag_records.get(), 2);
        assert_eq!(m.lag_bytes.get(), 5);
        log.record_acked(0, 1);
        assert_eq!(m.lag_records.get(), 1);
        assert_eq!(m.lag_bytes.get(), 2);
    }

    #[test]
    fn epoch_store_roundtrip_and_corruption() {
        let vfs = Arc::new(CrashVfs::new());
        vfs.create_dir_all(Path::new("/s")).unwrap();
        let es = EpochStore::new(vfs.clone(), Path::new("/s"));
        assert_eq!(es.load().unwrap(), 0, "missing file is epoch 0");
        es.persist(7).unwrap();
        assert_eq!(es.load().unwrap(), 7);
        es.persist(9).unwrap();
        assert_eq!(es.load().unwrap(), 9);
        vfs.write_file(Path::new("/s/repl.epoch"), &[0u8; 12]).unwrap();
        assert!(es.load().is_err(), "checksum mismatch must surface");
    }

    #[test]
    fn promotion_bumps_and_persists_epoch() {
        let vfs = Arc::new(CrashVfs::new());
        vfs.create_dir_all(Path::new("/s")).unwrap();
        let state = ReplState::new();
        state.install_epoch_store(EpochStore::new(vfs.clone(), Path::new("/s"))).unwrap();
        state.set_standby(0, 100);
        assert_eq!(state.status(), (Role::Standby, 0));
        assert_eq!(state.promote().unwrap(), 1);
        assert_eq!(state.status(), (Role::Primary, 1));
        // Idempotent on a primary.
        assert_eq!(state.promote().unwrap(), 1);
        let fresh = ReplState::new();
        fresh.install_epoch_store(EpochStore::new(vfs, Path::new("/s"))).unwrap();
        assert_eq!(fresh.status().1, 1, "epoch survives restart");
    }

    #[test]
    fn observing_newer_epoch_demotes_a_primary() {
        let state = ReplState::new();
        assert_eq!(state.status(), (Role::Primary, 0));
        state.observe_epoch(3).unwrap();
        assert_eq!(state.status(), (Role::Standby, 3));
        // Older/equal epochs change nothing.
        state.promote().unwrap();
        state.observe_epoch(3).unwrap();
        assert_eq!(state.status(), (Role::Primary, 4));
    }

    #[test]
    fn auto_promote_fires_only_after_timeout() {
        let state = ReplState::new();
        state.set_standby(30, 1_000);
        assert!(!state.check_auto_promote(1_010));
        assert!(state.check_auto_promote(1_031));
        assert_eq!(state.status().0, Role::Primary);
        assert!(!state.check_auto_promote(9_999), "already primary");
    }

    #[test]
    fn handshake_sync_forgets_progress_on_stream_change() {
        let state = ReplState::new();
        assert_eq!(state.handshake_sync(5, 2), vec![None, None]);
        state.reset_applied(0, 10);
        state.advance_applied(0, 12);
        assert_eq!(state.handshake_sync(5, 2), vec![Some(12), None]);
        // New stream: everything is unsynced again.
        assert_eq!(state.handshake_sync(6, 2), vec![None, None]);
    }

    #[test]
    fn snapshot_reset_overwrites_even_downward() {
        let state = ReplState::new();
        state.handshake_sync(1, 1);
        state.reset_applied(0, 50);
        state.reset_applied(0, 3);
        assert_eq!(state.applied_for(0), Some(3));
        state.advance_applied(0, 2);
        assert_eq!(state.applied_for(0), Some(3), "advance never regresses");
    }

    #[test]
    fn stale_epoch_parsing() {
        assert_eq!(stale_epoch_in("server refused: stale epoch: current=12"), Some(12));
        assert_eq!(
            stale_epoch_in("server refused: server refused: stale epoch: current=3"),
            Some(3)
        );
        assert_eq!(stale_epoch_in("some other refusal"), None);
    }
}
