//! `clouds-store` — the data server's stable store as a
//! **segment-structured append-only log** (§5.2's single-level store,
//! made recoverable for real).
//!
//! Segments are Clouds' *only* persistence abstraction, and a data
//! server that crashes must come back with exactly the committed state.
//! This crate earns those semantics the way real object stores do —
//! from a recoverable log — and the log is also the data server's only
//! store: it keeps each page, replica config, staged intent and commit
//! outcome once, in the media, and serves it from there.
//!
//! * The only durable state is [`LogStore`]'s **media**: a list of
//!   fixed-size log segments (byte buffers, [`LogConfig::segment_bytes`]
//!   each, the layout Pelikan's seg cache popularized) holding
//!   checksummed, length-prefixed records. Everything else — the
//!   slot → latest-record pointers (`(segment, page)`, live create,
//!   replica config, pending intent, unsettled outcome), the tombstone
//!   table and the
//!   per-log-segment dead-byte headers — is volatile and rebuilt,
//!   exactly, by replay.
//! * [`LogStore::append`] serializes a [`LogRecord`] into the open log
//!   segment, sealing it and opening a fresh one when full. Three
//!   writes check the live record and append under the same lock:
//!   [`LogStore::write_page`] picks a page's version,
//!   [`LogStore::resolve_intent`] retires only a pending intent, and
//!   [`LogStore::change_replicas`] applies its caller's epoch rule.
//! * The read side, [`LogReads`] (a `LogStore` derefs to it, and it
//!   appends nothing), decodes what the index points at: what a replay
//!   would rebuild for the key, and nothing while crashed.
//! * [`LogStore::crash`] models the power failure: every volatile
//!   structure is dropped on the floor; only the media bytes remain.
//! * [`LogReads::replay`] rescans the media frame by frame, verifying
//!   each frame's checksum, and rebuilds the index from the survivors'
//!   keys alone: no page image, intent or view is decoded or copied
//!   until a read asks for it. A torn final record — a tail truncated
//!   mid-write — fails its length or checksum test and is **dropped,
//!   not applied**.
//! * Compaction is **a segment at a time**, inline on the append that
//!   seals a log segment: every fully-dead sealed segment is dropped,
//!   else the one with the highest dead ratio (if ≥ ½) has the records
//!   the index still points at copied — frame bytes, checksum and all
//!   — to the open segment and is dropped. A step is bounded by
//!   [`LogConfig::segment_bytes`], not by the size of the log, so no
//!   writer waits on a whole-log rewrite. [`LogStore::compact`] runs
//!   steps to a fixed point. A tombstone (`SegmentDestroy`,
//!   `TxnResolved`, `OutcomeSettled`) is copied forward like a live
//!   record while the media still holds anything it cancels, and is
//!   dead bytes after. So a settled transaction costs the log nothing
//!   once the segments holding its outcome and its tombstone are
//!   reclaimed.
//!   Every read answers the same after any step as before it, and so
//!   does a replay of the log — pinned, against a fold of the appended
//!   records, by this crate's proptest suite.
//!
//! Replay order-insensitivity is by construction, not by luck: pages
//! carry monotonically increasing versions (highest wins), intents pair
//! with resolutions and outcomes with settlements by transaction id,
//! replica configs carry epochs
//! (highest wins), and destruction beats creation outright — sysnames
//! are never reused, so "a destroy record exists" means the segment is
//! gone no matter where the record sits.
//!
//! # Cost model
//!
//! Appends and reads charge no virtual time: the pre-existing store
//! writes were already free (the write-behind is assumed to overlap with the next
//! request, as a battery-backed controller would), and keeping them
//! free preserves every calibrated number in EXPERIMENTS.md. Replay
//! *is* on the critical recovery path, so [`replay_cost`] models a
//! 1988-class disk scanning the log sequentially: one seek per log
//! segment plus ~1 MB/s of streaming reads. The data server charges
//! its virtual clock with this cost and records it in the
//! `store.replay` histogram (see OBS_SCHEMA.md).
//!
//! ```
//! use clouds_ra::{SysName, PAGE_SIZE};
//! use clouds_store::{LogConfig, LogRecord, LogStore};
//!
//! let store = LogStore::new(LogConfig::default());
//! let seg = SysName::from_parts(1, 1);
//! store.append(LogRecord::SegmentCreate { seg, len: PAGE_SIZE as u64 });
//! store.append(LogRecord::PageWrite { seg, page: 0, version: 1, data: vec![7; PAGE_SIZE] });
//!
//! store.crash(); // power fails: only the media bytes survive
//! store.replay();
//! assert_eq!(store.read_page(seg, 0), Some((1, vec![7; PAGE_SIZE])));
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

use clouds_obs::{Counter, NodeObs};
use clouds_ra::SysName;
use clouds_simnet::{lanesum32, Vt};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Default size of one log segment: 256 KiB holds ~31 page records.
pub const LOG_SEGMENT_BYTES: usize = 256 * 1024;

/// Bytes of framing before each record payload: a `u32` length and a
/// `u32` checksum ([`lanesum32`], shared with RaTP) of the payload.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Virtual-time cost of the seek to the start of each log segment
/// during replay (1988-class disk).
pub const REPLAY_SEEK: Vt = Vt::from_millis(10);

/// Virtual-time cost per byte streamed during replay: 1 µs/byte, i.e.
/// the ~1 MB/s sequential bandwidth of the era's SCSI disks.
pub const REPLAY_NS_PER_BYTE: u64 = 1_000;

/// Virtual time a data server spends replaying `bytes` of log spread
/// over `log_segments` log segments: one seek per segment plus the
/// sequential streaming cost. This is what `DataServer::restart`
/// charges its clock and records in the `store.replay` histogram.
pub fn replay_cost(bytes: u64, log_segments: u64) -> Vt {
    REPLAY_SEEK.mul(log_segments) + Vt::from_nanos(REPLAY_NS_PER_BYTE).mul(bytes)
}

/// One page image staged by a two-phase-commit prepare, as carried in a
/// [`LogRecord::TxnIntent`] write-ahead record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentPage {
    /// Segment the staged write targets.
    pub seg: SysName,
    /// Page index within the segment.
    pub page: u32,
    /// The staged bytes (at most one page).
    pub data: Vec<u8>,
}

/// The durable record of which nodes hold a segment's replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// Raw node ids, primary first.
    pub members: Vec<u32>,
    /// Configuration epoch; higher epochs supersede lower ones.
    pub epoch: u64,
}

/// One record in the log. Every durable mutation of a data server is
/// exactly one append of one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A segment was created with `len` bytes.
    SegmentCreate {
        /// The new segment's sysname.
        seg: SysName,
        /// Its length in bytes.
        len: u64,
    },
    /// A segment was destroyed. Destruction beats creation regardless
    /// of record order: sysnames are never reused.
    SegmentDestroy {
        /// The destroyed segment.
        seg: SysName,
    },
    /// A page reached version `version`. Replay keeps the highest
    /// version per `(seg, page)`, which is what makes it insensitive
    /// to record order within a log segment.
    PageWrite {
        /// Owning segment.
        seg: SysName,
        /// Page index within the segment.
        page: u32,
        /// Monotonic per-page version assigned by the store.
        version: u64,
        /// The full page image.
        data: Vec<u8>,
    },
    /// Write-ahead intent: transaction `txn` staged these page images
    /// at prepare time and this participant voted to commit.
    TxnIntent {
        /// Transaction id.
        txn: u64,
        /// The staged images.
        pages: Vec<IntentPage>,
    },
    /// Transaction `txn`'s staged intent was resolved (committed pages
    /// were logged as `PageWrite`s, or the abort dropped them); the
    /// intent is no longer pending.
    TxnResolved {
        /// Transaction id.
        txn: u64,
    },
    /// The commit coordinator durably decided *commit* for `txn`
    /// (the outcome registry's record; presumed abort otherwise).
    TxnOutcome {
        /// Transaction id.
        txn: u64,
    },
    /// Every participant of `txn` installed its pages and resolved its
    /// intent, so no recovery will ask for the outcome again: the
    /// registry forgets it.
    OutcomeSettled {
        /// Transaction id.
        txn: u64,
    },
    /// The replica set of `seg` changed (creation, adoption, or
    /// promotion). Replay keeps the highest epoch.
    ReplicaConfig {
        /// The replicated segment.
        seg: SysName,
        /// The new configuration.
        config: ReplicaRecord,
    },
}

/// Tuning knobs for a [`LogStore`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Capacity of one log segment; a record larger than this gets a
    /// private oversized segment.
    pub segment_bytes: usize,
    /// Run one bounded compaction step ([`LogStore::compact`] runs them
    /// to a fixed point) on every append that seals a log segment.
    pub auto_compact: bool,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            segment_bytes: LOG_SEGMENT_BYTES,
            auto_compact: true,
        }
    }
}

/// The scan statistics of one [`LogReads::replay`].
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Valid records scanned.
    pub records: u64,
    /// Media bytes scanned (including framing).
    pub bytes: u64,
    /// Log segments scanned.
    pub log_segments: u64,
    /// Torn tails detected and dropped (length/checksum mismatches at
    /// the end of a log segment's valid prefix).
    pub torn_dropped: u64,
}

/// Counters describing a [`LogStore`]'s lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended.
    pub appends: u64,
    /// Media bytes appended (including framing). Compaction's
    /// copy-forward traffic is *not* in here; see `bytes_copied`.
    pub append_bytes: u64,
    /// Log segments sealed because they filled up.
    pub segments_sealed: u64,
    /// Bounded compaction steps that reclaimed at least one segment.
    pub compactions: u64,
    /// Media bytes (including framing) compaction copied forward out of
    /// reclaimed segments: `(append_bytes + bytes_copied) / append_bytes`
    /// is the log's write amplification.
    pub bytes_copied: u64,
    /// Sealed log segments compaction dropped.
    pub segments_reclaimed: u64,
    /// Current media size in bytes.
    pub media_bytes: u64,
    /// Current number of log segments (sealed + open).
    pub media_segments: u64,
    /// Dead bytes awaiting reclaim (superseded page versions, resolved
    /// intents, destroyed segments); zero while crashed.
    pub dead_bytes: u64,
    /// Index slots holding a live record (a segment's create, pages and
    /// replica config, a pending intent, an unsettled outcome); zero
    /// while crashed.
    pub live_slots: u64,
}

/// The store's counters, resolved once at construction: registered
/// ones (each name has a row in OBS_SCHEMA.md, which debug builds check
/// at registration) or, without obs, the store's own.
struct StoreMetrics {
    appends: Arc<Counter>,
    append_bytes: Arc<Counter>,
    segments_sealed: Arc<Counter>,
    compactions: Arc<Counter>,
    bytes_copied: Arc<Counter>,
    segments_reclaimed: Arc<Counter>,
    replay_records: Arc<Counter>,
    torn_dropped: Arc<Counter>,
}

impl StoreMetrics {
    fn new(obs: Option<&NodeObs>) -> StoreMetrics {
        let counter = |name: &str| obs.map_or_else(Arc::default, |obs| obs.counter(name));
        StoreMetrics {
            appends: counter("store.appends"),
            append_bytes: counter("store.append_bytes"),
            segments_sealed: counter("store.segments_sealed"),
            compactions: counter("store.compactions"),
            bytes_copied: counter("store.compact.bytes_copied"),
            segments_reclaimed: counter("store.compact.segments_reclaimed"),
            replay_records: counter("store.replay.records"),
            torn_dropped: counter("store.replay.torn_dropped"),
        }
    }
}

/// Name of one log segment in the media. Ids only grow, so media order
/// is append order even after compaction drops segments from the
/// middle.
type LogSegId = u64;

/// The media: log segments by id, the last one open.
type Media = BTreeMap<LogSegId, Vec<u8>>;

/// Where one framed record sits in the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordPtr {
    log_seg: LogSegId,
    offset: usize,
    framed_len: usize,
}

/// What a record holds the latest value *of*. At most one record per
/// slot is live; the rest are dead bytes. Variant order matters twice:
/// a segment's pages are one contiguous key range, and creates sort
/// ahead of the pages and replica configs that need them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Create(SysName),
    Page(SysName, u32),
    Replicas(SysName),
    Intent(u64),
    Outcome(u64),
}

impl Slot {
    /// The slot whose tombstone cancels this one: a `SegmentDestroy`
    /// is the tombstone of `Create(seg)` and takes the segment's pages
    /// and replica config with it; a `TxnResolved` is the tombstone of
    /// `Intent(txn)`, an `OutcomeSettled` that of `Outcome(txn)`.
    fn anchor(self) -> Slot {
        match self {
            Slot::Create(seg) | Slot::Page(seg, _) | Slot::Replicas(seg) => Slot::Create(seg),
            Slot::Intent(_) | Slot::Outcome(_) => self,
        }
    }
}

/// The part of a record the index needs, read off the front of the
/// payload without touching a page image.
#[derive(Debug, Clone, Copy)]
enum Meta {
    /// A value for `slot`; the highest rank (page version, replica
    /// epoch, else 0) wins and a tie goes to the later record.
    Put(Slot, u64),
    /// A tombstone for the anchor slot.
    Cancel(Slot),
}

impl Meta {
    fn peek(payload: &[u8]) -> Option<Meta> {
        let mut at = 1usize;
        Some(match *payload.first()? {
            TAG_CREATE => Meta::Put(Slot::Create(get_sysname(payload, &mut at)?), 0),
            TAG_DESTROY => Meta::Cancel(Slot::Create(get_sysname(payload, &mut at)?)),
            TAG_PAGE => {
                let seg = get_sysname(payload, &mut at)?;
                let page = get_u32(payload, &mut at)?;
                Meta::Put(Slot::Page(seg, page), get_u64(payload, &mut at)?)
            }
            TAG_INTENT => Meta::Put(Slot::Intent(get_u64(payload, &mut at)?), 0),
            TAG_RESOLVED => Meta::Cancel(Slot::Intent(get_u64(payload, &mut at)?)),
            TAG_OUTCOME => Meta::Put(Slot::Outcome(get_u64(payload, &mut at)?), 0),
            TAG_SETTLED => Meta::Cancel(Slot::Outcome(get_u64(payload, &mut at)?)),
            TAG_REPLICAS => {
                let seg = get_sysname(payload, &mut at)?;
                Meta::Put(Slot::Replicas(seg), get_u64(payload, &mut at)?)
            }
            _ => return None,
        })
    }
}

/// Volatile state: what a crash destroys and replay rebuilds, exactly,
/// from the media alone — by feeding every record through
/// [`VolatileIndex::note`] in media order, as `append` does. It is a
/// function of the *set* of records in the media (ties aside), so a
/// compaction step moving a record changes nothing but its pointer.
#[derive(Default)]
struct VolatileIndex {
    /// Slot → (rank, the one record replay would keep for it).
    live: BTreeMap<Slot, (u64, RecordPtr)>,
    /// Anchor slot → its tombstone records (one, bar a retransmitted
    /// destroy). A tombstone in the media cancels every record of its
    /// anchor's, whichever side of it they were appended on.
    tombs: BTreeMap<Slot, Vec<RecordPtr>>,
    /// Anchor slot → how many records a tombstone of it would cancel
    /// (the segment's creates, pages and replica configs; the txn's
    /// intents, or its outcomes — live or dead) are still in the media. A tombstone is
    /// *pinned* — live, copied forward — while this is non-zero:
    /// dropping it sooner would let a dead record come back to life on
    /// replay. Unpinned, it is dead bytes like any other.
    anchors: BTreeMap<Slot, u32>,
    /// The per-log-segment header: dead bytes (live = length − dead).
    dead: BTreeMap<LogSegId, usize>,
}

impl VolatileIndex {
    fn kill(&mut self, ptr: RecordPtr) {
        *self.dead.entry(ptr.log_seg).or_default() += ptr.framed_len;
    }

    /// `anchor` went from no cancellable record in the media to one
    /// (`pinned`) or back: its tombstones turn live or dead with it.
    fn pin_tombs(&mut self, anchor: Slot, pinned: bool) {
        for tomb in self.tombs.get(&anchor).into_iter().flatten() {
            let dead = self.dead.entry(tomb.log_seg).or_default();
            *dead = if pinned {
                *dead - tomb.framed_len
            } else {
                *dead + tomb.framed_len
            };
        }
    }

    /// Account one record that now sits at `ptr`.
    fn note(&mut self, meta: Meta, ptr: RecordPtr) {
        match meta {
            Meta::Put(slot, rank) => {
                let anchor = slot.anchor();
                let count = self.anchors.entry(anchor).or_default();
                *count += 1;
                if *count == 1 {
                    self.pin_tombs(anchor, true);
                }
                let cancelled = self.tombs.contains_key(&anchor);
                if cancelled || self.live.get(&slot).is_some_and(|(best, _)| *best > rank) {
                    self.kill(ptr);
                } else if let Some((_, old)) = self.live.insert(slot, (rank, ptr)) {
                    self.kill(old);
                }
            }
            Meta::Cancel(anchor) => {
                self.tombs.entry(anchor).or_default().push(ptr);
                if !self.anchors.contains_key(&anchor) {
                    self.kill(ptr);
                }
                let mut doomed = vec![anchor];
                if let Slot::Create(seg) = anchor {
                    let pages = Slot::Page(seg, 0)..=Slot::Page(seg, u32::MAX);
                    doomed.extend(self.live.range(pages).map(|(slot, _)| *slot));
                    doomed.push(Slot::Replicas(seg));
                }
                for slot in doomed {
                    if let Some((_, old)) = self.live.remove(&slot) {
                        self.kill(old);
                    }
                }
            }
        }
    }

    /// The record at `ptr` is losing its log segment. If it is live —
    /// the one record its slot points at, or a pinned tombstone — say
    /// so and change nothing: the caller moves it. If it is dead,
    /// release what it pinned.
    fn evict(&mut self, meta: Meta, ptr: RecordPtr) -> bool {
        match meta {
            Meta::Put(slot, _) => {
                if self.live.get(&slot).is_some_and(|(_, p)| *p == ptr) {
                    return true;
                }
                let anchor = slot.anchor();
                let count = self
                    .anchors
                    .get_mut(&anchor)
                    .expect("anchored records are counted");
                *count -= 1;
                if *count == 0 {
                    self.anchors.remove(&anchor);
                    self.pin_tombs(anchor, false);
                }
            }
            Meta::Cancel(anchor) => {
                if self.anchors.contains_key(&anchor) {
                    return true;
                }
                let copies = self.tombs.get_mut(&anchor).expect("tombstones are indexed");
                copies.retain(|p| *p != ptr);
                if copies.is_empty() {
                    self.tombs.remove(&anchor);
                }
            }
        }
        false
    }

    /// The live record at `from` moved to `to`.
    fn repoint(&mut self, meta: Meta, from: RecordPtr, to: RecordPtr) {
        let ptr = match meta {
            Meta::Put(slot, _) => self.live.get_mut(&slot).map(|(_, p)| p),
            Meta::Cancel(anchor) => self
                .tombs
                .get_mut(&anchor)
                .and_then(|t| t.iter_mut().find(|p| **p == from)),
        };
        *ptr.expect("a live record is indexed") = to;
    }
}

struct LogInner {
    /// The durable media: sealed log segments plus the open one (the
    /// last), keyed by id.
    media: Media,
    /// Volatile; `None` after a crash until replay rebuilds it.
    index: Option<VolatileIndex>,
}

impl LogInner {
    /// The record `slot` holds as a replay would keep it, decoded:
    /// `None` if the slot is empty or — for a page or a replica config
    /// — its segment has no live create.
    fn live(&self, slot: Slot) -> Result<Option<LogRecord>, Crashed> {
        let live = &self.index.as_ref().ok_or(Crashed)?.live;
        if let Slot::Page(seg, _) | Slot::Replicas(seg) = slot {
            if !live.contains_key(&Slot::Create(seg)) {
                return Ok(None);
            }
        }
        Ok(live.get(&slot).map(|(_, ptr)| record_at(&self.media, *ptr)))
    }

    fn replicas(&self, seg: SysName) -> Option<ReplicaRecord> {
        match self.live(Slot::Replicas(seg)).ok()?? {
            LogRecord::ReplicaConfig { config, .. } => Some(config),
            _ => unreachable!("a replica slot holds a replica config"),
        }
    }

    /// `pick` of each [`LogInner::live`] record of the slots in `range`,
    /// in slot order; none while crashed.
    fn walk<T, C: FromIterator<T>>(
        &self,
        range: impl RangeBounds<Slot>,
        pick: impl Fn(LogRecord) -> T,
    ) -> C {
        let slots = self.index.as_ref().map(|idx| idx.live.range(range));
        let records = slots.into_iter().flatten();
        records
            .filter_map(|(slot, _)| Some(pick(self.live(*slot).ok()??)))
            .collect()
    }
}

/// A crashed store's answer to a read that tells "not there" from "not
/// known": nothing is known until [`LogReads::replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

/// The log's read side — every read, [`LogReads::replay`] and
/// [`LogReads::stats`] — and none of its writes: a [`LogStore`] derefs
/// to it, and a holder of `&LogReads` appends nothing. A read answers
/// what a replay would rebuild for its key, and nothing while crashed.
pub struct LogReads {
    cfg: LogConfig,
    inner: Mutex<LogInner>,
    metrics: StoreMetrics,
}

/// The append-only log store. One per data server: its simulated disk.
/// The reads are [`LogReads`]'; the writes are its own.
pub struct LogStore(LogReads);

impl Deref for LogStore {
    type Target = LogReads;

    fn deref(&self) -> &LogReads {
        &self.0
    }
}

fn put_sysname(out: &mut Vec<u8>, s: SysName) {
    let v = s.as_u128();
    out.extend_from_slice(&((v >> 64) as u64).to_le_bytes());
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let b = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let b = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn get_sysname(buf: &[u8], at: &mut usize) -> Option<SysName> {
    let hi = get_u64(buf, at)?;
    let lo = get_u64(buf, at)?;
    Some(SysName::from_parts(hi, lo))
}

const TAG_CREATE: u8 = 1;
const TAG_DESTROY: u8 = 2;
const TAG_PAGE: u8 = 3;
const TAG_INTENT: u8 = 4;
const TAG_RESOLVED: u8 = 5;
const TAG_OUTCOME: u8 = 6;
const TAG_REPLICAS: u8 = 7;
const TAG_SETTLED: u8 = 8;

impl LogRecord {
    /// Serialize the payload (tag byte + fixed-width little-endian
    /// fields + raw page bytes). Hand-rolled rather than codec-based:
    /// the layout *is* the on-media format and must stay stable.
    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `LogRecord` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            LogRecord::SegmentCreate { seg, len } => {
                out.push(TAG_CREATE);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&len.to_le_bytes());
            }
            LogRecord::SegmentDestroy { seg } => {
                out.push(TAG_DESTROY);
                put_sysname(&mut out, *seg);
            }
            LogRecord::PageWrite {
                seg,
                page,
                version,
                data,
            } => {
                out.reserve(data.len() + 40);
                out.push(TAG_PAGE);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            LogRecord::TxnIntent { txn, pages } => {
                out.push(TAG_INTENT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    put_sysname(&mut out, p.seg);
                    out.extend_from_slice(&p.page.to_le_bytes());
                    out.extend_from_slice(&(p.data.len() as u32).to_le_bytes());
                    out.extend_from_slice(&p.data);
                }
            }
            LogRecord::TxnResolved { txn } => {
                out.push(TAG_RESOLVED);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::TxnOutcome { txn } => {
                out.push(TAG_OUTCOME);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::OutcomeSettled { txn } => {
                out.push(TAG_SETTLED);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::ReplicaConfig { seg, config } => {
                out.push(TAG_REPLICAS);
                put_sysname(&mut out, *seg);
                out.extend_from_slice(&config.epoch.to_le_bytes());
                out.extend_from_slice(&(config.members.len() as u32).to_le_bytes());
                for m in &config.members {
                    out.extend_from_slice(&m.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode one payload; `None` on any malformation (unknown tag,
    /// short buffer, trailing garbage) — the caller treats that the
    /// same as a checksum failure.
    fn decode(buf: &[u8]) -> Option<LogRecord> {
        let tag = *buf.first()?;
        let mut at = 1usize;
        let rec = match tag {
            TAG_CREATE => LogRecord::SegmentCreate {
                seg: get_sysname(buf, &mut at)?,
                len: get_u64(buf, &mut at)?,
            },
            TAG_DESTROY => LogRecord::SegmentDestroy {
                seg: get_sysname(buf, &mut at)?,
            },
            TAG_PAGE => {
                let seg = get_sysname(buf, &mut at)?;
                let page = get_u32(buf, &mut at)?;
                let version = get_u64(buf, &mut at)?;
                let dlen = get_u32(buf, &mut at)? as usize;
                let data = buf.get(at..at + dlen)?.to_vec();
                at += dlen;
                LogRecord::PageWrite {
                    seg,
                    page,
                    version,
                    data,
                }
            }
            TAG_INTENT => {
                let txn = get_u64(buf, &mut at)?;
                let count = get_u32(buf, &mut at)?;
                let mut pages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_sysname(buf, &mut at)?;
                    let page = get_u32(buf, &mut at)?;
                    let dlen = get_u32(buf, &mut at)? as usize;
                    let data = buf.get(at..at + dlen)?.to_vec();
                    at += dlen;
                    pages.push(IntentPage { seg, page, data });
                }
                LogRecord::TxnIntent { txn, pages }
            }
            TAG_RESOLVED => LogRecord::TxnResolved {
                txn: get_u64(buf, &mut at)?,
            },
            TAG_OUTCOME => LogRecord::TxnOutcome {
                txn: get_u64(buf, &mut at)?,
            },
            TAG_SETTLED => LogRecord::OutcomeSettled {
                txn: get_u64(buf, &mut at)?,
            },
            TAG_REPLICAS => {
                let seg = get_sysname(buf, &mut at)?;
                let epoch = get_u64(buf, &mut at)?;
                let count = get_u32(buf, &mut at)?;
                let mut members = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    members.push(get_u32(buf, &mut at)?);
                }
                LogRecord::ReplicaConfig {
                    seg,
                    config: ReplicaRecord { members, epoch },
                }
            }
            _ => return None,
        };
        (at == buf.len()).then_some(rec)
    }
}

impl LogStore {
    /// A store with no obs wiring (tests, benches).
    pub fn new(cfg: LogConfig) -> LogStore {
        LogStore(LogReads {
            cfg,
            inner: Mutex::new(LogInner {
                media: BTreeMap::from([(0, Vec::new())]),
                index: Some(VolatileIndex::default()),
            }),
            metrics: StoreMetrics::new(None),
        })
    }

    /// A store whose counters are `obs`'s registered ones.
    pub fn with_obs(cfg: LogConfig, obs: &NodeObs) -> LogStore {
        let mut store = LogStore::new(cfg);
        store.0.metrics = StoreMetrics::new(Some(obs));
        store
    }

    /// Write one frame, given in `parts`, at the end of the open log
    /// segment — sealing it and opening a fresh one first if the frame
    /// will not fit. Returns where the frame landed and whether a
    /// segment was sealed.
    fn push(&self, media: &mut Media, parts: &[&[u8]]) -> (RecordPtr, bool) {
        let framed_len = parts.iter().map(|p| p.len()).sum();
        let (&open_id, open) = media
            .last_key_value()
            .expect("media always has an open segment");
        let sealed = !open.is_empty() && open.len() + framed_len > self.cfg.segment_bytes;
        if sealed {
            self.metrics.segments_sealed.inc();
        }
        let log_seg = open_id + u64::from(sealed);
        let open = media.entry(log_seg).or_default();
        let offset = open.len();
        for part in parts {
            open.extend_from_slice(part);
        }
        (
            RecordPtr {
                log_seg,
                offset,
                framed_len,
            },
            sealed,
        )
    }

    /// Append one record durably. This is the *only* way state enters
    /// the media ([`LogStore::write_page`], [`LogStore::resolve_intent`]
    /// and [`LogStore::change_replicas`] are this append, decided on
    /// the live record under the same lock); callers append before
    /// acknowledging the operation the record describes (write-ahead
    /// discipline).
    pub fn append(&self, rec: LogRecord) {
        let payload = rec.encode();
        self.append_locked(&mut self.inner.lock(), &payload);
    }

    fn append_locked(&self, inner: &mut LogInner, payload: &[u8]) {
        let len = (payload.len() as u32).to_le_bytes();
        let sum = lanesum32(payload).to_le_bytes();
        let meta = Meta::peek(payload).expect("encode writes the tag and key that peek reads");
        let (ptr, sealed) = self.push(&mut inner.media, &[&len, &sum, payload]);
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(ptr.framed_len as u64);
        // Indexed only while the volatile index is alive (after a
        // crash nothing appends until replay).
        if let Some(idx) = inner.index.as_mut() {
            idx.note(meta, ptr);
            if sealed && self.cfg.auto_compact {
                self.step(&mut inner.media, idx);
            }
        }
    }

    /// Append a `PageWrite` of `data` for page `page` of `seg` at a
    /// version picked under the store's lock, and return it: with
    /// `mirrored` `None` the live version + 1 (a primary's write), with
    /// `Some(v)` `v` if it is not below the live version (a backup's
    /// push), else nothing — nor while crashed. A push at the live
    /// version applies, as the later of two equal records wins a replay:
    /// the live image may be an ex-primary's own unacknowledged write,
    /// which the new primary's acknowledged one of that version replaces.
    /// The caller checks the page.
    pub fn write_page(
        &self,
        seg: SysName,
        page: u32,
        data: &[u8],
        mirrored: Option<u64>,
    ) -> Option<u64> {
        let data = data.to_vec();
        let mut inner = self.inner.lock();
        let live = inner.index.as_ref()?.live.get(&Slot::Page(seg, page));
        let live = live.map_or(0, |(version, _)| *version);
        let version = match mirrored {
            None => live + 1,
            Some(version) if version >= live => version,
            Some(_) => return None,
        };
        let rec = LogRecord::PageWrite {
            seg,
            page,
            version,
            data,
        };
        self.append_locked(&mut inner, &rec.encode());
        Some(version)
    }

    /// Append a `TxnResolved` for `txn` if its intent is pending, under
    /// the lock: the resolution retires the intent once, and a crashed
    /// store retires nothing.
    pub fn resolve_intent(&self, txn: u64) {
        let mut inner = self.inner.lock();
        let live = inner.index.as_ref().map(|idx| &idx.live);
        if live.is_some_and(|live| live.contains_key(&Slot::Intent(txn))) {
            self.append_locked(&mut inner, &LogRecord::TxnResolved { txn }.encode());
        }
    }

    /// Append the `ReplicaConfig` of `seg` that `change` makes of the
    /// live one ([`LogReads::replicas`]: `None` if there is none, or
    /// the store is crashed), under the lock, so no other change of it
    /// lands in between. `change` returns the config to append, `None`
    /// to append nothing, or its own error; a crashed store appends
    /// nothing. Returns whether a record was appended.
    pub fn change_replicas<E>(
        &self,
        seg: SysName,
        change: impl FnOnce(Option<ReplicaRecord>) -> Result<Option<ReplicaRecord>, E>,
    ) -> Result<bool, E> {
        let mut inner = self.inner.lock();
        let Some(config) = change(inner.replicas(seg))?.filter(|_| inner.index.is_some()) else {
            return Ok(false);
        };
        let rec = LogRecord::ReplicaConfig { seg, config };
        self.append_locked(&mut inner, &rec.encode());
        Ok(true)
    }

    /// The power failure: drop every volatile structure. The media —
    /// and nothing else — survives; [`LogReads::replay`] rebuilds the
    /// rest. Appends between crash and replay would be a bug in the
    /// caller (a crashed server serves nothing), and are not indexed;
    /// compaction does nothing until replay.
    pub fn crash(&self) {
        self.inner.lock().index = None;
    }

    /// Run compaction steps until no sealed log segment is at least
    /// half dead. `replay(compact(log)) ≡ replay(log)`, read for read,
    /// holds after every single step — pinned by the proptest suite. A
    /// no-op on a crashed store: without the index nothing says what is
    /// live.
    pub fn compact(&self) {
        let inner = &mut *self.inner.lock();
        if let Some(idx) = inner.index.as_mut() {
            while self.step(&mut inner.media, idx) {}
        }
    }

    /// One bounded compaction step: drop every fully-dead sealed log
    /// segment (nothing to copy), else reclaim the one sealed segment
    /// with the highest dead ratio, if that is at least ½. Copies at
    /// most one victim's worth of bytes; never scans, decodes an image
    /// or recomputes a checksum. Returns whether anything was
    /// reclaimed.
    fn step(&self, media: &mut Media, idx: &mut VolatileIndex) -> bool {
        let open_id = *media
            .last_key_value()
            .expect("media always has an open segment")
            .0;
        let sealed = media
            .range(..open_id)
            .map(|(id, bytes)| (*id, idx.dead.get(id).copied().unwrap_or(0), bytes.len()));
        let fully_dead = sealed.clone().filter(|(_, dead, len)| dead == len);
        let mut victims: Vec<LogSegId> = fully_dead.map(|(id, ..)| id).collect();
        if victims.is_empty() {
            let half_dead = sealed.filter(|(_, dead, len)| 2 * dead >= *len);
            let ratio = |dead: usize, len: usize| ((dead as u128) << 32) / len as u128;
            victims.extend(
                half_dead
                    .max_by_key(|(_, dead, len)| ratio(*dead, *len))
                    .map(|(id, ..)| id),
            );
        }
        if victims.is_empty() {
            return false;
        }
        let copied: u64 = victims
            .iter()
            .map(|&victim| self.reclaim(media, idx, victim))
            .sum();
        self.metrics.compactions.inc();
        self.metrics.bytes_copied.add(copied);
        self.metrics.segments_reclaimed.add(victims.len() as u64);
        true
    }

    /// Drop sealed log segment `victim`, first copying the frames the
    /// index still points at — checksum bytes and all — to the open
    /// segment. Returns the bytes copied.
    fn reclaim(&self, media: &mut Media, idx: &mut VolatileIndex, victim: LogSegId) -> u64 {
        let bytes = media.remove(&victim).expect("victim is in the media");
        let mut frames = Vec::new();
        let mut offset = 0;
        while offset < bytes.len() {
            let frame =
                frame_at(victim, &bytes, offset, false).expect("indexed media holds whole frames");
            offset += frame.1.framed_len;
            frames.push(frame);
        }
        // Tombstones last: whether one is still pinned depends on which
        // records it cancels this very segment takes with it.
        frames.sort_by_key(|(meta, _)| matches!(meta, Meta::Cancel(_)));
        let mut copied = 0;
        for (meta, from) in frames {
            if idx.evict(meta, from) {
                let frame = &bytes[from.offset..from.offset + from.framed_len];
                idx.repoint(meta, from, self.push(media, &[frame]).0);
                copied += from.framed_len as u64;
            }
        }
        idx.dead.remove(&victim);
        copied
    }
}

impl LogReads {
    /// The length of `seg`, from its live `SegmentCreate`; `None` if it
    /// has none (never created, destroyed) or the store is crashed.
    pub fn segment_len(&self, seg: SysName) -> Option<u64> {
        match self.inner.lock().live(Slot::Create(seg)).ok()?? {
            LogRecord::SegmentCreate { len, .. } => Some(len),
            _ => unreachable!("a create slot holds a create"),
        }
    }

    /// Page `page` of `seg` as a replay would rebuild it: its version
    /// and image, or `None` if it was never written — or `seg` is not
    /// live, or the store is crashed.
    pub fn read_page(&self, seg: SysName, page: u32) -> Option<(u64, Vec<u8>)> {
        match self.inner.lock().live(Slot::Page(seg, page)).ok()?? {
            LogRecord::PageWrite { version, data, .. } => Some((version, data)),
            _ => unreachable!("a page slot holds a page"),
        }
    }

    /// `seg`'s replica config, highest epoch; `None` if it has none, or
    /// no live create, or the store is crashed.
    pub fn replicas(&self, seg: SysName) -> Option<ReplicaRecord> {
        self.inner.lock().replicas(seg)
    }

    /// Transaction `txn`'s staged images if its intent is pending (a
    /// `TxnIntent` and no `TxnResolved`), `None` if it is not.
    pub fn intent(&self, txn: u64) -> Result<Option<Vec<IntentPage>>, Crashed> {
        Ok(match self.inner.lock().live(Slot::Intent(txn))? {
            Some(LogRecord::TxnIntent { pages, .. }) => Some(pages),
            None => None,
            Some(_) => unreachable!("an intent slot holds an intent"),
        })
    }

    /// Whether `txn`'s commit outcome stands (a `TxnOutcome` and no
    /// `OutcomeSettled`).
    pub fn outcome(&self, txn: u64) -> Result<bool, Crashed> {
        Ok(self.inner.lock().live(Slot::Outcome(txn))?.is_some())
    }

    /// Every live segment's replica config, as [`LogReads::replicas`]
    /// reads each; empty while crashed.
    pub fn replicated(&self) -> BTreeMap<SysName, ReplicaRecord> {
        let slots = Slot::Replicas(SysName::NIL)..Slot::Intent(0);
        self.inner.lock().walk(slots, |rec| match rec {
            LogRecord::ReplicaConfig { seg, config } => (seg, config),
            _ => unreachable!("a replica slot holds a replica config"),
        })
    }

    /// Every pending intent, as [`LogReads::intent`] reads each; empty
    /// while crashed.
    pub fn intents(&self) -> BTreeMap<u64, Vec<IntentPage>> {
        let slots = Slot::Intent(0)..Slot::Outcome(0);
        self.inner.lock().walk(slots, |rec| match rec {
            LogRecord::TxnIntent { txn, pages } => (txn, pages),
            _ => unreachable!("an intent slot holds an intent"),
        })
    }

    /// Every standing outcome, as [`LogReads::outcome`] reads each;
    /// empty while crashed.
    pub fn outcomes(&self) -> BTreeSet<u64> {
        self.inner.lock().walk(Slot::Outcome(0).., |rec| match rec {
            LogRecord::TxnOutcome { txn } => txn,
            _ => unreachable!("an outcome slot holds an outcome"),
        })
    }

    /// Whether the index is up: `false` from [`LogStore::crash`] until
    /// [`LogReads::replay`].
    pub fn is_up(&self) -> bool {
        self.inner.lock().index.is_some()
    }

    /// Scan the media and rebuild the volatile index — record pointers
    /// and per-segment headers, exactly — from each frame's header,
    /// checksum and key: no record is decoded. Torn tails are detected
    /// (length or checksum mismatch), dropped, and truncated off the
    /// media so subsequent appends land after valid data.
    pub fn replay(&self) -> ReplayOutcome {
        let mut inner = self.inner.lock();
        let (index, outcome) = scan_media(&mut inner.media);
        inner.media.retain(|_, segment| !segment.is_empty());
        if inner.media.is_empty() {
            inner.media.insert(0, Vec::new());
        }
        inner.index = Some(index);

        self.metrics.replay_records.add(outcome.records);
        self.metrics.torn_dropped.add(outcome.torn_dropped);
        outcome
    }

    /// Lifetime counters and current media shape.
    pub fn stats(&self) -> StoreStats {
        let m = &self.metrics;
        let inner = self.inner.lock();
        let index = inner.index.as_ref();
        StoreStats {
            appends: m.appends.get(),
            append_bytes: m.append_bytes.get(),
            segments_sealed: m.segments_sealed.get(),
            compactions: m.compactions.get(),
            bytes_copied: m.bytes_copied.get(),
            segments_reclaimed: m.segments_reclaimed.get(),
            media_bytes: inner.media.values().map(|s| s.len() as u64).sum(),
            media_segments: inner.media.len() as u64,
            dead_bytes: index.map_or(0, |idx| idx.dead.values().map(|d| *d as u64).sum()),
            live_slots: index.map_or(0, |idx| idx.live.len() as u64),
        }
    }
}

/// The record at `ptr`, which the index points at: decoded, image and
/// all, through the one decoder.
fn record_at(media: &Media, ptr: RecordPtr) -> LogRecord {
    let frame = &media[&ptr.log_seg][ptr.offset..ptr.offset + ptr.framed_len];
    LogRecord::decode(&frame[RECORD_HEADER_BYTES..])
        .expect("a record that passed its checksum decodes")
}

/// The frame `[len u32][lanesum32 u32][payload]` at `offset` of log
/// segment `log_seg`, or `None` if it does not parse cleanly: cut
/// short, of no known kind or — checked only if `verify` — failing its
/// checksum.
fn frame_at(
    log_seg: LogSegId,
    bytes: &[u8],
    offset: usize,
    verify: bool,
) -> Option<(Meta, RecordPtr)> {
    let mut at = offset;
    let len = get_u32(bytes, &mut at)? as usize;
    let sum = get_u32(bytes, &mut at)?;
    let payload = bytes.get(at..at.checked_add(len)?)?;
    if verify && lanesum32(payload) != sum {
        return None;
    }
    let framed_len = RECORD_HEADER_BYTES + len;
    Some((
        Meta::peek(payload)?,
        RecordPtr {
            log_seg,
            offset,
            framed_len,
        },
    ))
}

/// Scan of media bytes → the volatile index plus the scan statistics.
/// Torn tails are truncated off in place. Order-insensitive by
/// construction (versions, epochs, id-pairing, destroy-beats-create):
/// [`VolatileIndex::note`] is a join.
fn scan_media(media: &mut Media) -> (VolatileIndex, ReplayOutcome) {
    let mut index = VolatileIndex::default();
    let mut outcome = ReplayOutcome {
        records: 0,
        bytes: 0,
        log_segments: media.len() as u64,
        torn_dropped: 0,
    };
    for (&log_seg, segment) in media.iter_mut() {
        let mut offset = 0;
        while offset < segment.len() {
            // Anything that does not parse cleanly is a torn tail: drop
            // it and stop scanning this log segment (append-only means
            // nothing valid can follow a torn write).
            let Some((meta, ptr)) = frame_at(log_seg, segment, offset, true) else {
                outcome.torn_dropped += 1;
                segment.truncate(offset);
                break;
            };
            index.note(meta, ptr);
            offset += ptr.framed_len;
            outcome.records += 1;
            outcome.bytes += ptr.framed_len as u64;
        }
    }
    (index, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_ra::PAGE_SIZE;
    use clouds_simnet::SplitMix64;

    impl LogStore {
        /// Truncate `drop_bytes` off the end of the media, simulating a
        /// write torn by the power failure — which also takes the
        /// volatile index (it would describe bytes that are gone).
        fn tear_tail(&self, drop_bytes: usize) {
            let mut inner = self.inner.lock();
            inner.index = None;
            let mut remaining = drop_bytes;
            while remaining > 0 {
                let mut last = inner
                    .media
                    .last_entry()
                    .expect("media always has an open segment");
                let cut = remaining.min(last.get().len());
                let new_len = last.get().len() - cut;
                last.get_mut().truncate(new_len);
                remaining -= cut;
                if new_len == 0 && inner.media.len() > 1 {
                    inner.media.pop_last();
                } else {
                    break;
                }
            }
        }
    }

    fn seg(n: u64) -> SysName {
        SysName::from_parts(7, n)
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let records = vec![
            LogRecord::SegmentCreate {
                seg: seg(1),
                len: 16384,
            },
            LogRecord::SegmentDestroy { seg: seg(2) },
            LogRecord::PageWrite {
                seg: seg(1),
                page: 1,
                version: 3,
                data: page(9),
            },
            LogRecord::TxnIntent {
                txn: 42,
                pages: vec![IntentPage {
                    seg: seg(1),
                    page: 0,
                    data: page(1),
                }],
            },
            LogRecord::TxnResolved { txn: 42 },
            LogRecord::TxnOutcome { txn: 42 },
            LogRecord::OutcomeSettled { txn: 42 },
            LogRecord::ReplicaConfig {
                seg: seg(1),
                config: ReplicaRecord {
                    members: vec![3, 4, 5],
                    epoch: 2,
                },
            },
        ];
        for rec in records {
            let enc = rec.encode();
            assert_eq!(LogRecord::decode(&enc).as_ref(), Some(&rec));
        }
    }

    #[test]
    fn replay_survives_crash() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: 3 * PAGE_SIZE as u64,
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 1,
            data: page(1),
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 2,
            data: page(2),
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 2,
            version: 1,
            data: page(3),
        });
        store.crash();
        let out = store.replay();
        assert_eq!(store.read_page(seg(1), 0), Some((2, page(2))));
        assert_eq!(store.read_page(seg(1), 2), Some((1, page(3))));
        assert_eq!(out.records, 4);
        assert_eq!(out.torn_dropped, 0);
    }

    #[test]
    fn write_page_applies_an_equal_push_drops_an_older_one_and_writes_nothing_while_crashed() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        assert_eq!(store.write_page(seg(1), 0, &page(1), None), Some(1));
        assert_eq!(store.write_page(seg(1), 0, &page(2), Some(1)), Some(1));
        assert_eq!(store.read_page(seg(1), 0), Some((1, page(2))));
        assert_eq!(store.write_page(seg(1), 0, &page(3), None), Some(2));
        assert_eq!(store.write_page(seg(1), 0, &page(4), Some(1)), None);
        store.crash();
        assert_eq!(store.write_page(seg(1), 0, &page(5), None), None);
        let out = store.replay();
        assert_eq!(out.records, 4);
        assert_eq!(store.read_page(seg(1), 0), Some((2, page(3))));
    }

    #[test]
    fn destroy_beats_create_in_any_order() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentDestroy { seg: seg(1) });
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 1,
            data: page(1),
        });
        store.replay();
        let served = reads(&store);
        assert!(served.lens.is_empty() && served.pages.is_empty());
    }

    #[test]
    fn pending_intent_pairs_with_resolution() {
        let store = LogStore::new(LogConfig::default());
        let images = vec![IntentPage {
            seg: seg(1),
            page: 0,
            data: page(5),
        }];
        store.append(LogRecord::TxnIntent {
            txn: 1,
            pages: images.clone(),
        });
        store.append(LogRecord::TxnIntent {
            txn: 2,
            pages: images.clone(),
        });
        store.append(LogRecord::TxnResolved { txn: 1 });
        store.append(LogRecord::TxnOutcome { txn: 1 });
        store.replay();
        assert_eq!(store.intents(), BTreeMap::from([(2, images)]));
        assert_eq!(store.outcomes(), BTreeSet::from([1]));
    }

    #[test]
    fn torn_final_record_is_dropped_not_applied() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: 2 * PAGE_SIZE as u64,
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 1,
            data: page(1),
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 1,
            version: 1,
            data: page(2),
        });
        // Power fails mid-way through the last page write: the tail of
        // the record never hit the media.
        store.tear_tail(100);
        store.crash();
        let out = store.replay();
        assert_eq!(out.torn_dropped, 1);
        assert_eq!(
            store.read_page(seg(1), 0),
            Some((1, page(1))),
            "earlier records still apply"
        );
        assert_eq!(
            store.read_page(seg(1), 1),
            None,
            "torn record must not apply"
        );

        // A half-written *checksum* (garbage bytes, full length) is
        // equally torn.
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 1,
            version: 2,
            data: page(3),
        });
        store.tear_tail(1);
        {
            let mut inner = store.inner.lock();
            inner.media.last_entry().unwrap().get_mut().push(0xFF);
        }
        let out = store.replay();
        assert_eq!(out.torn_dropped, 1);
        assert_eq!(store.read_page(seg(1), 1), None);
    }

    /// Every record in the media, in media order.
    fn media_records(store: &LogStore) -> Vec<LogRecord> {
        let inner = store.inner.lock();
        let mut out = Vec::new();
        for (&id, bytes) in &inner.media {
            let mut at = 0;
            while let Some((_, ptr)) = frame_at(id, bytes, at, true) {
                let payload = &bytes[at + RECORD_HEADER_BYTES..at + ptr.framed_len];
                out.push(LogRecord::decode(payload).expect("whole record"));
                at += ptr.framed_len;
            }
            assert_eq!(at, bytes.len(), "indexed media holds whole frames");
        }
        out
    }

    /// What the read side serves of every segment, page and table
    /// these tests write.
    #[derive(Debug, PartialEq, Eq)]
    struct Reads {
        lens: BTreeMap<SysName, u64>,
        pages: BTreeMap<(SysName, u32), (u64, Vec<u8>)>,
        replicas: BTreeMap<SysName, ReplicaRecord>,
        intents: BTreeMap<u64, Vec<IntentPage>>,
        outcomes: BTreeSet<u64>,
    }

    fn reads(store: &LogReads) -> Reads {
        let segs = (0..10).map(seg);
        let pages = segs.clone().flat_map(|s| (0..4).map(move |p| (s, p)));
        Reads {
            lens: segs
                .filter_map(|s| Some((s, store.segment_len(s)?)))
                .collect(),
            pages: pages
                .filter_map(|(s, p)| Some(((s, p), store.read_page(s, p)?)))
                .collect(),
            replicas: store.replicated(),
            intents: store.intents(),
            outcomes: store.outcomes(),
        }
    }

    /// What a crash right now would recover — replayed off a copy of
    /// the media, so the store under test keeps its incremental index.
    fn recovered(store: &LogStore) -> Reads {
        let copy = LogStore::new(store.cfg.clone());
        let media = store.inner.lock().media.clone();
        copy.inner.lock().media = media;
        copy.crash();
        copy.replay();
        reads(&copy)
    }

    #[test]
    fn compaction_reclaims_sealed_segments_and_counts_what_it_copies() {
        let store = LogStore::new(LogConfig {
            segment_bytes: 64 * 1024,
            auto_compact: false,
        });
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        for version in 1..=40u64 {
            store.append(LogRecord::PageWrite {
                seg: seg(1),
                page: 0,
                version,
                data: page(version as u8),
            });
        }
        let before = store.stats();
        assert_eq!(
            before.segments_sealed, 5,
            "7 page records fit a 64 KiB segment"
        );
        assert_eq!(
            before.dead_bytes,
            39 * (before.append_bytes - 33) / 40,
            "39 of 40 page records are dead"
        );

        let replay_before = recovered(&store);
        store.compact();
        let after = store.stats();
        // Five sealed segments, all fully dead but for the create record
        // in the first; the open one is never a victim.
        assert_eq!(after.segments_reclaimed, 5);
        assert_eq!(
            after.bytes_copied, 33,
            "only the create record is copied forward"
        );
        assert_eq!(after.media_segments, 1);
        assert_eq!(
            after.append_bytes, before.append_bytes,
            "copy-forward is not an append"
        );
        assert_eq!(recovered(&store), replay_before);
        store.replay();
        assert_eq!(reads(&store), replay_before);
        assert_eq!(
            store.stats().dead_bytes,
            after.dead_bytes,
            "replay rebuilds the headers exactly"
        );
    }

    #[test]
    fn auto_compaction_bounds_media_growth() {
        let store = LogStore::new(LogConfig {
            segment_bytes: 64 * 1024,
            auto_compact: true,
        });
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        for version in 1..=200u64 {
            store.append(LogRecord::PageWrite {
                seg: seg(1),
                page: 0,
                version,
                data: page(version as u8),
            });
        }
        let stats = store.stats();
        assert!(
            stats.compactions >= 1,
            "rewriting one page 200 times must trigger compaction"
        );
        assert!(
            stats.media_bytes <= 2 * 64 * 1024,
            "media stays bounded near the live set, got {}",
            stats.media_bytes
        );
        store.replay();
        assert_eq!(store.read_page(seg(1), 0), Some((200, page(200))));
    }

    #[test]
    fn no_append_copies_more_than_a_segment_and_media_tracks_the_live_set() {
        const PAGES: u32 = 64;
        const SEGMENT: u64 = 64 * 1024;
        let store = LogStore::new(LogConfig {
            segment_bytes: SEGMENT as usize,
            auto_compact: true,
        });
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: u64::from(PAGES) * PAGE_SIZE as u64,
        });
        // Zipf(1) over the pages: cumulative weights 1/(rank+1).
        let cumulative: Vec<f64> = (0..PAGES)
            .scan(0.0, |sum, rank| {
                *sum += 1.0 / f64::from(rank + 1);
                Some(*sum)
            })
            .collect();
        let mut rng = SplitMix64::new(0xC10D5);
        let mut copied = 0;
        for version in 1..=10_000u64 {
            let u = rng.next_f64() * cumulative[PAGES as usize - 1];
            let p = cumulative.partition_point(|c| *c < u) as u32;
            store.append(LogRecord::PageWrite {
                seg: seg(1),
                page: p,
                version,
                data: page(version as u8),
            });
            let stats = store.stats();
            assert!(
                stats.bytes_copied - copied <= SEGMENT,
                "one append copied {}",
                stats.bytes_copied - copied
            );
            copied = stats.bytes_copied;
            let live = stats.media_bytes - stats.dead_bytes;
            assert!(
                stats.media_bytes <= 2 * live + 2 * SEGMENT,
                "append {version}: media {} against {live} live",
                stats.media_bytes
            );
        }
        assert!(
            copied > 0,
            "zipf overwrites leave half-dead segments to copy out of"
        );
    }

    /// The tombstone-retention rule, driven through 256-byte log
    /// segments with 81-byte filler page records: `tomb` must outlive
    /// the reclaim of its own log segment while an older one still
    /// holds `anchor`, and die once that one is gone.
    fn tombstone_outlives_its_segment_not_its_anchor(anchor: LogRecord, tomb: LogRecord) {
        let cfg = LogConfig {
            segment_bytes: 256,
            auto_compact: false,
        };
        let (store, twin) = (LogStore::new(cfg.clone()), LogStore::new(cfg));
        let both = |rec: LogRecord| {
            store.append(rec.clone());
            twin.append(rec);
        };
        let filler = |page: u32, version: u64| LogRecord::PageWrite {
            seg: seg(9),
            page,
            version,
            data: vec![version as u8; 40],
        };
        let holds = |rec: &LogRecord| media_records(&store).contains(rec);
        let tomb_len = (RECORD_HEADER_BYTES + tomb.encode().len()) as u64;

        // L0 = [anchor, f0, f1]; L1 = [f2, f2', tomb]; L2 = [f3, f2''].
        for rec in [anchor.clone(), filler(0, 1), filler(1, 1)] {
            both(rec);
        }
        for rec in [
            filler(2, 1),
            filler(2, 2),
            tomb.clone(),
            filler(3, 1),
            filler(2, 3),
        ] {
            both(rec);
        }
        assert_eq!(store.stats().media_segments, 3);
        // L1 is all dead but the tombstone; L0 only lost the anchor.
        store.compact();
        let stats = store.stats();
        assert_eq!(
            (stats.segments_reclaimed, stats.bytes_copied),
            (1, tomb_len)
        );
        assert!(
            holds(&anchor) && holds(&tomb),
            "tombstone copied forward: its anchor is still in L0"
        );
        assert_eq!(recovered(&store), recovered(&twin));

        // Overwrite L0's fillers: L0 is fully dead and goes, and the
        // anchor with it. The tombstone is dead weight from here on.
        for rec in [filler(0, 2), filler(1, 2)] {
            both(rec);
        }
        store.compact();
        assert!(!holds(&anchor) && holds(&tomb));
        assert_eq!(
            store.stats().dead_bytes,
            tomb_len,
            "unpinned tombstone counts as dead"
        );
        assert_eq!(recovered(&store), recovered(&twin));

        // Overwrite the fillers around it: its segment is reclaimed
        // and nobody copies the tombstone this time.
        for rec in [filler(3, 2), filler(2, 4)] {
            both(rec);
        }
        store.compact();
        assert!(
            !holds(&tomb),
            "tombstone dies once nothing it cancels is left"
        );
        assert_eq!(store.stats().bytes_copied, tomb_len);
        assert_eq!(recovered(&store), recovered(&twin));
        store.replay();
        twin.replay();
        assert_eq!(reads(&store), reads(&twin));
    }

    #[test]
    fn segment_destroy_outlives_its_log_segment_while_the_create_remains() {
        tombstone_outlives_its_segment_not_its_anchor(
            LogRecord::SegmentCreate {
                seg: seg(1),
                len: PAGE_SIZE as u64,
            },
            LogRecord::SegmentDestroy { seg: seg(1) },
        );
    }

    #[test]
    fn txn_resolved_outlives_its_log_segment_while_the_intent_remains() {
        tombstone_outlives_its_segment_not_its_anchor(
            LogRecord::TxnIntent {
                txn: 7,
                pages: vec![IntentPage {
                    seg: seg(1),
                    page: 0,
                    data: vec![7; 16],
                }],
            },
            LogRecord::TxnResolved { txn: 7 },
        );
    }

    #[test]
    fn outcome_settled_outlives_its_log_segment_while_the_outcome_remains() {
        tombstone_outlives_its_segment_not_its_anchor(
            LogRecord::TxnOutcome { txn: 7 },
            LogRecord::OutcomeSettled { txn: 7 },
        );
    }

    /// The registry host's pattern: each `RecordOutcome` logs the new
    /// decision and settles the one before it. Once later appends have
    /// sealed those records' segments, compaction leaves nothing of a
    /// settled transaction live, and no replay — of the compacted log or
    /// of its uncompacted twin — brings a settled outcome back.
    #[test]
    fn settled_outcomes_leave_nothing_live_after_compaction() {
        const LAST: u64 = 60;
        let cfg = LogConfig {
            segment_bytes: 256,
            auto_compact: false,
        };
        let (store, twin) = (LogStore::new(cfg.clone()), LogStore::new(cfg));
        let both = |rec: LogRecord| {
            store.append(rec.clone());
            twin.append(rec);
        };
        for txn in 1..=LAST {
            both(LogRecord::TxnOutcome { txn });
            if txn > 1 {
                both(LogRecord::OutcomeSettled { txn: txn - 1 });
            }
        }
        assert_eq!(
            store.stats().live_slots,
            1,
            "only the last outcome is unsettled"
        );
        both(LogRecord::OutcomeSettled { txn: LAST });
        assert_eq!(store.stats().live_slots, 0);
        // Four 81-byte page records overflow a 256-byte segment, so the
        // segment holding the last settlement is sealed behind them.
        for version in 1..=4 {
            both(LogRecord::PageWrite {
                seg: seg(9),
                page: 0,
                version,
                data: vec![version as u8; 40],
            });
        }
        store.compact();
        let stats = store.stats();
        assert!(stats.segments_reclaimed >= 8, "{stats:?}");
        assert_eq!(stats.live_slots, 1, "the last page record");
        assert_eq!(
            stats.media_bytes - stats.dead_bytes,
            81,
            "no settled outcome and no tombstone of one is live"
        );
        assert!(recovered(&store).outcomes.is_empty());
        assert!(recovered(&twin).outcomes.is_empty());
        store.crash();
        store.replay();
        assert!(store.outcomes().is_empty());
        assert_eq!(
            store.stats().live_slots,
            1,
            "replay rebuilds the same index"
        );
    }

    #[test]
    fn destroy_charges_the_records_it_cancels_at_their_own_lengths() {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: 2 * PAGE_SIZE as u64,
        });
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 1,
            data: page(1),
        });
        store.append(LogRecord::ReplicaConfig {
            seg: seg(1),
            config: ReplicaRecord {
                members: vec![1, 2],
                epoch: 1,
            },
        });
        let live = store.stats().append_bytes;
        store.append(LogRecord::SegmentDestroy { seg: seg(1) });
        // Create, page and replica config die at their own framed
        // lengths; the destroy record is pinned by the create, not dead.
        assert_eq!(store.stats().dead_bytes, live);
        store.crash();
        store.replay();
        assert_eq!(
            store.stats().dead_bytes,
            live,
            "and replay reaches the same header"
        );
    }

    #[test]
    fn compaction_is_a_no_op_on_a_crashed_or_torn_store() {
        let cfg = LogConfig {
            segment_bytes: 64 * 1024,
            auto_compact: true,
        };
        let store = LogStore::new(cfg);
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        let fill = |range: std::ops::RangeInclusive<u64>| {
            for version in range {
                store.append(LogRecord::PageWrite {
                    seg: seg(1),
                    page: 0,
                    version,
                    data: page(version as u8),
                });
            }
        };
        fill(1..=6);
        store.crash();
        // Appends on a crashed store seal segments but must not step,
        // and neither may an explicit compact: nothing says what is live.
        fill(7..=30);
        store.compact();
        let crashed = store.stats();
        assert_eq!((crashed.compactions, crashed.dead_bytes), (0, 0));
        assert_eq!(crashed.media_bytes, crashed.append_bytes);
        store.replay();
        assert_eq!(store.read_page(seg(1), 0), Some((30, page(30))));

        // tear_tail invalidates the index it would otherwise leave
        // pointing past the end of the media.
        store.tear_tail(100);
        assert_eq!(
            store.stats().dead_bytes,
            0,
            "index dropped with the torn bytes"
        );
        store.compact();
        assert_eq!(store.stats().compactions, 0);
        store.replay();
        assert_eq!(store.read_page(seg(1), 0), Some((29, page(29))));
        store.compact();
        assert!(
            store.stats().compactions > 0,
            "replay brings compaction back"
        );
        assert_eq!(recovered(&store).pages[&(seg(1), 0)], (29, page(29)));
    }

    /// A create record followed by one page record, as raw media bytes,
    /// and the offset the page record starts at.
    fn create_then_page() -> (Vec<u8>, usize) {
        let store = LogStore::new(LogConfig::default());
        store.append(LogRecord::SegmentCreate {
            seg: seg(1),
            len: PAGE_SIZE as u64,
        });
        let start = store.stats().media_bytes as usize;
        let data = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
        store.append(LogRecord::PageWrite {
            seg: seg(1),
            page: 0,
            version: 1,
            data,
        });
        let bytes = store.inner.lock().media[&0].clone();
        (bytes, start)
    }

    /// Replay `bytes` as a one-segment media and require the page
    /// record torn: reported, truncated off, and not applied.
    fn assert_page_torn(bytes: Vec<u8>, start: usize, what: &str) {
        let store = LogStore::new(LogConfig::default());
        store.inner.lock().media = BTreeMap::from([(0, bytes)]);
        let out = store.replay();
        assert_eq!((out.records, out.torn_dropped), (1, 1), "{what}");
        assert_eq!(store.segment_len(seg(1)), Some(PAGE_SIZE as u64), "{what}");
        assert_eq!(
            store.read_page(seg(1), 0),
            None,
            "{what}: torn page applied"
        );
        assert_eq!(
            store.stats().media_bytes as usize,
            start,
            "{what}: torn bytes stay on the media"
        );
    }

    #[test]
    fn every_single_bit_flip_of_a_page_record_is_torn() {
        let (pristine, start) = create_then_page();
        for byte in start..pristine.len() {
            for bit in 0..8 {
                let mut bytes = pristine.clone();
                bytes[byte] ^= 1 << bit;
                assert_page_torn(bytes, start, &format!("bit {bit} of byte {byte}"));
            }
        }
    }

    #[test]
    fn every_truncation_point_of_a_page_record_is_torn() {
        let (pristine, start) = create_then_page();
        for keep in start + 1..pristine.len() {
            assert_page_torn(pristine[..keep].to_vec(), start, &format!("cut at {keep}"));
        }
    }

    #[test]
    fn replay_cost_charges_seek_plus_stream() {
        let cost = replay_cost(1_000_000, 4);
        assert_eq!(cost, Vt::from_millis(40) + Vt::from_millis(1_000));
    }
}
