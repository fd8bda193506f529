//! Partitions and the per-node page-frame cache (§4.1, §4.2).
//!
//! "A partition is an entity that provides non-volatile data storage for
//! segments. … In order to access a segment, the partition containing
//! the segment has to be contacted. The partition communicates with the
//! data server where the segment is stored to page the segment in and
//! out when necessary. Note that Ra only defines the interface to the
//! partitions."
//!
//! Ra defines [`Partition`]; two implementations exist:
//!
//! * [`LocalPartition`] (here) — backed directly by a [`SegmentStore`],
//!   used by single-node configurations. It charges
//!   the paper's page-fault service costs to the node clock.
//! * `DsmClientPartition` (in `clouds-dsm`) — pages segments over RaTP
//!   from remote data servers with coherence.
//!
//! The [`PageCache`] is the node's "physical memory": resident page
//! frames shared by all address spaces on the node, with LRU eviction
//! and write-back.

use crate::segment::SegmentStore;
use crate::sysname::SysName;
use crate::Result;
use clouds_simnet::{CostModel, FastMap, VirtualClock};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a page will be used; determines the coherence mode requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessMode {
    /// Read-only access; many nodes may share the page.
    Read,
    /// Read–write access; requires exclusive ownership under DSM.
    Write,
}

/// One dirty page handed to [`Partition::write_back_batch`].
#[derive(Debug, Clone)]
pub struct WriteBackItem {
    /// Segment the page belongs to.
    pub seg: SysName,
    /// Page index within the segment.
    pub page: u32,
    /// Full page contents ([`PAGE_SIZE`](crate::PAGE_SIZE) bytes).
    pub data: Vec<u8>,
}

/// A page delivered by a partition.
#[derive(Debug, Clone)]
pub struct PageFetch {
    /// Exactly [`PAGE_SIZE`](crate::PAGE_SIZE) bytes.
    pub data: Vec<u8>,
    /// Version counter at the canonical store.
    pub version: u64,
    /// True if the page had never been written (zero-fill fault).
    pub zero_filled: bool,
    /// Coherence grant sequence number; echoed back through
    /// [`Partition::ack_page_install`] once the frame is resident, so
    /// the manager knows recalls can no longer miss the copy. Zero for
    /// partitions without a coherence protocol.
    pub grant_seq: u64,
}

/// Interface between virtual memory and segment storage.
///
/// All methods may block (the DSM implementation performs network
/// transactions); callers inside IsiBas should wrap faults in
/// [`crate::sched::IsiBaCtx::blocking`].
pub trait Partition: Send + Sync {
    /// Create a segment of `len` zero bytes.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentExists`](crate::RaError::SegmentExists) if the sysname is taken;
    /// [`RaError::PartitionUnavailable`](crate::RaError::PartitionUnavailable) if storage is unreachable.
    fn create_segment(&self, seg: SysName, len: u64) -> Result<()>;

    /// Destroy a segment permanently.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`](crate::RaError::SegmentNotFound) if absent.
    fn destroy_segment(&self, seg: SysName) -> Result<()>;

    /// Length of a segment in bytes.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`](crate::RaError::SegmentNotFound) if absent.
    fn segment_len(&self, seg: SysName) -> Result<u64>;

    /// Fetch one page in the given mode (demand paging), relinquishing
    /// the copies in `release` — frames the page cache has already
    /// detached, and written back if they were dirty, to make room for
    /// this one. A coherent partition sends the releases on the fetch
    /// message, so an eviction costs no round trip of its own; one
    /// without coherence state has nothing to relinquish.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`](crate::RaError::SegmentNotFound) / [`RaError::OutOfRange`](crate::RaError::OutOfRange) for bad
    /// addresses; [`RaError::PartitionUnavailable`](crate::RaError::PartitionUnavailable) on data-server
    /// failure.
    fn fetch_page(
        &self,
        seg: SysName,
        page: u32,
        mode: AccessMode,
        release: &[(SysName, u32)],
    ) -> Result<PageFetch>;

    /// Write dirty pages back to the canonical store, returning one
    /// result per item (aligned with the input): the page's new version,
    /// or why it was not written. The frames stay held by the caller in
    /// whatever coherence mode they were in — this is a write-*through*,
    /// not a release; an eviction gives the copy up on its next
    /// [`Partition::fetch_page`].
    fn write_back_batch(&self, pages: &[WriteBackItem]) -> Vec<Result<u64>>;

    /// Acknowledge that the page from a [`Partition::fetch_page`] grant
    /// is now resident locally. Coherence-managed partitions forward
    /// this to the manager; the default is a no-op.
    ///
    /// Every [`Partition::fetch_page`] grant MUST eventually be
    /// acknowledged — either by the page cache once the frame is
    /// resident, or immediately by the caller when the page is not
    /// retained (use [`Partition::fetch_page_transient`] for that).
    fn ack_page_install(&self, seg: SysName, page: u32, grant_seq: u64) {
        let _ = (seg, page, grant_seq);
    }

    /// Fetch a page read-only without retaining a coherent copy: the
    /// grant is acknowledged immediately. For one-shot reads (object
    /// headers, code paging) outside the page cache.
    ///
    /// # Errors
    ///
    /// As for [`Partition::fetch_page`].
    fn fetch_page_transient(&self, seg: SysName, page: u32) -> Result<PageFetch> {
        let fetch = self.fetch_page(seg, page, AccessMode::Read, &[])?;
        self.ack_page_install(seg, page, fetch.grant_seq);
        Ok(fetch)
    }
}

/// Partition backed by a local [`SegmentStore`] — the configuration of a
/// machine whose disk holds the segments it uses.
pub struct LocalPartition {
    store: SegmentStore,
    clock: Arc<VirtualClock>,
    cost: CostModel,
}

impl fmt::Debug for LocalPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalPartition")
            .field("segments", &self.store.len())
            .finish()
    }
}

impl LocalPartition {
    /// Wrap a segment store, charging fault costs to `clock`.
    pub fn new(store: SegmentStore, clock: Arc<VirtualClock>, cost: CostModel) -> LocalPartition {
        LocalPartition { store, clock, cost }
    }

    /// The underlying store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }
}

impl Partition for LocalPartition {
    fn create_segment(&self, seg: SysName, len: u64) -> Result<()> {
        self.store.create(seg, len)
    }

    fn destroy_segment(&self, seg: SysName) -> Result<()> {
        self.store.destroy(seg)
    }

    fn segment_len(&self, seg: SysName) -> Result<u64> {
        Ok(self.store.get(seg)?.read().len())
    }

    fn fetch_page(
        &self,
        seg: SysName,
        page: u32,
        _mode: AccessMode,
        _release: &[(SysName, u32)],
    ) -> Result<PageFetch> {
        let segment = self.store.get(seg)?;
        let segment = segment.read();
        let zero_filled = !segment.is_page_materialized(page);
        let data = segment.read_page(page)?;
        // Paper §4.3: 1.5 ms to service a zero-filled 8K fault, 0.629 ms
        // for a non-zero-filled (copied) page.
        self.clock.charge(if zero_filled {
            self.cost.page_fault_zero
        } else {
            self.cost.page_fault_copy
        });
        Ok(PageFetch {
            data,
            version: segment.page_version(page),
            zero_filled,
            grant_seq: 0,
        })
    }

    fn write_back_batch(&self, pages: &[WriteBackItem]) -> Vec<Result<u64>> {
        pages
            .iter()
            .map(|p| self.store.get(p.seg)?.write().write_page(p.page, &p.data))
            .collect()
    }
}

/// A resident page frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Page contents ([`PAGE_SIZE`](crate::PAGE_SIZE) bytes).
    pub data: Vec<u8>,
    /// Mode the frame is held in.
    pub mode: AccessMode,
    /// Whether the frame has unwritten modifications.
    pub dirty: bool,
    /// Version the frame was fetched at.
    pub version: u64,
}

/// Why a slot is temporarily unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusyKind {
    /// A fault is in flight; the local copy (if any) has been dropped.
    Fetch,
    /// An eviction write-back is in flight; the latest data is still on
    /// its way to the canonical store.
    Evict,
}

enum Slot {
    /// A fault or eviction is in progress.
    Busy(BusyKind),
    Present {
        frame: Frame,
        /// Stamp of this slot's newest entry in the lazy LRU queue; older
        /// queue entries for the key are stale and skipped on eviction.
        touch: u64,
        /// Installed speculatively by read-ahead and not yet accessed.
        prefetched: bool,
    },
}

#[derive(Default)]
struct CacheInner {
    slots: FastMap<(SysName, u32), Slot>,
    /// Lazily pruned LRU queue of `(key, stamp)` pairs. An entry is live
    /// iff the slot is `Present` with a matching `touch` stamp, which
    /// makes every touch O(1) (append-only) instead of a linear scan.
    lru: VecDeque<((SysName, u32), u64)>,
    /// Monotonic stamp source for `lru` entries.
    touch_counter: u64,
    /// Number of `Present` slots, kept by [`CacheInner::put_present`] and
    /// [`CacheInner::take_present`] so no miss has to scan the table.
    resident: usize,
    /// Number of `Busy(Fetch)` slots: faults in flight, each of which
    /// will fill one frame when it lands.
    fetching: usize,
}

impl CacheInner {
    /// Install `frame` under `key` as the most recently used frame.
    fn put_present(&mut self, key: (SysName, u32), frame: Frame, prefetched: bool) {
        let slot = Slot::Present {
            frame,
            touch: 0,
            prefetched,
        };
        let old = self.slots.insert(key, slot);
        debug_assert!(!matches!(old, Some(Slot::Present { .. })));
        self.resident += 1;
        PageCache::touch_lru(self, key);
    }

    /// Remove and return the frame under `key` (with its unused
    /// read-ahead flag) if one is resident; busy slots are left alone.
    /// Its LRU entries go stale and are skipped lazily.
    fn take_present(&mut self, key: (SysName, u32)) -> Option<(Frame, bool)> {
        match self.slots.remove(&key)? {
            Slot::Present {
                frame, prefetched, ..
            } => {
                self.resident -= 1;
                Some((frame, prefetched))
            }
            busy => {
                self.slots.insert(key, busy);
                None
            }
        }
    }

    /// Mark `key` as being faulted in (the slot must not hold a frame).
    fn begin_fetch(&mut self, key: (SysName, u32)) {
        self.slots.insert(key, Slot::Busy(BusyKind::Fetch));
        self.fetching += 1;
    }

    /// Frames neither resident nor promised to a fault in flight.
    fn free_frames(&self, capacity: usize) -> usize {
        capacity.saturating_sub(self.resident + self.fetching)
    }

    /// Detach up to `n` least-recently-used frames, leaving each slot
    /// `Busy(Evict)` until its owner has settled the eviction. The
    /// returned flag reports an unused read-ahead frame.
    fn detach_victims(&mut self, n: usize) -> Vec<((SysName, u32), Frame, bool)> {
        let mut victims = Vec::with_capacity(n);
        while victims.len() < n {
            let Some((key, stamp)) = self.lru.pop_front() else {
                break;
            };
            // Anything else is a stale entry (slot busy, gone, or
            // re-touched since); keep scanning.
            if matches!(self.slots.get(&key), Some(Slot::Present { touch, .. }) if *touch == stamp)
            {
                let (frame, prefetched) = self.take_present(key).expect("matched above");
                self.slots.insert(key, Slot::Busy(BusyKind::Evict));
                victims.push((key, frame, prefetched));
            }
        }
        victims
    }

    /// Debug builds re-count what the counters claim.
    fn debug_check_counters(&self) {
        if cfg!(debug_assertions) {
            let (mut resident, mut fetching) = (0, 0);
            #[expect(
                clippy::iter_over_hash_type,
                clippy::disallowed_methods,
                reason = "commutative counts"
            )]
            for slot in self.slots.values() {
                match slot {
                    Slot::Present { .. } => resident += 1,
                    Slot::Busy(BusyKind::Fetch) => fetching += 1,
                    Slot::Busy(BusyKind::Evict) => {}
                }
            }
            debug_assert_eq!((self.resident, self.fetching), (resident, fetching));
        }
    }
}

/// Frames set aside by [`PageCache::make_room`]. The victims it names —
/// clean ones, and dirty ones already written back — are detached but
/// still marked in the cache, so local faults and recalls on those pages
/// wait; dropping the `Room` clears the markers. Drop it only once the
/// victims' coherence state has been relinquished — a page re-fetched
/// before its release lands would lose the new copy to the old release.
pub struct Room<'a> {
    cache: &'a PageCache,
    frames: usize,
    clean: Vec<(SysName, u32)>,
}

impl Room<'_> {
    /// Frames free for speculative installs (never more than asked for).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Victims, clean or written back, whose copies the caller must
    /// still relinquish.
    pub fn clean_victims(&self) -> &[(SysName, u32)] {
        &self.clean
    }

    /// The caller wakes the waiters once it is done with the lock.
    fn clear_markers(&mut self, inner: &mut CacheInner) {
        for key in self.clean.drain(..) {
            if matches!(inner.slots.get(&key), Some(Slot::Busy(BusyKind::Evict))) {
                inner.slots.remove(&key);
            }
        }
    }
}

impl Drop for Room<'_> {
    fn drop(&mut self) {
        if !self.clean.is_empty() {
            self.clear_markers(&mut self.cache.inner.lock());
            self.cache.cvar.notify_all();
        }
    }
}

impl fmt::Debug for Room<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Room")
            .field("frames", &self.frames)
            .field("clean", &self.clean)
            .finish()
    }
}

/// Result of [`PageCache::reclaim`], used by the DSM client service when
/// the data server recalls a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReclaimOutcome {
    /// The page was not resident (already evicted).
    NotPresent,
    /// The page was resident; contains the latest data if it was dirty.
    Taken {
        /// Dirty contents that must reach the canonical store, if any.
        dirty_data: Option<Vec<u8>>,
    },
}

/// Counters describing fault behaviour; basis of experiment E1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses satisfied from a resident frame.
    pub hits: u64,
    /// Faults that required a partition fetch.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Mode upgrades (shared ➜ exclusive).
    pub upgrades: u64,
    /// Read-ahead frames installed speculatively.
    pub prefetch_installs: u64,
    /// Accesses satisfied by a frame that read-ahead installed (a fault
    /// and its round trip avoided).
    pub prefetch_hits: u64,
    /// Read-ahead frames evicted or reclaimed before any access used
    /// them (wasted transfer).
    pub prefetch_wasted: u64,
}

/// The node's resident page frames ("physical memory"), shared by every
/// address space on the node.
pub struct PageCache {
    inner: Mutex<CacheInner>,
    cvar: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    upgrades: AtomicU64,
    prefetch_installs: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
}

impl fmt::Debug for PageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageCache")
            .field("resident", &self.inner.lock().resident)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl PageCache {
    /// A cache holding at most `capacity` page frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PageCache {
        assert!(capacity > 0, "page cache needs at least one frame");
        PageCache {
            inner: Mutex::new(CacheInner::default()),
            cvar: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
            prefetch_installs: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
        }
    }

    /// Access a page in `mode`, faulting it in through `partition` if
    /// necessary, and run `f` on the resident frame.
    ///
    /// Writes through `f` must set `frame.dirty = true` (the
    /// [`crate::AddressSpace`] write path does this).
    ///
    /// # Errors
    ///
    /// Propagates partition errors from the fault path.
    pub fn access<R>(
        &self,
        key: (SysName, u32),
        mode: AccessMode,
        partition: &dyn Partition,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R> {
        loop {
            let mut inner = self.inner.lock();
            match inner.slots.get_mut(&key) {
                Some(Slot::Present {
                    frame, prefetched, ..
                }) if frame.mode >= mode => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if std::mem::take(prefetched) {
                        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let result = f(frame);
                    Self::touch_lru(&mut inner, key);
                    return Ok(result);
                }
                Some(Slot::Present { .. }) => {
                    // Mode upgrade: refetch exclusively. Take the slot so
                    // concurrent faulters wait. The shared copy is clean
                    // by construction (writes require exclusive mode), so
                    // dropping it loses nothing.
                    self.upgrades.fetch_add(1, Ordering::Relaxed);
                    inner.take_present(key);
                }
                Some(Slot::Busy(_)) => {
                    self.cvar.wait(&mut inner);
                    continue;
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
            inner.begin_fetch(key);
            drop(inner);
            // The fault in flight already counts as an occupied frame,
            // so asking for nothing extra evicts down to capacity.
            let room = self.make_room(0, partition);
            return self.fault_in(key, mode, partition, room, f);
        }
    }

    fn fault_in<R>(
        &self,
        key: (SysName, u32),
        mode: AccessMode,
        partition: &dyn Partition,
        mut room: Room<'_>,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R> {
        let fetched = partition.fetch_page(key.0, key.1, mode, room.clean_victims());
        let mut inner = self.inner.lock();
        room.clear_markers(&mut inner);
        inner.fetching -= 1;
        match fetched {
            Ok(page) => {
                let grant_seq = page.grant_seq;
                let mut frame = Frame {
                    data: page.data,
                    mode,
                    dirty: false,
                    version: page.version,
                };
                let result = f(&mut frame);
                inner.put_present(key, frame, false);
                self.cvar.notify_all();
                drop(inner);
                // The frame is now visible to recalls: tell the manager
                // so it may issue the next grant for this page.
                partition.ack_page_install(key.0, key.1, grant_seq);
                Ok(result)
            }
            Err(e) => {
                inner.slots.remove(&key);
                self.cvar.notify_all();
                Err(e)
            }
        }
    }

    /// O(1) amortized touch: bump the stamp stored in the slot and append
    /// a fresh queue entry. Older entries for the key become stale (their
    /// stamp no longer matches) and are skipped by
    /// [`CacheInner::detach_victims`]; the queue is pruned wholesale when
    /// it outgrows the slot table, so its length stays bounded by
    /// `2 * slots + 64`.
    fn touch_lru(inner: &mut CacheInner, key: (SysName, u32)) {
        inner.touch_counter += 1;
        let stamp = inner.touch_counter;
        if let Some(Slot::Present { touch, .. }) = inner.slots.get_mut(&key) {
            *touch = stamp;
        }
        inner.lru.push_back((key, stamp));
        if inner.lru.len() > 2 * inner.slots.len() + 64 {
            let CacheInner { slots, lru, .. } = inner;
            lru.retain(
                |(k, s)| matches!(slots.get(k), Some(Slot::Present { touch, .. }) if touch == s),
            );
        }
    }

    /// Make room for `want` more frames than the cache already holds or
    /// has promised to faults in flight: detach as many least-recently-
    /// used victims as that takes, in one pass. The dirty victims are
    /// written back through `partition` in one
    /// [`Partition::write_back_batch`] before this returns (one that
    /// cannot be written goes back in, still dirty, and frees nothing —
    /// an eviction must not lose data, and the error resurfaces at the
    /// next [`PageCache::flush`]). Every victim, written or clean, is
    /// handed back in the [`Room`], still marked in the cache, for the
    /// caller to release — typically on the very message that fetches
    /// the pages the room is for.
    ///
    /// This is the cache's only eviction path: the fault path asks for
    /// zero extra frames, a partition that reads ahead asks for its
    /// window and then fetches no more than [`Room::frames`].
    pub fn make_room(&self, want: usize, partition: &dyn Partition) -> Room<'_> {
        let mut inner = self.inner.lock();
        inner.debug_check_counters();
        let need = (inner.resident + inner.fetching + want).saturating_sub(self.capacity);
        let mut room = Room {
            cache: self,
            frames: 0,
            clean: Vec::new(),
        };
        let mut dirty = Vec::new();
        for (key, frame, prefetched) in inner.detach_victims(need) {
            if prefetched {
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
            if frame.dirty {
                dirty.push((key, frame));
            } else {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                room.clean.push(key);
            }
        }
        if !dirty.is_empty() {
            drop(inner);
            let written = write_back(partition, &dirty);
            inner = self.inner.lock();
            for ((key, frame), written) in dirty.into_iter().zip(written) {
                // A crash simulation may have wiped the marker meanwhile.
                if !matches!(inner.slots.get(&key), Some(Slot::Busy(BusyKind::Evict))) {
                    continue;
                }
                if written.is_ok() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    room.clean.push(key);
                } else {
                    inner.put_present(key, frame, false);
                }
            }
            self.cvar.notify_all();
        }
        room.frames = want.min(inner.free_frames(self.capacity));
        room
    }

    /// Recall a page on behalf of the DSM server: removes the frame
    /// (waiting out any in-flight fault) and returns dirty data if the
    /// local copy was modified.
    pub fn reclaim(&self, key: (SysName, u32)) -> ReclaimOutcome {
        let mut inner = self.inner.lock();
        loop {
            match inner.slots.get(&key) {
                // A fetch in flight means the local copy was dropped; the
                // fetch will be (re)serialized by the data server, so the
                // page is effectively not here. Waiting would deadlock
                // with the server-side coherence transition.
                Some(Slot::Busy(BusyKind::Fetch)) => return ReclaimOutcome::NotPresent,
                // An eviction's dirty data is still in flight to the
                // store: wait it out so the caller sees it there.
                Some(Slot::Busy(BusyKind::Evict)) => self.cvar.wait(&mut inner),
                Some(Slot::Present { .. }) => {
                    let (frame, prefetched) = inner.take_present(key).expect("checked above");
                    if prefetched {
                        self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
                    }
                    self.cvar.notify_all();
                    return ReclaimOutcome::Taken {
                        dirty_data: frame.dirty.then_some(frame.data),
                    };
                }
                None => return ReclaimOutcome::NotPresent,
            }
        }
    }

    /// Downgrade an exclusively held page to shared, returning dirty
    /// data that must reach the canonical store.
    pub fn downgrade(&self, key: (SysName, u32)) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        loop {
            match inner.slots.get_mut(&key) {
                Some(Slot::Busy(BusyKind::Fetch)) => return None,
                Some(Slot::Busy(BusyKind::Evict)) => self.cvar.wait(&mut inner),
                Some(Slot::Present { frame, .. }) => {
                    frame.mode = AccessMode::Read;
                    let dirty = std::mem::take(&mut frame.dirty);
                    return dirty.then(|| frame.data.clone());
                }
                None => return None,
            }
        }
    }

    /// Write every dirty frame back through `partition` (e.g. at commit
    /// or orderly shutdown), leaving frames resident and clean.
    ///
    /// All dirty frames are detached behind Busy(Evict) markers in one
    /// lock pass and shipped through [`Partition::write_back_batch`], so
    /// a coherent partition can coalesce an N-page commit into one round
    /// trip per home server instead of N. While a frame's data is in
    /// flight a concurrent DSM recall waits for the write-back instead of
    /// reporting a stale-clean copy — reporting clean early would serve
    /// other nodes stale canonical data (a lost update).
    ///
    /// # Errors
    ///
    /// Propagates the first write-back failure (failed frames are
    /// reinstated dirty so the data is not lost).
    pub fn flush(&self, partition: &dyn Partition) -> Result<()> {
        // Detach every dirty frame behind an Evict marker in one pass.
        let mut detached: Vec<((SysName, u32), Frame)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            #[expect(
                clippy::disallowed_methods,
                reason = "sorted below, so write-back runs in (seg, page) order"
            )]
            let mut dirty_keys: Vec<(SysName, u32)> = inner
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Present { frame, .. } if frame.dirty => Some(*key),
                    _ => None,
                })
                .collect();
            dirty_keys.sort();
            for key in dirty_keys {
                let (frame, _) = inner
                    .take_present(key)
                    .expect("selected above under the same lock");
                inner.slots.insert(key, Slot::Busy(BusyKind::Evict));
                detached.push((key, frame));
            }
        }
        if detached.is_empty() {
            return Ok(());
        }
        let results = write_back(partition, &detached);
        let mut first_err = None;
        let mut inner = self.inner.lock();
        for ((key, mut frame), result) in detached.into_iter().zip(results) {
            // Only reinstate if nobody reclaimed the page meanwhile.
            if matches!(inner.slots.get(&key), Some(Slot::Busy(BusyKind::Evict))) {
                frame.dirty = result.is_err();
                inner.put_present(key, frame, false);
            }
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        self.cvar.notify_all();
        drop(inner);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// How many of the `max` pages right after `key` in its segment have
    /// no frame here and no fault or eviction in flight, counted up to
    /// the first that has: the pages a read-ahead from `key` could still
    /// install.
    pub fn absent_after(&self, key: (SysName, u32), max: u32) -> usize {
        let inner = self.inner.lock();
        (1..=max)
            .map_while(|i| key.1.checked_add(i))
            .take_while(|&page| !inner.slots.contains_key(&(key.0, page)))
            .count()
    }

    /// Install a speculatively fetched page as a clean frame in the mode
    /// it was granted in (read-ahead). An exclusive one is written like
    /// any other frame; until then a recall finds it clean and an
    /// eviction just releases it. Returns `false` — dropping the data —
    /// only when the page is already resident or busy. Capacity is the
    /// caller's business: ask [`PageCache::make_room`] first and fetch no
    /// more pages than the [`Room`] has frames.
    pub fn install_prefetched(
        &self,
        key: (SysName, u32),
        data: Vec<u8>,
        version: u64,
        mode: AccessMode,
    ) -> bool {
        let mut inner = self.inner.lock();
        if inner.slots.contains_key(&key) {
            return false;
        }
        let frame = Frame {
            data,
            mode,
            dirty: false,
            version,
        };
        inner.put_present(key, frame, true);
        self.prefetch_installs.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drop all frames without write-back (crash simulation). Faults in
    /// flight keep their markers and land in the emptied cache.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        #[expect(
            clippy::disallowed_methods,
            reason = "retain drops entries independently; visit order cannot be observed"
        )]
        inner
            .slots
            .retain(|_, slot| matches!(slot, Slot::Busy(BusyKind::Fetch)));
        inner.resident = 0;
        inner.lru.clear();
        inner.touch_counter = 0;
        self.cvar.notify_all();
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.inner.lock().resident
    }

    /// Frame capacity the cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            prefetch_installs: self.prefetch_installs.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
        }
    }
}

/// Write detached frames back in one [`Partition::write_back_batch`],
/// one result per frame: a partition that answers short fails the rest.
fn write_back(partition: &dyn Partition, frames: &[((SysName, u32), Frame)]) -> Vec<Result<u64>> {
    let items: Vec<WriteBackItem> = frames
        .iter()
        .map(|((seg, page), frame)| WriteBackItem {
            seg: *seg,
            page: *page,
            data: frame.data.clone(),
        })
        .collect();
    let mut results = partition.write_back_batch(&items);
    debug_assert_eq!(results.len(), items.len());
    results.resize_with(items.len(), || {
        Err(crate::RaError::PartitionUnavailable(
            "write_back_batch returned too few results".into(),
        ))
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RaError;
    use crate::segment::PAGE_SIZE;
    use clouds_simnet::Vt;

    fn setup(capacity: usize) -> (Arc<LocalPartition>, PageCache, Arc<VirtualClock>, SysName) {
        let clock = Arc::new(VirtualClock::new());
        let store = SegmentStore::new();
        let seg = SysName::from_parts(1, 1);
        store.create(seg, 8 * PAGE_SIZE as u64).unwrap();
        let part = Arc::new(LocalPartition::new(
            store,
            Arc::clone(&clock),
            CostModel::sun3_ethernet(),
        ));
        (part, PageCache::new(capacity), clock, seg)
    }

    #[test]
    fn zero_fill_fault_charges_paper_cost() {
        let (part, cache, clock, seg) = setup(4);
        cache
            .access((seg, 0), AccessMode::Read, &*part, |f| {
                assert_eq!(f.data.len(), PAGE_SIZE);
                assert!(f.data.iter().all(|&b| b == 0));
            })
            .unwrap();
        assert_eq!(clock.now(), Vt::from_micros(1500));
    }

    #[test]
    fn copy_fault_charges_smaller_cost() {
        let (part, cache, clock, seg) = setup(4);
        // Materialize page 0 in the store first.
        part.store()
            .get(seg)
            .unwrap()
            .write()
            .write(0, b"data")
            .unwrap();
        cache
            .access((seg, 0), AccessMode::Read, &*part, |f| {
                assert_eq!(&f.data[..4], b"data");
            })
            .unwrap();
        assert_eq!(clock.now(), Vt::from_micros(629));
    }

    #[test]
    fn hit_charges_nothing() {
        let (part, cache, clock, seg) = setup(4);
        cache
            .access((seg, 0), AccessMode::Read, &*part, |_| {})
            .unwrap();
        let after_fault = clock.now();
        cache
            .access((seg, 0), AccessMode::Read, &*part, |_| {})
            .unwrap();
        assert_eq!(clock.now(), after_fault);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (part, cache, _clock, seg) = setup(1);
        cache
            .access((seg, 0), AccessMode::Write, &*part, |f| {
                f.data[0] = 0xAA;
                f.dirty = true;
            })
            .unwrap();
        // Touch another page; capacity 1 forces eviction of page 0.
        cache
            .access((seg, 1), AccessMode::Read, &*part, |_| {})
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let stored = part.store().get(seg).unwrap().read().read(0, 1).unwrap();
        assert_eq!(stored[0], 0xAA);
    }

    #[test]
    fn reclaim_returns_dirty_data() {
        let (part, cache, _clock, seg) = setup(4);
        cache
            .access((seg, 2), AccessMode::Write, &*part, |f| {
                f.data[7] = 9;
                f.dirty = true;
            })
            .unwrap();
        match cache.reclaim((seg, 2)) {
            ReclaimOutcome::Taken {
                dirty_data: Some(d),
            } => assert_eq!(d[7], 9),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.reclaim((seg, 2)), ReclaimOutcome::NotPresent);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn reclaim_clean_page_has_no_data() {
        let (part, cache, _clock, seg) = setup(4);
        cache
            .access((seg, 0), AccessMode::Read, &*part, |_| {})
            .unwrap();
        assert_eq!(
            cache.reclaim((seg, 0)),
            ReclaimOutcome::Taken { dirty_data: None }
        );
    }

    #[test]
    fn downgrade_clears_dirty_and_mode() {
        let (part, cache, _clock, seg) = setup(4);
        cache
            .access((seg, 0), AccessMode::Write, &*part, |f| {
                f.data[0] = 5;
                f.dirty = true;
            })
            .unwrap();
        let dirty = cache.downgrade((seg, 0));
        assert_eq!(dirty.unwrap()[0], 5);
        // Second downgrade: already clean.
        assert!(cache.downgrade((seg, 0)).is_none());
        // A subsequent write access needs an upgrade.
        cache
            .access((seg, 0), AccessMode::Write, &*part, |f| {
                f.dirty = true;
            })
            .unwrap();
        assert_eq!(cache.stats().upgrades, 1);
    }

    #[test]
    fn flush_writes_all_dirty_frames() {
        let (part, cache, _clock, seg) = setup(8);
        for page in 0..3u32 {
            cache
                .access((seg, page), AccessMode::Write, &*part, |f| {
                    f.data[0] = page as u8 + 1;
                    f.dirty = true;
                })
                .unwrap();
        }
        cache.flush(&*part).unwrap();
        for page in 0..3u32 {
            let stored = part
                .store()
                .get(seg)
                .unwrap()
                .read()
                .read(page as u64 * PAGE_SIZE as u64, 1)
                .unwrap();
            assert_eq!(stored[0], page as u8 + 1);
        }
        // Frames stay resident and clean.
        assert_eq!(cache.resident(), 3);
        cache.flush(&*part).unwrap(); // second flush is a no-op
    }

    #[test]
    fn clear_drops_without_writeback() {
        let (part, cache, _clock, seg) = setup(8);
        cache
            .access((seg, 0), AccessMode::Write, &*part, |f| {
                f.data[0] = 42;
                f.dirty = true;
            })
            .unwrap();
        cache.clear();
        assert_eq!(cache.resident(), 0);
        let stored = part.store().get(seg).unwrap().read().read(0, 1).unwrap();
        assert_eq!(stored[0], 0, "crash must not persist dirty data");
    }

    #[test]
    fn fetch_error_propagates_and_unblocks() {
        let (part, cache, _clock, _seg) = setup(4);
        let missing = SysName::from_parts(9, 9);
        let err = cache
            .access((missing, 0), AccessMode::Read, &*part, |_| {})
            .unwrap_err();
        assert!(matches!(err, RaError::SegmentNotFound(_)));
        // The Busy marker must have been cleaned up: retry also errors
        // (rather than deadlocking).
        let err2 = cache
            .access((missing, 0), AccessMode::Read, &*part, |_| {})
            .unwrap_err();
        assert!(matches!(err2, RaError::SegmentNotFound(_)));
    }

    #[test]
    fn concurrent_access_to_same_page_is_serialized() {
        let (part, cache, _clock, seg) = setup(8);
        let cache = Arc::new(cache);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let part = Arc::clone(&part);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    cache
                        .access((seg, 0), AccessMode::Write, &*part, |f| {
                            let v = u64::from_le_bytes(f.data[..8].try_into().unwrap());
                            f.data[..8].copy_from_slice(&(v + 1).to_le_bytes());
                            f.dirty = true;
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        cache
            .access((seg, 0), AccessMode::Read, &*part, |f| {
                let v = u64::from_le_bytes(f.data[..8].try_into().unwrap());
                assert_eq!(v, 800);
            })
            .unwrap();
    }
    /// A [`LocalPartition`] that records how the cache writes pages back
    /// and relinquishes copies, and can be told to refuse write-backs.
    struct Recording {
        inner: Arc<LocalPartition>,
        fail_writes: bool,
        /// The `release` list of every `fetch_page` call.
        rode: Mutex<Vec<Vec<(SysName, u32)>>>,
        /// The pages of every `write_back_batch` call.
        batches: Mutex<Vec<Vec<(SysName, u32)>>>,
    }

    impl Recording {
        fn new(inner: Arc<LocalPartition>, fail_writes: bool) -> Recording {
            Recording {
                inner,
                fail_writes,
                rode: Mutex::new(Vec::new()),
                batches: Mutex::new(Vec::new()),
            }
        }
    }

    impl Partition for Recording {
        fn create_segment(&self, seg: SysName, len: u64) -> Result<()> {
            self.inner.create_segment(seg, len)
        }
        fn destroy_segment(&self, seg: SysName) -> Result<()> {
            self.inner.destroy_segment(seg)
        }
        fn segment_len(&self, seg: SysName) -> Result<u64> {
            self.inner.segment_len(seg)
        }
        fn fetch_page(
            &self,
            seg: SysName,
            page: u32,
            mode: AccessMode,
            release: &[(SysName, u32)],
        ) -> Result<PageFetch> {
            self.rode.lock().push(release.to_vec());
            self.inner.fetch_page(seg, page, mode, release)
        }
        fn write_back_batch(&self, pages: &[WriteBackItem]) -> Vec<Result<u64>> {
            self.batches
                .lock()
                .push(pages.iter().map(|p| (p.seg, p.page)).collect());
            if self.fail_writes {
                let down = || Err(RaError::PartitionUnavailable("store down".into()));
                return pages.iter().map(|_| down()).collect();
            }
            self.inner.write_back_batch(pages)
        }
    }

    fn read(cache: &PageCache, part: &dyn Partition, seg: SysName, page: u32) {
        cache
            .access((seg, page), AccessMode::Read, part, |_| {})
            .unwrap();
    }

    fn dirty(cache: &PageCache, part: &dyn Partition, seg: SysName, page: u32, byte: u8) {
        cache
            .access((seg, page), AccessMode::Write, part, |f| {
                f.data[0] = byte;
                f.dirty = true;
            })
            .unwrap();
    }

    fn is_evicting(cache: &PageCache, key: (SysName, u32)) -> bool {
        matches!(
            cache.inner.lock().slots.get(&key),
            Some(Slot::Busy(BusyKind::Evict))
        )
    }

    #[test]
    fn make_room_detaches_lru_victims_in_one_pass_and_marks_them_until_dropped() {
        let (part, cache, _clock, seg) = setup(4);
        for page in 0..4 {
            read(&cache, &*part, seg, page);
        }
        let room = cache.make_room(3, &*part);
        assert_eq!(room.frames(), 3);
        assert_eq!(room.clean_victims(), [(seg, 0), (seg, 1), (seg, 2)]);
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.stats().evictions, 3);
        // Recalls and local faults on a victim wait while its release is
        // still the caller's to make.
        assert!(is_evicting(&cache, (seg, 1)));
        drop(room);
        assert!(!is_evicting(&cache, (seg, 1)));
        assert_eq!(cache.reclaim((seg, 1)), ReclaimOutcome::NotPresent);
        // Nothing to evict when the frames are already free.
        let room = cache.make_room(3, &*part);
        assert_eq!(room.frames(), 3);
        assert!(room.clean_victims().is_empty());
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn make_room_offers_no_more_than_exists() {
        let (part, cache, _clock, seg) = setup(2);
        read(&cache, &*part, seg, 0);
        let room = cache.make_room(7, &*part);
        assert_eq!(room.frames(), 2);
        assert_eq!(room.clean_victims(), [(seg, 0)]);
    }

    #[test]
    fn make_room_writes_a_dirty_victim_back_before_its_frame_is_offered() {
        let (part, cache, _clock, seg) = setup(2);
        dirty(&cache, &*part, seg, 0, 0xAB);
        read(&cache, &*part, seg, 1);
        let room = cache.make_room(1, &*part);
        // Written back, the victim is handed back like a clean one, still
        // marked until the caller has released it.
        assert_eq!(room.frames(), 1);
        assert_eq!(room.clean_victims(), [(seg, 0)]);
        assert!(is_evicting(&cache, (seg, 0)));
        assert_eq!(cache.stats().evictions, 1);
        let stored = part.store().get(seg).unwrap().read().read(0, 1).unwrap();
        assert_eq!(stored[0], 0xAB);
    }

    #[test]
    fn dirty_victims_are_written_in_one_batch_then_released_on_the_fetch() {
        let (local, cache, _clock, seg) = setup(3);
        let part = Recording::new(Arc::clone(&local), false);
        for page in 0..3 {
            dirty(&cache, &part, seg, page, page as u8 + 1);
        }
        // Room for two more frames: the two oldest go back together.
        let room = cache.make_room(2, &part);
        assert_eq!(*part.batches.lock(), [vec![(seg, 0), (seg, 1)]]);
        assert_eq!(room.clean_victims(), [(seg, 0), (seg, 1)]);
        drop(room);
        // Fill the cache again; then a miss's written victim rides on the
        // fetch.
        for page in 3..6 {
            dirty(&cache, &part, seg, page, page as u8 + 1);
        }
        assert_eq!(part.batches.lock().last(), Some(&vec![(seg, 2)]));
        assert_eq!(part.rode.lock().last(), Some(&vec![(seg, 2)]));
        assert!(!is_evicting(&cache, (seg, 2)));
        for page in 0..3u32 {
            let at = u64::from(page) * PAGE_SIZE as u64;
            let stored = local.store().get(seg).unwrap().read().read(at, 1).unwrap();
            assert_eq!(stored[0], page as u8 + 1);
        }
    }

    #[test]
    fn unwritable_dirty_victim_stays_resident_and_dirty() {
        let (local, cache, _clock, seg) = setup(1);
        let part = Recording::new(local, true);
        dirty(&cache, &part, seg, 0, 0x5A);
        assert_eq!(cache.make_room(1, &part).frames(), 0);
        assert_eq!(cache.resident(), 1);
        // The fault path cannot shed it either; the access goes ahead,
        // one frame over, and the data is still there to flush.
        read(&cache, &part, seg, 1);
        assert_eq!(cache.resident(), 2);
        cache
            .access((seg, 0), AccessMode::Read, &part, |f| {
                assert_eq!(f.data[0], 0x5A);
                assert!(f.dirty);
            })
            .unwrap();
        assert!(cache.flush(&part).is_err());
    }

    #[test]
    fn miss_hands_its_clean_victim_to_the_partition_with_the_fetch() {
        let (local, cache, _clock, seg) = setup(1);
        let part = Recording::new(local, false);
        read(&cache, &part, seg, 0);
        read(&cache, &part, seg, 1);
        assert_eq!(*part.rode.lock(), [vec![], vec![(seg, 0)]]);
        assert_eq!(cache.resident(), 1);
        assert!(!is_evicting(&cache, (seg, 0)));
    }

    #[test]
    fn prefetched_frames_fill_the_room_made_for_them() {
        let (part, cache, _clock, seg) = setup(4);
        for page in 0..4 {
            read(&cache, &*part, seg, page);
        }
        let room = cache.make_room(2, &*part);
        assert_eq!(room.frames(), 2);
        drop(room);
        assert_eq!(cache.absent_after((seg, 3), 8), 8);
        for page in 4..6 {
            assert!(cache.install_prefetched((seg, page), vec![0; PAGE_SIZE], 0, AccessMode::Read));
        }
        // Resident or busy pages are the only refusal left.
        assert!(!cache.install_prefetched((seg, 5), vec![0; PAGE_SIZE], 0, AccessMode::Read));
        assert_eq!(cache.absent_after((seg, 3), 8), 0);
        assert_eq!(cache.absent_after((seg, 5), 8), 8);
        assert_eq!(cache.resident(), 4);
        for page in 4..6 {
            read(&cache, &*part, seg, page);
        }
        let stats = cache.stats();
        assert_eq!(
            (
                stats.prefetch_installs,
                stats.prefetch_hits,
                stats.prefetch_wasted
            ),
            (2, 2, 0)
        );
    }

    #[test]
    fn a_prefetched_exclusive_frame_is_clean_until_written() {
        let (local, cache, _clock, seg) = setup(2);
        let part = Recording::new(local, false);
        for page in 0..2 {
            let installed =
                cache.install_prefetched((seg, page), vec![0; PAGE_SIZE], 0, AccessMode::Write);
            assert!(installed);
        }
        // Written without an upgrade fault; unwritten, a recall finds it
        // clean.
        dirty(&cache, &part, seg, 0, 0x77);
        assert_eq!(
            cache.reclaim((seg, 1)),
            ReclaimOutcome::Taken { dirty_data: None }
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.upgrades, stats.prefetch_hits),
            (0, 0, 1)
        );
        // An unwritten one is evicted like any clean frame: released on
        // the fetch, never written back.
        assert!(cache.install_prefetched((seg, 2), vec![0; PAGE_SIZE], 0, AccessMode::Write));
        cache.flush(&part).unwrap();
        read(&cache, &part, seg, 3);
        assert_eq!(*part.batches.lock(), [vec![(seg, 0)]]);
        assert_eq!(part.rode.lock().last(), Some(&vec![(seg, 2)]));
        assert_eq!(cache.stats().prefetch_wasted, 2);
        // Pages 1 and 2 are gone again; 3 is resident.
        assert_eq!(cache.absent_after((seg, 0), 4), 2);
        assert_eq!(cache.absent_after((seg, 3), 4), 4);
    }

    #[test]
    fn fault_path_sheds_frames_installed_past_capacity() {
        let (part, cache, _clock, seg) = setup(2);
        for page in 0..4 {
            assert!(cache.install_prefetched((seg, page), vec![0; PAGE_SIZE], 0, AccessMode::Read));
        }
        assert_eq!(cache.resident(), 4);
        read(&cache, &*part, seg, 7);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn crash_clear_keeps_counters_and_in_flight_markers_consistent() {
        let (part, cache, _clock, seg) = setup(4);
        for page in 0..3 {
            read(&cache, &*part, seg, page);
        }
        let room = cache.make_room(2, &*part);
        cache.clear();
        drop(room); // markers already wiped: must not disturb new slots
        assert_eq!(cache.resident(), 0);
        read(&cache, &*part, seg, 0);
        assert_eq!(cache.resident(), 1);
        cache.inner.lock().debug_check_counters();
    }
}
