//! The coherence half of [`DsmServer`]: the striped per-page directory,
//! the transitions over it, fetch and recall.
//!
//! # Directory sharding
//!
//! The coherence directory is striped across `DIR_SHARDS` independent
//! shards, each holding its own page map, mutex and condvar. A page's
//! shard is a pure function of its `(segment, page)` key, so every
//! per-page transition touches exactly one shard and unrelated pages
//! never contend on a global lock — concurrent clients scanning
//! different segments proceed fully in parallel.
//!
//! **Lock-order rule for stripes:** no code path ever holds two shard
//! locks at once. Per-page operations lock only their own shard;
//! whole-directory sweeps (`clear_directory`, segment destroy) visit
//! shards one at a time in ascending index order, releasing each guard
//! before taking the next. Acquisition in a fixed index order with at
//! most one stripe held makes the stripe family acyclic by construction.
//! Each stripe is a leaf lock, so debug builds panic on a path that
//! takes a second lock while holding one.

use crate::proto::{
    self, ports, RecallReply, RecallRequest, WireInstallAck, WireMode, WirePageGrant,
};
use crate::replication::Serving;
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_ra::{RaError, SysName};
use clouds_ratp::CallError;
use clouds_simnet::NodeId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Retransmission budget for recall calls; a client that does not answer
/// within this budget is treated as crashed and its copy forgotten.
const RECALL_RETRIES: u32 = 40;

/// How long a transition waits for a grantee's install acknowledgement
/// before assuming the grantee died with the grant in flight.
const ACK_DEADLINE: Duration = Duration::from_millis(1000);

#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Coherence {
    #[default]
    Idle,
    Shared(BTreeSet<NodeId>),
    Exclusive(NodeId),
}

impl Coherence {
    /// The nodes holding a copy, in node order (one node for an
    /// exclusive copy).
    fn holders(&self) -> Vec<NodeId> {
        match self {
            Coherence::Exclusive(owner) => vec![*owner],
            Coherence::Shared(set) => set.iter().copied().collect(),
            Coherence::Idle => Vec::new(),
        }
    }

    /// This copyset with a shared copy at `src` added. An exclusive owner
    /// is not carried over: the caller has demoted or dismissed it.
    fn with_reader(&self, src: NodeId) -> Coherence {
        let mut set = match self {
            Coherence::Shared(set) => set.clone(),
            Coherence::Exclusive(_) | Coherence::Idle => BTreeSet::new(),
        };
        set.insert(src);
        Coherence::Shared(set)
    }
}

#[derive(Debug, Default)]
pub(crate) struct PageEntry {
    state: Coherence,
    /// A coherence transition is running.
    busy: bool,
    /// A grant is awaiting its install acknowledgement:
    /// (grantee, grant sequence, deadline for the ack).
    awaiting_ack: Option<(NodeId, u64, Instant)>,
}

/// One stripe of the coherence directory: a page map plus the condvar
/// transitions wait on. Pages hash to exactly one stripe, so per-page
/// work never crosses stripes.
#[derive(Default)]
pub(crate) struct DirShard {
    pub(crate) pages: Mutex<HashMap<(SysName, u32), PageEntry>>,
    pub(crate) busy_cvar: Condvar,
}

impl DsmServer {
    /// The directory stripe owning `key`: a deterministic mix of the
    /// 128-bit sysname and the page index, masked to the stripe count.
    /// Pure arithmetic (no per-process hasher seed) so runs are
    /// reproducible and a one-shard and an eight-shard server agree on
    /// every placement decision trivially.
    pub(crate) fn shard_index(&self, key: (SysName, u32)) -> usize {
        let raw = key.0.as_u128();
        let mut h = (raw as u64)
            ^ ((raw >> 64) as u64)
            ^ u64::from(key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h as usize) & (self.shards.len() - 1)
    }

    /// Lock one directory stripe, counting the acquisitions that had to
    /// block behind another holder.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, HashMap<(SysName, u32), PageEntry>> {
        if let Some(guard) = self.shards[idx].pages.try_lock() {
            return guard;
        }
        self.metrics.shard_contention.inc();
        self.shards[idx].pages.lock()
    }

    /// Coherently install a page image: recalls every cached copy at
    /// other nodes, then writes the data to the canonical store. Used by
    /// the two-phase-commit participant to make committed cp-thread
    /// updates visible with one-copy semantics.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] off the serving primary, like every
    /// fenced client op; propagates store errors (bad page).
    pub(crate) fn commit_page(
        &self,
        seg: SysName,
        page: u32,
        data: &[u8],
    ) -> clouds_ra::Result<u64> {
        let serving = self.check_serving(seg)?;
        let key = (seg, page);
        let state = self.begin_transition(key);
        // Dirty data still out at a holder loses to the committed image
        // written right behind it: the commit holds the write lock, so a
        // correct cp/s-thread mix cannot produce a competing dirty copy.
        // The commit is not acknowledged until every backup holds the
        // committed image: a post-commit failover must serve it.
        let result = self
            .reclaim_copies(&serving, &state, None, page)
            .and_then(|()| self.apply_write(&serving, page, &PageBytes::copy_from_slice(data)));
        // On an aborted recall, keep the pre-transition copyset: copies
        // that did answer are gone from their caches, but re-recalling a
        // non-holder is harmless, while forgetting a live one is not.
        let after = if result.is_ok() {
            Coherence::Idle
        } else {
            state
        };
        self.end_transition(key, after, None);
        result
    }

    /// The nodes the directory believes hold a copy of the page, in node
    /// order (one node for an exclusive copy). For tests and debugging.
    pub fn copyset(&self, seg: SysName, page: u32) -> Vec<NodeId> {
        let pages = self.shards[self.shard_index((seg, page))].pages.lock();
        pages
            .get(&(seg, page))
            .map_or_else(Vec::new, |entry| entry.state.holders())
    }

    /// Forget all coherence state (the directory is volatile). Stripes
    /// are visited in ascending index order, one guard at a time.
    pub fn clear_directory(&self) {
        for idx in 0..self.shards.len() {
            self.shards[idx].pages.lock().clear();
            self.shards[idx].busy_cvar.notify_all();
        }
    }

    /// Drop every directory entry of `seg` (the segment is gone),
    /// visiting the stripes in ascending index order, one guard at a
    /// time.
    pub(crate) fn drop_directory_entries(&self, seg: SysName) {
        for idx in 0..self.shards.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "retain drops entries independently; visit order cannot be observed"
            )]
            self.shards[idx].pages.lock().retain(|(s, _), _| *s != seg);
        }
    }

    /// Serialize coherence transitions per page: acquire the busy flag,
    /// also waiting out any unacknowledged previous grant (otherwise a
    /// recall could reach the grantee before the granted frame is
    /// installed and wrongly conclude the copy does not exist). Only the
    /// page's own stripe is locked.
    fn begin_transition(&self, key: (SysName, u32)) -> Coherence {
        let idx = self.shard_index(key);
        let mut pages = self.lock_shard(idx);
        loop {
            let entry = pages.entry(key).or_default();
            if !entry.busy {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock install-ack deadline, until it runs on virtual time"
                )]
                match entry.awaiting_ack {
                    Some((_, _, deadline)) if Instant::now() < deadline => {
                        let _ = self.shards[idx].busy_cvar.wait_until(&mut pages, deadline);
                        continue;
                    }
                    // Grantee never confirmed: assume it crashed with the
                    // grant in flight; its copy is gone.
                    Some(_) => {
                        self.metrics.ack_timeouts.inc();
                        entry.awaiting_ack = None;
                    }
                    None => {}
                }
                entry.busy = true;
                return entry.state.clone();
            }
            self.shards[idx].busy_cvar.wait(&mut pages);
        }
    }

    /// Finish a transition. If it granted the page, `granted` names the
    /// grantee and the grant sequence number: the next transition for
    /// this page must wait for that install ack.
    fn end_transition(
        &self,
        key: (SysName, u32),
        new_state: Coherence,
        granted: Option<(NodeId, u64)>,
    ) {
        let idx = self.shard_index(key);
        {
            let mut pages = self.lock_shard(idx);
            if let Some(entry) = pages.get_mut(&key) {
                // A voluntary release/write-back may have mutated the state
                // while we were recalling; the transition's outcome wins,
                // because recalls observed (or outwaited) those copies.
                entry.state = new_state;
                entry.busy = false;
                if let Some((grantee, grant_seq)) = granted {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "wall-clock install-ack deadline, until it runs on virtual time"
                    )]
                    let deadline = Instant::now() + ACK_DEADLINE;
                    entry.awaiting_ack = Some((grantee, grant_seq, deadline));
                }
            }
        }
        self.shards[idx].busy_cvar.notify_all();
    }

    /// Take `src`'s install acknowledgements for grants of `seg`. An ack
    /// that matches the grant still awaiting one unblocks the page's
    /// next transition; a stale or duplicate ack leaves the directory
    /// untouched.
    pub(crate) fn install_acks(&self, src: NodeId, seg: SysName, acks: &[WireInstallAck]) {
        for ack in acks {
            let key = (seg, ack.page);
            let idx = self.shard_index(key);
            let matched = {
                let mut pages = self.lock_shard(idx);
                match pages.get_mut(&key) {
                    Some(entry)
                        if matches!(entry.awaiting_ack, Some((node, seq, _))
                            if node == src && seq == ack.grant_seq) =>
                    {
                        entry.awaiting_ack = None;
                        true
                    }
                    _ => false,
                }
            };
            self.shards[idx].busy_cvar.notify_all();
            // The client declined the speculative copy: drop it from the
            // copyset so no recall ever waits on a copy that does not
            // exist. Only while this very grant's ack was still pending,
            // though — if the deadline already fired, a newer transition
            // may have granted the page to the same client for real, and
            // forgetting now would orphan that live copy.
            if matched && !ack.installed {
                self.forget_copy(src, seg, ack.page);
            }
        }
    }

    /// Serve a fetch: drop the copies the requester released to make
    /// room, run the full coherence transition (recalls and all) for the
    /// faulting page, then grant the following contiguous pages
    /// speculatively in the request's mode, exactly as far as coherence
    /// allows *without recalling, demoting or waiting* — the run stops at
    /// the first page that is mid-transition, awaiting an ack, out of
    /// range, or held in a way the mode cannot take over (see
    /// `try_speculative_grant`), and at `count` pages in all
    /// (`count` = 1 is the single-page fetch). Every granted page carries
    /// its own grant_seq and must be acknowledged.
    ///
    /// The caller has passed the serving fence. The release list goes
    /// first so that a page released and re-requested here ends up held,
    /// not forgotten.
    pub(crate) fn fetch_pages(
        &self,
        serving: &Serving,
        src: NodeId,
        first: u32,
        count: u32,
        mode: WireMode,
        release: &[(SysName, u32)],
    ) -> clouds_ra::Result<Vec<WirePageGrant>> {
        self.forget_copies(src, release);
        self.metrics.fetch_rpcs.inc();
        let mut pages = vec![self.fetch(serving, src, first, mode)?];
        while pages.len() < count as usize {
            let Some(page) = first.checked_add(pages.len() as u32) else {
                break;
            };
            match self.try_speculative_grant(serving, src, page, mode) {
                Some(grant) => pages.push(grant),
                None => break,
            }
        }
        self.metrics
            .prefetch_pages_granted
            .add(pages.len() as u64 - 1);
        Ok(pages)
    }

    /// The full coherence transition for one page: recall or demote
    /// whatever copies conflict with `mode`, then grant `src` the
    /// canonical image.
    fn fetch(
        &self,
        serving: &Serving,
        src: NodeId,
        page: u32,
        mode: WireMode,
    ) -> clouds_ra::Result<WirePageGrant> {
        let seg = serving.seg();
        // Validate before touching coherence state.
        self.store.get(seg)?;
        // Serving runs on the RaTP handler thread, which installed the
        // caller's wire context — the span parents across the node hop.
        let detail = format!("src={} seg={seg} page={page} mode={mode:?}", src.0);
        let mut span = self.obs.traced_span("dsm.server", "serve_fetch", &detail);
        span.set_args(detail);
        let key = (seg, page);
        let state = self.begin_transition(key);
        let granted = (|| {
            let new_state = match (mode, &state) {
                (WireMode::Read, Coherence::Exclusive(owner)) if *owner != src => {
                    if self.recall_and_absorb(serving, *owner, page, true)? {
                        Coherence::Shared(BTreeSet::from([*owner, src]))
                    } else {
                        Coherence::Idle.with_reader(src)
                    }
                }
                // Shared or idle — or a re-fetch by the owner itself
                // (e.g. after dropping its frame), which demotes it.
                (WireMode::Read, held) => held.with_reader(src),
                (WireMode::Write, held) => {
                    self.reclaim_copies(serving, held, Some(src), page)?;
                    Coherence::Exclusive(src)
                }
            };
            let grant_seq = self.grant_seq.fetch_add(1, Ordering::Relaxed);
            Ok((new_state, self.read_canonical(serving, page, grant_seq)?))
        })();
        match granted {
            Ok((new_state, grant)) => {
                match mode {
                    WireMode::Read => self.metrics.read_grants.inc(),
                    WireMode::Write => self.metrics.write_grants.inc(),
                };
                self.metrics.shard_grants[self.shard_index(key)].inc();
                self.end_transition(key, new_state, Some((src, grant.grant_seq)));
                Ok(grant)
            }
            Err(e) => {
                // Keep the pre-transition copyset: holders already
                // recalled are gone from their caches, but re-recalling a
                // non-holder is harmless, forgetting a live one is not.
                self.end_transition(key, state, None);
                Err(e)
            }
        }
    }

    /// Invalidate every copy in `held` except `keep`'s own.
    fn reclaim_copies(
        &self,
        serving: &Serving,
        held: &Coherence,
        keep: Option<NodeId>,
        page: u32,
    ) -> clouds_ra::Result<()> {
        for holder in held.holders() {
            if Some(holder) != keep {
                self.recall_and_absorb(serving, holder, page, false)?;
            }
        }
        Ok(())
    }

    /// Grant `page` to `src` in `mode` only if no recall, wait, or
    /// demotion would be needed: no transition may be running and no
    /// grant awaiting its ack, and the page must be Idle or Shared for a
    /// read grant, Idle for a write grant. Returns `None` to end the
    /// read-ahead run otherwise.
    fn try_speculative_grant(
        &self,
        serving: &Serving,
        src: NodeId,
        page: u32,
        mode: WireMode,
    ) -> Option<WirePageGrant> {
        let key = (serving.seg(), page);
        let idx = self.shard_index(key);
        let prior = {
            let mut pages = self.lock_shard(idx);
            let entry = pages.entry(key).or_default();
            if entry.busy || entry.awaiting_ack.is_some() {
                return None;
            }
            match (mode, &entry.state) {
                (_, Coherence::Idle) => {}
                // Never re-grant a page the requester already shares:
                // the client would decline the duplicate and its
                // uninstalled-ack would evict the *live* copy from the
                // copyset, leaving a cached page no recall can reach.
                (WireMode::Read, Coherence::Shared(set)) if !set.contains(&src) => {}
                // Never demote an exclusive copy speculatively (the owner
                // may hold dirty data a silent downgrade would lose), and
                // never take anyone's copy — the requester's own shared
                // one included — for a write that may not come.
                _ => return None,
            }
            entry.busy = true;
            entry.state.clone()
        };
        let grant_seq = self.grant_seq.fetch_add(1, Ordering::Relaxed);
        match self.read_canonical(serving, page, grant_seq) {
            Ok(grant) => {
                let granted = match mode {
                    WireMode::Read => {
                        self.metrics.read_grants.inc();
                        prior.with_reader(src)
                    }
                    WireMode::Write => {
                        self.metrics.write_grants.inc();
                        Coherence::Exclusive(src)
                    }
                };
                self.metrics.shard_grants[idx].inc();
                self.end_transition(key, granted, Some((src, grant_seq)));
                Some(grant)
            }
            Err(_) => {
                // Out of range (end of segment) or store error: restore
                // the untouched state and end the run.
                self.end_transition(key, prior, None);
                None
            }
        }
    }

    fn read_canonical(
        &self,
        serving: &Serving,
        page: u32,
        grant_seq: u64,
    ) -> Result<WirePageGrant, RaError> {
        let segment = self.store.get(serving.seg())?;
        let segment = segment.read();
        let zero_filled = !segment.is_page_materialized(page);
        // The store hands out a fresh Vec; wrapping it as PageBytes is
        // allocation-free, and from here to the wire the image is only
        // refcounted, never copied again.
        let data = PageBytes::from(segment.read_page(page)?);
        Ok(WirePageGrant {
            data,
            version: segment.page_version(page),
            zero_filled,
            grant_seq,
        })
    }

    /// Ask `holder` to give up (`Reclaim`) or, with `demote`, demote
    /// (`Downgrade`) its copy, and absorb the answer: dirty data goes
    /// through the write choke point, and a copy that was still there
    /// counts as an invalidation or a downgrade. Returns whether the
    /// holder still had the page.
    ///
    /// A holder that stays silent through the whole retransmission
    /// budget is treated as crashed: its volatile copy died with it. A
    /// *local* transmit failure is different — this node's own interface
    /// is down (e.g. mid-crash in a fault schedule), which says nothing
    /// about the holder, so the transition must abort rather than forget
    /// a live copy and leak it stale.
    fn recall_and_absorb(
        &self,
        serving: &Serving,
        holder: NodeId,
        page: u32,
        demote: bool,
    ) -> clouds_ra::Result<bool> {
        let seg = serving.seg();
        let (kind, counter, req) = if demote {
            ("downgrade", &self.metrics.downgrades, RecallRequest::Downgrade { seg, page })
        } else {
            ("reclaim", &self.metrics.invalidations, RecallRequest::Reclaim { seg, page })
        };
        self.obs.instant(
            "dsm.server",
            "recall",
            format!("dst={} kind={kind} seg={seg} page={page}", holder.0),
        );
        let reply = match self.ratp.call_with_budget(
            holder,
            ports::DSM_CLIENT,
            proto::encode(&req),
            RECALL_RETRIES,
        ) {
            Ok(reply) => proto::decode_shared(&reply).unwrap_or(RecallReply::NotPresent),
            Err(CallError::TimedOut | CallError::ServiceNotFound(_)) => RecallReply::NotPresent,
            Err(e) => {
                return Err(RaError::PartitionUnavailable(format!(
                    "recall aborted, cannot transmit: {e}"
                )))
            }
        };
        if let RecallReply::Dirty(data) = &reply {
            // Shared copies are clean by protocol, but be liberal in what
            // we accept. Recalled dirty data was never acknowledged to
            // its writer, so a lost mirror here cannot violate the
            // committed-durable invariant — the push still gets the full
            // patient budget so replicas stay byte-identical, and the
            // rare failure is made loud instead of failing the fetch.
            if let Err(e) = self.apply_write(serving, page, data) {
                self.obs.instant(
                    "dsm.server",
                    "mirror_recall_failed",
                    format!("seg={seg} page={page}: {e}"),
                );
            }
        }
        let present = !matches!(reply, RecallReply::NotPresent);
        if present {
            counter.inc();
        }
        Ok(present)
    }

    /// Drop `src` from the copyset of every listed page.
    pub(crate) fn forget_copies(&self, src: NodeId, pages: &[(SysName, u32)]) {
        for &(seg, page) in pages {
            self.forget_copy(src, seg, page);
        }
    }

    pub(crate) fn forget_copy(&self, src: NodeId, seg: SysName, page: u32) {
        let idx = self.shard_index((seg, page));
        let mut pages = self.lock_shard(idx);
        if let Some(entry) = pages.get_mut(&(seg, page)) {
            match &mut entry.state {
                Coherence::Exclusive(owner) if *owner == src => {
                    entry.state = Coherence::Idle;
                }
                Coherence::Shared(set) => {
                    set.remove(&src);
                    if set.is_empty() {
                        entry.state = Coherence::Idle;
                    }
                }
                _ => {}
            }
        }
    }
}
