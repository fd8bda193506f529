//! The coherence half of [`DsmServer`]: the per-page directory, the
//! transitions over it, fetch and recall.
//!
//! # The directory lock
//!
//! The directory is one page map under one leaf mutex, with one condvar
//! that transitions wait on. The lock is held only to read or change
//! entries, never across a recall or a log write: a transition marks its
//! page `busy` under the lock, drops the lock for its recalls and its
//! read of the log, and takes it again to end. So a transition waiting
//! on a slow holder holds up only its own page, and a write-back,
//! release or install ack — which never waits on `busy` — always gets
//! through. Debug builds panic on a path that takes a second lock, or
//! makes a RaTP call, while holding it.

use crate::proto::{
    self, ports, RecallReply, RecallRequest, WireInstallAck, WireMode, WirePageGrant,
};
use crate::replication::Serving;
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_ra::{RaError, SysName, PAGE_SIZE};
use clouds_ratp::CallError;
use clouds_simnet::{FastMap, NodeId};
use clouds_store::{Crashed, InDoubt};
use parking_lot::MutexGuard;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Retransmission budget for recall calls; a client that does not answer
/// within this budget is treated as crashed and its copy forgotten.
const RECALL_RETRIES: u32 = 40;

/// How many fetches in a row may find a page in doubt under one txn
/// before the last proposes abort. A faulting client retries a fetch
/// its failover backoff (25 ms) apart, and a live txn decides well
/// within the first retry: a txn still undecided by the third read is
/// taken for one whose coordinator is gone.
const READS_BEFORE_ABORT: u32 = 3;

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
    /// The txn the last fetch found this page in doubt under, and how
    /// many fetches in a row did.
    doubted: Option<(u64, u32)>,
}

/// The coherence directory: every page some transition or grant has
/// touched, by `(segment, page)`.
pub(crate) type Directory = FastMap<(SysName, u32), PageEntry>;

impl PageEntry {
    /// Drop `src`'s copy from this page's copyset.
    fn forget(&mut self, src: NodeId) {
        match &mut self.state {
            Coherence::Exclusive(owner) if *owner == src => {
                self.state = Coherence::Idle;
            }
            Coherence::Shared(set) => {
                set.remove(&src);
                if set.is_empty() {
                    self.state = Coherence::Idle;
                }
            }
            _ => {}
        }
    }
}

impl DsmServer {
    /// Lock the directory, counting the acquisitions that had to block
    /// behind another holder (`dsm.server.shard_contention`).
    fn lock_directory(&self) -> MutexGuard<'_, Directory> {
        if let Some(guard) = self.directory.try_lock() {
            return guard;
        }
        self.metrics.shard_contention.inc();
        self.directory.lock()
    }

    /// Run `install` with each page's transition held and every cached
    /// copy of it at other nodes but `keep` recalled, so no fetch is
    /// granted a page between its recall and its install. Once it is
    /// installed nobody holds a copy, `keep` included.
    fn recalled<T>(
        &self,
        pages: &[(Serving, u32)],
        keep: Option<NodeId>,
        install: impl FnOnce() -> clouds_ra::Result<T>,
    ) -> clouds_ra::Result<T> {
        let held: Vec<Coherence> = pages
            .iter()
            .map(|(serving, page)| self.begin_transition((serving.seg(), *page)))
            .collect();
        let result = pages
            .iter()
            .zip(&held)
            .try_for_each(|((serving, page), state)| {
                self.reclaim_copies(serving, state, keep, *page)
            })
            .and_then(|()| install());
        // On an aborted recall or install, keep the pre-transition
        // copysets: copies that did answer are gone from their caches,
        // but re-recalling a non-holder is harmless, while forgetting a
        // live one is not.
        for ((serving, page), state) in pages.iter().zip(held) {
            let after = if result.is_ok() {
                Coherence::Idle
            } else {
                state
            };
            self.end_transition((serving.seg(), *page), after, None);
        }
        result
    }

    /// Coherently install a page image: recalls every cached copy at
    /// other nodes, then writes the data to the log. Used by an lcp
    /// commit's `ApplyLocal`, and a demoted 2PC participant's forwarded
    /// install, to make the cp-thread's updates visible with one-copy
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] off the serving primary, like every
    /// fenced client op; [`RaError::OutOfRange`] for a bad page.
    pub(crate) fn commit_page(
        &self,
        seg: SysName,
        page: u32,
        data: &PageBytes,
    ) -> clouds_ra::Result<u64> {
        let pages = [(self.check_serving(seg)?, page)];
        // Dirty data still out at a holder loses to the committed image
        // written right behind it: the commit holds the write lock, so a
        // correct cp/s-thread mix cannot produce a competing dirty copy.
        // The commit is not acknowledged until every backup holds the
        // committed image: a post-commit failover must serve it.
        self.recalled(&pages, None, || self.apply_write(&pages[0].0, page, data))
    }

    /// Coherently install `txn`'s committed intent, whose pages `pages`
    /// this server serves. With every cached copy recalled but `keep`'s,
    /// which holds none (it sent the `Commit`, see
    /// [`CommitRequest::Commit`](crate::proto::CommitRequest::Commit)), each page
    /// gets its next version, every backup gets its image at that
    /// version, and only then does one log call resolve the intent —
    /// making its images the pages' live records, with no image written
    /// again. Until that call the intent stays staged, so a refused
    /// mirror leaves the install to be driven again.
    pub(crate) fn install_intent(
        &self,
        txn: u64,
        pages: &[(Serving, u32)],
        keep: Option<NodeId>,
    ) -> clouds_ra::Result<()> {
        self.recalled(pages, keep, || {
            let staged = match self.log.staged(txn) {
                Ok(Some(staged)) => staged,
                // Retired since: a racing install got there first.
                Ok(None) => return Ok(()),
                Err(Crashed) => return Err(RaError::PartitionUnavailable("log crashed".into())),
            };
            // The images, decoded once, if some page has a backup.
            let mut images = None;
            let mut versions = Vec::new();
            for (seg, page, next) in staged {
                let Some((serving, _)) = pages.iter().find(|(s, p)| (s.seg(), *p) == (seg, page))
                else {
                    versions.push(0);
                    continue;
                };
                self.mirror_page(serving, page, || {
                    let images = images.get_or_insert_with(|| self.log.intent(txn));
                    let mut staged = images.iter_mut().flatten().flatten();
                    match staged.find(|p| (p.seg, p.page) == (seg, page)) {
                        Some(p) => Ok((next, PageBytes::from(std::mem::take(&mut p.data)))),
                        None => Err(in_doubt(seg, page, txn)),
                    }
                })?;
                versions.push(next);
            }
            if !self.log.resolve_intent(txn, true, &versions) {
                return Err(RaError::Conflict(format!(
                    "txn {txn} is no longer staged as read"
                )));
            }
            let installed = versions.iter().filter(|v| **v > 0).count();
            self.metrics.write_backs.add(installed as u64);
            Ok(())
        })
    }

    /// The nodes the directory believes hold a copy of the page, in node
    /// order (one node for an exclusive copy). For tests and debugging.
    pub fn copyset(&self, seg: SysName, page: u32) -> Vec<NodeId> {
        self.lock_directory()
            .get(&(seg, page))
            .map_or_else(Vec::new, |entry| entry.state.holders())
    }

    /// Forget all coherence state (the directory is volatile).
    pub fn clear_directory(&self) {
        self.lock_directory().clear();
        self.directory_cvar.notify_all();
    }

    /// Drop every directory entry of `seg` (the segment is gone).
    pub(crate) fn drop_directory_entries(&self, seg: SysName) {
        #[expect(
            clippy::disallowed_methods,
            reason = "retain drops entries independently; visit order cannot be observed"
        )]
        self.lock_directory().retain(|(s, _), _| *s != seg);
    }

    /// Serialize coherence transitions per page: acquire the busy flag,
    /// also waiting out any unacknowledged previous grant (otherwise a
    /// recall could reach the grantee before the granted frame is
    /// installed and wrongly conclude the copy does not exist). The
    /// waits release the directory lock, so other pages move meanwhile.
    fn begin_transition(&self, key: (SysName, u32)) -> Coherence {
        let mut pages = self.lock_directory();
        loop {
            let entry = pages.entry(key).or_default();
            if !entry.busy {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock install-ack deadline, until it runs on virtual time"
                )]
                match entry.awaiting_ack {
                    Some((_, _, deadline)) if Instant::now() < deadline => {
                        let _ = self.directory_cvar.wait_until(&mut pages, deadline);
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
            self.directory_cvar.wait(&mut pages);
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
        if let Some(entry) = self.lock_directory().get_mut(&key) {
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
        self.directory_cvar.notify_all();
    }

    /// Take `src`'s install acknowledgements for grants of `seg`, under
    /// one hold of the directory lock. An ack that matches the grant
    /// still awaiting one unblocks the page's next transition; a stale
    /// or duplicate ack leaves the directory untouched.
    pub(crate) fn install_acks(&self, src: NodeId, seg: SysName, acks: &[WireInstallAck]) {
        {
            let mut pages = self.lock_directory();
            for ack in acks {
                let Some(entry) = pages.get_mut(&(seg, ack.page)) else {
                    continue;
                };
                if !matches!(entry.awaiting_ack, Some((node, seq, _))
                    if node == src && seq == ack.grant_seq)
                {
                    continue;
                }
                entry.awaiting_ack = None;
                // The client declined the speculative copy: drop it from
                // the copyset so no recall ever waits on a copy that does
                // not exist. Only while this very grant's ack was still
                // pending, though — if the deadline already fired, a
                // newer transition may have granted the page to the same
                // client for real, and forgetting now would orphan that
                // live copy.
                if !ack.installed {
                    entry.forget(src);
                }
            }
        }
        self.directory_cvar.notify_all();
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
        self.segment_len(seg)?;
        // Serving runs on the RaTP handler thread, which installed the
        // caller's wire context — the span parents across the node hop.
        let detail = format!("src={} seg={seg} page={page} mode={mode:?}", src.0);
        let mut span = self.obs.traced_span("dsm.server", "serve_fetch", &detail);
        span.set_args(detail);
        let prior = self.begin_transition((seg, page));
        let granted = match (mode, &prior) {
            (WireMode::Read, Coherence::Exclusive(owner)) if *owner != src => self
                .recall_and_absorb(serving, *owner, page, true)
                .map(|present| {
                    if present {
                        Coherence::Shared(BTreeSet::from([*owner, src]))
                    } else {
                        Coherence::Idle.with_reader(src)
                    }
                }),
            // Shared or idle — or a re-fetch by the owner itself
            // (e.g. after dropping its frame), which demotes it.
            (WireMode::Read, held) => Ok(held.with_reader(src)),
            (WireMode::Write, held) => self
                .reclaim_copies(serving, held, Some(src), page)
                .map(|()| Coherence::Exclusive(src)),
        };
        let grant = self.grant(serving, src, page, mode, prior, granted);
        // The page is in doubt: resolve its intent here, where it was
        // touched, with no transition held — then serve what it left.
        let Err(RaError::Conflict(_)) = grant else {
            return grant;
        };
        let Err(InDoubt(txn)) = self.log.read_page(seg, page) else {
            return grant;
        };
        match self.resolve(txn, self.doubted(seg, page, txn)) {
            Some(_) => self.fetch(serving, src, page, mode),
            None => grant,
        }
    }

    /// Count one more fetch that found `page` of `seg` in doubt under
    /// `txn`, and say whether it proposes abort: only the
    /// [`READS_BEFORE_ABORT`]th in a row under one txn does. Until then a
    /// fetch acts only on a verdict already logged, so a read does not
    /// abort a live txn between its `Prepare` and its `Decide`.
    fn doubted(&self, seg: SysName, page: u32, txn: u64) -> bool {
        let mut pages = self.lock_directory();
        let entry = pages.entry((seg, page)).or_default();
        let reads = match entry.doubted {
            Some((doubted, reads)) if doubted == txn => reads + 1,
            _ => 1,
        };
        entry.doubted = Some((txn, reads));
        reads >= READS_BEFORE_ABORT
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
    /// read-ahead run otherwise, or if the page is out of range (the
    /// end of the segment) or gone.
    fn try_speculative_grant(
        &self,
        serving: &Serving,
        src: NodeId,
        page: u32,
        mode: WireMode,
    ) -> Option<WirePageGrant> {
        let prior = {
            let mut pages = self.lock_directory();
            let entry = pages.entry((serving.seg(), page)).or_default();
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
        let granted = match mode {
            WireMode::Read => prior.with_reader(src),
            WireMode::Write => Coherence::Exclusive(src),
        };
        self.grant(serving, src, page, mode, prior, Ok(granted))
            .ok()
    }

    /// The step that ends every granting transition. With the copyset
    /// `granted` settled, read the canonical image under a fresh grant
    /// sequence, count the grant, and end the transition in `granted`,
    /// awaiting `src`'s install ack. If the recalls that settled it or
    /// the read failed, end the transition back in `prior`: holders
    /// already recalled are gone from their caches, but re-recalling a
    /// non-holder is harmless, and forgetting a live one is not.
    fn grant(
        &self,
        serving: &Serving,
        src: NodeId,
        page: u32,
        mode: WireMode,
        prior: Coherence,
        granted: clouds_ra::Result<Coherence>,
    ) -> clouds_ra::Result<WirePageGrant> {
        let key = (serving.seg(), page);
        let read = granted.and_then(|state| {
            let grant_seq = self.grant_seq.fetch_add(1, Ordering::Relaxed);
            Ok((state, self.read_canonical(serving, page, grant_seq)?))
        });
        match read {
            Ok((state, grant)) => {
                match mode {
                    WireMode::Read => self.metrics.read_grants.inc(),
                    WireMode::Write => self.metrics.write_grants.inc(),
                };
                self.end_transition(key, state, Some((src, grant.grant_seq)));
                Ok(grant)
            }
            Err(e) => {
                self.end_transition(key, prior, None);
                Err(e)
            }
        }
    }

    /// The grant of `page` as the log holds it: its image and version,
    /// or zeros at version 0 if it was never written. A page a pending
    /// intent stages is in doubt, and is not served.
    fn read_canonical(
        &self,
        serving: &Serving,
        page: u32,
        grant_seq: u64,
    ) -> Result<WirePageGrant, RaError> {
        let seg = serving.seg();
        // One log call serves a written page: both page writes check the
        // page first, so the log holds none past its segment's end. A
        // miss is checked, to tell a page never written from one past
        // the end or a segment that is gone.
        let read = self
            .log
            .read_page(seg, page)
            .map_err(|InDoubt(txn)| in_doubt(seg, page, txn))?;
        let zero_filled = read.is_none();
        if zero_filled {
            self.check_page(seg, page, PAGE_SIZE)?;
        }
        // The log hands out a fresh Vec; wrapping it as PageBytes is
        // allocation-free, and from here to the wire the image is only
        // refcounted, never copied again.
        let (version, image) = read.unwrap_or_else(|| (0, vec![0; PAGE_SIZE]));
        Ok(WirePageGrant {
            data: PageBytes::from(image),
            version,
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
    /// partitioned holder is alive and may keep a copy this forgets, so
    /// each such timeout is counted (`dsm.server.recall_timeouts`) and
    /// traced (`recall_timeout`). A
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
            (
                "downgrade",
                &self.metrics.downgrades,
                RecallRequest::Downgrade { seg, page },
            )
        } else {
            (
                "reclaim",
                &self.metrics.invalidations,
                RecallRequest::Reclaim { seg, page },
            )
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
            Err(CallError::TimedOut) => {
                self.metrics.recall_timeouts.inc();
                self.obs.instant(
                    "dsm.server",
                    "recall_timeout",
                    format!("dst={} kind={kind} seg={seg} page={page}", holder.0),
                );
                RecallReply::NotPresent
            }
            Err(CallError::ServiceNotFound(_)) => RecallReply::NotPresent,
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
        let mut directory = self.lock_directory();
        for key in pages {
            if let Some(entry) = directory.get_mut(key) {
                entry.forget(src);
            }
        }
    }
}

/// The error of a page op that found `page` of `seg` in doubt under
/// `txn`: retryable, as the touch that resolves it may yet get a verdict.
fn in_doubt(seg: SysName, page: u32, txn: u64) -> RaError {
    RaError::Conflict(format!("page {page} of {seg} is in doubt under txn {txn}"))
}
