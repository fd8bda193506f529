//! The DSM client partition for diskless compute servers.
//!
//! "Compute servers do not have any secondary storage… Secondary storage
//! is provided by data servers" (§3). A compute server reaches every
//! segment through this partition: it discovers which data server homes
//! a segment, demand-pages over RaTP, and answers the data server's
//! recall/downgrade requests against the node's page cache.

use crate::proto::{
    self, ports, DsmReply, DsmRequest, RecallReply, RecallRequest, WireInstallAck, WireMode,
    WireWriteBack,
};
use clouds_codec::PageBytes;
use clouds_obs::{current_ctx, install_ctx, Counter, Histogram, NodeObs};
use clouds_ra::{
    AccessMode, PageCache, PageFetch, Partition, RaError, ReclaimOutcome, SysName, WriteBackItem,
};
use clouds_ratp::{CallError, RatpNode, Request};
use clouds_simnet::{FastMap, NodeId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Failover patience: how many times a faulting operation re-resolves
/// the segment's home after a retriable failure before surfacing the
/// error. A crashed primary first burns the operation's own call budget,
/// then each attempt here costs one bounded home re-discovery — by which
/// time the failure-detector has long since promoted a backup.
const FAILOVER_ATTEMPTS: u32 = 10;

/// Pause between failover re-resolutions: gives the data servers' monitor
/// a beat to detect the dead primary and re-home the segment.
const FAILOVER_BACKOFF: Duration = Duration::from_millis(25);

/// Retry budget for home-discovery probes. Bounded (unlike ordinary
/// calls) so a probe to a *crashed* server abandons quickly instead of
/// pinning the resolve for the full patient call budget — a live server
/// answers a probe in one or two round trips, and a false negative only
/// costs one [`FAILOVER_ATTEMPTS`] round.
const PROBE_RETRIES: u32 = 80;

/// Tunables for a [`DsmClientPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmClientConfig {
    /// Maximum pages requested per sequential fault, read or write (the
    /// faulting page plus up to `read_ahead_window - 1` read-ahead pages
    /// in the same mode, counted only while the cache holds none of
    /// them). The page cache is asked to make room for the window first —
    /// evicting least-recently-used frames if it is full — and the
    /// request covers only the frames that are then free, so nothing is
    /// shipped to be dropped. A write window is granted exclusively, but
    /// only over pages no node holds. Set to `0` or `1` to disable
    /// read-ahead in both modes: every fault then asks for its page
    /// alone, still in one `FetchPages` that carries the releases of the
    /// frames evicted for it.
    pub read_ahead_window: u32,
}

impl Default for DsmClientConfig {
    fn default() -> DsmClientConfig {
        DsmClientConfig {
            read_ahead_window: 8,
        }
    }
}

/// A [`Partition`] that pages segments from remote data servers with
/// coherence. See the crate-level example.
pub struct DsmClientPartition {
    ratp: Arc<RatpNode>,
    cache: Arc<PageCache>,
    data_servers: Vec<NodeId>,
    homes: Mutex<FastMap<SysName, NodeId>>,
    config: DsmClientConfig,
    /// Sequential-access detector: per segment, the page index one past
    /// the newest grant, in either mode. A fault landing exactly there is
    /// part of a sequential run and fetches a window.
    next_expected: Mutex<FastMap<SysName, u32>>,
    obs: Arc<NodeObs>,
    metrics: ClientMetrics,
}

/// Registry-backed paging counters (`dsm.client.*`), cached at install
/// so the fault path never resolves names.
struct ClientMetrics {
    fetch_rpcs: Arc<Counter>,
    pages_granted: Arc<Counter>,
    batch_write_back_rpcs: Arc<Counter>,
    pages_written_batched: Arc<Counter>,
    releases_piggybacked: Arc<Counter>,
    fetch_latency: Arc<Histogram>,
}

impl ClientMetrics {
    fn new(obs: &NodeObs) -> ClientMetrics {
        ClientMetrics {
            fetch_rpcs: obs.counter("dsm.client.fetch_rpcs"),
            pages_granted: obs.counter("dsm.client.pages_granted"),
            batch_write_back_rpcs: obs.counter("dsm.client.batch_write_back_rpcs"),
            pages_written_batched: obs.counter("dsm.client.pages_written_batched"),
            releases_piggybacked: obs.counter("dsm.client.releases_piggybacked"),
            fetch_latency: obs.histogram("dsm.client.fetch"),
        }
    }
}

impl fmt::Debug for DsmClientPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsmClientPartition")
            .field("node", &self.ratp.node_id())
            .field("data_servers", &self.data_servers)
            .finish()
    }
}

impl DsmClientPartition {
    /// Create the partition and register the recall service
    /// ([`ports::DSM_CLIENT`]) on this node.
    ///
    /// # Panics
    ///
    /// Panics if `data_servers` is empty.
    pub fn install(
        ratp: &Arc<RatpNode>,
        cache: Arc<PageCache>,
        data_servers: Vec<NodeId>,
    ) -> Arc<DsmClientPartition> {
        DsmClientPartition::install_with_config(
            ratp,
            cache,
            data_servers,
            DsmClientConfig::default(),
        )
    }

    /// Like [`DsmClientPartition::install`] with explicit tunables
    /// (`read_ahead_window: 1` disables read-ahead; every fault is still
    /// one `FetchPages` and every write-back one `WriteBackBatch` per
    /// home).
    ///
    /// # Panics
    ///
    /// Panics if `data_servers` is empty.
    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `RecallRequest` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    pub fn install_with_config(
        ratp: &Arc<RatpNode>,
        cache: Arc<PageCache>,
        data_servers: Vec<NodeId>,
        config: DsmClientConfig,
    ) -> Arc<DsmClientPartition> {
        assert!(
            !data_servers.is_empty(),
            "a DSM client needs at least one data server"
        );
        let obs = Arc::clone(ratp.obs());
        let part = Arc::new(DsmClientPartition {
            ratp: Arc::clone(ratp),
            cache: Arc::clone(&cache),
            data_servers,
            homes: Mutex::new(FastMap::default()),
            config,
            next_expected: Mutex::new(FastMap::default()),
            metrics: ClientMetrics::new(&obs),
            obs,
        });
        let obs = Arc::clone(part.ratp.obs());
        ratp.register_service(ports::DSM_CLIENT, move |req: Request| {
            let reply = match proto::decode::<RecallRequest>(&req.payload) {
                Ok(RecallRequest::Reclaim { seg, page }) => {
                    obs.instant("dsm.client", "recall", format!("seg={seg} page={page}"));
                    match cache.reclaim((seg, page)) {
                        ReclaimOutcome::NotPresent => RecallReply::NotPresent,
                        ReclaimOutcome::Taken { dirty_data: None } => RecallReply::Clean,
                        ReclaimOutcome::Taken {
                            dirty_data: Some(data),
                        } => RecallReply::Dirty(PageBytes::from(data)),
                    }
                }
                Ok(RecallRequest::Downgrade { seg, page }) => {
                    obs.instant("dsm.client", "downgrade", format!("seg={seg} page={page}"));
                    match cache.downgrade((seg, page)) {
                        Some(data) => RecallReply::Dirty(PageBytes::from(data)),
                        None => RecallReply::Clean,
                    }
                }
                Err(_) => RecallReply::NotPresent,
            };
            proto::encode(&reply)
        });
        part
    }

    /// This node's page cache (the one recalls are served from).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The tunables this partition was installed with.
    pub fn config(&self) -> DsmClientConfig {
        self.config
    }

    /// This node's observability handle (same as the transport's).
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// The data servers this client knows about.
    pub fn data_servers(&self) -> &[NodeId] {
        &self.data_servers
    }

    /// Create a segment on a *specific* data server (used for explicit
    /// replica placement by PET).
    ///
    /// # Errors
    ///
    /// Propagates the server's error or transport failure.
    pub fn create_segment_at(&self, seg: SysName, len: u64, home: NodeId) -> clouds_ra::Result<()> {
        expect_ok(self.call(home, &DsmRequest::CreateSegment { seg, len })?)?;
        self.homes.lock().insert(seg, home);
        Ok(())
    }

    /// Create a segment replicated across `members` (primary first,
    /// backups in promotion order). The primary creates the canonical
    /// copy and pushes a `MirrorCreate` to every backup before replying,
    /// so the whole replica set exists before the first write. The caller
    /// is expected to also register the set with the naming directory
    /// (`NameClient::register_replicas`) so failover can re-home it.
    ///
    /// # Errors
    ///
    /// Propagates the primary's error (including any backup's refusal,
    /// surfaced by the primary) or transport failure; rejects an empty
    /// member list.
    pub fn create_replicated_segment(
        &self,
        seg: SysName,
        len: u64,
        members: &[NodeId],
    ) -> clouds_ra::Result<()> {
        let Some((&primary, _)) = members.split_first() else {
            return Err(RaError::PartitionUnavailable(
                "replica set must name at least a primary".into(),
            ));
        };
        let wire = members.iter().map(|n| n.0).collect();
        let create = DsmRequest::CreateReplicated {
            seg,
            len,
            members: wire,
        };
        expect_ok(self.call(primary, &create)?)?;
        self.homes.lock().insert(seg, primary);
        Ok(())
    }

    /// Default placement for a fresh segment: hash over the data servers.
    pub fn default_home(&self, seg: SysName) -> NodeId {
        let idx = (seg.as_u128() % self.data_servers.len() as u128) as usize;
        self.data_servers[idx]
    }

    /// Drop any cached home mapping (tests, failover).
    pub fn forget_home(&self, seg: SysName) {
        self.homes.lock().remove(&seg);
    }

    /// The data server homing `seg` (discovering it if unknown). Used by
    /// lock placement: segment locks live on the segment's home server.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] if no data server has the segment.
    pub fn home_of(&self, seg: SysName) -> clouds_ra::Result<NodeId> {
        self.resolve(seg)
    }

    /// The transport node this partition runs on.
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    fn call(&self, server: NodeId, req: &DsmRequest) -> clouds_ra::Result<DsmReply> {
        decode_reply(
            server,
            self.ratp
                .call(server, ports::DSM_SERVER, proto::encode(req)),
        )
    }

    /// Find (and remember) the data server homing `seg`, probing all
    /// known data servers on a cache miss.
    ///
    /// All candidates are probed in parallel: only the actual home
    /// answers `Len`, so the first positive reply wins, and a crashed
    /// server burns its call timeout on its own probe thread instead of
    /// serially stalling the fault for the full timeout per dead server.
    fn resolve(&self, seg: SysName) -> clouds_ra::Result<NodeId> {
        if let Some(home) = self.homes.lock().get(&seg) {
            return Ok(*home);
        }
        if let [server] = self.data_servers[..] {
            return match self.call(server, &DsmRequest::SegmentLen { seg }) {
                Ok(DsmReply::Len(_)) => {
                    self.homes.lock().insert(seg, server);
                    Ok(server)
                }
                _ => Err(RaError::SegmentNotFound(seg)),
            };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        // Probe threads inherit the faulting thread's causal context so
        // their RaTP calls stay inside the ambient trace.
        let ctx = current_ctx();
        for &server in &self.data_servers {
            let ratp = Arc::clone(&self.ratp);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _trace = ctx.map(install_ctx);
                let found = matches!(
                    ratp.call_with_budget(
                        server,
                        ports::DSM_SERVER,
                        proto::encode(&DsmRequest::SegmentLen { seg }),
                        PROBE_RETRIES,
                    )
                    .map(|bytes| proto::decode::<DsmReply>(&bytes)),
                    Ok(Ok(DsmReply::Len(_)))
                );
                let _ = tx.send((server, found));
            });
        }
        drop(tx);
        while let Ok((server, found)) = rx.recv() {
            if found {
                self.homes.lock().insert(seg, server);
                return Ok(server);
            }
        }
        Err(RaError::SegmentNotFound(seg))
    }

    fn is_sequential(&self, seg: SysName, page: u32) -> bool {
        self.next_expected.lock().get(&seg) == Some(&page)
    }

    /// Record that pages `first .. first + granted` were just granted,
    /// arming the detector for the page right after the run.
    fn note_grant(&self, seg: SysName, first: u32, granted: u32) {
        self.next_expected
            .lock()
            .insert(seg, first.saturating_add(granted));
    }

    /// Map one home's answer to a `WriteBackBatch` of `n` pages onto
    /// per-page results, aligned with the pages sent.
    fn write_back_batch_results(
        reply: clouds_ra::Result<DsmReply>,
        n: usize,
    ) -> Vec<clouds_ra::Result<u64>> {
        let e = match reply {
            Ok(DsmReply::WriteBackResults { results }) if results.len() == n => {
                return results
                    .into_iter()
                    .map(|r| r.map_err(RaError::from))
                    .collect()
            }
            Ok(other) => reply_error(other),
            Err(e) => e,
        };
        (0..n).map(|_| Err(e.clone())).collect()
    }

    /// One `WriteBackBatch` RPC per home server, all homes' requests in
    /// flight at once ([`RatpNode::call_many`]), one result per item. An
    /// item whose home cannot be resolved fails with the resolve error.
    fn write_back_round(&self, items: &[&WriteBackItem]) -> Vec<clouds_ra::Result<u64>> {
        let mut results: Vec<clouds_ra::Result<u64>> = items
            .iter()
            .map(|_| {
                Err(RaError::PartitionUnavailable(
                    "write-back batch item unresolved".into(),
                ))
            })
            .collect();
        let mut groups: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            match self.resolve(item.seg) {
                Ok(home) => groups.entry(home).or_default().push(i),
                Err(e) => results[i] = Err(e),
            }
        }
        // One span per home, siblings under the ambient span like the
        // transport's call spans: all of them are open at once, so none
        // may become the ambient parent of the next.
        let parent = current_ctx();
        let (spans, calls): (Vec<_>, Vec<_>) = groups
            .iter()
            .map(|(&home, idxs)| {
                self.metrics.batch_write_back_rpcs.inc();
                self.metrics.pages_written_batched.add(idxs.len() as u64);
                let detail = format!("home={} pages={}", home.0, idxs.len());
                let mut span =
                    self.obs
                        .child_span(parent, "dsm.client", "write_back_batch", &detail);
                span.set_args(detail);
                let pages = idxs
                    .iter()
                    .map(|&i| WireWriteBack {
                        seg: items[i].seg,
                        page: items[i].page,
                        data: PageBytes::copy_from_slice(&items[i].data),
                    })
                    .collect();
                let request = proto::encode(&DsmRequest::WriteBackBatch { pages });
                (span, (home, ports::DSM_SERVER, request))
            })
            .unzip();
        let replies = self.ratp.call_many(calls);
        drop(spans);
        for ((home, idxs), reply) in groups.into_iter().zip(replies) {
            let group_results =
                Self::write_back_batch_results(decode_reply(home, reply), idxs.len());
            for (i, r) in idxs.into_iter().zip(group_results) {
                results[i] = r;
            }
        }
        results
    }

    /// Give up this node's copy of a page with a `ReleasePage` of its
    /// own: the fallback for a victim whose release cannot ride on a
    /// fetch to its home.
    fn release_page(&self, seg: SysName, page: u32) -> clouds_ra::Result<()> {
        self.on_home(seg, |home| {
            expect_ok(self.call(home, &DsmRequest::ReleasePage { seg, page })?)
        })
    }

    /// Run `f` against the segment's home, riding out re-homing: a
    /// `SegmentNotFound` (stale home cache, or a backup not yet promoted)
    /// or `PartitionUnavailable` (home crashed mid-call) drops the cached
    /// home and rediscovers, up to [`FAILOVER_ATTEMPTS`] times. An
    /// in-flight fetch or write-back therefore lands on the *new* primary
    /// after a failover instead of surfacing the crash to the fault
    /// handler. `ReplicaUnavailable` is *not* retried — the home is
    /// reachable but one of its backups is not, so each re-resolution
    /// would find the same home and burn the full mirror patience again;
    /// it surfaces promptly instead.
    fn on_home<T>(
        &self,
        seg: SysName,
        f: impl Fn(NodeId) -> clouds_ra::Result<T>,
    ) -> clouds_ra::Result<T> {
        let mut last = None;
        for attempt in 0..FAILOVER_ATTEMPTS {
            if attempt > 0 {
                self.forget_home(seg);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock failover backoff, until it runs on virtual time"
                )]
                std::thread::sleep(FAILOVER_BACKOFF);
            }
            match self.resolve(seg).and_then(&f) {
                Err(e @ (RaError::SegmentNotFound(_) | RaError::PartitionUnavailable(_))) => {
                    last = Some(e);
                }
                other => return other,
            }
        }
        Err(last.expect("FAILOVER_ATTEMPTS > 0"))
    }
}

/// A transport outcome as the partition layer reports it.
fn decode_reply(
    server: NodeId,
    reply: Result<bytes::Bytes, CallError>,
) -> clouds_ra::Result<DsmReply> {
    match reply {
        // Shared decode: granted page images stay refcounted slices
        // of the reply buffer; the only copy left on the fetch path
        // is the one installing the frame into the page cache.
        Ok(bytes) => proto::decode_shared(&bytes),
        Err(CallError::TimedOut) => Err(RaError::PartitionUnavailable(format!(
            "data server {server} unreachable"
        ))),
        Err(e) => Err(RaError::PartitionUnavailable(e.to_string())),
    }
}

/// The error a reply stands for when it is not the one the request
/// calls for: the server's own, or a protocol violation.
fn reply_error(reply: DsmReply) -> RaError {
    match reply {
        DsmReply::Err(e) => e.into(),
        other => RaError::PartitionUnavailable(format!("unexpected DSM reply: {other:?}")),
    }
}

/// Take the reply to a request that carries nothing back.
fn expect_ok(reply: DsmReply) -> clouds_ra::Result<()> {
    match reply {
        DsmReply::Ok => Ok(()),
        other => Err(reply_error(other)),
    }
}

impl Partition for DsmClientPartition {
    fn create_segment(&self, seg: SysName, len: u64) -> clouds_ra::Result<()> {
        self.create_segment_at(seg, len, self.default_home(seg))
    }

    fn destroy_segment(&self, seg: SysName) -> clouds_ra::Result<()> {
        self.on_home(seg, |home| {
            expect_ok(self.call(home, &DsmRequest::DestroySegment { seg })?)
        })
        .inspect(|()| self.forget_home(seg))
    }

    fn segment_len(&self, seg: SysName) -> clouds_ra::Result<u64> {
        self.on_home(seg, |home| {
            match self.call(home, &DsmRequest::SegmentLen { seg })? {
                DsmReply::Len(len) => Ok(len),
                other => Err(reply_error(other)),
            }
        })
    }

    /// Every fault is one `FetchPages`, in the fault's mode. A fault that
    /// continues a sequential run — read or write alike — asks for a
    /// window: its tail is the pages after `page`, up to
    /// `read_ahead_window - 1`, that the cache neither holds nor is
    /// faulting in, so an upgrade fault amid pages it already shares
    /// asks for none. The cache first makes room for that tail, and the
    /// request asks for exactly the frames that freed, so every granted
    /// page has a frame waiting; the server grants as much of it as it
    /// can without a recall (a write tail only pages nobody holds). Any
    /// other fault asks for its page alone. The victims — `release`,
    /// which the fault path detached, and those of the read-ahead room —
    /// ride on the request when they are homed where it goes; the rest
    /// (or all of them, if no server answers) get one `ReleasePage` each.
    /// The faulting page is returned (the cache installs and acks it as
    /// usual); the tail is installed here as clean frames in the granted
    /// mode and acknowledged in one batched notify, `installed: false`
    /// for a page whose slot a racing fault or recall took meanwhile.
    fn fetch_page(
        &self,
        seg: SysName,
        page: u32,
        mode: AccessMode,
        release: &[(SysName, u32)],
    ) -> clouds_ra::Result<PageFetch> {
        let window = self.config.read_ahead_window;
        let tail = if window > 1 && self.is_sequential(seg, page) {
            self.cache.absent_after((seg, page), window - 1)
        } else {
            0
        };
        let room = (tail > 0).then(|| self.cache.make_room(tail, self));
        let count = 1 + room.as_ref().map_or(0, |room| room.frames() as u32);
        let victims: Vec<(SysName, u32)> = release
            .iter()
            .chain(room.iter().flat_map(|room| room.clean_victims()))
            .copied()
            .collect();
        let wire_mode = match mode {
            AccessMode::Read => WireMode::Read,
            AccessMode::Write => WireMode::Write,
        };
        self.metrics.fetch_rpcs.inc();
        let detail = format!("seg={seg} first={page} count={count} mode={mode:?}");
        let mut span = self
            .obs
            .traced_span("dsm.client", "fetch_pages", &detail)
            .with_histogram(Arc::clone(&self.metrics.fetch_latency));
        span.set_args(detail);
        let fetched = self.on_home(seg, |home| {
            let here: Vec<(SysName, u32)> = {
                let homes = self.homes.lock();
                victims
                    .iter()
                    .filter(|(vseg, _)| homes.get(vseg) == Some(&home))
                    .copied()
                    .collect()
            };
            let fetch = DsmRequest::FetchPages {
                seg,
                first: page,
                count,
                mode: wire_mode,
                release: here.clone(),
            };
            match self.call(home, &fetch)? {
                DsmReply::Pages { first, pages } if first == page && !pages.is_empty() => {
                    Ok((home, pages, here))
                }
                other => Err(reply_error(other)),
            }
        });
        let rode: &[(SysName, u32)] = fetched.as_ref().map_or(&[], |(_, _, here)| here);
        self.metrics.releases_piggybacked.add(rode.len() as u64);
        for &(vseg, vpage) in victims.iter().filter(|v| !rode.contains(v)) {
            // Best effort: a copyset entry left behind is only a recall
            // that will find nothing.
            let _ = self.release_page(vseg, vpage);
        }
        // Every victim's release has been applied (or given up on), so
        // the tail below may reuse a victim's slot.
        drop(room);
        let (home, mut pages, _) = fetched?;
        self.metrics.pages_granted.add(pages.len() as u64);
        let tail = pages.split_off(1);
        let head = pages.pop().expect("non-empty checked above");
        let mut acks = Vec::with_capacity(tail.len());
        for (i, grant) in tail.into_iter().enumerate() {
            let tail_page = page + 1 + i as u32;
            let installed = self.cache.install_prefetched(
                (seg, tail_page),
                grant.data.to_vec(),
                grant.version,
                mode,
            );
            acks.push(WireInstallAck {
                page: tail_page,
                grant_seq: grant.grant_seq,
                installed,
            });
        }
        let granted = 1 + acks.len() as u32;
        // One notify acks the whole tail. The home applies it where it
        // lands — without loss, on this thread inside the send — so the
        // pages' next transition, this client's next fetch among them,
        // finds no ack outstanding.
        if !acks.is_empty() {
            self.ratp.notify(
                home,
                ports::DSM_SERVER,
                proto::encode(&DsmRequest::InstallAckBatch { seg, acks }),
            );
        }
        self.note_grant(seg, page, granted);
        Ok(PageFetch {
            data: head.data.to_vec(),
            version: head.version,
            zero_filled: head.zero_filled,
            grant_seq: head.grant_seq,
        })
    }

    /// One `WriteBackBatch` RPC per home server, all homes' requests in
    /// flight at once: an N-page commit flush costs one round trip, not
    /// one per page or per server. Pages fenced off by a stale home —
    /// `SegmentNotFound` from a demoted ex-primary or a not-yet-promoted
    /// backup — are re-driven in another round after their cached home is
    /// dropped, `FAILOVER_BACKOFF` apart and at most `FAILOVER_ATTEMPTS`
    /// rounds in all, as a fetch rides out a failover. Only the fencing error is re-driven: a transport
    /// failure (`PartitionUnavailable`) fails the flush (the frames stay
    /// dirty, the caller retries), and `ReplicaUnavailable` means the
    /// home answered but a backup is down — re-resolution cannot change
    /// either.
    fn write_back_batch(&self, items: &[WriteBackItem]) -> Vec<clouds_ra::Result<u64>> {
        let mut results = self.write_back_round(&items.iter().collect::<Vec<_>>());
        for _ in 1..FAILOVER_ATTEMPTS {
            let stale: Vec<usize> = (0..items.len())
                .filter(|&i| matches!(results[i], Err(RaError::SegmentNotFound(_))))
                .collect();
            if stale.is_empty() {
                break;
            }
            for &i in &stale {
                self.forget_home(items[i].seg);
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock failover backoff, until it runs on virtual time"
            )]
            std::thread::sleep(FAILOVER_BACKOFF);
            let retried =
                self.write_back_round(&stale.iter().map(|&i| &items[i]).collect::<Vec<_>>());
            for (i, result) in stale.into_iter().zip(retried) {
                results[i] = result;
            }
        }
        results
    }

    fn ack_page_install(&self, seg: SysName, page: u32, grant_seq: u64) {
        // Fire-and-forget: if the ack is lost the manager's deadline
        // expires and coherence proceeds conservatively. Without loss
        // the home has applied it when `notify` returns (it runs on the
        // home's receive path, inside this thread's send).
        // Copy the home out first: an `if let` scrutinee would keep the
        // `homes` guard alive across the notify send.
        let home = self.homes.lock().get(&seg).copied();
        if let Some(home) = home {
            let acks = vec![WireInstallAck {
                page,
                grant_seq,
                installed: true,
            }];
            self.ratp.notify(
                home,
                ports::DSM_SERVER,
                proto::encode(&DsmRequest::InstallAckBatch { seg, acks }),
            );
        }
    }
}
