//! The data-server side of DSM: canonical storage plus the coherence
//! directory (§4.2 "DSM Clients and Servers").
//!
//! "When a page of data is needed at node A, the DSM client partition
//! requests it from the data server. If the page is currently in use in
//! exclusive mode at node B, the data server forwards the request to the
//! DSM server at node B, which supplies the page to A."
//!
//! The protocol is a centralized-manager invalidation protocol in the
//! Li–Hudak style, managed per page by the data server that homes the
//! segment:
//!
//! * **read fault** — any exclusive copy is downgraded (its dirty data
//!   written through), then a shared copy is granted.
//! * **write fault** — every other copy is recalled (invalidated), dirty
//!   data written through, then exclusive ownership is granted.
//! * **write-back / release** — clients flush or drop copies; the
//!   directory is updated without blocking in-flight transitions (this
//!   non-blocking property is what makes eviction during a concurrent
//!   recall deadlock-free).
//!
//! # One path per operation
//!
//! The wire carries a single-page and a batch form of most paging
//! operations. The DSM client sends only the batch forms — every fault
//! is a `FetchPages`, every write-back a `WriteBackBatch`, every install
//! ack an `InstallAckBatch` — plus a `ReleasePage` for an evicted page
//! whose release cannot ride on a fetch to its home. The single-page
//! forms are still accepted, and the server has one path for both:
//! `DsmServer::dispatch` normalises each wire form to its batch case
//! (`FetchPage` is a one-page `FetchPages`, `WriteBack` a one-page
//! `WriteBackBatch`, `InstallAck` a one-entry `InstallAckBatch`,
//! `ReleasePage` a one-entry release list) and runs the same code for
//! both. Two disciplines then hold by construction rather than by
//! review:
//!
//! * **fence → apply.** [`DsmServer::check_serving`] mints a
//!   [`Serving`] token, and every client-plane function that reaches
//!   the log's pages takes `&Serving` and reads its segment from it:
//!   each store-touching arm of `dispatch` opens by minting one, a
//!   write-back — whose batch may span segments — mints one per page,
//!   and a commit one per page it installs. A path that skips the fence does
//!   not compile. The mirror, creation and recovery planes carry their
//!   own epoch checks and reach the log without a token.
//! * **write → log → mirror → ack.** Every primary-side page write —
//!   a client's write-back, dirty data absorbed from a recall, an lcp
//!   commit — goes through `DsmServer::apply_write`: `PageWrite` log
//!   record (the log picks its version), `write_backs` counter, mirror
//!   push to every backup, and only then the version the caller may
//!   acknowledge. A 2PC commit writes no page: its `TxnResolved` makes
//!   the prepared images live (the log picks their versions), and the
//!   same counter and mirror push follow.
//! * **one copy, one version.** Grants read pages from the log, and
//!   [`LogStore::write_page`] picks a primary's next version, or gates a
//!   backup's push, under the log's one lock.
//! * **one table, the log.** Replica views, staged intents and outcomes
//!   are the log's live records; a change to one is one [`LogStore`]
//!   call under its lock. Outside this crate the log is
//!   [`DsmServer::log`]'s read side, so only the commit protocol
//!   (`commit.rs`) stages, retires or records a transaction.
//!
//! Errors travel as `Result` to a single conversion into
//! [`DsmReply::Err`] in `DsmServer::handle`.
//!
//! The rest of `impl DsmServer` lives in sibling files: `coherence.rs`
//! (the directory, transitions, fetch, recall), `replication.rs`
//! (replica view, serving fence, mirror plane, promotion),
//! `recovery.rs` (crash, replay, recovery flags), `commit.rs` (the
//! 2PC participant) and `locks.rs` (the segment locks).

use crate::coherence::Directory;
use crate::locks::LockTable;
use crate::proto::{self, ports, DsmReply, DsmRequest, WireError, WireInstallAck, WireWriteBack};
use crate::replication::Serving;
use clouds_codec::PageBytes;
use clouds_obs::{Counter, Histogram, NodeObs};
use clouds_ra::{RaError, SysName, PAGE_SIZE};
use clouds_ratp::{RatpNode, Request};
use clouds_simnet::NodeId;
use clouds_store::{LogConfig, LogReads, LogRecord, LogStore};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, OnceLock};

/// A data server's DSM service.
///
/// Owns the append-only log ([`DsmServer::log`]) — the only copy of
/// every page, replica view, staged intent and outcome it keeps, and
/// the only state that survives its crash — and the per-page coherence
/// directory. Created with
/// [`DsmServer::install`], which registers the service and the
/// install-ack notify handler on [`ports::DSM_SERVER`], the 2PC
/// participant on [`ports::COMMIT`] and the segment locks on
/// [`ports::LOCKS`].
pub struct DsmServer {
    pub(crate) ratp: Arc<RatpNode>,
    /// The append-only log: every page, replica config, staged intent
    /// and outcome (each appended before it is acknowledged), and all
    /// that a crash keeps.
    pub(crate) log: Arc<LogStore>,
    /// The coherence directory, a leaf lock never held across a recall
    /// (see `coherence.rs`).
    pub(crate) directory: Mutex<Directory>,
    /// Signalled whenever a page's `busy` flag or awaited ack clears,
    /// and when the directory is wiped.
    pub(crate) directory_cvar: Condvar,
    /// The segment locks (`locks.rs`), owned by txn ids. A crash keeps
    /// them.
    pub(crate) locks: LockTable,
    /// Set across a crash/restart: while recovering, replicated segments
    /// are not served (the local replica view may predate a promotion
    /// that happened while this server was down — serving on it would be
    /// a split brain). Cleared once the view is resynced from naming.
    pub(crate) recovering: AtomicBool,
    /// The node hosting the cluster's outcome registry
    /// ([`DsmServer::use_outcome_registry`]); a crash keeps it.
    pub(crate) registry: OnceLock<NodeId>,
    pub(crate) obs: Arc<NodeObs>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) grant_seq: AtomicU64,
}

/// Registry-backed counter handles, resolved once at install time so the
/// hot paths never go through the registry map.
pub(crate) struct ServerMetrics {
    pub(crate) read_grants: Arc<Counter>,
    pub(crate) write_grants: Arc<Counter>,
    pub(crate) invalidations: Arc<Counter>,
    pub(crate) downgrades: Arc<Counter>,
    pub(crate) write_backs: Arc<Counter>,
    pub(crate) ack_timeouts: Arc<Counter>,
    pub(crate) recall_timeouts: Arc<Counter>,
    pub(crate) fetch_rpcs: Arc<Counter>,
    pub(crate) batch_fetches: Arc<Counter>,
    pub(crate) prefetch_pages_granted: Arc<Counter>,
    pub(crate) batch_write_backs: Arc<Counter>,
    pub(crate) mirror_writes: Arc<Counter>,
    pub(crate) mirror_applies: Arc<Counter>,
    pub(crate) promotions: Arc<Counter>,
    pub(crate) shard_contention: Arc<Counter>,
    /// Virtual time spent replaying the log on restart.
    pub(crate) replay: Arc<Histogram>,
}

impl ServerMetrics {
    fn new(obs: &NodeObs) -> ServerMetrics {
        ServerMetrics {
            read_grants: obs.counter("dsm.server.read_grants"),
            write_grants: obs.counter("dsm.server.write_grants"),
            invalidations: obs.counter("dsm.server.invalidations"),
            downgrades: obs.counter("dsm.server.downgrades"),
            write_backs: obs.counter("dsm.server.write_backs"),
            ack_timeouts: obs.counter("dsm.server.ack_timeouts"),
            recall_timeouts: obs.counter("dsm.server.recall_timeouts"),
            fetch_rpcs: obs.counter("dsm.server.fetch_rpcs"),
            batch_fetches: obs.counter("dsm.server.batch_fetches"),
            prefetch_pages_granted: obs.counter("dsm.server.prefetch_pages_granted"),
            batch_write_backs: obs.counter("dsm.server.batch_write_backs"),
            mirror_writes: obs.counter("dsm.server.mirror_writes"),
            mirror_applies: obs.counter("dsm.server.mirror_applies"),
            promotions: obs.counter("dsm.server.promotions"),
            shard_contention: obs.counter("dsm.server.shard_contention"),
            replay: obs.histogram("store.replay"),
        }
    }
}

impl fmt::Debug for DsmServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsmServer")
            .field("node", &self.ratp.node_id())
            .finish_non_exhaustive()
    }
}

impl DsmServer {
    /// Create the server over a fresh log and register its RaTP
    /// services. A restarted server keeps this one and rebuilds its
    /// volatile state from the log ([`DsmServer::recover_from_log`]).
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<DsmServer> {
        let obs = Arc::clone(ratp.obs());
        let metrics = ServerMetrics::new(&obs);
        let log = Arc::new(LogStore::with_obs(LogConfig::default(), &obs));
        let server = Arc::new(DsmServer {
            ratp: Arc::clone(ratp),
            log,
            directory: Mutex::new(Directory::default()),
            directory_cvar: Condvar::new(),
            locks: LockTable::default(),
            recovering: AtomicBool::new(false),
            registry: OnceLock::new(),
            obs,
            metrics,
            grant_seq: AtomicU64::new(1),
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::DSM_SERVER, move |req: Request| {
            handler.serve_wire(req.src, &req.payload)
        });
        // Weak: a notify handler is not unbound with the services, and
        // must not keep the server — and through it the node — alive.
        let handler = Arc::downgrade(&server);
        ratp.register_notify(ports::DSM_SERVER, move |src, payload| {
            if let Some(server) = handler.upgrade() {
                server.serve_notify(src, payload);
            }
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::COMMIT, move |req: Request| {
            handler.serve_commit_wire(req.src, &req.payload)
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::LOCKS, move |req: Request| {
            handler.serve_lock_wire(&req.payload)
        });
        server
    }

    /// Decode one wire request, serve it, and encode the reply — the
    /// body of the registered RaTP service, exposed so in-process
    /// callers (benches, co-located services) can exercise the page
    /// hot path without paying for transport.
    ///
    /// Shared decode: page payloads inside the request become
    /// refcounted slices of the request buffer instead of fresh
    /// allocations.
    pub fn serve_wire(&self, src: NodeId, payload: &bytes::Bytes) -> bytes::Bytes {
        let reply = match proto::decode_shared::<DsmRequest>(payload) {
            Ok(message) => self.handle(src, message),
            Err(e) => DsmReply::Err(e.into()),
        };
        proto::encode(&reply)
    }

    /// Apply one notify on [`ports::DSM_SERVER`]. The clients' only
    /// notify is an `InstallAckBatch`, and it is applied on the receive
    /// path that delivers it (see [`RatpNode::register_notify`]):
    /// `install_acks` takes only the directory's leaf lock and wakes its
    /// waiters, so it never waits. Any other request sent
    /// as a notify is dropped — it would need a reply, and may wait.
    fn serve_notify(&self, src: NodeId, payload: &bytes::Bytes) {
        if let Ok(DsmRequest::InstallAckBatch { seg, acks }) = proto::decode_shared(payload) {
            self.install_acks(src, seg, &acks);
        }
    }

    /// Serve one decoded request: `DsmServer::dispatch` does the work,
    /// and whatever error any layer under it raised becomes the wire's
    /// error reply here and nowhere else.
    fn handle(&self, src: NodeId, req: DsmRequest) -> DsmReply {
        self.dispatch(src, req)
            .unwrap_or_else(|e| DsmReply::Err(e.into()))
    }

    /// The one server-side path per operation: normalise the wire form
    /// to its batch case and run it. A store-touching arm opens with the
    /// serving fence, so it can apply nothing — not even the release
    /// list riding on a fetch — on a server that then refuses the
    /// request: the client re-sends it all to the real home.
    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `DsmRequest` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn dispatch(&self, src: NodeId, req: DsmRequest) -> clouds_ra::Result<DsmReply> {
        match req {
            DsmRequest::CreateSegment { seg, len } => {
                self.create_segment(seg, len)?;
                Ok(DsmReply::Ok)
            }
            DsmRequest::DestroySegment { seg } => {
                let serving = self.check_serving(seg)?;
                // Backups drop their copies *first*: if one is down past
                // the mirror budget, the primary still holds the segment
                // and its replica entry, so the client's retry re-drives
                // the whole destroy instead of finding it half-applied
                // (apply_mirror_destroy is idempotent — backups that
                // already destroyed simply re-ack).
                self.mirror_destroy(seg)?;
                self.segment_len(serving.seg())?;
                self.log.append(LogRecord::SegmentDestroy { seg });
                self.drop_directory_entries(seg);
                Ok(DsmReply::Ok)
            }
            DsmRequest::SegmentLen { seg } => {
                let serving = self.check_serving(seg)?;
                Ok(DsmReply::Len(self.segment_len(serving.seg())?))
            }
            DsmRequest::FetchPage { seg, page, mode } => {
                let serving = self.check_serving(seg)?;
                let grant = self
                    .fetch_pages(&serving, src, page, 1, mode, &[])?
                    .remove(0);
                Ok(DsmReply::Page {
                    data: grant.data,
                    version: grant.version,
                    zero_filled: grant.zero_filled,
                    grant_seq: grant.grant_seq,
                })
            }
            DsmRequest::FetchPages {
                seg,
                first,
                count,
                mode,
                release,
            } => {
                let serving = self.check_serving(seg)?;
                self.metrics.batch_fetches.inc();
                let pages = self.fetch_pages(&serving, src, first, count, mode, &release)?;
                Ok(DsmReply::Pages { first, pages })
            }
            DsmRequest::WriteBack {
                seg,
                page,
                data,
                release,
            } => {
                self.write_back(src, &WireWriteBack { seg, page, data }, release)?;
                Ok(DsmReply::Ok)
            }
            DsmRequest::WriteBackBatch { pages } => {
                self.metrics.batch_write_backs.inc();
                self.obs.instant(
                    "dsm.server",
                    "write_back_batch",
                    format!("pages={}", pages.len()),
                );
                // One result per page, aligned with the request: the
                // reply acknowledges exactly the pages every replica now
                // holds.
                let results = pages
                    .iter()
                    .map(|p| self.write_back(src, p, false).map_err(WireError::from))
                    .collect();
                Ok(DsmReply::WriteBackResults { results })
            }
            DsmRequest::ReleasePage { seg, page } => {
                self.forget_copies(src, &[(seg, page)]);
                Ok(DsmReply::Ok)
            }
            DsmRequest::InstallAck {
                seg,
                page,
                grant_seq,
            } => {
                let ack = WireInstallAck {
                    page,
                    grant_seq,
                    installed: true,
                };
                self.install_acks(src, seg, &[ack]);
                Ok(DsmReply::Ok)
            }
            DsmRequest::InstallAckBatch { seg, acks } => {
                self.install_acks(src, seg, &acks);
                Ok(DsmReply::Ok)
            }
            DsmRequest::CreateReplicated { seg, len, members } => self
                .create_replicated(seg, len, &members)
                .map(|()| DsmReply::Ok),
            DsmRequest::MirrorCreate {
                seg,
                len,
                members,
                epoch,
            } => self
                .apply_mirror_create(src, seg, len, &members, epoch)
                .map(|()| DsmReply::Ok),
            DsmRequest::MirrorWrite {
                seg,
                page,
                data,
                version,
                members,
                epoch,
            } => self
                .apply_mirror_write(src, seg, page, &data, version, &members, epoch)
                .map(|()| DsmReply::Ok),
            DsmRequest::MirrorDestroy { seg, epoch } => {
                self.apply_mirror_destroy(seg, epoch).map(|()| DsmReply::Ok)
            }
            DsmRequest::PromoteSegment { seg, epoch } => {
                self.promote_segment(seg, epoch).map(|()| DsmReply::Ok)
            }
        }
    }

    /// One client write-back, single or batched: the per-page serving
    /// fence, the write, then the optional release. A backup or demoted
    /// ex-primary must refuse the write (the mirror push would silently
    /// no-op for it), so the client re-resolves the home instead of
    /// collecting an ack the real primary never saw. Deliberately does
    /// *not* take the page's busy flag — see the module docs on
    /// deadlock freedom.
    fn write_back(&self, src: NodeId, p: &WireWriteBack, release: bool) -> clouds_ra::Result<u64> {
        let serving = self.check_serving(p.seg)?;
        let version = self.apply_write(&serving, p.page, &p.data)?;
        if release {
            self.forget_copies(src, &[(p.seg, p.page)]);
        }
        Ok(version)
    }

    /// The primary-side page write, all of it: log, counter, mirror.
    /// Returns the page's new version — the caller's licence to
    /// acknowledge.
    ///
    /// The log picks the version (the live one + 1) and appends under
    /// its lock, which is released before the mirror RPC. The log comes
    /// before the mirror: an ack promises durability, and durability
    /// lives in this node's log. The mirror comes before the return:
    /// once a client sees `Ok`, every replica must be able to serve this
    /// image after a failover.
    pub(crate) fn apply_write(
        &self,
        serving: &Serving,
        page: u32,
        data: &PageBytes,
    ) -> clouds_ra::Result<u64> {
        let seg = serving.seg();
        self.check_page(seg, page, data.len())?;
        let version = self
            .log
            .write_page(seg, page, data, None)
            .ok_or(RaError::SegmentNotFound(seg))?;
        self.metrics.write_backs.inc();
        self.mirror_page(serving, page, || Ok((version, data.clone())))?;
        Ok(version)
    }

    /// Create `seg` with `len` zero bytes (one `SegmentCreate` record),
    /// or [`RaError::SegmentExists`].
    pub(crate) fn create_segment(&self, seg: SysName, len: u64) -> clouds_ra::Result<()> {
        if self.log.segment_len(seg).is_some() {
            return Err(RaError::SegmentExists(seg));
        }
        self.log.append(LogRecord::SegmentCreate { seg, len });
        Ok(())
    }

    /// The length of `seg`, from the log, or [`RaError::SegmentNotFound`].
    pub(crate) fn segment_len(&self, seg: SysName) -> clouds_ra::Result<u64> {
        self.log
            .segment_len(seg)
            .ok_or(RaError::SegmentNotFound(seg))
    }

    /// The wire-input check of one page access of `len` bytes:
    /// `seg` exists ([`RaError::SegmentNotFound`]), and `page` lies inside
    /// it and `len` is one page ([`RaError::OutOfRange`]).
    pub(crate) fn check_page(&self, seg: SysName, page: u32, len: usize) -> clouds_ra::Result<()> {
        let segment_len = self.segment_len(seg)?;
        let in_range = u64::from(page) < segment_len.div_ceil(PAGE_SIZE as u64);
        if in_range && len == PAGE_SIZE {
            return Ok(());
        }
        Err(RaError::OutOfRange {
            segment: seg,
            offset: u64::from(page) * PAGE_SIZE as u64,
            len: if in_range { len } else { PAGE_SIZE } as u64,
            segment_len,
        })
    }

    /// The append-only log's read side: the server's only store, and
    /// all it promised to keep — one replay reconstructs it. Its writes
    /// stay in this crate (see [`DsmServer::serve_commit_wire`]).
    pub fn log(&self) -> &LogReads {
        &self.log
    }

    /// The node this server runs on.
    pub fn node_id(&self) -> NodeId {
        self.ratp.node_id()
    }

    /// This node's observability handle (registry + trace sink).
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireMode;
    use clouds_ratp::RatpConfig;
    use clouds_simnet::{CostModel, Network};

    fn server() -> (Network, Arc<DsmServer>, Arc<RatpNode>) {
        let net = Network::new(CostModel::zero());
        let ds = RatpNode::spawn(net.register(NodeId(10)).unwrap(), RatpConfig::default());
        let server = DsmServer::install(&ds);
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        (net, server, client)
    }

    /// Counter `name` in `server`'s node registry.
    fn counted(server: &DsmServer, name: &str) -> u64 {
        server.obs().registry().counter_value(name)
    }

    fn call(client: &Arc<RatpNode>, req: &DsmRequest) -> DsmReply {
        let reply = client
            .call(NodeId(10), ports::DSM_SERVER, proto::encode(req))
            .unwrap();
        proto::decode(&reply).unwrap()
    }

    /// A `count`-page fetch from `first` in `mode`, releasing nothing.
    fn fetch(seg: SysName, first: u32, count: u32, mode: WireMode) -> DsmRequest {
        DsmRequest::FetchPages {
            seg,
            first,
            count,
            mode,
            release: Vec::new(),
        }
    }

    #[test]
    fn create_len_destroy_over_the_wire() {
        let (_net, _server, client) = server();
        let seg = SysName::from_parts(1, 1);
        assert!(matches!(
            call(&client, &DsmRequest::CreateSegment { seg, len: 100 }),
            DsmReply::Ok
        ));
        assert!(matches!(
            call(&client, &DsmRequest::SegmentLen { seg }),
            DsmReply::Len(100)
        ));
        assert!(matches!(
            call(&client, &DsmRequest::CreateSegment { seg, len: 5 }),
            DsmReply::Err(crate::proto::WireError::SegmentExists(_))
        ));
        assert!(matches!(
            call(&client, &DsmRequest::DestroySegment { seg }),
            DsmReply::Ok
        ));
        assert!(matches!(
            call(&client, &DsmRequest::SegmentLen { seg }),
            DsmReply::Err(crate::proto::WireError::SegmentNotFound(_))
        ));
    }

    #[test]
    fn fetch_grants_and_counts() {
        let (_net, server, client) = server();
        let seg = SysName::from_parts(1, 2);
        call(
            &client,
            &DsmRequest::CreateSegment {
                seg,
                len: clouds_ra::PAGE_SIZE as u64,
            },
        );
        match call(&client, &fetch(seg, 0, 1, WireMode::Read)) {
            DsmReply::Pages { first: 0, pages } => {
                let [grant] = &pages[..] else {
                    panic!("{} grants for one page", pages.len());
                };
                assert_eq!(grant.data.len(), clouds_ra::PAGE_SIZE);
                assert!(grant.zero_filled);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(counted(&server, "dsm.server.read_grants"), 1);
        assert_eq!(counted(&server, "dsm.server.fetch_rpcs"), 1);
    }

    #[test]
    fn write_back_persists() {
        let (_net, server, client) = server();
        let seg = SysName::from_parts(1, 3);
        call(
            &client,
            &DsmRequest::CreateSegment {
                seg,
                len: clouds_ra::PAGE_SIZE as u64,
            },
        );
        let mut page = vec![0u8; clouds_ra::PAGE_SIZE];
        page[..5].copy_from_slice(b"hello");
        let reply = call(
            &client,
            &DsmRequest::WriteBackBatch {
                pages: vec![WireWriteBack {
                    seg,
                    page: 0,
                    data: PageBytes::from(page),
                }],
            },
        );
        assert!(
            matches!(&reply, DsmReply::WriteBackResults { results } if results[..] == [Ok(1)]),
            "{reply:?}"
        );
        let (version, stored) = server.log().read_page(seg, 0).unwrap().unwrap();
        assert_eq!((version, &stored[..5]), (1, &b"hello"[..]));
        assert_eq!(counted(&server, "dsm.server.write_backs"), 1);
    }

    #[test]
    fn fetch_of_unknown_segment_is_error() {
        let (_net, _server, client) = server();
        let reply = call(
            &client,
            &fetch(SysName::from_parts(9, 9), 0, 1, WireMode::Read),
        );
        assert!(matches!(
            reply,
            DsmReply::Err(crate::proto::WireError::SegmentNotFound(_))
        ));
    }

    #[test]
    fn destroy_drops_exactly_its_segments_directory_entries() {
        let (_net, server, client) = server();
        let seg = SysName::from_parts(4, 4);
        let keep = SysName::from_parts(4, 5);
        for s in [seg, keep] {
            call(
                &client,
                &DsmRequest::CreateSegment {
                    seg: s,
                    len: 32 * clouds_ra::PAGE_SIZE as u64,
                },
            );
            // One read-ahead run grants, and so enters, all 32 pages.
            match call(&client, &fetch(s, 0, 32, WireMode::Read)) {
                DsmReply::Pages { pages, .. } => assert_eq!(pages.len(), 32),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            call(&client, &DsmRequest::DestroySegment { seg }),
            DsmReply::Ok
        ));
        // Each segment has 32 pages, so no entry can sit beyond them.
        let count_entries = |target: SysName| -> usize {
            let directory = server.directory.lock();
            (0..32)
                .filter(|&page| directory.contains_key(&(target, page)))
                .count()
        };
        assert_eq!(
            count_entries(seg),
            0,
            "destroyed segment left directory entries behind"
        );
        assert_eq!(
            count_entries(keep),
            32,
            "destroy dropped entries of an unrelated segment"
        );
    }

    /// Every client op that must pass the serving fence, as the wire
    /// carries it. `WriteBack` appears with and without `release`,
    /// `FetchPages` with a release list that names a held page.
    fn fenced_client_ops(seg: SysName) -> Vec<DsmRequest> {
        let page = || PageBytes::from(vec![1u8; clouds_ra::PAGE_SIZE]);
        vec![
            DsmRequest::DestroySegment { seg },
            DsmRequest::SegmentLen { seg },
            DsmRequest::FetchPage {
                seg,
                page: 0,
                mode: WireMode::Write,
            },
            DsmRequest::FetchPages {
                seg,
                first: 0,
                count: 2,
                mode: WireMode::Read,
                release: vec![(seg, 1)],
            },
            DsmRequest::WriteBack {
                seg,
                page: 0,
                data: page(),
                release: false,
            },
            DsmRequest::WriteBack {
                seg,
                page: 1,
                data: page(),
                release: true,
            },
            DsmRequest::WriteBackBatch {
                pages: vec![
                    WireWriteBack {
                        seg,
                        page: 0,
                        data: page(),
                    },
                    WireWriteBack {
                        seg,
                        page: 1,
                        data: page(),
                    },
                ],
            },
        ]
    }

    /// Not one fenced client op gets past a server that does not serve
    /// the segment — a backup in its replica view, or a primary still
    /// recovering: each answers `SegmentNotFound` (so a client with a
    /// stale home cache re-resolves instead of collecting an ack the
    /// real primary never saw), writes nothing, logs nothing, and leaves
    /// the copyset alone, release lists and release flags included.
    #[test]
    fn every_fenced_client_op_is_refused_off_primary_and_while_recovering() {
        type Fence = fn(&DsmServer, SysName);
        let fences: [(&str, Fence, Fence); 2] = [
            (
                "backup in its replica view",
                |server, seg| server.adopt_replica_config(seg, vec![NodeId(99), NodeId(10)], 2),
                |server, seg| server.adopt_replica_config(seg, vec![NodeId(10)], 3),
            ),
            (
                // Sole member: primary with no backups, so the only
                // fence that can trip is the recovery flag.
                "sole-member primary between begin_recovery and finish_recovery",
                |server, _| server.begin_recovery(),
                |server, _| server.finish_recovery(),
            ),
        ];
        for (which, raise, lower) in fences {
            let (_net, server, client) = server();
            let seg = SysName::from_parts(1, 5);
            call(
                &client,
                &DsmRequest::CreateSegment {
                    seg,
                    len: 2 * clouds_ra::PAGE_SIZE as u64,
                },
            );
            server.adopt_replica_config(seg, vec![NodeId(10)], 1);
            // The client holds both pages, so a release that slipped past
            // the fence would show in the copyset.
            let DsmReply::Pages { pages, .. } = call(&client, &fetch(seg, 0, 2, WireMode::Read))
            else {
                panic!("{which}: no grant");
            };
            assert_eq!(pages.len(), 2, "{which}");
            let acks = (0..)
                .zip(&pages)
                .map(|(page, grant)| WireInstallAck {
                    page,
                    grant_seq: grant.grant_seq,
                    installed: true,
                })
                .collect();
            call(&client, &DsmRequest::InstallAckBatch { seg, acks });
            raise(&server, seg);
            let appends = server.log().stats().appends;
            let grants = || {
                counted(&server, "dsm.server.read_grants")
                    + counted(&server, "dsm.server.write_grants")
            };
            let granted = grants();
            let untouched = |what: &str| {
                assert_eq!(
                    counted(&server, "dsm.server.write_backs"),
                    0,
                    "{which}: {what} hit the store"
                );
                assert_eq!(
                    server.log().stats().appends,
                    appends,
                    "{which}: {what} reached the log"
                );
                assert_eq!(grants(), granted, "{which}: {what} was granted a page");
                for page in 0..2 {
                    assert_eq!(
                        server.copyset(seg, page),
                        [NodeId(1)],
                        "{which}: {what} touched the copyset of page {page}"
                    );
                }
            };
            for req in fenced_client_ops(seg) {
                let refused = match call(&client, &req) {
                    DsmReply::Err(e) => vec![e],
                    DsmReply::WriteBackResults { results } => {
                        results.into_iter().map(|r| r.unwrap_err()).collect()
                    }
                    other => panic!("{which}: {req:?} answered {other:?}"),
                };
                for e in refused {
                    assert_eq!(
                        e,
                        crate::proto::WireError::SegmentNotFound(seg),
                        "{which}: {req:?}"
                    );
                }
                untouched(&format!("{req:?}"));
            }
            // The 2PC install is a local call, not a DSM wire op, and
            // meets the same fence — ahead of its recalls.
            let image = PageBytes::from(vec![2u8; clouds_ra::PAGE_SIZE]);
            let refused = server.commit_page(seg, 0, &image);
            assert!(
                matches!(refused, Err(clouds_ra::RaError::SegmentNotFound(s)) if s == seg),
                "{which}: commit_page answered {refused:?}"
            );
            untouched("commit_page");
            // The fence lifted, the same batch goes through.
            lower(&server, seg);
            let batch = fenced_client_ops(seg).pop().expect("the batch is last");
            match call(&client, &batch) {
                DsmReply::WriteBackResults { results } => {
                    assert!(
                        matches!(results[..], [Ok(_), Ok(_)]),
                        "{which}: {results:?}"
                    );
                }
                other => panic!("{which}: unexpected {other:?}"),
            }
            assert_eq!(counted(&server, "dsm.server.write_backs"), 2, "{which}");
        }
    }

    #[test]
    fn failed_replicated_destroy_is_retriable_not_half_applied() {
        let net = Network::new(CostModel::zero());
        let fast = RatpConfig {
            retry_interval: std::time::Duration::from_millis(1),
            ..RatpConfig::default()
        };
        let primary_ratp = RatpNode::spawn(net.register(NodeId(10)).unwrap(), fast.clone());
        let primary = DsmServer::install(&primary_ratp);
        let backup_ratp = RatpNode::spawn(net.register(NodeId(11)).unwrap(), fast.clone());
        let backup = DsmServer::install(&backup_ratp);
        // The client outwaits the primary's whole mirror budget.
        let client = RatpNode::spawn(
            net.register(NodeId(1)).unwrap(),
            RatpConfig {
                max_retries: 10_000,
                ..fast
            },
        );
        let call = |req: &DsmRequest| -> DsmReply {
            let reply = client
                .call(NodeId(10), ports::DSM_SERVER, proto::encode(req))
                .unwrap();
            proto::decode(&reply).unwrap()
        };
        let seg = SysName::from_parts(1, 7);
        assert!(matches!(
            call(&DsmRequest::CreateReplicated {
                seg,
                len: 100,
                members: vec![10, 11],
            }),
            DsmReply::Ok
        ));

        // Backup down past the whole mirror budget: the destroy fails…
        net.crash(NodeId(11));
        assert!(matches!(
            call(&DsmRequest::DestroySegment { seg }),
            DsmReply::Err(crate::proto::WireError::ReplicaUnavailable(_))
        ));
        // …but nothing was half-applied: the primary still serves the
        // segment and still knows its replica set, so the client's
        // retry can re-drive the whole destroy.
        assert!(matches!(
            call(&DsmRequest::SegmentLen { seg }),
            DsmReply::Len(100)
        ));
        assert!(primary.replica_view(seg).is_some());

        net.restart(NodeId(11));
        assert!(matches!(
            call(&DsmRequest::DestroySegment { seg }),
            DsmReply::Ok
        ));
        assert!(matches!(
            call(&DsmRequest::SegmentLen { seg }),
            DsmReply::Err(crate::proto::WireError::SegmentNotFound(_))
        ));
        assert!(primary.replica_view(seg).is_none());
        assert!(backup.replica_view(seg).is_none());
        assert_eq!(backup.log().segment_len(seg), None);
    }

    #[test]
    fn out_of_range_page_is_error() {
        let (_net, _server, client) = server();
        let seg = SysName::from_parts(1, 4);
        call(&client, &DsmRequest::CreateSegment { seg, len: 10 });
        let reply = call(&client, &fetch(seg, 5, 1, WireMode::Read));
        assert!(matches!(
            reply,
            DsmReply::Err(crate::proto::WireError::OutOfRange(_))
        ));
    }
}
