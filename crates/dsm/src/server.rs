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
//!   the segment store takes `&Serving` and reads its segment from it:
//!   each store-touching arm of `dispatch` opens by minting one, a
//!   write-back — whose batch may span segments — mints one per page,
//!   and `commit_page` one per install. A path that skips the fence does
//!   not compile. The mirror, creation and recovery planes carry their
//!   own epoch checks and reach the store without a token.
//! * **write → log → mirror → ack.** Every primary-side page write —
//!   a client's write-back, dirty data absorbed from a recall, a 2PC
//!   commit — goes through `DsmServer::apply_write`: canonical store,
//!   `write_backs` counter, `PageWrite` log record, mirror push to
//!   every backup, and only then the version the caller may
//!   acknowledge.
//! * **log → table.** The 2PC participant's staged intents and the
//!   registry's outcomes are two tables here, beside the log that makes
//!   them durable, and only the commit protocol (`commit.rs`) reaches
//!   them. A method that adds an entry appends its record first; one
//!   that retires an entry appends after it. `DsmServer::crash` wipes
//!   the tables with the rest of DRAM and `DsmServer::recover_from_log`
//!   refills them.
//!
//! Errors travel as `Result` to a single conversion into
//! [`DsmReply::Err`] in `DsmServer::handle`.
//!
//! The rest of `impl DsmServer` lives in sibling files: `coherence.rs`
//! (directory stripes, transitions, fetch, recall), `replication.rs`
//! (replica view, serving fence, mirror plane, promotion),
//! `recovery.rs` (crash, replay, recovery flags) and `commit.rs` (the
//! 2PC participant).

use crate::coherence::DirShard;
use crate::proto::{self, ports, DsmReply, DsmRequest, WireError, WireInstallAck, WireWriteBack};
use crate::replication::{MirrorShard, ReplicaState, Serving};
use clouds_codec::PageBytes;
use clouds_obs::{Counter, Histogram, NodeObs};
use clouds_ra::{SegmentStore, SysName};
use clouds_ratp::{RatpNode, Request};
use clouds_simnet::NodeId;
use clouds_store::{IntentPage, LogConfig, LogRecord, LogStore};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

/// Default number of directory stripes. Power of two so the shard index
/// is a mask, sized past the handler-thread parallelism a node sees.
pub const DIR_SHARDS: usize = 8;

/// Traffic counters for the coherence protocol (experiment E4 reports
/// these as "page migrations").
///
/// This is a *read shim*: the live counters are `dsm.server.*` entries
/// in the node's [`clouds_obs::MetricsRegistry`], and
/// [`DsmServer::stats`] assembles this snapshot from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmServerStats {
    /// Shared-copy grants served.
    pub read_grants: u64,
    /// Exclusive grants served.
    pub write_grants: u64,
    /// Copies invalidated at other nodes on behalf of writers.
    pub invalidations: u64,
    /// Exclusive copies demoted to shared on behalf of readers.
    pub downgrades: u64,
    /// Dirty pages written through to the canonical store.
    pub write_backs: u64,
    /// Install acknowledgements that never arrived (dead grantees or
    /// callers that bypassed the ack protocol — a bug if nonzero in a
    /// healthy run).
    pub ack_timeouts: u64,
    /// Fetch RPCs served (`FetchPage` + `FetchPages`); with batching on,
    /// this grows much slower than the grant counters.
    pub fetch_rpcs: u64,
    /// `FetchPages` RPCs served (subset of `fetch_rpcs`).
    pub batch_fetches: u64,
    /// Read-ahead pages granted speculatively beyond the faulting page.
    pub prefetch_pages_granted: u64,
    /// `WriteBackBatch` RPCs served (each may carry many pages, all
    /// counted individually in `write_backs`).
    pub batch_write_backs: u64,
    /// Mirror pushes sent to backups (one per page per backup).
    pub mirror_writes: u64,
    /// Mirror pushes received and applied to the local store (stale or
    /// duplicate pushes are confirmed but not re-applied, and not
    /// counted).
    pub mirror_applies: u64,
    /// Promotions applied: this server assumed the primary role for a
    /// segment.
    pub promotions: u64,
    /// Directory-stripe lock acquisitions that found the stripe already
    /// held and had to block (a measure of residual contention; stays
    /// near zero when the stripe count exceeds the client parallelism).
    pub shard_contention: u64,
}

/// A data server's DSM service.
///
/// Owns the canonical [`SegmentStore`] — the only durable copy of every
/// segment it homes — and the per-page coherence directory. Created with
/// [`DsmServer::install`], which registers the service on
/// [`ports::DSM_SERVER`] and the 2PC participant on [`ports::COMMIT`].
pub struct DsmServer {
    pub(crate) ratp: Arc<RatpNode>,
    /// Volatile page cache over the log ([`DsmServer::log`]); every
    /// durable mutation appends to the log before it is acknowledged.
    pub(crate) store: SegmentStore,
    /// The append-only log: the only state that survives a crash.
    pub(crate) log: Arc<LogStore>,
    /// The striped coherence directory; see the module docs on why no
    /// path holds two stripes.
    pub(crate) shards: Vec<DirShard>,
    /// Mirror version stripes, indexed by the same page→stripe function.
    pub(crate) mirror_shards: Vec<MirrorShard>,
    /// Replica configuration per replicated segment (absent for plain
    /// single-home segments). `BTreeMap` so enumeration is deterministic;
    /// `RwLock` because the hot path (`check_serving`, on every request)
    /// only reads it.
    pub(crate) replicas: RwLock<BTreeMap<SysName, ReplicaState>>,
    /// Set across a crash/restart: while recovering, replicated segments
    /// are not served (the local replica view may predate a promotion
    /// that happened while this server was down — serving on it would be
    /// a split brain). Cleared once the view is resynced from naming.
    pub(crate) recovering: AtomicBool,
    /// Set by [`DsmServer::crash`] (the machine is down, its DRAM gone)
    /// and cleared by [`DsmServer::recover_from_log`]: between the two,
    /// the volatile maps are *empty*, not *valid*, and nothing — not
    /// even the failover monitor's trivially-successful refresh of zero
    /// segments — may lift the recovery fence.
    pub(crate) needs_replay: AtomicBool,
    /// The 2PC participant's staged (prepared, undecided)
    /// transactions: the volatile image of the log's pending
    /// `TxnIntent` records. A leaf lock, never held across an append.
    pub(crate) intents: Mutex<BTreeMap<u64, Arc<Vec<WireWriteBack>>>>,
    /// Committed transactions not yet settled, on the server hosting
    /// the outcome registry: the volatile image of the log's standing
    /// `TxnOutcome` records. A leaf lock, never held across an append.
    pub(crate) outcomes: Mutex<BTreeSet<u64>>,
    /// Whether this server hosts the outcome registry
    /// ([`DsmServer::host_outcome_registry`]); a crash keeps it.
    pub(crate) hosts_registry: AtomicBool,
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
    /// One grant counter per directory stripe (`dsm.server.shardN.grants`),
    /// indexed by stripe; shows whether the page hash spreads load.
    pub(crate) shard_grants: Vec<Arc<Counter>>,
}

/// Resolve the grant counter for stripe `idx`; stripe counts above
/// eight fold onto the eight schema names.
fn shard_grant_counter(obs: &NodeObs, idx: usize) -> Arc<Counter> {
    obs.counter(&format!(
        "dsm.server.shard{}.grants",
        idx & (DIR_SHARDS - 1)
    ))
}

impl ServerMetrics {
    fn new(obs: &NodeObs, shard_count: usize) -> ServerMetrics {
        ServerMetrics {
            read_grants: obs.counter("dsm.server.read_grants"),
            write_grants: obs.counter("dsm.server.write_grants"),
            invalidations: obs.counter("dsm.server.invalidations"),
            downgrades: obs.counter("dsm.server.downgrades"),
            write_backs: obs.counter("dsm.server.write_backs"),
            ack_timeouts: obs.counter("dsm.server.ack_timeouts"),
            fetch_rpcs: obs.counter("dsm.server.fetch_rpcs"),
            batch_fetches: obs.counter("dsm.server.batch_fetches"),
            prefetch_pages_granted: obs.counter("dsm.server.prefetch_pages_granted"),
            batch_write_backs: obs.counter("dsm.server.batch_write_backs"),
            mirror_writes: obs.counter("dsm.server.mirror_writes"),
            mirror_applies: obs.counter("dsm.server.mirror_applies"),
            promotions: obs.counter("dsm.server.promotions"),
            shard_contention: obs.counter("dsm.server.shard_contention"),
            replay: obs.histogram("store.replay"),
            shard_grants: (0..shard_count)
                .map(|i| shard_grant_counter(obs, i))
                .collect(),
        }
    }
}

impl fmt::Debug for DsmServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsmServer")
            .field("node", &self.ratp.node_id())
            .field("segments", &self.store.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl DsmServer {
    /// Create the server over a fresh store and register its RaTP
    /// services. A restarted server keeps this one and rebuilds its
    /// store from the log ([`DsmServer::recover_from_log`]).
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<DsmServer> {
        DsmServer::install_sharded(ratp, SegmentStore::new(), DIR_SHARDS)
    }

    /// Like [`DsmServer::install`] over a given store, with an explicit directory
    /// stripe count — a one-shard server degenerates to the old
    /// coarse-locked directory, which the equivalence tests pit against
    /// the striped default.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_count` is a nonzero power of two.
    pub fn install_sharded(
        ratp: &Arc<RatpNode>,
        store: SegmentStore,
        shard_count: usize,
    ) -> Arc<DsmServer> {
        assert!(
            shard_count.is_power_of_two(),
            "directory shard count must be a nonzero power of two"
        );
        let obs = Arc::clone(ratp.obs());
        let metrics = ServerMetrics::new(&obs, shard_count);
        let log = Arc::new(LogStore::with_obs(LogConfig::default(), &obs));
        let server = Arc::new(DsmServer {
            ratp: Arc::clone(ratp),
            store,
            log,
            shards: (0..shard_count).map(|_| DirShard::default()).collect(),
            mirror_shards: (0..shard_count).map(|_| MirrorShard::default()).collect(),
            replicas: RwLock::new(BTreeMap::new()),
            recovering: AtomicBool::new(false),
            needs_replay: AtomicBool::new(false),
            intents: Mutex::new(BTreeMap::new()),
            outcomes: Mutex::new(BTreeSet::new()),
            hosts_registry: AtomicBool::new(false),
            obs,
            metrics,
            grant_seq: AtomicU64::new(1),
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::DSM_SERVER, move |req: Request| {
            handler.serve_wire(req.src, &req.payload)
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::COMMIT, move |req: Request| {
            handler.serve_commit_wire(&req.payload)
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
                self.store.create(seg, len)?;
                self.log.append(LogRecord::SegmentCreate { seg, len });
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
                self.store.destroy(serving.seg())?;
                self.log.append(LogRecord::SegmentDestroy { seg });
                self.drop_directory_entries(seg);
                self.drop_replica_state(seg);
                Ok(DsmReply::Ok)
            }
            DsmRequest::SegmentLen { seg } => {
                let serving = self.check_serving(seg)?;
                Ok(DsmReply::Len(self.store.get(serving.seg())?.read().len()))
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
            self.forget_copy(src, p.seg, p.page);
        }
        Ok(version)
    }

    /// The primary-side page write, all of it: canonical store, counter,
    /// log, mirror. Returns the page's new version — the caller's licence
    /// to acknowledge.
    ///
    /// The segment's write lock covers the store write only and is
    /// released before the log append and the mirror RPC, which would
    /// otherwise stall every other access to the segment for the full
    /// mirror budget. The log comes before the mirror: an ack promises
    /// durability, and durability lives in this node's log, not in its
    /// page cache. The mirror comes before the return: once a client
    /// sees `Ok`, every replica must be able to serve this image after a
    /// failover.
    pub(crate) fn apply_write(
        &self,
        serving: &Serving,
        page: u32,
        data: &PageBytes,
    ) -> clouds_ra::Result<u64> {
        let seg = serving.seg();
        let version = self
            .store
            .get(seg)?
            .write()
            .write_page(page, data.as_slice())?;
        self.metrics.write_backs.inc();
        self.log.append(LogRecord::PageWrite {
            seg,
            page,
            version,
            data: data.to_vec(),
        });
        self.mirror_page(serving, page, data, version)?;
        Ok(version)
    }

    /// Stage `txn`'s prepared pages: the `TxnIntent` record first — the
    /// yes vote is a durable promise — then the table entry.
    pub(crate) fn stage_intent(&self, txn: u64, pages: Vec<WireWriteBack>) {
        self.log.append(LogRecord::TxnIntent {
            txn,
            pages: pages
                .iter()
                .map(|p| IntentPage {
                    seg: p.seg,
                    page: p.page,
                    data: p.data.to_vec(),
                })
                .collect(),
        });
        self.intents.lock().insert(txn, Arc::new(pages));
    }

    /// Retire a decided transaction's intent: the table entry goes, and
    /// if it was there a `TxnResolved` record follows so a replay does
    /// not re-stage it (installed pages are in the log: `commit_page`
    /// appends them).
    pub(crate) fn retire_intent(&self, txn: u64) {
        let staged = self.intents.lock().remove(&txn).is_some();
        if staged {
            self.log.append(LogRecord::TxnResolved { txn });
        }
    }

    /// `txn`'s staged pages, if it is prepared and undecided here.
    pub(crate) fn staged_intent(&self, txn: u64) -> Option<Arc<Vec<WireWriteBack>>> {
        self.intents.lock().get(&txn).cloned()
    }

    /// Every staged transaction with its pages, in txn order.
    pub(crate) fn staged_intents(&self) -> Vec<(u64, Arc<Vec<WireWriteBack>>)> {
        let intents = self.intents.lock();
        intents
            .iter()
            .map(|(txn, pages)| (*txn, Arc::clone(pages)))
            .collect()
    }

    /// Number of staged (prepared, undecided) transactions.
    pub fn staged_count(&self) -> usize {
        self.intents.lock().len()
    }

    /// Record `txn`'s commit decision and forget the `settled` ones, on
    /// the server hosting the outcome registry. Each `TxnOutcome` or
    /// `OutcomeSettled` record is appended before the set changes.
    pub(crate) fn record_outcome(&self, txn: u64, settled: &[u64]) {
        self.log.append(LogRecord::TxnOutcome { txn });
        self.outcomes.lock().insert(txn);
        for &txn in settled {
            self.log.append(LogRecord::OutcomeSettled { txn });
            self.outcomes.lock().remove(&txn);
        }
    }

    /// Whether `txn`'s commit decision is recorded here (and unsettled).
    pub fn outcome_committed(&self, txn: u64) -> bool {
        self.outcomes.lock().contains(&txn)
    }

    /// Number of recorded, unsettled commit decisions.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.lock().len()
    }

    /// The canonical segment store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The append-only log backing this server's durability: every
    /// record it holds — pages, replica views, 2PC intents and outcomes —
    /// is appended by this server, so one replay reconstructs everything
    /// the node promised to keep.
    pub fn log(&self) -> &Arc<LogStore> {
        &self.log
    }

    /// The node this server runs on.
    pub fn node_id(&self) -> NodeId {
        self.ratp.node_id()
    }

    /// Snapshot of protocol counters (the read shim over the node's
    /// metrics registry).
    pub fn stats(&self) -> DsmServerStats {
        DsmServerStats {
            read_grants: self.metrics.read_grants.get(),
            write_grants: self.metrics.write_grants.get(),
            invalidations: self.metrics.invalidations.get(),
            downgrades: self.metrics.downgrades.get(),
            write_backs: self.metrics.write_backs.get(),
            ack_timeouts: self.metrics.ack_timeouts.get(),
            fetch_rpcs: self.metrics.fetch_rpcs.get(),
            batch_fetches: self.metrics.batch_fetches.get(),
            prefetch_pages_granted: self.metrics.prefetch_pages_granted.get(),
            batch_write_backs: self.metrics.batch_write_backs.get(),
            mirror_writes: self.metrics.mirror_writes.get(),
            mirror_applies: self.metrics.mirror_applies.get(),
            promotions: self.metrics.promotions.get(),
            shard_contention: self.metrics.shard_contention.get(),
        }
    }

    /// Grants served per directory stripe, in stripe order (length =
    /// stripe count). A healthy page hash spreads a multi-segment
    /// workload across most stripes.
    pub fn shard_grant_counts(&self) -> Vec<u64> {
        self.metrics.shard_grants.iter().map(|c| c.get()).collect()
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

    fn call(client: &Arc<RatpNode>, req: &DsmRequest) -> DsmReply {
        let reply = client
            .call(NodeId(10), ports::DSM_SERVER, proto::encode(req))
            .unwrap();
        proto::decode(&reply).unwrap()
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
        let reply = call(
            &client,
            &DsmRequest::FetchPage {
                seg,
                page: 0,
                mode: WireMode::Read,
            },
        );
        match reply {
            DsmReply::Page {
                data, zero_filled, ..
            } => {
                assert_eq!(data.len(), clouds_ra::PAGE_SIZE);
                assert!(zero_filled);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().read_grants, 1);
        // Exactly one stripe served the grant.
        assert_eq!(server.shard_grant_counts().iter().sum::<u64>(), 1);
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
        assert!(matches!(
            call(
                &client,
                &DsmRequest::WriteBack {
                    seg,
                    page: 0,
                    data: PageBytes::from(page),
                    release: true
                }
            ),
            DsmReply::Ok
        ));
        let stored = server.store().get(seg).unwrap().read().read(0, 5).unwrap();
        assert_eq!(&stored, b"hello");
        assert_eq!(server.stats().write_backs, 1);
    }

    #[test]
    fn fetch_of_unknown_segment_is_error() {
        let (_net, _server, client) = server();
        let reply = call(
            &client,
            &DsmRequest::FetchPage {
                seg: SysName::from_parts(9, 9),
                page: 0,
                mode: WireMode::Read,
            },
        );
        assert!(matches!(
            reply,
            DsmReply::Err(crate::proto::WireError::SegmentNotFound(_))
        ));
    }

    #[test]
    fn one_shard_server_behaves_like_the_coarse_directory() {
        // A stripe count of one is the old global-mutex directory; the
        // protocol must be oblivious to the stripe count.
        let net = Network::new(CostModel::zero());
        let ds = RatpNode::spawn(net.register(NodeId(10)).unwrap(), RatpConfig::default());
        let server = DsmServer::install_sharded(&ds, SegmentStore::new(), 1);
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let seg = SysName::from_parts(3, 3);
        call(
            &client,
            &DsmRequest::CreateSegment {
                seg,
                len: 4 * clouds_ra::PAGE_SIZE as u64,
            },
        );
        for page in 0..4 {
            assert!(matches!(
                call(
                    &client,
                    &DsmRequest::FetchPage {
                        seg,
                        page,
                        mode: WireMode::Write,
                    },
                ),
                DsmReply::Page { .. }
            ));
        }
        assert_eq!(server.stats().write_grants, 4);
        assert_eq!(server.shard_grant_counts(), vec![4]);
    }

    #[test]
    fn destroy_sweeps_every_stripe() {
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
            // Touch enough pages that both segments land entries on many
            // stripes.
            for page in 0..32 {
                call(
                    &client,
                    &DsmRequest::FetchPage {
                        seg: s,
                        page,
                        mode: WireMode::Read,
                    },
                );
            }
        }
        assert!(matches!(
            call(&client, &DsmRequest::DestroySegment { seg }),
            DsmReply::Ok
        ));
        // Each segment has 32 pages, so no entry can sit beyond them.
        let count_entries = |target: SysName| -> usize {
            (0..32)
                .filter(|&page| {
                    let key = (target, page);
                    server.shards[server.shard_index(key)]
                        .pages
                        .lock()
                        .contains_key(&key)
                })
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
            "destroy swept entries of an unrelated segment"
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
            for page in 0..2 {
                let fetch = DsmRequest::FetchPage {
                    seg,
                    page,
                    mode: WireMode::Read,
                };
                let DsmReply::Page { grant_seq, .. } = call(&client, &fetch) else {
                    panic!("{which}: no grant for page {page}");
                };
                call(
                    &client,
                    &DsmRequest::InstallAck {
                        seg,
                        page,
                        grant_seq,
                    },
                );
            }
            raise(&server, seg);
            let appends = server.log().stats().appends;
            let grants = server.stats().read_grants + server.stats().write_grants;
            let untouched = |what: &str| {
                assert_eq!(
                    server.stats().write_backs,
                    0,
                    "{which}: {what} hit the store"
                );
                assert_eq!(
                    server.log().stats().appends,
                    appends,
                    "{which}: {what} reached the log"
                );
                assert_eq!(
                    server.stats().read_grants + server.stats().write_grants,
                    grants,
                    "{which}: {what} was granted a page"
                );
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
            let refused = server.commit_page(seg, 0, &[2u8; clouds_ra::PAGE_SIZE]);
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
            assert_eq!(server.stats().write_backs, 2, "{which}");
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
        assert!(matches!(call(&DsmRequest::SegmentLen { seg }), DsmReply::Len(100)));
        assert!(primary.replica_view(seg).is_some());

        net.restart(NodeId(11));
        assert!(matches!(call(&DsmRequest::DestroySegment { seg }), DsmReply::Ok));
        assert!(matches!(
            call(&DsmRequest::SegmentLen { seg }),
            DsmReply::Err(crate::proto::WireError::SegmentNotFound(_))
        ));
        assert!(primary.replica_view(seg).is_none());
        assert!(backup.replica_view(seg).is_none());
        assert!(backup.store().get(seg).is_err());
    }

    #[test]
    fn out_of_range_page_is_error() {
        let (_net, _server, client) = server();
        let seg = SysName::from_parts(1, 4);
        call(&client, &DsmRequest::CreateSegment { seg, len: 10 });
        let reply = call(
            &client,
            &DsmRequest::FetchPage {
                seg,
                page: 5,
                mode: WireMode::Read,
            },
        );
        assert!(matches!(
            reply,
            DsmReply::Err(crate::proto::WireError::OutOfRange(_))
        ));
    }
}
