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
//! operations; the server does not. `DsmServer::dispatch` normalises
//! each wire form to its batch case (`FetchPage` is a one-page
//! `FetchPages`, `WriteBack` a one-page `WriteBackBatch`, `InstallAck`
//! a one-entry `InstallAckBatch`, `ReleasePage` a one-entry release
//! list) and runs the same code for both. Two disciplines then hold by
//! construction rather than by review:
//!
//! * **fence → apply.** The serving fence runs once, ahead of the
//!   dispatch, for the segment `DsmRequest::fenced_segment` names —
//!   an exhaustive mapping, so a new wire variant does not compile
//!   until someone decides whether it is fenced. Write-backs, whose
//!   batches may span segments, are fenced per page instead, directly
//!   in front of the write.
//! * **write → log → mirror → ack.** Every primary-side page write —
//!   a client's write-back, dirty data absorbed from a recall, a 2PC
//!   commit — goes through `DsmServer::apply_write`: canonical store,
//!   `write_backs` counter, `PageWrite` log record, mirror push to
//!   every backup, and only then the version the caller may
//!   acknowledge.
//!
//! Errors travel as `Result` to a single conversion into
//! [`DsmReply::Err`] in `DsmServer::handle`.
//!
//! # Directory sharding
//!
//! The coherence directory is striped across [`DIR_SHARDS`] independent
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
//! most one stripe held makes the stripe family acyclic by construction,
//! which is exactly the shape `clouds-lint`'s lock-order rule verifies
//! for indexed (`shards[i]`) receivers.

use crate::proto::{
    self, ports, DsmReply, DsmRequest, RecallReply, RecallRequest, WireError, WireInstallAck,
    WireMode, WirePageGrant, WireWriteBack,
};
use clouds_codec::PageBytes;
use clouds_obs::{Counter, Histogram, NodeObs};
use clouds_ra::{RaError, SegmentStore, SysName};
use clouds_store::{
    replay_cost, IntentPage, LogConfig, LogRecord, LogStore, ReplayOutcome, ReplicaRecord,
};
use clouds_ratp::{CallError, RatpNode, Request};
use clouds_simnet::NodeId;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retransmission budget for recall calls; a client that does not answer
/// within this budget is treated as crashed and its copy forgotten.
const RECALL_RETRIES: u32 = 40;

/// How long a transition waits for a grantee's install acknowledgement
/// before assuming the grantee died with the grant in flight.
const ACK_DEADLINE: Duration = Duration::from_millis(1000);

/// Retransmission budget for mirror pushes to backups. Patient on
/// purpose: a backup in a crash window restarts within the fault
/// schedule's horizon, and a primary must *block* (not drop the mirror)
/// so no write is ever acknowledged that a promoted backup could miss —
/// durability over write availability.
const MIRROR_RETRIES: u32 = 800;

/// Default number of directory stripes. Power of two so the shard index
/// is a mask, sized past the handler-thread parallelism a node sees.
pub const DIR_SHARDS: usize = 8;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Coherence {
    #[default]
    Idle,
    Shared(HashSet<NodeId>),
    Exclusive(NodeId),
}

impl Coherence {
    /// The nodes holding a copy, in node order (one node for an
    /// exclusive copy).
    fn holders(&self) -> Vec<NodeId> {
        let mut holders: Vec<NodeId> = match self {
            Coherence::Exclusive(owner) => vec![*owner],
            Coherence::Shared(set) => set.iter().copied().collect(),
            Coherence::Idle => Vec::new(),
        };
        holders.sort();
        holders
    }

    /// This copyset with a shared copy at `src` added. An exclusive owner
    /// is not carried over: the caller has demoted or dismissed it.
    fn with_reader(&self, src: NodeId) -> Coherence {
        let mut set = match self {
            Coherence::Shared(set) => set.clone(),
            Coherence::Exclusive(_) | Coherence::Idle => HashSet::new(),
        };
        set.insert(src);
        Coherence::Shared(set)
    }
}

#[derive(Debug, Default)]
struct PageEntry {
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
struct DirShard {
    pages: Mutex<HashMap<(SysName, u32), PageEntry>>,
    busy_cvar: Condvar,
}

/// One stripe of the mirror version map (same page→stripe function as
/// the directory): highest primary-side version applied per mirrored
/// page; orders racing mirror pushes and absorbs duplicates.
#[derive(Default)]
struct MirrorShard {
    versions: Mutex<BTreeMap<(SysName, u32), u64>>,
}

/// Replica configuration of one replicated segment, as this server
/// currently believes it: the full membership in promotion order
/// (`members[0]` is the primary) and the epoch fencing re-homing.
///
/// Like the [`SegmentStore`], this map is volatile: the durable "which
/// disks hold this segment" record is the `ReplicaConfig` entry in the
/// append-only log, from which a restart reconstructs this view before
/// the naming-directory resync refines it. A restarted ex-primary may
/// hold a *stale* view; every mirror push carries the sender's view and
/// epoch so stale receivers adopt the newer configuration lazily, and
/// [`DsmServer::adopt_replica_config`] lets a rebooting server resync
/// from the naming directory eagerly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReplicaState {
    members: Vec<NodeId>,
    epoch: u64,
}

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

/// What a log replay hands to the co-located 2PC participant: pending
/// (prepared-but-unresolved) intents by transaction id, and the set of
/// transactions the local outcome registry durably committed.
pub type RecoveredTxns = (BTreeMap<u64, Vec<IntentPage>>, BTreeSet<u64>);

/// A data server's DSM service.
///
/// Owns the canonical [`SegmentStore`] — the only durable copy of every
/// segment it homes — and the per-page coherence directory. Created with
/// [`DsmServer::install`], which registers the service on
/// [`ports::DSM_SERVER`].
pub struct DsmServer {
    ratp: Arc<RatpNode>,
    /// Volatile page cache over the log ([`DsmServer::log`]); every
    /// durable mutation appends to the log before it is acknowledged.
    store: SegmentStore,
    /// The append-only log: the only state that survives a crash.
    log: Arc<LogStore>,
    /// The striped coherence directory; see the module docs on the
    /// stripe lock-order rule.
    shards: Vec<DirShard>,
    /// Mirror version stripes, indexed by the same page→stripe function.
    mirror_shards: Vec<MirrorShard>,
    /// Replica configuration per replicated segment (absent for plain
    /// single-home segments). `BTreeMap` so enumeration is deterministic;
    /// `RwLock` because the hot path (`check_serving`, on every request)
    /// only reads it.
    replicas: RwLock<BTreeMap<SysName, ReplicaState>>,
    /// Set across a crash/restart: while recovering, replicated segments
    /// are not served (the local replica view may predate a promotion
    /// that happened while this server was down — serving on it would be
    /// a split brain). Cleared once the view is resynced from naming.
    recovering: AtomicBool,
    /// Set by [`DsmServer::wipe_store`] (the machine is down, its DRAM
    /// gone) and cleared by [`DsmServer::recover_from_log`]: between the
    /// two, the volatile maps are *empty*, not *valid*, and nothing —
    /// not even the failover monitor's trivially-successful refresh of
    /// zero segments — may lift the recovery fence.
    needs_replay: AtomicBool,
    /// Pending 2PC intents and recorded outcomes reconstructed by the
    /// last [`DsmServer::recover_from_log`] pass, parked here until the
    /// co-located commit participant collects them
    /// ([`DsmServer::take_recovered_txns`]).
    recovered_txns: Mutex<Option<RecoveredTxns>>,
    obs: Arc<NodeObs>,
    metrics: ServerMetrics,
    grant_seq: AtomicU64,
}

/// Registry-backed counter handles, resolved once at install time so the
/// hot paths never go through the registry map.
struct ServerMetrics {
    read_grants: Arc<Counter>,
    write_grants: Arc<Counter>,
    invalidations: Arc<Counter>,
    downgrades: Arc<Counter>,
    write_backs: Arc<Counter>,
    ack_timeouts: Arc<Counter>,
    fetch_rpcs: Arc<Counter>,
    batch_fetches: Arc<Counter>,
    prefetch_pages_granted: Arc<Counter>,
    batch_write_backs: Arc<Counter>,
    mirror_writes: Arc<Counter>,
    mirror_applies: Arc<Counter>,
    promotions: Arc<Counter>,
    shard_contention: Arc<Counter>,
    /// Virtual time spent replaying the log on restart.
    replay: Arc<Histogram>,
    /// One grant counter per directory stripe (`dsm.server.shardN.grants`),
    /// indexed by stripe; shows whether the page hash spreads load.
    shard_grants: Vec<Arc<Counter>>,
}

/// Resolve the grant counter for stripe `idx`. The obs-schema lint wants
/// metric names as string literals at the `counter` call site, so the
/// stripe family is spelled out; stripe counts above eight fold onto the
/// eight schema names.
fn shard_grant_counter(obs: &NodeObs, idx: usize) -> Arc<Counter> {
    match idx & (DIR_SHARDS - 1) {
        0 => obs.counter("dsm.server.shard0.grants"),
        1 => obs.counter("dsm.server.shard1.grants"),
        2 => obs.counter("dsm.server.shard2.grants"),
        3 => obs.counter("dsm.server.shard3.grants"),
        4 => obs.counter("dsm.server.shard4.grants"),
        5 => obs.counter("dsm.server.shard5.grants"),
        6 => obs.counter("dsm.server.shard6.grants"),
        _ => obs.counter("dsm.server.shard7.grants"),
    }
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
    /// service.
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<DsmServer> {
        DsmServer::install_with_store(ratp, SegmentStore::new())
    }

    /// Like [`DsmServer::install`] but over an existing store — used
    /// when a crashed data server restarts with its surviving disk.
    pub fn install_with_store(ratp: &Arc<RatpNode>, store: SegmentStore) -> Arc<DsmServer> {
        DsmServer::install_sharded(ratp, store, DIR_SHARDS)
    }

    /// Like [`DsmServer::install_with_store`] with an explicit directory
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
            recovered_txns: Mutex::new(None),
            obs,
            metrics,
            grant_seq: AtomicU64::new(1),
        });
        let handler = Arc::clone(&server);
        ratp.register_service(ports::DSM_SERVER, move |req: Request| {
            handler.serve_wire(req.src, &req.payload)
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

    /// The one server-side path per operation: pass the request-level
    /// serving fence, normalise the wire form to its batch case, run it.
    fn dispatch(&self, src: NodeId, req: DsmRequest) -> clouds_ra::Result<DsmReply> {
        // Ahead of every arm, so no arm can apply anything — not even
        // the release list riding on a fetch — on a server that then
        // refuses the request: the client re-sends it all to the real
        // home.
        if let Some(seg) = req.fenced_segment() {
            self.check_serving(seg)?;
        }
        match req {
            DsmRequest::CreateSegment { seg, len } => {
                self.store.create(seg, len)?;
                self.log.append(LogRecord::SegmentCreate { seg, len });
                Ok(DsmReply::Ok)
            }
            DsmRequest::DestroySegment { seg } => {
                // Backups drop their copies *first*: if one is down past
                // the mirror budget, the primary still holds the segment
                // and its replica entry, so the client's retry re-drives
                // the whole destroy instead of finding it half-applied
                // (apply_mirror_destroy is idempotent — backups that
                // already destroyed simply re-ack).
                self.mirror_destroy(seg)?;
                self.store.destroy(seg)?;
                self.log.append(LogRecord::SegmentDestroy { seg });
                self.drop_directory_entries(seg);
                self.drop_replica_state(seg);
                Ok(DsmReply::Ok)
            }
            DsmRequest::SegmentLen { seg } => Ok(DsmReply::Len(self.store.get(seg)?.read().len())),
            DsmRequest::FetchPage { seg, page, mode } => {
                let grant = self.fetch_pages(src, seg, page, 1, mode, &[])?.remove(0);
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
                self.metrics.batch_fetches.inc();
                let pages = self.fetch_pages(src, seg, first, count, mode, &release)?;
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
            DsmRequest::MirrorDestroy { seg, epoch } => self
                .apply_mirror_destroy(seg, epoch)
                .map(|()| DsmReply::Ok),
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
        self.check_serving(p.seg)?;
        let version = self.apply_write(p.seg, p.page, &p.data)?;
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
    fn apply_write(
        &self,
        seg: SysName,
        page: u32,
        data: &PageBytes,
    ) -> clouds_ra::Result<u64> {
        let version = self.store.get(seg)?.write().write_page(page, data.as_slice())?;
        self.metrics.write_backs.inc();
        self.log.append(LogRecord::PageWrite {
            seg,
            page,
            version,
            data: data.to_vec(),
        });
        self.mirror_page(seg, page, data, version)?;
        Ok(version)
    }

    /// The canonical segment store (shared with co-located services such
    /// as the 2PC participant).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The append-only log backing this server's durability. Co-located
    /// services with durable state of their own (the 2PC participant's
    /// intent records, the outcome registry) append through this handle
    /// so one replay reconstructs everything the node promised to keep.
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

// --- coherence: directory stripes, transitions, fetch, recall ---------------

impl DsmServer {
    /// The directory stripe owning `key`: a deterministic mix of the
    /// 128-bit sysname and the page index, masked to the stripe count.
    /// Pure arithmetic (no per-process hasher seed) so runs are
    /// reproducible and a one-shard and an eight-shard server agree on
    /// every placement decision trivially.
    fn shard_index(&self, key: (SysName, u32)) -> usize {
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
    /// Propagates store errors (unknown segment, bad page).
    pub fn commit_page(&self, seg: SysName, page: u32, data: &[u8]) -> clouds_ra::Result<u64> {
        let key = (seg, page);
        let state = self.begin_transition(key);
        // Dirty data still out at a holder loses to the committed image
        // written right behind it: the commit holds the write lock, so a
        // correct cp/s-thread mix cannot produce a competing dirty copy.
        // The commit is not acknowledged until every backup holds the
        // committed image: a post-commit failover must serve it.
        let result = self
            .reclaim_copies(&state, None, seg, page)
            .and_then(|()| self.apply_write(seg, page, &PageBytes::copy_from_slice(data)));
        // On an aborted recall, keep the pre-transition copyset: copies
        // that did answer are gone from their caches, but re-recalling a
        // non-holder is harmless, while forgetting a live one is not.
        let after = if result.is_ok() { Coherence::Idle } else { state };
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
    fn drop_directory_entries(&self, seg: SysName) {
        for idx in 0..self.shards.len() {
            // lint:allow(hash-iter) — retain drops entries
            // independently; visit order cannot be observed.
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
                    entry.awaiting_ack = Some((grantee, grant_seq, Instant::now() + ACK_DEADLINE));
                }
            }
        }
        self.shards[idx].busy_cvar.notify_all();
    }

    /// Take `src`'s install acknowledgements for grants of `seg`. An ack
    /// that matches the grant still awaiting one unblocks the page's
    /// next transition; a stale or duplicate ack leaves the directory
    /// untouched.
    fn install_acks(&self, src: NodeId, seg: SysName, acks: &[WireInstallAck]) {
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
    /// speculatively in read mode, exactly as far as coherence allows
    /// *without recalling anything* — the run stops at the first page
    /// that is exclusively held, mid-transition, or out of range, and at
    /// `count` pages in all (`count` = 1 is the single-page fetch). Every
    /// granted page carries its own grant_seq and must be acknowledged.
    ///
    /// The caller has passed the serving fence. The release list goes
    /// first so that a page released and re-requested here ends up held,
    /// not forgotten.
    fn fetch_pages(
        &self,
        src: NodeId,
        seg: SysName,
        first: u32,
        count: u32,
        mode: WireMode,
        release: &[(SysName, u32)],
    ) -> clouds_ra::Result<Vec<WirePageGrant>> {
        self.forget_copies(src, release);
        self.metrics.fetch_rpcs.inc();
        let mut pages = vec![self.fetch(src, seg, first, mode)?];
        while pages.len() < count as usize {
            let Some(page) = first.checked_add(pages.len() as u32) else {
                break;
            };
            match self.try_speculative_grant(src, seg, page) {
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
        src: NodeId,
        seg: SysName,
        page: u32,
        mode: WireMode,
    ) -> clouds_ra::Result<WirePageGrant> {
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
                    let demote = RecallRequest::Downgrade { seg, page };
                    if self.recall_and_absorb(*owner, demote)? {
                        Coherence::Shared(HashSet::from([*owner, src]))
                    } else {
                        Coherence::Idle.with_reader(src)
                    }
                }
                // Shared or idle — or a re-fetch by the owner itself
                // (e.g. after dropping its frame), which demotes it.
                (WireMode::Read, held) => held.with_reader(src),
                (WireMode::Write, held) => {
                    self.reclaim_copies(held, Some(src), seg, page)?;
                    Coherence::Exclusive(src)
                }
            };
            let grant_seq = self.grant_seq.fetch_add(1, Ordering::Relaxed);
            Ok((new_state, self.read_canonical(seg, page, grant_seq)?))
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
        held: &Coherence,
        keep: Option<NodeId>,
        seg: SysName,
        page: u32,
    ) -> clouds_ra::Result<()> {
        for holder in held.holders() {
            if Some(holder) != keep {
                self.recall_and_absorb(holder, RecallRequest::Reclaim { seg, page })?;
            }
        }
        Ok(())
    }

    /// Grant `page` to `src` in read mode only if no recall, wait, or
    /// demotion would be needed: the page must be Idle or Shared, with no
    /// transition running and no grant awaiting its ack. Returns `None`
    /// to end the read-ahead run otherwise.
    fn try_speculative_grant(
        &self,
        src: NodeId,
        seg: SysName,
        page: u32,
    ) -> Option<WirePageGrant> {
        let key = (seg, page);
        let idx = self.shard_index(key);
        let prior = {
            let mut pages = self.lock_shard(idx);
            let entry = pages.entry(key).or_default();
            if entry.busy || entry.awaiting_ack.is_some() {
                return None;
            }
            match &entry.state {
                // Never demote an exclusive copy speculatively: the owner
                // may hold dirty data a silent downgrade would lose.
                Coherence::Exclusive(_) => return None,
                // Never re-grant a page the requester already shares:
                // the client would decline the duplicate and its
                // uninstalled-ack would evict the *live* copy from the
                // copyset, leaving a cached page no recall can reach.
                Coherence::Shared(set) if set.contains(&src) => return None,
                Coherence::Idle | Coherence::Shared(_) => {}
            }
            entry.busy = true;
            entry.state.clone()
        };
        let grant_seq = self.grant_seq.fetch_add(1, Ordering::Relaxed);
        match self.read_canonical(seg, page, grant_seq) {
            Ok(grant) => {
                self.metrics.read_grants.inc();
                self.metrics.shard_grants[idx].inc();
                self.end_transition(key, prior.with_reader(src), Some((src, grant_seq)));
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
        seg: SysName,
        page: u32,
        grant_seq: u64,
    ) -> Result<WirePageGrant, RaError> {
        let segment = self.store.get(seg)?;
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

    /// Ask `holder` to give up (`Reclaim`) or demote (`Downgrade`) its
    /// copy, and absorb the answer: dirty data goes through the write
    /// choke point, and a copy that was still there counts as an
    /// invalidation or a downgrade. Returns whether the holder still had
    /// the page.
    ///
    /// A holder that stays silent through the whole retransmission
    /// budget is treated as crashed: its volatile copy died with it. A
    /// *local* transmit failure is different — this node's own interface
    /// is down (e.g. mid-crash in a fault schedule), which says nothing
    /// about the holder, so the transition must abort rather than forget
    /// a live copy and leak it stale.
    fn recall_and_absorb(&self, holder: NodeId, req: RecallRequest) -> clouds_ra::Result<bool> {
        let (kind, counter, seg, page) = match req {
            RecallRequest::Downgrade { seg, page } => {
                ("downgrade", &self.metrics.downgrades, seg, page)
            }
            RecallRequest::Reclaim { seg, page } => {
                ("reclaim", &self.metrics.invalidations, seg, page)
            }
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
            if let Err(e) = self.apply_write(seg, page, data) {
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
    fn forget_copies(&self, src: NodeId, pages: &[(SysName, u32)]) {
        for &(seg, page) in pages {
            self.forget_copy(src, seg, page);
        }
    }

    fn forget_copy(&self, src: NodeId, seg: SysName, page: u32) {
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

// --- replication: replica view, mirror plane, promotion ------------------------

impl DsmServer {
    /// Replicated segments are served only by their primary: a backup
    /// answers `SegmentNotFound`, exactly as if it did not hold the
    /// segment, so home discovery and failover retries naturally land on
    /// the current primary and never see two servers claiming one
    /// segment.
    fn check_serving(&self, seg: SysName) -> clouds_ra::Result<()> {
        match self.replicas.read().get(&seg) {
            Some(st)
                if st.members.first() != Some(&self.ratp.node_id())
                    || self.recovering.load(Ordering::SeqCst) =>
            {
                Err(RaError::SegmentNotFound(seg))
            }
            _ => Ok(()),
        }
    }

    /// This server's view of `seg`'s replica set, if replicated:
    /// membership in promotion order (`[0]` = primary) and epoch.
    pub fn replica_view(&self, seg: SysName) -> Option<(Vec<NodeId>, u64)> {
        self.replicas
            .read()
            .get(&seg)
            .map(|st| (st.members.clone(), st.epoch))
    }

    /// Every replicated segment this server participates in, with its
    /// current membership view and epoch, in deterministic (sysname)
    /// order. The failover monitor sweeps this to find primaries to
    /// watch.
    pub fn replicated_segments(&self) -> Vec<(SysName, Vec<NodeId>, u64)> {
        self.replicas
            .read()
            .iter()
            .map(|(seg, st)| (*seg, st.members.clone(), st.epoch))
            .collect()
    }

    /// Overwrite the local replica view of `seg` if `epoch` is no older
    /// than the current one — used by a rebooting server to resync from
    /// the naming directory before it serves again (a restarted
    /// ex-primary must learn of its demotion *before* answering home
    /// probes, or two servers would claim the segment).
    pub fn adopt_replica_config(&self, seg: SysName, members: Vec<NodeId>, epoch: u64) {
        let mut reps = self.replicas.write();
        if reps.get(&seg).is_some_and(|st| epoch < st.epoch) {
            return;
        }
        reps.insert(seg, ReplicaState { members: members.clone(), epoch });
        drop(reps);
        self.log_replica_config(seg, &members, epoch);
    }

    /// Append the durable record of a replica-view change; replay keeps
    /// the highest epoch, so logging adoptions unconditionally is safe.
    fn log_replica_config(&self, seg: SysName, members: &[NodeId], epoch: u64) {
        self.log.append(LogRecord::ReplicaConfig {
            seg,
            config: ReplicaRecord {
                members: members.iter().map(|n| n.0).collect(),
                epoch,
            },
        });
    }

    /// Assume the primary role for `seg` at `epoch`. Idempotent under
    /// duplicate promotion messages: only a strictly newer epoch changes
    /// anything (the directory applies the same fencing rule, so both
    /// converge). The demoted primary moves to the back of the
    /// promotion order; it rejoins as a backup when it restarts.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] if this server holds no replica of
    /// `seg`.
    pub fn promote_segment(&self, seg: SysName, epoch: u64) -> clouds_ra::Result<()> {
        let me = self.ratp.node_id();
        let mut reps = self.replicas.write();
        let st = reps
            .get_mut(&seg)
            .ok_or(RaError::SegmentNotFound(seg))?;
        if epoch > st.epoch {
            if st.members.first() != Some(&me) {
                let old = st.members[0];
                st.members.retain(|&n| n != me && n != old);
                st.members.insert(0, me);
                st.members.push(old);
            }
            st.epoch = epoch;
            let members = st.members.clone();
            drop(reps);
            self.log_replica_config(seg, &members, epoch);
            self.metrics.promotions.inc();
            self.obs
                .instant("dsm.server", "promote", format!("seg={seg} epoch={epoch}"));
        }
        Ok(())
    }

    fn create_replicated(&self, seg: SysName, len: u64, members: &[u32]) -> clouds_ra::Result<()> {
        let nodes: Vec<NodeId> = members.iter().map(|&n| NodeId(n)).collect();
        if nodes.first() != Some(&self.ratp.node_id()) {
            return Err(RaError::PartitionUnavailable(format!(
                "CreateReplicated sent to {} but members[0] is {:?}",
                self.ratp.node_id(),
                nodes.first()
            )));
        }
        self.store.create(seg, len)?;
        self.log.append(LogRecord::SegmentCreate { seg, len });
        self.replicas.write().insert(
            seg,
            ReplicaState {
                members: nodes.clone(),
                epoch: 1,
            },
        );
        self.log_replica_config(seg, &nodes, 1);
        let req = DsmRequest::MirrorCreate {
            seg,
            len,
            members: members.to_vec(),
            epoch: 1,
        };
        nodes[1..]
            .iter()
            .try_for_each(|&backup| self.mirror_call(backup, &req))
    }

    fn apply_mirror_create(
        &self,
        src: NodeId,
        seg: SysName,
        len: u64,
        members: &[u32],
        epoch: u64,
    ) -> clouds_ra::Result<()> {
        self.adopt_mirror_config(src, seg, members, epoch)?;
        match self.store.create(seg, len) {
            Ok(()) => {
                self.log.append(LogRecord::SegmentCreate { seg, len });
                Ok(())
            }
            // A retransmitted create finding the segment in place is the
            // duplicate case (already logged), not a conflict.
            Err(RaError::SegmentExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The backup-side page write, gated by the primary's version.
    #[allow(clippy::too_many_arguments)]
    fn apply_mirror_write(
        &self,
        src: NodeId,
        seg: SysName,
        page: u32,
        data: &PageBytes,
        version: u64,
        members: &[u32],
        epoch: u64,
    ) -> clouds_ra::Result<()> {
        self.adopt_mirror_config(src, seg, members, epoch)?;
        // Apply under the page's version-stripe lock so a racing older
        // push can never overwrite a newer image (store application and
        // the version record move together). Same stripe function as the
        // directory, so per-page atomicity is preserved across stripes.
        let idx = self.shard_index((seg, page));
        let mut versions = self.mirror_shards[idx].versions.lock();
        let slot = versions.entry((seg, page)).or_insert(0);
        if version <= *slot {
            return Ok(()); // duplicate or already-superseded image
        }
        self.store.get(seg)?.write().write_page(page, data.as_slice())?;
        *slot = version;
        // Log the *primary's* version, not the local counter: after a
        // replay the gate above must resume at the highest version this
        // backup ever applied.
        self.log.append(LogRecord::PageWrite {
            seg,
            page,
            version,
            data: data.to_vec(),
        });
        self.metrics.mirror_applies.inc();
        Ok(())
    }

    fn apply_mirror_destroy(&self, seg: SysName, epoch: u64) -> clouds_ra::Result<()> {
        {
            let mut reps = self.replicas.write();
            match reps.get(&seg) {
                None => return Ok(()), // duplicate destroy
                Some(st) if epoch < st.epoch => {
                    return Err(RaError::PartitionUnavailable(format!(
                        "stale mirror destroy epoch {epoch} < {}",
                        st.epoch
                    )))
                }
                Some(_) => {}
            }
            reps.remove(&seg);
        }
        self.log.append(LogRecord::SegmentDestroy { seg });
        self.drop_mirror_versions(seg);
        match self.store.destroy(seg) {
            Ok(()) | Err(RaError::SegmentNotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Forget the replica view and mirror version records of a destroyed
    /// segment.
    fn drop_replica_state(&self, seg: SysName) {
        self.replicas.write().remove(&seg);
        self.drop_mirror_versions(seg);
    }

    /// Drop every mirror version record of `seg`, visiting the stripes
    /// in ascending index order (one guard at a time).
    fn drop_mirror_versions(&self, seg: SysName) {
        for idx in 0..self.mirror_shards.len() {
            self.mirror_shards[idx]
                .versions
                .lock()
                .retain(|(s, _), _| *s != seg);
        }
    }

    /// Accept (or refuse) a mirror push's configuration: the sender must
    /// be the primary of its own view, and its epoch must not be older
    /// than ours — a stale ex-primary that missed its demotion is fenced
    /// off here. An equal-or-newer view is adopted, which is how a
    /// restarted replica with stale membership catches up lazily.
    fn adopt_mirror_config(
        &self,
        src: NodeId,
        seg: SysName,
        members: &[u32],
        epoch: u64,
    ) -> clouds_ra::Result<()> {
        if members.first() != Some(&src.0) {
            return Err(RaError::PartitionUnavailable(format!(
                "mirror push from {} which is not the primary of its own view",
                src.0
            )));
        }
        let view = ReplicaState {
            members: members.iter().map(|&n| NodeId(n)).collect(),
            epoch,
        };
        let mut reps = self.replicas.write();
        match reps.get(&seg) {
            Some(st) if epoch < st.epoch => {
                return Err(RaError::PartitionUnavailable(format!(
                    "stale mirror epoch {epoch} < {} for {seg}",
                    st.epoch
                )))
            }
            // Only real view changes are logged — this runs on every
            // mirror push, and the common case is an unchanged view.
            Some(st) if *st == view => return Ok(()),
            _ => {}
        }
        reps.insert(seg, view.clone());
        drop(reps);
        self.log_replica_config(seg, &view.members, epoch);
        Ok(())
    }

    /// Push one durable page image to every backup, blocking until all
    /// confirm. Called *after* the local store write and *before* the
    /// client's acknowledgement, so a confirmed write exists on every
    /// replica — the mirror quorum here is the full backup set, trading
    /// write availability during a backup's crash window for zero lost
    /// write-backs across promotion.
    ///
    /// The payload is a [`PageBytes`]: the one request value shared by
    /// all backups holds it by refcount, so an N-backup push serializes
    /// the page N times but never copies it.
    ///
    /// No-op for unreplicated segments and on backups.
    fn mirror_page(
        &self,
        seg: SysName,
        page: u32,
        data: &PageBytes,
        version: u64,
    ) -> clouds_ra::Result<()> {
        let Some((members, epoch)) = self.primary_view(seg) else {
            return Ok(());
        };
        let req = DsmRequest::MirrorWrite {
            seg,
            page,
            data: data.clone(),
            version,
            members: members.iter().map(|n| n.0).collect(),
            epoch,
        };
        for &backup in &members[1..] {
            self.metrics.mirror_writes.inc();
            self.mirror_call(backup, &req)?;
        }
        Ok(())
    }

    /// Propagate a destroy to every backup. Local replica bookkeeping is
    /// the *caller's* to clean up, and only after its own store drop
    /// succeeds — keeping the entry (and the segment) until every backup
    /// confirmed makes a partially failed destroy retriable.
    fn mirror_destroy(&self, seg: SysName) -> clouds_ra::Result<()> {
        let Some((members, epoch)) = self.primary_view(seg) else {
            return Ok(());
        };
        for &backup in &members[1..] {
            self.mirror_call(backup, &DsmRequest::MirrorDestroy { seg, epoch })?;
        }
        Ok(())
    }

    /// The membership and epoch of `seg` if this server is its primary.
    fn primary_view(&self, seg: SysName) -> Option<(Vec<NodeId>, u64)> {
        let reps = self.replicas.read();
        let st = reps.get(&seg)?;
        (st.members.first() == Some(&self.ratp.node_id()))
            .then(|| (st.members.clone(), st.epoch))
    }

    /// One mirror RPC with the patient budget. A backup that cannot be
    /// reached maps to [`RaError::ReplicaUnavailable`] — the home itself
    /// is fine, so the client must not burn failover attempts
    /// re-resolving it. A backup that *answers* with an error (e.g. the
    /// epoch fence rejecting a demoted ex-primary's push) passes the
    /// error through unchanged, so the fencing `PartitionUnavailable`
    /// still drives the client's home re-resolution.
    fn mirror_call(&self, backup: NodeId, req: &DsmRequest) -> clouds_ra::Result<()> {
        match self.ratp.call_with_budget(
            backup,
            ports::DSM_SERVER,
            proto::encode(req),
            MIRROR_RETRIES,
        ) {
            Ok(reply) => match proto::decode::<DsmReply>(&reply)? {
                DsmReply::Ok => Ok(()),
                DsmReply::Err(e) => Err(e.into()),
                other => Err(RaError::ReplicaUnavailable(format!(
                    "unexpected mirror reply {other:?}"
                ))),
            },
            Err(e) => Err(RaError::ReplicaUnavailable(format!(
                "mirror to {} failed: {e}",
                backup.0
            ))),
        }
    }
}

// --- recovery: wipe, replay, recovery flags -------------------------------------

impl DsmServer {
    /// The crash wiping this data server's DRAM: every cached segment
    /// image, the replica view, and the mirror version gates are
    /// dropped, and the log's own volatile index goes with them
    /// ([`LogStore::crash`]). Only the log media survives;
    /// [`DsmServer::recover_from_log`] rebuilds the rest. The coherence
    /// directory is cleared separately ([`DsmServer::clear_directory`]).
    /// Stripes are visited in ascending index order, one guard at a
    /// time.
    pub fn wipe_store(&self) {
        self.needs_replay.store(true, Ordering::SeqCst);
        self.store.clear();
        self.replicas.write().clear();
        for idx in 0..self.mirror_shards.len() {
            self.mirror_shards[idx].versions.lock().clear();
        }
        self.log.crash();
    }

    /// The store was wiped ([`DsmServer::wipe_store`]) and the log has
    /// not been replayed yet: the volatile maps are empty placeholders,
    /// not valid state, and the recovery fence must not lift until
    /// [`DsmServer::recover_from_log`] runs.
    pub fn needs_replay(&self) -> bool {
        self.needs_replay.load(Ordering::SeqCst)
    }

    /// Rebuild the segment cache, replica view and mirror version gates
    /// from the log alone, charging this node's virtual clock the
    /// sequential scan cost ([`replay_cost`]) and recording it in the
    /// `store.replay` histogram. Returns the full [`ReplayOutcome`] so
    /// co-located services (the 2PC participant, the outcome registry)
    /// can resume their own durable state from the same pass.
    pub fn recover_from_log(&self) -> ReplayOutcome {
        let out = self.log.replay();
        let cost = replay_cost(out.bytes, out.log_segments);
        self.obs.clock().charge(cost);
        self.metrics.replay.record(cost);
        for (seg, rs) in &out.state.segments {
            // A double recovery finding the segment in place is fine:
            // restore_page is idempotent per (page, version).
            let _ = self.store.create(*seg, rs.len);
            if let Ok(segment) = self.store.get(*seg) {
                let mut guard = segment.write();
                // `ReplaySegment::pages` is a BTreeMap: deterministic order.
                for (page, (version, data)) in &rs.pages { // lint:allow(hash-iter)
                    let _ = guard.restore_page(*page, data, *version);
                }
            }
        }
        {
            let mut reps = self.replicas.write();
            for (seg, config) in &out.state.replicas {
                reps.insert(
                    *seg,
                    ReplicaState {
                        members: config.members.iter().map(|&n| NodeId(n)).collect(),
                        epoch: config.epoch,
                    },
                );
            }
        }
        // Mirror version gates resume at the logged page versions so a
        // re-pushed (duplicate) mirror write from before the crash is
        // still recognized as a duplicate.
        for (seg, rs) in &out.state.segments {
            if out.state.replicas.contains_key(seg) {
                // `ReplaySegment::pages` is a BTreeMap: deterministic order.
                for (page, (version, _)) in &rs.pages { // lint:allow(hash-iter)
                    let idx = self.shard_index((*seg, *page));
                    self.mirror_shards[idx]
                        .versions
                        .lock()
                        .insert((*seg, *page), *version);
                }
            }
        }
        *self.recovered_txns.lock() = Some((
            out.state.pending_intents.clone(),
            out.state.outcomes.clone(),
        ));
        self.needs_replay.store(false, Ordering::SeqCst);
        self.obs.instant(
            "dsm.server",
            "log_replay",
            format!(
                "records={} bytes={} torn={} cost={cost}",
                out.records, out.bytes, out.torn_dropped
            ),
        );
        out
    }

    /// Take the pending 2PC intents and recorded commit outcomes
    /// reconstructed by the last [`DsmServer::recover_from_log`] pass.
    /// The co-located commit participant consumes these to re-stage
    /// undecided transactions and rebuild the outcome registry; `None`
    /// if no replay ran since the last take.
    pub fn take_recovered_txns(&self) -> Option<RecoveredTxns> {
        self.recovered_txns.lock().take()
    }

    /// Stop serving replicated segments until the replica view is
    /// resynced — part of the crash simulation: a rebooted ex-primary
    /// must learn of any demotion that happened while it was down
    /// *before* it answers home probes again, or two servers would claim
    /// the same segment. Mirror pushes and promotions still apply while
    /// recovering (they are how the view catches up).
    pub fn begin_recovery(&self) {
        self.recovering.store(true, Ordering::SeqCst);
    }

    /// Resume serving replicated segments; call after the replica views
    /// have been refreshed from the naming directory with
    /// [`DsmServer::adopt_replica_config`].
    pub fn finish_recovery(&self) {
        self.recovering.store(false, Ordering::SeqCst);
    }

    /// Still fenced between [`DsmServer::begin_recovery`] and
    /// [`DsmServer::finish_recovery`]? The failover monitor keeps
    /// retrying the directory resync while this holds.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let count_entries = |target: SysName| -> usize {
            server
                .shards
                .iter()
                .map(|sh| {
                    sh.pages
                        .lock()
                        .keys()
                        .filter(|(s, _)| *s == target)
                        .count()
                })
                .sum()
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
                assert_eq!(server.stats().write_backs, 0, "{which}: {req:?} hit the store");
                assert_eq!(
                    server.log().stats().appends,
                    appends,
                    "{which}: {req:?} reached the log"
                );
                assert_eq!(
                    server.stats().read_grants + server.stats().write_grants,
                    grants,
                    "{which}: {req:?} was granted a page"
                );
                for page in 0..2 {
                    assert_eq!(
                        server.copyset(seg, page),
                        [NodeId(1)],
                        "{which}: {req:?} touched the copyset of page {page}"
                    );
                }
            }
            // The fence lifted, the same batch goes through.
            lower(&server, seg);
            let batch = fenced_client_ops(seg).pop().expect("the batch is last");
            match call(&client, &batch) {
                DsmReply::WriteBackResults { results } => {
                    assert!(matches!(results[..], [Ok(_), Ok(_)]), "{which}: {results:?}");
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
