//! The replication half of [`DsmServer`]: the replica view, the serving
//! fence read from it and the [`Serving`] token the fence mints, the
//! mirror plane that keeps backups byte-identical, and promotion.

use crate::proto::{self, ports, DsmReply, DsmRequest};
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_ra::{RaError, SysName};
use clouds_simnet::NodeId;
use clouds_store::{LogRecord, ReplicaRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Retransmission budget for mirror pushes to backups. Patient on
/// purpose: a backup in a crash window restarts within the fault
/// schedule's horizon, and a primary must *block* (not drop the mirror)
/// so no write is ever acknowledged that a promoted backup could miss —
/// durability over write availability.
const MIRROR_RETRIES: u32 = 800;

/// One stripe of the mirror version map (same page→stripe function as
/// the directory): highest primary-side version applied per mirrored
/// page; orders racing mirror pushes and absorbs duplicates.
pub(crate) struct MirrorShard {
    pub(crate) versions: Mutex<BTreeMap<(SysName, u32), u64>>,
}

impl Default for MirrorShard {
    fn default() -> MirrorShard {
        // Outer: a mirror apply writes the page and logs it under its
        // version gate, so a page's image and log record move together.
        MirrorShard {
            versions: Mutex::outer(BTreeMap::new()),
        }
    }
}

/// Replica configuration of one replicated segment, as this server
/// currently believes it: the full membership in promotion order
/// (`members[0]` is the primary) and the epoch fencing re-homing.
///
/// Like the [`clouds_ra::SegmentStore`], this map is volatile: the
/// durable "which disks hold this segment" record is the
/// `ReplicaConfig` entry in the
/// append-only log, from which a restart reconstructs this view before
/// the naming-directory resync refines it. A restarted ex-primary may
/// hold a *stale* view; every mirror push carries the sender's view and
/// epoch so stale receivers adopt the newer configuration lazily, and
/// [`DsmServer::adopt_replica_config`] lets a rebooting server resync
/// from the naming directory eagerly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReplicaState {
    pub(crate) members: Vec<NodeId>,
    pub(crate) epoch: u64,
}

/// Proof that this server passed the serving fence for one segment:
/// what every client-plane function that reaches the segment store asks
/// for, so a page write without the fence does not compile. Minted only
/// by [`DsmServer::check_serving`] — the fields are private to this
/// module, and the token is neither `Clone` nor `Copy`. Outside the
/// crate neither it nor the fence can be named.
#[derive(Debug)]
pub(crate) struct Serving {
    seg: SysName,
    /// Epoch of the replica view the fence read; 0 if unreplicated.
    epoch: u64,
}

impl Serving {
    /// The segment this token was minted for.
    pub(crate) fn seg(&self) -> SysName {
        self.seg
    }
}

impl DsmServer {
    /// Replicated segments are served only by their primary: a backup
    /// answers `SegmentNotFound`, exactly as if it did not hold the
    /// segment, so home discovery and failover retries naturally land on
    /// the current primary and never see two servers claiming one
    /// segment.
    pub(crate) fn check_serving(&self, seg: SysName) -> clouds_ra::Result<Serving> {
        let epoch = match self.replicas.read().get(&seg) {
            Some(st)
                if st.members.first() != Some(&self.ratp.node_id())
                    || self.recovering.load(Ordering::SeqCst) =>
            {
                return Err(RaError::SegmentNotFound(seg));
            }
            view => view.map_or(0, |st| st.epoch),
        };
        Ok(Serving { seg, epoch })
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
        let view = ReplicaState {
            members: members.clone(),
            epoch,
        };
        reps.insert(seg, view);
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

    pub(crate) fn create_replicated(
        &self,
        seg: SysName,
        len: u64,
        members: &[u32],
    ) -> clouds_ra::Result<()> {
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

    pub(crate) fn apply_mirror_create(
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
    pub(crate) fn apply_mirror_write(
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
        self.store
            .get(seg)?
            .write()
            .write_page(page, data.as_slice())?;
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

    pub(crate) fn apply_mirror_destroy(&self, seg: SysName, epoch: u64) -> clouds_ra::Result<()> {
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
    pub(crate) fn drop_replica_state(&self, seg: SysName) {
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
    /// No-op for unreplicated segments. A segment whose view lost this
    /// server as primary since `serving` was minted refuses instead: the
    /// write reached no replica that serves, and must not be acked.
    pub(crate) fn mirror_page(
        &self,
        serving: &Serving,
        page: u32,
        data: &PageBytes,
        version: u64,
    ) -> clouds_ra::Result<()> {
        let seg = serving.seg;
        let Some((members, epoch)) = self.primary_view(seg) else {
            return match serving.epoch {
                0 => Ok(()),
                _ => Err(RaError::SegmentNotFound(seg)),
            };
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
    pub(crate) fn mirror_destroy(&self, seg: SysName) -> clouds_ra::Result<()> {
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
