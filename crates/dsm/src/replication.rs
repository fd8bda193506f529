//! The replication half of [`DsmServer`]: the replica view, the serving
//! fence read from it and the [`Serving`] token the fence mints, the
//! mirror plane that keeps backups byte-identical, and promotion.
//!
//! A segment's replica view — members in promotion order, `[0]` the
//! primary, and the epoch fencing re-homing — is its live
//! `ReplicaConfig` record, and a view change is one
//! [`clouds_store::LogStore::change_replicas`] call. A restarted
//! ex-primary may hold a *stale* view: every mirror push carries the
//! sender's, and [`DsmServer::adopt_replica_config`] resyncs from the
//! naming directory.

use crate::proto::{self, ports, DsmReply, DsmRequest};
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_ra::{RaError, SysName};
use clouds_simnet::NodeId;
use clouds_store::{LogRecord, ReplicaRecord};
use std::convert::Infallible;
use std::sync::atomic::Ordering;

/// Retransmission budget for mirror pushes to backups. Patient on
/// purpose: a backup in a crash window restarts within the fault
/// schedule's horizon, and a primary must *block* (not drop the mirror)
/// so no write is ever acknowledged that a promoted backup could miss —
/// durability over write availability.
const MIRROR_RETRIES: u32 = 800;

/// Proof that this server passed the serving fence for one segment:
/// what every client-plane function that reaches the log's pages asks
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
        let epoch = match self.log.replicas(seg) {
            Some(view)
                if view.members.first() != Some(&self.ratp.node_id().0)
                    || self.recovering.load(Ordering::SeqCst) =>
            {
                return Err(RaError::SegmentNotFound(seg));
            }
            view => view.map_or(0, |view| view.epoch),
        };
        Ok(Serving { seg, epoch })
    }

    /// This server's view of `seg`'s replica set, if replicated:
    /// membership in promotion order (`[0]` = primary) and epoch.
    pub fn replica_view(&self, seg: SysName) -> Option<(Vec<NodeId>, u64)> {
        let view = self.log.replicas(seg);
        view.map(|view| (nodes(&view.members), view.epoch))
    }

    /// Every replicated segment this server participates in, with its
    /// current membership view and epoch, in deterministic (sysname)
    /// order. The failover monitor sweeps this to find primaries to
    /// watch.
    pub fn replicated_segments(&self) -> Vec<(SysName, Vec<NodeId>, u64)> {
        let views = self.log.replicated().into_iter();
        views
            .map(|(seg, view)| (seg, nodes(&view.members), view.epoch))
            .collect()
    }

    /// Overwrite the local replica view of `seg` if `epoch` is no older
    /// than the current one — used by a rebooting server to resync from
    /// the naming directory before it serves again (a restarted
    /// ex-primary must learn of its demotion *before* answering home
    /// probes, or two servers would claim the segment).
    pub fn adopt_replica_config(&self, seg: SysName, members: Vec<NodeId>, epoch: u64) {
        let members = members.iter().map(|n| n.0).collect();
        let view = ReplicaRecord { members, epoch };
        let adopt = |live: Option<ReplicaRecord>| {
            let newer = live.is_none_or(|live| epoch >= live.epoch);
            Ok::<_, Infallible>(newer.then_some(view))
        };
        let Ok(_) = self.log.change_replicas(seg, adopt);
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
        let me = self.ratp.node_id().0;
        let promoted = self.log.change_replicas(seg, |live| {
            let Some(mut view) = live else {
                return Err(RaError::SegmentNotFound(seg));
            };
            if epoch <= view.epoch {
                return Ok(None);
            }
            if view.members.first() != Some(&me) {
                let old = view.members[0];
                view.members.retain(|&n| n != me && n != old);
                view.members.insert(0, me);
                view.members.push(old);
            }
            view.epoch = epoch;
            Ok(Some(view))
        })?;
        if promoted {
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
        let nodes = nodes(members);
        if nodes.first() != Some(&self.ratp.node_id()) {
            return Err(RaError::PartitionUnavailable(format!(
                "CreateReplicated sent to {} but members[0] is {:?}",
                self.ratp.node_id(),
                nodes.first()
            )));
        }
        self.create_segment(seg, len)?;
        self.log.append(LogRecord::ReplicaConfig {
            seg,
            config: ReplicaRecord {
                members: members.to_vec(),
                epoch: 1,
            },
        });
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
        match self.create_segment(seg, len) {
            // A retransmitted create finding the segment in place is the
            // duplicate case (already logged), not a conflict.
            Err(RaError::SegmentExists(_)) => Ok(()),
            done => done,
        }
    }

    /// The backup-side page write, at the primary's version and only if
    /// it is not below the live one: the log's gate orders racing pushes,
    /// and an equal one replaces this replica's own unacknowledged image
    /// of that version (or re-applies a duplicate's identical bytes).
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
        self.check_page(seg, page, data.len())?;
        // The gate and the append are one log call, so a racing older
        // push can never overwrite a newer image, and the version this
        // backup writes at if promoted is the next above all it applied.
        let applied = self.log.write_page(seg, page, data, Some(version));
        if applied.is_some() {
            self.metrics.mirror_applies.inc();
        }
        Ok(())
    }

    pub(crate) fn apply_mirror_destroy(&self, seg: SysName, epoch: u64) -> clouds_ra::Result<()> {
        match self.log.replicas(seg) {
            None => Ok(()), // duplicate destroy
            Some(view) if epoch < view.epoch => Err(RaError::PartitionUnavailable(format!(
                "stale mirror destroy epoch {epoch} < {}",
                view.epoch
            ))),
            Some(_) => {
                self.log.append(LogRecord::SegmentDestroy { seg });
                Ok(())
            }
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
        let view = ReplicaRecord {
            members: members.to_vec(),
            epoch,
        };
        self.log.change_replicas(seg, |live| match live {
            Some(live) if epoch < live.epoch => Err(RaError::PartitionUnavailable(format!(
                "stale mirror epoch {epoch} < {} for {seg}",
                live.epoch
            ))),
            // Only real view changes are logged — this runs on every
            // mirror push, and the common case is an unchanged view.
            Some(live) if live == view => Ok(None),
            _ => Ok(Some(view)),
        })?;
        Ok(())
    }

    /// Push one durable page image to every backup, blocking until all
    /// confirm. Called *after* the local log write and *before* the
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
        let Some(view) = self.primary_view(seg) else {
            return match serving.epoch {
                0 => Ok(()),
                _ => Err(RaError::SegmentNotFound(seg)),
            };
        };
        let backups = nodes(&view.members[1..]);
        let req = DsmRequest::MirrorWrite {
            seg,
            page,
            data: data.clone(),
            version,
            members: view.members,
            epoch: view.epoch,
        };
        for backup in backups {
            self.metrics.mirror_writes.inc();
            self.mirror_call(backup, &req)?;
        }
        Ok(())
    }

    /// Propagate a destroy to every backup. Local replica bookkeeping is
    /// the *caller's* to clean up, and only after its own destroy
    /// succeeds — keeping the entry (and the segment) until every backup
    /// confirmed makes a partially failed destroy retriable.
    pub(crate) fn mirror_destroy(&self, seg: SysName) -> clouds_ra::Result<()> {
        let Some(view) = self.primary_view(seg) else {
            return Ok(());
        };
        let epoch = view.epoch;
        for backup in nodes(&view.members[1..]) {
            self.mirror_call(backup, &DsmRequest::MirrorDestroy { seg, epoch })?;
        }
        Ok(())
    }

    /// `seg`'s replica view if this server is its primary.
    fn primary_view(&self, seg: SysName) -> Option<ReplicaRecord> {
        let view = self.log.replicas(seg)?;
        (view.members.first() == Some(&self.ratp.node_id().0)).then_some(view)
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

/// Replica members as the log keeps them (raw ids), as nodes.
fn nodes(members: &[u32]) -> Vec<NodeId> {
    members.iter().map(|&n| NodeId(n)).collect()
}
