//! The recovery half of [`DsmServer`]: what a crash wipes, what the
//! log replay rebuilds, and the flags that keep a restarted server from
//! serving before its view is current.

use crate::replication::ReplicaState;
use crate::server::{DsmServer, RecoveredTxns};
use clouds_simnet::NodeId;
use clouds_store::{replay_cost, ReplayOutcome};
use std::sync::atomic::Ordering;

impl DsmServer {
    /// The crash wiping this data server's DRAM: every cached segment
    /// image, the replica view, and the mirror version gates are
    /// dropped, and the log's own volatile index goes with them
    /// ([`clouds_store::LogStore::crash`]). Only the log media survives;
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
                for (page, (version, data)) in &rs.pages {
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
                for (page, (version, _)) in &rs.pages {
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
