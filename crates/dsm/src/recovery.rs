//! The recovery half of [`DsmServer`]: what a crash wipes, what the
//! log replay rebuilds, and the flags that keep a restarted server from
//! serving before its view is current.

use crate::proto::WireWriteBack;
use crate::replication::ReplicaState;
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_simnet::NodeId;
use clouds_store::{replay_cost, ReplayOutcome};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl DsmServer {
    /// Crash this data server: everything in DRAM is lost and only the
    /// log media survives. The recovery fence goes up, and the coherence
    /// directory, the replica view, the log's own volatile index
    /// ([`clouds_store::LogStore::crash`]) — and with it every page and
    /// version it serves — and the 2PC participant's staged intents and
    /// outcomes are wiped. [`DsmServer::recover_from_log`] rebuilds all
    /// but the directory. Stripes are visited in ascending index order,
    /// one guard at a time.
    pub fn crash(&self) {
        self.begin_recovery();
        self.clear_directory();
        self.needs_replay.store(true, Ordering::SeqCst);
        self.replicas.write().clear();
        self.log.crash();
        self.intents.lock().clear();
        self.outcomes.lock().clear();
    }

    /// The server crashed ([`DsmServer::crash`]) and the log has
    /// not been replayed yet: the volatile maps are empty placeholders,
    /// not valid state, and the recovery fence must not lift until
    /// [`DsmServer::recover_from_log`] runs.
    pub fn needs_replay(&self) -> bool {
        self.needs_replay.load(Ordering::SeqCst)
    }

    /// Rebuild the log's index (which serves every page), the replica
    /// view and both 2PC tables from the log alone, charging this node's
    /// virtual clock the sequential scan cost ([`replay_cost`]) and
    /// recording it in the `store.replay` histogram. The view and the
    /// tables are replaced, not merged; the tables' replayed state moves
    /// into the server, so the returned [`ReplayOutcome`]'s
    /// `pending_intents` and `outcomes` are empty.
    pub fn recover_from_log(&self) -> ReplayOutcome {
        let mut out = self.log.replay();
        let cost = replay_cost(out.bytes, out.log_segments);
        self.obs.clock().charge(cost);
        self.metrics.replay.record(cost);
        let views = out.state.replicas.iter().map(|(seg, config)| {
            let members = config.members.iter().map(|&n| NodeId(n)).collect();
            let epoch = config.epoch;
            (*seg, ReplicaState { members, epoch })
        });
        *self.replicas.write() = views.collect();
        let intents = std::mem::take(&mut out.state.pending_intents)
            .into_iter()
            .map(|(txn, pages)| {
                let pages = pages
                    .into_iter()
                    .map(|p| WireWriteBack {
                        seg: p.seg,
                        page: p.page,
                        data: PageBytes::from(p.data),
                    })
                    .collect();
                (txn, Arc::new(pages))
            })
            .collect();
        *self.intents.lock() = intents;
        *self.outcomes.lock() = std::mem::take(&mut out.state.outcomes);
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

    /// Stop serving replicated segments until the replica view is
    /// resynced — part of the crash simulation: a rebooted ex-primary
    /// must learn of any demotion that happened while it was down
    /// *before* it answers home probes again, or two servers would claim
    /// the same segment. Mirror pushes and promotions still apply while
    /// recovering (they are how the view catches up).
    pub(crate) fn begin_recovery(&self) {
        self.recovering.store(true, Ordering::SeqCst);
    }

    /// Resume serving replicated segments; call after the replica views
    /// have been refreshed from the naming directory with
    /// [`DsmServer::adopt_replica_config`].
    pub fn finish_recovery(&self) {
        self.recovering.store(false, Ordering::SeqCst);
    }

    /// Still fenced between [`DsmServer::crash`] and
    /// [`DsmServer::finish_recovery`]? The failover monitor keeps
    /// retrying the directory resync while this holds.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }
}
