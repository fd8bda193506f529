//! The recovery half of [`DsmServer`]: what a crash wipes (the
//! coherence directory and the log's index), what the log replay
//! rebuilds, and the flags that keep a restarted server from serving
//! before its view is current.

use crate::server::DsmServer;
use clouds_store::{replay_cost, ReplayOutcome};
use std::sync::atomic::Ordering;

impl DsmServer {
    /// Crash this data server: everything in DRAM is lost and only the
    /// log media survives. The recovery fence goes up, the coherence
    /// directory is wiped, and so is the log's volatile index
    /// ([`clouds_store::LogStore::crash`]) — and with it every page and
    /// version, replica view, staged intent and outcome the server
    /// serves. [`DsmServer::recover_from_log`] rebuilds all but the
    /// directory, which restarts empty.
    pub fn crash(&self) {
        self.begin_recovery();
        self.clear_directory();
        self.log.crash();
    }

    /// The server crashed ([`DsmServer::crash`]) and the log has
    /// not been replayed yet: its index is gone, so what the server
    /// would read of it is empty, not valid, and the recovery fence
    /// must not lift until [`DsmServer::recover_from_log`] runs.
    pub fn needs_replay(&self) -> bool {
        !self.log.is_up()
    }

    /// Replay the log, which checks every frame and rebuilds its index
    /// — and with it every read of a page, the replica view and both
    /// 2PC tables — from the media alone, decoding no record; charge
    /// this node's virtual clock the sequential scan cost
    /// ([`replay_cost`]) and record it in the `store.replay`
    /// histogram. Returns the scan's counts.
    pub fn recover_from_log(&self) -> ReplayOutcome {
        let out = self.log.replay();
        let cost = replay_cost(out.bytes, out.log_segments);
        self.obs.clock().charge(cost);
        self.metrics.replay.record(cost);
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
