//! The data server (§3): the DSM server over its log-backed segment
//! store with its 2PC participant and segment locks, the semaphore
//! service, and the name server and outcome registry on the first data
//! server.

use super::boot_transport;
use crate::failover::{self, FailoverConfig};
use clouds_dsm::{DsmServer, SemaphoreService};
use clouds_naming::{NameClient, NameServer};
use clouds_obs::TraceSink;
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{Network, NodeId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A Clouds data server.
pub struct DataServer {
    node: NodeId,
    ratp: Arc<RatpNode>,
    dsm: Arc<DsmServer>,
    semaphores: Arc<SemaphoreService>,
    naming: Option<Arc<NameServer>>,
    failover: Mutex<Option<FailoverState>>,
}

/// Book-keeping for a running failover monitor: its stop flag, plus the
/// naming node a restarted server resyncs its replica views from.
struct FailoverState {
    stop: Arc<AtomicBool>,
    naming_server: NodeId,
}

/// Restart-time directory resync attempts before the remaining work is
/// left to the failover monitor's per-tick retry (the server stays
/// fenced meanwhile).
const RESYNC_ATTEMPTS: u32 = 3;
/// Pause between restart-time resync attempts.
const RESYNC_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);

impl fmt::Debug for DataServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataServer")
            .field("node", &self.node)
            .field("naming", &self.naming.is_some())
            .finish()
    }
}

impl DataServer {
    /// Boot a data server on `node`, joined to the cluster's trace
    /// sink. `registry` is the data server that hosts the cluster's name
    /// server and 2PC outcome registry: this one, if it is `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    pub fn boot(
        net: &Network,
        node: NodeId,
        ratp_config: RatpConfig,
        registry: NodeId,
        sink: &Arc<TraceSink>,
    ) -> DataServer {
        let ratp = boot_transport(net, node, ratp_config, sink);
        let dsm = DsmServer::install(&ratp);
        dsm.use_outcome_registry(registry);
        let semaphores = SemaphoreService::install(&ratp);
        let naming = (registry == node).then(|| NameServer::install(&ratp));
        DataServer {
            node,
            ratp,
            dsm,
            semaphores,
            naming,
            failover: Mutex::new(None),
        }
    }

    /// Start this server's failover monitor: beacon the peer data
    /// servers, watch the primaries of replicated segments this server
    /// backs up, and promote on a confirmed primary death (see
    /// [`crate::failover`]). `naming_server` is also remembered so a
    /// post-crash [`DataServer::restart`] resyncs replica views from the
    /// directory before serving again.
    pub fn start_failover(
        &self,
        peers: Vec<NodeId>,
        naming_server: NodeId,
        config: FailoverConfig,
    ) {
        let stop = failover::spawn_monitor(
            Arc::clone(&self.ratp),
            Arc::clone(&self.dsm),
            peers,
            naming_server,
            config,
        );
        let mut slot = self.failover.lock();
        if let Some(prev) = slot.take() {
            prev.stop.store(true, Ordering::SeqCst);
        }
        *slot = Some(FailoverState {
            stop,
            naming_server,
        });
    }

    /// Stop the failover monitor (it exits within one tick). The
    /// remembered naming server is kept so restart resync still works.
    pub fn stop_failover(&self) {
        if let Some(st) = self.failover.lock().as_ref() {
            st.stop.store(true, Ordering::SeqCst);
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The DSM server (store, coherence directory, 2PC participant,
    /// segment locks).
    pub fn dsm(&self) -> &Arc<DsmServer> {
        &self.dsm
    }

    /// The semaphore service.
    pub fn semaphores(&self) -> &Arc<SemaphoreService> {
        &self.semaphores
    }

    /// The name server, if hosted here.
    pub fn naming(&self) -> Option<&Arc<NameServer>> {
        self.naming.as_ref()
    }

    /// The RaTP transport (to co-locate more services).
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    /// Crash the data server: only the append-only log survives (it is
    /// disk). The log's index (through which every page, replica view,
    /// staged 2PC intent and outcome is served), the coherence directory
    /// ([`DsmServer::crash`]) and the transport state are all volatile
    /// and lost. Replicated segments stop being served until the restart
    /// replays the log and resyncs views — the crash may sleep through a
    /// demotion.
    pub fn crash(&self, net: &Network) {
        net.crash(self.node);
        self.dsm.crash();
        self.ratp.reset_volatile_state();
    }

    /// Restart after a crash: replay the surviving log to rebuild its
    /// index of pages, replica views, staged 2PC intents and outcomes
    /// (the index only: every record stays in the media until a read
    /// decodes it). Then, if a failover monitor was configured, refresh
    /// every replicated segment's view from the naming directory
    /// *before* serving resumes: a rebooted ex-primary must learn it was
    /// demoted while down, or two servers would answer home probes for
    /// the same segment. [`DsmServer::recover_intents`] is not run here.
    ///
    /// Serving resumes only once *every* replicated segment's view was
    /// successfully refreshed. If the directory stays unreachable past a
    /// short retry budget the server remains fenced — resuming on the
    /// stale pre-crash view (in which this server may still be primary)
    /// is exactly the split brain the fence exists to prevent — and the
    /// failover monitor, which retries naming calls every tick, lifts
    /// the fence when a later full refresh succeeds.
    pub fn restart(&self, net: &Network) {
        net.restart(self.node);
        // Phase one of recovery: replay the append-only log to rebuild
        // its index — pages, replica views, 2PC tables — from durable
        // records alone (charging the virtual clock the scan cost).
        // Only then is the naming directory consulted to refine the —
        // possibly stale — replayed replica views.
        self.dsm.recover_from_log();
        let naming_server = self.failover.lock().as_ref().map(|st| st.naming_server);
        let Some(ns) = naming_server else {
            // No failover monitor was ever configured, so nothing could
            // have re-homed segments while this server was down.
            self.dsm.finish_recovery();
            return;
        };
        let directory = NameClient::new(&self.ratp, ns);
        for _ in 0..RESYNC_ATTEMPTS {
            if failover::refresh_replica_views(&self.dsm, &directory) {
                self.dsm.finish_recovery();
                return;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock resync backoff, until it runs on virtual time"
            )]
            std::thread::sleep(RESYNC_BACKOFF);
        }
        self.ratp.obs().instant(
            "core.failover",
            "resync_deferred",
            "naming directory unreachable; replicated segments stay fenced".to_string(),
        );
    }
}
