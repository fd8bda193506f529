//! Cluster assembly: one simulated Ethernet, any number of compute
//! servers, data servers and workstations (§3, Figure 3).

use crate::class::{ClassRegistry, ObjectCode};
use crate::error::CloudsError;
use crate::node::{ComputeServer, DataServer, Workstation};
use clouds_naming::NameClient;
use clouds_obs::{MetricsRegistry, TraceSink};
use clouds_ra::SysName;
use clouds_ratp::RatpConfig;
use clouds_simnet::{CostModel, Network, NodeId};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// First node id used for compute servers.
pub const COMPUTE_BASE: u32 = 1;
/// First node id used for data servers.
pub const DATA_BASE_ID: u32 = 100;
/// First node id used for workstations.
pub const WS_BASE: u32 = 200;

/// Builder for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    compute_servers: usize,
    data_servers: usize,
    workstations: usize,
    cost: CostModel,
    seed: u64,
    cpus: usize,
    cache_frames: usize,
    server_ratp: Option<RatpConfig>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            compute_servers: 1,
            data_servers: 1,
            workstations: 1,
            cost: CostModel::sun3_ethernet(),
            seed: 0xC10D5,
            cpus: 4,
            cache_frames: 512,
            server_ratp: None,
        }
    }
}

impl ClusterBuilder {
    /// Number of compute servers (default 1).
    pub fn compute_servers(mut self, n: usize) -> Self {
        self.compute_servers = n;
        self
    }

    /// Number of data servers (default 1).
    pub fn data_servers(mut self, n: usize) -> Self {
        self.data_servers = n;
        self
    }

    /// Number of workstations (default 1).
    pub fn workstations(mut self, n: usize) -> Self {
        self.workstations = n;
        self
    }

    /// Virtual-time cost model (default: the calibrated Sun-3 model).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Fault-injection RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Virtual CPUs per compute server (default 4; 1 is the faithful
    /// Sun-3/60).
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Page frames per compute server (default 512 = 4 MB).
    pub fn cache_frames(mut self, frames: usize) -> Self {
        self.cache_frames = frames;
        self
    }

    /// Override the RaTP settings used by compute and data servers.
    ///
    /// The retransmission budget doubles as the failure detector: a peer
    /// silent for the whole budget is treated as dead (recalled pages are
    /// reclaimed, calls fail). Test harnesses that stall nodes for real
    /// wall-clock time — chaos schedules, heavily loaded CI machines —
    /// should raise the budget so a merely *slow* node is not declared
    /// dead, which would otherwise sacrifice one-copy semantics to
    /// availability.
    pub fn server_ratp_config(mut self, config: RatpConfig) -> Self {
        self.server_ratp = Some(config);
        self
    }

    /// Boot the cluster.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` so future
    /// wiring failures stay non-breaking.
    ///
    /// # Panics
    ///
    /// Panics if any server count is zero (except workstations).
    pub fn build(self) -> Result<Cluster, CloudsError> {
        assert!(self.compute_servers > 0, "need at least one compute server");
        assert!(self.data_servers > 0, "need at least one data server");

        let net = Network::with_seed(self.cost, self.seed);
        let registry = ClassRegistry::new();
        // One ring buffer for the whole cluster: every node's NodeObs
        // shares it, so the canonical stream interleaves all layers on
        // the common virtual timeline. `CLOUDS_TRACE=<path>` makes the
        // cluster write it out on drop (`.json` → Chrome trace_event,
        // anything else → JSONL). The ring keeps the newest 4 096 events
        // (≈ 0.5 MiB); `CLOUDS_TRACE_CAP=<n>` sets another capacity, and
        // a written trace that lost older events says so on stderr.
        let trace_sink = Arc::new(TraceSink::from_env());
        let trace_path = std::env::var_os("CLOUDS_TRACE").map(PathBuf::from);

        let data_nodes: Vec<NodeId> = (0..self.data_servers)
            .map(|i| NodeId(DATA_BASE_ID + i as u32))
            .collect();
        let compute_nodes: Vec<NodeId> = (0..self.compute_servers)
            .map(|i| NodeId(COMPUTE_BASE + i as u32))
            .collect();
        let naming_server = data_nodes[0];
        let server_ratp = self.server_ratp.unwrap_or_else(server_ratp_config);

        // Data servers first so the DSM clients can discover them.
        let datas: Vec<DataServer> = data_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                DataServer::boot(&net, node, server_ratp.clone(), i == 0, &trace_sink)
            })
            .collect();

        let computes: Vec<ComputeServer> = compute_nodes
            .iter()
            .map(|&node| {
                ComputeServer::boot(
                    &net,
                    node,
                    data_nodes.clone(),
                    naming_server,
                    registry.clone(),
                    server_ratp.clone(),
                    self.cpus,
                    self.cache_frames,
                    &trace_sink,
                )
            })
            .collect();

        let stations: Vec<Workstation> = (0..self.workstations)
            .map(|i| {
                Workstation::boot(
                    &net,
                    NodeId(WS_BASE + i as u32),
                    compute_nodes.clone(),
                    naming_server,
                    workstation_ratp_config(),
                    &trace_sink,
                )
            })
            .collect();

        Ok(Cluster {
            net,
            registry,
            computes,
            datas,
            stations,
            trace_sink,
            trace_path,
            dropped_reported: AtomicU64::new(0),
        })
    }
}

/// RaTP settings for system servers: patient enough for coherence
/// transitions under load.
fn server_ratp_config() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_millis(15),
        max_retries: 200,
    }
}

/// Workstation calls block for the whole computation, so the budget is
/// effectively unbounded (hours).
fn workstation_ratp_config() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_millis(25),
        max_retries: 1_000_000,
    }
}

/// A booted Clouds system.
pub struct Cluster {
    net: Network,
    registry: ClassRegistry,
    computes: Vec<ComputeServer>,
    datas: Vec<DataServer>,
    stations: Vec<Workstation>,
    trace_sink: Arc<TraceSink>,
    trace_path: Option<PathBuf>,
    /// Ring-buffer drops already surfaced (warning + counter), so the
    /// explicit [`Cluster::write_trace`] and the drop-time write don't
    /// double-count.
    dropped_reported: AtomicU64,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("compute_servers", &self.computes.len())
            .field("data_servers", &self.datas.len())
            .field("workstations", &self.stations.len())
            .finish()
    }
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The simulated network (fault injection, stats, clocks).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The cluster-shared trace sink (every node's events, one virtual
    /// timeline).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.trace_sink
    }

    /// Write the trace out now: `.json` extension selects the Chrome
    /// `trace_event` format, anything else canonical JSONL.
    ///
    /// If the ring buffer overflowed since the last write, warns on
    /// stderr and bumps the `obs.trace.dropped` counter (compute
    /// server 0's registry) by the number of newly lost events, so a
    /// truncated trace never passes silently for a complete one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.surface_dropped();
        self.trace_sink.write_to_path(path)
    }

    fn surface_dropped(&self) {
        let total = self.trace_sink.dropped();
        let seen = self.dropped_reported.swap(total, Ordering::Relaxed);
        let new = total.saturating_sub(seen);
        if new > 0 {
            eprintln!(
                "CLOUDS_TRACE: ring buffer overflowed, {new} event(s) lost \
                 ({total} total); raise {} to keep them",
                clouds_obs::TRACE_CAP_ENV
            );
            self.computes[0]
                .ratp()
                .obs()
                .counter("obs.trace.dropped")
                .add(new);
        }
    }

    /// Every node's metrics registry, keyed by node id: compute
    /// servers, then data servers, then workstations. Feed this to the
    /// chaos flight recorder or [`clouds_obs::merged_registry_text`]
    /// for a cluster-wide canonical dump.
    pub fn registries(&self) -> Vec<(u64, Arc<MetricsRegistry>)> {
        let mut out: Vec<(u64, Arc<MetricsRegistry>)> = Vec::new();
        for c in &self.computes {
            out.push((c.node_id().0 as u64, Arc::clone(c.ratp().obs().registry())));
        }
        for d in &self.datas {
            out.push((d.node_id().0 as u64, Arc::clone(d.ratp().obs().registry())));
        }
        for w in &self.stations {
            out.push((w.node_id().0 as u64, Arc::clone(w.ratp().obs().registry())));
        }
        out
    }

    /// Load a class on every compute server ("the compiler loads the
    /// generated classes on a Clouds data server. Now these classes are
    /// available to all Clouds compute servers", §3.1).
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` keeps the API future-proof.
    pub fn register_class<C: ObjectCode>(&self, name: &str, code: C) -> Result<(), CloudsError> {
        self.registry.register(name, code);
        Ok(())
    }

    /// The shared class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Compute server `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn compute(&self, i: usize) -> &ComputeServer {
        &self.computes[i]
    }

    /// All compute servers.
    pub fn computes(&self) -> &[ComputeServer] {
        &self.computes
    }

    /// Data server `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn data_server(&self, i: usize) -> &DataServer {
        &self.datas[i]
    }

    /// All data servers.
    pub fn data_servers(&self) -> &[DataServer] {
        &self.datas
    }

    /// Workstation `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn workstation(&self, i: usize) -> &Workstation {
        &self.stations[i]
    }

    /// All workstations.
    pub fn workstations(&self) -> &[Workstation] {
        &self.stations
    }

    /// A name client speaking from compute server 0.
    pub fn naming(&self) -> &NameClient {
        self.computes[0].naming()
    }

    /// Create an object from compute server 0 and register its name.
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures, constructor errors.
    pub fn create_object(&self, class: &str, user_name: &str) -> Result<SysName, CloudsError> {
        self.computes[0].create_object(class, Some(user_name), None)
    }

    /// Crash data server `i` (volatile state lost, store survives).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn crash_data_server(&self, i: usize) {
        self.datas[i].crash(&self.net);
    }

    /// Restart data server `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn restart_data_server(&self, i: usize) {
        self.datas[i].restart(&self.net);
    }

    /// Crash compute server `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn crash_compute(&self, i: usize) {
        self.computes[i].crash(&self.net);
    }

    /// Restart compute server `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn restart_compute(&self, i: usize) {
        self.computes[i].restart(&self.net);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(path) = &self.trace_path {
            self.surface_dropped();
            if let Err(e) = self.trace_sink.write_to_path(path) {
                eprintln!("CLOUDS_TRACE: could not write {}: {e}", path.display());
            }
        }
    }
}
