//! The compute server (§3): diskless, it reaches every page through
//! the DSM client partition and runs the object and thread managers.

use super::{boot_transport, encode, ComputeReply, ComputeRequest, WireError, WireTarget};
use crate::class::ClassRegistry;
use crate::consistency_hooks::CpSession;
use crate::error::CloudsError;
use crate::invocation::Invocation;
use crate::object_manager::ObjectManager;
use crate::thread::{ThreadHandle, ThreadId, ThreadState};
use clouds_dsm::{ports, DsmClientPartition};
use clouds_naming::NameClient;
use clouds_obs::{Histogram, TraceSink};
use clouds_ra::{PageCache, RaKernel, SysName};
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{FastMap, Network, NodeId};
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Shared internals of a compute server (used by [`Invocation`]).
pub(crate) struct ComputeInner {
    pub node: NodeId,
    pub kernel: Arc<RaKernel>,
    pub ratp: Arc<RatpNode>,
    pub object_manager: ObjectManager,
    pub naming: NameClient,
    /// Data server hosting the semaphore service.
    pub sync_server: NodeId,
    pub thread_counter: AtomicU32,
    /// Clouds threads on this node, each from its start until its body
    /// returns ([`Running`]): the `Load` a workstation places by.
    threads: AtomicU64,
    /// `invoke.call`, resolved once at boot.
    invoke_latency: Arc<Histogram>,
    /// Console output of headless threads (no workstation attached).
    pub console: Mutex<String>,
    /// Weak self-reference so invocations can hand `Arc<ComputeInner>`
    /// to nested contexts.
    self_ref: Weak<ComputeInner>,
}

/// Deepest allowed invocation nesting per thread segment. Invocations
/// "can be nested or recursive" (§2.2), but unbounded recursion would
/// exhaust the (host) stack; a real kernel would fault the thread.
pub const MAX_INVOCATION_DEPTH: u32 = 64;

impl ComputeInner {
    /// Execute a (possibly nested) invocation on this node.
    pub(crate) fn invoke_local(
        &self,
        thread: &mut ThreadState,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        if thread.depth >= MAX_INVOCATION_DEPTH {
            return Err(CloudsError::ThreadFailed(format!(
                "invocation depth limit ({MAX_INVOCATION_DEPTH}) exceeded by {}",
                thread.id
            )));
        }
        let self_arc = self.self_arc();
        let obs = self.ratp.obs();
        let detail = format!("obj={target} entry={entry} depth={}", thread.depth);
        // Invocation entry is where causal traces begin. A top-level
        // invocation (no ambient context — a fresh thread, or a caller
        // outside the traced stack) roots a new trace whose id is
        // derived from the deterministic thread id and the thread's
        // root counter; nested and remotely continued invocations
        // attach to the ambient context instead (for the remote path
        // the RaTP handler installed the caller's wire context).
        let mut span = if clouds_obs::current_ctx().is_some() {
            obs.traced_span("invoke", "invoke", &detail)
        } else {
            thread.trace_roots += 1;
            let trace_id = clouds_obs::derive_trace_id(thread.id.0, thread.trace_roots);
            obs.root_span(trace_id, "invoke", "invoke", &detail)
        }
        .with_histogram(Arc::clone(&self.invoke_latency));
        span.set_args(detail);
        let activation = self.object_manager.activate(target)?;
        let cost = self.kernel.cost().clone();
        // Entering the object: context switch + stack remap (§4.3).
        self.kernel
            .clock()
            .charge(cost.context_switch + cost.invocation_setup);
        let memory = self
            .object_manager
            .build_memory(&activation, thread.session.clone())?;
        thread.visited.push(target);
        thread.depth += 1;
        let mut ctx = Invocation {
            object: target,
            entry: entry.to_string(),
            memory,
            thread,
            services: self_arc,
            per_invocation: FastMap::default(),
        };
        let result = activation.class.code().dispatch(entry, &mut ctx, args);
        ctx.thread.depth -= 1;
        // Leaving the object.
        self.kernel
            .clock()
            .charge(cost.context_switch + cost.invocation_setup);
        result
    }

    /// Run an object's constructor.
    pub(crate) fn construct_object(
        &self,
        meta: &crate::object::ObjectMeta,
        class: &crate::class::Class,
    ) -> Result<(), CloudsError> {
        let self_arc = self.self_arc();
        let id = self.next_thread_id();
        let mut thread = ThreadState::new(id, None);
        let activation = crate::object_manager::Activation {
            meta: meta.clone(),
            class: class.clone(),
        };
        let memory = self.object_manager.build_memory(&activation, None)?;
        let mut ctx = Invocation {
            object: meta.sysname,
            entry: "<constructor>".to_string(),
            memory,
            thread: &mut thread,
            services: self_arc,
            per_invocation: FastMap::default(),
        };
        class.code().construct(&mut ctx)
    }

    pub(crate) fn next_thread_id(&self) -> ThreadId {
        ThreadId::new(
            self.node,
            self.thread_counter.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// Create an object, optionally registering a user name.
    pub(crate) fn create_object(
        &self,
        class: &str,
        user_name: Option<&str>,
        placement: Option<NodeId>,
    ) -> Result<SysName, CloudsError> {
        let meta = self
            .object_manager
            .create_object(class, placement, |meta, class| {
                self.construct_object(meta, class)
            })?;
        if let Some(name) = user_name {
            self.naming.register(name, meta.sysname)?;
        }
        Ok(meta.sysname)
    }

    /// A thread's top-level invocation on this node. An s-thread ends
    /// with a flush of its dirty pages, and a failed flush is the
    /// thread's result: an acknowledged s-thread is a durable one. A
    /// cp-thread's pages go out with its commit instead. The thread
    /// counts in the node's load until this returns.
    fn run_thread(
        &self,
        _running: Running,
        thread: &mut ThreadState,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let result = self.invoke_local(thread, target, entry, args);
        if thread.session.is_none() {
            self.kernel
                .page_cache()
                .flush(&**self.object_manager.partition())?;
        }
        result
    }

    /// Start a new Clouds thread (fresh id) on this node's scheduler
    /// and return a handle to await it.
    pub(crate) fn start_thread(
        &self,
        target: SysName,
        entry: &str,
        args: Vec<u8>,
        origin_workstation: Option<NodeId>,
    ) -> ThreadHandle {
        let id = self.next_thread_id();
        let (tx, rx) = bounded(1);
        let inner = self.self_arc();
        let running = Running::start(&inner);
        let entry = entry.to_string();
        self.kernel
            .scheduler()
            .spawn(clouds_ra::sched::StackKind::User, move |ictx| {
                // Clouds threads spend their blocking time (page faults,
                // remote calls) off the virtual CPU.
                let result = ictx.blocking(|| {
                    let mut thread = ThreadState::new(id, origin_workstation);
                    inner.run_thread(running, &mut thread, target, &entry, &args)
                });
                let _ = tx.send(result);
            });
        ThreadHandle {
            id,
            wait: Box::new(move || {
                rx.recv().unwrap_or_else(|_| {
                    Err(CloudsError::ThreadFailed(
                        "executor disappeared".to_string(),
                    ))
                })
            }),
        }
    }

    /// The `Arc` this inner lives in (set once at construction).
    fn self_arc(&self) -> Arc<ComputeInner> {
        self.self_ref
            .upgrade()
            .expect("compute inner outlives its invocations")
    }
}

/// A Clouds compute server.
#[derive(Clone)]
pub struct ComputeServer {
    inner: Arc<ComputeInner>,
}

impl fmt::Debug for ComputeServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComputeServer")
            .field("node", &self.inner.node)
            .finish()
    }
}

impl ComputeServer {
    /// Boot a compute server on `node`, joined to the cluster's trace
    /// sink: registers it on the network, spawns RaTP, the DSM client
    /// partition, the Ra kernel, the object manager and the invocation
    /// service.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    #[allow(clippy::too_many_arguments)]
    pub fn boot(
        net: &Network,
        node: NodeId,
        data_servers: Vec<NodeId>,
        naming_server: NodeId,
        registry: ClassRegistry,
        ratp_config: RatpConfig,
        cpus: usize,
        cache_frames: usize,
        sink: &Arc<TraceSink>,
    ) -> ComputeServer {
        let ratp = boot_transport(net, node, ratp_config, sink);
        let clock = net.clock(node).expect("registered above");
        let cost = net.cost_model().clone();
        let cache = Arc::new(PageCache::new(cache_frames));
        let dsm = DsmClientPartition::install(&ratp, Arc::clone(&cache), data_servers);
        let kernel = RaKernel::new_with_cache(
            node,
            clock,
            cost,
            Arc::clone(&dsm) as Arc<dyn clouds_ra::Partition>,
            cpus,
            cache,
        );
        // The scheduler cannot depend on the transport layer, so its
        // trace hookup is installed here at boot.
        kernel.scheduler().set_obs(Arc::clone(ratp.obs()));
        let object_manager = ObjectManager::new_dsm(Arc::clone(&kernel), dsm, registry);
        let naming = NameClient::new(&ratp, naming_server);
        let inner = Arc::new_cyclic(|self_ref| ComputeInner {
            node,
            kernel,
            ratp: Arc::clone(&ratp),
            object_manager,
            naming,
            sync_server: naming_server,
            thread_counter: AtomicU32::new(1),
            threads: AtomicU64::new(0),
            invoke_latency: ratp.obs().histogram("invoke.call"),
            console: Mutex::new(String::new()),
            self_ref: self_ref.clone(),
        });

        // The invocation service: lets workstations and other compute
        // servers run thread segments here.
        let service_inner = Arc::clone(&inner);
        ratp.register_service(ports::INVOCATION, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<ComputeRequest>(&req.payload) {
                Ok(message) => service_inner.handle_compute_request(message),
                Err(e) => {
                    ComputeReply::Result(Err(WireError::Other(format!("malformed request: {e}"))))
                }
            };
            encode(&reply)
        });

        ComputeServer { inner }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.inner.node
    }

    /// The Ra kernel.
    pub fn kernel(&self) -> &Arc<RaKernel> {
        &self.inner.kernel
    }

    /// The RaTP transport.
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.inner.ratp
    }

    /// The DSM client partition.
    pub fn dsm(&self) -> &Arc<DsmClientPartition> {
        self.inner.object_manager.partition()
    }

    /// The object manager.
    pub fn object_manager(&self) -> &ObjectManager {
        &self.inner.object_manager
    }

    /// The name client bound to the cluster's name server.
    pub fn naming(&self) -> &NameClient {
        &self.inner.naming
    }

    /// Console output of headless threads run on this server.
    pub fn console(&self) -> String {
        self.inner.console.lock().clone()
    }

    /// Create an object (optionally registering `user_name`, optionally
    /// placed on a specific data server).
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures, constructor errors.
    pub fn create_object(
        &self,
        class: &str,
        user_name: Option<&str>,
        placement: Option<NodeId>,
    ) -> Result<SysName, CloudsError> {
        self.inner.create_object(class, user_name, placement)
    }

    /// Destroy an object and its segments.
    ///
    /// # Errors
    ///
    /// Unknown object or storage failures.
    pub fn destroy_object(&self, sysname: SysName) -> Result<(), CloudsError> {
        self.inner.object_manager.destroy_object(sysname)
    }

    /// The consistency label of `entry` on the target's class.
    ///
    /// # Errors
    ///
    /// Unknown object / class errors from activation.
    pub fn entry_label(
        &self,
        target: SysName,
        entry: &str,
    ) -> Result<crate::class::OperationLabel, CloudsError> {
        let activation = self.inner.object_manager.activate(target)?;
        Ok(activation.class.code().label(entry))
    }

    /// Run an invocation synchronously on the calling thread, creating a
    /// fresh Clouds thread (optionally a cp-thread via `session`).
    ///
    /// # Errors
    ///
    /// As for [`Invocation::invoke`], plus a failed end-of-thread flush
    /// for an s-thread.
    pub fn invoke(
        &self,
        target: SysName,
        entry: &str,
        args: &[u8],
        session: Option<Arc<CpSession>>,
    ) -> Result<Vec<u8>, CloudsError> {
        let mut thread = ThreadState::new(self.inner.next_thread_id(), None);
        thread.session = session;
        self.inner.run_thread(
            Running::start(&self.inner),
            &mut thread,
            target,
            entry,
            args,
        )
    }

    /// Start a Clouds thread on this server's IsiBa scheduler and return
    /// a handle to await it.
    pub fn start_thread(
        &self,
        target: SysName,
        entry: &str,
        args: Vec<u8>,
        origin_workstation: Option<NodeId>,
    ) -> ThreadHandle {
        self.inner
            .start_thread(target, entry, args, origin_workstation)
    }

    /// Clouds threads on this server, however they were started and
    /// whether running or blocked, for placement policies.
    pub fn load(&self) -> u64 {
        self.inner.load()
    }

    /// Crash this compute server: volatile state (page frames,
    /// activations, transport state) is lost and the node drops off the
    /// network until [`ComputeServer::restart`].
    pub fn crash(&self, net: &Network) {
        net.crash(self.inner.node);
        self.inner.kernel.crash();
        self.inner.object_manager.deactivate_all();
        self.inner.ratp.reset_volatile_state();
    }

    /// Restart after a crash.
    pub fn restart(&self, net: &Network) {
        net.restart(self.inner.node);
    }

    pub(crate) fn inner(&self) -> &Arc<ComputeInner> {
        &self.inner
    }
}

impl ComputeInner {
    fn handle_compute_request(self: &Arc<Self>, req: ComputeRequest) -> ComputeReply {
        match req {
            ComputeRequest::Invoke {
                thread,
                origin_ws,
                target,
                entry,
                args,
            } => {
                let id = match thread {
                    Some(raw) => ThreadId(raw),
                    None => self.next_thread_id(),
                };
                let origin = origin_ws.map(NodeId);
                let target = match target {
                    WireTarget::Sysname(s) => Ok(s),
                    WireTarget::Name(n) => self.naming.lookup(&n).map_err(CloudsError::from),
                };
                let result = target.and_then(|t| {
                    let thread = &mut ThreadState::new(id, origin);
                    self.run_thread(Running::start(self), thread, t, &entry, &args)
                });
                ComputeReply::Result(result.map_err(WireError::from))
            }
            ComputeRequest::CreateObject { class, placement } => ComputeReply::Created(
                self.create_object(&class, None, placement.map(NodeId))
                    .map_err(WireError::from),
            ),
            ComputeRequest::DestroyObject { sysname } => ComputeReply::Ok(
                self.object_manager
                    .destroy_object(sysname)
                    .map_err(WireError::from),
            ),
            ComputeRequest::Load => ComputeReply::Load(self.load()),
        }
    }

    fn load(&self) -> u64 {
        self.threads.load(Ordering::Relaxed)
    }
}

/// One Clouds thread in its node's load, from the thread's start until
/// [`ComputeInner::run_thread`], which takes it, returns.
struct Running(Arc<ComputeInner>);

impl Running {
    fn start(inner: &Arc<ComputeInner>) -> Running {
        inner.threads.fetch_add(1, Ordering::Relaxed);
        Running(Arc::clone(inner))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.0.threads.fetch_sub(1, Ordering::Relaxed);
    }
}
