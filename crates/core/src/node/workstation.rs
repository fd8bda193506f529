//! The user workstation (§3): creates objects and threads on compute
//! servers and owns the terminals those threads print to.

use super::{
    boot_transport, call, decode, encode, invoke_result, unexpected, ComputeReply, ComputeRequest,
    WireTarget,
};
use crate::error::CloudsError;
use crate::io::UserIoManager;
use crate::thread::{ThreadHandle, ThreadId};
use clouds_dsm::ports;
use clouds_naming::NameClient;
use clouds_obs::TraceSink;
use clouds_ra::SysName;
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{Network, NodeId};
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A user workstation.
pub struct Workstation {
    node: NodeId,
    ratp: Arc<RatpNode>,
    io: Arc<UserIoManager>,
    naming: NameClient,
    computes: Vec<NodeId>,
    rr: AtomicU32,
    thread_counter: AtomicU32,
}

impl fmt::Debug for Workstation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workstation")
            .field("node", &self.node)
            .finish()
    }
}

impl Workstation {
    /// Boot a workstation on `node`, joined to the cluster's trace sink.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered on the network.
    pub fn boot(
        net: &Network,
        node: NodeId,
        computes: Vec<NodeId>,
        naming_server: NodeId,
        ratp_config: RatpConfig,
        sink: &Arc<TraceSink>,
    ) -> Workstation {
        let ratp = boot_transport(net, node, ratp_config, sink);
        let io = UserIoManager::install(&ratp);
        let naming = NameClient::new(&ratp, naming_server);
        Workstation {
            node,
            ratp,
            io,
            naming,
            computes,
            rr: AtomicU32::new(0),
            thread_counter: AtomicU32::new(1),
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The name client.
    pub fn naming(&self) -> &NameClient {
        &self.naming
    }

    /// The terminal multiplexer.
    pub fn io(&self) -> &Arc<UserIoManager> {
        &self.io
    }

    /// The workstation's transport endpoint (its observability handle —
    /// metrics registry and trace sink — hangs off it).
    pub fn ratp(&self) -> &Arc<RatpNode> {
        &self.ratp
    }

    fn pick_compute(&self) -> NodeId {
        // The "scheduling decision" of §3.2: round-robin by default.
        let i = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
        self.computes[i % self.computes.len()]
    }

    /// Ask every compute server for its load (the Clouds threads on
    /// it) and return the least loaded one — the load-aware variant of
    /// §3.2's "may depend on … the load at each compute server".
    pub fn least_loaded_compute(&self) -> NodeId {
        let mut best = (u64::MAX, self.computes[0]);
        for &node in &self.computes {
            let load = self
                .ratp
                .call_with_budget(node, ports::INVOCATION, encode(&ComputeRequest::Load), 5)
                .ok()
                .and_then(|b| decode::<ComputeReply>(&b).ok())
                .and_then(|r| match r {
                    ComputeReply::Load(l) => Some(l),
                    _ => None,
                })
                .unwrap_or(u64::MAX); // unreachable server: never pick
            if load < best.0 {
                best = (load, node);
            }
        }
        best.1
    }

    /// Create an object of `class` and register `user_name` for it.
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures.
    pub fn create_object(&self, class: &str, user_name: &str) -> Result<SysName, CloudsError> {
        let req = ComputeRequest::CreateObject {
            class: class.to_string(),
            placement: None,
        };
        match call(&self.ratp, self.pick_compute(), ports::INVOCATION, &req)? {
            ComputeReply::Created(created) => {
                let sysname = created?;
                self.naming.register(user_name, sysname)?;
                Ok(sysname)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Start a thread invoking `name.entry(args)` on a compute server
    /// chosen round-robin. Output appears on this workstation's
    /// terminal for the returned thread id.
    ///
    /// The request is an RaTP call that `spawn` sends, once, from the
    /// calling thread; the workstation runs no thread for it. The
    /// network delivers on the sender's thread, so the compute server is
    /// already running the invocation when `spawn` returns, and
    /// [`ThreadHandle::join`] completes the call. Hence:
    ///
    /// * retransmission of the request, and the virtual-clock settle of
    ///   the reply, happen when the handle is joined;
    /// * the call's span is a child of the caller's ambient span;
    /// * a handle dropped without `join` has sent its request exactly
    ///   once, and its reply is discarded.
    pub fn spawn(&self, name: &str, entry: &str, args: Vec<u8>) -> ThreadHandle {
        let id = ThreadId::new(
            self.node,
            self.thread_counter.fetch_add(1, Ordering::Relaxed),
        );
        let req = ComputeRequest::Invoke {
            thread: Some(id.0),
            origin_ws: Some(self.node.0),
            target: WireTarget::Name(name.to_string()),
            entry: entry.to_string(),
            args,
        };
        let pending = self
            .ratp
            .call_async(self.pick_compute(), ports::INVOCATION, encode(&req));
        ThreadHandle {
            id,
            wait: Box::new(move || decode(&pending.await_reply()?).and_then(invoke_result)),
        }
    }

    /// Invoke synchronously and return the encoded result.
    ///
    /// # Errors
    ///
    /// As for [`crate::Invocation::invoke`].
    pub fn run_wait<T: Serialize>(
        &self,
        name: &str,
        entry: &str,
        args: &T,
    ) -> Result<Vec<u8>, CloudsError> {
        let encoded = crate::encode_args(args)?;
        self.spawn(name, entry, encoded).join()
    }

    /// Invoke synchronously and decode the result.
    ///
    /// # Errors
    ///
    /// As for [`Workstation::run_wait`], plus decode failures.
    pub fn run_wait_decode<T: Serialize, R: serde::Deserialize>(
        &self,
        name: &str,
        entry: &str,
        args: &T,
    ) -> Result<R, CloudsError> {
        let bytes = self.run_wait(name, entry, args)?;
        crate::decode_args(&bytes)
    }

    /// Destroy an object through a compute server.
    ///
    /// # Errors
    ///
    /// Unknown object or storage/transport failures.
    pub fn destroy_object(&self, sysname: SysName) -> Result<(), CloudsError> {
        let req = ComputeRequest::DestroyObject { sysname };
        match call(&self.ratp, self.pick_compute(), ports::INVOCATION, &req)? {
            ComputeReply::Ok(done) => Ok(done?),
            other => Err(unexpected(other)),
        }
    }

    /// Terminal output of one thread.
    pub fn output(&self, thread: ThreadId) -> String {
        self.io.output_of(thread.0)
    }

    /// Type a line at a thread's terminal.
    pub fn type_line(&self, thread: ThreadId, line: &str) {
        self.io.push_input(thread.0, line);
    }
}
