//! The invocation context: what an executing entry point can do (§2).
//!
//! An [`Invocation`] is created by the object manager each time a thread
//! enters an object. It provides:
//!
//! * the object's persistent memory ([`Invocation::persistent`]);
//! * nested invocations of other objects, local (DSM-paged to this
//!   node) or on an explicit remote compute server — "the system may
//!   choose to execute the invocation on either A itself or on a
//!   different compute server B" (§3.2);
//! * name binding (§2.4's `rect.bind("Rect01")`);
//! * terminal I/O routed to the thread's originating workstation;
//! * distributed semaphores for inter-thread synchronization (§2.2);
//! * per-invocation and per-thread memory (§5.1);
//! * object creation under program control (§3.1).

use crate::error::CloudsError;
use crate::io::{IoReply, IoRequest, USER_IO_PORT};
use crate::memory::ObjectMemory;
use crate::node::{call, invoke_result, unexpected, ComputeInner, ComputeRequest, WireTarget};
use crate::thread::{ThreadId, ThreadState};
use clouds_dsm::{ports, SemReply, SemRequest};
use clouds_ra::SysName;
use clouds_simnet::{FastMap, NodeId, Vt};
use std::fmt;
use std::sync::Arc;

/// Execution context of one entry-point invocation.
pub struct Invocation<'a> {
    pub(crate) object: SysName,
    pub(crate) entry: String,
    pub(crate) memory: ObjectMemory,
    pub(crate) thread: &'a mut ThreadState,
    pub(crate) services: Arc<ComputeInner>,
    pub(crate) per_invocation: FastMap<String, Vec<u8>>,
}

impl fmt::Debug for Invocation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invocation")
            .field("object", &self.object)
            .field("entry", &self.entry)
            .field("thread", &self.thread.id)
            .finish()
    }
}

impl Invocation<'_> {
    /// The object being executed.
    pub fn object(&self) -> SysName {
        self.object
    }

    /// The entry point name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The executing thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread.id
    }

    /// The compute server this invocation runs on.
    pub fn node_id(&self) -> NodeId {
        self.services.node
    }

    /// The object's persistent memory (data segment + persistent heap).
    pub fn persistent(&self) -> &ObjectMemory {
        &self.memory
    }

    /// Charge virtual CPU time for application computation, so
    /// experiments can model compute-bound work.
    pub fn charge(&self, cost: Vt) {
        self.services.kernel.clock().charge(cost);
    }

    // --- nested invocations ----------------------------------------------

    /// Invoke an entry point of another object on *this* compute server
    /// (its pages are demand-paged here through the DSM).
    ///
    /// # Errors
    ///
    /// Unknown objects/entries, storage failures, or the callee's error.
    pub fn invoke(
        &mut self,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let services = Arc::clone(&self.services);
        services.invoke_local(self.thread, target, entry, args)
    }

    /// Invoke by user name (a name-server lookup, then [`Invocation::invoke`]).
    ///
    /// # Errors
    ///
    /// As for [`Invocation::invoke`], plus naming failures.
    pub fn invoke_named(
        &mut self,
        name: &str,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let target = self.bind(name)?;
        self.invoke(target, entry, args)
    }

    /// Ship the invocation to compute server `node` instead of paging
    /// the object here. The thread logically continues there ("the
    /// thread sends an invocation request to B, which invokes the object
    /// and returns the results to the thread at A").
    ///
    /// # Errors
    ///
    /// As for [`Invocation::invoke`], plus transport failures.
    pub fn invoke_remote(
        &mut self,
        node: NodeId,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let req = ComputeRequest::Invoke {
            thread: Some(self.thread.id.0),
            origin_ws: self.thread.origin_workstation.map(|n| n.0),
            target: WireTarget::Sysname(target),
            entry: entry.to_string(),
            args: args.to_vec(),
        };
        invoke_result(call(&self.services.ratp, node, ports::INVOCATION, &req)?)
    }

    /// Invoke asynchronously: start a *new* Clouds thread on this
    /// compute server that runs `target.entry(args)` concurrently with
    /// the caller ("invoking objects both synchronously and
    /// asynchronously", §2.4). The handle joins for the result.
    pub fn invoke_async(
        &self,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> crate::thread::ThreadHandle {
        self.services
            .start_thread(target, entry, args.to_vec(), self.thread.origin_workstation)
    }

    /// Translate a user name to a sysname via the name server.
    ///
    /// # Errors
    ///
    /// Naming failures.
    pub fn bind(&self, name: &str) -> Result<SysName, CloudsError> {
        Ok(self.services.naming.lookup(name)?)
    }

    /// Create a new object instance under program control, optionally
    /// registering a user name for it.
    ///
    /// # Errors
    ///
    /// Unknown class, storage/naming failures, constructor errors.
    pub fn create_object(
        &self,
        class: &str,
        user_name: Option<&str>,
    ) -> Result<SysName, CloudsError> {
        self.services.create_object(class, user_name, None)
    }

    // --- terminal I/O ------------------------------------------------------

    /// Write text to the thread's controlling terminal (on its
    /// originating workstation), or to the compute server's console for
    /// headless threads.
    ///
    /// # Errors
    ///
    /// Transport failures reaching the workstation.
    pub fn write_str(&self, text: &str) -> Result<(), CloudsError> {
        let Some(ws) = self.thread.origin_workstation else {
            self.services.console.lock().push_str(text);
            return Ok(());
        };
        let req = IoRequest::Write {
            thread: self.thread.id.0,
            text: text.to_string(),
        };
        match call(&self.services.ratp, ws, USER_IO_PORT, &req)? {
            IoReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// [`Invocation::write_str`] plus a newline.
    ///
    /// # Errors
    ///
    /// As for [`Invocation::write_str`].
    pub fn write_line(&self, text: &str) -> Result<(), CloudsError> {
        self.write_str(&format!("{text}\n"))
    }

    /// Read one line typed at the thread's terminal, waiting up to
    /// `wait_ms` of real time.
    ///
    /// # Errors
    ///
    /// Transport failures; `Ok(None)` when no input arrived.
    pub fn read_line(&self, wait_ms: u64) -> Result<Option<String>, CloudsError> {
        let Some(ws) = self.thread.origin_workstation else {
            return Ok(None);
        };
        let req = IoRequest::ReadLine {
            thread: self.thread.id.0,
            wait_ms,
        };
        match call(&self.services.ratp, ws, USER_IO_PORT, &req)? {
            IoReply::Line(l) => Ok(Some(l)),
            IoReply::NoInput => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    // --- synchronization ---------------------------------------------------

    /// Create a distributed counting semaphore.
    ///
    /// # Errors
    ///
    /// Transport failures or an already-existing semaphore.
    pub fn sem_create(&self, count: u32) -> Result<SysName, CloudsError> {
        let id = self.services.kernel.new_sysname();
        match self.sem_call(&SemRequest::Create { id, count })? {
            SemReply::Ok => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// P (down) on a semaphore, waiting up to `wait_ms`.
    ///
    /// Returns `true` if acquired.
    ///
    /// # Errors
    ///
    /// Transport failures or unknown semaphore.
    pub fn sem_p(&self, sem: SysName, wait_ms: u64) -> Result<bool, CloudsError> {
        match self.sem_call(&SemRequest::P { id: sem, wait_ms })? {
            SemReply::Ok => Ok(true),
            SemReply::Timeout => Ok(false),
            other => Err(unexpected(other)),
        }
    }

    /// V (up) on a semaphore.
    ///
    /// # Errors
    ///
    /// Transport failures or unknown semaphore.
    pub fn sem_v(&self, sem: SysName) -> Result<(), CloudsError> {
        match self.sem_call(&SemRequest::V { id: sem })? {
            SemReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// One request to the semaphore service on the sync data server.
    fn sem_call(&self, req: &SemRequest) -> Result<SemReply, CloudsError> {
        let services = &self.services;
        call(&services.ratp, services.sync_server, ports::SEMAPHORES, req)
    }

    // --- memory types (§5.1) ------------------------------------------------

    /// Per-invocation memory: private to this invocation, dropped when
    /// it returns.
    pub fn per_invocation(&mut self) -> &mut FastMap<String, Vec<u8>> {
        &mut self.per_invocation
    }

    /// Read a per-thread memory cell (object-scoped, thread-private,
    /// lives until the thread terminates).
    pub fn per_thread_get(&self, key: &str) -> Option<Vec<u8>> {
        self.thread
            .per_thread
            .get(&(self.object, key.to_string()))
            .cloned()
    }

    /// Write a per-thread memory cell.
    pub fn per_thread_set(&mut self, key: &str, value: Vec<u8>) {
        self.thread
            .per_thread
            .insert((self.object, key.to_string()), value);
    }

    /// Objects this thread has visited so far (thread-manager
    /// bookkeeping, §4.2).
    pub fn visited(&self) -> &[SysName] {
        &self.thread.visited
    }
}
