//! Clouds threads (§2.2).
//!
//! "The only form of user activity in the Clouds system is the user
//! thread. A thread is a logical path of execution that executes code in
//! objects, traversing objects as it executes. Thus unlike a process in
//! a conventional operating system, a Clouds thread is not bound to a
//! single address space."
//!
//! A [`ThreadId`] is global; when a thread's invocation hops to another
//! compute server (remote invocation, §3.2) the same id continues there,
//! executed by a fresh Clouds process (IsiBa + stack + virtual space) on
//! the target node — "a thread may span machine boundaries and is
//! implemented as a collection of Clouds processes" (§4.2).

use crate::consistency_hooks::CpSession;
use crate::error::CloudsError;
use clouds_ra::SysName;
use clouds_simnet::{FastMap, NodeId};
use std::fmt;
use std::sync::Arc;

/// Globally unique Clouds thread identifier: creating node in the high
/// half, per-node counter in the low half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl ThreadId {
    /// Compose an id from its parts.
    pub fn new(node: NodeId, counter: u32) -> ThreadId {
        ThreadId(((node.0 as u64) << 32) | counter as u64)
    }

    /// The node that created the thread.
    pub fn origin_node(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}.{}", self.0 >> 32, self.0 & 0xFFFF_FFFF)
    }
}

/// Mutable per-thread state carried through (nested) invocations on one
/// node. The thread manager's bookkeeping: "information associated with
/// a thread such as the objects it may have visited, the user
/// workstation from which it was created" (§4.2).
pub struct ThreadState {
    /// The thread's global id.
    pub id: ThreadId,
    /// Workstation whose terminal this thread's I/O is routed to.
    pub origin_workstation: Option<NodeId>,
    /// Per-thread memory (§5.1): "global to the routines in the object
    /// but specific to a particular thread and lasts until the thread
    /// terminates". Keyed by (object, name).
    pub per_thread: FastMap<(SysName, String), Vec<u8>>,
    /// Consistency session when this is a cp-thread; `None` for
    /// s-threads.
    pub session: Option<Arc<CpSession>>,
    /// Objects visited, in invocation order (bookkeeping/diagnostics).
    pub visited: Vec<SysName>,
    /// Current invocation nesting depth.
    pub depth: u32,
    /// Trace roots this thread has started (top-level invocations with
    /// no ambient causal context). Together with the deterministic
    /// [`ThreadId`] this seeds the derived trace id, keeping same-seed
    /// traces byte-identical.
    pub trace_roots: u64,
}

impl fmt::Debug for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadState")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .field("visited", &self.visited.len())
            .finish()
    }
}

impl ThreadState {
    /// Fresh state for a newly created thread.
    pub fn new(id: ThreadId, origin_workstation: Option<NodeId>) -> ThreadState {
        ThreadState {
            id,
            origin_workstation,
            per_thread: FastMap::default(),
            session: None,
            visited: Vec::new(),
            depth: 0,
            trace_roots: 0,
        }
    }
}

/// Handle to an asynchronously started Clouds thread.
pub struct ThreadHandle {
    pub(crate) id: ThreadId,
    /// Blocks until the thread's top-level invocation is over and
    /// yields its outcome: a channel read for a thread on a local
    /// scheduler, the rest of the RaTP call for one a workstation
    /// started.
    pub(crate) wait: Box<dyn FnOnce() -> Result<Vec<u8>, CloudsError> + Send>,
}

impl fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("id", &self.id)
            .finish()
    }
}

impl ThreadHandle {
    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Wait for the thread's top-level invocation to finish and take its
    /// encoded result.
    ///
    /// For a thread started by [`crate::Workstation::spawn`], `join` is
    /// where its RaTP call completes: retransmission of the request and
    /// the virtual-clock settle of the reply happen here, on the joining
    /// thread.
    ///
    /// # Errors
    ///
    /// The invocation's error, a transport error for a workstation's
    /// thread, or [`CloudsError::ThreadFailed`] if the executing thread
    /// disappeared.
    pub fn join(self) -> Result<Vec<u8>, CloudsError> {
        (self.wait)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_parts() {
        let id = ThreadId::new(NodeId(3), 17);
        assert_eq!(id.origin_node(), NodeId(3));
        assert_eq!(id.to_string(), "thread3.17");
    }

    #[test]
    fn thread_state_defaults() {
        let st = ThreadState::new(ThreadId::new(NodeId(1), 1), Some(NodeId(200)));
        assert_eq!(st.depth, 0);
        assert!(st.session.is_none());
        assert!(st.visited.is_empty());
        assert_eq!(st.origin_workstation, Some(NodeId(200)));
    }
}
