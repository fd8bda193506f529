//! Lock acquisition against the data-server lock managers.

use clouds::consistency_hooks::LockHooks;
use clouds::CloudsError;
use clouds_dsm::{ports, DsmClientPartition, LockMode, LockOutcome, LockReply, LockRequest};
use clouds_ra::SysName;
use clouds_ratp::RatpNode;
use clouds_simnet::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// [`LockHooks`] implementation that places each segment's lock on the
/// data server homing the segment — the paper's "locking is handled by
/// the system, automatically at runtime", with the data servers
/// providing "support for distributed synchronization" (§3.2, §4.2).
pub struct RemoteLockHooks {
    ratp: Arc<RatpNode>,
    dsm: Arc<DsmClientPartition>,
    wait_ms: u64,
    /// Every lock manager asked for a lock, whatever it answered, and
    /// not yet known to have released the attempt's locks itself: what
    /// [`RemoteLockHooks::release_all`] releases at.
    asked: Mutex<BTreeSet<NodeId>>,
}

impl fmt::Debug for RemoteLockHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteLockHooks")
            .field("wait_ms", &self.wait_ms)
            .finish()
    }
}

impl RemoteLockHooks {
    /// Hooks for one compute server; `wait_ms` is the deadlock-breaking
    /// lock-wait timeout.
    pub fn new(ratp: Arc<RatpNode>, dsm: Arc<DsmClientPartition>, wait_ms: u64) -> RemoteLockHooks {
        RemoteLockHooks {
            ratp,
            dsm,
            wait_ms,
            asked: Mutex::new(BTreeSet::new()),
        }
    }

    fn acquire(&self, owner: u64, seg: SysName, mode: LockMode) -> Result<(), CloudsError> {
        let home = self
            .dsm
            .home_of(seg)
            .map_err(|e| CloudsError::ConsistencyAbort(format!("no home for lock: {e}")))?;
        let req = LockRequest::Acquire {
            seg,
            mode,
            owner,
            wait_ms: self.wait_ms,
        };
        let payload = bytes::Bytes::from(clouds_codec::to_bytes(&req).expect("encodes"));
        // Noted before the call: an acquire that times out may still
        // have been granted, or be queued.
        self.asked.lock().insert(home);
        let reply = self
            .ratp
            .call(home, ports::LOCKS, payload)
            .map_err(|e| CloudsError::ConsistencyAbort(format!("lock manager: {e}")))?;
        match clouds_codec::from_bytes::<LockReply>(&reply)
            .map_err(|e| CloudsError::ConsistencyAbort(format!("bad lock reply: {e}")))?
        {
            LockReply::Acquired(LockOutcome::Granted) => Ok(()),
            LockReply::Acquired(LockOutcome::Timeout) => Err(CloudsError::ConsistencyAbort(
                format!("lock wait timed out on segment {seg} (possible deadlock)"),
            )),
            other => Err(CloudsError::ConsistencyAbort(format!(
                "unexpected lock reply {other:?}"
            ))),
        }
    }

    /// Note that the lock managers `servers` released the attempt's
    /// locks themselves: each answered `Ok` to the phase 2 (`Commit` or
    /// `Abort`) or `ApplyLocal` that ended the attempt there.
    pub fn released_at(&self, servers: impl IntoIterator<Item = NodeId>) {
        let mut asked = self.asked.lock();
        for server in servers {
            asked.remove(&server);
        }
    }

    /// Release every lock held by `owner` at every lock manager these
    /// hooks asked and no phase 2 released at — a server only read-locked
    /// at, a participant whose phase 2 went unanswered, any server of an
    /// aborted attempt that sent none — side by side (one
    /// [`RatpNode::call_many`]); nothing is sent if there is none.
    pub fn release_all(&self, owner: u64) {
        let asked = std::mem::take(&mut *self.asked.lock());
        if asked.is_empty() {
            return;
        }
        let req = LockRequest::ReleaseAll { owner };
        let payload = bytes::Bytes::from(clouds_codec::to_bytes(&req).expect("encodes"));
        let calls = asked
            .into_iter()
            .map(|server| (server, ports::LOCKS, payload.clone()))
            .collect();
        let _ = self.ratp.call_many(calls);
    }
}

impl LockHooks for RemoteLockHooks {
    fn lock_read(&self, owner: u64, seg: SysName) -> Result<(), CloudsError> {
        self.acquire(owner, seg, LockMode::Shared)
    }

    fn lock_write(&self, owner: u64, seg: SysName) -> Result<(), CloudsError> {
        self.acquire(owner, seg, LockMode::Exclusive)
    }
}
