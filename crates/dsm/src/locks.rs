//! The segment-level lock manager hosted on data servers.
//!
//! "The DSM server allows maintaining (both exclusive and shared) locks
//! on segments and provides other synchronization support" (§4.2).
//! cp-threads (§5.2.1) acquire these locks automatically: "all segments
//! it reads are read-locked, and the segments it updates are
//! write-locked … Locking is performed at the segment-level and not at
//! the object level. Since segments are user defined, this allows user
//! control of the granularity of locking."
//!
//! Locks are re-entrant and support shared→exclusive upgrade when the
//! upgrader is the only reader. Blocking acquires wait server-side with
//! a deadline, which is the deadlock-resolution mechanism used by
//! `clouds-consistency` (timeout → abort → retry).
//!
//! The table is a [`LockTable`] inside [`DsmServer`], served on
//! [`ports::LOCKS`](crate::ports::LOCKS). A lock's owner is a cp-attempt's
//! txn id, so the message that ends the txn at a server releases its
//! locks there (strict 2PL): a `Commit`, `Abort` or `ApplyLocal`
//! answered `Ok`, or the resolve of its staged intent by a touch. A
//! `ReleaseAll` releases at a server no such message reached.
//!
//! A lock is what lets a cp-thread trust the pages its node has cached,
//! so a granted acquire resolves every intent the data server still
//! stages in the segment (a participant whose phase 2 went unanswered,
//! whose `ReleaseAll` freed the segment) before it answers: installing a
//! commit recalls the pre-images cached anywhere. One still in doubt
//! fails the acquire as a timeout, which the cp-thread aborts and
//! retries. An acquire that times out resolves the segment's intents
//! whose verdict is logged, and tries once more: their txns' locks may
//! be what it waited for, held by a coordinator that is gone.

use crate::proto;
use crate::server::DsmServer;
use clouds_ra::SysName;
use clouds_simnet::FastMap;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockMode {
    /// Many owners may hold the lock for reading.
    Shared,
    /// A single owner holds the lock for writing.
    Exclusive,
}

/// Outcome of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockOutcome {
    /// The lock is now held.
    Granted,
    /// The deadline passed while waiting (possible deadlock; caller
    /// should abort and retry).
    Timeout,
}

/// Requests accepted by the lock service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LockRequest {
    /// Acquire `seg` in `mode` for `owner`, waiting up to `wait_ms`.
    Acquire {
        /// Segment to lock.
        seg: SysName,
        /// Requested mode.
        mode: LockMode,
        /// Lock owner (Clouds thread id).
        owner: u64,
        /// Maximum real time to wait, in milliseconds.
        wait_ms: u64,
    },
    /// Release one hold of `seg` by `owner`.
    Release {
        /// Segment to unlock.
        seg: SysName,
        /// Lock owner.
        owner: u64,
    },
    /// Release every lock held by `owner` (commit/abort cleanup).
    ReleaseAll {
        /// Lock owner.
        owner: u64,
    },
}

/// Replies from the lock service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LockReply {
    /// Acquire result.
    Acquired(LockOutcome),
    /// Release succeeded; count of holds released.
    Released(u32),
    /// Release of a lock that was not held.
    NotHeld,
}

#[derive(Debug, Default)]
struct LockState {
    /// Reader → re-entrancy count.
    readers: FastMap<u64, u32>,
    /// Writer and its re-entrancy count.
    writer: Option<(u64, u32)>,
    /// Owner currently waiting to upgrade shared → exclusive. Two
    /// upgraders deadlock by construction, so the second is refused
    /// immediately instead of timing out (§5.2.1's abort-and-retry,
    /// minus the pointless wait).
    upgrading: Option<u64>,
}

impl LockState {
    fn can_grant(&self, mode: LockMode, owner: u64) -> bool {
        match mode {
            LockMode::Shared => match self.writer {
                Some((w, _)) => w == owner,
                None => true,
            },
            LockMode::Exclusive => {
                let writer_ok = match self.writer {
                    Some((w, _)) => w == owner,
                    None => true,
                };
                #[expect(clippy::disallowed_methods, reason = "order-free ∀ predicate")]
                let readers_ok = self.readers.keys().all(|&r| r == owner);
                writer_ok && readers_ok
            }
        }
    }

    fn grant(&mut self, mode: LockMode, owner: u64) {
        match mode {
            LockMode::Shared => *self.readers.entry(owner).or_insert(0) += 1,
            LockMode::Exclusive => match &mut self.writer {
                Some((_, n)) => *n += 1,
                None => self.writer = Some((owner, 1)),
            },
        }
    }

    fn is_free(&self) -> bool {
        self.readers.is_empty() && self.writer.is_none() && self.upgrading.is_none()
    }
}

/// A segment lock table: who holds which segment, in which mode. The
/// one a data server serves is [`DsmServer::locks`]; an acquire through
/// the table resolves no staged intent, one through the wire does.
#[derive(Default)]
pub struct LockTable {
    inner: Mutex<FastMap<SysName, LockState>>,
    cvar: Condvar,
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("locked_segments", &self.inner.lock().len())
            .finish()
    }
}

impl LockTable {
    /// Acquire `seg` in `mode` for `owner`, waiting up to `wait`.
    ///
    /// Re-entrant: an owner may acquire the same lock repeatedly (each
    /// needs a matching release). An owner holding the only shared lock
    /// may upgrade to exclusive.
    pub fn acquire(&self, seg: SysName, mode: LockMode, owner: u64, wait: Duration) -> LockOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock lock wait, until it runs on virtual time"
        )]
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock();
        // An upgrade (exclusive wanted while holding shared) can only be
        // granted once every other reader drains; two concurrent
        // upgraders on one segment therefore deadlock. Refuse the second
        // immediately — it must abort, release its read lock and retry.
        let is_upgrade = mode == LockMode::Exclusive
            && inner
                .get(&seg)
                .is_some_and(|s| s.readers.contains_key(&owner));
        if is_upgrade {
            let state = inner.entry(seg).or_default();
            match state.upgrading {
                Some(other) if other != owner => return LockOutcome::Timeout,
                _ => state.upgrading = Some(owner),
            }
        }
        let outcome = loop {
            let state = inner.entry(seg).or_default();
            if state.can_grant(mode, owner) {
                state.grant(mode, owner);
                break LockOutcome::Granted;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock lock wait, until it runs on virtual time"
            )]
            let now = Instant::now();
            if now >= deadline {
                break LockOutcome::Timeout;
            }
            if self.cvar.wait_until(&mut inner, deadline).timed_out() {
                // One more grant check after the deadline race.
                let state = inner.entry(seg).or_default();
                if state.can_grant(mode, owner) {
                    state.grant(mode, owner);
                    break LockOutcome::Granted;
                }
                break LockOutcome::Timeout;
            }
        };
        if is_upgrade {
            if let Some(state) = inner.get_mut(&seg) {
                if state.upgrading == Some(owner) {
                    state.upgrading = None;
                }
            }
            self.cvar.notify_all();
        }
        outcome
    }

    /// Release one hold of `seg` by `owner` (writer holds release before
    /// reader holds). Returns remaining hold count, or `None` if the
    /// owner held nothing.
    pub fn release(&self, seg: SysName, owner: u64) -> Option<u32> {
        let mut inner = self.inner.lock();
        let state = inner.get_mut(&seg)?;
        let remaining = if let Some((w, n)) = &mut state.writer {
            if *w == owner {
                *n -= 1;
                let rem = *n;
                if rem == 0 {
                    state.writer = None;
                }
                Some(rem)
            } else {
                None
            }
        } else {
            None
        };
        let remaining = remaining.or_else(|| {
            let n = state.readers.get_mut(&owner)?;
            *n -= 1;
            let rem = *n;
            if rem == 0 {
                state.readers.remove(&owner);
            }
            Some(rem)
        });
        if state.is_free() {
            inner.remove(&seg);
        }
        if remaining.is_some() {
            self.cvar.notify_all();
        }
        remaining
    }

    /// Release every hold by `owner`; returns the number of segments
    /// affected.
    pub fn release_all(&self, owner: u64) -> u32 {
        let mut inner = self.inner.lock();
        let mut affected = 0;
        #[expect(
            clippy::disallowed_methods,
            reason = "retain mutates entries independently; visit order cannot be observed"
        )]
        inner.retain(|_, state| {
            let mut touched = false;
            if matches!(state.writer, Some((w, _)) if w == owner) {
                state.writer = None;
                touched = true;
            }
            if state.readers.remove(&owner).is_some() {
                touched = true;
            }
            if touched {
                affected += 1;
            }
            !state.is_free()
        });
        if affected > 0 {
            self.cvar.notify_all();
        }
        affected
    }
}

impl DsmServer {
    /// This server's lock table. An acquire through it resolves no
    /// staged intent: only one through
    /// [`ports::LOCKS`](crate::ports::LOCKS) does.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Decode one [`ports::LOCKS`](crate::ports::LOCKS) request, serve
    /// it, and encode the reply — the body of the registered service,
    /// exposed so a test can wrap it.
    pub fn serve_lock_wire(&self, payload: &bytes::Bytes) -> bytes::Bytes {
        let reply = match proto::decode::<LockRequest>(payload) {
            Ok(LockRequest::Acquire {
                seg,
                mode,
                owner,
                wait_ms,
            }) => LockReply::Acquired(self.acquire_lock(
                seg,
                mode,
                owner,
                Duration::from_millis(wait_ms),
            )),
            Ok(LockRequest::Release { seg, owner }) => match self.locks.release(seg, owner) {
                Some(n) => LockReply::Released(n),
                None => LockReply::NotHeld,
            },
            Ok(LockRequest::ReleaseAll { owner }) => {
                LockReply::Released(self.locks.release_all(owner))
            }
            Err(_) => LockReply::NotHeld,
        };
        proto::encode(&reply)
    }

    /// [`LockTable::acquire`], then, once granted, no other txn can be
    /// writing `seg`, so an intent still staged there missed its phase
    /// 2: it is resolved before the grant is answered, and one still in
    /// doubt gives the hold back as a `Timeout`.
    ///
    /// A wait that times out may be behind a prepared txn whose
    /// coordinator is gone: each intent staged in `seg` whose verdict the
    /// registry already logged is resolved, which releases its txn's
    /// locks here, and the acquire is tried once more. No abort is
    /// proposed: the holder may be live.
    fn acquire_lock(
        &self,
        seg: SysName,
        mode: LockMode,
        owner: u64,
        wait: Duration,
    ) -> LockOutcome {
        let mut outcome = self.locks.acquire(seg, mode, owner, wait);
        if outcome == LockOutcome::Timeout {
            let staged = self.log().in_doubt(seg);
            let resolved = staged
                .into_iter()
                .filter(|&txn| self.resolve(txn, false).is_some());
            if resolved.count() > 0 {
                outcome = self.locks.acquire(seg, mode, owner, Duration::ZERO);
            }
        }
        if outcome == LockOutcome::Granted {
            let staged = self.log().in_doubt(seg);
            if !staged
                .into_iter()
                .all(|txn| self.resolve(txn, true).is_some())
            {
                self.locks.release(seg, owner);
                return LockOutcome::Timeout;
            }
        }
        outcome
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "lets the waiter block before the release"
)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T: Duration = Duration::from_millis(40);

    fn seg(n: u64) -> SysName {
        SysName::from_parts(1, n)
    }

    #[test]
    fn shared_locks_coexist() {
        let l = LockTable::default();
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 1, T),
            LockOutcome::Granted
        );
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 2, T),
            LockOutcome::Granted
        );
    }

    #[test]
    fn exclusive_excludes_others() {
        let l = LockTable::default();
        assert_eq!(
            l.acquire(seg(1), LockMode::Exclusive, 1, T),
            LockOutcome::Granted
        );
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 2, T),
            LockOutcome::Timeout
        );
        assert_eq!(
            l.acquire(seg(1), LockMode::Exclusive, 2, T),
            LockOutcome::Timeout
        );
        // Different segment is independent.
        assert_eq!(
            l.acquire(seg(2), LockMode::Exclusive, 2, T),
            LockOutcome::Granted
        );
    }

    #[test]
    fn reentrancy_and_release_counts() {
        let l = LockTable::default();
        l.acquire(seg(1), LockMode::Exclusive, 1, T);
        l.acquire(seg(1), LockMode::Exclusive, 1, T);
        assert_eq!(l.release(seg(1), 1), Some(1));
        // Still held: others blocked.
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 2, T),
            LockOutcome::Timeout
        );
        assert_eq!(l.release(seg(1), 1), Some(0));
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 2, T),
            LockOutcome::Granted
        );
    }

    #[test]
    fn sole_reader_can_upgrade() {
        let l = LockTable::default();
        l.acquire(seg(1), LockMode::Shared, 1, T);
        assert_eq!(
            l.acquire(seg(1), LockMode::Exclusive, 1, T),
            LockOutcome::Granted
        );
        // With a second reader, upgrade fails.
        let l2 = LockTable::default();
        l2.acquire(seg(1), LockMode::Shared, 1, T);
        l2.acquire(seg(1), LockMode::Shared, 2, T);
        assert_eq!(
            l2.acquire(seg(1), LockMode::Exclusive, 1, T),
            LockOutcome::Timeout
        );
    }

    #[test]
    fn writer_may_also_read() {
        let l = LockTable::default();
        l.acquire(seg(1), LockMode::Exclusive, 1, T);
        assert_eq!(
            l.acquire(seg(1), LockMode::Shared, 1, T),
            LockOutcome::Granted
        );
    }

    #[test]
    fn release_not_held_is_none() {
        let l = LockTable::default();
        assert_eq!(l.release(seg(1), 1), None);
        l.acquire(seg(1), LockMode::Shared, 1, T);
        assert_eq!(l.release(seg(1), 2), None);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let l = Arc::new(LockTable::default());
        l.acquire(seg(1), LockMode::Exclusive, 1, Duration::ZERO);
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            l2.acquire(seg(1), LockMode::Exclusive, 2, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        l.release(seg(1), 1);
        assert_eq!(waiter.join().unwrap(), LockOutcome::Granted);
    }

    #[test]
    fn release_all_frees_everything() {
        let l = LockTable::default();
        l.acquire(seg(1), LockMode::Exclusive, 1, T);
        l.acquire(seg(2), LockMode::Shared, 1, T);
        l.acquire(seg(3), LockMode::Shared, 2, T);
        assert_eq!(l.release_all(1), 2);
        assert_eq!(
            l.acquire(seg(1), LockMode::Exclusive, 2, T),
            LockOutcome::Granted
        );
        assert_eq!(
            l.acquire(seg(2), LockMode::Exclusive, 2, T),
            LockOutcome::Granted
        );
        assert_eq!(l.release_all(99), 0);
    }

    #[test]
    fn deadlock_times_out() {
        // Two owners each hold one lock and want the other: the paper's
        // timeout-based deadlock resolution must fire.
        let l = Arc::new(LockTable::default());
        l.acquire(seg(1), LockMode::Exclusive, 1, T);
        l.acquire(seg(2), LockMode::Exclusive, 2, T);
        let l1 = Arc::clone(&l);
        let t1 = std::thread::spawn(move || l1.acquire(seg(2), LockMode::Exclusive, 1, T));
        let l2 = Arc::clone(&l);
        let t2 = std::thread::spawn(move || l2.acquire(seg(1), LockMode::Exclusive, 2, T));
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        assert!(r1 == LockOutcome::Timeout || r2 == LockOutcome::Timeout);
    }
}
