//! The mechanism half of consistency-preserving threads (§5.2.1).
//!
//! Clouds separates policy from mechanism: the *mechanism* — tracking
//! read/write sets, buffering cp-thread updates in shadow pages, and
//! invoking lock callbacks on first touch — lives here in the OS core.
//! The *policy* — talking to lock managers, running two-phase commit,
//! deciding LCP vs GCP semantics — lives in `clouds-consistency`, which
//! implements [`LockHooks`] and consumes the [`CpSession`]'s shadow
//! pages at commit time.
//!
//! s-threads have no session and write straight through the DSM;
//! cp-threads route every persistent-memory access through a session:
//!
//! * first read of a segment ⇒ [`LockHooks::lock_read`]
//! * first write of a segment ⇒ [`LockHooks::lock_write`]
//! * writes land in private **shadow pages**, invisible to every other
//!   thread until commit ("the updated segments are written using a
//!   2-phase commit mechanism when the cp-thread completes")
//! * reads see the thread's own shadows first (read-your-writes)

use crate::error::CloudsError;
use clouds_ra::SysName;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Lock acquisition callbacks invoked on a cp-thread's first touch of a
/// segment. Implemented by `clouds-consistency` against the data-server
/// lock managers.
pub trait LockHooks: Send + Sync {
    /// Acquire a read (shared) lock on `seg` for lock-owner `owner`.
    ///
    /// # Errors
    ///
    /// [`CloudsError::ConsistencyAbort`] when the lock cannot be
    /// granted (deadlock timeout): the cp-thread must abort.
    fn lock_read(&self, owner: u64, seg: SysName) -> Result<(), CloudsError>;

    /// Acquire a write (exclusive) lock on `seg` for lock-owner `owner`.
    ///
    /// # Errors
    ///
    /// As for [`LockHooks::lock_read`].
    fn lock_write(&self, owner: u64, seg: SysName) -> Result<(), CloudsError>;
}

/// A shadow page: a private copy-on-write image of one canonical page.
pub type ShadowPage = Vec<u8>;

/// Consistency session attached to a cp-thread for the duration of one
/// consistency-preserving computation.
pub struct CpSession {
    owner: u64,
    hooks: Arc<dyn LockHooks>,
    shadows: Mutex<BTreeMap<(SysName, u32), ShadowPage>>,
    read_locked: Mutex<BTreeSet<SysName>>,
    write_locked: Mutex<BTreeSet<SysName>>,
}

impl fmt::Debug for CpSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpSession")
            .field("owner", &self.owner)
            .field("shadow_pages", &self.shadows.try_lock().map(|s| s.len()))
            .finish()
    }
}

impl CpSession {
    /// Open a session for lock-owner `owner` (the Clouds thread id).
    pub fn new(owner: u64, hooks: Arc<dyn LockHooks>) -> Arc<CpSession> {
        Arc::new(CpSession {
            owner,
            hooks,
            shadows: Mutex::new(BTreeMap::new()),
            read_locked: Mutex::new(BTreeSet::new()),
            write_locked: Mutex::new(BTreeSet::new()),
        })
    }

    /// The lock owner id.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Ensure a read lock on `seg` (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates [`LockHooks::lock_read`] failures.
    pub fn ensure_read(&self, seg: SysName) -> Result<(), CloudsError> {
        if self.read_locked.lock().contains(&seg) || self.write_locked.lock().contains(&seg) {
            return Ok(());
        }
        self.hooks.lock_read(self.owner, seg)?;
        self.read_locked.lock().insert(seg);
        Ok(())
    }

    /// Ensure a write lock on `seg` (idempotent; upgrades reads).
    ///
    /// # Errors
    ///
    /// Propagates [`LockHooks::lock_write`] failures.
    pub fn ensure_write(&self, seg: SysName) -> Result<(), CloudsError> {
        if self.write_locked.lock().contains(&seg) {
            return Ok(());
        }
        self.hooks.lock_write(self.owner, seg)?;
        self.write_locked.lock().insert(seg);
        Ok(())
    }

    /// The thread's private image of `page`, if it has written it.
    pub fn shadow(&self, seg: SysName, page: u32) -> Option<ShadowPage> {
        self.shadows.lock().get(&(seg, page)).cloned()
    }

    /// Run `f` on the (possibly created) shadow of `page`; `init`
    /// supplies the canonical image on first touch. `init` reads the
    /// page through the DSM, so it runs with `shadows` released.
    ///
    /// # Errors
    ///
    /// Propagates `init` failures.
    pub fn with_shadow<R>(
        &self,
        seg: SysName,
        page: u32,
        init: impl FnOnce() -> Result<ShadowPage, CloudsError>,
        f: impl FnOnce(&mut ShadowPage) -> R,
    ) -> Result<R, CloudsError> {
        let fresh = if self.shadows.lock().contains_key(&(seg, page)) {
            None
        } else {
            Some(init()?)
        };
        let mut shadows = self.shadows.lock();
        let shadow = shadows.entry((seg, page)).or_insert_with(|| {
            fresh.expect("a shadow leaves the session only at commit or abort, after its writes")
        });
        Ok(f(shadow))
    }

    /// Segments read-locked so far.
    pub fn read_set(&self) -> Vec<SysName> {
        self.read_locked.lock().iter().copied().collect()
    }

    /// Segments write-locked so far.
    pub fn write_set(&self) -> Vec<SysName> {
        self.write_locked.lock().iter().copied().collect()
    }

    /// Drain all shadow pages for commit processing.
    pub fn take_shadows(&self) -> Vec<((SysName, u32), ShadowPage)> {
        std::mem::take(&mut *self.shadows.lock())
            .into_iter()
            .collect()
    }

    /// Discard all shadow pages (abort).
    pub fn discard_shadows(&self) {
        self.shadows.lock().clear();
    }

    /// Number of dirty shadow pages.
    pub fn shadow_count(&self) -> usize {
        self.shadows.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[derive(Default)]
    struct CountingHooks {
        reads: AtomicU32,
        writes: AtomicU32,
        fail_writes: bool,
    }

    impl LockHooks for CountingHooks {
        fn lock_read(&self, _owner: u64, _seg: SysName) -> Result<(), CloudsError> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn lock_write(&self, _owner: u64, _seg: SysName) -> Result<(), CloudsError> {
            if self.fail_writes {
                return Err(CloudsError::ConsistencyAbort("write lock denied".into()));
            }
            self.writes.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn seg(n: u64) -> SysName {
        SysName::from_parts(1, n)
    }

    #[test]
    fn locks_acquired_once_per_segment() {
        let hooks = Arc::new(CountingHooks::default());
        let s = CpSession::new(7, Arc::clone(&hooks) as Arc<dyn LockHooks>);
        s.ensure_read(seg(1)).unwrap();
        s.ensure_read(seg(1)).unwrap();
        s.ensure_read(seg(2)).unwrap();
        assert_eq!(hooks.reads.load(Ordering::SeqCst), 2);
        s.ensure_write(seg(1)).unwrap();
        s.ensure_write(seg(1)).unwrap();
        assert_eq!(hooks.writes.load(Ordering::SeqCst), 1);
        // A write-locked segment needs no separate read lock.
        let s2 = CpSession::new(8, Arc::clone(&hooks) as Arc<dyn LockHooks>);
        s2.ensure_write(seg(5)).unwrap();
        let reads_before = hooks.reads.load(Ordering::SeqCst);
        s2.ensure_read(seg(5)).unwrap();
        assert_eq!(hooks.reads.load(Ordering::SeqCst), reads_before);
    }

    #[test]
    fn failed_lock_propagates() {
        let hooks = Arc::new(CountingHooks {
            fail_writes: true,
            ..CountingHooks::default()
        });
        let s = CpSession::new(7, hooks as Arc<dyn LockHooks>);
        assert!(matches!(
            s.ensure_write(seg(1)),
            Err(CloudsError::ConsistencyAbort(_))
        ));
        assert!(s.write_set().is_empty());
    }

    #[test]
    fn shadow_pages_are_private_and_drainable() {
        let hooks = Arc::new(CountingHooks::default());
        let s = CpSession::new(7, hooks as Arc<dyn LockHooks>);
        assert!(s.shadow(seg(1), 0).is_none());
        s.with_shadow(seg(1), 0, || Ok(vec![0u8; 8]), |p| p[0] = 42)
            .unwrap();
        assert_eq!(s.shadow(seg(1), 0).unwrap()[0], 42);
        // Init only runs on first touch.
        s.with_shadow(
            seg(1),
            0,
            || panic!("must not reinitialize"),
            |p| assert_eq!(p[0], 42),
        )
        .unwrap();
        assert_eq!(s.shadow_count(), 1);
        let drained = s.take_shadows();
        assert_eq!(drained.len(), 1);
        assert_eq!(s.shadow_count(), 0);
    }

    #[test]
    fn discard_clears_shadows() {
        let hooks = Arc::new(CountingHooks::default());
        let s = CpSession::new(7, hooks as Arc<dyn LockHooks>);
        s.with_shadow(seg(1), 0, || Ok(vec![1]), |_| ()).unwrap();
        s.discard_shadows();
        assert_eq!(s.shadow_count(), 0);
        assert!(s.shadow(seg(1), 0).is_none());
    }
}
