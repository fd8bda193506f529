//! Distributed semaphores, the user-visible synchronization primitive.
//!
//! §2.2: "Concurrency control within the object is handled by the
//! programmer of objects using system supported synchronization
//! primitives such as locks or semaphores." Because threads executing in
//! the same object may be on *different compute servers* (§3.2), these
//! primitives must be network-wide; the paper places that support on the
//! data servers. This service implements counting semaphores addressed
//! by sysname.

use crate::proto::{self, ports};
use clouds_ra::SysName;
use clouds_ratp::{RatpNode, Request};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests accepted by the semaphore service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SemRequest {
    /// Create a semaphore with an initial count.
    Create {
        /// Semaphore name.
        id: SysName,
        /// Initial count.
        count: u32,
    },
    /// P / wait / down: decrement, blocking up to `wait_ms` if zero.
    P {
        /// Semaphore name.
        id: SysName,
        /// Maximum real time to wait, in milliseconds.
        wait_ms: u64,
    },
    /// V / signal / up: increment and wake a waiter.
    V {
        /// Semaphore name.
        id: SysName,
    },
    /// Remove a semaphore.
    Destroy {
        /// Semaphore name.
        id: SysName,
    },
}

/// Replies from the semaphore service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SemReply {
    /// Operation succeeded.
    Ok,
    /// P timed out without acquiring.
    Timeout,
    /// Unknown semaphore.
    NotFound,
    /// Create of an existing semaphore.
    Exists,
}

/// The semaphore service. Created with [`SemaphoreService::install`],
/// registering on [`ports::SEMAPHORES`].
#[derive(Default)]
pub struct SemaphoreService {
    counts: Mutex<HashMap<SysName, u32>>,
    cvar: Condvar,
    /// Keeps the node's transport (and the endpoint bound to it) alive.
    _ratp: Option<Arc<RatpNode>>,
}

impl fmt::Debug for SemaphoreService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemaphoreService")
            .field("semaphores", &self.counts.lock().len())
            .finish()
    }
}

impl SemaphoreService {
    /// Create the service and register it on this node.
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<SemaphoreService> {
        let service = Arc::new(SemaphoreService {
            _ratp: Some(Arc::clone(ratp)),
            ..Default::default()
        });
        let handler = Arc::clone(&service);
        ratp.register_service(ports::SEMAPHORES, move |req: Request| {
            let reply = match proto::decode::<SemRequest>(&req.payload) {
                Ok(SemRequest::Create { id, count }) => handler.create(id, count),
                Ok(SemRequest::P { id, wait_ms }) => {
                    handler.p(id, Duration::from_millis(wait_ms))
                }
                Ok(SemRequest::V { id }) => handler.v(id),
                Ok(SemRequest::Destroy { id }) => handler.destroy(id),
                Err(_) => SemReply::NotFound,
            };
            proto::encode(&reply)
        });
        service
    }

    /// Create a semaphore.
    pub fn create(&self, id: SysName, count: u32) -> SemReply {
        use std::collections::hash_map::Entry;
        match self.counts.lock().entry(id) {
            Entry::Occupied(_) => SemReply::Exists,
            Entry::Vacant(v) => {
                v.insert(count);
                SemReply::Ok
            }
        }
    }

    /// P operation with a deadline.
    pub fn p(&self, id: SysName, wait: Duration) -> SemReply {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock semaphore wait, until it runs on virtual time"
        )]
        let deadline = Instant::now() + wait;
        let mut counts = self.counts.lock();
        loop {
            match counts.get_mut(&id) {
                None => return SemReply::NotFound,
                Some(0) => {
                    if self.cvar.wait_until(&mut counts, deadline).timed_out() {
                        return match counts.get_mut(&id) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                SemReply::Ok
                            }
                            Some(_) => SemReply::Timeout,
                            None => SemReply::NotFound,
                        };
                    }
                }
                Some(n) => {
                    *n -= 1;
                    return SemReply::Ok;
                }
            }
        }
    }

    /// V operation.
    pub fn v(&self, id: SysName) -> SemReply {
        let mut counts = self.counts.lock();
        match counts.get_mut(&id) {
            None => SemReply::NotFound,
            Some(n) => {
                *n += 1;
                self.cvar.notify_all();
                SemReply::Ok
            }
        }
    }

    /// Destroy a semaphore; blocked P operations will time out.
    pub fn destroy(&self, id: SysName) -> SemReply {
        match self.counts.lock().remove(&id) {
            Some(_) => {
                self.cvar.notify_all();
                SemReply::Ok
            }
            None => SemReply::NotFound,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "lets the waiter block before the V"
)]
mod tests {
    use super::*;

    fn id(n: u64) -> SysName {
        SysName::from_parts(2, n)
    }

    const T: Duration = Duration::from_millis(40);

    #[test]
    fn create_p_v_cycle() {
        let s = SemaphoreService::default();
        assert_eq!(s.create(id(1), 1), SemReply::Ok);
        assert_eq!(s.create(id(1), 1), SemReply::Exists);
        assert_eq!(s.p(id(1), T), SemReply::Ok);
        assert_eq!(s.p(id(1), T), SemReply::Timeout);
        assert_eq!(s.v(id(1)), SemReply::Ok);
        assert_eq!(s.p(id(1), T), SemReply::Ok);
    }

    #[test]
    fn unknown_semaphore() {
        let s = SemaphoreService::default();
        assert_eq!(s.p(id(9), T), SemReply::NotFound);
        assert_eq!(s.v(id(9)), SemReply::NotFound);
        assert_eq!(s.destroy(id(9)), SemReply::NotFound);
    }

    #[test]
    fn v_wakes_blocked_p() {
        let s = Arc::new(SemaphoreService::default());
        s.create(id(1), 0);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.p(id(1), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        s.v(id(1));
        assert_eq!(waiter.join().unwrap(), SemReply::Ok);
    }

    #[test]
    fn counting_behaviour() {
        let s = SemaphoreService::default();
        s.create(id(1), 3);
        assert_eq!(s.p(id(1), T), SemReply::Ok);
        assert_eq!(s.p(id(1), T), SemReply::Ok);
        assert_eq!(s.p(id(1), T), SemReply::Ok);
        assert_eq!(s.p(id(1), T), SemReply::Timeout);
    }

    #[test]
    fn mutual_exclusion_across_threads() {
        let s = Arc::new(SemaphoreService::default());
        s.create(id(1), 1);
        let in_section = Arc::new(Mutex::new(0u32));
        let max_seen = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let s = Arc::clone(&s);
            let sec = Arc::clone(&in_section);
            let max = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    assert_eq!(s.p(id(1), Duration::from_secs(10)), SemReply::Ok);
                    {
                        let mut n = sec.lock();
                        *n += 1;
                        let mut m = max.lock();
                        *m = (*m).max(*n);
                    }
                    *sec.lock() -= 1;
                    s.v(id(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*max_seen.lock(), 1);
    }
}
