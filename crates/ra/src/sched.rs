//! IsiBas and the low-level scheduler (§4.1).
//!
//! > "An IsiBa (from Ancient Egyptian: *Isi* = light, *Ba* = soul) is the
//! > abstraction of activity in the system, and can be thought of as a
//! > light-weight process. It is simply a kernel resource that should be
//! > associated with a stack to realize a schedulable entity."
//!
//! In this reproduction each IsiBa is backed by an OS thread, but the
//! *kernel semantics* are preserved: a node has a fixed number of virtual
//! CPUs (one, for a faithful Sun-3/60), IsiBas are dispatched from a FIFO
//! ready queue, scheduling is cooperative, and every context switch
//! charges the calibrated 0.14 ms to the node's virtual clock. Blocking
//! operations (page faults serviced over the network, remote invocations)
//! release the virtual CPU through [`IsiBaCtx::blocking`], just as the
//! real kernel switched to another process during a fault.

use clouds_obs::{Counter, NodeObs};
use clouds_simnet::{VirtualClock, Vt};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of an IsiBa, unique within one node's scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsiBaId(pub u64);

impl fmt::Display for IsiBaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "isiba{}", self.0)
    }
}

/// The kind of stack an IsiBa runs on. Ra distinguishes kernel,
/// interrupt and user stacks; the reproduction keeps the classification
/// for bookkeeping and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StackKind {
    /// Kernel-internal activity (watchdogs, event notification).
    Kernel,
    /// Interrupt service activity.
    Interrupt,
    /// User computation: the building block of Clouds processes.
    #[default]
    User,
}

#[derive(Debug, Default)]
struct SchedInner {
    running: HashSet<IsiBaId>,
    ready: VecDeque<IsiBaId>,
    blocked: HashSet<IsiBaId>,
    live: HashSet<IsiBaId>,
    switches: u64,
}

/// Per-node cooperative scheduler multiplexing IsiBas over `cpus`
/// virtual processors.
///
/// # Examples
///
/// ```
/// use clouds_ra::sched::{Scheduler, StackKind};
/// use clouds_simnet::{VirtualClock, Vt};
/// use std::sync::Arc;
///
/// let clock = Arc::new(VirtualClock::new());
/// let sched = Scheduler::new(1, Arc::clone(&clock), Vt::from_micros(140));
/// let h = sched.spawn(StackKind::User, |ctx| {
///     ctx.yield_now();
/// });
/// h.join();
/// assert_eq!(clock.now(), Vt::from_micros(140)); // one context switch
/// ```
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cvar: Condvar,
    clock: Arc<VirtualClock>,
    switch_cost: Vt,
    cpus: usize,
    next_id: AtomicU64,
    obs: OnceLock<SchedObs>,
}

/// Observability wiring, installed once by cluster assembly
/// ([`Scheduler::set_obs`]); absent for standalone schedulers.
struct SchedObs {
    obs: Arc<NodeObs>,
    switches: Arc<Counter>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Scheduler")
            .field("cpus", &self.cpus)
            .field("running", &inner.running.len())
            .field("ready", &inner.ready.len())
            .field("blocked", &inner.blocked.len())
            .finish()
    }
}

impl Scheduler {
    /// Create a scheduler with `cpus` virtual processors.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize, clock: Arc<VirtualClock>, switch_cost: Vt) -> Arc<Scheduler> {
        assert!(cpus > 0, "a node needs at least one virtual CPU");
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner::default()),
            cvar: Condvar::new(),
            clock,
            switch_cost,
            cpus,
            next_id: AtomicU64::new(1),
            obs: OnceLock::new(),
        })
    }

    /// Route dispatch/block/wake events and the switch counter through
    /// `obs` (idempotent; the first handle wins). Installed by the
    /// compute-server boot path so scheduler events land on the same
    /// timeline as the node's transport and paging events.
    pub fn set_obs(&self, obs: Arc<NodeObs>) {
        let switches = obs.counter("sched.switches");
        let _ = self.obs.set(SchedObs { obs, switches });
    }

    /// Record a scheduling instant when observability is installed.
    fn trace(&self, name: &'static str, id: IsiBaId) {
        if let Some(o) = self.obs.get() {
            o.obs.instant("sched", name, format!("isiba={}", id.0));
        }
    }

    fn count_switch(&self) {
        if let Some(o) = self.obs.get() {
            o.switches.inc();
        }
    }

    /// Create an IsiBa executing `f` once it is dispatched.
    ///
    /// The new IsiBa enters the ready queue; it runs when a virtual CPU
    /// is free. The spawner keeps its CPU.
    pub fn spawn<F>(self: &Arc<Self>, kind: StackKind, f: F) -> IsiBaHandle
    where
        F: FnOnce(&IsiBaCtx) + Send + 'static,
    {
        let id = IsiBaId(self.next_id.fetch_add(1, Ordering::Relaxed));
        {
            let mut inner = self.inner.lock();
            inner.live.insert(id);
            inner.ready.push_back(id);
            self.dispatch(&mut inner);
        }
        let sched = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name(format!("{id}-{kind:?}"))
            .spawn(move || {
                sched.wait_for_cpu(id);
                let ctx = IsiBaCtx {
                    id,
                    kind,
                    sched: Arc::clone(&sched),
                };
                f(&ctx);
                sched.exit(id);
            })
            .expect("spawn isiba thread");
        IsiBaHandle { id, thread }
    }

    /// Total context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.inner.lock().switches
    }

    /// Number of IsiBas that exist (running, ready or blocked).
    pub fn live_count(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// Grant CPUs to ready IsiBas while capacity remains.
    fn dispatch(&self, inner: &mut SchedInner) {
        let mut granted = false;
        while inner.running.len() < self.cpus {
            let Some(next) = inner.ready.pop_front() else { break };
            inner.running.insert(next);
            self.trace("dispatch", next);
            granted = true;
        }
        if granted {
            self.cvar.notify_all();
        }
    }

    fn wait_for_cpu(&self, id: IsiBaId) {
        let mut inner = self.inner.lock();
        while !inner.running.contains(&id) {
            self.cvar.wait(&mut inner);
        }
    }

    fn yield_now(&self, id: IsiBaId) {
        {
            let mut inner = self.inner.lock();
            inner.running.remove(&id);
            inner.ready.push_back(id);
            inner.switches += 1;
            self.count_switch();
            self.dispatch(&mut inner);
            while !inner.running.contains(&id) {
                self.cvar.wait(&mut inner);
            }
        }
        self.clock.charge(self.switch_cost);
    }

    /// Move the current IsiBa to the blocked set and schedule others.
    /// Returns when [`Scheduler::wake`] re-readies it and a CPU is free.
    fn block(&self, id: IsiBaId) {
        {
            let mut inner = self.inner.lock();
            inner.running.remove(&id);
            inner.blocked.insert(id);
            inner.switches += 1;
            self.count_switch();
            self.trace("block", id);
            self.dispatch(&mut inner);
            while !inner.running.contains(&id) {
                self.cvar.wait(&mut inner);
            }
        }
        self.clock.charge(self.switch_cost);
    }

    /// Make a blocked IsiBa runnable again. No-op if it is not blocked.
    pub fn wake(&self, id: IsiBaId) {
        let mut inner = self.inner.lock();
        if inner.blocked.remove(&id) {
            self.trace("wake", id);
            inner.ready.push_back(id);
            self.dispatch(&mut inner);
        }
    }

    /// Release the CPU without queueing (external blocking operation).
    fn leave(&self, id: IsiBaId) {
        let mut inner = self.inner.lock();
        inner.running.remove(&id);
        inner.switches += 1;
        self.count_switch();
        self.dispatch(&mut inner);
    }

    /// Re-acquire a CPU after an external blocking operation.
    fn reenter(&self, id: IsiBaId) {
        {
            let mut inner = self.inner.lock();
            inner.ready.push_back(id);
            self.dispatch(&mut inner);
            while !inner.running.contains(&id) {
                self.cvar.wait(&mut inner);
            }
        }
        self.clock.charge(self.switch_cost);
    }

    fn exit(&self, id: IsiBaId) {
        let mut inner = self.inner.lock();
        inner.running.remove(&id);
        inner.live.remove(&id);
        self.dispatch(&mut inner);
    }
}

/// Handle to a spawned IsiBa.
#[derive(Debug)]
pub struct IsiBaHandle {
    id: IsiBaId,
    thread: std::thread::JoinHandle<()>,
}

impl IsiBaHandle {
    /// The IsiBa's id.
    pub fn id(&self) -> IsiBaId {
        self.id
    }

    /// Wait for the IsiBa to finish.
    ///
    /// # Panics
    ///
    /// Panics if the IsiBa panicked.
    pub fn join(self) {
        self.thread.join().expect("isiba panicked");
    }
}

/// Execution context handed to an IsiBa body.
#[derive(Clone)]
pub struct IsiBaCtx {
    id: IsiBaId,
    kind: StackKind,
    sched: Arc<Scheduler>,
}

impl fmt::Debug for IsiBaCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IsiBaCtx")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .finish()
    }
}

impl IsiBaCtx {
    /// This IsiBa's id.
    pub fn id(&self) -> IsiBaId {
        self.id
    }

    /// The owning scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Voluntarily give up the CPU to the next ready IsiBa.
    pub fn yield_now(&self) {
        self.sched.yield_now(self.id);
    }

    /// Block until another party calls [`Scheduler::wake`] with this id.
    /// Used to build semaphores and condition-style synchronization.
    pub fn block(&self) {
        self.sched.block(self.id);
    }

    /// Run a blocking operation (network wait, page fault service)
    /// without holding a virtual CPU, mirroring the kernel switching to
    /// another process during the wait.
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        self.sched.leave(self.id);
        let result = f();
        self.sched.reenter(self.id);
        result
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "IsiBas hold and give up host CPUs for real time"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn sched(cpus: usize) -> (Arc<Scheduler>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (
            Scheduler::new(cpus, Arc::clone(&clock), Vt::from_micros(140)),
            clock,
        )
    }

    #[test]
    fn single_isiba_runs_to_completion() {
        let (s, _) = sched(1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        s.spawn(StackKind::User, move |_| {
            d.store(1, Ordering::SeqCst);
        })
        .join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn ping_pong_alternates_on_one_cpu() {
        let (s, clock) = sched(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mk = |tag: u8, log: Arc<Mutex<Vec<u8>>>, go: Arc<std::sync::atomic::AtomicBool>| {
            move |ctx: &IsiBaCtx| {
                // Wait (cooperatively) until both IsiBas are spawned, so
                // the first does not finish before the second starts.
                while !go.load(Ordering::Acquire) {
                    ctx.yield_now();
                }
                for _ in 0..5 {
                    log.lock().push(tag);
                    ctx.yield_now();
                }
            }
        };
        let h1 = s.spawn(StackKind::User, mk(1, Arc::clone(&log), Arc::clone(&go)));
        let h2 = s.spawn(StackKind::User, mk(2, Arc::clone(&log), Arc::clone(&go)));
        go.store(true, Ordering::Release);
        h1.join();
        h2.join();
        let log = log.lock();
        assert_eq!(log.len(), 10);
        // Strict alternation after both are started.
        for pair in log.windows(2) {
            assert_ne!(pair[0], pair[1], "log {log:?}");
        }
        // Each of the 10 yields charged one context switch.
        assert!(clock.now() >= Vt::from_micros(10 * 140));
    }

    #[test]
    fn one_cpu_means_no_parallel_execution() {
        let (s, _) = sched(1);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&concurrent);
            let m = Arc::clone(&max_seen);
            handles.push(s.spawn(StackKind::User, move |ctx| {
                for _ in 0..20 {
                    let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                    m.fetch_max(now, Ordering::SeqCst);
                    c.fetch_sub(1, Ordering::SeqCst);
                    ctx.yield_now();
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multiple_cpus_allow_parallelism() {
        let (s, _) = sched(4);
        let in_blocking = Arc::new(AtomicUsize::new(0));
        let max_parallel = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&in_blocking);
            let m = Arc::clone(&max_parallel);
            handles.push(s.spawn(StackKind::User, move |_ctx| {
                let now = b.fetch_add(1, Ordering::SeqCst) + 1;
                m.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                b.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join();
        }
        assert!(max_parallel.load(Ordering::SeqCst) > 1);
    }

    #[test]
    fn blocking_releases_the_cpu() {
        let (s, _) = sched(1);
        let progressed = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&progressed);
        let waiter = s.spawn(StackKind::User, move |ctx| {
            ctx.blocking(|| {
                // While we sleep off-CPU, the other IsiBa must run.
                std::thread::sleep(std::time::Duration::from_millis(50));
            });
        });
        let p2 = Arc::clone(&p);
        let runner = s.spawn(StackKind::User, move |_| {
            p2.store(1, Ordering::SeqCst);
        });
        runner.join();
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
        waiter.join();
    }

    #[test]
    fn block_and_wake() {
        let (s, _) = sched(1);
        let stage = Arc::new(AtomicUsize::new(0));
        let st = Arc::clone(&stage);
        let sleeper = s.spawn(StackKind::User, move |ctx| {
            st.store(1, Ordering::SeqCst);
            ctx.block();
            st.store(2, Ordering::SeqCst);
        });
        let id = sleeper.id();
        while stage.load(Ordering::SeqCst) != 1 {
            std::thread::yield_now();
        }
        // Give the sleeper time to actually block, then wake it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(stage.load(Ordering::SeqCst), 1);
        s.wake(id);
        sleeper.join();
        assert_eq!(stage.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wake_of_unblocked_isiba_is_noop() {
        let (s, _) = sched(1);
        s.wake(IsiBaId(999)); // unknown id: must not panic
        let h = s.spawn(StackKind::User, |_| {});
        h.join();
    }

    #[test]
    fn switch_counter_advances() {
        let (s, _) = sched(1);
        let h = s.spawn(StackKind::User, |ctx| {
            for _ in 0..3 {
                ctx.yield_now();
            }
        });
        h.join();
        assert!(s.switches() >= 3);
    }

    #[test]
    #[should_panic(expected = "at least one virtual CPU")]
    fn zero_cpus_rejected() {
        let clock = Arc::new(VirtualClock::new());
        let _ = Scheduler::new(0, clock, Vt::ZERO);
    }

    #[test]
    fn many_isibas_fifo_fairness() {
        let (s, _) = sched(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let o = Arc::clone(&order);
            handles.push(s.spawn(StackKind::User, move |_| {
                o.lock().push(i);
            }));
        }
        for h in handles {
            h.join();
        }
        let order = order.lock();
        assert_eq!(&*order, &(0..8).collect::<Vec<_>>());
    }
}
