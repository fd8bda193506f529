//! The handler crew: the threads a node runs the requests on that their
//! callers do not serve themselves.
//!
//! A synchronous caller — of one call or of a batch — runs its own
//! requests' handlers when they arrive whole inside its sends
//! (`Handoff` in `node.rs`); every other request — an asynchronous one,
//! one completed by a retransmission — gets a crew thread of its own the
//! moment it is complete, so a handler may block — on a lock, on a
//! nested call back into the node that called it — without holding up
//! any other message.
//! A notify is never the crew's: its handler cannot block, so the
//! receive path applies it where it lands.
//! What the crew saves is the thread *creation*: a worker whose handler
//! has returned parks, and the next request claims it instead of
//! starting a new one. There is no bound and no queue: when nobody is
//! parked the dispatcher starts a worker, so the crew grows to the
//! node's peak concurrency and no further.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// One unit of work for a crew thread.
pub(crate) trait Job: Send + 'static {
    /// Run the job on the calling (crew) thread. `park` puts the thread
    /// back among the idle ones; the job calls it once, as soon as the
    /// part that may block is over.
    fn run(self, park: impl FnOnce());
}

enum Inbox<J> {
    Empty,
    Job(J),
    Exit,
}

/// Where a parked worker waits for its next job.
struct Berth<J> {
    inbox: Mutex<Inbox<J>>,
    wake: Condvar,
}

impl<J> Berth<J> {
    fn deliver(&self, item: Inbox<J>) {
        *self.inbox.lock() = item;
        self.wake.notify_one();
    }

    /// Block until a job (`Some`) or the order to exit (`None`) arrives.
    fn wait(&self) -> Option<J> {
        let mut inbox = self.inbox.lock();
        loop {
            match std::mem::replace(&mut *inbox, Inbox::Empty) {
                Inbox::Job(job) => return Some(job),
                Inbox::Exit => return None,
                Inbox::Empty => self.wake.wait(&mut inbox),
            }
        }
    }
}

struct Idle<J> {
    /// Parked workers, most recently parked last: the warmest stack and
    /// cache lines are claimed first.
    parked: Vec<Arc<Berth<J>>>,
    /// Set by [`Crew::close`]: nobody parks any more.
    closed: bool,
}

/// Shared by the crew's owner and every worker. Its strong count is one
/// (the [`Crew`]) plus one per live worker thread.
struct Shared<J> {
    idle: Mutex<Idle<J>>,
}

impl<J> Shared<J> {
    /// Park `berth`'s worker; `false` once the crew is closed.
    fn park(&self, berth: &Arc<Berth<J>>) -> bool {
        let mut idle = self.idle.lock();
        if idle.closed {
            return false;
        }
        idle.parked.push(Arc::clone(berth));
        true
    }
}

/// A node's handler threads. Dropping (or closing) the crew ends every
/// parked worker at once and every busy one when its handler returns.
pub(crate) struct Crew<J: Job> {
    shared: Arc<Shared<J>>,
    name: String,
}

impl<J: Job> Crew<J> {
    /// An empty crew whose threads will be called `name`.
    pub(crate) fn new(name: String) -> Crew<J> {
        Crew {
            shared: Arc::new(Shared {
                idle: Mutex::new(Idle {
                    parked: Vec::new(),
                    closed: false,
                }),
            }),
            name,
        }
    }

    /// Hand `job` to a parked worker, or to a new one when none is
    /// parked. Returns `true` when a thread had to be started.
    pub(crate) fn dispatch(&self, job: J) -> bool {
        let claimed = self.shared.idle.lock().parked.pop();
        match claimed {
            Some(berth) => {
                berth.deliver(Inbox::Job(job));
                false
            }
            None => {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(self.name.clone())
                    .spawn(move || work(&shared, job))
                    .expect("spawn ratp crew thread");
                true
            }
        }
    }

    /// End the parked workers now and the busy ones as their handlers
    /// return.
    pub(crate) fn close(&self) {
        let parked = {
            let mut idle = self.shared.idle.lock();
            idle.closed = true;
            std::mem::take(&mut idle.parked)
        };
        for berth in parked {
            berth.deliver(Inbox::Exit);
        }
    }

    /// Workers parked right now.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.shared.idle.lock().parked.len()
    }

    /// A counter of the strong holders of the crew's shared state — the
    /// crew itself while it lives, plus one per live worker — that
    /// outlives the crew.
    #[cfg(test)]
    pub(crate) fn holders(&self) -> impl Fn() -> usize {
        let shared = Arc::downgrade(&self.shared);
        move || shared.strong_count()
    }
}

impl<J: Job> Drop for Crew<J> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A worker's life: run the job it was started for, park, run whatever
/// it is claimed for, until the crew closes. A panicking job unwinds
/// through here and takes this one thread — claimed, so in nobody's
/// way — with it.
fn work<J: Job>(shared: &Shared<J>, first: J) {
    let berth = Arc::new(Berth {
        inbox: Mutex::new(Inbox::Empty),
        wake: Condvar::new(),
    });
    let mut job = first;
    loop {
        let mut parked = false;
        job.run(|| parked = shared.park(&berth));
        if !parked {
            return;
        }
        match berth.wait() {
            Some(next) => job = next,
            None => return,
        }
    }
}
