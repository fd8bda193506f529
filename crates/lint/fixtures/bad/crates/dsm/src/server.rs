//! Fixture: a DSM server seeding one violation per rule that reads this
//! file, each scoped so it trips *only* its own rule:
//!
//! * `flush_dirty` — stripe guard held across a blocking `.call(…)`
//!   → **lock-across-call**;
//! * `drain_dirty` — the same guard held across the reply wait of a
//!   call already sent, `.await_reply()` → **lock-across-call**;
//! * the `lint:allow(wall-clock)` in `promote` anchors a line that
//!   produces no wall-clock finding → **stale-allow**.

pub struct DsmServer {
    log: Log,
    ratp: Ratp,
    dirty: parking_lot::Mutex<Vec<u32>>,
}

impl DsmServer {
    pub fn promote(&self, seg: u64, epoch: u64) {
        // lint:allow(wall-clock) — stale: nothing here has ever
        // read a wall clock.
        self.log.append(seg + epoch);
    }

    /// Stripe guard live across a blocking RaTP call.
    fn flush_dirty(&self) {
        let dirty = self.dirty.lock();
        for page in dirty.iter() {
            self.ratp.call(*page);
        }
    }

    /// Stripe guard live while a call sent earlier is awaited.
    fn drain_dirty(&self, sent: Pending) {
        let dirty = self.dirty.lock();
        sent.await_reply(dirty.len());
    }
}

pub struct Pending;
impl Pending {
    pub fn await_reply(self, _pages: usize) {}
}

pub struct Log;
impl Log {
    pub fn append(&self, _rec: u64) {}
}

pub struct Ratp;
impl Ratp {
    pub fn call(&self, _page: u32) {}
}
